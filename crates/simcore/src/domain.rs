//! Domain-decomposition primitives for conservative parallel simulation.
//!
//! A parallel run partitions the model into *domains*, each owning a
//! private [`crate::EventQueue`]. Domains advance in lockstep windows
//! bounded by a *lookahead* — the minimum latency any interaction needs
//! to cross from one domain into another. Two pieces live here because
//! they are model-agnostic:
//!
//! * [`LookaheadGrid`] — the window arithmetic. Windows end on multiples
//!   of the lookahead quantum, which makes the barrier schedule a pure
//!   function of event *times* (never of how the model was partitioned).
//! * [`EventQueue::push_keyed`](crate::EventQueue::push_keyed) and
//!   [`EventQueue::set_window_end`](crate::EventQueue::set_window_end) —
//!   the deterministic merge order. A delivery pushed keyed by
//!   `(send time, unique id)` when its window opens pops at its instant
//!   in that canonical order, independent of which domain produced it or
//!   in what order threads finished; no sorted exchange buffer is needed.
//!
//! The driving loop (who drains what, when threads run, where deliveries
//! wait) belongs to the model layer.

use crate::SimTime;

/// Window arithmetic for a conservative lookahead barrier.
///
/// The quantum is the minimum cross-domain latency: any interaction
/// emitted at time `t` lands at `t + quantum` or later, so a window
/// `(start, end]` with `end - start <= quantum` can be simulated by all
/// domains independently — nothing sent inside the window can be
/// received inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookaheadGrid {
    quantum_ns: u64,
}

impl LookaheadGrid {
    /// Creates a grid with the given lookahead quantum.
    ///
    /// # Panics
    /// Panics if `quantum_ns` is zero: a zero-latency interaction makes
    /// conservative windowing impossible (every window would be empty).
    pub fn new(quantum_ns: u64) -> Self {
        assert!(
            quantum_ns > 0,
            "lookahead quantum must be positive: a zero-latency cross-domain \
             link admits no conservative window"
        );
        LookaheadGrid { quantum_ns }
    }

    /// The lookahead quantum in nanoseconds.
    pub fn quantum_ns(&self) -> u64 {
        self.quantum_ns
    }

    /// The earliest grid point *strictly after* `t`.
    ///
    /// Windows always end on grid points, so a window that starts at the
    /// earliest pending event time `t` spans at most one quantum — the
    /// conservative bound. Strictness matters: an event exactly on a grid
    /// point still needs a non-empty window to execute in.
    pub fn ceil_after(&self, t: SimTime) -> SimTime {
        let q = self.quantum_ns;
        SimTime::from_nanos((t.as_nanos() / q + 1).saturating_mul(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_ceil_is_strictly_after() {
        let g = LookaheadGrid::new(500);
        assert_eq!(g.ceil_after(SimTime::ZERO), SimTime::from_nanos(500));
        assert_eq!(
            g.ceil_after(SimTime::from_nanos(499)),
            SimTime::from_nanos(500)
        );
        // Exactly on a grid point -> next point, never the same one.
        assert_eq!(
            g.ceil_after(SimTime::from_nanos(500)),
            SimTime::from_nanos(1000)
        );
        assert_eq!(
            g.ceil_after(SimTime::from_nanos(501)),
            SimTime::from_nanos(1000)
        );
    }

    #[test]
    #[should_panic(expected = "lookahead quantum must be positive")]
    fn zero_quantum_rejected() {
        let _ = LookaheadGrid::new(0);
    }
}
