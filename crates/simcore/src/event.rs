//! The event queue at the heart of the discrete-event simulator.
//!
//! [`EventQueue`] is a time-ordered priority queue. Events scheduled for the
//! same instant pop in the order of a static *tie key*, which makes whole
//! simulations bit-reproducible for a given seed — a property the test
//! suite asserts end to end.
//!
//! ## The tie key
//!
//! Two kinds of push exist:
//!
//! * a **plain** push ([`EventQueue::push`], [`EventQueue::push_after`]);
//! * a **keyed** push ([`EventQueue::push_keyed`]), which carries a send
//!   time and a unique id — the domain engine's wire deliveries.
//!
//! At one instant, events pop in three classes, FIFO by insertion
//! sequence inside each plain class:
//!
//! 1. plain pushes that landed *beyond* the open window's end when they
//!    were made ([`EventQueue::set_window_end`]);
//! 2. keyed pushes, by `(sent, uid)`;
//! 3. plain pushes that landed inside the open window.
//!
//! The window end defaults to `u64::MAX`, so a queue that never opens a
//! window (the classic engine) puts every plain push in class 3 and pops
//! ties in plain insertion order. The domain engine opens each barrier
//! window before it runs it; the key then reproduces "pushed before the
//! window's deliveries were injected / pushed after" without depending on
//! the order in which deliveries reach the queue.
//!
//! Two interchangeable backends implement that contract:
//!
//! * [`EventBackend::Wheel`] (the default) — a hierarchical timing wheel
//!   with amortized O(1) push/pop; see [`crate::wheel`]'s module docs.
//! * [`EventBackend::Heap`] — a `BinaryHeap` ordered by the same key,
//!   retained as [`HeapEventQueue`](crate::HeapEventQueue) and selectable
//!   here so entire simulations can be replayed on it; the differential
//!   test suite asserts both produce identical event sequences (and
//!   byte-identical experiment output).

use crate::heapq::HeapEventQueue;
use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// The pop order of one event among others at the same instant:
/// `(class, hi, lo)`, compared lexicographically. See the module docs.
pub(crate) type TieKey = (u8, u64, u64);

/// Class of a plain push that landed beyond the open window's end.
pub(crate) const EARLY: u8 = 0;
/// Class of a keyed push.
pub(crate) const KEYED: u8 = 1;
/// Class of a plain push that landed inside the open window.
pub(crate) const LATE: u8 = 2;

/// Tie key of the plain push number `seq` landing at `at`.
#[inline(always)]
pub(crate) fn plain_key(at: u64, window_end: u64, seq: u64) -> TieKey {
    let class = if at > window_end { EARLY } else { LATE };
    (class, seq, 0)
}

/// Tie key of a keyed push.
#[inline(always)]
pub(crate) fn keyed_key(sent: SimTime, uid: u64) -> TieKey {
    (KEYED, sent.as_nanos(), uid)
}

/// Which data structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventBackend {
    /// Hierarchical timing wheel: amortized O(1) per operation (default).
    #[default]
    Wheel,
    /// Binary heap: O(log n) per operation; the reference oracle.
    Heap,
}

// The wheel variant is ~350 bytes (inline occupancy bitmaps) vs ~50 for
// the heap. Boxing it would shrink the enum but put a pointer chase on
// every push/pop — the opposite of what this queue is for. One queue
// lives per simulation, so the size asymmetry costs nothing.
#[allow(clippy::large_enum_variant)]
enum Backend<E> {
    Wheel(TimingWheel<E>),
    Heap(HeapEventQueue<E>),
}

/// A deterministic, time-ordered event queue.
///
/// Ties pop by the static key described in the [module docs](self). The
/// queue tracks the current simulation clock: [`EventQueue::pop`]
/// advances it to the timestamp of the event being delivered, and scheduling
/// an event in the past is a logic error caught by a debug assertion (it is
/// clamped to `now` in release builds so a simulation never travels back in
/// time).
pub struct EventQueue<E> {
    inner: Backend<E>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`],
    /// backed by the default timing wheel.
    pub fn new() -> Self {
        Self::with_backend(EventBackend::Wheel)
    }

    /// Creates an empty queue on an explicitly chosen backend.
    pub fn with_backend(backend: EventBackend) -> Self {
        EventQueue {
            inner: match backend {
                EventBackend::Wheel => Backend::Wheel(TimingWheel::new()),
                EventBackend::Heap => Backend::Heap(HeapEventQueue::new()),
            },
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> EventBackend {
        match &self.inner {
            Backend::Wheel(_) => EventBackend::Wheel,
            Backend::Heap(_) => EventBackend::Heap,
        }
    }

    /// The current simulation clock (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Backend::Wheel(q) => q.now(),
            Backend::Heap(q) => q.now(),
        }
    }

    /// Schedules `ev` for delivery at `at`.
    ///
    /// `at` must not be earlier than the current clock; in debug builds this
    /// panics, in release builds the event is clamped to `now`.
    #[inline]
    pub fn push(&mut self, at: SimTime, ev: E) {
        // Under the audit feature the past-scheduling check is a hard
        // error even in release builds (the backends debug-assert and
        // clamp otherwise).
        #[cfg(feature = "audit")]
        assert!(
            at >= self.now(),
            "audit: event scheduled in the past (at {:?} < now {:?})",
            at,
            self.now()
        );
        match &mut self.inner {
            Backend::Wheel(q) => q.push(at, ev),
            Backend::Heap(q) => q.push(at, ev),
        }
    }

    /// Schedules `ev` for `delay` after the current clock.
    ///
    /// The hot scheduling sites all compute `now + delta`; this helper folds
    /// the addition into the queue so callers cannot accidentally use a
    /// stale clock, and the non-negative-delay invariant holds by
    /// construction (no past-scheduling check needed).
    #[inline]
    pub fn push_after(&mut self, delay: SimDuration, ev: E) {
        match &mut self.inner {
            Backend::Wheel(q) => q.push_after(delay, ev),
            Backend::Heap(q) => q.push_after(delay, ev),
        }
    }

    /// Schedules a keyed event: at `at`, ties sort by `(sent, uid)`
    /// between the two plain classes (see the [module docs](self)).
    /// `(sent, uid)` should be unique among events at one instant; exact
    /// duplicates pop in insertion order.
    ///
    /// Same past-scheduling rule as [`EventQueue::push`].
    #[inline]
    pub fn push_keyed(&mut self, at: SimTime, sent: SimTime, uid: u64, ev: E) {
        #[cfg(feature = "audit")]
        assert!(
            at >= self.now(),
            "audit: event scheduled in the past (at {:?} < now {:?})",
            at,
            self.now()
        );
        match &mut self.inner {
            Backend::Wheel(q) => q.push_keyed(at, sent, uid, ev),
            Backend::Heap(q) => q.push_keyed(at, sent, uid, ev),
        }
    }

    /// Opens a window ending at `end`: from now on, a plain push landing
    /// after `end` sorts before keyed events at its instant, one landing
    /// at or before `end` after them. Events already queued keep their
    /// keys.
    pub fn set_window_end(&mut self, end: SimTime) {
        match &mut self.inner {
            Backend::Wheel(q) => q.set_window_end(end),
            Backend::Heap(q) => q.set_window_end(end),
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.inner {
            Backend::Wheel(q) => q.pop(),
            Backend::Heap(q) => q.pop(),
        }
    }

    /// Combined peek-then-pop: removes and returns the earliest event only
    /// if its timestamp is at or before `limit`, advancing the clock.
    ///
    /// This is the main-loop fast path — events beyond the horizon stay
    /// queued and the clock does not move past `limit`.
    #[inline]
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        match &mut self.inner {
            Backend::Wheel(q) => q.pop_until(limit),
            Backend::Heap(q) => q.pop_until(limit),
        }
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.inner {
            Backend::Wheel(q) => q.peek_time(),
            Backend::Heap(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Backend::Wheel(q) => q.len(),
            Backend::Heap(q) => q.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (diagnostic).
    pub fn scheduled_total(&self) -> u64 {
        match &self.inner {
            Backend::Wheel(q) => q.scheduled_total(),
            Backend::Heap(q) => q.scheduled_total(),
        }
    }

    /// High-water mark of pending events — the queue-depth analogue of a
    /// switch buffer's peak occupancy. Deflection storms (DIBS-style) show
    /// up here as an order-of-magnitude spike over quiet runs.
    pub fn peak_pending(&self) -> usize {
        match &self.inner {
            Backend::Wheel(q) => q.peak_pending(),
            Backend::Heap(q) => q.peak_pending(),
        }
    }
}

impl<E: Snapshot> EventQueue<E> {
    /// Serializes the queue for a checkpoint: the clock, the lifetime
    /// counters, and every pending event in **pop order** — then rebuilds
    /// the queue in place so the simulation keeps running unperturbed.
    ///
    /// Pop order is the only ordering fact the restored queue needs: the
    /// rebuild re-files events as plain pushes with fresh sequences `0..n`
    /// and then restores the insertion counter to its original value, so
    /// FIFO ties survive and future pushes order after every pending tie.
    /// Tie keys and the window end are not part of the format: the
    /// rebuilt queue has no window open, which is the state of every
    /// queue that is checkpointed (the classic engine's).
    /// The drain-and-rebuild is invisible to the running simulation
    /// (identical clock, counters, and pop sequence afterwards); the
    /// wheel/heap differential suite plus the snapshot proptests pin that
    /// down.
    pub fn save_into(&mut self, w: &mut SnapWriter) {
        let backend = self.backend();
        let now = self.now().as_nanos();
        let total = self.scheduled_total();
        let peak = self.peak_pending();
        let mut events: Vec<(u64, E)> = Vec::with_capacity(self.len());
        while let Some((t, ev)) = self.pop() {
            events.push((t.as_nanos(), ev));
        }
        w.put_u64(now);
        w.put_u64(total);
        w.put_usize(peak);
        w.put_usize(events.len());
        for (at, ev) in &events {
            w.put_u64(*at);
            ev.save(w);
        }
        *self = Self::rebuilt(backend, now, total, peak, events);
    }

    /// Reconstructs a queue serialized by [`EventQueue::save_into`] onto
    /// the given backend. The backend choice is free: the snapshot holds
    /// pop order, which both backends reproduce identically.
    pub fn restore_from(r: &mut SnapReader<'_>, backend: EventBackend) -> Result<Self, SnapError> {
        let now = r.get_u64()?;
        let total = r.get_u64()?;
        let peak = r.get_usize()?;
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(SnapError::new(format!(
                "corrupt event count {n} exceeds {} remaining bytes",
                r.remaining()
            )));
        }
        let mut events = Vec::with_capacity(n);
        let mut prev = now;
        for _ in 0..n {
            let at = r.get_u64()?;
            if at < prev {
                return Err(SnapError::new(format!(
                    "event stream not in pop order ({at} after {prev})"
                )));
            }
            prev = at;
            events.push((at, E::restore(r)?));
        }
        Ok(Self::rebuilt(backend, now, total, peak, events))
    }

    fn rebuilt(
        backend: EventBackend,
        now: u64,
        total: u64,
        peak: usize,
        events: Vec<(u64, E)>,
    ) -> Self {
        EventQueue {
            inner: match backend {
                EventBackend::Wheel => {
                    Backend::Wheel(TimingWheel::rebuild(now, total, peak, events))
                }
                EventBackend::Heap => {
                    Backend::Heap(HeapEventQueue::rebuild(now, total, peak, events))
                }
            },
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Every contract test runs against both backends.
    fn both(f: impl Fn(EventBackend)) {
        f(EventBackend::Wheel);
        f(EventBackend::Heap);
    }

    #[test]
    fn pops_in_time_order() {
        both(|b| {
            let mut q = EventQueue::with_backend(b);
            q.push(SimTime::from_nanos(30), "c");
            q.push(SimTime::from_nanos(10), "a");
            q.push(SimTime::from_nanos(20), "b");
            assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
            assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
            assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn ties_break_fifo() {
        both(|b| {
            let mut q = EventQueue::with_backend(b);
            let t = SimTime::from_micros(1);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        });
    }

    #[test]
    fn clock_advances_with_pop() {
        both(|b| {
            let mut q = EventQueue::with_backend(b);
            assert_eq!(q.now(), SimTime::ZERO);
            q.push(SimTime::from_millis(5), ());
            q.pop();
            assert_eq!(q.now(), SimTime::from_millis(5));
            // Scheduling relative to the advanced clock works.
            q.push(q.now() + SimDuration::from_millis(1), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(6)));
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), ());
        q.pop();
        q.push(SimTime::from_millis(1), ());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in the past")]
    fn past_scheduling_panics_in_debug_heap() {
        let mut q = EventQueue::with_backend(EventBackend::Heap);
        q.push(SimTime::from_millis(5), ());
        q.pop();
        q.push(SimTime::from_millis(1), ());
    }

    #[test]
    fn len_and_counters() {
        both(|b| {
            let mut q: EventQueue<u8> = EventQueue::with_backend(b);
            assert!(q.is_empty());
            q.push(SimTime::from_nanos(1), 1);
            q.push(SimTime::from_nanos(2), 2);
            assert_eq!(q.len(), 2);
            assert_eq!(q.scheduled_total(), 2);
            assert_eq!(q.peak_pending(), 2);
            q.pop();
            assert_eq!(q.len(), 1);
            assert_eq!(q.peak_pending(), 2);
        });
    }

    #[test]
    fn push_after_is_relative_to_clock() {
        both(|b| {
            let mut q = EventQueue::with_backend(b);
            q.push(SimTime::from_millis(5), "first");
            q.pop();
            q.push_after(SimDuration::from_millis(2), "second");
            assert_eq!(q.pop(), Some((SimTime::from_millis(7), "second")));
        });
    }

    #[test]
    fn push_after_matches_push_ordering() {
        both(|b| {
            // push(now + d) and push_after(d) must interleave identically.
            let mut a = EventQueue::with_backend(b);
            let mut c = EventQueue::with_backend(b);
            for i in [7u64, 3, 3, 9, 1] {
                let d = SimDuration::from_nanos(i);
                a.push(a.now() + d, i);
                c.push_after(d, i);
            }
            loop {
                let (x, y) = (a.pop(), c.pop());
                assert_eq!(x, y);
                if x.is_none() {
                    break;
                }
            }
        });
    }

    #[test]
    fn pop_until_respects_horizon() {
        both(|b| {
            let mut q = EventQueue::with_backend(b);
            q.push(SimTime::from_nanos(10), "in");
            q.push(SimTime::from_nanos(30), "out");
            let limit = SimTime::from_nanos(20);
            assert_eq!(q.pop_until(limit), Some((SimTime::from_nanos(10), "in")));
            // The later event stays queued and the clock stays put.
            assert_eq!(q.pop_until(limit), None);
            assert_eq!(q.len(), 1);
            assert_eq!(q.now(), SimTime::from_nanos(10));
            // A higher limit releases it.
            assert_eq!(
                q.pop_until(SimTime::from_nanos(30)),
                Some((SimTime::from_nanos(30), "out"))
            );
            assert_eq!(q.pop_until(SimTime::from_nanos(u64::MAX)), None);
        });
    }

    #[test]
    fn pop_until_ties_break_fifo() {
        both(|b| {
            let mut q = EventQueue::with_backend(b);
            let t = SimTime::from_micros(1);
            for i in 0..10 {
                q.push(t, i);
            }
            for i in 0..10 {
                assert_eq!(q.pop_until(t).unwrap().1, i);
            }
        });
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        both(|b| {
            let mut q = EventQueue::with_backend(b);
            q.push(SimTime::from_nanos(10), 10u64);
            q.push(SimTime::from_nanos(50), 50);
            let (t, v) = q.pop().unwrap();
            assert_eq!(v, 10);
            q.push(t + SimDuration::from_nanos(5), 15);
            q.push(t + SimDuration::from_nanos(25), 35);
            let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
            assert_eq!(order, vec![15, 35, 50]);
        });
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        both(|b| {
            let mut q = EventQueue::with_backend(b);
            // Ties across cascade boundaries plus a popped prefix, so the
            // snapshot sees a mid-run clock and staged state.
            let far = SimTime::from_nanos(1_000_000);
            q.push(far, 0u64);
            q.push(far, 1);
            q.push(SimTime::from_nanos(10), 99);
            q.push(SimTime::from_nanos(300), 50);
            assert_eq!(q.pop().unwrap().1, 99);

            let mut w = SnapWriter::new();
            q.save_into(&mut w);
            let bytes = w.into_bytes();

            // The save itself is invisible: the original keeps running.
            let mut r = EventQueue::<u64>::restore_from(&mut SnapReader::new(&bytes), b).unwrap();
            assert_eq!(r.now(), q.now());
            assert_eq!(r.len(), q.len());
            assert_eq!(r.scheduled_total(), q.scheduled_total());
            assert_eq!(r.peak_pending(), q.peak_pending());
            // A post-restore push must order AFTER the pending ties.
            q.push(far, 2);
            r.push(far, 2);
            loop {
                let (a, c) = (q.pop(), r.pop());
                assert_eq!(a, c);
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(q.scheduled_total(), r.scheduled_total());
        });
    }

    #[test]
    fn snapshot_restores_across_backends() {
        // A wheel snapshot restored onto the heap (and vice versa) pops
        // identically: the format carries pop order, not backend layout.
        let mut q = EventQueue::with_backend(EventBackend::Wheel);
        for i in 0..20u64 {
            q.push(SimTime::from_nanos(i % 5 * 1000), i);
        }
        let mut w = SnapWriter::new();
        q.save_into(&mut w);
        let bytes = w.into_bytes();
        let mut h =
            EventQueue::<u64>::restore_from(&mut SnapReader::new(&bytes), EventBackend::Heap)
                .unwrap();
        loop {
            let (a, b) = (q.pop(), h.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut r = SnapReader::new(&[1, 2, 3]);
        assert!(EventQueue::<u64>::restore_from(&mut r, EventBackend::Wheel).is_err());
    }

    #[test]
    fn tie_key_orders_plain_classes_around_keyed_events() {
        both(|b| {
            let mut q = EventQueue::with_backend(b);
            let t = SimTime::from_nanos(2_000);
            q.set_window_end(SimTime::from_nanos(1_000));
            q.push(t, "early-0");
            q.push(t, "early-1");
            q.set_window_end(SimTime::from_nanos(3_000));
            q.push(t, "late-0");
            q.push_keyed(t, SimTime::from_nanos(5), 2, "keyed-b");
            q.push_keyed(t, SimTime::from_nanos(5), 1, "keyed-a");
            q.push(t, "late-1");
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(
                order,
                ["early-0", "early-1", "keyed-a", "keyed-b", "late-0", "late-1"]
            );
            assert_eq!(q.scheduled_total(), 6);
        });
    }

    #[test]
    fn backend_selection_is_observable() {
        assert_eq!(
            EventQueue::<()>::new().backend(),
            EventBackend::Wheel,
            "wheel is the default"
        );
        assert_eq!(
            EventQueue::<()>::with_backend(EventBackend::Heap).backend(),
            EventBackend::Heap
        );
        assert_eq!(EventBackend::default(), EventBackend::Wheel);
    }
}
