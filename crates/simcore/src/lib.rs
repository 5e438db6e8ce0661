//! # vertigo-simcore
//!
//! The deterministic discrete-event simulation kernel underneath the Vertigo
//! reproduction. It deliberately knows nothing about networks: it provides
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulation clock,
//! * [`EventQueue`] — a time-ordered event queue with a static tie key
//!   (FIFO among plain pushes, `(sent, uid)` among keyed deliveries),
//!   backed by a slab-based hierarchical timing wheel (amortized O(1));
//!   a binary-heap implementation of the same order is retained as
//!   [`HeapEventQueue`] and selectable via [`EventBackend`] for
//!   differential testing,
//! * [`SimRng`] — seeded randomness with forkable independent streams,
//! * [`TimerSlot`] / [`TimerToken`] — O(1)-cancellable logical timers,
//! * [`LookaheadGrid`] / [`WorkerPool`] — model-agnostic building blocks
//!   for conservative parallel (domain-partitioned) simulation; keyed
//!   pushes give it a deterministic cross-domain merge order.
//!
//! Determinism contract: given the same seed and the same sequence of
//! `push`/`pop` calls, a simulation built on these primitives produces
//! bit-identical results. Nothing in this crate reads wall-clock time or
//! global RNG state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
mod domain;
mod event;
mod heapq;
mod rng;
mod snap;
mod time;
mod timer;
mod wheel;

pub use barrier::WorkerPool;
pub use domain::LookaheadGrid;
pub use event::{EventBackend, EventQueue};
pub use heapq::HeapEventQueue;
pub use rng::SimRng;
pub use snap::{
    SnapError, SnapReader, SnapWriter, Snapshot, SNAPSHOT_AVAILABLE, SNAP_MAGIC, SNAP_VERSION,
};
pub use time::{SimDuration, SimTime};
pub use timer::{TimerSlot, TimerToken};
