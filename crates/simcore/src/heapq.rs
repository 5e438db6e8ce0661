//! The `BinaryHeap`-backed event queue, retained as the reference
//! implementation ("oracle") for the timing-wheel backend.
//!
//! [`HeapEventQueue`] is O(log n) push/pop over a `Reverse<Entry>` heap
//! ordered by `(timestamp, tie key, insertion sequence)` — the tie key of
//! [`crate::event`], spelled out as a plain comparison. It stays in-tree
//! for three
//! reasons: differential proptests drive it in lockstep with the wheel and
//! assert identical pop sequences; the criterion benches measure the wheel
//! against it; and [`EventBackend::Heap`](crate::EventBackend) lets a whole
//! simulation run on it to prove end-to-end byte-identical output.

use crate::event::{keyed_key, plain_key, TieKey};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    key: TieKey,
    seq: u64,
    ev: E,
}

impl<E> Entry<E> {
    fn order(&self) -> (SimTime, TieKey, u64) {
        (self.at, self.key, self.seq)
    }
}

// Ordering considers only (at, key, seq) — the payload needs no
// comparison traits, and seq is unique per entry so the ordering is total.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order().cmp(&other.order())
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic, time-ordered event queue backed by a binary heap.
///
/// Semantics are identical to [`EventQueue`](crate::EventQueue): time
/// order, ties by the static tie key (FIFO among plain pushes of one
/// class), a clock that advances with `pop`, and a debug assertion
/// against scheduling into the past (clamped to `now` in release builds).
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
    window_end: u64,
    peak: usize,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            window_end: u64::MAX,
            peak: 0,
        }
    }

    /// The current simulation clock (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` for delivery at `at`.
    ///
    /// `at` must not be earlier than the current clock; in debug builds this
    /// panics, in release builds the event is clamped to `now`.
    pub fn push(&mut self, at: SimTime, ev: E) {
        debug_assert!(
            at >= self.now,
            "scheduled an event in the past: {at:?} < {:?}",
            self.now
        );
        self.push_plain(at.max(self.now), ev);
    }

    /// Schedules `ev` for `delay` after the current clock.
    #[inline]
    pub fn push_after(&mut self, delay: SimDuration, ev: E) {
        self.push_plain(self.now + delay, ev);
    }

    /// Schedules a keyed event; see
    /// [`EventQueue::push_keyed`](crate::EventQueue::push_keyed).
    pub fn push_keyed(&mut self, at: SimTime, sent: SimTime, uid: u64, ev: E) {
        debug_assert!(
            at >= self.now,
            "scheduled an event in the past: {at:?} < {:?}",
            self.now
        );
        self.insert(at.max(self.now), keyed_key(sent, uid), ev);
    }

    /// Opens a window ending at `end`; see
    /// [`EventQueue::set_window_end`](crate::EventQueue::set_window_end).
    pub fn set_window_end(&mut self, end: SimTime) {
        self.window_end = end.as_nanos();
    }

    fn push_plain(&mut self, at: SimTime, ev: E) {
        let key = plain_key(at.as_nanos(), self.window_end, self.seq);
        self.insert(at, key, ev);
    }

    fn insert(&mut self, at: SimTime, key: TieKey, ev: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, key, seq, ev }));
        self.peak = self.peak.max(self.heap.len());
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.ev))
    }

    /// Combined peek-then-pop: removes and returns the earliest event only
    /// if its timestamp is at or before `limit`, advancing the clock.
    #[inline]
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.0.at > limit {
            return None;
        }
        let Reverse(e) = self.heap.pop().expect("peeked entry exists");
        self.now = e.at;
        Some((e.at, e.ev))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (diagnostic).
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// High-water mark of pending events (diagnostic).
    pub fn peak_pending(&self) -> usize {
        self.peak
    }

    /// Reconstructs a queue from snapshot state: the clock, the lifetime
    /// counters, and every pending event in *pop order*. See
    /// `TimingWheel::rebuild` for the sequence-renumbering rationale —
    /// the two backends must agree.
    pub(crate) fn rebuild(
        now: u64,
        scheduled_total: u64,
        peak: usize,
        events: Vec<(u64, E)>,
    ) -> Self {
        let mut q = HeapEventQueue::new();
        q.now = SimTime::from_nanos(now);
        let n = events.len();
        debug_assert!(scheduled_total >= n as u64);
        for (at, ev) in events {
            debug_assert!(at >= now, "snapshot held an event in the past");
            q.push_plain(SimTime::from_nanos(at.max(now)), ev);
        }
        q.seq = scheduled_total;
        q.peak = peak.max(n);
        q
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}
