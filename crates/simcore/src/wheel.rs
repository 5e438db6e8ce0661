//! A hierarchical timing wheel on a node slab: the O(1) backend of
//! [`EventQueue`].
//!
//! [`EventQueue`]: crate::EventQueue
//!
//! ## Layout
//!
//! Eight wheels ("levels") of 256 slots each. A slot on level `l` spans
//! `256^l` nanoseconds, so level 0 resolves single nanoseconds over a
//! 256 ns window, level 1 spans 65.5 µs, level 2 ≈ 16.8 ms, and so on up
//! to level 7, whose 256 slots cover the entire remaining `u64` range —
//! the top wheel is the overflow level, so every representable timestamp
//! (including `u64::MAX`) maps to exactly one slot and no auxiliary
//! sorted structure is needed.
//!
//! An event scheduled for `at` lives on the level of the highest bit in
//! which `at` differs from the current clock (`level = highest_diff_bit /
//! 8`), in slot `(at >> 8·level) & 255`. Each level keeps a 256-bit
//! occupancy bitmap, so "earliest pending slot" is four `u64` words and a
//! `trailing_zeros` per level instead of a scan.
//!
//! Pending events live in one slab of nodes (timestamp, tie key, `next`
//! index, payload); a slot is just a `(head, tail)` pair of slab indices
//! forming a singly linked list. Freed nodes go on a free list threaded
//! through `next`, so the slab's size tracks the high-water mark of
//! pending events, not the sum of 2048 per-slot buffer capacities.
//!
//! ## Cost model
//!
//! `push` is O(1): one XOR + `leading_zeros` to pick the slot, one slab
//! node, one tail link. `pop` is amortized O(1): advancing the clock to
//! the next event cascades at most the 7 higher-level slots that contain
//! it, relinking their nodes in place (payloads never move), and every
//! event moves down a strictly decreasing sequence of levels, so each is
//! touched at most 8 times over its lifetime regardless of queue depth.
//! A level-0 slot holds one instant, and its list is kept sorted by tie
//! key; an insertion that does not belong at the tail walks the list,
//! which costs the number of events sharing that nanosecond.
//!
//! ## Determinism contract (identical to the heap backend)
//!
//! Events pop in `(timestamp, tie key)` order, where the tie key is the
//! static [`TieKey`] of the event: plain pushes by insertion sequence,
//! keyed deliveries by `(sent, uid)`, with the two classes ordered by the
//! window rule in [`crate::event`]. Upper-level slots only ever append,
//! and every event at one instant always shares one slot, so a cascade
//! hands a level-0 slot its events in push order and the sorted insert
//! does the rest. Scheduling into the past is a debug panic (clamped to
//! `now` in release), and `pop_until` never advances the clock past its
//! horizon. The proptest differential suite
//! (`tests/event_differential.rs`) drives this wheel and
//! [`HeapEventQueue`](crate::HeapEventQueue) in lockstep to assert the
//! two backends are observationally identical.

use crate::event::{TieKey, LATE};
use crate::time::{SimDuration, SimTime};

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels; 8 × 8 bits covers the full 64-bit nanosecond clock.
const LEVELS: usize = 8;
/// Words of the per-level occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;
/// Null slab index.
const NIL: u32 = u32::MAX;

/// One pending event in the slab. The tie key is stored unpacked so the
/// node stays at 24 bytes plus the payload.
struct Node<E> {
    at: u64,
    hi: u64,
    lo: u64,
    /// Next node in the same slot list (or the free list); `NIL` ends it.
    next: u32,
    class: u8,
    /// `None` only while the node sits on the free list.
    ev: Option<E>,
}

impl<E> Node<E> {
    #[inline(always)]
    fn key(&self) -> TieKey {
        (self.class, self.hi, self.lo)
    }
}

/// A slot: first and last slab index of its list, `NIL` when empty.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// The hierarchical timing wheel. See the module docs for the invariants.
pub(crate) struct TimingWheel<E> {
    /// Every pending (and every freed) event node.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list threaded through `Node::next`.
    free: u32,
    /// `LEVELS * SLOTS` slot lists, indexed `level * 256 + slot`.
    slots: Vec<List>,
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; OCC_WORDS]; LEVELS],
    /// Current clock in nanoseconds (timestamp of the last popped event).
    now: u64,
    /// End of the open window; plain pushes beyond it sort before
    /// deliveries at the same instant (see [`crate::event`]).
    window_end: u64,
    /// Monotonic insertion sequence (also the scheduled-total counter).
    seq: u64,
    /// Pending events.
    len: usize,
    /// High-water mark of `len`.
    peak: usize,
}

/// Level an event at `at` belongs to when the clock reads `now`.
#[inline(always)]
fn level_of(now: u64, at: u64) -> usize {
    // `| 1` keeps leading_zeros in range when at == now (level 0 either way).
    ((63 - ((now ^ at) | 1).leading_zeros()) / SLOT_BITS) as usize
}

/// Slot index of `at` within `level`.
#[inline(always)]
fn slot_of(level: usize, at: u64) -> usize {
    ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

/// First occupied slot index in a level's bitmap, if any.
#[inline]
fn first_occupied(occ: &[u64; OCC_WORDS]) -> Option<usize> {
    for (w, &bits) in occ.iter().enumerate() {
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
    }
    None
}

impl<E> TimingWheel<E> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            nodes: Vec::new(),
            free: NIL,
            slots: vec![EMPTY; LEVELS * SLOTS],
            occ: [[0; OCC_WORDS]; LEVELS],
            now: 0,
            window_end: u64::MAX,
            seq: 0,
            len: 0,
            peak: 0,
        }
    }

    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    pub(crate) fn set_window_end(&mut self, end: SimTime) {
        self.window_end = end.as_nanos();
    }

    pub(crate) fn push(&mut self, at: SimTime, ev: E) {
        debug_assert!(
            at >= self.now(),
            "scheduled an event in the past: {at:?} < {:?}",
            self.now()
        );
        self.push_plain(at.as_nanos().max(self.now), ev);
    }

    #[inline]
    pub(crate) fn push_after(&mut self, delay: SimDuration, ev: E) {
        // now + delay saturates via SimTime arithmetic, and is >= now by
        // construction — no past-scheduling check needed.
        self.push_plain((self.now() + delay).as_nanos(), ev);
    }

    pub(crate) fn push_keyed(&mut self, at: SimTime, sent: SimTime, uid: u64, ev: E) {
        debug_assert!(
            at >= self.now(),
            "scheduled an event in the past: {at:?} < {:?}",
            self.now()
        );
        self.seq += 1;
        let key = crate::event::keyed_key(sent, uid);
        self.insert(at.as_nanos().max(self.now), key, ev);
    }

    #[inline]
    fn push_plain(&mut self, at: u64, ev: E) {
        let key = crate::event::plain_key(at, self.window_end, self.seq);
        self.seq += 1;
        self.insert(at, key, ev);
    }

    /// Stores one event in a slab node and files it.
    #[inline]
    fn insert(&mut self, at: u64, (class, hi, lo): TieKey, ev: E) {
        let node = Node {
            at,
            hi,
            lo,
            next: NIL,
            class,
            ev: Some(ev),
        };
        let idx = if self.free == NIL {
            let idx = self.nodes.len();
            assert!(idx < NIL as usize, "timing wheel slab is full");
            self.nodes.push(node);
            idx as u32
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.link(idx);
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Files node `idx` into its slot per the level invariant: appended on
    /// upper levels, in tie-key order on level 0.
    #[inline]
    fn link(&mut self, idx: u32) {
        let node = &self.nodes[idx as usize];
        let l = level_of(self.now, node.at);
        let s = slot_of(l, node.at);
        self.occ[l][s / 64] |= 1 << (s % 64);
        // A `LATE` node carries the largest key among the nodes of its
        // instant already in the slot (last class, newest sequence: a
        // cascade hands them over in push order), so it appends.
        if l == 0 && node.class != LATE {
            self.link_sorted(s, idx);
        } else {
            self.append(l * SLOTS + s, idx);
        }
    }

    #[inline]
    fn append(&mut self, i: usize, idx: u32) {
        self.nodes[idx as usize].next = NIL;
        let list = &mut self.slots[i];
        if list.tail == NIL {
            list.head = idx;
        } else {
            self.nodes[list.tail as usize].next = idx;
        }
        list.tail = idx;
    }

    /// Inserts node `idx` into level-0 slot `s` after every node whose key
    /// is not larger (FIFO among equal keys).
    fn link_sorted(&mut self, s: usize, idx: u32) {
        let List { head, tail } = self.slots[s];
        let key = self.nodes[idx as usize].key();
        if tail == NIL || self.nodes[tail as usize].key() <= key {
            return self.append(s, idx);
        }
        if key < self.nodes[head as usize].key() {
            self.nodes[idx as usize].next = head;
            self.slots[s].head = idx;
            return;
        }
        // head <= key < tail: the successor exists before the tail.
        let mut prev = head;
        loop {
            let next = self.nodes[prev as usize].next;
            if key < self.nodes[next as usize].key() {
                self.nodes[idx as usize].next = next;
                self.nodes[prev as usize].next = idx;
                return;
            }
            prev = next;
        }
    }

    /// Timestamp of the earliest pending event without disturbing the
    /// wheel. O(1) in bitmap words plus, when only upper levels are
    /// occupied, one walk of the single first slot.
    fn earliest(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        for l in 0..LEVELS {
            let Some(s) = first_occupied(&self.occ[l]) else {
                continue;
            };
            if l == 0 {
                // Level-0 slots hold exactly one timestamp: the slot's.
                return Some((self.now & !(SLOTS as u64 - 1)) | s as u64);
            }
            // Upper-level slots mix timestamps; the earliest is the min.
            let mut cur = self.slots[l * SLOTS + s].head;
            let mut min = u64::MAX;
            while cur != NIL {
                let n = &self.nodes[cur as usize];
                min = min.min(n.at);
                cur = n.next;
            }
            return Some(min);
        }
        unreachable!("len > 0 but no occupied slot");
    }

    /// Advances the clock to `t` (the earliest pending timestamp),
    /// cascading every higher-level slot on the path so the event lands
    /// in its level-0 slot. Nodes are relinked in list order, so events
    /// at one instant reach level 0 in push order.
    fn advance_to(&mut self, t: u64) {
        loop {
            let l = level_of(self.now, t);
            if l == 0 {
                break;
            }
            let s = slot_of(l, t);
            // Jump to the start of that slot's window; everything in the
            // slot re-files relative to the new clock, one level (or more)
            // down.
            self.now = t & !((1u64 << (SLOT_BITS * l as u32)) - 1);
            let mut cur = std::mem::replace(&mut self.slots[l * SLOTS + s], EMPTY).head;
            self.occ[l][s / 64] &= !(1 << (s % 64));
            while cur != NIL {
                let next = self.nodes[cur as usize].next;
                debug_assert!(self.nodes[cur as usize].at >= self.now);
                self.link(cur);
                cur = next;
            }
        }
        self.now = t;
    }

    /// Unlinks and frees the head of the level-0 slot holding `t`.
    /// Precondition: `advance_to(t)` has run.
    fn take_head(&mut self, t: u64) -> E {
        let s = slot_of(0, t);
        let idx = self.slots[s].head;
        debug_assert!(idx != NIL, "took from an empty slot");
        let node = &mut self.nodes[idx as usize];
        debug_assert_eq!(node.at, t, "level-0 slot mixed timestamps");
        let next = node.next;
        let ev = node.ev.take().expect("pending node holds its event");
        node.next = self.free;
        self.free = idx;
        self.slots[s].head = next;
        if next == NIL {
            self.slots[s].tail = NIL;
            self.occ[0][s / 64] &= !(1 << (s % 64));
        }
        self.len -= 1;
        ev
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let t = self.earliest()?;
        self.advance_to(t);
        Some((SimTime::from_nanos(t), self.take_head(t)))
    }

    #[inline]
    pub(crate) fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let t = self.earliest()?;
        if t > limit.as_nanos() {
            // Beyond the horizon: stays queued, clock does not move.
            return None;
        }
        self.advance_to(t);
        Some((SimTime::from_nanos(t), self.take_head(t)))
    }

    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(SimTime::from_nanos)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn scheduled_total(&self) -> u64 {
        self.seq
    }

    pub(crate) fn peak_pending(&self) -> usize {
        self.peak
    }

    /// Reconstructs a wheel from snapshot state: the clock, the lifetime
    /// counters, and every pending event in *pop order*.
    ///
    /// Events are re-filed as plain pushes with fresh sequence numbers
    /// `0..n` — pop order is all that matters for ties, and re-numbering
    /// keeps the rebuild independent of where each event originally sat
    /// in the schedule history. The insertion counter is then bumped back
    /// up to `scheduled_total` so future pushes order after every
    /// restored tie and the `events_scheduled` diagnostic stays
    /// byte-identical.
    pub(crate) fn rebuild(
        now: u64,
        scheduled_total: u64,
        peak: usize,
        events: Vec<(u64, E)>,
    ) -> Self {
        let mut w = TimingWheel::new();
        w.now = now;
        let n = events.len();
        debug_assert!(scheduled_total >= n as u64);
        for (at, ev) in events {
            debug_assert!(at >= now, "snapshot held an event in the past");
            w.push_plain(at.max(now), ev);
        }
        w.seq = scheduled_total;
        w.peak = peak.max(n);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_math() {
        assert_eq!(level_of(0, 0), 0);
        assert_eq!(level_of(0, 255), 0);
        assert_eq!(level_of(0, 256), 1);
        assert_eq!(level_of(0, 65_535), 1);
        assert_eq!(level_of(0, 65_536), 2);
        assert_eq!(level_of(0, u64::MAX), 7);
        assert_eq!(level_of(u64::MAX - 1, u64::MAX), 0);
        assert_eq!(slot_of(0, 0x1234), 0x34);
        assert_eq!(slot_of(1, 0x1234), 0x12);
        assert_eq!(slot_of(7, u64::MAX), 255);
    }

    #[test]
    fn far_future_and_max_timestamps() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        w.push(SimTime::from_nanos(u64::MAX), 3);
        w.push(SimTime::from_nanos(u64::MAX - 1), 2);
        w.push(SimTime::from_nanos(5), 1);
        assert_eq!(w.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(w.pop(), Some((SimTime::from_nanos(5), 1)));
        assert_eq!(w.pop(), Some((SimTime::from_nanos(u64::MAX - 1), 2)));
        assert_eq!(w.pop(), Some((SimTime::from_nanos(u64::MAX), 3)));
        assert_eq!(w.pop(), None);
        assert_eq!(w.now(), SimTime::from_nanos(u64::MAX));
    }

    #[test]
    fn cascades_preserve_fifo_ties() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        // Two ties parked far out (level >= 1 initially), plus one pushed
        // after the clock advances next to them (level 0 directly): the
        // pop order must follow insertion sequence.
        let t = SimTime::from_nanos(1_000_000);
        w.push(t, 0);
        w.push(t, 1);
        w.push(SimTime::from_nanos(10), 99);
        assert_eq!(w.pop(), Some((SimTime::from_nanos(10), 99)));
        w.push(t, 2);
        assert_eq!(w.pop(), Some((t, 0)));
        // Mid-drain push at the current timestamp lands behind the ties.
        w.push(t, 3);
        assert_eq!(w.pop(), Some((t, 1)));
        assert_eq!(w.pop(), Some((t, 2)));
        assert_eq!(w.pop(), Some((t, 3)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn keyed_pushes_sort_between_the_plain_classes() {
        let mut w: TimingWheel<&str> = TimingWheel::new();
        let t = SimTime::from_nanos(700);
        // Window (.., 500]: a plain push at 700 lies beyond it (early).
        w.set_window_end(SimTime::from_nanos(500));
        w.push(t, "early");
        w.set_window_end(SimTime::from_nanos(1_000));
        // Deliveries arrive in scrambled order; they pop by (sent, uid).
        w.push_keyed(t, SimTime::from_nanos(90), 1, "d3");
        w.push_keyed(t, SimTime::from_nanos(10), 7, "d2");
        w.push_keyed(t, SimTime::from_nanos(10), 3, "d1");
        w.push(t, "late");
        let order: Vec<_> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["early", "d1", "d2", "d3", "late"]);
        assert_eq!(w.scheduled_total(), 5);
    }

    #[test]
    fn pop_until_does_not_advance_past_horizon() {
        let mut w: TimingWheel<&str> = TimingWheel::new();
        w.push(SimTime::from_nanos(100_000), "later");
        assert_eq!(w.pop_until(SimTime::from_nanos(99_999)), None);
        assert_eq!(w.now(), SimTime::ZERO);
        // Exact boundary is inclusive.
        assert_eq!(
            w.pop_until(SimTime::from_nanos(100_000)),
            Some((SimTime::from_nanos(100_000), "later"))
        );
    }

    #[test]
    fn counters_track_pending_events() {
        let mut w: TimingWheel<u8> = TimingWheel::new();
        let t = SimTime::from_nanos(7);
        for i in 0..5 {
            w.push(t, i);
        }
        assert_eq!(w.len(), 5);
        assert_eq!(w.peak_pending(), 5);
        assert_eq!(w.pop(), Some((t, 0)));
        assert_eq!(w.len(), 4);
        assert_eq!(w.peek_time(), Some(t));
        while w.pop().is_some() {}
        assert_eq!(w.len(), 0);
        assert_eq!(w.scheduled_total(), 5);
        assert_eq!(w.peak_pending(), 5);
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        let mut w: TimingWheel<u64> = TimingWheel::new();
        for round in 0..100u64 {
            for i in 0..8 {
                w.push_after(SimDuration::from_nanos(i * 300), round * 8 + i);
            }
            while w.pop().is_some() {}
        }
        assert_eq!(w.nodes.len(), 8, "slab grows to the pending peak only");
        assert_eq!(w.scheduled_total(), 800);
    }
}
