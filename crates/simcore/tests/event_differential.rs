//! Differential proptests: the timing-wheel event queue against the
//! retained `HeapEventQueue` oracle.
//!
//! Random interleavings of `push` / `push_after` / `push_keyed` /
//! `set_window_end` / `pop` / `pop_until` must produce identical
//! `(timestamp, payload)` sequences, identical clocks, and identical
//! pending counts on both backends — including clustered near-now
//! timestamps (burst regime), heavy ties (the static tie key: FIFO among
//! plain pushes of one class, `(sent, uid)` among keyed ones, duplicate
//! keys included), window ends that move forward, backward and to
//! `u64::MAX` between pushes, far-future delays that land in the wheel's
//! upper levels, `pop_until` at exact tick boundaries, and
//! `u64::MAX`-adjacent timestamps in the overflow wheel.

use proptest::prelude::*;
use vertigo_simcore::{EventBackend, EventQueue, SimDuration, SimTime};

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// `push(now + delta, id)` — absolute form.
    Push(u64),
    /// `push_after(delta, id)` — relative form.
    PushAfter(u64),
    /// `pop()`.
    Pop,
    /// `pop_until(now + horizon)` — bounded drain.
    PopUntil(u64),
    /// `pop_until` at the exact timestamp of the earliest pending event
    /// (boundary must be inclusive on both backends).
    PopUntilExact,
    /// `push_keyed(now + delta, now - back, uid, id)`; uids come from a
    /// small range so exact `(sent, uid)` duplicates occur.
    PushKeyed { delta: u64, back: u64, uid: u64 },
    /// `set_window_end(now + delta)`, saturating.
    Window(u64),
    /// `set_window_end(now - back)`: a window end behind the clock.
    WindowBack(u64),
}

/// Delay distributions exercising different wheel levels.
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Ties and near-now clusters: level 0, heavy FIFO pressure.
        Just(0u64),
        0u64..4,
        0u64..256,
        // Mid horizon: levels 1-2 (typical packet serialization/RTT).
        256u64..65_536,
        65_536u64..16_777_216,
        // Far future: upper wheel levels.
        1u64 << 30..1u64 << 40,
        // Overflow wheel: u64::MAX-adjacent (saturating add clamps).
        (u64::MAX - 512)..=u64::MAX,
    ]
}

fn keyed_strategy(delta: impl Strategy<Value = u64>) -> impl Strategy<Value = Op> {
    (delta, 0u64..3, 0u64..4).prop_map(|(delta, back, uid)| Op::PushKeyed { delta, back, uid })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        delta_strategy().prop_map(Op::Push),
        delta_strategy().prop_map(Op::PushAfter),
        Just(Op::Pop),
        delta_strategy().prop_map(Op::PopUntil),
        Just(Op::PopUntilExact),
        keyed_strategy(delta_strategy()),
        delta_strategy().prop_map(Op::Window),
        (0u64..600).prop_map(Op::WindowBack),
    ]
}

/// Runs the script on both backends in lockstep, asserting every
/// observable agrees after every step.
fn run_script(ops: &[Op]) {
    let mut wheel: EventQueue<u64> = EventQueue::with_backend(EventBackend::Wheel);
    let mut heap: EventQueue<u64> = EventQueue::with_backend(EventBackend::Heap);
    let mut next_id = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(delta) => {
                let at = wheel.now() + SimDuration::from_nanos(delta);
                wheel.push(at, next_id);
                heap.push(at, next_id);
                next_id += 1;
            }
            Op::PushAfter(delta) => {
                let d = SimDuration::from_nanos(delta);
                wheel.push_after(d, next_id);
                heap.push_after(d, next_id);
                next_id += 1;
            }
            Op::PushKeyed { delta, back, uid } => {
                let at = wheel.now() + SimDuration::from_nanos(delta);
                let sent = SimTime::from_nanos(wheel.now().as_nanos().saturating_sub(back));
                wheel.push_keyed(at, sent, uid, next_id);
                heap.push_keyed(at, sent, uid, next_id);
                next_id += 1;
            }
            Op::Window(delta) => {
                let end = wheel.now() + SimDuration::from_nanos(delta);
                wheel.set_window_end(end);
                heap.set_window_end(end);
            }
            Op::WindowBack(back) => {
                let end = SimTime::from_nanos(wheel.now().as_nanos().saturating_sub(back));
                wheel.set_window_end(end);
                heap.set_window_end(end);
            }
            Op::Pop => {
                assert_eq!(wheel.pop(), heap.pop(), "pop diverged at step {step}");
            }
            Op::PopUntil(h) => {
                let limit = wheel.now() + SimDuration::from_nanos(h);
                assert_eq!(
                    wheel.pop_until(limit),
                    heap.pop_until(limit),
                    "pop_until diverged at step {step}"
                );
            }
            Op::PopUntilExact => {
                // Inclusive boundary: the earliest event must come out at
                // a limit equal to its own timestamp.
                let (a, b) = (wheel.peek_time(), heap.peek_time());
                assert_eq!(a, b, "peek_time diverged at step {step}");
                if let Some(t) = a {
                    let (x, y) = (wheel.pop_until(t), heap.pop_until(t));
                    assert_eq!(x, y, "exact-boundary pop_until diverged at step {step}");
                    assert_eq!(x.map(|(at, _)| at), Some(t), "boundary must be inclusive");
                }
            }
        }
        assert_eq!(wheel.now(), heap.now(), "clock diverged at step {step}");
        assert_eq!(wheel.len(), heap.len(), "len diverged at step {step}");
        assert_eq!(
            wheel.peak_pending(),
            heap.peak_pending(),
            "peak diverged at step {step}"
        );
        assert_eq!(
            wheel.scheduled_total(),
            heap.scheduled_total(),
            "scheduled_total diverged at step {step}"
        );
    }
    // Full drain: whatever is left must come out identically, in order.
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(wheel.now(), heap.now());
}

/// Deliveries of one window as `(offset before the window end, extra
/// send lag, uid)`, then the delays of the plain follow-ups pushed
/// between pops.
type Window = (Vec<(u64, u64, u64)>, Vec<u64>);

/// Drives both backends through barrier windows on a 500 ns grid, the
/// way the domain engine does, asserting identical pops.
fn run_barrier_windows(windows: &[Window]) {
    const QUANTUM: u64 = 500;
    let mut wheel: EventQueue<u64> = EventQueue::with_backend(EventBackend::Wheel);
    let mut heap: EventQueue<u64> = EventQueue::with_backend(EventBackend::Heap);
    let mut next_id = 0u64;
    for (i, (deliveries, follow_ups)) in windows.iter().enumerate() {
        let end = SimTime::from_nanos((i as u64 + 1) * QUANTUM);
        wheel.set_window_end(end);
        heap.set_window_end(end);
        for &(offset, lag, uid) in deliveries {
            // Due in this window: (end - QUANTUM, end], sent at least one
            // quantum earlier.
            let at = end.as_nanos() - offset % QUANTUM;
            let sent = SimTime::from_nanos(at.saturating_sub(QUANTUM + lag));
            let at = SimTime::from_nanos(at);
            wheel.push_keyed(at, sent, uid, next_id);
            heap.push_keyed(at, sent, uid, next_id);
            next_id += 1;
        }
        let mut follow_ups = follow_ups.iter();
        loop {
            let (a, b) = (wheel.pop_until(end), heap.pop_until(end));
            assert_eq!(a, b, "window {i} diverged");
            if a.is_none() {
                break;
            }
            if let Some(&d) = follow_ups.next() {
                wheel.push_after(SimDuration::from_nanos(d), next_id);
                heap.push_after(SimDuration::from_nanos(d), next_id);
                next_id += 1;
            }
        }
        assert_eq!(wheel.now(), heap.now());
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.peak_pending(), heap.peak_pending());
    }
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn wheel_matches_heap_on_random_interleavings(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        run_script(&ops);
    }

    /// Pure burst regime: everything lands within a few ticks of now, with
    /// many exact ties — the FIFO-on-tie contract under maximum pressure.
    #[test]
    fn wheel_matches_heap_under_tie_storms(
        deltas in proptest::collection::vec(0u64..3, 1..300),
        drain_every in 2usize..10,
    ) {
        let mut ops = Vec::new();
        for (i, d) in deltas.iter().enumerate() {
            ops.push(Op::PushAfter(*d));
            if i % drain_every == drain_every - 1 {
                ops.push(Op::Pop);
                ops.push(Op::PopUntilExact);
            }
        }
        run_script(&ops);
    }

    /// Same-instant mixes: a handful of instants receive plain pushes on
    /// both sides of a moving window end and keyed pushes in scrambled
    /// `(sent, uid)` order, partly parked in upper levels and cascaded,
    /// partly pushed straight into level 0 between pops.
    #[test]
    fn wheel_matches_heap_on_same_instant_class_mixes(
        script in proptest::collection::vec(
            prop_oneof![
                (0u64..3).prop_map(|i| Op::Push(i * 70_000)),
                keyed_strategy((0u64..3).prop_map(|i| i * 70_000)),
                (0u64..3).prop_map(|i| Op::Window(i * 70_000)),
                Just(Op::WindowBack(1)),
                Just(Op::PopUntilExact),
                Just(Op::Push(0)),
                keyed_strategy(Just(0u64)),
            ],
            1..300,
        ),
    ) {
        run_script(&script);
    }

    /// The domain engine's pattern: open a window on a grid, push its due
    /// deliveries keyed in arbitrary order, drain to the window end while
    /// handlers push plain follow-ups inside and beyond the window.
    #[test]
    fn wheel_matches_heap_on_barrier_windows(
        windows in proptest::collection::vec(
            (
                proptest::collection::vec((0u64..500, 0u64..1_000, 0u64..1_000), 0..12),
                proptest::collection::vec(0u64..1_500, 0..12),
            ),
            1..40,
        ),
    ) {
        run_barrier_windows(&windows);
    }

    /// Deep prefill then bounded drains: exercises cascades from upper
    /// wheel levels down to level 0 as the clock sweeps forward.
    #[test]
    fn wheel_matches_heap_across_cascades(
        deltas in proptest::collection::vec(delta_strategy(), 1..200),
        horizons in proptest::collection::vec(0u64..1u64 << 41, 1..60),
    ) {
        let mut ops: Vec<Op> = deltas.iter().map(|&d| Op::Push(d)).collect();
        for h in horizons {
            ops.push(Op::PopUntil(h));
            ops.push(Op::PopUntil(h));
        }
        run_script(&ops);
    }
}

/// Deterministic regression: the exact sequence that exercises a push
/// landing in a level-0 slot while older ties for the same instant are
/// still staged from a cascade.
#[test]
fn staged_slot_interleaving_regression() {
    let ops = [
        Op::Push(1_000_000),
        Op::Push(1_000_000),
        Op::Push(10),
        Op::Pop,           // advances to 10
        Op::Push(999_990), // same instant as the parked pair, pushed later
        Op::Pop,           // first of the ties
        Op::Push(0),       // zero-delay push mid-drain
        Op::Pop,
        Op::Pop,
        Op::Pop,
    ];
    run_script(&ops);
}

/// `pop_until(u64::MAX)` with pending `u64::MAX` events: the horizon and
/// the timestamps coincide at the top of the clock.
#[test]
fn max_clock_saturation() {
    let ops = [
        Op::Push(u64::MAX),
        Op::Push(u64::MAX),
        Op::Push(5),
        Op::PopUntil(u64::MAX),
        Op::PopUntil(u64::MAX),
        Op::PopUntil(u64::MAX),
        Op::PopUntil(u64::MAX),
    ];
    run_script(&ops);
    // Saturating push_after at a clock already at MAX.
    let mut wheel: EventQueue<u64> = EventQueue::with_backend(EventBackend::Wheel);
    let mut heap: EventQueue<u64> = EventQueue::with_backend(EventBackend::Heap);
    for q in [&mut wheel, &mut heap] {
        q.push(SimTime::from_nanos(u64::MAX), 0);
        q.pop();
        q.push_after(SimDuration::from_nanos(17), 1); // saturates to MAX
    }
    assert_eq!(wheel.pop(), heap.pop());
    assert_eq!(wheel.now(), SimTime::from_nanos(u64::MAX));
}
