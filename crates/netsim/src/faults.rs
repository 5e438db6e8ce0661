//! Deterministic fault injection.
//!
//! A [`FaultSchedule`] is a declarative list of fault windows — link
//! down/loss/corruption, switch stall/blackhole, host pause — that the
//! simulation driver applies at event-dispatch time. Faults are
//! seed-deterministic: probabilistic windows draw from a dedicated RNG
//! stream forked off the run seed, so an identical `RunSpec` + schedule +
//! seed reproduces the exact same packet fates at any `--jobs` and on both
//! event backends, and adding a fault never perturbs the RNG draws of
//! switches or workload generators.
//!
//! Schedules are parsed from a compact spec string (the `--faults` CLI
//! flag), one item per window, items separated by `;`:
//!
//! ```text
//! kind:target[:prob]@from-until
//! ```
//!
//! * `kind` — `down`, `loss`, `corrupt` (link faults), `stall`,
//!   `blackhole`, `pause` (node faults).
//! * `target` — `A-B` (a link between adjacent node ids, both directions),
//!   `*` (every link) for link faults; a node id for node faults.
//! * `prob` — loss/corruption probability in `(0, 1]`; required for
//!   `loss`/`corrupt`, forbidden otherwise.
//! * `from`/`until` — times with a unit suffix (`ns`, `us`, `ms`, `s`);
//!   the window is half-open `[from, until)`.
//!
//! Examples: `down:0-64@5ms-8ms` (link between host 0 and switch 64 dead
//! for 3 ms), `loss:*:0.01@2ms-20ms` (1% loss everywhere),
//! `stall:70@1ms-1500us;pause:3@0s-1ms`.
//!
//! Semantics, applied by the driver before normal dispatch:
//!
//! * **down** — every packet delivery across the link during the window is
//!   dropped ([`DropCause::LinkDown`]).
//! * **loss** / **corrupt** — each delivery is dropped with probability
//!   `prob` ([`DropCause::LinkLoss`] / [`DropCause::LinkCorrupt`]; a
//!   corrupted packet fails the receiver's CRC, which for the simulator is
//!   the same outcome as a loss but accounted separately).
//! * **stall** / **pause** — the node freezes: all of its events (arrivals,
//!   TX completions, timers, flow starts) are deferred to the window end,
//!   preserving their relative order. `stall` is the switch-flavored
//!   spelling and `pause` the host-flavored one; either applies to any
//!   node.
//! * **blackhole** — the node silently discards every arriving packet
//!   ([`DropCause::Blackhole`]) while processing everything else normally.

use crate::events::Event;
use crate::topology::Topology;
use std::collections::BTreeMap;
use vertigo_pkt::{mix64, NodeId};
use vertigo_simcore::{SimRng, SimTime};
use vertigo_stats::DropCause;

/// What a fault window does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Link administratively down: all traversals dropped.
    Down,
    /// Probabilistic loss on each traversal.
    Loss(f64),
    /// Probabilistic corruption on each traversal (dropped at the
    /// receiver's CRC check; accounted separately from loss).
    Corrupt(f64),
    /// Node frozen: every event for the node deferred to the window end.
    Stall,
    /// Node discards all arriving packets.
    Blackhole,
    /// Alias of [`FaultKind::Stall`] in host-flavored spelling.
    Pause,
}

impl FaultKind {
    /// True for kinds that target a link rather than a node.
    pub fn is_link_fault(self) -> bool {
        matches!(
            self,
            FaultKind::Down | FaultKind::Loss(_) | FaultKind::Corrupt(_)
        )
    }
}

/// What a fault window applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The (bidirectional) link between two adjacent nodes.
    Link {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Every link in the topology.
    AllLinks,
    /// A single node (switch or host).
    Node(NodeId),
}

/// One fault: a kind, a target, and a half-open active window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// What happens.
    pub kind: FaultKind,
    /// Where it happens.
    pub target: FaultTarget,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// Maximum fault windows per schedule (inline storage keeps
/// `FaultSchedule` — and therefore `RunSpec` — `Copy`).
pub const MAX_FAULTS: usize = 16;

/// A declarative, copyable schedule of fault windows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSchedule {
    windows: [Option<FaultWindow>; MAX_FAULTS],
    len: u8,
}

impl FaultSchedule {
    /// The empty schedule (no faults).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// True when no fault windows are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of scheduled fault windows.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Iterates the scheduled windows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &FaultWindow> {
        self.windows[..self.len as usize]
            .iter()
            .map(|w| w.as_ref().expect("windows below len are Some"))
    }

    /// Adds a window, validating kind/target compatibility, probability
    /// range, and window ordering.
    pub fn push(&mut self, w: FaultWindow) -> Result<(), String> {
        if (self.len as usize) >= MAX_FAULTS {
            return Err(format!("fault schedule full (max {MAX_FAULTS} windows)"));
        }
        if w.until <= w.from {
            return Err(format!(
                "fault window must end after it starts ({:?} .. {:?})",
                w.from, w.until
            ));
        }
        match (w.kind, w.target) {
            (k, FaultTarget::Link { a, b }) if k.is_link_fault() => {
                if a == b {
                    return Err("link fault endpoints must differ".into());
                }
            }
            (k, FaultTarget::AllLinks) if k.is_link_fault() => {}
            (k, FaultTarget::Node(_)) if !k.is_link_fault() => {}
            (k, t) => {
                return Err(format!("fault kind {k:?} cannot target {t:?}"));
            }
        }
        if let FaultKind::Loss(p) | FaultKind::Corrupt(p) = w.kind {
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!("fault probability must be in (0, 1], got {p}"));
            }
        }
        self.windows[self.len as usize] = Some(w);
        self.len += 1;
        Ok(())
    }

    /// Parses a `--faults` spec string (see the module docs for the
    /// grammar). The empty string parses to the empty schedule.
    pub fn parse(spec: &str) -> Result<FaultSchedule, String> {
        let mut sched = FaultSchedule::new();
        for item in spec.split(';') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            sched.push(parse_item(item)?)?;
        }
        Ok(sched)
    }
}

fn parse_item(item: &str) -> Result<FaultWindow, String> {
    let (head, times) = item
        .split_once('@')
        .ok_or_else(|| format!("fault `{item}`: missing `@from-until` window"))?;
    let (from_s, until_s) = times
        .split_once('-')
        .ok_or_else(|| format!("fault `{item}`: window must be `from-until`"))?;
    let from = parse_time(from_s.trim())?;
    let until = parse_time(until_s.trim())?;

    let mut parts = head.split(':');
    let kind_s = parts.next().unwrap_or("").trim();
    let target_s = parts
        .next()
        .ok_or_else(|| format!("fault `{item}`: missing target"))?
        .trim();
    let prob_s = parts.next().map(str::trim);
    if parts.next().is_some() {
        return Err(format!("fault `{item}`: too many `:` fields"));
    }

    let prob = |wanted: &str| -> Result<f64, String> {
        let p = prob_s
            .ok_or_else(|| format!("fault `{item}`: `{wanted}` needs a probability field"))?;
        p.parse::<f64>()
            .map_err(|_| format!("fault `{item}`: bad probability `{p}`"))
    };
    let kind = match kind_s {
        "down" => FaultKind::Down,
        "loss" => FaultKind::Loss(prob("loss")?),
        "corrupt" => FaultKind::Corrupt(prob("corrupt")?),
        "stall" => FaultKind::Stall,
        "blackhole" => FaultKind::Blackhole,
        "pause" => FaultKind::Pause,
        other => {
            return Err(format!(
                "fault `{item}`: unknown kind `{other}` \
                 (expected down|loss|corrupt|stall|blackhole|pause)"
            ))
        }
    };
    if !kind.is_link_fault() && prob_s.is_some() {
        return Err(format!(
            "fault `{item}`: `{kind_s}` does not take a probability"
        ));
    }

    let target = if kind.is_link_fault() {
        if target_s == "*" {
            FaultTarget::AllLinks
        } else {
            let (a, b) = target_s.split_once('-').ok_or_else(|| {
                format!("fault `{item}`: link target must be `A-B` node ids or `*`")
            })?;
            FaultTarget::Link {
                a: NodeId(parse_node(a.trim(), item)?),
                b: NodeId(parse_node(b.trim(), item)?),
            }
        }
    } else {
        FaultTarget::Node(NodeId(parse_node(target_s, item)?))
    };

    Ok(FaultWindow {
        kind,
        target,
        from,
        until,
    })
}

fn parse_node(s: &str, item: &str) -> Result<u32, String> {
    s.parse::<u32>()
        .map_err(|_| format!("fault `{item}`: bad node id `{s}`"))
}

/// Parses `<float><unit>` where unit is ns/us/ms/s (e.g. `360us`, `2.5ms`).
/// Shared with the trace-filter grammar (`time=1ms-2ms`) and the
/// `--workload` scenario grammar in the workload crate.
pub fn parse_time(s: &str) -> Result<SimTime, String> {
    let split = s
        .find(|c: char| c.is_ascii_alphabetic())
        .ok_or_else(|| format!("time `{s}`: missing unit (ns|us|ms|s)"))?;
    let (num, unit) = s.split_at(split);
    let v: f64 = num
        .parse()
        .map_err(|_| format!("time `{s}`: bad number `{num}`"))?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(format!("time `{s}`: must be finite and non-negative"));
    }
    let nanos = match unit {
        "ns" => v,
        "us" => v * 1e3,
        "ms" => v * 1e6,
        "s" => v * 1e9,
        other => return Err(format!("time `{s}`: unknown unit `{other}`")),
    };
    Ok(SimTime::from_nanos(nanos.round() as u64))
}

/// What the driver should do with a popped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Dispatch normally.
    Pass,
    /// Discard the event's packet with the given cause.
    Drop(DropCause),
    /// Re-enqueue the event at the given (future) time.
    Defer(SimTime),
}

#[derive(Debug, Clone, Copy)]
enum LinkFault {
    Down,
    Loss(f64),
    Corrupt(f64),
}

#[derive(Debug, Clone, Copy)]
enum NodeFault {
    Freeze,
    Blackhole,
}

#[derive(Debug, Clone, Copy)]
struct Compiled<K> {
    kind: K,
    from: SimTime,
    until: SimTime,
}

impl<K> Compiled<K> {
    fn active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// A schedule compiled against a concrete topology, ready for O(1)-ish
/// per-event lookups at dispatch time. Owned by the simulation driver.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Dedicated RNG stream for loss/corruption draws, forked off the run
    /// seed so faults never perturb switch or workload randomness.
    rng: SimRng,
    /// Link windows keyed by the *receiving* `(node, port)` of a traversal.
    link: BTreeMap<(u32, u16), Vec<Compiled<LinkFault>>>,
    /// Node windows keyed by node id.
    node: BTreeMap<u32, Vec<Compiled<NodeFault>>>,
}

impl FaultState {
    /// Compiles `sched` against `topo`. Panics on a target that does not
    /// exist in the topology — a schedule/config mismatch is a setup bug,
    /// not a runtime condition.
    pub(crate) fn compile(sched: &FaultSchedule, topo: &Topology, rng: SimRng) -> FaultState {
        let mut st = FaultState {
            rng,
            link: BTreeMap::new(),
            node: BTreeMap::new(),
        };
        for w in sched.iter() {
            match w.kind {
                FaultKind::Down => st.add_link(w, LinkFault::Down, topo),
                FaultKind::Loss(p) => st.add_link(w, LinkFault::Loss(p), topo),
                FaultKind::Corrupt(p) => st.add_link(w, LinkFault::Corrupt(p), topo),
                FaultKind::Stall | FaultKind::Pause => st.add_node(w, NodeFault::Freeze, topo),
                FaultKind::Blackhole => st.add_node(w, NodeFault::Blackhole, topo),
            }
        }
        st
    }

    /// Serializes the fault RNG (stream `0xFA17`). The compiled windows
    /// derive from the schedule in the run spec and are rebuilt on
    /// resume, so only the RNG cursor is state.
    pub(crate) fn snap_save(&self, w: &mut vertigo_simcore::SnapWriter) {
        use vertigo_simcore::Snapshot;
        self.rng.save(w);
    }

    /// Restores the fault RNG written by [`FaultState::snap_save`].
    pub(crate) fn snap_restore(
        &mut self,
        r: &mut vertigo_simcore::SnapReader<'_>,
    ) -> Result<(), vertigo_simcore::SnapError> {
        use vertigo_simcore::Snapshot;
        self.rng = vertigo_simcore::SimRng::restore(r)?;
        Ok(())
    }

    fn add_link(&mut self, w: &FaultWindow, kind: LinkFault, topo: &Topology) {
        let c = Compiled {
            kind,
            from: w.from,
            until: w.until,
        };
        match w.target {
            FaultTarget::Link { a, b } => {
                // A packet a->b arrives at b on b's port toward a (and
                // vice versa); fault both directions.
                for (rx, tx) in [(b, a), (a, b)] {
                    let port = topo.port_to(rx, tx).unwrap_or_else(|| {
                        panic!("fault schedule: no link between nodes {} and {}", a.0, b.0)
                    });
                    self.link.entry((rx.0, port.0)).or_default().push(c);
                }
            }
            FaultTarget::AllLinks => {
                for n in 0..topo.num_nodes() {
                    for p in 0..topo.adj[n].len() {
                        self.link.entry((n as u32, p as u16)).or_default().push(c);
                    }
                }
            }
            FaultTarget::Node(_) => unreachable!("validated at push"),
        }
    }

    fn add_node(&mut self, w: &FaultWindow, kind: NodeFault, topo: &Topology) {
        let FaultTarget::Node(n) = w.target else {
            unreachable!("validated at push");
        };
        assert!(
            (n.index()) < topo.num_nodes(),
            "fault schedule: node {} not in topology ({} nodes)",
            n.0,
            topo.num_nodes()
        );
        self.node.entry(n.0).or_default().push(Compiled {
            kind,
            from: w.from,
            until: w.until,
        });
    }

    /// Latest end among freeze windows active at `now` for `node`.
    fn frozen_until(&self, now: SimTime, node: NodeId) -> Option<SimTime> {
        let ws = self.node.get(&node.0)?;
        ws.iter()
            .filter(|c| matches!(c.kind, NodeFault::Freeze) && c.active(now))
            .map(|c| c.until)
            .max()
    }

    fn blackholed(&self, now: SimTime, node: NodeId) -> bool {
        self.node.get(&node.0).is_some_and(|ws| {
            ws.iter()
                .any(|c| matches!(c.kind, NodeFault::Blackhole) && c.active(now))
        })
    }

    /// Decides the fate of a popped event. Called by the driver before
    /// normal dispatch; draws loss/corruption randomness in event order,
    /// which is identical across backends and `--jobs`.
    pub(crate) fn intercept(&mut self, now: SimTime, ev: &Event) -> FaultAction {
        match *ev {
            Event::Arrive { node, port, .. } => {
                if let Some(until) = self.frozen_until(now, node) {
                    return FaultAction::Defer(until);
                }
                if self.blackholed(now, node) {
                    return FaultAction::Drop(DropCause::Blackhole);
                }
                if let Some(ws) = self.link.get(&(node.0, port.0)) {
                    for c in ws {
                        if !c.active(now) {
                            continue;
                        }
                        match c.kind {
                            LinkFault::Down => return FaultAction::Drop(DropCause::LinkDown),
                            LinkFault::Loss(p) => {
                                if self.rng.chance(p) {
                                    return FaultAction::Drop(DropCause::LinkLoss);
                                }
                            }
                            LinkFault::Corrupt(p) => {
                                if self.rng.chance(p) {
                                    return FaultAction::Drop(DropCause::LinkCorrupt);
                                }
                            }
                        }
                    }
                }
                FaultAction::Pass
            }
            Event::TxDone { node, .. } | Event::HostTimer { node } => {
                match self.frozen_until(now, node) {
                    Some(until) => FaultAction::Defer(until),
                    None => FaultAction::Pass,
                }
            }
            Event::FlowStart(ref f) => match self.frozen_until(now, f.src) {
                Some(until) => FaultAction::Defer(until),
                None => FaultAction::Pass,
            },
            Event::TelemetrySample => FaultAction::Pass,
        }
    }

    /// Content-keyed variant of [`FaultState::intercept`] for the domain
    /// engine. Two differences, both forced by parallelism:
    ///
    /// * `&self` — every domain shares one compiled schedule behind an
    ///   `Arc`, so interception cannot mutate;
    /// * loss/corruption draws hash the *packet* (seed, uid, arrival time,
    ///   rx location, window index) instead of advancing a sequential RNG
    ///   stream. The verdict for a given packet traversal is therefore
    ///   identical for any domain count — sequential draw order would be
    ///   partition-dependent.
    ///
    /// Deterministic faults (down / blackhole / freeze) share the exact
    /// window logic with the classic path.
    pub(crate) fn intercept_keyed(&self, now: SimTime, ev: &Event) -> FaultAction {
        match *ev {
            Event::Arrive {
                node,
                port,
                ref pkt,
            } => {
                if let Some(until) = self.frozen_until(now, node) {
                    return FaultAction::Defer(until);
                }
                if self.blackholed(now, node) {
                    return FaultAction::Drop(DropCause::Blackhole);
                }
                if let Some(ws) = self.link.get(&(node.0, port.0)) {
                    for (i, c) in ws.iter().enumerate() {
                        if !c.active(now) {
                            continue;
                        }
                        match c.kind {
                            LinkFault::Down => return FaultAction::Drop(DropCause::LinkDown),
                            LinkFault::Loss(p) => {
                                if self.keyed_chance(p, pkt.uid, now, node, port.0, i) {
                                    return FaultAction::Drop(DropCause::LinkLoss);
                                }
                            }
                            LinkFault::Corrupt(p) => {
                                if self.keyed_chance(p, pkt.uid, now, node, port.0, i) {
                                    return FaultAction::Drop(DropCause::LinkCorrupt);
                                }
                            }
                        }
                    }
                }
                FaultAction::Pass
            }
            Event::TxDone { node, .. } | Event::HostTimer { node } => {
                match self.frozen_until(now, node) {
                    Some(until) => FaultAction::Defer(until),
                    None => FaultAction::Pass,
                }
            }
            Event::FlowStart(ref f) => match self.frozen_until(now, f.src) {
                Some(until) => FaultAction::Defer(until),
                None => FaultAction::Pass,
            },
            Event::TelemetrySample => FaultAction::Pass,
        }
    }

    /// A Bernoulli(p) draw keyed on packet content and fault location
    /// rather than stream position. Same uniform construction as
    /// [`SimRng::uniform`] (top 53 bits of a mixed 64-bit word); the
    /// window index keeps co-located Loss and Corrupt windows
    /// independent.
    fn keyed_chance(
        &self,
        p: f64,
        uid: u64,
        now: SimTime,
        node: NodeId,
        port: u16,
        w: usize,
    ) -> bool {
        let mut h = mix64(self.rng.seed() ^ mix64(uid));
        h = mix64(h ^ now.as_nanos());
        h = mix64(h ^ (((node.0 as u64) << 24) | ((port as u64) << 8) | w as u64));
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn parse_full_grammar() {
        let s = FaultSchedule::parse(
            "down:0-64@5ms-8ms; loss:*:0.01@2ms-20ms; corrupt:1-65:0.5@0us-10us; \
             stall:70@1ms-1500us; blackhole:66@0s-1ms; pause:3@100us-200us",
        )
        .expect("valid spec");
        assert_eq!(s.len(), 6);
        let ws: Vec<&FaultWindow> = s.iter().collect();
        assert_eq!(
            *ws[0],
            FaultWindow {
                kind: FaultKind::Down,
                target: FaultTarget::Link {
                    a: NodeId(0),
                    b: NodeId(64)
                },
                from: t(5000),
                until: t(8000),
            }
        );
        assert_eq!(ws[1].kind, FaultKind::Loss(0.01));
        assert_eq!(ws[1].target, FaultTarget::AllLinks);
        assert_eq!(ws[3].kind, FaultKind::Stall);
        assert_eq!(ws[3].until, t(1500));
        assert_eq!(ws[5].target, FaultTarget::Node(NodeId(3)));
    }

    #[test]
    fn parse_empty_is_empty() {
        assert!(FaultSchedule::parse("").expect("empty ok").is_empty());
        assert!(FaultSchedule::parse(" ; ").expect("blanks ok").is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "down:0-64",                  // no window
            "down:0-64@5ms",              // no range
            "flood:0-64@0s-1ms",          // unknown kind
            "loss:*@0s-1ms",              // loss without probability
            "loss:*:0@0s-1ms",            // probability out of range
            "loss:*:1.5@0s-1ms",          // probability out of range
            "down:7@0s-1ms",              // link kind with node target
            "stall:0-64@0s-1ms",          // node kind with link target
            "stall:7:0.5@0s-1ms",         // node kind with probability
            "down:0-0@0s-1ms",            // self-link
            "down:0-64@1ms-1ms",          // empty window
            "down:0-64@2ms-1ms",          // inverted window
            "down:0-64@0s-1parsec",       // bad unit
            "down:zero-64@0s-1ms",        // bad node id
            "down:0-64:0.1:extra@0s-1ms", // too many fields
        ] {
            assert!(FaultSchedule::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn schedule_capacity_is_enforced() {
        let mut s = FaultSchedule::new();
        let w = FaultWindow {
            kind: FaultKind::Down,
            target: FaultTarget::Link {
                a: NodeId(0),
                b: NodeId(1),
            },
            from: t(0),
            until: t(1),
        };
        for _ in 0..MAX_FAULTS {
            s.push(w).expect("below capacity");
        }
        assert!(s.push(w).is_err());
    }

    #[test]
    fn time_units_parse() {
        assert_eq!(parse_time("250ns").unwrap(), SimTime::from_nanos(250));
        assert_eq!(parse_time("360us").unwrap(), t(360));
        assert_eq!(parse_time("2.5ms").unwrap(), t(2500));
        assert_eq!(parse_time("1s").unwrap(), t(1_000_000));
        assert!(parse_time("5").is_err());
        assert!(parse_time("ms").is_err());
        assert!(parse_time("-1ms").is_err());
    }

    #[test]
    fn compiled_windows_are_half_open() {
        let c = Compiled {
            kind: LinkFault::Down,
            from: t(10),
            until: t(20),
        };
        assert!(!c.active(t(9)));
        assert!(c.active(t(10)));
        assert!(c.active(t(19)));
        assert!(!c.active(t(20)));
    }
}
