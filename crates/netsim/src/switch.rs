//! The output-queued switch: forwarding, ECN marking, and the deflection
//! machinery of §3.2.

use crate::deflect::DeflectionPolicy;
use crate::events::{Ctx, Event};
use crate::link::LinkParams;
use crate::policy::{BufferPolicy, ForwardPolicy, SwitchConfig};
use crate::queue::PortQueue;
use crate::topology::RouteTable;
use std::sync::Arc;
use vertigo_pkt::{ecmp_hash, pool, NodeId, Packet, PortId, MAX_HOPS};
use vertigo_simcore::{SimRng, SnapError, SnapReader, SnapWriter, Snapshot};
use vertigo_stats::{pack_ports, DropCause, TraceKind, TraceRecord, TRACE_NO_RANK};

/// Emits one provenance record for `pkt`. A free function rather than a
/// method so it can be called while a port is mutably borrowed; callers
/// guard with `ctx.rec.trace.enabled()` (compile-time `false` without the
/// `trace` feature, so every hook site folds away).
#[inline]
#[allow(clippy::too_many_arguments)] // one argument per record field
pub(crate) fn trace_rec(
    ctx: &mut Ctx,
    node: u32,
    kind: TraceKind,
    pkt: &Packet,
    a: u64,
    b: u64,
    flags: u8,
    port: u16,
) {
    ctx.rec.trace.record(TraceRecord {
        time_ns: ctx.now.as_nanos(),
        uid: pkt.uid,
        flow: pkt.flow.0,
        a,
        b,
        node,
        kind: kind.code(),
        flags,
        port,
    });
}

/// One output port: queue, link, and transmit state.
#[derive(Debug)]
pub struct Port {
    /// Neighboring node.
    pub peer: NodeId,
    /// The neighbor's port this link lands on.
    pub peer_port: PortId,
    /// Link parameters.
    pub link: LinkParams,
    /// The output queue.
    pub queue: PortQueue,
    /// Whether a packet is currently being serialized.
    pub busy: bool,
    /// Whether the peer is a host.
    pub host_facing: bool,
}

/// A datacenter switch.
pub struct Switch {
    /// This switch's node id.
    pub id: NodeId,
    pub(crate) cfg: SwitchConfig,
    pub(crate) ports: Vec<Port>,
    /// The topology-wide candidate table, shared by every switch.
    pub(crate) routes: Arc<RouteTable>,
    /// This switch's row index into `routes` (node id minus host count).
    pub(crate) sw: usize,
    /// DRILL's remembered least-loaded port (m = 1), per destination.
    drill_best: Vec<Option<u16>>,
    /// Per-switch ECMP hash salt.
    ecmp_salt: u64,
    /// Reusable buffer for deflection-candidate port lists, so deflecting
    /// a packet allocates nothing on the steady path.
    pub(crate) deflect_scratch: Vec<u16>,
    /// Reusable buffer for random candidate indices (DRILL, power-of-n
    /// forwarding and deflection sampling).
    pick_scratch: Vec<usize>,
    /// Reusable buffer for the sampled deflection ports; see
    /// [`Switch::sample_ports`].
    pub(crate) sample_scratch: Vec<u16>,
    /// Administratively-downed ports: never offered as deflection
    /// candidates. All-false by default; set by tests and operators, not
    /// by the fault layer (which intercepts at event dispatch).
    pub(crate) down: Vec<bool>,
    /// EWMA of total queued bytes across ports, updated on each hybrid
    /// overflow decision (alpha = 1/8). Zero until the hybrid policy runs.
    pub(crate) load_ewma: u64,
    /// Test-only mutation hook: perturbs every policy's victim/egress
    /// selection so golden-trace tests can prove they detect a seeded
    /// selection bug. Never set outside tests.
    pub(crate) mutate_victim: bool,
    /// High-water mark of any single port queue (diagnostics).
    pub max_port_bytes: u64,
}

impl Switch {
    /// Builds a switch from its ports and the shared candidate table;
    /// `switch_index` selects this switch's rows (its node id minus the
    /// host count).
    pub fn new(
        id: NodeId,
        cfg: SwitchConfig,
        ports: Vec<Port>,
        routes: Arc<RouteTable>,
        switch_index: usize,
        ecmp_salt: u64,
    ) -> Self {
        let hosts = routes.hosts();
        let nports = ports.len();
        Switch {
            id,
            cfg,
            ports,
            routes,
            sw: switch_index,
            drill_best: vec![None; hosts],
            ecmp_salt,
            deflect_scratch: Vec::new(),
            pick_scratch: Vec::new(),
            sample_scratch: Vec::new(),
            down: vec![false; nports],
            load_ewma: 0,
            mutate_victim: false,
            max_port_bytes: 0,
        }
    }

    /// Administratively downs (or restores) a port: downed ports are never
    /// offered as deflection candidates. Forwarding is unaffected — the
    /// fault layer handles in-flight loss at event dispatch.
    pub fn set_port_down(&mut self, port: u16, down: bool) {
        self.down[port as usize] = down;
    }

    /// Pins the hybrid policy's load EWMA (conformance tests steer the
    /// deflect-vs-drop decision to either side of the threshold with
    /// this; the next overflow decision reads the pinned value).
    pub fn set_load_ewma(&mut self, ewma: u64) {
        self.load_ewma = ewma;
    }

    /// The hybrid policy's current load EWMA (diagnostics and tests).
    pub fn load_ewma(&self) -> u64 {
        self.load_ewma
    }

    /// The hybrid policy's deflect-vs-drop threshold: half the switch's
    /// aggregate buffer capacity. At or below it, overflow deflects; above
    /// it, overflow drops and lets the transport retransmit.
    pub fn hybrid_threshold(&self) -> u64 {
        self.cfg.port_buffer_bytes * self.ports.len() as u64 / 2
    }

    /// Test-only mutation hook: perturbs victim/egress selection in every
    /// deflection policy (least-loaded becomes most-loaded, PABO bounces
    /// forward, hybrid inverts its decision). Golden-trace tests seed this
    /// to prove each policy's goldens actually pin the selection logic.
    pub fn seed_victim_mutation(&mut self) {
        self.mutate_victim = true;
    }

    /// Immutable port access (tests, diagnostics).
    pub fn port(&self, p: PortId) -> &Port {
        &self.ports[p.index()]
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Total bytes queued across all ports.
    pub fn queued_bytes(&self) -> u64 {
        self.ports.iter().map(|p| p.queue.bytes()).sum()
    }

    /// Largest single-port occupancy right now.
    pub fn busiest_port_bytes(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| p.queue.bytes())
            .max()
            .unwrap_or(0)
    }

    /// Total packets queued across all ports (conservation audit).
    pub fn queued_pkts(&self) -> u64 {
        self.ports.iter().map(|p| p.queue.len() as u64).sum()
    }

    /// Retunes the per-port buffer cap mid-run (warm-start fork
    /// override). Packets already queued above a lowered cap stay; only
    /// future enqueues see the new limit.
    pub fn override_port_buffer_bytes(&mut self, bytes: u64) {
        self.cfg.port_buffer_bytes = bytes;
    }

    /// Retunes the ECN marking threshold mid-run (warm-start fork
    /// override). 0 disables marking.
    pub fn override_ecn_threshold_pkts(&mut self, pkts: usize) {
        self.cfg.ecn_threshold_pkts = pkts;
    }

    /// Retunes Vertigo's deflection power-of-d mid-run (warm-start fork
    /// override). No-op on non-Vertigo buffer policies.
    pub fn override_deflect_power(&mut self, d: usize) {
        if let BufferPolicy::Vertigo {
            ref mut deflect_power,
            ..
        } = self.cfg.buffer
        {
            *deflect_power = d;
        }
    }

    /// Serializes the mutable switch state: per-port queue contents and
    /// busy flags, DRILL's remembered ports, and the queue high-water
    /// mark. Config, routes, and the ECMP salt derive from the run spec
    /// and are not saved.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.put_usize(self.ports.len());
        for port in &self.ports {
            port.queue.snap_save(w);
            w.put_bool(port.busy);
        }
        w.put_usize(self.drill_best.len());
        for d in &self.drill_best {
            d.save(w);
        }
        w.put_u64(self.max_port_bytes);
        w.put_u64(self.load_ewma);
    }

    /// Restores state written by [`Switch::snap_save`] into a switch
    /// freshly built from the same run spec.
    pub fn snap_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let nports = r.get_usize()?;
        if nports != self.ports.len() {
            return Err(SnapError::new(format!(
                "switch {}: snapshot has {nports} ports, topology has {}",
                self.id.0,
                self.ports.len()
            )));
        }
        for port in &mut self.ports {
            port.queue.snap_restore(r)?;
            port.busy = r.get_bool()?;
        }
        let nbest = r.get_usize()?;
        if nbest != self.drill_best.len() {
            return Err(SnapError::new(format!(
                "switch {}: snapshot has {nbest} DRILL entries, topology has {}",
                self.id.0,
                self.drill_best.len()
            )));
        }
        for d in &mut self.drill_best {
            *d = Option::restore(r)?;
        }
        self.max_port_bytes = r.get_u64()?;
        self.load_ewma = r.get_u64()?;
        Ok(())
    }

    /// Handles a packet arriving on `in_port`.
    pub fn on_arrive(&mut self, in_port: PortId, mut pkt: Box<Packet>, ctx: &mut Ctx) {
        pkt.hops += 1;
        if pkt.hops > MAX_HOPS {
            self.trace_drop(&pkt, DropCause::TtlExceeded, u16::MAX, ctx);
            ctx.rec.on_drop(DropCause::TtlExceeded, pkt.wire_size);
            pool::recycle(pkt);
            return;
        }
        let dst = pkt.dst.index();
        debug_assert!(dst < self.routes.hosts(), "packet to unknown destination");
        let out = match self.select_output(dst, &pkt, ctx) {
            Some(p) => p,
            None => {
                self.trace_drop(&pkt, DropCause::TtlExceeded, u16::MAX, ctx);
                ctx.rec.on_drop(DropCause::TtlExceeded, pkt.wire_size);
                pool::recycle(pkt);
                return;
            }
        };
        self.enqueue_with_policy(out, in_port, pkt, ctx);
    }

    /// Forwarding decision: pick among the equal-cost candidates.
    fn select_output(&mut self, dst: usize, pkt: &Packet, ctx: &mut Ctx) -> Option<u16> {
        let cands = self.routes.candidates(self.sw, dst);
        let n = cands.len();
        // Provenance for FwdDecision records: which policy decided (0 =
        // forced single candidate) and, for DRILL, the remembered port
        // going into the decision.
        let mut policy_code = 0u64;
        let mut remembered_before: Option<u16> = None;
        let chosen = match n {
            0 => None,
            1 => Some(cands[0]),
            n => {
                policy_code = self.cfg.forward.trace_code();
                match self.cfg.forward {
                    ForwardPolicy::Ecmp => {
                        let h = ecmp_hash(pkt.flow.0, self.ecmp_salt);
                        Some(cands[(h % n as u64) as usize])
                    }
                    ForwardPolicy::Drill { d } => {
                        // Sample d random candidates plus the remembered best.
                        let k = d.min(n);
                        let mut best: Option<u16> = None;
                        let mut best_bytes = u64::MAX;
                        ctx.rng.k_distinct(k, n, &mut self.pick_scratch);
                        for &i in &self.pick_scratch {
                            let p = cands[i];
                            let b = self.ports[p as usize].queue.bytes();
                            if best.is_none() || b < best_bytes {
                                best_bytes = b;
                                best = Some(p);
                            }
                        }
                        remembered_before = self.drill_best[dst];
                        if let Some(m) = remembered_before {
                            if cands.contains(&m)
                                && self.ports[m as usize].queue.bytes() < best_bytes
                            {
                                best = Some(m);
                            }
                        }
                        self.drill_best[dst] = best;
                        best
                    }
                    ForwardPolicy::PowerOfN { n: power } => {
                        let k = power.max(1).min(n);
                        let mut best: Option<u16> = None;
                        let mut best_bytes = u64::MAX;
                        ctx.rng.k_distinct(k, n, &mut self.pick_scratch);
                        for &i in &self.pick_scratch {
                            let p = cands[i];
                            let b = self.ports[p as usize].queue.bytes();
                            if best.is_none() || b < best_bytes {
                                best_bytes = b;
                                best = Some(p);
                            }
                        }
                        best
                    }
                }
            }
        };
        if ctx.rec.trace.enabled() {
            if let Some(c) = chosen {
                let b = n as u64 | ((remembered_before.map_or(0, |m| m as u64 + 1)) << 32);
                let flags = u8::from(remembered_before == Some(c));
                trace_rec(
                    ctx,
                    self.id.0,
                    TraceKind::FwdDecision,
                    pkt,
                    policy_code,
                    b,
                    flags,
                    c,
                );
            }
        }
        chosen
    }

    /// Provenance: records a drop of `pkt` at this switch (`port` = the
    /// attempted output, `u16::MAX` when none was chosen yet).
    #[inline]
    pub(crate) fn trace_drop(&self, pkt: &Packet, cause: DropCause, port: u16, ctx: &mut Ctx) {
        if ctx.rec.trace.enabled() {
            trace_rec(
                ctx,
                self.id.0,
                TraceKind::Drop,
                pkt,
                cause.index() as u64,
                pkt.wire_size as u64,
                0,
                port,
            );
        }
    }

    /// Provenance: records the enqueue of `pkt` onto `out` (call just
    /// before the push; `b` = queue bytes including the packet).
    #[inline]
    pub(crate) fn trace_enqueue(&self, pkt: &Packet, out: u16, ctx: &mut Ctx) {
        if ctx.rec.trace.enabled() {
            let q = &self.ports[out as usize].queue;
            let rank = q.rank_of(pkt).unwrap_or(TRACE_NO_RANK);
            let after = q.bytes().saturating_add(pkt.wire_size as u64);
            trace_rec(ctx, self.id.0, TraceKind::Enqueue, pkt, rank, after, 0, out);
        }
    }

    /// ECN: mark CE when the instantaneous queue length meets the DCTCP
    /// threshold.
    pub(crate) fn maybe_mark_ecn(
        cfg: &SwitchConfig,
        queue: &PortQueue,
        pkt: &mut Packet,
        ctx: &mut Ctx,
    ) {
        if cfg.ecn_threshold_pkts > 0 && queue.len() >= cfg.ecn_threshold_pkts {
            let was = pkt.ecn.is_ce();
            pkt.ecn.mark_ce();
            if !was && pkt.ecn.is_ce() {
                ctx.rec.ecn_marks += 1;
            }
        }
    }

    /// Enqueues `pkt` on `out`, applying the overflow policy when full.
    fn enqueue_with_policy(
        &mut self,
        out: u16,
        in_port: PortId,
        mut pkt: Box<Packet>,
        ctx: &mut Ctx,
    ) {
        let cap = self.cfg.port_buffer_bytes;
        if self.ports[out as usize].queue.fits(&pkt, cap) {
            Self::maybe_mark_ecn(&self.cfg, &self.ports[out as usize].queue, &mut pkt, ctx);
            self.trace_enqueue(&pkt, out, ctx);
            self.ports[out as usize].queue.push(pkt);
            self.max_port_bytes = self
                .max_port_bytes
                .max(self.ports[out as usize].queue.bytes());
            self.start_tx(out, ctx);
            return;
        }
        match self.cfg.buffer {
            BufferPolicy::DropTail => {
                self.trace_drop(&pkt, DropCause::QueueFull, out, ctx);
                ctx.rec.on_drop(DropCause::QueueFull, pkt.wire_size);
                pool::recycle(pkt);
            }
            // The deflection-policy zoo: each variant maps to one
            // [`DeflectionPolicy`] impl (see `crate::deflect` for the
            // trait contract the conformance and property suites pin).
            BufferPolicy::Dibs { max_deflections } => {
                crate::deflect::DibsPolicy { max_deflections }
                    .on_overflow(self, out, in_port, pkt, ctx)
            }
            BufferPolicy::Vertigo {
                deflect_power,
                scheduling,
                deflection,
            } => crate::deflect::VertigoPolicy {
                deflect_power,
                scheduling,
                deflection,
            }
            .on_overflow(self, out, in_port, pkt, ctx),
            BufferPolicy::Pabo { max_deflections } => {
                crate::deflect::PaboPolicy { max_deflections }
                    .on_overflow(self, out, in_port, pkt, ctx)
            }
            BufferPolicy::Hybrid { deflect_power } => {
                crate::deflect::HybridPolicy { deflect_power }
                    .on_overflow(self, out, in_port, pkt, ctx)
            }
            BufferPolicy::Bounded { cap, deflect_power } => {
                crate::deflect::BoundedPolicy { cap, deflect_power }
                    .on_overflow(self, out, in_port, pkt, ctx)
            }
            BufferPolicy::NdpTrim => {
                // Trim the payload and enqueue the header stub as an
                // explicit loss signal; stubs that still do not fit (or
                // ACKs, which have no payload to trim) are dropped.
                if pkt.is_data() && !pkt.is_trimmed() {
                    pkt.trim();
                    ctx.rec.trims += 1;
                    if self.ports[out as usize].queue.fits(&pkt, cap) {
                        Self::maybe_mark_ecn(
                            &self.cfg,
                            &self.ports[out as usize].queue,
                            &mut pkt,
                            ctx,
                        );
                        self.trace_enqueue(&pkt, out, ctx);
                        self.ports[out as usize].queue.push(pkt);
                        self.start_tx(out, ctx);
                        return;
                    }
                }
                self.trace_drop(&pkt, DropCause::QueueFull, out, ctx);
                ctx.rec.on_drop(DropCause::QueueFull, pkt.wire_size);
                pool::recycle(pkt);
            }
        }
    }

    /// Ports a packet may be deflected to: everything except the full
    /// output port, administratively-downed ports, host-facing ports that
    /// do not lead to the packet's destination (a foreign host would
    /// simply discard it), and — when the policy's
    /// [`crate::deflect::DeflectionPolicy::excludes_ingress`] contract
    /// says so — the arrival's ingress port, passed as `exclude_ingress`.
    ///
    /// The legacy policies (Vertigo, DIBS) pass `None`: their candidate
    /// sets have always included the ingress, and the golden traces pin
    /// that behavior byte-for-byte.
    ///
    /// Returns the switch's scratch buffer, detached to sidestep the
    /// borrow on `self`; callers hand it back by assigning
    /// `self.deflect_scratch` once done, so the steady-state deflection
    /// path performs no allocation.
    pub(crate) fn deflect_candidates(
        &mut self,
        full_port: u16,
        dst: NodeId,
        exclude_ingress: Option<u16>,
    ) -> Vec<u16> {
        let mut cands = std::mem::take(&mut self.deflect_scratch);
        cands.clear();
        cands.extend((0..self.ports.len() as u16).filter(|&p| {
            if p == full_port || Some(p) == exclude_ingress || self.down[p as usize] {
                return false;
            }
            let port = &self.ports[p as usize];
            !(port.host_facing && port.peer != dst)
        }));
        debug_assert!(
            !cands.contains(&full_port),
            "deflection candidates include the full output port"
        );
        debug_assert!(
            cands.iter().all(|&p| {
                let port = &self.ports[p as usize];
                !port.host_facing || port.peer == dst
            }),
            "deflection candidates include a host port that is not the destination's"
        );
        debug_assert!(
            exclude_ingress.is_none_or(|i| !cands.contains(&i)),
            "deflection candidates include the excluded ingress port"
        );
        cands
    }

    /// Draws `k` distinct ports of `cands` (the `SimRng::k_distinct`
    /// draws, in draw order). Returns the switch's sample buffer,
    /// detached like [`Switch::deflect_candidates`]'s: callers hand it
    /// back by assigning `self.sample_scratch` once done.
    pub(crate) fn sample_ports(&mut self, cands: &[u16], k: usize, rng: &mut SimRng) -> Vec<u16> {
        rng.k_distinct(k, cands.len(), &mut self.pick_scratch);
        let mut sample = std::mem::take(&mut self.sample_scratch);
        sample.clear();
        sample.extend(self.pick_scratch.iter().map(|&i| cands[i]));
        sample
    }

    /// Vertigo deflection: power-of-n placement; on total congestion force
    /// the victim in and drop the worst-ranked packet (paper footnote 5).
    /// `arriving_uid` identifies the packet that triggered the overflow,
    /// so provenance can flag "the victim was the arrival itself".
    pub(crate) fn deflect_victim(
        &mut self,
        mut victim: Box<Packet>,
        full_port: u16,
        power: usize,
        arriving_uid: u64,
        ctx: &mut Ctx,
    ) {
        let cap = self.cfg.port_buffer_bytes;
        let cands = self.deflect_candidates(full_port, victim.dst, None);
        if cands.is_empty() {
            self.deflect_scratch = cands;
            self.trace_drop(&victim, DropCause::DeflectionFull, full_port, ctx);
            ctx.rec.on_drop(DropCause::DeflectionFull, victim.wire_size);
            pool::recycle(victim);
            return;
        }
        let k = power.max(1).min(cands.len());
        let sample = self.sample_ports(&cands, k, ctx.rng);
        self.deflect_scratch = cands;
        // Least-loaded sampled queue (the seeded mutation flips this to
        // most-loaded, so golden traces catch selection regressions).
        let chosen = if self.mutate_victim {
            *sample
                .iter()
                .max_by_key(|&&p| self.ports[p as usize].queue.bytes())
                .expect("nonempty sample")
        } else {
            *sample
                .iter()
                .min_by_key(|&&p| self.ports[p as usize].queue.bytes())
                .expect("nonempty sample")
        };
        // Provenance for Deflect records: victim rank at selection time,
        // the sampled ports, and whether the victim was the arrival.
        let trace_deflect =
            |this: &Switch, ctx: &mut Ctx, victim: &Packet, to: u16, forced: bool| {
                if ctx.rec.trace.enabled() {
                    let flags = u8::from(forced) | (u8::from(victim.uid == arriving_uid) << 1);
                    trace_rec(
                        ctx,
                        this.id.0,
                        TraceKind::Deflect,
                        victim,
                        victim.rank(this.cfg.boost_shift),
                        pack_ports(&sample[..sample.len().min(4)]),
                        flags,
                        to,
                    );
                }
            };
        if self.ports[chosen as usize].queue.fits(&victim, cap) {
            victim.deflections += 1;
            ctx.rec.deflections += 1;
            Self::maybe_mark_ecn(
                &self.cfg,
                &self.ports[chosen as usize].queue,
                &mut victim,
                ctx,
            );
            trace_deflect(self, ctx, &victim, chosen, false);
            self.sample_scratch = sample;
            self.ports[chosen as usize].queue.push(victim);
            self.start_tx(chosen, ctx);
            return;
        }
        // Every sampled queue is full: the network is congested. Force the
        // victim into a random sampled queue and drop the largest-RFS
        // overflow — congestion control must see this loss.
        let forced = sample[ctx.rng.index(sample.len())];
        victim.deflections += 1;
        ctx.rec.deflections += 1;
        trace_deflect(self, ctx, &victim, forced, true);
        self.sample_scratch = sample;
        let q = &mut self.ports[forced as usize].queue;
        q.push(victim);
        while q.bytes() > cap {
            let dropped = q.evict_worst().expect("nonempty over-capacity queue");
            if ctx.rec.trace.enabled() {
                trace_rec(
                    ctx,
                    self.id.0,
                    TraceKind::Drop,
                    &dropped,
                    DropCause::DeflectionFull.index() as u64,
                    dropped.wire_size as u64,
                    0,
                    forced,
                );
            }
            ctx.rec
                .on_drop(DropCause::DeflectionFull, dropped.wire_size);
            pool::recycle(dropped);
        }
        self.start_tx(forced, ctx);
    }

    /// Starts transmission on `port` if it is idle and has queued packets.
    pub fn start_tx(&mut self, port: u16, ctx: &mut Ctx) {
        let p = &mut self.ports[port as usize];
        if p.busy {
            return;
        }
        let Some(mut pkt) = p.queue.pop_next() else {
            return;
        };
        // Stamp provenance: the receiver sees this switch as the packet's
        // previous hop, which is what PABO's backward bounce consults.
        pkt.prev_hop = self.id;
        if ctx.rec.trace.enabled() {
            let rank = p.queue.rank_of(&pkt).unwrap_or(TRACE_NO_RANK);
            trace_rec(
                ctx,
                self.id.0,
                TraceKind::Dequeue,
                &pkt,
                rank,
                p.queue.bytes(),
                0,
                port,
            );
        }
        p.busy = true;
        ctx.events.push_after(
            p.link.tx_time(pkt.wire_size),
            Event::TxDone {
                node: self.id,
                port: PortId(port),
            },
        );
        ctx.rec.audit.on_wire_tx();
        ctx.events.push_after(
            p.link.wire_time(pkt.wire_size),
            Event::Arrive {
                node: p.peer,
                port: p.peer_port,
                pkt,
            },
        );
    }

    /// Serialization finished on `port`: free it and continue draining.
    pub fn on_tx_done(&mut self, port: PortId, ctx: &mut Ctx) {
        self.ports[port.index()].busy = false;
        self.start_tx(port.0, ctx);
    }
}

impl std::fmt::Debug for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switch")
            .field("id", &self.id)
            .field("ports", &self.ports.len())
            .field("queued_bytes", &self.queued_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::RouteTable;

    /// A 4-port switch: ports 0-1 host-facing (hosts 0 and 1), ports 2-3
    /// fabric-facing (switches 3 and 4). Node ids: hosts 0..3, switch 2
    /// is this one.
    fn test_switch() -> Switch {
        let link = LinkParams::gbps(10, 500);
        let mk_port = |peer: u32, host_facing: bool| Port {
            peer: NodeId(peer),
            peer_port: PortId(0),
            link,
            queue: PortQueue::fifo(),
            busy: false,
            host_facing,
        };
        let ports = vec![
            mk_port(0, true),
            mk_port(1, true),
            mk_port(3, false),
            mk_port(4, false),
        ];
        // Routes for this single switch (row 0): host 0 via port 0,
        // host 1 via port 1, host 2 (elsewhere) via fabric ports 2 and 3.
        let routes = RouteTable::from_nested(&[vec![vec![0], vec![1], vec![2, 3]]]);
        Switch::new(
            NodeId(2),
            SwitchConfig::ecmp(),
            ports,
            Arc::new(routes),
            0,
            7,
        )
    }

    #[test]
    fn deflect_candidates_exclude_full_port_and_foreign_hosts() {
        let mut sw = test_switch();
        // Packet to host 0, full output port 2: its own host port 0 stays
        // a candidate, host 1's port never is, port 2 is excluded.
        let cands = sw.deflect_candidates(2, NodeId(0), None);
        assert_eq!(cands, vec![0, 3]);
        sw.deflect_scratch = cands;
        // Packet to a remote host (node 5 behind the fabric): both host
        // ports are non-routes, only the other fabric port remains.
        let cands = sw.deflect_candidates(2, NodeId(5), None);
        assert_eq!(cands, vec![3]);
        sw.deflect_scratch = cands;
        // The full port is excluded even when it is the destination's own
        // host port.
        let cands = sw.deflect_candidates(0, NodeId(0), None);
        assert_eq!(cands, vec![2, 3]);
        sw.deflect_scratch = cands;
    }

    #[test]
    fn deflect_candidates_ingress_exclusion_is_explicit() {
        // The trait-level contract (regression for the latent assumption):
        // with `None` the arrival's ingress *is* a candidate — the legacy
        // policies have always allowed a bounce straight back out the
        // ingress and the goldens pin that — while `Some(ingress)` removes
        // exactly that port for the policies that opt in.
        let mut sw = test_switch();
        let cands = sw.deflect_candidates(2, NodeId(5), None);
        assert_eq!(cands, vec![3], "ingress 3 remains a candidate");
        sw.deflect_scratch = cands;
        let cands = sw.deflect_candidates(2, NodeId(5), Some(3));
        assert!(cands.is_empty(), "ingress 3 excluded on request");
        sw.deflect_scratch = cands;
        // Exclusion composes with the host-port rule, removing only the
        // named port.
        let cands = sw.deflect_candidates(2, NodeId(0), Some(3));
        assert_eq!(cands, vec![0]);
        sw.deflect_scratch = cands;
    }

    #[test]
    fn deflect_candidates_skip_downed_ports() {
        let mut sw = test_switch();
        sw.set_port_down(3, true);
        let cands = sw.deflect_candidates(2, NodeId(0), None);
        assert_eq!(cands, vec![0], "downed port 3 never offered");
        sw.deflect_scratch = cands;
        sw.set_port_down(3, false);
        let cands = sw.deflect_candidates(2, NodeId(0), None);
        assert_eq!(cands, vec![0, 3], "restored port returns");
        sw.deflect_scratch = cands;
    }

    #[test]
    fn deflect_candidates_reuse_scratch_capacity() {
        let mut sw = test_switch();
        let cands = sw.deflect_candidates(2, NodeId(0), None);
        let cap = cands.capacity();
        let ptr = cands.as_ptr();
        sw.deflect_scratch = cands;
        // The second call reuses the same allocation: no per-packet Vec.
        let cands = sw.deflect_candidates(3, NodeId(1), None);
        assert_eq!(cands.capacity(), cap);
        assert_eq!(cands.as_ptr(), ptr);
        sw.deflect_scratch = cands;
    }
}
