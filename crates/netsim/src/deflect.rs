//! The deflection-policy zoo: what a switch does with a packet that
//! overflows its chosen output queue.
//!
//! Every overflow behavior is a [`DeflectionPolicy`] impl with a shared
//! contract:
//!
//! - **Decision inputs.** A policy sees the switch (`&mut Switch`: port
//!   occupancy, candidate scratch, route table, load EWMA), the full
//!   output port, the arrival's ingress port, and the packet itself. It
//!   must resolve the overflow completely — enqueue somewhere, or drop
//!   with an accounted [`DropCause`] — before returning.
//! - **RNG discipline.** All random draws come from the switch decision
//!   stream (`ctx.rng`) in decision order. The legacy policies (Vertigo,
//!   DIBS) predate this trait and their exact draw order is pinned
//!   byte-for-byte by the golden traces: moving them here changed no
//!   draw, no branch, no record.
//! - **Ingress exclusion.** Whether the arrival's ingress port may be a
//!   deflection candidate is an explicit, per-policy contract
//!   ([`DeflectionPolicy::excludes_ingress`]) rather than a latent
//!   assumption. Legacy policies *include* the ingress (golden-pinned);
//!   the new policies exclude it (hybrid, bounded) or exclusively
//!   *target* it (PABO's backward bounce).
//! - **Down ports.** Administratively-downed ports
//!   ([`Switch::set_port_down`]) are never selected, by any policy.
//!
//! Trace provenance: each policy stamps its [`DeflectionPolicy::trace_code`]
//! into bits 2+ of the Deflect record's flags byte (bit 0 = forced, bit 1 =
//! victim-is-arriving). The legacy policies keep code 0 so existing traces
//! stay byte-identical.

use crate::events::Ctx;
use crate::switch::{trace_rec, Switch};
use vertigo_pkt::{pool, Packet, PortId};
use vertigo_stats::{pack_ports, DropCause, TraceKind, TRACE_NO_RANK};

/// Which deflection policy an experiment runs (the `--deflect` axis).
///
/// This selects the overflow behavior only; forwarding, scheduling, and
/// transport stay whatever the system under test configures, so the
/// deflection axis is isolated in comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeflectKind {
    /// Vertigo selective deflection (the paper's policy; default).
    Vertigo,
    /// DIBS random deflection of the arriving packet.
    Dibs,
    /// PABO backward bounce to the upstream hop.
    Pabo,
    /// OBS-style adaptive hybrid: load-EWMA choice of deflect-vs-drop.
    Hybrid,
    /// Bounce-bounded deflection with per-bounce priority escalation.
    Bounded,
}

impl DeflectKind {
    /// Every kind, in `--deflect` grammar order.
    pub const ALL: [DeflectKind; 5] = [
        DeflectKind::Vertigo,
        DeflectKind::Dibs,
        DeflectKind::Pabo,
        DeflectKind::Hybrid,
        DeflectKind::Bounded,
    ];

    /// Parses a `--deflect` flag value.
    pub fn parse(s: &str) -> Option<DeflectKind> {
        match s {
            "vertigo" => Some(DeflectKind::Vertigo),
            "dibs" => Some(DeflectKind::Dibs),
            "pabo" => Some(DeflectKind::Pabo),
            "hybrid" => Some(DeflectKind::Hybrid),
            "bounded" => Some(DeflectKind::Bounded),
            _ => None,
        }
    }

    /// The flag spelling (inverse of [`DeflectKind::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            DeflectKind::Vertigo => "vertigo",
            DeflectKind::Dibs => "dibs",
            DeflectKind::Pabo => "pabo",
            DeflectKind::Hybrid => "hybrid",
            DeflectKind::Bounded => "bounded",
        }
    }
}

/// One overflow policy: resolves a packet that does not fit its chosen
/// output queue. See the module docs for the shared contract.
pub trait DeflectionPolicy {
    /// Policy code stamped into bits 2+ of Deflect-record flags. The
    /// legacy policies return 0 so pre-trait traces remain byte-identical.
    fn trace_code(&self) -> u8;

    /// Whether this policy removes the arrival's ingress port from its
    /// deflection candidates. Legacy policies return `false` — their
    /// candidate sets have always included the ingress, and the golden
    /// traces pin that. (PABO also returns `false`: it does not *sample*
    /// candidates at all, it targets the ingress-side upstream hop.)
    fn excludes_ingress(&self) -> bool;

    /// Resolves the overflow of `pkt`, which failed to fit on `out` after
    /// arriving on `in_port`: enqueue it (possibly displacing a victim) or
    /// drop it with an accounted cause.
    fn on_overflow(
        &self,
        sw: &mut Switch,
        out: u16,
        in_port: PortId,
        pkt: Box<Packet>,
        ctx: &mut Ctx,
    );
}

/// DIBS: deflect the *arriving* packet to a uniformly random port with
/// space; drop at the deflection cap or when no port has space.
#[derive(Debug, Clone, Copy)]
pub struct DibsPolicy {
    /// Deflection budget per packet (DIBS's TTL-like cap).
    pub max_deflections: u16,
}

impl DeflectionPolicy for DibsPolicy {
    fn trace_code(&self) -> u8 {
        0
    }

    fn excludes_ingress(&self) -> bool {
        false
    }

    fn on_overflow(
        &self,
        sw: &mut Switch,
        out: u16,
        _in_port: PortId,
        mut pkt: Box<Packet>,
        ctx: &mut Ctx,
    ) {
        let max_deflections = self.max_deflections;
        let cap = sw.cfg.port_buffer_bytes;
        if pkt.deflections >= max_deflections {
            sw.trace_drop(&pkt, DropCause::DeflectionFull, out, ctx);
            ctx.rec.on_drop(DropCause::DeflectionFull, pkt.wire_size);
            pool::recycle(pkt);
            return;
        }
        // Random port with space (excluding the full output and
        // host ports that are not the destination's).
        let mut cands = sw.deflect_candidates(out, pkt.dst, None);
        cands.retain(|&p| sw.ports[p as usize].queue.fits(&pkt, cap));
        if cands.is_empty() {
            sw.deflect_scratch = cands;
            sw.trace_drop(&pkt, DropCause::DeflectionFull, out, ctx);
            ctx.rec.on_drop(DropCause::DeflectionFull, pkt.wire_size);
            pool::recycle(pkt);
            return;
        }
        let p = cands[ctx.rng.index(cands.len())];
        if ctx.rec.trace.enabled() {
            // DIBS always deflects the *arriving* packet (flag
            // bit 1) to a uniformly random candidate with space.
            let sampled = pack_ports(&cands[..cands.len().min(4)]);
            trace_rec(
                ctx,
                sw.id.0,
                TraceKind::Deflect,
                &pkt,
                pkt.rank(sw.cfg.boost_shift),
                sampled,
                0b10,
                p,
            );
        }
        sw.deflect_scratch = cands;
        pkt.deflections += 1;
        #[cfg(feature = "audit")]
        assert!(
            pkt.deflections <= max_deflections,
            "audit: DIBS deflection count {} exceeds policy cap {}",
            pkt.deflections,
            max_deflections
        );
        ctx.rec.deflections += 1;
        Switch::maybe_mark_ecn(&sw.cfg, &sw.ports[p as usize].queue, &mut pkt, ctx);
        sw.ports[p as usize].queue.push(pkt);
        sw.start_tx(p, ctx);
    }
}

/// Vertigo (§3.2): victimize the largest-RFS packet (arrival vs. queue
/// residents when scheduling is on) and deflect the victim to the
/// least-loaded of `deflect_power` sampled ports.
#[derive(Debug, Clone, Copy)]
pub struct VertigoPolicy {
    /// Ports sampled per deflection (`1DEF`/`2DEF` in Fig. 12).
    pub deflect_power: usize,
    /// SRPT priority queues + evict-worst victim selection.
    pub scheduling: bool,
    /// Deflect at all (off = the "No Deflection" ablation).
    pub deflection: bool,
}

impl DeflectionPolicy for VertigoPolicy {
    fn trace_code(&self) -> u8 {
        0
    }

    fn excludes_ingress(&self) -> bool {
        false
    }

    fn on_overflow(
        &self,
        sw: &mut Switch,
        out: u16,
        _in_port: PortId,
        mut pkt: Box<Packet>,
        ctx: &mut Ctx,
    ) {
        let VertigoPolicy {
            deflect_power,
            scheduling,
            deflection,
        } = *self;
        let cap = sw.cfg.port_buffer_bytes;
        // Victim selection (§3.2): with scheduling, insert the
        // arrival and evict the largest-RFS packets until the byte
        // bound holds (footnote 4: several small packets may be
        // displaced by one large arrival). Without scheduling, the
        // arriving packet is the victim.
        let arriving_uid = pkt.uid;
        let mut victims: Vec<Box<Packet>> = Vec::new();
        if scheduling {
            Switch::maybe_mark_ecn(&sw.cfg, &sw.ports[out as usize].queue, &mut pkt, ctx);
            sw.trace_enqueue(&pkt, out, ctx);
            let q = &mut sw.ports[out as usize].queue;
            q.push(pkt);
            while q.bytes() > cap {
                victims.push(q.evict_worst().expect("nonempty over-capacity queue"));
            }
        } else {
            victims.push(pkt);
        }
        for victim in victims {
            if !deflection {
                sw.trace_drop(&victim, DropCause::QueueFull, out, ctx);
                ctx.rec.on_drop(DropCause::QueueFull, victim.wire_size);
                pool::recycle(victim);
                continue;
            }
            sw.deflect_victim(victim, out, deflect_power, arriving_uid, ctx);
        }
        sw.start_tx(out, ctx);
    }
}

/// PABO: bounce the arriving packet *backward* to the hop that sent it,
/// resolved from the packet's provenance field through the route table's
/// reverse-path (neighbor CSR) index.
#[derive(Debug, Clone, Copy)]
pub struct PaboPolicy {
    /// Bounce budget per packet.
    pub max_deflections: u16,
}

impl DeflectionPolicy for PaboPolicy {
    fn trace_code(&self) -> u8 {
        1
    }

    fn excludes_ingress(&self) -> bool {
        // PABO does not sample a candidate set; it *targets* the
        // ingress-side upstream hop recorded in the packet's provenance.
        false
    }

    fn on_overflow(
        &self,
        sw: &mut Switch,
        out: u16,
        _in_port: PortId,
        mut pkt: Box<Packet>,
        ctx: &mut Ctx,
    ) {
        let cap = sw.cfg.port_buffer_bytes;
        if pkt.deflections >= self.max_deflections {
            sw.trace_drop(&pkt, DropCause::DeflectionFull, out, ctx);
            ctx.rec.on_drop(DropCause::DeflectionFull, pkt.wire_size);
            pool::recycle(pkt);
            return;
        }
        // Resolve the upstream hop from provenance. The seeded mutation
        // bounces *forward* (first deflection candidate) instead, so the
        // conformance suite can prove the goldens pin the backward bounce.
        let upstream = if sw.mutate_victim {
            let cands = sw.deflect_candidates(out, pkt.dst, None);
            let first = cands.first().copied();
            sw.deflect_scratch = cands;
            first
        } else {
            sw.routes.upstream_port(sw.sw, pkt.prev_hop)
        };
        // The bounce fails — and the packet drops — when the upstream hop
        // is unknown (a host's NIC, or no longer adjacent), is the full
        // output itself, is administratively down, leads to a host that is
        // not the destination (hosts discard foreign packets), or its
        // queue is also full.
        let viable = upstream.filter(|&p| {
            if p == out || sw.down[p as usize] {
                return false;
            }
            let port = &sw.ports[p as usize];
            if port.host_facing && port.peer != pkt.dst {
                return false;
            }
            port.queue.fits(&pkt, cap)
        });
        let Some(p) = viable else {
            sw.trace_drop(&pkt, DropCause::DeflectionFull, out, ctx);
            ctx.rec.on_drop(DropCause::DeflectionFull, pkt.wire_size);
            pool::recycle(pkt);
            return;
        };
        pkt.deflections += 1;
        ctx.rec.deflections += 1;
        ctx.rec.pabo_bounces += 1;
        if ctx.rec.trace.enabled() {
            trace_rec(
                ctx,
                sw.id.0,
                TraceKind::Deflect,
                &pkt,
                pkt.rank(sw.cfg.boost_shift),
                pack_ports(&[p]),
                (self.trace_code() << 2) | 0b10,
                p,
            );
        }
        Switch::maybe_mark_ecn(&sw.cfg, &sw.ports[p as usize].queue, &mut pkt, ctx);
        sw.ports[p as usize].queue.push(pkt);
        sw.start_tx(p, ctx);
    }
}

/// OBS-style adaptive hybrid: a load EWMA over total switch occupancy
/// picks between deflecting (lightly loaded) and dropping so the
/// transport retransmits (heavily loaded).
#[derive(Debug, Clone, Copy)]
pub struct HybridPolicy {
    /// Ports sampled per deflection on the deflect branch.
    pub deflect_power: usize,
}

impl DeflectionPolicy for HybridPolicy {
    fn trace_code(&self) -> u8 {
        2
    }

    fn excludes_ingress(&self) -> bool {
        true
    }

    fn on_overflow(
        &self,
        sw: &mut Switch,
        out: u16,
        in_port: PortId,
        mut pkt: Box<Packet>,
        ctx: &mut Ctx,
    ) {
        let cap = sw.cfg.port_buffer_bytes;
        // Decide on the *pre-update* EWMA so tests (and operators) can pin
        // the decision by setting the EWMA directly; then fold the current
        // occupancy in with alpha = 1/8.
        let ewma_before = sw.load_ewma;
        let mut deflect = ewma_before <= sw.hybrid_threshold();
        if sw.mutate_victim {
            // Seeded mutation: invert the decision, so goldens catch a
            // flipped threshold comparison.
            deflect = !deflect;
        }
        let occ = sw.queued_bytes();
        sw.load_ewma = ewma_before - ewma_before / 8 + occ / 8;
        if !deflect {
            // Heavily loaded: drop and let the transport retransmit. A
            // deflected packet would only feed the collapse.
            ctx.rec.hybrid_retx_drops += 1;
            sw.trace_drop(&pkt, DropCause::QueueFull, out, ctx);
            ctx.rec.on_drop(DropCause::QueueFull, pkt.wire_size);
            pool::recycle(pkt);
            return;
        }
        let mut cands = sw.deflect_candidates(out, pkt.dst, Some(in_port.0));
        cands.retain(|&p| sw.ports[p as usize].queue.fits(&pkt, cap));
        if cands.is_empty() {
            sw.deflect_scratch = cands;
            sw.trace_drop(&pkt, DropCause::DeflectionFull, out, ctx);
            ctx.rec.on_drop(DropCause::DeflectionFull, pkt.wire_size);
            pool::recycle(pkt);
            return;
        }
        let k = self.deflect_power.max(1).min(cands.len());
        let sample = sw.sample_ports(&cands, k, ctx.rng);
        sw.deflect_scratch = cands;
        let chosen = *sample
            .iter()
            .min_by_key(|&&p| sw.ports[p as usize].queue.bytes())
            .expect("nonempty sample");
        pkt.deflections += 1;
        ctx.rec.deflections += 1;
        ctx.rec.hybrid_deflects += 1;
        if ctx.rec.trace.enabled() {
            trace_rec(
                ctx,
                sw.id.0,
                TraceKind::Deflect,
                &pkt,
                pkt.rank(sw.cfg.boost_shift),
                pack_ports(&sample[..sample.len().min(4)]),
                (self.trace_code() << 2) | 0b10,
                chosen,
            );
        }
        sw.sample_scratch = sample;
        Switch::maybe_mark_ecn(&sw.cfg, &sw.ports[chosen as usize].queue, &mut pkt, ctx);
        sw.ports[chosen as usize].queue.push(pkt);
        sw.start_tx(chosen, ctx);
    }
}

/// Bounce-bounded deflection (NoC worst-case-latency protocols): every
/// bounce escalates the packet's priority in the escalating PIEO queues
/// (rank halves per bounce); the packet drops precisely at the cap.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPolicy {
    /// Maximum bounces per packet before it is dropped.
    pub cap: u16,
    /// Ports sampled per deflection.
    pub deflect_power: usize,
}

impl DeflectionPolicy for BoundedPolicy {
    fn trace_code(&self) -> u8 {
        3
    }

    fn excludes_ingress(&self) -> bool {
        true
    }

    fn on_overflow(
        &self,
        sw: &mut Switch,
        out: u16,
        in_port: PortId,
        mut pkt: Box<Packet>,
        ctx: &mut Ctx,
    ) {
        let bytes_cap = sw.cfg.port_buffer_bytes;
        if pkt.deflections >= self.cap {
            ctx.rec.bounded_cap_drops += 1;
            sw.trace_drop(&pkt, DropCause::DeflectionFull, out, ctx);
            ctx.rec.on_drop(DropCause::DeflectionFull, pkt.wire_size);
            pool::recycle(pkt);
            return;
        }
        let mut cands = sw.deflect_candidates(out, pkt.dst, Some(in_port.0));
        cands.retain(|&p| sw.ports[p as usize].queue.fits(&pkt, bytes_cap));
        if cands.is_empty() {
            sw.deflect_scratch = cands;
            sw.trace_drop(&pkt, DropCause::DeflectionFull, out, ctx);
            ctx.rec.on_drop(DropCause::DeflectionFull, pkt.wire_size);
            pool::recycle(pkt);
            return;
        }
        let k = self.deflect_power.max(1).min(cands.len());
        let sample = sw.sample_ports(&cands, k, ctx.rng);
        sw.deflect_scratch = cands;
        // Least-loaded sampled queue (the seeded mutation flips this to
        // most-loaded, so golden traces catch selection regressions).
        let chosen = if sw.mutate_victim {
            *sample
                .iter()
                .max_by_key(|&&p| sw.ports[p as usize].queue.bytes())
                .expect("nonempty sample")
        } else {
            *sample
                .iter()
                .min_by_key(|&&p| sw.ports[p as usize].queue.bytes())
                .expect("nonempty sample")
        };
        // Bump the bounce count *before* the push so the escalating queue
        // ranks this enqueue with the new bounce included.
        pkt.deflections += 1;
        ctx.rec.deflections += 1;
        if ctx.rec.trace.enabled() {
            let rank = sw.ports[chosen as usize]
                .queue
                .rank_of(&pkt)
                .unwrap_or(TRACE_NO_RANK);
            trace_rec(
                ctx,
                sw.id.0,
                TraceKind::Deflect,
                &pkt,
                rank,
                pack_ports(&sample[..sample.len().min(4)]),
                (self.trace_code() << 2) | 0b10,
                chosen,
            );
        }
        sw.sample_scratch = sample;
        Switch::maybe_mark_ecn(&sw.cfg, &sw.ports[chosen as usize].queue, &mut pkt, ctx);
        sw.ports[chosen as usize].queue.push(pkt);
        sw.start_tx(chosen, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for k in DeflectKind::ALL {
            assert_eq!(DeflectKind::parse(k.name()), Some(k));
        }
        assert_eq!(DeflectKind::parse("nope"), None);
    }

    #[test]
    fn trace_codes_are_stable() {
        // Legacy policies keep code 0 (byte-identical pre-trait traces);
        // the new policies claim 1..=3. These values are part of the
        // on-disk trace format — changing them breaks readers.
        assert_eq!(
            DibsPolicy {
                max_deflections: 16
            }
            .trace_code(),
            0
        );
        assert_eq!(
            VertigoPolicy {
                deflect_power: 2,
                scheduling: true,
                deflection: true
            }
            .trace_code(),
            0
        );
        assert_eq!(
            PaboPolicy {
                max_deflections: 16
            }
            .trace_code(),
            1
        );
        assert_eq!(HybridPolicy { deflect_power: 2 }.trace_code(), 2);
        assert_eq!(
            BoundedPolicy {
                cap: 16,
                deflect_power: 2
            }
            .trace_code(),
            3
        );
    }

    #[test]
    fn ingress_exclusion_contract() {
        // Golden-pinned: legacy policies include the ingress; the new
        // sampled policies exclude it; PABO targets it (so: false).
        assert!(!DibsPolicy {
            max_deflections: 16
        }
        .excludes_ingress());
        assert!(!VertigoPolicy {
            deflect_power: 2,
            scheduling: true,
            deflection: true
        }
        .excludes_ingress());
        assert!(!PaboPolicy {
            max_deflections: 16
        }
        .excludes_ingress());
        assert!(HybridPolicy { deflect_power: 2 }.excludes_ingress());
        assert!(BoundedPolicy {
            cap: 16,
            deflect_power: 2
        }
        .excludes_ingress());
    }
}
