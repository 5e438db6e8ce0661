//! Traffic generation: Poisson background load and the incast application.
//!
//! Both generators *pre-schedule* their arrivals into the simulation's
//! event queue before `run()`, drawing from RNG streams forked off the
//! run's seed — so the offered traffic is identical across the systems
//! being compared (paired comparison, the same methodology the paper's
//! figures rely on).

use crate::dists::DistKind;
use vertigo_netsim::Simulation;
use vertigo_pkt::{NodeId, QueryId};
use vertigo_simcore::{SimDuration, SimTime};

/// Background (all-to-all) traffic at a target fraction of aggregate host
/// capacity.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundSpec {
    /// Offered load as a fraction of total host link capacity (0.0–1.0).
    pub load: f64,
    /// Flow size distribution.
    pub dist: DistKind,
}

/// The incast application of §4.1: clients periodically query `scale`
/// random servers, each of which replies with `flow_bytes` immediately.
#[derive(Debug, Clone, Copy)]
pub struct IncastSpec {
    /// Queries per second, network-wide.
    pub qps: f64,
    /// Servers per query (the paper's "incast scale").
    pub scale: usize,
    /// Reply size per server (the paper's "incast flow size").
    pub flow_bytes: u64,
}

impl IncastSpec {
    /// The offered load this incast pattern adds, as a fraction of
    /// `total_bw_bps`.
    pub fn offered_load(&self, total_bw_bps: u64) -> f64 {
        self.qps * self.scale as f64 * self.flow_bytes as f64 * 8.0 / total_bw_bps as f64
    }

    /// Solves for the QPS that makes this incast contribute `load`
    /// fraction of `total_bw_bps`.
    pub fn qps_for_load(load: f64, scale: usize, flow_bytes: u64, total_bw_bps: u64) -> f64 {
        load * total_bw_bps as f64 / (scale as f64 * flow_bytes as f64 * 8.0)
    }
}

/// The complete offered workload of one run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Background component, if any.
    pub background: Option<BackgroundSpec>,
    /// Incast component, if any.
    pub incast: Option<IncastSpec>,
}

impl WorkloadSpec {
    /// Total offered load fraction on the given topology capacity.
    pub fn offered_load(&self, total_bw_bps: u64) -> f64 {
        let bg = self.background.map_or(0.0, |b| b.load);
        let inc = self.incast.map_or(0.0, |i| i.offered_load(total_bw_bps));
        bg + inc
    }

    /// Pre-schedules every flow arrival of this workload into `sim`.
    pub fn install(&self, sim: &mut Simulation) {
        if let Some(bg) = self.background {
            install_background(sim, bg);
        }
        if let Some(inc) = self.incast {
            install_incast(sim, inc);
        }
    }
}

/// RNG stream ids (forked off the simulation seed).
const STREAM_BACKGROUND: u64 = 0xB6;
const STREAM_INCAST: u64 = 0x1C;

/// Schedules Poisson background flows between uniformly random distinct
/// host pairs so the aggregate offered load hits `spec.load`.
pub fn install_background(sim: &mut Simulation, spec: BackgroundSpec) {
    assert!(spec.load >= 0.0 && spec.load < 2.0, "load out of range");
    if spec.load == 0.0 {
        return;
    }
    let mut rng = sim.rng().fork(STREAM_BACKGROUND);
    let hosts = sim.num_hosts();
    assert!(hosts >= 2);
    let total_bw = sim.topology().total_host_bw_bps() as f64;
    let cdf = spec.dist.cdf();
    let mean = cdf.mean_bytes();
    let lambda = spec.load * total_bw / (8.0 * mean); // flows per second
    let mean_gap_s = 1.0 / lambda;
    let horizon = sim.horizon().as_secs_f64();

    let mut t = 0.0_f64;
    loop {
        t += rng.exp(mean_gap_s);
        if t >= horizon {
            break;
        }
        let (a, b) = rng.two_distinct(hosts);
        let bytes = cdf.sample(&mut rng);
        sim.schedule_flow(
            SimTime::ZERO + SimDuration::from_secs_f64(t),
            NodeId(a as u32),
            NodeId(b as u32),
            bytes,
            QueryId::NONE,
        );
    }
}

/// Schedules incast queries: Poisson query arrivals; each query picks a
/// random client and `scale` distinct random servers (client excluded)
/// that all reply simultaneously.
pub fn install_incast(sim: &mut Simulation, spec: IncastSpec) {
    install_incast_from(sim, spec, SimDuration::ZERO);
}

/// Like [`install_incast`], but the Poisson query process starts at
/// `from` (an offset from t=0) instead of the beginning of the run.
///
/// Because the generator draws from an RNG stream forked off the run
/// *seed* (forking never consults the simulator clock or RNG state), the
/// scheduled queries are a pure function of `(spec, from, seed)`: calling
/// this after draining to `from` — or after restoring a snapshot taken at
/// `from` — yields byte-identical arrivals to calling it at build time.
/// This is the hook phased runs use to defer the incast burst past a
/// shared warmup prefix.
pub fn install_incast_from(sim: &mut Simulation, spec: IncastSpec, from: SimDuration) {
    assert!(spec.qps > 0.0 && spec.scale >= 1 && spec.flow_bytes > 0);
    let mut rng = sim.rng().fork(STREAM_INCAST);
    let hosts = sim.num_hosts();
    assert!(
        hosts > spec.scale,
        "incast scale {} needs more than {} hosts",
        spec.scale,
        hosts
    );
    let horizon = sim.horizon().as_secs_f64();
    let mean_gap_s = 1.0 / spec.qps;

    let mut t = from.as_secs_f64();
    let mut picks = Vec::with_capacity(spec.scale);
    loop {
        t += rng.exp(mean_gap_s);
        if t >= horizon {
            break;
        }
        let at = SimTime::ZERO + SimDuration::from_secs_f64(t);
        let client = rng.index(hosts);
        // scale distinct servers, none of them the client.
        let mut servers = Vec::with_capacity(spec.scale);
        rng.k_distinct(spec.scale, hosts - 1, &mut picks);
        for &idx in &picks {
            // Map [0, hosts-1) onto hosts minus the client.
            let s = if idx >= client { idx + 1 } else { idx };
            servers.push(s);
        }
        let q = sim.register_query(spec.scale as u32, at);
        for s in servers {
            sim.schedule_flow(
                at,
                NodeId(s as u32),
                NodeId(client as u32),
                spec.flow_bytes,
                q,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertigo_netsim::{HostConfig, LinkParams, SimConfig, SwitchConfig, TopologySpec};
    use vertigo_transport::{CcKind, TransportConfig};

    fn sim(horizon_ms: u64, seed: u64) -> Simulation {
        Simulation::new(&SimConfig {
            topology: TopologySpec::LeafSpine {
                spines: 2,
                leaves: 4,
                hosts_per_leaf: 4,
                host_link: LinkParams::gbps(10, 500),
                fabric_link: LinkParams::gbps(40, 500),
            },
            switch: SwitchConfig::ecmp(),
            host: HostConfig::plain(TransportConfig::default_for(CcKind::Dctcp)),
            horizon: SimDuration::from_millis(horizon_ms),
            seed,
        })
    }

    #[test]
    fn background_load_is_calibrated() {
        // Offered bytes over the horizon should match load × capacity.
        let mut s = sim(200, 1);
        install_background(
            &mut s,
            BackgroundSpec {
                load: 0.30,
                dist: DistKind::CacheFollower,
            },
        );
        let offered: u64 = s.recorder().flows.values().map(|f| f.bytes).sum();
        // Flows are recorded at start; none started yet. Count scheduled
        // flows via... they're events. Run briefly so FlowStart fires.
        // Simplest: run the whole sim and sum flow bytes.
        let _ = s.run();
        let total: f64 = s.recorder().flows.values().map(|f| f.bytes as f64).sum();
        let capacity_bytes = 16.0 * 10e9 / 8.0 * 0.2; // 16 hosts, 10G, 200 ms
        let measured_load = total / capacity_bytes;
        assert!(
            (measured_load - 0.30).abs() < 0.08,
            "offered load {measured_load:.3} should be ≈ 0.30"
        );
        let _ = offered;
    }

    #[test]
    fn incast_queries_have_right_shape() {
        let mut s = sim(100, 2);
        install_incast(
            &mut s,
            IncastSpec {
                qps: 500.0,
                scale: 8,
                flow_bytes: 40_000,
            },
        );
        let _ = s.run();
        let rec = s.recorder();
        // ~50 queries in 100 ms at 500 QPS.
        let nq = rec.queries.len();
        assert!((25..=85).contains(&nq), "query count {nq}");
        for q in rec.queries.values() {
            assert_eq!(q.expected_flows, 8);
        }
        // Every query flow goes *to* the query's client: all 8 flows of a
        // query share one dst.
        for q in rec.queries.values() {
            let dsts: std::collections::BTreeSet<_> = rec
                .flows
                .values()
                .filter(|f| f.query == q.query)
                .map(|f| f.dst)
                .collect();
            assert_eq!(dsts.len(), 1, "one client per query");
            let srcs: std::collections::BTreeSet<_> = rec
                .flows
                .values()
                .filter(|f| f.query == q.query)
                .map(|f| f.src)
                .collect();
            assert_eq!(srcs.len(), 8, "servers must be distinct");
            assert!(!srcs.contains(dsts.iter().next().unwrap()));
        }
    }

    #[test]
    fn workload_offered_load_math() {
        let inc = IncastSpec {
            qps: 4000.0,
            scale: 100,
            flow_bytes: 40_000,
        };
        // 4000 * 100 * 40 KB * 8 = 128 Gbit/s.
        let total_bw = 320 * 10_000_000_000u64; // paper topology: 3.2 Tbps
        assert!((inc.offered_load(total_bw) - 0.04).abs() < 1e-9);
        let qps = IncastSpec::qps_for_load(0.04, 100, 40_000, total_bw);
        assert!((qps - 4000.0).abs() < 1e-6);
    }

    #[test]
    fn same_seed_same_workload() {
        let flows = |seed| {
            let mut s = sim(50, seed);
            install_background(
                &mut s,
                BackgroundSpec {
                    load: 0.2,
                    dist: DistKind::WebSearch,
                },
            );
            let _ = s.run();
            s.recorder()
                .flows
                .values()
                .map(|f| (f.src, f.dst, f.bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(flows(5), flows(5));
        assert_ne!(flows(5), flows(6));
    }
}
