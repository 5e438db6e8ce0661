//! The four pinned workloads, each a [`RunSpec`] built from the seed on
//! the command line. Every knob is spelled out here rather than taken
//! from the `experiments` presets, so a change to a figure's defaults
//! never silently changes what the benchmark measures.

use vertigo_simcore::SimDuration;
use vertigo_transport::CcKind;
use vertigo_workload::{
    BackgroundSpec, DistKind, IncastSpec, RunSpec, ScenarioSpec, SystemKind, TopoKind, WorkloadSpec,
};

/// Hosts per leaf on the 4×8 leaf-spine (64 hosts): the repo's default
/// scale.
const HOSTS_PER_LEAF: usize = 8;
/// Incast fan-in and response size at the default scale (20 of 64 hosts,
/// 40 KB each, the paper's 100/320 ratio).
const INCAST_SCALE: usize = 20;
const INCAST_FLOW_BYTES: u64 = 40_000;

/// One pinned workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Vertigo, leaf-spine, 25 % CacheFollower + 25 % incast.
    Incast,
    /// ECMP, leaf-spine, 60 % WebSearch, no incast.
    BgEcmp,
    /// Vertigo, fat-tree k=8, multi-tenant soak scenario, classic engine.
    Soak,
    /// The soak scenario on fat-tree k=16 under the domain engine, one
    /// domain.
    DomainsK16,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Incast,
        Workload::BgEcmp,
        Workload::Soak,
        Workload::DomainsK16,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Incast => "incast",
            Workload::BgEcmp => "bg_ecmp",
            Workload::Soak => "soak",
            Workload::DomainsK16 => "domains_k16",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated time of one cell.
    pub fn horizon(self) -> SimDuration {
        match self {
            Workload::Incast => SimDuration::from_millis(10),
            Workload::BgEcmp => SimDuration::from_millis(20),
            Workload::Soak => SimDuration::from_millis(8),
            Workload::DomainsK16 => SimDuration::from_micros(1000),
        }
    }

    /// Cells per round: one per traffic draw. A run's inputs are this
    /// many cells with seeds derived from `--seed` (see
    /// [`cell_seeds`](Self::cell_seeds)), so a run's figures average over
    /// several draws instead of riding on one. Sized so that the
    /// reference run and one round take about 15–17 s on a 2-vCPU Xeon VM,
    /// leaving some room for the host's slow phases in a 20 s budget.
    pub fn cells_per_round(self) -> usize {
        match self {
            Workload::Incast => 7,
            Workload::BgEcmp => 11,
            Workload::Soak => 7,
            Workload::DomainsK16 => 7,
        }
    }

    /// The simulation seeds of one round at `--seed seed`: `seed * 1000 +
    /// j`, so rounds of different seeds share no cell.
    pub fn cell_seeds(self, seed: u64) -> Vec<u64> {
        (0..self.cells_per_round() as u64)
            .map(|j| seed.wrapping_mul(1000).wrapping_add(j))
            .collect()
    }

    /// The cell this workload runs at `seed`, over `horizon` of
    /// simulated time.
    pub fn spec_for(self, seed: u64, horizon: SimDuration) -> RunSpec {
        let mut spec = match self {
            Workload::Incast => {
                let hosts_bw = 8 * HOSTS_PER_LEAF as u64 * 10_000_000_000;
                RunSpec::new(
                    SystemKind::Vertigo,
                    CcKind::Dctcp,
                    WorkloadSpec {
                        background: Some(BackgroundSpec {
                            load: 0.25,
                            dist: DistKind::CacheFollower,
                        }),
                        incast: Some(IncastSpec {
                            qps: IncastSpec::qps_for_load(
                                0.25,
                                INCAST_SCALE,
                                INCAST_FLOW_BYTES,
                                hosts_bw,
                            ),
                            scale: INCAST_SCALE,
                            flow_bytes: INCAST_FLOW_BYTES,
                        }),
                    },
                )
            }
            Workload::BgEcmp => RunSpec::new(
                SystemKind::Ecmp,
                CcKind::Dctcp,
                WorkloadSpec {
                    background: Some(BackgroundSpec {
                        load: 0.60,
                        dist: DistKind::WebSearch,
                    }),
                    incast: None,
                },
            ),
            Workload::Soak => soak_spec(8),
            Workload::DomainsK16 => {
                // One domain, not two: with two worker threads on a shared
                // 2-vCPU box, barrier wake-ups made whole runs up to 2.5x
                // slower for a minute at a time, and at k=16, 1 ms two
                // domains were only 5-15 % faster than one.
                let mut spec = soak_spec(16);
                spec.domains = Some(1);
                spec
            }
        };
        spec.topo = match self {
            Workload::Incast | Workload::BgEcmp => TopoKind::LeafSpine {
                hosts_per_leaf: HOSTS_PER_LEAF,
            },
            Workload::Soak => TopoKind::FatTree { k: 8 },
            Workload::DomainsK16 => TopoKind::FatTree { k: 16 },
        };
        spec.port_buffer_bytes = 300 * 1000;
        spec.horizon = horizon;
        spec.seed = seed;
        spec
    }

    /// The pinned cell at `seed`.
    pub fn spec(self, seed: u64) -> RunSpec {
        self.spec_for(seed, self.horizon())
    }
}

/// `experiments soak`'s default multi-tenant scenario over a 10 %
/// CacheFollower base, on a k-ary fat-tree: an ON-OFF bursty tenant on
/// the low half of the hosts, a Poisson service tenant on the high half,
/// and one shared synchronized incast across all of them.
fn soak_spec(k: usize) -> RunSpec {
    let hosts = k * k * k / 4;
    let half = hosts / 2;
    let scenario = format!(
        "onoff:load=0.3,on=1ms,off=3ms,dist=datamining,tenant=bursty,hosts=0-{} \
         + bg:load=0.15,tenant=svc,hosts={}-{} \
         + incast:scale={},size=40k,load=0.1,sync=10us",
        half - 1,
        half,
        hosts - 1,
        (hosts / 8).max(2)
    );
    let mut spec = RunSpec::new(
        SystemKind::Vertigo,
        CcKind::Dctcp,
        WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.10,
                dist: DistKind::CacheFollower,
            }),
            incast: None,
        },
    );
    spec.scenario = ScenarioSpec::parse(&scenario).expect("the pinned soak scenario parses");
    spec
}
