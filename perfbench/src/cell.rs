//! One cell: build a [`RunSpec`], drain it, finalize it, and time each
//! call into a layer from outside the program.
//!
//! The phase-split runner here calls the same public functions
//! `RunSpec::run` calls, one at a time, so it can put a clock around
//! each: `RunSpec::build` (workload planning), `DomainSimulation::from_sim`
//! (partitioning), `Simulation::drain_until` or `DomainSimulation::run`
//! (the event loop) and `Simulation::finalize` (the recorder's report).
//! The benchmark runs every cell in a process of its own, so the
//! allocator, the packet pool's free list and the peak-RSS mark start
//! fresh in each, as they do for a user's run.

use crate::trace::{SpanLog, WindowDelta};
use std::time::Instant;
use vertigo_core::{MarkingStats, OrderingStats};
use vertigo_netsim::{DomainSimulation, Simulation};
use vertigo_simcore::{SimDuration, SimTime};
use vertigo_stats::{Recorder, Report};
use vertigo_workload::RunSpec;

/// What one cell produced.
#[derive(Debug)]
pub struct Cell {
    /// Host seconds from the start of the cell until the simulation is
    /// ready to drain.
    pub setup_s: f64,
    /// Host seconds from ready until the report is in hand.
    pub run_s: f64,
    /// Peak resident memory of the process during the cell, MB.
    pub rss_mb: f64,
    /// Digest over every simulated output of the cell.
    pub digest: u64,
    /// The simulated report.
    pub report: Report,
    /// Host ordering-shim counters.
    pub ordering: OrderingStats,
    /// Host marking counters.
    pub marking: MarkingStats,
    /// Largest single-port queue observed, bytes.
    pub max_port_bytes: u64,
    /// Packets parked on the driving thread's pool free list after the
    /// run (the domain engine's workers keep pools of their own).
    pub pooled: usize,
    /// Recorder counters the report does not carry. `None` on the domain
    /// engine, whose recorders are not reachable through its public API.
    pub recorder: Option<RecorderCounts>,
}

/// Recorder counters read through `Simulation::recorder()`.
#[derive(Debug, Clone, Copy)]
pub struct RecorderCounts {
    /// Data packets transmitted (first sends and retransmits).
    pub data_sent: u64,
    /// Data packets delivered to their destination host.
    pub data_delivered: u64,
    /// Flow records held by the recorder.
    pub flow_records: u64,
}

/// How to drain the cell.
#[derive(Debug, Clone, Copy)]
pub enum Drain {
    /// One `drain_until(horizon)` call.
    Whole,
    /// `drain_until` once per fixed simulated-time window, with a span and
    /// recorder-counter deltas per window (classic engine only; the
    /// domain engine exposes no window boundary).
    Windows(u64),
}

impl Drain {
    /// How a traced cell of `spec` drains: in windows on the classic
    /// engine, whole on the domain engine.
    pub fn traced(spec: &RunSpec, windows: u64) -> Drain {
        match spec.domains {
            Some(_) => Drain::Whole,
            None => Drain::Windows(windows),
        }
    }
}

/// Runs `spec` through the plain `RunSpec::run` entry point and returns
/// the digest of what it produced: the reference the phase-split runner
/// must reproduce.
pub fn reference_digest(spec: &RunSpec) -> u64 {
    let out = spec.run();
    digest(&out.report, &out.ordering, &out.marking, out.max_port_bytes)
}

/// The engine a cell drains: the classic loop or the domain engine.
// One value per cell, on the stack: boxing the larger variant buys nothing.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Classic(Simulation),
    Domains(DomainSimulation),
}

/// Runs `spec` through the phase-split runner. Meant to be the only
/// simulation in its process, so the peak-RSS reading is the cell's.
pub fn run_cell(spec: &RunSpec, drain: Drain, mut log: Option<&mut SpanLog>) -> Cell {
    let cell_span = log.as_deref_mut().map(|l| l.open("cell", None));
    let start = Instant::now();
    let sim = spec.build();
    span(&mut log, "workload.build", cell_span, start);
    let mut engine = match spec.domains {
        None => Engine::Classic(sim),
        Some(n) => {
            let t = Instant::now();
            let dsim = DomainSimulation::from_sim(sim, n);
            span(&mut log, "netsim.partition", cell_span, t);
            Engine::Domains(dsim)
        }
    };
    let ready = Instant::now();

    let horizon = SimTime::ZERO + spec.horizon;
    let mut report = match &mut engine {
        Engine::Classic(sim) => {
            match drain {
                Drain::Whole => {
                    let t = Instant::now();
                    sim.drain_until(horizon);
                    span(&mut log, "netsim.drain", cell_span, t);
                }
                Drain::Windows(n) => drain_windows(sim, spec.horizon, n, &mut log, cell_span),
            }
            let t = Instant::now();
            let report = sim.finalize();
            span(&mut log, "stats.finalize", cell_span, t);
            report
        }
        Engine::Domains(dsim) => {
            let t = Instant::now();
            let report = dsim.run();
            span(&mut log, "netsim.drain", cell_span, t);
            report
        }
    };
    spec.scenario.apply_labels(&mut report);
    let done = Instant::now();

    let (ordering, marking, max_port_bytes, recorder) = match &engine {
        Engine::Classic(sim) => (
            sim.ordering_stats(),
            sim.marking_stats(),
            sim.max_port_bytes(),
            Some(recorder_counts(sim.recorder())),
        ),
        Engine::Domains(d) => (
            d.ordering_stats(),
            d.marking_stats(),
            d.max_port_bytes(),
            None,
        ),
    };
    let rss_mb = peak_rss_mb();
    let pooled = vertigo_pkt::pool::pooled();
    let digest = digest(&report, &ordering, &marking, max_port_bytes);
    if let (Some(l), Some(id)) = (log, cell_span) {
        l.close(id);
    }
    Cell {
        setup_s: (ready - start).as_secs_f64(),
        run_s: (done - ready).as_secs_f64(),
        rss_mb,
        digest,
        report,
        ordering,
        marking,
        max_port_bytes,
        pooled,
        recorder,
    }
}

/// Drains `sim` in `n` equal simulated-time windows, one span each, and
/// logs the recorder counters' deltas at every window boundary.
fn drain_windows(
    sim: &mut Simulation,
    horizon: SimDuration,
    n: u64,
    log: &mut Option<&mut SpanLog>,
    parent: Option<usize>,
) {
    let total = horizon.as_nanos();
    let mut before = window_counts(sim.recorder());
    for i in 1..=n {
        let limit = SimTime::ZERO + SimDuration::from_nanos(total * i / n);
        let t = Instant::now();
        sim.drain_until(limit);
        span(log, "netsim.drain", parent, t);
        let after = window_counts(sim.recorder());
        if let Some(l) = log.as_deref_mut() {
            l.window(limit.as_nanos(), after.minus(&before));
        }
        before = after;
    }
}

fn span(log: &mut Option<&mut SpanLog>, name: &'static str, parent: Option<usize>, t: Instant) {
    if let Some(l) = log.as_deref_mut() {
        l.record(name, parent, t, Instant::now());
    }
}

fn recorder_counts(rec: &Recorder) -> RecorderCounts {
    RecorderCounts {
        data_sent: rec.data_sent,
        data_delivered: rec.data_delivered,
        flow_records: rec.flows.len() as u64,
    }
}

fn window_counts(rec: &Recorder) -> WindowDelta {
    WindowDelta {
        data_sent: rec.data_sent,
        data_delivered: rec.data_delivered,
        deflections: rec.deflections,
        drops: rec.total_drops(),
        ecn_marks: rec.ecn_marks,
        flows_started: rec.flows.len() as u64,
    }
}

/// FNV-1a over the debug form of every simulated output: the whole
/// `Report` (every field, samples included), the host ordering and
/// marking counters and the largest port queue. Rust's float `Debug`
/// prints the shortest string that reads back to the same bits, so equal
/// digests mean bit-identical outputs.
pub fn digest(
    report: &Report,
    ordering: &OrderingStats,
    marking: &MarkingStats,
    max_port_bytes: u64,
) -> u64 {
    fnv1a(format!("{report:?}|{ordering:?}|{marking:?}|{max_port_bytes}").as_bytes())
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks the report's internal invariants; returns the first broken one.
pub fn check_invariants(cell: &Cell) -> Result<(), String> {
    let r = &cell.report;
    if r.flows_completed > r.flows_started {
        return Err(format!(
            "flows completed {} > started {}",
            r.flows_completed, r.flows_started
        ));
    }
    if r.queries_completed > r.queries_started {
        return Err(format!(
            "queries completed {} > started {}",
            r.queries_completed, r.queries_started
        ));
    }
    let by_cause: u64 = r.drops_by_cause.iter().sum();
    if by_cause != r.drops {
        return Err(format!(
            "drops_by_cause sums to {by_cause}, drops = {}",
            r.drops
        ));
    }
    if let Some(c) = cell.recorder {
        if c.data_delivered > c.data_sent {
            return Err(format!(
                "data delivered {} > sent {}",
                c.data_delivered, c.data_sent
            ));
        }
    }
    Ok(())
}

/// Peak resident set size of the process, MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn short(w: Workload, seed: u64) -> RunSpec {
        w.spec_for(seed, SimDuration::from_millis(1))
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let spec = short(Workload::Incast, 7);
        let whole = run_cell(&spec, Drain::Whole, None);
        let mut log = SpanLog::start();
        let windowed = run_cell(&spec, Drain::Windows(50), Some(&mut log));
        assert!(check_invariants(&whole).is_ok());
        assert_eq!(
            whole.digest, windowed.digest,
            "windowed drain changed outputs"
        );
        assert_eq!(
            whole.digest,
            reference_digest(&spec),
            "phase split != RunSpec::run"
        );
        assert_eq!(log.durations("netsim.drain").len(), 50);
        assert_eq!(log.windows.len(), 50);
        let other = run_cell(&short(Workload::Incast, 8), Drain::Whole, None);
        assert_ne!(whole.digest, other.digest);
    }

    #[test]
    fn domain_engine_cell_matches_plain_run() {
        let spec = Workload::DomainsK16.spec_for(3, SimDuration::from_micros(200));
        let mut log = SpanLog::start();
        let c = run_cell(&spec, Drain::Whole, Some(&mut log));
        assert!(check_invariants(&c).is_ok());
        assert!(c.recorder.is_none());
        assert_eq!(Some(c.report.domains as usize), spec.domains);
        assert_eq!(c.digest, reference_digest(&spec));
        assert_eq!(log.durations("netsim.partition").len(), 1);
    }

    #[test]
    fn invariants_catch_a_broken_report() {
        let mut c = run_cell(&short(Workload::BgEcmp, 1), Drain::Whole, None);
        assert!(check_invariants(&c).is_ok());
        c.report.drops += 1;
        assert!(check_invariants(&c).unwrap_err().contains("drops_by_cause"));
        c.report.drops -= 1;
        c.report.flows_completed = c.report.flows_started + 1;
        assert!(check_invariants(&c)
            .unwrap_err()
            .contains("flows completed"));
    }
}
