//! The metric table, the summary statistics the benchmark reports, and
//! the result line.

use crate::cell::Cell;
use crate::trace::SpanLog;
use std::fmt::Write as _;

/// Whether a metric is reported by the untraced (end-to-end) run or by
/// the traced (per-layer) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

/// Every metric the benchmark reports: name, unit, kind. `BENCHMARK.json`
/// declares the same list (a test keeps the two in step).
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", Kind::EndToEnd),
    ("run_s", "s", Kind::EndToEnd),
    ("peak_rss_mb", "MB", Kind::EndToEnd),
    ("workload.build_s", "s", Kind::PerLayer),
    ("workload.flows_planned", "count", Kind::PerLayer),
    ("netsim.partition_s", "s", Kind::PerLayer),
    ("netsim.drain_s", "s", Kind::PerLayer),
    ("netsim.windows", "count", Kind::PerLayer),
    ("netsim.window_s_p50", "s", Kind::PerLayer),
    ("netsim.window_s_tail", "s", Kind::PerLayer),
    ("netsim.window_tail_pct", "%", Kind::PerLayer),
    ("netsim.ns_per_event", "ns", Kind::PerLayer),
    ("netsim.deflections", "count", Kind::PerLayer),
    ("netsim.deflect_per_pkt", "ratio", Kind::PerLayer),
    ("netsim.mean_hops", "hops", Kind::PerLayer),
    ("netsim.drops", "count", Kind::PerLayer),
    ("netsim.delivered_frac", "ratio", Kind::PerLayer),
    ("netsim.ecn_marks", "count", Kind::PerLayer),
    ("netsim.max_port_bytes", "bytes", Kind::PerLayer),
    ("netsim.barrier_epochs", "count", Kind::PerLayer),
    ("netsim.cross_domain_per_event", "ratio", Kind::PerLayer),
    ("netsim.domain_pending_imbalance", "ratio", Kind::PerLayer),
    ("simcore.events", "count", Kind::PerLayer),
    ("simcore.peak_pending", "count", Kind::PerLayer),
    ("pkt.pooled", "count", Kind::PerLayer),
    ("core.marked", "count", Kind::PerLayer),
    ("core.retx_detected", "count", Kind::PerLayer),
    ("core.filter_overflows", "count", Kind::PerLayer),
    ("core.ooo_buffered", "count", Kind::PerLayer),
    ("core.timeout_released", "count", Kind::PerLayer),
    ("core.ooo_max_depth", "count", Kind::PerLayer),
    ("core.in_order_frac", "ratio", Kind::PerLayer),
    ("transport.retransmits", "count", Kind::PerLayer),
    ("transport.rtos", "count", Kind::PerLayer),
    ("transport.retx_per_pkt", "ratio", Kind::PerLayer),
    ("transport.reorder_rate", "ratio", Kind::PerLayer),
    ("stats.finalize_s", "s", Kind::PerLayer),
    ("stats.flow_records", "count", Kind::PerLayer),
    ("stats.qct_p99_ms", "ms", Kind::PerLayer),
    ("stats.fct_p99_ms", "ms", Kind::PerLayer),
    ("stats.goodput_gbps", "Gbps", Kind::PerLayer),
    ("stats.flows_done_frac", "ratio", Kind::PerLayer),
    ("bench.cell_self_s", "s", Kind::PerLayer),
    ("bench.trace_overhead_s", "s", Kind::PerLayer),
    ("bench.traced_cells", "count", Kind::PerLayer),
];

/// The unit of `name`, if it is a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    METRICS.iter().find(|m| m.0 == name).map(|m| m.1)
}

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of a sample: the highest percentile on [`TAIL_LADDER`] that
/// has at least ten samples beyond it, with its value and the sample
/// count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples in the set.
    pub samples: usize,
    /// The percentile reported, or `None` when no percentile on the
    /// ladder has ten samples beyond it (fewer than 20 samples).
    pub pct: Option<f64>,
    /// Its value (nearest rank), or 0 when `pct` is `None`.
    pub value: f64,
}

/// Applies the tail rule to `v`.
pub fn tail(v: &[f64]) -> Tail {
    let n = v.len();
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    for p in TAIL_LADDER {
        // Nearest rank: the value at 1-based rank ceil(p/100 * n); the
        // samples beyond it are the n - rank above that position.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return Tail {
                samples: n,
                pct: Some(p),
                value: s[rank - 1],
            };
        }
    }
    Tail {
        samples: n,
        pct: None,
        value: 0.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Values print with every digit Rust's shortest round-trip form has.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut m = String::new();
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = unit_of(name).expect("every reported metric is declared");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0
    )
}

/// The per-layer metrics of traced cell `c`, whose spans are in `log`;
/// the run adds `bench.trace_overhead_s` and `bench.traced_cells`.
pub fn per_layer(c: &Cell, log: &SpanLog) -> Vec<(&'static str, f64)> {
    let r = &c.report;
    let o = &c.ordering;
    let m = &c.marking;
    // A fold from +0.0, not `sum` (which starts at -0.0): a layer that
    // did not run reads 0.
    let self_s = |name: &str| log.self_times(name).iter().fold(0.0, |a, b| a + b);
    let windows = log.durations("netsim.drain");
    let win_tail = tail(&windows);
    let drain_s = self_s("netsim.drain");
    let events = r.events_scheduled as f64;
    let (data_sent, data_delivered, flow_records) = match c.recorder {
        Some(rc) => (
            rc.data_sent as f64,
            rc.data_delivered as f64,
            rc.flow_records as f64,
        ),
        // The domain engine's recorders are private; the report's drop
        // rate is drops / data_sent, so data_sent is recovered from it.
        None => (
            ratio(r.drops as f64, r.drop_rate).round(),
            0.0,
            r.flows_started as f64,
        ),
    };
    let pending = &r.domain_peak_pending;
    let imbalance = if pending.is_empty() {
        0.0
    } else {
        let max = pending.iter().copied().max().unwrap_or(0) as f64;
        ratio(
            max,
            pending.iter().sum::<u64>() as f64 / pending.len() as f64,
        )
    };
    vec![
        ("workload.build_s", self_s("workload.build")),
        ("workload.flows_planned", r.flows_started as f64),
        ("netsim.partition_s", self_s("netsim.partition")),
        ("netsim.drain_s", drain_s),
        ("netsim.windows", windows.len() as f64),
        ("netsim.window_s_p50", median(&windows)),
        ("netsim.window_s_tail", win_tail.value),
        ("netsim.window_tail_pct", win_tail.pct.unwrap_or(0.0)),
        ("netsim.ns_per_event", ratio(drain_s * 1e9, events)),
        ("netsim.deflections", r.deflections as f64),
        (
            "netsim.deflect_per_pkt",
            ratio(r.deflections as f64, data_sent),
        ),
        ("netsim.mean_hops", r.mean_hops),
        ("netsim.drops", r.drops as f64),
        ("netsim.delivered_frac", ratio(data_delivered, data_sent)),
        ("netsim.ecn_marks", r.ecn_marks as f64),
        ("netsim.max_port_bytes", c.max_port_bytes as f64),
        ("netsim.barrier_epochs", r.barrier_epochs as f64),
        (
            "netsim.cross_domain_per_event",
            ratio(r.cross_domain_packets as f64, events),
        ),
        ("netsim.domain_pending_imbalance", imbalance),
        ("simcore.events", events),
        ("simcore.peak_pending", r.peak_pending_events as f64),
        ("pkt.pooled", c.pooled as f64),
        ("core.marked", m.marked as f64),
        ("core.retx_detected", m.retransmissions as f64),
        ("core.filter_overflows", m.filter_overflows as f64),
        ("core.ooo_buffered", o.buffered as f64),
        ("core.timeout_released", o.timeout_released as f64),
        ("core.ooo_max_depth", o.max_depth as f64),
        (
            "core.in_order_frac",
            ratio(
                o.in_order as f64,
                (o.in_order + o.buffered + o.late_or_dup) as f64,
            ),
        ),
        ("transport.retransmits", r.retransmits as f64),
        ("transport.rtos", r.rtos as f64),
        (
            "transport.retx_per_pkt",
            ratio(r.retransmits as f64, data_sent),
        ),
        ("transport.reorder_rate", r.reorder_rate),
        ("stats.finalize_s", self_s("stats.finalize")),
        ("stats.flow_records", flow_records),
        ("stats.qct_p99_ms", r.qct_p99 * 1e3),
        ("stats.fct_p99_ms", r.fct_p99 * 1e3),
        ("stats.goodput_gbps", r.goodput_gbps),
        (
            "stats.flows_done_frac",
            ratio(r.flows_completed as f64, r.flows_started as f64),
        ),
        ("bench.cell_self_s", self_s("cell")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_are_well_formed_unique_and_have_units() {
        for (i, (name, unit, _)) in METRICS.iter().enumerate() {
            assert!(is_name(name), "bad metric name {name:?}");
            assert!(is_unit(unit), "metric {name} has bad unit {unit:?}");
            assert!(
                METRICS[..i].iter().all(|m| m.0 != *name),
                "metric {name} declared twice"
            );
        }
        for w in Workload::ALL {
            assert!(is_name(w.name()));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let flat: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit, _) in METRICS {
            assert!(
                flat.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "BENCHMARK.json does not declare {name} in {unit}"
            );
        }
        assert_eq!(flat.matches("\"unit\":").count(), METRICS.len());
        for w in Workload::ALL {
            assert!(flat.contains(&format!("\"name\":\"{}\",\"why\"", w.name())));
        }
        assert_eq!(flat.matches("\"why\":").count(), Workload::ALL.len());
        let e2e = METRICS.iter().filter(|m| m.2 == Kind::EndToEnd).count();
        assert_eq!(flat.matches("\"bound\":").count(), e2e);
    }

    #[test]
    fn tail_rule_reports_the_highest_percentile_with_ten_beyond_and_the_count() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                samples: 200,
                pct: Some(95.0),
                value: 190.0
            }
        );
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.samples, t.pct, t.value), (1000, Some(99.0), 990.0));
        let t = tail(&v[..20]);
        assert_eq!((t.samples, t.pct, t.value), (20, Some(50.0), 10.0));
        let t = tail(&v[..19]);
        assert_eq!((t.samples, t.pct, t.value), (19, None, 0.0));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(3, 1, &[("run_s", 1.25), ("setup_s", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
