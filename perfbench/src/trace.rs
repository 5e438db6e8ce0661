//! Spans and window counters of the traced run, kept in memory and
//! written out when the run ends.
//!
//! A span is one call into a layer's public function, timed by the
//! benchmark around the call: its name (the layer and call, e.g.
//! `netsim.drain`), start and end relative to the log's start in the
//! cell process, and its parent (the cell span). The benchmark tags every
//! span of a run with one run id when it collects them from the cell
//! processes.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `workload.build`.
    pub name: &'static str,
    /// Index of the parent span in the log, `None` for a cell.
    pub parent: Option<usize>,
    /// Start, ns since the log started.
    pub start_ns: u64,
    /// End, ns since the log started (`None` while open).
    pub end_ns: Option<u64>,
}

impl Span {
    /// Duration in seconds (0 while open).
    pub fn secs(&self) -> f64 {
        self.end_ns
            .map_or(0.0, |e| e.saturating_sub(self.start_ns) as f64 / 1e9)
    }
}

/// Recorder counter deltas over one drain window.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowDelta {
    pub data_sent: u64,
    pub data_delivered: u64,
    pub deflections: u64,
    pub drops: u64,
    pub ecn_marks: u64,
    pub flows_started: u64,
}

impl WindowDelta {
    /// `self - earlier`, counter by counter.
    pub fn minus(&self, earlier: &WindowDelta) -> WindowDelta {
        WindowDelta {
            data_sent: self.data_sent - earlier.data_sent,
            data_delivered: self.data_delivered - earlier.data_delivered,
            deflections: self.deflections - earlier.deflections,
            drops: self.drops - earlier.drops,
            ecn_marks: self.ecn_marks - earlier.ecn_marks,
            flows_started: self.flows_started - earlier.flows_started,
        }
    }
}

/// The in-memory log of one traced cell.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// `(simulated end of window in ns, counter deltas)`, per window.
    pub windows: Vec<(u64, WindowDelta)>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn start() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            windows: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that ends at [`close`](Self::close); returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: None,
        });
        self.spans.len() - 1
    }

    /// Ends the span at index `id` now.
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = Some(end);
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: Some(end_ns),
        });
    }

    /// Records the counter deltas of the window that ended at simulated
    /// time `end_ns`.
    pub fn window(&mut self, end_ns: u64, delta: WindowDelta) {
        self.windows.push((end_ns, delta));
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of span `id`: its duration minus the time its children
    /// cover (children of one span never overlap here: calls are
    /// sequential).
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// Self time of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_secs(i))
            .collect()
    }

    /// The log as JSON lines: one per span (with its self time), then one
    /// per window.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_s\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns.unwrap_or(s.start_ns),
                self.self_secs(i)
            );
        }
        for (end, d) in &self.windows {
            let _ = writeln!(
                out,
                "{{\"window_end_ns\":{end},\"data_sent\":{},\"data_delivered\":{},\
                 \"deflections\":{},\"drops\":{},\"ecn_marks\":{},\"flows_started\":{}}}",
                d.data_sent, d.data_delivered, d.deflections, d.drops, d.ecn_marks, d.flows_started
            );
        }
        out
    }
}
