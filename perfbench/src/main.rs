//! The repository's pinned benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs rounds of the workload's cells while another
//! round fits in `S` seconds (the first always runs) and reports the
//! end-to-end metrics, medians over the cells.
//! With `--trace 1` it alternates untraced and traced runs of the round's
//! first cell and reports the per-layer metrics. Each cell runs in a
//! process of its own (this binary, re-invoked with `--cell`), as a
//! user's run would. Every cell is checked: it must not panic, must keep
//! the report's invariants, and must produce the same digest as every
//! other run of its seed, the first cell's first one being a plain
//! `RunSpec::run`. The last stdout line is the result object; the line
//! before it records the machine, the build and the digests.

mod cell;
mod metrics;
mod trace;
mod workloads;

use cell::{check_invariants, reference_digest, run_cell, Cell, Drain};
use metrics::{median, result_line, Kind, METRICS};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::SpanLog;
use workloads::Workload;

/// Drain windows per traced classic-engine cell: enough that the tail
/// percentile (p95) has ten windows beyond it.
const TRACE_WINDOWS: u64 = 200;

/// What this process was asked to do.
enum Mode {
    /// The benchmark proper: rounds of cells for `seconds`.
    Run { seed: u64, seconds: f64 },
    /// One cell at simulation seed `seed`, in this process.
    Cell { seed: u64 },
    /// A plain `RunSpec::run` at `seed`; prints its digest.
    Reference { seed: u64 },
}

struct Args {
    workload: Workload,
    trace: bool,
    mode: Mode,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut opts = std::collections::BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--cell" | "--reference" => {
                flag.trim_start_matches('-')
            }
            _ => return Err(format!("unknown option {flag}")),
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        opts.insert(key, value.as_str());
    }
    let num = |key: &str| -> Result<Option<u64>, String> {
        opts.get(key)
            .map(|v| v.parse::<u64>().map_err(|e| format!("--{key} {v:?}: {e}")))
            .transpose()
    };
    let name = opts.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let trace = match opts.get("trace").copied() {
        Some("1") => true,
        Some("0") | None => false,
        Some(v) => return Err(format!("--trace must be 0 or 1, got {v:?}")),
    };
    let mode = if let Some(seed) = num("cell")? {
        Mode::Cell { seed }
    } else if let Some(seed) = num("reference")? {
        Mode::Reference { seed }
    } else {
        if !opts.contains_key("trace") {
            return Err("--trace is required".into());
        }
        let seconds = opts.get("seconds").ok_or("--seconds is required")?;
        let seconds = seconds
            .parse::<f64>()
            .map_err(|e| format!("--seconds {seconds:?}: {e}"))?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
        }
        Mode::Run {
            seed: num("seed")?.ok_or("--seed is required")?,
            seconds,
        }
    };
    Ok(Args {
        workload,
        trace,
        mode,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if vertigo_stats::AUDIT_AVAILABLE || vertigo_stats::TRACE_AVAILABLE {
        eprintln!("perfbench: built with the `audit` or `trace` feature; rebuild without them");
        return ExitCode::from(2);
    }
    match args.mode {
        Mode::Run { seed, seconds } => {
            // The budget covers the reference run too.
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let mut bench = Bench::new(args.workload, seed);
            let metrics = if args.trace {
                bench.traced(deadline)
            } else {
                bench.untraced(deadline)
            };
            println!("{}", bench.env_line(seed, seconds, args.trace));
            println!("{}", result_line(bench.attempted, bench.failed, &metrics));
        }
        Mode::Reference { seed } => {
            println!(
                "digest {:016x}",
                reference_digest(&args.workload.spec(seed))
            );
        }
        Mode::Cell { seed } => return cell_process(args.workload, seed, args.trace),
    }
    ExitCode::SUCCESS
}

/// The `--cell` process: runs one cell and prints its output (see
/// [`cell_output`]). Exits non-zero if the report breaks an invariant.
fn cell_process(w: Workload, seed: u64, traced: bool) -> ExitCode {
    let spec = w.spec(seed);
    let mut log = SpanLog::start();
    let c = if traced {
        run_cell(&spec, Drain::traced(&spec, TRACE_WINDOWS), Some(&mut log))
    } else {
        run_cell(&spec, Drain::Whole, None)
    };
    if let Err(e) = check_invariants(&c) {
        eprintln!("perfbench: cell seed {seed}: invariant broken: {e}");
        return ExitCode::from(1);
    }
    print!("{}", cell_output(&c, traced.then_some(&log)));
    ExitCode::SUCCESS
}

/// A cell's output: for a traced cell its spans as `span {json}` lines,
/// then one `cell digest=... name=value ...` line with its end-to-end
/// metrics (and, traced, its per-layer metrics).
fn cell_output(c: &Cell, log: Option<&SpanLog>) -> String {
    let mut out = String::new();
    let mut line = format!(
        "cell digest={:016x} setup_s={:?} run_s={:?} peak_rss_mb={:?}",
        c.digest, c.setup_s, c.run_s, c.rss_mb
    );
    if let Some(log) = log {
        for l in log.to_jsonl().lines() {
            out += &format!("span {l}\n");
        }
        for (name, value) in metrics::per_layer(c, log) {
            line += &format!(" {name}={value:?}");
        }
    }
    out + &line + "\n"
}

/// What a `--cell` process reported.
struct CellOut {
    digest: String,
    values: std::collections::BTreeMap<String, f64>,
    spans: Vec<String>,
}

impl CellOut {
    /// Reads what [`cell_output`] printed.
    fn parse(stdout: &str) -> CellOut {
        let mut out = CellOut {
            digest: String::new(),
            values: Default::default(),
            spans: Vec::new(),
        };
        for line in stdout.lines() {
            if let Some(span) = line.strip_prefix("span ") {
                out.spans.push(span.to_string());
            } else if let Some(kv) = line.strip_prefix("cell ") {
                for pair in kv.split_whitespace() {
                    let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                    match k {
                        "digest" => out.digest = v.to_string(),
                        _ => {
                            out.values
                                .insert(k.to_string(), v.parse().unwrap_or(f64::NAN));
                        }
                    }
                }
            }
        }
        out
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// One run's cells and their accounting. Every cell, and the plain
/// reference run, is one operation.
struct Bench {
    workload: Workload,
    /// The simulation seeds of one round, from `Workload::cell_seeds`.
    seeds: Vec<u64>,
    /// The first digest seen for each seed; later cells of the same seed
    /// must match it. Seed 0's comes from a plain `RunSpec::run`.
    digests: Vec<Option<String>>,
    run_id: u64,
    attempted: u64,
    failed: u64,
    cells: u64,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Bench {
        let seeds = workload.cell_seeds(seed);
        eprintln!(
            "perfbench: {} seed {seed}: {} cells per round, {:.3} ms simulated each",
            workload.name(),
            seeds.len(),
            workload.horizon().as_secs_f64() * 1e3
        );
        let mut bench = Bench {
            workload,
            digests: vec![None; seeds.len()],
            run_id: run_id(workload, seed),
            seeds,
            attempted: 1,
            failed: 0,
            cells: 0,
        };
        let reference = bench.spawn(&["--reference".into(), bench.seeds[0].to_string()]);
        match reference
            .as_deref()
            .and_then(|out| out.trim().strip_prefix("digest "))
        {
            Some(d) => bench.digests[0] = Some(d.to_string()),
            None => bench.fail("the plain RunSpec::run reference produced no digest"),
        }
        bench
    }

    fn fail(&mut self, why: &str) {
        eprintln!("perfbench: FAILED: {why}");
        self.failed += 1;
    }

    /// Runs this binary with `--workload` and `extra`; its stdout, or
    /// `None` (and a failure) if it could not start or exited non-zero.
    fn spawn(&mut self, extra: &[String]) -> Option<String> {
        let exe = std::env::current_exe().expect("the benchmark's own path");
        let out = Command::new(exe)
            .args(["--workload", self.workload.name()])
            .args(extra)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        match out {
            Ok(o) if o.status.success() => Some(String::from_utf8_lossy(&o.stdout).into_owned()),
            Ok(o) => {
                self.fail(&format!("{extra:?} exited with {}", o.status));
                None
            }
            Err(e) => {
                self.fail(&format!("{extra:?} could not start: {e}"));
                None
            }
        }
    }

    /// Runs cell `j` of the round in its own process and checks its
    /// digest; `None` if it failed.
    fn cell(&mut self, j: usize, traced: bool) -> Option<CellOut> {
        self.attempted += 1;
        let stdout = self.spawn(&[
            "--cell".into(),
            self.seeds[j].to_string(),
            "--trace".into(),
            u8::from(traced).to_string(),
        ])?;
        let mut out = CellOut::parse(&stdout);
        // Tag the cell's spans with the run id and the operation number.
        for span in &mut out.spans {
            *span = format!(
                "{{\"run\":\"{:016x}\",\"op\":{},{}",
                self.run_id,
                self.attempted,
                &span[1..]
            );
        }
        if out.digest.is_empty() {
            self.fail(&format!("cell seed {} printed no result", self.seeds[j]));
            return None;
        }
        match &self.digests[j] {
            Some(d) if *d != out.digest => {
                let why = format!(
                    "cell seed {}: digest {} differs from the first run's {d}",
                    self.seeds[j], out.digest
                );
                self.fail(&why);
                return None;
            }
            Some(_) => {}
            None => self.digests[j] = Some(out.digest.clone()),
        }
        self.cells += 1;
        Some(out)
    }

    /// The end-to-end run: whole rounds of untraced cells while another
    /// round fits before `deadline`. The first round always runs.
    fn untraced(&mut self, deadline: Instant) -> Vec<(&'static str, f64)> {
        let e2e: Vec<&'static str> = METRICS
            .iter()
            .filter(|m| m.2 == Kind::EndToEnd)
            .map(|m| m.0)
            .collect();
        let mut samples = vec![Vec::new(); e2e.len()];
        loop {
            let t = Instant::now();
            for j in 0..self.seeds.len() {
                if let Some(out) = self.cell(j, false) {
                    for (s, name) in samples.iter_mut().zip(&e2e) {
                        s.push(out.get(name));
                    }
                }
            }
            if Instant::now() + t.elapsed() > deadline {
                break;
            }
        }
        for (s, name) in samples.iter().zip(&e2e) {
            eprintln!("perfbench: {name} {s:?}");
        }
        e2e.iter()
            .zip(&samples)
            .map(|(name, s)| (*name, median(s)))
            .collect()
    }

    /// The traced run: pairs of an untraced and a traced run of the
    /// round's first cell while another pair fits before `deadline`;
    /// each per-layer metric is the median over the traced cells.
    fn traced(&mut self, deadline: Instant) -> Vec<(&'static str, f64)> {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        loop {
            let t = Instant::now();
            plain.extend(self.cell(0, false));
            traced.extend(self.cell(0, true));
            if Instant::now() + t.elapsed() > deadline {
                break;
            }
        }
        let spans: Vec<String> = traced.iter().flat_map(|c| c.spans.clone()).collect();
        write_spans(self.workload, self.run_id, &spans);
        let run_s =
            |cells: &[CellOut]| median(&cells.iter().map(|c| c.get("run_s")).collect::<Vec<_>>());
        METRICS
            .iter()
            .filter(|m| m.2 == Kind::PerLayer)
            .map(|&(name, _, _)| {
                let value = match name {
                    "bench.trace_overhead_s" => run_s(&traced) - run_s(&plain),
                    "bench.traced_cells" => traced.len() as f64,
                    _ => median(&traced.iter().map(|c| c.get(name)).collect::<Vec<_>>()),
                };
                (name, value)
            })
            .collect()
    }

    /// The machine, the build and the cells' digests, as one JSON line.
    fn env_line(&self, seed: u64, seconds: f64, traced: bool) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut features = Vec::new();
        if vertigo_stats::AUDIT_AVAILABLE {
            features.push("\"audit\"");
        }
        if vertigo_stats::TRACE_AVAILABLE {
            features.push("\"trace\"");
        }
        if vertigo_simcore::SNAPSHOT_AVAILABLE {
            features.push("\"snapshot\"");
        }
        let digests: Vec<String> = self
            .digests
            .iter()
            .map(|d| d.as_ref().map_or("null".into(), |d| format!("\"{d}\"")))
            .collect();
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        format!(
            "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \
             \"seconds\": {seconds:?}, \"horizon_ns\": {}, \"cell_seeds\": [{}], \"cells\": {}, \
             \"digests\": [{}], \"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\", \
             \"profile\": \"{}\", \"opt_level\": \"{}\", \"features\": [{}]}}}}",
            self.workload.name(),
            u8::from(traced),
            self.workload.horizon().as_nanos(),
            seeds.join(", "),
            self.cells,
            digests.join(", "),
            env!("PERFBENCH_RUSTC"),
            git_commit(),
            env!("PERFBENCH_PROFILE"),
            env!("PERFBENCH_OPT_LEVEL"),
            features.join(", ")
        )
    }
}

/// One id shared by every span of a run.
fn run_id(w: Workload, seed: u64) -> u64 {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    cell::fnv1a(format!("{}|{seed}|{now}|{}", w.name(), std::process::id()).as_bytes())
}

/// Writes the traced run's spans, one JSON object a line, next to the
/// benchmark's sources under `out/`.
fn write_spans(w: Workload, run_id: u64, spans: &[String]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{run_id:016x}.jsonl", w.name()));
    let mut text = spans.join("\n");
    text.push('\n');
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// The commit of the checkout, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertigo_simcore::SimDuration;

    /// Metrics the run adds itself rather than reading from a cell.
    const RUN_LEVEL: [&str; 2] = ["bench.trace_overhead_s", "bench.traced_cells"];

    #[test]
    fn every_workload_emits_every_declared_metric() {
        for w in Workload::ALL {
            let spec = w.spec_for(1, SimDuration::from_micros(300));
            for traced in [false, true] {
                let mut log = SpanLog::start();
                let c = if traced {
                    run_cell(&spec, Drain::traced(&spec, TRACE_WINDOWS), Some(&mut log))
                } else {
                    run_cell(&spec, Drain::Whole, None)
                };
                let out = CellOut::parse(&cell_output(&c, traced.then_some(&log)));
                assert_eq!(out.digest, format!("{:016x}", c.digest));
                assert_eq!(out.spans.is_empty(), !traced);
                for &(name, _, kind) in METRICS {
                    let expected = match kind {
                        Kind::EndToEnd => true,
                        Kind::PerLayer => traced && !RUN_LEVEL.contains(&name),
                    };
                    assert_eq!(
                        out.values.contains_key(name),
                        expected,
                        "{} traced={traced}: {name}",
                        w.name()
                    );
                    if expected {
                        assert!(out.get(name).is_finite(), "{}: {name} not finite", w.name());
                    }
                }
                assert_eq!(
                    out.values.len(),
                    out.values
                        .keys()
                        .filter(|k| metrics::unit_of(k).is_some())
                        .count()
                );
            }
        }
    }

    #[test]
    fn cell_seeds_depend_on_the_seed_only() {
        for w in Workload::ALL {
            assert_eq!(w.cell_seeds(4), w.cell_seeds(4));
            let (a, b) = (w.cell_seeds(4), w.cell_seeds(5));
            assert!(
                a.iter().all(|s| !b.contains(s)),
                "{}: rounds overlap",
                w.name()
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(args("--workload incast --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(args("--workload nope --seed 1 --seconds 2 --trace 0").is_err());
        assert!(args("--workload incast --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload incast --seed 1 --seconds 2 --trace 2").is_err());
        assert!(args("--workload incast --seed 1 --seconds 2").is_err());
        assert!(args("--workload incast --seed 1 --seconds 2 --trace 0 --bogus 1").is_err());
        assert!(args("--workload incast --seed").is_err());
    }
}
