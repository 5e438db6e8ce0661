#!/usr/bin/env bash
# Tier-1 CI for the Vertigo reproduction workspace. Everything here must
# pass before merging: release build, full test suite, formatting, lints.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo test --features audit -q"
cargo test --workspace --features audit -q

echo "==> mutation smoke: audit layer must catch a seeded accounting bug"
cargo test -p vertigo-netsim --features audit -q --test audit seeded_phantom_packet_is_caught

echo "==> audit observes, never perturbs: digest diff"
cargo run --release --quiet --example audit_digest > /tmp/vertigo_digest_plain.txt
cargo run --release --quiet --features audit --example audit_digest > /tmp/vertigo_digest_audit.txt
diff /tmp/vertigo_digest_plain.txt /tmp/vertigo_digest_audit.txt

echo "==> cargo test --features trace -q"
cargo test --workspace --features trace -q

echo "==> golden-trace regression suite"
cargo test --features trace -q --test golden_trace

echo "==> deflection-policy conformance + invariant suites"
cargo test -p vertigo-netsim --features trace -q --test policy_conformance
cargo test -p vertigo-netsim --features trace -q --test deflect_invariants

echo "==> trace observes, never perturbs: digest diff (both backends)"
cargo run --release --quiet --example trace_digest > /tmp/vertigo_digest_plain2.txt
cargo run --release --quiet --features trace --example trace_digest > /tmp/vertigo_digest_trace.txt
diff /tmp/vertigo_digest_plain2.txt /tmp/vertigo_digest_trace.txt

echo "==> cargo test --features snapshot -q"
cargo test --workspace --features snapshot -q

echo "==> resume equivalence: checkpoint+resume digest (both backends, faults active)"
SNAPDIR=/tmp/vertigo_snapshot_ci
rm -rf "$SNAPDIR"
FAULTS='loss:*:0.002@2ms-10ms'
for ev in wheel heap; do
  base="$SNAPDIR/$ev"
  mkdir -p "$base"
  cargo run --release --quiet --features snapshot -p vertigo-experiments --bin experiments -- \
    fig5 --quick --events "$ev" --faults "$FAULTS" --out "$base/straight" \
    | grep -v '^\[csv\]' > "$base/straight.txt"
  cargo run --release --quiet --features snapshot -p vertigo-experiments --bin experiments -- \
    fig5 --quick --events "$ev" --faults "$FAULTS" --out "$base/ck" \
    --checkpoint-every "6ms:$base/snaps/fig5.vsnp" \
    | grep -v '^\[csv\]' > "$base/ck.txt"
  # Checkpointing must not perturb the run.
  diff "$base/straight.txt" "$base/ck.txt"
  diff -r "$base/straight" "$base/ck"
  # Resume from the deepest checkpoint (t = 18 ms), then delete it and
  # resume from t = 12 ms: equivalence at two distinct sim-times.
  for t in 18000000 12000000; do
    out="$base/resume_$t"
    cargo run --release --quiet --features snapshot -p vertigo-experiments --bin experiments -- \
      fig5 --quick --events "$ev" --faults "$FAULTS" --out "$out" \
      --resume "$base/snaps/fig5.vsnp" 2> "$out.err" \
      | grep -v '^\[csv\]' > "$out.txt"
    grep -q -- "-t$t.vsnp" "$out.err"   # really resumed at this depth
    diff "$base/straight.txt" "$out.txt"
    diff -r "$base/straight" "$out"
    rm -f "$base/snaps/"*"-t$t.vsnp"
  done
done

echo "==> resume equivalence under trace: identical .vtrace streams from the resume point on"
base="$SNAPDIR/traced"
mkdir -p "$base"
cargo run --release --quiet --features snapshot,trace -p vertigo-experiments --bin experiments -- \
  fig5 --quick --faults "$FAULTS" --out "$base/straight" \
  --trace "$base/tstraight/fig5.vtrace:time=18ms-" \
  --checkpoint-every "6ms:$base/snaps/fig5.vsnp" \
  | grep -v '^\[csv\]' > "$base/straight.txt"
cargo run --release --quiet --features snapshot,trace -p vertigo-experiments --bin experiments -- \
  fig5 --quick --faults "$FAULTS" --out "$base/resume" \
  --resume "$base/snaps/fig5.vsnp" \
  --trace "$base/tresume/fig5.vtrace:time=18ms-" \
  | grep -v '^\[csv\]' > "$base/resume.txt"
diff "$base/straight.txt" "$base/resume.txt"
diff -r "$base/straight" "$base/resume"
for f in "$base"/tstraight/*.vtrace; do
  cargo run --release --quiet -p vertigo-experiments --bin vtrace -- \
    diff "$f" "$base/tresume/$(basename "$f")" > /dev/null
done

echo "==> warm-start equivalence: --warm-start vs cold digest (both backends, faults active)"
WARMDIR=/tmp/vertigo_warm_ci
rm -rf "$WARMDIR"
for ev in wheel heap; do
  base="$WARMDIR/$ev"
  mkdir -p "$base"
  cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
    fig5 --quick --events "$ev" --faults "$FAULTS" --out "$base/cold" \
    | grep -v '^\[csv\]' > "$base/cold.txt"
  # Warm-starting must be unobservable in stdout and CSVs, at more than
  # one job count (two-phase scheduling must preserve submission order).
  for j in 1 4; do
    cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
      fig5 --quick --events "$ev" --faults "$FAULTS" --out "$base/warm$j" \
      --warm-start --jobs "$j" 2> "$base/warm$j.err" \
      | grep -v '^\[csv\]' > "$base/warm$j.txt"
    grep -q 'cells forked from' "$base/warm$j.err"   # really warm-started
    diff "$base/cold.txt" "$base/warm$j.txt"
    diff -r "$base/cold" "$base/warm$j"
  done
done

echo "==> tune smoke: warm search matches --cold, on both strategies"
TUNEDIR=/tmp/vertigo_tune_ci
rm -rf "$TUNEDIR"
for search in grid halving; do
  base="$TUNEDIR/$search"
  mkdir -p "$base"
  cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
    tune --quick --search "$search" --budget 4 --out "$base/warm" \
    | sed "s|$base/warm|OUT|" > "$base/warm.txt"
  cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
    tune --quick --search "$search" --budget 4 --cold --out "$base/cold" \
    | sed "s|$base/cold|OUT|" > "$base/cold.txt"
  diff "$base/warm.txt" "$base/cold.txt"
  diff "$base/warm/tune.csv" "$base/cold/tune.csv"
  grep -q '^  cand' "$base/warm.txt"   # a Pareto front was printed
done

echo "==> deflect override is inert at the default: --deflect vertigo vs no flag (both backends)"
DEFLDIR=/tmp/vertigo_deflect_ci
rm -rf "$DEFLDIR"
for ev in wheel heap; do
  base="$DEFLDIR/$ev"
  mkdir -p "$base"
  cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
    fig5 --quick --events "$ev" --out "$base/native" \
    | grep -v '^\[csv\]' > "$base/native.txt"
  cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
    fig5 --quick --events "$ev" --deflect vertigo --out "$base/explicit" \
    | grep -v '^\[csv\]' > "$base/explicit.txt"
  # Explicitly selecting the default policy must be byte-unobservable.
  diff "$base/native.txt" "$base/explicit.txt"
  diff -r "$base/native" "$base/explicit"
done

echo "==> figdeflect smoke: all five policies produce rows"
FIGDEFL=/tmp/vertigo_figdeflect_ci
rm -rf "$FIGDEFL"
mkdir -p "$FIGDEFL"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  figdeflect --quick --out "$FIGDEFL" > /dev/null
for p in vertigo dibs pabo hybrid bounded; do
  grep -q ",$p," "$FIGDEFL/figdeflect.csv"
done

echo "==> vsnp inspect: decodes checkpoint headers"
ckpt=$(ls "$SNAPDIR"/wheel/snaps/*.vsnp | head -1)
cargo run --release --quiet -p vertigo-experiments --bin vsnp -- \
  inspect "$ckpt" | tee /tmp/vertigo_vsnp_ci.txt
grep -q 'sim time' /tmp/vertigo_vsnp_ci.txt
grep -q 'version    1' /tmp/vertigo_vsnp_ci.txt
# Garbage input must fail loudly with a non-zero exit.
if cargo run --release --quiet -p vertigo-experiments --bin vsnp -- \
  inspect scripts/ci.sh 2> /dev/null; then
  echo "vsnp inspect accepted a non-snapshot file" >&2
  exit 1
fi

echo "==> domain engine: --domains 1 vs committed reference, --domains 2 vs --domains 1 (both backends, faults active)"
DOMDIR=/tmp/vertigo_domains_ci
rm -rf "$DOMDIR"
for ev in wheel heap; do
  base="$DOMDIR/$ev"
  mkdir -p "$base"
  for n in 1 2; do
    cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
      fig5 --quick --events "$ev" --faults "$FAULTS" --out "$base/d$n" \
      --domains "$n" \
      | grep -v '^\[csv\]' > "$base/d$n.txt"
  done
  # The domain engine's absolute output is pinned: a change that moved
  # every domain count at once would pass the comparison below. The
  # reference is this same command's output (`grep -v '^\[csv\]'` stdout
  # plus the CSVs); regenerating it is a deliberate re-baseline.
  diff tests/golden/fig5_domains1/stdout.txt "$base/d1.txt"
  diff -r tests/golden/fig5_domains1 "$base/d1" --exclude stdout.txt
  # The domain count must be unobservable: same stdout, same CSVs.
  diff "$base/d1.txt" "$base/d2.txt"
  diff -r "$base/d1" "$base/d2"
done

echo "==> workload conformance: statistical + grammar suites"
cargo test -p vertigo-workload -q --test workload_stats
cargo test -p vertigo-workload -q --test scenario_grammar

echo "==> absent --workload is byte-inert: fig5 vs committed CSVs (both backends)"
WLDIR=/tmp/vertigo_workload_ci
rm -rf "$WLDIR"
for ev in wheel heap; do
  base="$WLDIR/$ev"
  mkdir -p "$base"
  cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
    fig5 --quick --events "$ev" --out "$base" > /dev/null
  # The scenario plumbing threads through every cell; with no --workload
  # it must not move a single committed byte.
  for bg in 25 50 75; do
    diff "results/quick/fig5_bg$bg.csv" "$base/fig5_bg$bg.csv"
  done
done

echo "==> figworkload smoke: every scenario preset produces rows (matches committed CSV)"
cargo run --release --quiet -p vertigo-experiments --bin experiments -- \
  figworkload --quick --out "$WLDIR/fig" > /dev/null
for sc in burst perm onoff tenants; do
  grep -q "^$sc," "$WLDIR/fig/figworkload.csv"
done
diff results/quick/figworkload.csv "$WLDIR/fig/figworkload.csv"

echo "==> soak smoke: multi-tenant scenario with the audit layer live"
cargo run --release --quiet --features audit -p vertigo-experiments --bin experiments -- \
  soak --quick --out "$WLDIR/soak" 2> "$WLDIR/soak.err" > "$WLDIR/soak.txt"
grep -q 'bursty' "$WLDIR/soak.txt"        # per-tenant breakdown printed
grep -q 'conservation layer live' "$WLDIR/soak.err"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> ci OK"
