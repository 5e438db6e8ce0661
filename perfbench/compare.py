#!/usr/bin/env python3
"""Compares two sets of benchmark results, row by row.

Each set is a file holding the standard output of benchmark runs, one
after another (each run prints a `{"perfbench": ...}` line naming its
workload, seed, build and digests, then the result object). Usage:

    python3 perfbench/compare.py BASE.txt CHANGE.txt

The metrics' bounds come from the repository's `BENCHMARK.json`, found
from this script's own location, so it runs from any directory.

Runs are paired by workload and `--seed`: the base's run at a seed is
compared with the change's run at the same seed (the i-th base run of a
seed with the i-th change run of it). Run both sides at the same seeds,
alternating which side runs first, so that a pair sees the same phase of
the host. A pair is won by the side whose value is better; ties count for
neither.

For every workload x metric it prints both sides' medians and quartiles,
the pairs the change won out of those run, and a verdict:

  better      the change's median is better by more than the base's own
              spread (its quartile distance) and the change wins at least
              9 in 10 of the pairs;
  worse       the change's median is worse by more than the metric's bound
              (per-layer metrics have no bound: by more than the base's
              spread, with the base winning at least 9 in 10 pairs);
  within bound  neither;
  unresolved  either side's spread is wider than the bound, unless every
              change run beats every base run (better) or loses to every
              one (worse).

It also reports cells whose output digests differ between the sets at the
same seed: a change that only touches the simulator's speed must leave
them identical.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """Runs in `path`: a list of (env, result) pairs."""
    runs, env = [], None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "perfbench" in obj:
                env = obj["perfbench"]
            elif "metrics" in obj and env is not None:
                runs.append((env, obj))
                env = None
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def paired(base, change):
    """(base, change) value pairs matched by seed; each side is a list of
    (seed, value) in run order."""
    by_seed = {}
    for seed, v in change:
        by_seed.setdefault(seed, []).append(v)
    pairs, used = [], {}
    for seed, b in base:
        i = used.get(seed, 0)
        if i < len(by_seed.get(seed, [])):
            pairs.append((b, by_seed[seed][i]))
            used[seed] = i + 1
    return pairs


def wins(pairs, lower_is_better):
    """How many pairs (a, b) have b better than a; ties count for neither."""
    sign = 1.0 if lower_is_better else -1.0
    return sum(sign * (a - b) > 0 for a, b in pairs)


def verdict(base, change, pairs, bound, lower_is_better):
    """One row's verdict; `bound` is None for per-layer metrics."""
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if lower_is_better else -1.0
    # Positive gain = the change is better.
    gain = sign * (bm - cm)
    won = wins(pairs, lower_is_better)
    lost = wins([(c, b) for b, c in pairs], lower_is_better)
    scale = abs(bm) if bm else 1.0
    spread = max((b3 - b1) / scale, (c3 - c1) / (abs(cm) or 1.0))
    if bound is not None and spread > bound:
        every = len(base) * len(change)
        if wins([(b, c) for b in base for c in change], lower_is_better) == every:
            return "better"
        if wins([(c, b) for b in base for c in change], lower_is_better) == every:
            return "worse"
        return "unresolved"
    base_spread = b3 - b1
    if pairs and gain > base_spread and won >= 0.9 * len(pairs):
        return "better"
    worse_by = -gain / scale
    if bound is not None:
        return "worse" if worse_by > bound else "within bound"
    if pairs and -gain > base_spread and lost >= 0.9 * len(pairs):
        return "worse"
    return "within bound"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = load(argv[0]), load(argv[1])

    for label, runs in (("base", base), ("change", change)):
        envs = {(e["nproc"], e["rustc"], e["commit"], e["profile"]) for e, _ in runs}
        for nproc, rustc, commit, profile in sorted(envs):
            print(f"{label}: commit {commit}, {rustc}, profile {profile}, nproc {nproc}")
        failed = sum(r["failed"] for _, r in runs)
        attempted = sum(r["attempted"] for _, r in runs)
        print(f"{label}: {len(runs)} runs, {attempted} operations, {failed} failed")

    digests = {}
    for label, runs in (("base", base), ("change", change)):
        for env, _ in runs:
            for seed, d in zip(env["cell_seeds"], env["digests"]):
                if d is not None:
                    digests.setdefault((env["workload"], seed), {}).setdefault(label, set()).add(d)
    differ = sorted(k for k, v in digests.items() if len(v) == 2 and v["base"] != v["change"])
    torn = sorted(k for k, v in digests.items() if any(len(s) > 1 for s in v.values()))
    for w, seed in differ:
        print(f"outputs differ: {w} cell seed {seed}")
    for w, seed in torn:
        print(f"outputs differ within one set: {w} cell seed {seed}")

    header = (
        f"{'workload':<12} {'metric':<32} {'base q1/med/q3':>34} {'change q1/med/q3':>34}"
        f" {'won':>7}  verdict"
    )
    print(header)
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        for name, spec in specs.items():
            side = lambda runs: [
                (e["seed"], r["metrics"][name]["value"])
                for e, r in runs
                if e["workload"] == w and name in r["metrics"]
            ]
            b, c = side(base), side(change)
            if not b or not c:
                continue
            pairs = paired(b, c)
            b, c = [v for _, v in b], [v for _, v in c]
            lower = spec["better"] == "lower"
            v = verdict(b, c, pairs, spec.get("bound"), lower)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            won_of = f"{wins(pairs, lower)}/{len(pairs)}"
            print(f"{w:<12} {name:<32} {fmt(quartiles(b)):>34} {fmt(quartiles(c)):>34} {won_of:>7}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
