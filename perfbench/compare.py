"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/run.py --workload serve-zipf --seed 1 --save runs/base   # once per seed
    python3 perfbench/compare.py runs/base runs/change

Each directory holds the JSON results ``run.py --save`` writes.  Runs are
paired by workload, trace mode and seed.  For every metric and workload the
report gives each set's median and quartiles, the share of pairs the change
wins (ties count for neither side), and the verdict against the metric's
bound from ``BENCHMARK.json``:

- ``unresolved`` when the base set's own spread (inter-quartile distance
  over the median) is wider than the bound, unless every change run beats
  every base run;
- ``regressed`` when the change's median is worse than the base median by
  more than the bound;
- ``gain`` when the change wins at least nine pairs in ten and the medians
  differ by more than the base set's inter-quartile distance;
- ``holds`` otherwise.

Metrics without a bound (the per-layer ones) get no verdict.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.stats import better, pair_wins, quartiles  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_runs(directory: str) -> dict[tuple, dict]:
    """(workload, trace, seed) -> result."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        runs[(result["workload"], result["trace"], result["seed"])] = result
    return runs


def metric_specs() -> dict[str, dict]:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def verdict(base: list[float], change: list[float], spec: dict) -> str:
    bound = spec.get("bound")
    if bound is None:
        return "-"
    direction = spec["better"]
    q1, med, q3 = quartiles(base)
    c_med = quartiles(change)[1]
    all_better = all(better(b, c, direction) for b in base for c in change)
    if (q3 - q1) / abs(med) > bound and not all_better:
        return "unresolved"
    worse = (c_med - med) / abs(med) if direction == "lower" else (med - c_med) / abs(med)
    if worse > bound:
        return "regressed"
    wins, _, _ = pair_wins(base, change, direction)
    if wins >= 0.9 * len(base) and abs(c_med - med) > (q3 - q1):
        return "gain"
    return "holds"


def compare(base_dir: str, change_dir: str) -> list[str]:
    base, change = load_runs(base_dir), load_runs(change_dir)
    specs = metric_specs()
    keys = sorted(set(base) & set(change))
    groups: dict[tuple, list[tuple]] = {}
    for key in keys:
        workload, trace, _ = key
        groups.setdefault((workload, trace), []).append(key)
    lines = []
    for (workload, trace), pair_keys in sorted(groups.items()):
        lines.append(f"== {workload} ({'per-layer' if trace else 'end-to-end'}, {len(pair_keys)} pairs) ==")
        for side, runs in (("base", base), ("change", change)):
            attempted = sum(runs[k]["attempted"] for k in pair_keys)
            failed = sum(runs[k]["failed"] for k in pair_keys)
            correct = all(runs[k]["correct"] for k in pair_keys)
            lines.append(f"  {side}: correct={correct} failed {failed}/{attempted}")
        metrics = sorted(set.intersection(*(set(base[k]["metrics"]) for k in pair_keys)))
        for metric in metrics:
            a = [base[k]["metrics"][metric]["value"] for k in pair_keys]
            b = [change[k]["metrics"][metric]["value"] for k in pair_keys]
            spec = specs.get(metric, {"better": "lower"})
            wins, losses, ties = pair_wins(a, b, spec["better"])
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"  {metric:32s} base {qa[1]:11.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                f"change {qb[1]:11.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
                f"wins {wins}/{len(a)} (ties {ties})  {verdict(a, b, spec)}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    lines = compare(args.base, args.change)
    if not lines:
        sys.stderr.write("no runs pair up between the two directories\n")
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
