"""Summarise benchmark records, or compare a parent's with a change's.

  python3 bench/compare.py RECORDS.jsonl
  python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

RECORDS files are what ``bench/run.py --record FILE`` appends, one run
per line.  With one file, each metric of each workload gets its median,
quartiles and spread (the distance between the quartiles as a share of
the median), with ``steady`` when the spread is below a third of the
metric's bound.  With two files, each side gets its median and
quartiles, runs are paired by seed to count the change's wins (ties
count for neither side) and to give the median of the per-seed ratios
change / parent, and every end-to-end metric gets a verdict:

  regression   the change's median is worse by more than the bound
  improved     the change wins at least 9 of 10 pairs and the medians
               differ by more than the parent's quartile distance
  unresolved   a side's spread exceeds the bound, unless every run of
               the change is better (improved) or worse (regression)
               than every run of the parent
  unchanged    otherwise

Metrics without a bound (the per-layer ones) get ``same`` when every
run on both sides reads the same value, else ``changed``.  The exit
code is 1 when some verdict is a regression.

The host's speed drifts over minutes, so make the parent's and the
change's runs alternately, seed by seed: then the two runs of a pair
see nearly the same host, and the wins and the paired ratio show a
difference that the two sides' medians may hide.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_runs(path: str) -> dict:
    """{(workload, metric): {seed: value}} over the correct runs."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            prov, result = rec["provenance"], rec["result"]
            if not result["correct"]:
                print(f"{path}: skipping failed run {prov['workload']} seed {prov['seed']}", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                runs.setdefault((prov["workload"], name), {})[prov["seed"]] = metric["value"]
    return runs


def quartiles(values) -> tuple[float, float, float]:
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def summarise(path: str, spec: dict) -> int:
    runs = load_runs(path)
    print(f"{'workload':<12} {'metric':<32} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
    for (workload, name), by_seed in sorted(runs.items()):
        values = list(by_seed.values())
        q1, med, q3 = quartiles(values)
        bound = spec.get(name, {}).get("bound")
        note = ""
        if bound is not None:
            note = f"{bound:<5} {'steady' if spread(values) < bound / 3 else 'NOT STEADY'}"
        print(f"{workload:<12} {name:<32} {len(values):>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread(values):>8.4f}  {note}")
    return 0


def paired_ratio(parent: dict, change: dict) -> float | None:
    """Median over the seeds run on both sides of change / parent."""
    ratios = [change[s] / parent[s] for s in set(parent) & set(change) if parent[s]]
    return statistics.median(ratios) if ratios else None


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> tuple[str, int, int]:
    sign = 1 if better == "lower" else -1
    seeds = sorted(set(parent) & set(change))
    pairs = [(parent[s], change[s]) for s in seeds]
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if bound is None:
        same = len(set(parent.values()) | set(change.values())) == 1
        return "same" if same else "changed", wins, len(pairs)
    pv, cv = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(pv)
    _, c_med, _ = quartiles(cv)
    worse = sign * (c_med - p_med) / p_med
    all_better = all(sign * (p - c) > 0 for p in pv for c in cv)
    all_worse = all(sign * (c - p) > 0 for p in pv for c in cv)
    if max(spread(pv), spread(cv)) > bound:
        text = "improved" if all_better else "regression" if all_worse else "unresolved"
    elif worse > bound:
        text = "regression"
    elif pairs and wins >= 0.9 * len(pairs) and sign * (p_med - c_med) > p_q3 - p_q1:
        text = "improved"
    else:
        text = "unchanged"
    return text, wins, len(pairs)


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    parent, change = load_runs(parent_path), load_runs(change_path)
    regressions = 0
    header = (
        f"{'workload':<12} {'metric':<32} {'parent median [q1, q3]':>40} {'change median [q1, q3]':>40}"
        f" {'wins':>7} {'ratio':>7}  verdict"
    )
    print(header)
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        info = spec.get(name, {"better": "lower"})
        text, wins, npairs = verdict(parent[key], change[key], info.get("better", "lower"), info.get("bound"))
        regressions += text == "regression"
        sides = []
        for side in (parent[key], change[key]):
            q1, med, q3 = quartiles(side.values())
            sides.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        ratio = paired_ratio(parent[key], change[key])
        ratio_text = "-" if ratio is None else f"{ratio:.3f}"
        print(f"{workload:<12} {name:<32} {sides[0]:>40} {sides[1]:>40} {wins:>3}/{npairs:<3} {ratio_text:>7}  {text}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    return summarise(argv[0], spec) if len(argv) == 1 else compare(argv[0], argv[1], spec)


if __name__ == "__main__":
    sys.exit(main())
