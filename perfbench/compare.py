"""Before/after table of two result sets written by perfbench/record.py.

Usage:
    python3 perfbench/compare.py PARENT.json CHANGE.json

For each workload and metric it prints both medians with their quartiles,
the change of the median, and how many run pairs the change won. Runs are
paired by seed, or by position when the seeds differ; ties count for
neither side. The verdict follows perfbench/README.md: "better" needs at
least nine tenths of the pairs won and a median gain larger than the
parent's quartile distance; "WORSE" means the median is worse by more than
the metric's bound; "unresolved" means the parent's own quartile distance
exceeds the bound; otherwise "within bound".
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from record import quartiles  # noqa: E402


def pair_runs(parent, change):
    """Pairs of runs with the same seed, or by position if seeds differ."""
    by_seed = {r["seed"]: r for r in change}
    if all(r["seed"] in by_seed for r in parent):
        return [(r, by_seed[r["seed"]]) for r in parent]
    return list(zip(parent, change))


def verdict(parent_vals, change_vals, wins, pairs, better, bound):
    p1, pmed, p3 = quartiles(parent_vals)
    _, cmed, _ = quartiles(change_vals)
    gain = (cmed - pmed) if better == "higher" else (pmed - cmed)
    if pairs and wins >= 0.9 * pairs and gain > p3 - p1:
        return "better"
    if bound is None:
        return "-"
    if -gain > bound * abs(pmed):
        return "WORSE"
    if pmed and (p3 - p1) / abs(pmed) > bound:
        return "unresolved"
    return "within bound"


def compare(parent_set, change_set, metrics, out=sys.stdout):
    workloads = dict.fromkeys(r["workload"] for r in parent_set["runs"])
    for workload in workloads:
        parent = [r for r in parent_set["runs"] if r["workload"] == workload]
        change = [r for r in change_set["runs"] if r["workload"] == workload]
        if not change:
            print(f"{workload}: missing from the change", file=out)
            continue
        pairs = pair_runs(parent, change)
        print(f"{workload}: {len(parent)} parent runs, {len(change)} change"
              f" runs, {len(pairs)} pairs", file=out)
        for side, runs in (("parent", parent), ("change", change)):
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            print(f"  error_ratio {side}: {failed / attempted:.6f}"
                  f" ({failed}/{attempted})", file=out)
        for name in parent[0]["result"]["metrics"]:
            better, bound = metrics.get(name, ("lower", None))
            pv = [r["result"]["metrics"][name]["value"] for r in parent]
            cv = [r["result"]["metrics"][name]["value"] for r in change]
            unit = parent[0]["result"]["metrics"][name]["unit"]
            wins = 0
            for p, c in pairs:
                a = p["result"]["metrics"][name]["value"]
                b = c["result"]["metrics"][name]["value"]
                wins += (b > a) if better == "higher" else (b < a)
            p1, pmed, p3 = quartiles(pv)
            c1, cmed, c3 = quartiles(cv)
            delta = (cmed - pmed) / pmed if pmed else 0.0
            print(f"  {name:44s} {unit:6s} parent {pmed:.6g} [{p1:.6g},"
                  f" {p3:.6g}]  change {cmed:.6g} [{c1:.6g}, {c3:.6g}]"
                  f"  {delta:+.1%}  wins {wins}/{len(pairs)}"
                  f"  {verdict(pv, cv, wins, len(pairs), better, bound)}",
                  file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m.get("bound"))
               for m in spec["end_to_end"] + spec["per_layer"]}
    with open(args.parent, encoding="utf-8") as fh:
        parent_set = json.load(fh)
    with open(args.change, encoding="utf-8") as fh:
        change_set = json.load(fh)
    compare(parent_set, change_set, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
