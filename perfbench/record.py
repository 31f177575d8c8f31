"""Run the benchmark on every workload and save the runs as one result set.

Usage:
    python3 perfbench/record.py OUT.json [--seeds 1-10] [--trace 0|1]

Each (workload, seed) is one `perfbench/run.py` process, the same command
BENCHMARK.json gives. The result set records the Python version, nproc, the
git commit when there is one, the seeds and the workload sizes. The table
printed at the end gives, per workload and metric, the median, the quartiles
and their distance as a share of the median next to a third of the metric's
bound, plus error_ratio = failed / attempted over all the runs.
perfbench/compare.py compares two result sets.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(result_set, out=sys.stdout):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in dict.fromkeys(r["workload"] for r in result_set["runs"]):
        runs = [r for r in result_set["runs"] if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, error_ratio"
              f" {failed / attempted:.6f} ratio ({failed}/{attempted})",
              file=out)
        for name, unit in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            limit = f"  bound/3 {bound / 3:.3f}" if bound else ""
            print(f"  {name:46s} {med:14.6g} {unit['unit']:6s}"
                  f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{limit}",
                  file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    result_set = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seconds": spec["run_seconds"],
        "trace": args.trace,
        "seeds": seeds,
        "workloads": {w: asdict(WORKLOADS[w]) for w in workloads},
        "runs": [],
    }
    for workload in workloads:
        for seed in seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} exited"
                                 f" {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result_set["runs"].append(
                {"workload": workload, "seed": seed, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']}",
                  file=sys.stderr, flush=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(result_set, fh, indent=1)
                fh.write("\n")
    summarize(result_set)
    return 0


if __name__ == "__main__":
    sys.exit(main())
