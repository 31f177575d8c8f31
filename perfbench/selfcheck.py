"""Fast check of the benchmark itself on the exhaustive-2x3 workload.

Usage:
    python3 perfbench/selfcheck.py

It checks that run.py prints exactly the metrics BENCHMARK.json names, that
every metric name matches [A-Za-z0-9_.-]+, that the campaign matches its
recorded reference, that a traced run produces the same report digest as
the untraced run with distinct_ratio 0.125, and that a wrong reference
digest, or no reference at all, makes every instance count as failed
(error_ratio 1). It takes a few seconds and prints "selfcheck: ok" or the
first failed check, exiting 1.
"""

import io
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

WORKLOAD = "exhaustive-2x3"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def check_names(result, expected):
    names = list(result["metrics"])
    check(names == list(expected), f"metric names {names}")
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    check(not bad, f"metric names not matching {NAME_RE.pattern}: {bad}")


def main():
    quiet = io.StringIO()
    references = run.load_references()
    plain, campaigns = run.run_workload(WORKLOAD, 42, 0.5, False, references,
                                        quiet)
    check(plain["correct"] and plain["failed"] == 0, f"plain run {plain}")
    check(campaigns[0].key in references, "no reference for the workload")
    check_names(plain, run.END_TO_END_UNITS)

    traced, pair = run.run_workload(WORKLOAD, 42, 0.5, True, references,
                                    quiet)
    check(traced["correct"], f"traced run {traced}")
    check_names(traced, run.PER_LAYER_UNITS)
    check(len({c.sha256 for c in pair}) == 1,
          "traced and untraced report digests differ")
    check(pair[0].sha256 == campaigns[0].sha256, "report digest not stable")
    moore = traced["metrics"]["automaton.moore_complexity.distinct_ratio"]
    check(moore["value"] == 0.125, f"distinct_ratio {moore}")

    key = campaigns[0].key
    wrong = {key: {"summary": campaigns[0].summary, "sha256": "0" * 64}}
    for what, refs in (("a wrong reference", wrong), ("no reference", {})):
        bad, _ = run.run_workload(WORKLOAD, 42, 0.5, False, refs, quiet)
        check(not bad["correct"] and bad["failed"] == bad["attempted"],
              f"{what} gave {bad['failed']}/{bad['attempted']} failed")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selfcheck: FAILED: {exc}")
        sys.exit(1)
