"""Benchmark of `permdfa verify` campaigns.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
        [--trace 0|1] [--update-reference]

Run from the root of a source checkout; the package is imported from src/.
Every campaign runs in a fresh interpreter (perfbench/campaign.py), because
users pay the per-process basis enumeration on every CLI call, and writes its
TSV report to a real file, as `verify --out FILE` does. Campaigns repeat
while one more still fits in --seconds. Each one is checked: exit code 0, a
summary line with the expected total and fail=0, a report whose rows agree
with the summary, a seeded sample of rows re-judged by an independent
minimizer in this file, and the exact summary line and report sha256
recorded for the same command in perfbench/reference.json. A campaign with
no reference fails. An instance of a campaign that fails any check counts as
failed.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics, each the median over the run. Their times are in reference
seconds: every untraced process times a fixed reference loop all through
its run (perfbench/campaign.py --probe), and its times are scaled by the
loop's mean speed, so that they read as on a host that runs the loop in
REFERENCE_S. This takes out the slowdown that other tenants of a shared host
cause, which comes and goes within milliseconds and would otherwise dominate
(see perfbench/README.md, "Machine drift"). With --trace 1 each untraced
campaign is followed by the same campaign traced, the two reports must be
identical, and the metrics are the per-layer spans and counters of the
traced one, not scaled.
--update-reference first runs, once, each campaign the workload can make
that has no reference yet, and records its summary and digest; existing
references are never changed.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
# Reports and child results, one subdirectory per run, removed at its end.
WORK_ROOT = ROOT / ".perfbench"
# Metric names and units; a per-layer name run.py does not compute is a
# KeyError, so the two cannot drift apart.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Sampler seeds of the campaigns of a sampled workload. A run takes them in
# an order shuffled by its --seed, wrapping round if it needs more, so every
# campaign of every run has a reference.
SAMPLER_SEEDS = range(1, 65)


@dataclass(frozen=True)
class Workload:
    m: int
    n: int
    instances: int  # per campaign; for a sampled workload, the sample count
    sampled: bool = False
    ops: str = ""
    # Report buffer size: the campaign can time the reference loop on every
    # flush, so a flush should come every few milliseconds.
    probe_bytes: int = 4096
    # Fresh interpreters timed for set-up alone before each campaign, so
    # that set-up is timed all through the run.
    extra_setups: int = 1

    def verify_args(self, campaign_seed):
        args = ["verify", "--m", str(self.m), "--n", str(self.n)]
        if self.sampled:
            args += ["--samples", str(self.instances),
                     "--seed", str(campaign_seed)]
        else:
            args.append("--exhaustive")
        if self.ops:
            args += ["--ops", self.ops]
        return args


# Why each workload exists is in perfbench/README.md. exhaustive-2x3 is for
# perfbench/selfcheck.py; BENCHMARK.json does not list it.
WORKLOADS = {
    "exhaustive-3x4-xor": Workload(3, 4, 653_184, ops="xor,xnor",
                                   extra_setups=8),
    "sampled-5x5": Workload(5, 5, 1000, sampled=True, probe_bytes=512),
    "exhaustive-2x3": Workload(2, 3, 6480),
}

# Report rows per campaign re-judged by the independent minimizer.
SPOT_ROWS = 20
CHILD_TIMEOUT_S = 150

REPORT_HEADER = ("m\tn\tb1\tb2\tconjugate\tconnected\tF\tFp\top\tpredicted"
                 "\toracle\tstatus")
SUMMARY_RE = re.compile(
    r"summary: total=(\d+) pass=(\d+) exception-expected=(\d+) fail=(\d+)"
    r" conjugate=(\d+)$")
OP_TABLES = {
    "and": 0b0001, "diff": 0b0010, "rdiff": 0b0100, "xor": 0b0110,
    "or": 0b0111, "nor": 0b1000, "xnor": 0b1001, "rimpl": 0b1011,
    "impl": 0b1101, "nand": 0b1110,
}


# ---------------------------------------------------------------------------
# Independent re-judging of report rows.

def _parse_perm(text, degree):
    image = list(range(degree))
    if text != "id":
        for cycle in re.findall(r"\(([^)]*)\)", text):
            points = [int(p) for p in cycle.split(",")]
            for a, b in zip(points, points[1:] + points[:1]):
                image[a] = b
    return image


def minimal_state_count(b1, b2, m, n, finals_left, finals_right, table):
    """States of the minimal DFA of the combined language, and how many
    product states are reachable from (0, 0)."""
    s1, t1 = (_parse_perm(p, m) for p in b1.split(";"))
    s2, t2 = (_parse_perm(p, n) for p in b2.split(";"))
    letters = ((s1, s2), (t1, t2))
    order = [(0, 0)]
    seen = {(0, 0)}
    for i, j in order:
        for left, right in letters:
            q = (left[i], right[j])
            if q not in seen:
                seen.add(q)
                order.append(q)
    block = {(i, j): table >> (3 - 2 * (i in finals_left)
                               - (j in finals_right)) & 1
             for i, j in order}
    count = len(set(block.values()))
    while True:
        ids = {}
        block = {
            (i, j): ids.setdefault(
                (block[(i, j)],) + tuple(block[(left[i], right[j])]
                                         for left, right in letters),
                len(ids))
            for i, j in order}
        if len(ids) == count:
            return count, len(order)
        count = len(ids)


def spot_check(line):
    """Problem with one report row, or None."""
    (m, n, b1, b2, _conjugate, connected, f_text, fp_text, op, predicted,
     oracle, _status) = line.split("\t")
    m, n = int(m), int(n)
    table = OP_TABLES[op] if op in OP_TABLES else int(op, 2)
    finals_left = {int(q) for q in f_text.split(",")}
    finals_right = {int(q) for q in fp_text.split(",")}
    count, reachable = minimal_state_count(
        b1, b2, m, n, finals_left, finals_right, table)
    if (str(count), connected, predicted) != (
            oracle, "true" if reachable == m * n else "false",
            "true" if count == m * n else "false"):
        return (f"row re-judged as complexity {count},"
                f" {reachable} reachable: {line}")
    return None


# ---------------------------------------------------------------------------
# Campaigns.

@dataclass
class Campaign:
    key: str
    instances: int
    wall_s: float
    data: dict
    sha256: str = ""
    summary: str = ""
    problems: list = field(default_factory=list)


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def _run_child(workdir, name, own_args, verify_args):
    """Run campaign.py once; returns wall seconds, process, parsed result."""
    result_path = workdir / f"{name}.json"
    if result_path.exists():
        result_path.unlink()
    argv = [sys.executable, str(HERE / "campaign.py"), str(result_path),
            *own_args, "--", *verify_args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, {}
    wall = time.perf_counter() - start
    data = {}
    if result_path.exists():
        with open(result_path, encoding="utf-8") as fh:
            data = json.load(fh)
    return wall, proc, data


def _bases_args(workload):
    return [] if workload.sampled else [
        "--bases", f"{workload.m},{workload.n}"]


def measure_setup(workdir, workload):
    """Set-up seconds of one fresh interpreter, scaled by its probe."""
    wall, proc, data = _run_child(workdir, "setup", [
        *_bases_args(workload), "--probe", str(workload.probe_bytes),
        "--setup-only"], [])
    if proc is None or proc.returncode != 0 or "setup_s" not in data:
        raise RuntimeError("set-up failed: "
                           + (proc.stderr if proc is not None else "timeout"))
    return data["setup_s"] * data["reference_speed"]


def check_report(camp, workload, report, rng):
    """Append to camp.problems everything wrong with one campaign."""
    data = camp.data
    if data.get("exit_code") != 0:
        camp.problems.append(f"exit code {data.get('exit_code')}")
    match = SUMMARY_RE.match(camp.summary)
    if match is None:
        camp.problems.append("no summary line")
        return
    total, n_pass, n_exc, n_fail, _ = (int(g) for g in match.groups())
    if total != workload.instances or n_fail != 0:
        camp.problems.append(f"summary {camp.summary!r}")
    if not report.exists():
        camp.problems.append("no report file")
        return
    picked = set(rng.sample(range(total), min(SPOT_ROWS, total)))
    digest = hashlib.sha256()
    statuses = {}
    rows = 0
    with open(report, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        if header != (REPORT_HEADER + "\n").encode():
            camp.problems.append("unexpected report header")
        for raw in fh:
            digest.update(raw)
            line = raw.decode("ascii", "replace").rstrip("\n")
            status = line.rsplit("\t", 1)[-1]
            statuses[status] = statuses.get(status, 0) + 1
            if rows in picked:
                try:
                    problem = spot_check(line)
                except (ValueError, KeyError, IndexError):
                    problem = f"unreadable row: {line}"
                if problem is not None:
                    camp.problems.append(problem)
            rows += 1
    camp.sha256 = digest.hexdigest()
    expected = {"PASS": n_pass, "EXCEPTION-EXPECTED": n_exc, "FAIL": n_fail}
    if rows != total or statuses != {k: v for k, v in expected.items() if v}:
        camp.problems.append(f"report rows {statuses} disagree with summary")


def run_campaign(workdir, workload, campaign_seed, trace=False):
    verify = workload.verify_args(campaign_seed)
    key = " ".join(verify)
    name = "traced" if trace else "plain"
    report = workdir / f"{name}.tsv"
    if report.exists():
        report.unlink()
    own = [*_bases_args(workload),
           *(["--trace"] if trace else ["--probe", str(workload.probe_bytes)])]
    wall, proc, data = _run_child(
        workdir, name, own, [*verify, "--out", str(report)])
    camp = Campaign(key, workload.instances, wall, data)
    if proc is None:
        camp.problems.append("timed out")
        return camp
    lines = [ln for ln in proc.stderr.splitlines()
             if ln.startswith("summary:")]
    camp.summary = lines[-1] if lines else ""
    if "campaign_s" not in data:
        camp.problems.append("no timings: " + proc.stderr.strip()[-500:])
        return camp
    check_report(camp, workload, report, random.Random(key))
    return camp


def check_reference(camp, references):
    ref = references.get(camp.key)
    if ref is None:
        camp.problems.append("no reference in reference.json")
    elif (ref["summary"], ref["sha256"]) != (camp.summary, camp.sha256):
        camp.problems.append(
            f"differs from reference: {camp.summary} sha256 {camp.sha256}")


def _describe(camp):
    status = ("FAILED: " + "; ".join(camp.problems)) if camp.problems \
        else "ok"
    rate = camp.instances / camp.data["campaign_s"] \
        if "campaign_s" in camp.data else 0.0
    return (f"{camp.key}: wall {camp.wall_s:.3f} s, {rate:.0f} instances/s,"
            f" sha256 {camp.sha256[:16]} {status}")


# ---------------------------------------------------------------------------
# Metrics.

def end_to_end_metrics(campaigns, setups):
    """Medians over the run; times scaled by each process's probe."""
    timed = [c for c in campaigns if "campaign_s" in c.data]
    return {
        "wall_s": statistics.median(
            (c.wall_s - c.data["reference_spent_s"])
            * c.data["reference_speed"] for c in timed),
        "setup_s": statistics.median(setups),
        "instances_per_s": statistics.median(
            c.instances / (c.data["campaign_s"] * c.data["reference_speed"])
            for c in timed),
        "peak_rss_mib": statistics.median(
            c.data["maxrss_kib"] / 1024 for c in timed),
    }


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer_metrics(traced, plain):
    """Per-layer metrics of one traced campaign and its untraced twin."""
    spans = traced.data["spans"]

    def span(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0})

    out = {}
    for name in ("perm.generation_test", "perm.bases_conjugate",
                 "product.direct_product", "product.pair_graph",
                 "product.has_distinguishing_pair",
                 "automaton.moore_complexity",
                 "automaton.distinguishability_complexity",
                 "harness.tsv_row"):
        out[name + ".calls"] = span(name)["calls"]
    for name in ("perm.generation_test", "perm.bases_conjugate",
                 "product.direct_product", "product.pair_graph",
                 "product.has_distinguishing_pair", "automaton.from_basis",
                 "automaton.reachable_states", "automaton.moore_complexity",
                 "automaton.distinguishability_complexity",
                 "harness.enumerate_bases", "harness.tsv_row",
                 "harness.write"):
        out[name + ".s"] = span(name)["self_s"]
    gen = span("perm.generation_test")
    out["perm.generation_test.accept_ratio"] = _ratio(
        gen.get("first_accepts", 0), gen.get("first_tests", 0))
    out["perm.generation_test.repeat_ratio"] = _ratio(
        gen.get("repeats", 0), gen["calls"])
    conj = span("perm.bases_conjugate")
    out["perm.bases_conjugate.hit_ratio"] = _ratio(
        conj.get("hits", 0), conj["calls"])
    out["product.pair_graph.vertices"] = span("product.pair_graph").get(
        "vertices", 0)
    moore = span("automaton.moore_complexity")
    out["automaton.moore_complexity.distinct_ratio"] = _ratio(
        moore.get("distinct_masks", 0), moore["calls"])
    out["harness.write.bytes"] = span("harness.write").get("bytes", 0)
    out["harness.self_s"] = traced.data["root_self_s"]
    out["cli.import_s"] = traced.data["import_s"]
    out["trace.overhead_ratio"] = (traced.data["campaign_s"]
                                   / plain.data["campaign_s"])
    return {name: out[name] for name in PER_LAYER_UNITS}


def campaign_seeds(workload, seed):
    """Sampler seeds of a run's campaigns, in order (cycled as needed)."""
    if not workload.sampled:
        return [None]
    return random.Random(seed).sample(SAMPLER_SEEDS, len(SAMPLER_SEEDS))


@contextmanager
def work_directory():
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name, seed, seconds, trace, references, log=sys.stderr):
    """Campaigns of one workload for `seconds`: (result object, campaigns)."""
    workload = WORKLOADS[name]
    seeds = campaign_seeds(workload, seed)
    with work_directory() as workdir:
        measure_setup(workdir, workload)  # compiles bytecode; not counted
        setups = []
        campaigns, layers = [], []
        # Start another campaign only if one more like the last still ends
        # before the deadline, so a run never lasts much more than `seconds`.
        deadline = time.perf_counter() + seconds
        rep, last = 0, 0.0
        while rep == 0 or time.perf_counter() + last < deadline:
            begun = time.perf_counter()
            campaign_seed = seeds[rep % len(seeds)]
            if not trace:
                setups += [measure_setup(workdir, workload)
                           for _ in range(workload.extra_setups)]
            plain = run_campaign(workdir, workload, campaign_seed)
            check_reference(plain, references)
            print(_describe(plain), file=log)
            campaigns.append(plain)
            if trace:
                traced = run_campaign(workdir, workload, campaign_seed,
                                      trace=True)
                check_reference(traced, references)
                if not traced.problems and traced.sha256 != plain.sha256:
                    traced.problems.append("traced report differs")
                print(_describe(traced), file=log)
                campaigns.append(traced)
                if not (plain.problems or traced.problems):
                    layers.append(per_layer_metrics(traced, plain))
            rep += 1
            last = time.perf_counter() - begun

    failed = sum(c.instances for c in campaigns if c.problems)
    attempted = sum(c.instances for c in campaigns)
    if trace:
        if not layers:
            raise RuntimeError("no traced campaign succeeded")
        values = {k: statistics.median(layer[k] for layer in layers)
                  for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        values = end_to_end_metrics(campaigns, setups)
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }, campaigns


def load_references():
    if REFERENCE_FILE.exists():
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def add_references(name, references, log=sys.stderr):
    """Run each campaign of the workload that has no reference and record
    it; returns how many were added."""
    workload = WORKLOADS[name]
    added = 0
    with work_directory() as workdir:
        for campaign_seed in campaign_seeds(workload, 0):
            if " ".join(workload.verify_args(campaign_seed)) in references:
                continue
            camp = run_campaign(workdir, workload, campaign_seed)
            print(_describe(camp), file=log)
            if camp.problems:
                raise RuntimeError(f"not recorded: {camp.key}")
            references[camp.key] = {"summary": camp.summary,
                                    "sha256": camp.sha256}
            added += 1
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(references.items())), fh, indent=1)
        fh.write("\n")
    return added


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "permdfa" / "cli.py").is_file():
        print(f"error: no permdfa sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    references = load_references()
    if args.update_reference:
        added = add_references(args.workload, references)
        print(f"added {added} references", file=sys.stderr)
    result, _ = run_workload(args.workload, args.seed, args.seconds,
                             bool(args.trace), references)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
