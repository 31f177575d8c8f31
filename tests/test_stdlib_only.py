"""The runtime imports nothing but the standard library and itself, every
public name is load-bearing, and every function the benchmark traces
exists."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import permdfa

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "permdfa"

# Public names that no other runtime module uses, each kept for one reason.
OUTSIDE_USE = {
    "accepts": "the language semantics that tests compare products against",
    "distinguishability_complexity": "the independent table-filling oracle"
    " that minimize is tested against, and a span perfbench traces",
    "equivalence_classes": "the Nerode classes, which the property tests check",
    "evaluate_instance": "the unreduced reference, one instance on a fresh"
    " pair judge, that the orbit-reduction tests and criterion 05 compare"
    " campaigns against",
    "generates_symmetric": "the generation test on Perms, checked against sympy",
    "sample_instances": "verify_theorem1 behind a check that the config is"
    " in sample mode, which the acceptance tests call",
    "verify_theorem2": "the connectivity sweep the acceptance tests run",
}


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def referenced_names(tree):
    """Names loaded or read as attributes anywhere in the module, except
    inside the top-level definition that binds the same name."""
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                yield name


def test_runtime_is_stdlib_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    allowed = set(sys.stdlib_module_names) | {"permdfa"}
    bad = [
        f"{path.name}: {root}"
        for path in files
        for root in imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in allowed
    ]
    assert not bad, bad


def modules_after_import(then=""):
    """The modules a fresh interpreter holds after importing the CLI and
    running the code `then`, plus what that code prints. -S keeps
    site-packages hooks, which may import threading or inspect themselves,
    out of the picture."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import permdfa, permdfa.cli\n"
        + then +
        "print(' '.join(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout.split()
    assert "permdfa.harness" in out
    return out


# Campaigns fork with os alone and spool to a memfd; these modules would add
# to every start-up and to peak memory.
WORKER_MODULES = ("multiprocessing", "concurrent", "pickle", "subprocess",
                  "threading", "tempfile", "shutil")


def test_import_loads_no_worker_modules():
    assert [m for m in modules_after_import()
            if m.split(".")[0] in WORKER_MODULES] == []


def test_split_campaign_loads_no_worker_modules():
    # 64 samples at 5x5 cut into two ranges, the second judged by a forked
    # child
    out = modules_after_import(
        "import os\n"
        "from permdfa import harness\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(fork()) or forks[-1]\n"
        "config = harness.CampaignConfig(5, 5, mode='sample', sample_count=64,\n"
        "                                seed=1)\n"
        "with open(os.devnull, 'w') as out:\n"
        "    result = harness.verify_theorem1(config, out=out)\n"
        "print(f'forks={len(forks)} total={result.total}')\n")
    assert "forks=1" in out and "total=64" in out
    assert [m for m in out if m.split(".")[0] in WORKER_MODULES] == []


def test_import_loads_no_class_generation_modules():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # a third of the set-up of every verify process.
    unused = ("dataclasses", "inspect", "ast", "dis", "tokenize", "__future__")
    assert [m for m in modules_after_import()
            if m.split(".")[0] in unused] == []


def test_public_names_are_load_bearing():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            used.update(referenced_names(ast.parse(path.read_text(), str(path))))
    unused = sorted(set(permdfa.__all__) - used - set(OUTSIDE_USE))
    assert not unused, unused
    # the list names only public names that still need it
    assert set(OUTSIDE_USE) <= set(permdfa.__all__) - used


def test_benchmark_trace_targets_exist(monkeypatch):
    # perfbench/campaign.py reports a traced name it cannot find as zero, so
    # a renamed function would silently empty its per-layer metric.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_campaign", ROOT / "perfbench" / "campaign.py")
    campaign = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(campaign)
    assert campaign.TRACED
    missing = [name for name, (module, attr) in campaign.TRACED.items()
               if not callable(getattr(getattr(permdfa, module, None), attr, None))]
    assert not missing, missing
