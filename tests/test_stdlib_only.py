"""The runtime imports nothing but the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "permdfa"


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


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
