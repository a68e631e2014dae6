"""Every function the benchmark's tracer wraps still exists under its name.

bench/tracing.py replaces package functions by name at run time, and a name
it cannot find only shows up later as a per-layer metric that reads 0. This
test reads its target tables as literals, without running bench code, and
resolves each (module, attribute) in the package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tables(names) -> dict:
    """The tuples assigned to names at the top level of bench/tracing.py."""
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names:
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


_T = _tables({"SPAN_TARGETS", "LEAF_TARGETS", "MAP_FACTORY"})
TARGETS = [t[:2] for t in _T["SPAN_TARGETS"] + _T["LEAF_TARGETS"]] + [_T["MAP_FACTORY"]]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{module}.{attr} is missing"
    assert callable(owner)
