"""The config schema: every field is documented, and no hostile value escapes.

The fuzz tests take a shipped config, shrink its counts so that a run takes
milliseconds, and replace one field, a section or a nested field, by a
hostile value. Whatever the value, the CLI must return an exit code in
{0, 1, 2, 3} without raising, and a value that the schema table makes a type
or range error must exit 1 with one `configuration error:` line. The fixed
hostile list is swept over every field of every config, because a sample of
its 3,000 cases misses faults that only a few of them show; hypothesis adds
arbitrary JSON values at random fields. (Property-based testing after
Claessen and Hughes, QuickCheck, ICFP 2000.)
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, REPO_ROOT
from orthostab import cli
from orthostab.config import FIELDS

SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}
HOSTILE = ("abc", None, True, -1, 0, 1.5, math.nan, math.inf, -math.inf, 1e12, [], {}, "false")


def _shrunk(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    if "stability" in doc:
        doc["stability"].update(sample_count=4, pair_count=4, conclusion_pairs=4, uniqueness_points=2)
    for key, small in (("samples", 16), ("quasi_trials", 64), ("count", 8)):
        if key in doc:
            doc[key] = small
    return doc


def _paths(doc: dict, prefix: str = ""):
    """Every dotted path in doc, sections and nested fields included."""
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, f"{prefix}{key}.")


CASES = [(name, path) for name, doc in SHIPPED.items() for path in _paths(doc)]


def _replace(doc: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


def _must_reject(row, value) -> bool:
    """True when the row makes value a type or range error, by the table alone."""
    if value is None:
        return row.default is not None
    if row.kind in ("section", "gauge"):
        return not isinstance(value, dict)
    if row.kind == "bool":
        return not isinstance(value, bool)
    if row.kind in ("enum", "enums", "matrix"):
        return True  # no hostile value is a choice, a list of choices or a matrix
    if isinstance(value, (bool, str, list, dict)) or not math.isfinite(value):
        return True
    if row.kind == "int" and not float(value).is_integer():
        return True
    lo_ok = row.lo is None or (value > row.lo if row.bounds[0] == "(" else value >= row.lo)
    hi_ok = row.hi is None or (value < row.hi if row.bounds[1] == ")" else value <= row.hi)
    return not (lo_ok and hi_ok)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    # The parser does not depend on the config; building it once per module
    # instead of once per call keeps the sweep's 3,000 calls within seconds.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
        yield tmp_path_factory.mktemp("fuzz")


def _run(work, name: str, path: str, value) -> tuple[int, str]:
    """(exit code, stderr) of the CLI on a shrunk shipped config with one field replaced.

    Asserts the contract every input must meet: no exception, an exit code
    in {0, 1, 2, 3}, and exit 1 with one message line.
    """
    doc = _shrunk(SHIPPED[name])
    _replace(doc, path, value)
    config = work / "config.json"
    config.write_text(json.dumps(doc))
    command = "run" if "stability" in doc else "check-axioms"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(config), "--out", str(work / "out")])
    message = err.getvalue()
    assert code in (0, 1, 2, 3), (path, value, code)
    if code == 1:
        assert message.startswith(("configuration error:", "input error:")), (path, value, message)
        assert message.count("\n") == 1, (path, value, message)
    return code, message


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_every_hostile_value_in_every_field(work, name):
    for path in _paths(SHIPPED[name]):
        for value in HOSTILE + ((512,) if path.endswith("n_max") else ()):
            code, message = _run(work, name, path, value)
            if _must_reject(FIELDS[path], value):
                assert code == 1 and message.startswith("configuration error:"), (path, value, message)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=4,
)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=st.sampled_from(CASES), value=JSON_VALUES)
def test_any_json_value_in_any_field_exits_cleanly(work, case, value):
    _run(work, *case, value)


def test_readme_table_lists_every_field():
    readme = (REPO_ROOT / "README.md").read_text()
    documented = set(re.findall(r"^\| `([^`]+)` \|", readme, re.MULTILINE))
    assert documented == set(FIELDS)
