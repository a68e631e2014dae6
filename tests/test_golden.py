"""Golden SHA-256 digests of the artifacts and stdout of every shipped config.

Refactors and performance changes promise byte-identical artifacts; this test
holds them to it. Every `orthostab run` config under configs/ contributes the
digests of report.json, samples.csv, summary.txt and stdout, every
`check-axioms` config those of report.json, summary.txt and stdout, and
`orthostab constants` at its defaults that of its stdout. The line naming the
artifact directory is replaced by a fixed token before hashing.

A change that alters the bytes on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py --write

and lists each changed config, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from orthostab.cli import main

TABLE = Path(__file__).resolve().with_name("golden_digests.json")
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
ARTIFACT_LINE = re.compile(r"^artifacts written to .*$", re.MULTILINE)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main_digests(argv, out: Path | None, artifacts) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + (["--out", str(out)] if out is not None else []))
    text = ARTIFACT_LINE.sub("artifacts written to <out>", stdout.getvalue())
    digests = {"exit": code, "stdout": _sha(text.encode())}
    for name in artifacts:
        digests[name] = _sha((out / name).read_bytes())
    return digests


def current_digests(work: Path) -> dict:
    """Digests of every shipped config and of `orthostab constants`, keyed by name."""
    table = {}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        out = work / path.stem
        if "target" in json.loads(path.read_text()):
            argv, artifacts = ["check-axioms", "--config", str(path)], ("report.json", "summary.txt")
        else:
            argv = ["run", "--config", str(path)]
            artifacts = ("report.json", "samples.csv", "summary.txt")
        table[path.stem] = _main_digests(argv, out, artifacts)
    table["constants"] = _main_digests(["constants"], None, ())
    return table


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_shipped_configs_match_golden_digests(tmp_path):
    golden = json.loads(TABLE.read_text())
    table = current_digests(tmp_path)
    changed = sorted(
        name for name in golden["digests"].keys() | table.keys()
        if golden["digests"].get(name) != table.get(name)
    )
    assert not changed, (
        f"artifact digests changed for {changed}; the table was made with "
        f"{golden['versions']}, this run has {_versions()}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as work:
        doc = {"versions": _versions(), "digests": current_digests(Path(work))}
    TABLE.write_text(json.dumps(doc, indent=2) + "\n")
