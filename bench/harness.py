"""Running and checking benchmark ops through ``orthostab.cli.main``.

Every op runs in this process, one after another: a closed loop with one
client. ``execute`` times one ``cli.main([...])`` call, from reading the
config to the exit code and the written artifacts, and then checks its
output; checking is not timed.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median

import numpy

from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(__file__).resolve().parent / ".work"

# Certified values of the stability constants at beta = 1, and the widest
# enclosure the default `constants` grid may give for them.
K_EXACT = {"k_additive": Fraction(31, 4), "k_quadratic": Fraction(9, 8)}
MAX_WIDTH = 1e-9

# The reference kernel (see reference_seconds) runs this many times right
# before and right after each timed op or set-up sample, which is then
# scaled by the median of those times.
REFERENCE_SAMPLES = 3
# Seconds the reference kernel takes at the speed that scaled times are given
# in: about its median on a shared 2-core 2.1 GHz Xeon virtual machine.
REFERENCE_S = 0.020


@dataclass
class OpResult:
    label: str
    seconds: float
    cpu_s: float
    exit_code: int | None
    failures: list = field(default_factory=list)
    artifact_bytes: int = 0
    ref_samples: list = field(default_factory=list)  # reference kernel seconds around the op

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def scaled_s(self) -> float:
        return scaled(self.seconds, self.ref_samples)


def prepare(ops: list[Op], run_dir: Path) -> dict[str, Path]:
    """Write each op's generated config; return the config path per label."""
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        if op.doc is not None:
            path = inputs / f"{op.label}.json"
            path.write_text(json.dumps(op.doc, indent=2) + "\n")
            paths[op.label] = path
    return paths


def execute(
    cli, op: Op, config: Path | None, out_dir: Path, before=None, after=None, reference=False
) -> OpResult:
    """Run op once through cli.main and check what it returned and wrote.

    With `reference`, the reference kernel is timed right before and right
    after the op (see reference_seconds), outside the op's time.
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    err = io.StringIO()
    code, failures = None, []
    refs = reference_samples() if reference else []
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(err):
        if before is not None:
            before()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(op.argv(config, out_dir))
        except Exception as e:  # an op that raises is a failed op, not a crashed run
            failures.append(f"raised {type(e).__name__}: {e}")
        seconds, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        if after is not None:
            after()
    refs += reference_samples() if reference else []
    result = OpResult(op.label, seconds, cpu_s, code, failures, ref_samples=refs)
    if code is not None:
        result.failures += check(op, code, out_dir, err.getvalue())
    if out_dir.exists():
        result.artifact_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    return result


def check(op: Op, code: int, out_dir: Path, stderr: str) -> list[str]:
    """Failures of one op's output; empty when the op did what it should."""
    if code != op.expect_exit:
        return [f"exit {code}, expected {op.expect_exit}: {stderr.strip()[-300:]}"]
    try:
        if op.command == "run":
            return _check_run(op, out_dir)
        if op.command == "constants":
            return _check_constants(out_dir)
        json.loads((out_dir / "report.json").read_text())
        return []
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable artifacts: {type(e).__name__}: {e}"]


def _check_run(op: Op, out_dir: Path) -> list[str]:
    failures = []
    report = json.loads((out_dir / "report.json").read_text())
    if report["verdict"]["ok"] is not True:
        failures.append("report.json verdict.ok is not true")
    with open(out_dir / "samples.csv", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    expected = op.doc["stability"]["sample_count"]
    if rows != expected:
        failures.append(f"samples.csv has {rows} rows, expected {expected}")
    return failures


def _check_constants(out_dir: Path) -> list[str]:
    with open(out_dir / "constants.csv", newline="") as fh:
        rows = {(r["quantity"], float(r["parameter"])): r for r in csv.DictReader(fh)}
    failures = []
    for name, value in K_EXACT.items():
        row = rows.get((name, 1.0))
        if row is None:
            failures.append(f"constants.csv has no {name} row at beta = 1")
            continue
        lower, upper = Fraction(float(row["lower"])), Fraction(float(row["upper"]))
        if not lower <= value <= upper:
            failures.append(f"{name}(1) enclosure [{row['lower']}, {row['upper']}] misses {value}")
        if upper - lower > MAX_WIDTH:
            failures.append(f"{name}(1) enclosure is {float(upper - lower):.3g} wide")
    return failures


def same_artifacts(a: Path, b: Path) -> list[str]:
    """Failures if two artifact directories differ in any file or byte."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()) if a.exists() else []
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()) if b.exists() else []
    if files_a != files_b:
        return [f"rerun wrote {[str(p) for p in files_b]}, first run {[str(p) for p in files_a]}"]
    return [
        f"rerun changed {rel}"
        for rel in files_a
        if (a / rel).read_bytes() != (b / rel).read_bytes()
    ]


def _reference_kernel() -> None:
    """Fixed work of the kinds orthostab's ops spend their time on: interpreted
    loops, Fraction arithmetic, blake2b and small numpy arrays. It calls no
    orthostab code, so only the machine's speed changes its time."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    digest = b"reference"
    for _ in range(3000):
        digest = hashlib.blake2b(digest, digest_size=16).digest()
    a = numpy.arange(64, dtype=float)
    total = 0.0
    for _ in range(1500):
        total += float(numpy.dot(a, a * 0.5))
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 977] = counts.get(i % 977, 0) + i


def reference_seconds() -> float:
    """Seconds of one run of the reference kernel.

    The speed of a shared machine changes by up to a half, from one second
    to the next and over minutes, and the same op's time changes with it.
    The reference kernel, timed right next to an op, slows down with it, so
    an op's time over the reference time measures the op, not the machine.
    The garbage collector is off while the kernel runs, so that the heap an
    op leaves behind does not change its time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def reference_samples() -> list[float]:
    return [reference_seconds() for _ in range(REFERENCE_SAMPLES)]


def scaled(seconds: float, refs: list[float]) -> float:
    """Wall seconds at the reference speed: seconds * REFERENCE_S / the median
    of the reference times taken right before and right after them."""
    return seconds * REFERENCE_S / median(refs)


def fresh_import_seconds() -> float:
    """Seconds from starting a fresh interpreter to `import orthostab.cli` being done.

    The child prints its CLOCK_MONOTONIC reading once the import returns;
    that clock is shared by every process on the machine.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import orthostab.cli, time; print(repr(time.monotonic()))"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter could not import orthostab.cli: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def environment() -> dict:
    """Where a result was measured: versions, cores and the code it measured."""
    git_sha = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        top, sha = (git.stdout.split() + ["", ""])[:2]
        if git.returncode == 0 and Path(top).resolve() == ROOT:  # not some enclosing repository
            git_sha = sha
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }
