#!/usr/bin/env python3
"""Per-op wall times of the shipped run configs, at their shipped seeds.

    python3 bench/templates.py [--out bench/results/templates.json]

Each config in configs/ that `orthostab run` accepts runs unchanged through
orthostab.cli.main, three times in turn, after one small warm-up op;
every run is checked as in the benchmark. Prints the median per config and
writes them, with the environment, as JSON. These are the numbers to hold
against ROADMAP's baseline table.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from statistics import median

import harness
import run
import workloads
from harness import ROOT, WORK_DIR

REPEATS = 3


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=str(WORK_DIR / "results" / "templates.json"))
    args = p.parse_args()
    cli = run.load_cli()
    ops = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        doc = json.loads(path.read_text())
        if "stability" in doc:
            ops.append(workloads.Op(label=path.stem, command="run", doc=doc))
    run_dir = WORK_DIR / "runs" / "templates"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    paths = {op.label: ROOT / "configs" / f"{op.label}.json" for op in ops}
    runner = run.Runner(cli, ops, paths, run_dir, seed=0)
    warm = workloads.warmup_op(ops[0])
    runner.paths.update(harness.prepare([warm], run_dir))
    runner.run(warm, warm.label)
    times = {op.label: [] for op in ops}
    for _ in range(REPEATS):
        for op in ops:
            times[op.label].append(runner.run(op, op.label).seconds)
    shutil.rmtree(run_dir)
    failed = [f"{r.label}: {'; '.join(r.failures)}" for r in runner.results if not r.ok]
    result = {
        "environment": harness.environment(),
        "repeats": REPEATS,
        "median_s": {label: median(ts) for label, ts in times.items()},
        "runs_s": times,
        "failed": failed,
    }
    for label, seconds in result["median_s"].items():
        print(f"{label:<22} {seconds:8.3f} s  (median of {REPEATS})")
    for line in failed:
        print(f"FAILED {line}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"written to {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
