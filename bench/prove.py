#!/usr/bin/env python3
"""Check that the benchmark is steady: run each workload on several seeds.

    python3 bench/prove.py [--out FILE]

Runs every workload of BENCHMARK.json on seeds 1 to 10. For every
end-to-end metric this prints the median over the runs and the spread, the
distance between the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) as a share of the median. A
spread at or above a third of the metric's bound in BENCHMARK.json is
flagged, and the script then exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None, help="write the summary as JSON here")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary, steady = {}, True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: correct {runs[-1]['correct']}, "
                  f"wall {runs[-1]['wall_s']:.1f} s", file=sys.stderr, flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med, sp = spread(values)
            flagged = sp >= metric["bound"] / 3
            steady &= not flagged and all(r["correct"] for r in runs)
            rows[metric["name"]] = {"median": med, "spread": sp, "bound": metric["bound"],
                                    "values": values}
            print(f"{workload:<16} {metric['name']:<12} median {med:10.5g} {metric['unit']:<3} "
                  f"spread {sp:6.3f}  bound {metric['bound']:.2f}{'  TOO WIDE' if flagged else ''}")
        summary[workload] = {
            "seeds": SEEDS,
            "correct": all(r["correct"] for r in runs),
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": rows,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
