#!/usr/bin/env python3
"""orthostab benchmark: time certified verdicts end to end, or per layer.

    python3 bench/run.py --workload float-corrector --seed 1 --seconds 18 --trace 0

Run from the root of a checkout. The seed fixes every generated input (see
workloads.py). The run measures one warm-up op, then passes over the
workload's ops: at least three, and more until the timed ops would take
longer than --seconds in all. After each pass one op runs a second time
and must write byte-identical artifacts; that rerun, the checks, the
reference kernel and the set-up samples are not timed and do not count
against --seconds.

--trace 0 reports the end-to-end metrics: setup_s, op_s_p50, total_s and
peak_rss_mb. The three times are wall times scaled to the reference speed:
each timed op and set-up sample is multiplied by harness.REFERENCE_S over
the median time of a fixed reference kernel run right before and right
after it, so that a shared machine's changes of speed cancel out. The
table also gives the unscaled wall times. total_s is the time of one pass:
each op's median over the passes, summed.

--trace 1 runs the same untraced passes, then one traced pass, and reports
the per-layer metrics (tracing.py) plus trace.overhead_s, the traced pass's
wall time minus the untraced one. Both print a table by name
with units, failed_frac included, and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}. A full record of the run,
with the environment it ran in, goes to bench/.work/results/.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path
from statistics import median

import harness
import tracing
import workloads
from harness import ROOT, WORK_DIR

# Fresh-interpreter starts per run: one after each timed op, so that the
# samples spread over the run, then more at the end until there are this many.
SETUP_SAMPLES = 12
# Untraced passes per run, at the least: total_s is their median.
MIN_PASSES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_cli():
    """Import orthostab.cli from this checkout's src/, or stop the run."""
    if not (ROOT / "src" / "orthostab" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(f"error: {ROOT} holds no orthostab checkout (src/orthostab/cli.py and configs/)")
    sys.path.insert(0, str(ROOT / "src"))
    from orthostab import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "orthostab":
        sys.exit(f"error: imported orthostab from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


class Runner:
    def __init__(self, cli, ops, paths, run_dir, seed):
        self.cli, self.ops, self.paths, self.run_dir, self.seed = cli, ops, paths, run_dir, seed
        self.results: list[harness.OpResult] = []  # every op run, checks included

    def run(self, op, out_name, before=None, after=None, reference=False):
        out = self.run_dir / "out" / out_name
        res = harness.execute(self.cli, op, self.paths.get(op.label), out, before, after, reference)
        self.results.append(res)
        return res

    def one_pass(self, number: int, tracer=None, between=None) -> list[harness.OpResult]:
        timed = []
        for i, op in enumerate(self.ops):
            if tracer:
                timed.append(self.run(op, op.label, lambda: tracer.begin_op(i, op.label), tracer.end_op))
            else:
                timed.append(self.run(op, op.label, reference=True))
            if between is not None:
                between()
        op = self.ops[(self.seed + number) % len(self.ops)]
        rerun = self.run(op, f"{op.label}.rerun")
        rerun.failures += harness.same_artifacts(
            self.run_dir / "out" / op.label, self.run_dir / "out" / f"{op.label}.rerun"
        )
        return timed

    def passes(self, seconds: float, between=None) -> list[list[harness.OpResult]]:
        """Untraced passes: MIN_PASSES, then more until the next one would take
        the timed ops past `seconds` in all."""
        done, measured = [], 0.0
        while True:
            done.append(self.one_pass(len(done), between=between))
            took = pass_total(done[-1])
            measured += took
            if len(done) >= MIN_PASSES and measured + took > seconds:
                return done


def pass_total(results) -> float:
    return sum(r.seconds for r in results)


def one_pass_time(passes, seconds=lambda r: r.seconds) -> float:
    """The time of one pass: each op's median over the passes, summed."""
    return sum(median(seconds(p[i]) for p in passes) for i in range(len(passes[0])))


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    ops = workloads.make_ops(args.workload, args.seed, ROOT / "configs")
    warm = workloads.warmup_op(ops[0])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK_DIR / "runs" / name
    if run_dir.exists():
        shutil.rmtree(run_dir)
    runner = Runner(cli, ops, harness.prepare(ops + [warm], run_dir), run_dir, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": harness.environment()}

    setup, setup_wall = [], []

    def sample_setup():
        if len(setup) < SETUP_SAMPLES:
            refs = harness.reference_samples()
            setup_wall.append(harness.fresh_import_seconds())
            setup.append(harness.scaled(setup_wall[-1], refs + harness.reference_samples()))

    if not args.trace:
        harness.fresh_import_seconds()  # untimed: compiles the bytecode
        sample_setup()
    runner.run(warm, warm.label)
    passes = runner.passes(args.seconds, None if args.trace else sample_setup)
    while not args.trace and len(setup) < SETUP_SAMPLES:
        sample_setup()
    base_total = one_pass_time(passes)
    rows = []  # (name, value, unit, note)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.one_pass(len(passes), tracer)
        finally:
            tracer.restore()
        metrics = tracing.layer_metrics(tracer.records)
        metrics["cli.artifact_bytes"] = sum(r.artifact_bytes for r in traced)
        metrics["trace.overhead_s"] = pass_total(traced) - base_total
        metrics["process.cpu_s"] = median([sum(r.cpu_s for r in p) for p in passes])
        for key, value in metrics.items():
            rows.append((key, value, tracing.PER_LAYER_UNITS[key], ""))
        record["unwrapped"] = tracer.unwrapped
        record["traced_ops"] = [
            {"label": rec.label, "seconds": res.seconds, **tracing.layer_metrics([rec])}
            for rec, res in zip(tracer.records, traced)
        ]
        spans_path = WORK_DIR / "results" / f"{name}.spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracing.spans_json(tracer.records)) + "\n")
        if tracer.unwrapped:
            print(f"not traced (missing from the package): {', '.join(tracer.unwrapped)}")
    else:
        op_times = [r.scaled_s for p in passes for r in p]
        metrics = {
            "setup_s": median(setup),
            "op_s_p50": median(op_times),
            "total_s": one_pass_time(passes, lambda r: r.scaled_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        ref_times = [t for p in passes for r in p for t in r.ref_samples]
        rows += [
            ("setup_s", metrics["setup_s"], "s",
             f"median of {len(setup)} fresh interpreters, at the reference speed"),
            ("op_s_p50", metrics["op_s_p50"], "s",
             f"median of {len(op_times)} ops, at the reference speed"),
            ("total_s", metrics["total_s"], "s",
             f"{len(ops)} ops, each the median of {len(passes)} passes, at the reference speed"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "max resident set of this process"),
            ("setup_wall_s", median(setup_wall), "s", "as measured"),
            ("op_wall_s_p50", median(r.seconds for p in passes for r in p), "s", "as measured"),
            ("total_wall_s", base_total, "s", "as measured"),
            ("reference_s", median(ref_times), "s",
             f"median of {len(ref_times)}; scaled times assume {harness.REFERENCE_S}"),
        ]

    failed = [r for r in runner.results if not r.ok]
    attempted = len(runner.results)
    rows.append(("failed_frac", len(failed) / attempted, "ratio", f"{len(failed)} of {attempted} ops"))
    record.update(
        metrics=metrics,
        setup_runs=setup,
        setup_wall_runs=setup_wall,
        passes=[[vars(r) for r in p] for p in passes],
        ops=[vars(r) for r in runner.results],
    )
    out = WORK_DIR / "results" / f"{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(run_dir)

    env = record["environment"]
    print(f"orthostab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"git {env['git_sha'] or 'n/a'}, src sha256 {env['src_sha256'][:12]}")
    for p_no, p in enumerate(passes):
        print(f"pass {p_no}: " + ", ".join(f"{r.label} {r.seconds:.3f} s" for r in p))
    for r in failed:
        print(f"FAILED {r.label}: {'; '.join(r.failures)}")
    for key, value, unit, note in rows:
        print(f"{key:<42} {value:>14.6g} {unit:<6} {note}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, v, u, _ in rows if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
