"""Tests of the benchmark itself: exact counts, determinism, and its contract file.

    python3 -m pytest -q bench/test_bench.py

Each workload is traced twice at seed 1 (about two minutes in all on a
2-core machine).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import harness
import run
import tracing
import workloads

SEED = 1
RUN_WORKLOADS = ("float-corrector", "premise-heavy", "exact-rational")


def traced_pass(workload: str, seed: int, tmp: Path):
    cli = run.load_cli()
    ops = workloads.make_ops(workload, seed, harness.ROOT / "configs")
    runner = run.Runner(cli, ops, harness.prepare(ops, tmp), tmp, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = runner.one_pass(0, tracer)
    finally:
        tracer.restore()
    assert all(r.ok for r in runner.results), [r.failures for r in runner.results]
    assert tracer.unwrapped == []
    return ops, tracer.records, results


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced passes per workload, keyed by workload."""
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = [
                traced_pass(workload, SEED, tmp_path_factory.mktemp(f"{workload}-{i}")) for i in (0, 1)
            ]
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", RUN_WORKLOADS)
def test_scale_table_makes_two_map_calls_per_scale(traced, workload):
    ops, records, _ = traced(workload)[0]
    for op, rec in zip(ops, records):
        n_max = op.doc["stability"]["n_max"]
        tables = [s for s in rec.spans if s.name == "corrector.scale_table"]
        assert len(tables) == op.doc["stability"]["sample_count"]
        assert {s.calls[tracing.MAP_EVAL] for s in tables} == {2 * (n_max + 2)}


def test_limit_map_calls_on_float_corrector(traced):
    ops, records, _ = traced("float-corrector")[0]
    expected = 0
    for op, rec in zip(ops, records):
        st = op.doc["stability"]
        per_op = st["sample_count"] * 2 * (st["n_max"] + 2)
        assert tracing.layer_metrics([rec])["corrector.limit.map_calls"] == per_op
        expected += per_op
    assert tracing.layer_metrics(records)["corrector.limit.map_calls"] == expected


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_traced_runs(traced, workload):
    (_, rec_a, res_a), (_, rec_b, res_b) = traced(workload)
    a, b = tracing.layer_metrics(rec_a), tracing.layer_metrics(rec_b)
    exact = [k for k in a if k.endswith("_calls")] + ["maps.repeat_share"]
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    assert [r.artifact_bytes for r in res_a] == [r.artifact_bytes for r in res_b]
    spans = lambda recs: [(s.name, s.parent, s.calls) for r in recs for s in r.spans]
    assert spans(rec_a) == spans(rec_b)


def test_spans_nest_within_their_parents(traced):
    _, records, _ = traced("exact-rational")[0]
    for rec in records:
        for s in rec.spans[1:]:
            parent = rec.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert s.self_s >= 0


def test_restore_puts_originals_back():
    run.load_cli()
    import orthostab.corrector
    import orthostab.gauges
    import orthostab.stability

    before = (
        orthostab.corrector.scale_table,
        orthostab.stability.build_map,
        orthostab.gauges.Gauge.__dict__["evaluate"],
    )
    tracer = tracing.Tracer()
    tracer.install()
    assert orthostab.corrector.scale_table is not before[0]
    tracer.restore()
    after = (
        orthostab.corrector.scale_table,
        orthostab.stability.build_map,
        orthostab.gauges.Gauge.__dict__["evaluate"],
    )
    assert after == before


def test_generator_follows_the_seed():
    config_dir = harness.ROOT / "configs"
    for workload in workloads.WORKLOADS:
        a = workloads.make_ops(workload, 3, config_dir)
        assert [op.doc for op in a] == [op.doc for op in workloads.make_ops(workload, 3, config_dir)]
        b = workloads.make_ops(workload, 4, config_dir)
        assert any(x.doc != y.doc for x, y in zip(a, b) if x.doc is not None)


def test_benchmark_json_names_every_metric():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_s_p50", "total_s", "peak_rss_mb"]
