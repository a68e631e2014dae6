"""Per-layer tracing of orthostab, installed at runtime from outside the package.

``Tracer.install`` replaces each traced function on the name its caller
resolves (``orthostab.stability.corrector_limit``, ``orthostab.corrector.
scale_table``, the ``Gauge.evaluate`` method, ...) with a timing wrapper, and
``Tracer.restore`` puts the originals back. Nothing under ``src/`` changes.

Two kinds of wrapper:

* A span records its name, start, end, parent span and op id, the time its
  direct children took (so self time = duration - child time), and how many
  map, noise and gauge evaluations ran inside it.
* A leaf (map evaluation, ``scaled_noise``, ``Gauge.evaluate``) runs a few
  hundred thousand times per op, so it keeps no record of its own: it adds one
  to its call count, its duration to its busy time, and its duration to the
  child time of the enclosing span. Leaves nest (noise runs inside a map
  evaluation), and only the outermost one counts as the span's child.

A call made while a wrapper of the same name is already open (``k_additive_quasi``
calling ``k_additive``, a ``p-power-of`` gauge evaluating its base) passes
straight through, so busy times and call counts count outermost calls only.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name). Several functions may share one span name.
SPAN_TARGETS = (
    ("orthostab.cli", "_load_json", "cli.config_load"),
    ("orthostab.cli", "load_stability_config", "cli.config_load"),
    ("orthostab.cli", "write_run_artifacts", "cli.artifacts"),
    ("orthostab.cli", "run_stability", "stability.runner"),
    ("orthostab.cli", "check_fnorm_axioms", "gauges.audit"),
    ("orthostab.cli", "check_beta_homogeneity", "gauges.audit"),
    ("orthostab.cli", "estimate_quasi_constant", "gauges.audit"),
    ("orthostab.cli", "check_relation_axioms", "orthogonality.audit"),
    ("orthostab.cli", "gap_series", "corrector.gap_series"),
    ("orthostab.cli", "k_additive", "stability.constants"),
    ("orthostab.cli", "k_quadratic", "stability.constants"),
    ("orthostab.cli", "k_additive_quasi", "stability.constants"),
    ("orthostab.cli", "k_quadratic_quasi", "stability.constants"),
    ("orthostab.stability", "sample_orthogonal_pairs", "orthogonality.sample_pairs"),
    ("orthostab.stability", "derive_defect_bound_additive", "stability.derivation"),
    ("orthostab.stability", "derive_defect_bound_quadratic", "stability.derivation"),
    ("orthostab.stability", "corrector_limit", "corrector.limit"),
    ("orthostab.stability", "verify_conclusion", "stability.conclusion"),
    ("orthostab.stability", "uniqueness_probe", "stability.uniqueness"),
    ("orthostab.stability", "gap_series", "corrector.gap_series"),
    ("orthostab.stability", "k_additive", "stability.constants"),
    ("orthostab.stability", "k_quadratic", "stability.constants"),
    ("orthostab.stability", "k_additive_quasi", "stability.constants"),
    ("orthostab.stability", "k_quadratic_quasi", "stability.constants"),
    ("orthostab.corrector", "scale_table", "corrector.scale_table"),
)
LEAF_TARGETS = (
    ("orthostab.maps", "scaled_noise", "maps.noise"),
    ("orthostab.gauges", "Gauge.evaluate", "gauges.evaluate"),
)
# The map a run evaluates is wrapped where run_stability builds it.
MAP_FACTORY = ("orthostab.stability", "build_map")
MAP_EVAL = "maps.eval"
LEAVES = (MAP_EVAL, "maps.noise", "gauges.evaluate")


@dataclasses.dataclass
class Span:
    name: str
    op: int
    index: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # net time of direct children, spans and leaves
    overhead_s: float = 0.0  # tracer bookkeeping inside [start, end]
    calls_at_start: tuple = ()
    calls: dict = dataclasses.field(default_factory=dict)  # leaf calls made inside

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.overhead_s

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


@dataclasses.dataclass
class OpRecord:
    """What the tracer saw during one op."""

    op: int
    label: str
    calls: Counter = dataclasses.field(default_factory=Counter)
    busy: Counter = dataclasses.field(default_factory=Counter)
    repeats: int = 0
    spans: list = dataclasses.field(default_factory=list)


def _point_key(x):
    if isinstance(x, tuple):
        return x
    return (np.asarray(x, dtype=np.float64) + 0.0).tobytes()  # -0.0 and 0.0 are one point


class Tracer:
    def __init__(self):
        self.records: list[OpRecord] = []
        self.unwrapped: list[str] = []  # targets missing from the package
        self._stack: list[Span] = []
        self._active: set[str] = set()
        self._leaf_depth = 0
        self._seen: set = set()
        self._overhead = 0.0
        self._restore: list = []
        self._rec: OpRecord | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPAN_TARGETS:
            self._replace(module, attr, lambda fn, n=name: self._span_wrapper(fn, n))
        for module, attr, name in LEAF_TARGETS:
            self._replace(module, attr, lambda fn, n=name: self._leaf_wrapper(fn, n))
        self._replace(*MAP_FACTORY, self._map_factory_wrapper)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _replace(self, module: str, attr: str, make_wrapper) -> None:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf, None)
        if original is None:
            self.unwrapped.append(f"{module}.{attr}")
            return
        self._restore.append((owner, leaf, original))
        setattr(owner, leaf, make_wrapper(original))

    # -- wrappers -----------------------------------------------------------
    #
    # Each wrapper reads the clock on entry, around the wrapped call, and on
    # exit. What it spends outside the call is added to self._overhead, and
    # every duration it reports is net of the overhead its callees added, so
    # the tracer's own bookkeeping lands in no layer's time.

    def _span_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._active or not self._stack:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            span = self._open(name)
            inner = self._overhead
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.overhead_s = self._overhead - inner
                self._close(span)
                self._overhead += (span.start - t_in) + (perf_counter() - span.end)

        return wrapper

    def _leaf_wrapper(self, fn, name: str, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._active or not self._stack:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            if on_call is not None:
                on_call(*args)
            rec = self._rec
            rec.calls[name] += 1
            self._active.add(name)
            self._leaf_depth += 1
            inner = self._overhead
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                net = (t1 - t0) - (self._overhead - inner)
                self._leaf_depth -= 1
                self._active.discard(name)
                rec.busy[name] += net
                if self._leaf_depth == 0:
                    self._stack[-1].child_s += net
                self._overhead += (t0 - t_in) + (perf_counter() - t1)

        return wrapper

    def _map_factory_wrapper(self, build_map):
        @functools.wraps(build_map)
        def wrapper(*args, **kwargs):
            emap = build_map(*args, **kwargs)
            return dataclasses.replace(
                emap, fn=self._leaf_wrapper(emap.fn, MAP_EVAL, self._note_point)
            )

        return wrapper

    def _note_point(self, x) -> None:
        key = _point_key(x)
        if key in self._seen:
            self._rec.repeats += 1
        else:
            self._seen.add(key)

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> Span:
        if self._leaf_depth:
            raise RuntimeError(f"span {name!r} opened inside a leaf call")
        rec = self._rec
        span = Span(
            name=name,
            op=rec.op,
            index=len(rec.spans),
            parent=self._stack[-1].index,
            start=0.0,
            calls_at_start=tuple(rec.calls[k] for k in LEAVES),
        )
        rec.spans.append(span)
        self._stack.append(span)
        self._active.add(name)
        return span

    def _close(self, span: Span) -> None:
        rec = self._rec
        span.calls = {k: rec.calls[k] - c for k, c in zip(LEAVES, span.calls_at_start)}
        self._stack.pop()
        self._active.discard(span.name)
        self._stack[-1].child_s += span.seconds
        rec.calls[span.name] += 1
        rec.busy[span.name] += span.seconds

    def begin_op(self, op: int, label: str) -> None:
        """Open the root span of one op; every traced call until end_op belongs to it."""
        self._rec = OpRecord(op=op, label=label)
        self._seen = set()
        self._overhead = 0.0
        root = Span(name="op", op=op, index=0, parent=None, start=perf_counter())
        self._rec.spans.append(root)
        self._stack = [root]

    def end_op(self) -> None:
        root = self._stack.pop()
        root.end = perf_counter()
        root.overhead_s = self._overhead
        rec = self._rec
        root.calls = {k: rec.calls[k] for k in LEAVES}
        self.records.append(rec)
        self._rec, self._seen, self._stack = None, set(), []


# Per-layer metrics of a traced pass, with their units. The last three are
# filled in by the runner rather than from the trace.
PER_LAYER_UNITS = {
    "maps.eval_calls": "count",
    "maps.eval_s": "s",
    "maps.noise_calls": "count",
    "maps.noise_s": "s",
    "maps.repeat_share": "ratio",
    "gauges.evaluate_calls": "count",
    "gauges.evaluate_s": "s",
    "gauges.audit_s": "s",
    "orthogonality.sample_pairs_s": "s",
    "orthogonality.sample_pairs.gauge_calls": "count",
    "orthogonality.audit_s": "s",
    "corrector.scale_table_calls": "count",
    "corrector.scale_table_s": "s",
    "corrector.scale_table.self_s": "s",
    "corrector.limit.self_s": "s",
    "corrector.limit.map_calls": "count",
    "corrector.limit.gauge_calls": "count",
    "corrector.gap_series_s": "s",
    "stability.derivation_s": "s",
    "stability.derivation.map_calls": "count",
    "stability.derivation.gauge_calls": "count",
    "stability.conclusion_s": "s",
    "stability.conclusion.map_calls": "count",
    "stability.uniqueness_s": "s",
    "stability.constants_s": "s",
    "stability.runner.self_s": "s",
    "cli.config_load_s": "s",
    "cli.artifacts_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
    "process.cpu_s": "s",
}


def layer_metrics(records: list[OpRecord]) -> dict:
    """Per-layer metrics summed over the given ops (all but the runner's three)."""
    calls, busy = Counter(), Counter()
    for rec in records:
        calls.update(rec.calls)
        busy.update(rec.busy)
    spans = [s for rec in records for s in rec.spans]

    def busy_s(name):
        return float(busy[name])

    def self_s(name):
        return sum((s.self_s for s in spans if s.name == name), 0.0)

    def inner(name, leaf):
        return sum(s.calls[leaf] for s in spans if s.name == name)

    evals = calls[MAP_EVAL]
    return {
        "maps.eval_calls": evals,
        "maps.eval_s": busy_s(MAP_EVAL),
        "maps.noise_calls": calls["maps.noise"],
        "maps.noise_s": busy_s("maps.noise"),
        "maps.repeat_share": sum(r.repeats for r in records) / evals if evals else 0.0,
        "gauges.evaluate_calls": calls["gauges.evaluate"],
        "gauges.evaluate_s": busy_s("gauges.evaluate"),
        "gauges.audit_s": busy_s("gauges.audit"),
        "orthogonality.sample_pairs_s": busy_s("orthogonality.sample_pairs"),
        "orthogonality.sample_pairs.gauge_calls": inner("orthogonality.sample_pairs", "gauges.evaluate"),
        "orthogonality.audit_s": busy_s("orthogonality.audit"),
        "corrector.scale_table_calls": calls["corrector.scale_table"],
        "corrector.scale_table_s": busy_s("corrector.scale_table"),
        "corrector.scale_table.self_s": self_s("corrector.scale_table"),
        "corrector.limit.self_s": self_s("corrector.limit"),
        "corrector.limit.map_calls": inner("corrector.limit", MAP_EVAL),
        "corrector.limit.gauge_calls": inner("corrector.limit", "gauges.evaluate"),
        "corrector.gap_series_s": busy_s("corrector.gap_series"),
        "stability.derivation_s": busy_s("stability.derivation"),
        "stability.derivation.map_calls": inner("stability.derivation", MAP_EVAL),
        "stability.derivation.gauge_calls": inner("stability.derivation", "gauges.evaluate"),
        "stability.conclusion_s": busy_s("stability.conclusion"),
        "stability.conclusion.map_calls": inner("stability.conclusion", MAP_EVAL),
        "stability.uniqueness_s": busy_s("stability.uniqueness"),
        "stability.constants_s": busy_s("stability.constants"),
        "stability.runner.self_s": self_s("stability.runner"),
        "cli.config_load_s": busy_s("cli.config_load"),
        "cli.artifacts_s": busy_s("cli.artifacts"),
    }


def spans_json(records: list[OpRecord]) -> list[dict]:
    """Every recorded span, for writing out once the run ends."""
    return [
        {
            "op": s.op,
            "label": rec.label,
            "id": s.index,
            "name": s.name,
            "parent": s.parent,
            "start": s.start,
            "end": s.end,
            "self_s": s.self_s,
            "calls": s.calls,
        }
        for rec in records
        for s in rec.spans
    ]
