"""Stability pipeline: premise checks, defect derivation, certified bounds.

The end-to-end claim quantified here: if f has Jensen defect at most eps on
every orthogonal pair (plus an oddness defect bound for the additive
equation), then the corrector limit g satisfies

    gauge(f(x) - g(x)) <= K(beta) * eps        on doubled sample points,

with K produced as a certified interval from the gap series. A finite run of
the corrector replaces the limit, so each per-sample comparison carries the
certified truncation debt defect_bound * gap_tail_bound(n_max, beta) as an
explicit residual term rather than pretending the limit was reached.

Two constants ship, one per equation:

    k_additive(beta)  = (S + 1) * (1 + 2^b + 4^b + 8^b + 16^b) / 8^b
    k_quadratic(beta) = (S + 1) * (1 + 2^b + 2^(1-b) + 2^(1-2b)) / 8^b

with S the gap series value. The quasi-norm variants are the 1/p-th powers,
used after transporting a p-quasi-norm problem through p_power_transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corrector import (
    EPS,
    THREE_EIGHTHS,
    CorrectorEvaluator,
    SeriesEnclosure,
    _at_scales,
    cauchy_gap,
    corrector_limit,
    field_terms,
    gap_series,
    rounding_slack,
    term_sum,
)
from . import config
from .errors import ConfigurationError, InputError
from .gauges import Gauge, p_power_transform
from .maps import MapSpec, build_map, evaluate_stack
from .orthogonality import OrthoRelation, require_float_tolerance, sample_orthogonal_pairs
from .reporting import jsonable
from . import vectors as vec
from .vectors import FLOAT64, RATIONAL

# Sample points and pairs are evaluated this many at a time: each map call
# gets a stack, and memory stays flat however many samples a run draws.
BLOCK = 32


def _blockwise(fn, *stacks):
    """fn on consecutive blocks of BLOCK rows of equally long stacks, joined along axis 0."""
    blocks = range(0, len(stacks[0]), BLOCK)
    return np.concatenate([fn(*(s[i : i + BLOCK] for s in stacks)) for i in blocks])


# ---------------------------------------------------------------------------
# certified constants


def additive_defect_factor(beta, field=FLOAT64):
    """(1 + 2^b + 4^b + 8^b + 16^b) / 8^b, the premise-to-defect conversion; 31/8 at b = 1."""
    b, c = field.beta(beta), field.const
    return (1 + c(2) ** b + c(4) ** b + c(8) ** b + c(16) ** b) / c(8) ** b


def quadratic_defect_factor(beta, field=FLOAT64):
    """(1 + 2^b + 2^(1-b) + 2^(1-2b)) / 8^b; 9/16 at b = 1."""
    b, two = field.beta(beta), field.const(2)
    return (1 + two ** b + two ** (1 - b) + two ** (1 - 2 * b)) / field.const(8) ** b


def _k_enclosure(beta, factor_fn, tol, field) -> SeriesEnclosure:
    f = factor_fn(beta, field)
    if field is RATIONAL:
        s = gap_series(beta, tol=min(tol, 1e-12) / (2 * float(f)), field=field)
        return SeriesEnclosure((s.lower + 1) * f, (s.upper + 1) * f, s.terms)
    try:
        s = gap_series(beta, tol=max(tol * 0.4 / f, 1e-13))
    except ConfigurationError as e:
        raise ConfigurationError(
            f"tolerance {tol!r} unreachable for the stability constants in float64 at beta={beta!r}"
        ) from e
    lo = (s.lower + 1.0) * f * (1.0 - 4 * EPS)
    hi = (s.upper + 1.0) * f * (1.0 + 4 * EPS)
    return SeriesEnclosure(lo, hi, s.terms)


def k_additive(beta, tol: float = 1e-12, field=FLOAT64) -> SeriesEnclosure:
    """Certified enclosure of the additive stability constant."""
    return _k_enclosure(beta, additive_defect_factor, tol, field)


def k_quadratic(beta, tol: float = 1e-12, field=FLOAT64) -> SeriesEnclosure:
    """Certified enclosure of the quadratic stability constant."""
    return _k_enclosure(beta, quadratic_defect_factor, tol, field)


def _quasi_enclosure(k_fn, p: float, rel_tol: float) -> SeriesEnclosure:
    """Enclosure of k_fn(p)^(1/p), with relative width about rel_tol."""
    if not (0 < p <= 1):
        raise ConfigurationError(f"quasi exponent p must lie in (0, 1], got {p!r}")
    rough = k_fn(p, tol=1e-6)
    base = k_fn(p, tol=max(rel_tol * p * rough.lower * 0.5, 1e-13))
    inv = 1.0 / p
    lo = base.lower ** inv * (1.0 - 4 * EPS)
    hi = base.upper ** inv * (1.0 + 4 * EPS)
    return SeriesEnclosure(lo, hi, base.terms)


def k_additive_quasi(p: float, rel_tol: float = 1e-12) -> SeriesEnclosure:
    """Enclosure of k_additive(p)^(1/p); width is relative (see rel_tol)."""
    return _quasi_enclosure(k_additive, p, rel_tol)


def k_quadratic_quasi(p: float, rel_tol: float = 1e-12) -> SeriesEnclosure:
    """Enclosure of k_quadratic(p)^(1/p); width is relative (see rel_tol)."""
    return _quasi_enclosure(k_quadratic, p, rel_tol)


# ---------------------------------------------------------------------------
# defect expressions


def _jensen_rows(xs, ys, quadratic: bool):
    """(rows, parts): the stack a Jensen defect evaluates its map at, for stacks xs, ys.

    rows holds (x + y)/2, for the quadratic equation also (x - y)/2, then x
    and y: parts blocks of one row per pair.
    """
    half = vec.field_of(xs).const(1, 2)
    mids = [half * (xs + ys)] + ([half * (xs - ys)] if quadratic else [])
    return np.concatenate(mids + [xs, ys]), len(mids) + 2


def _jensen_expression(values, parts: int):
    """2 f((x+y)/2) [+ 2 f((x-y)/2)] - (f(x) + f(y)), from values at _jensen_rows."""
    *mids, fx, fy = np.split(values, parts)
    two = vec.field_of(values).const(2)
    lhs = two * mids[0] if len(mids) == 1 else two * mids[0] + two * mids[1]
    return lhs - (fx + fy)


def _jensen_defect(f, x, y, gauge: Gauge, quadratic: bool):
    xs, single = vec.as_stack(x)

    def block(xb, yb):
        rows, parts = _jensen_rows(xb, yb, quadratic)
        return _jensen_expression(evaluate_stack(f, rows), parts)

    return gauge.evaluate(vec.unstack(_blockwise(block, xs, vec.stack(y)), single))


def jensen_additive_defect(f, x, y, gauge: Gauge):
    """gauge(2 f((x+y)/2) - f(x) - f(y)), for one pair or row by row for stacks."""
    return _jensen_defect(f, x, y, gauge, quadratic=False)


def jensen_quadratic_defect(f, x, y, gauge: Gauge):
    """gauge(2 f((x+y)/2) + 2 f((x-y)/2) - f(x) - f(y)), for one pair or row by row."""
    return _jensen_defect(f, x, y, gauge, quadratic=True)


# ---------------------------------------------------------------------------
# premise + chain derivation


@dataclass(frozen=True)
class Check:
    """One premise or chain inequality: max over its inputs of gauge(sum) <= bound.

    bound maps (epsilon, 2^beta, 2^-beta) to the bound; None means the defect
    bound C. terms lists (coefficient, k, sign) for term_sum, the sum of
    coefficient * f(sign 2^k x) over the sample points x, or names a sum of
    another shape: JENSEN, the Jensen defect of the equation on the
    orthogonal pairs, or AT_ZERO, f(0).
    """

    name: str
    premise: bool
    bound: object
    terms: object


JENSEN = "jensen"
AT_ZERO = "at-zero"
# The scales k the term lists may use; one map call evaluates f(+-2^k x) at all of them.
SCALES = (-1, 0, 1, 2)

# Bounds as functions of (epsilon, 2^beta, 2^-beta). Int literals give the
# same bound on both backends.
_EPS_BOUND = lambda e, tb, itb: e
_ZERO_BOUND = lambda e, tb, itb: e * itb
_HALVING_BOUND = lambda e, tb, itb: (itb + 1) * e
_EVENNESS_BOUND = lambda e, tb, itb: 2 * itb * (itb + 1) * e
_ADDITIVE_COMBINATION_BOUND = lambda e, tb, itb: (1 + tb + tb ** 2 + tb ** 3 + tb ** 4) * e
_QUADRATIC_COMBINATION_BOUND = lambda e, tb, itb: (1 + tb + 2 * itb + 2 * itb ** 2) * e
_COMBINATION = ((3, 2, "+"), (-8, 1, "+"), (-1, 2, "-"))

# Each equation's checks in report order: the paper's chain from the Jensen
# premise through oddness or evenness, halving, doubling and the fourth-scale
# combination to the three-eighths defect that drives the corrector.
CHECKS = {
    "jensen-additive": (
        Check("jensen-additive-premise", True, _EPS_BOUND, JENSEN),
        Check("oddness-premise", True, _EPS_BOUND, ((1, 0, "+"), (1, 0, "-"))),
        Check("value-at-zero", False, _ZERO_BOUND, AT_ZERO),
        Check("halving", False, _HALVING_BOUND, ((2, -1, "+"), (-1, 0, "+"))),
        Check("doubling", False, _HALVING_BOUND, ((2, 0, "+"), (-1, 1, "+"))),
        Check("fourth-scale-combination", False, _ADDITIVE_COMBINATION_BOUND, _COMBINATION),
        Check("three-eighths-defect", False, None, THREE_EIGHTHS),
    ),
    "jensen-quadratic": (
        Check("jensen-quadratic-premise", True, _EPS_BOUND, JENSEN),
        Check("value-at-zero", False, _ZERO_BOUND, AT_ZERO),
        Check("halving-sum", False, _HALVING_BOUND, ((2, -1, "+"), (2, -1, "-"), (-1, 0, "+"))),
        Check("halving-even", False, _HALVING_BOUND, ((4, -1, "+"), (-1, 0, "+"))),
        Check("evenness-defect", False, _EVENNESS_BOUND, ((1, 0, "+"), (-1, 0, "-"))),
        Check("fourth-scale-combination", False, _QUADRATIC_COMBINATION_BOUND, _COMBINATION),
        Check("three-eighths-defect", False, None, THREE_EIGHTHS),
    ),
}


@dataclass
class CheckRow:
    name: str
    bound: object
    max_value: object
    ok: bool
    witness: object = None
    checked: int = 0


@dataclass
class DefectDerivation:
    """Premise checks plus the inequality chain leading to the defect bound."""

    equation: str
    epsilon: object
    beta: object
    defect_bound: object
    premise_rows: list = field(default_factory=list)
    chain_rows: list = field(default_factory=list)

    @property
    def premises_ok(self) -> bool:
        return all(r.ok for r in self.premise_rows)

    @property
    def chain_ok(self) -> bool:
        return all(r.ok for r in self.chain_rows)

    @property
    def certified(self) -> bool:
        return self.premises_ok and self.chain_ok

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "epsilon": jsonable(self.epsilon),
            "beta": jsonable(self.beta),
            "defect_bound": jsonable(self.defect_bound),
            "premises_ok": self.premises_ok,
            "chain_ok": self.chain_ok,
            "certified": self.certified,
            "premise_rows": jsonable(self.premise_rows),
            "chain_rows": jsonable(self.chain_rows),
        }


def _max_row(name, bound, values, witnesses) -> CheckRow:
    """The row maximum with the first witness that attains it.

    values holds one value per witness. Python's max keeps the first of equal
    maxima and, like a running comparison, lets no NaN after the first value
    win.
    """
    values = values.tolist()
    if not values:
        raise InputError(f"check {name!r} received no samples")
    i = max(range(len(values)), key=values.__getitem__)
    return CheckRow(
        name=name,
        bound=bound,
        max_value=values[i],
        ok=values[i] <= bound,
        witness=witnesses[i],
        checked=len(values),
    )


def _pair_stacks(pairs):
    """The first and the second members of a list of pairs, as two stacks."""
    return vec.stack([x for x, _ in pairs]), vec.stack([y for _, y in pairs])


def _derive(equation: str, f, epsilon, beta, gauge: Gauge, points, pairs) -> DefectDerivation:
    """Evaluate CHECKS[equation] and assemble the derivation.

    The Jensen premise runs on the pairs; every term-list row is evaluated on
    stacks of sample points, from one map call per block.
    """
    if len(points) == 0 or len(pairs) == 0:
        raise InputError("defect derivation needs nonempty points and pairs")
    stack = vec.stack(points)
    field = vec.field_of(stack)
    b, two = field.beta(beta), field.const(2)
    tb, itb = two ** b, two ** -b
    factor = additive_defect_factor if equation == "jensen-additive" else quadratic_defect_factor
    C = factor(beta, field) * epsilon
    checks = CHECKS[equation]
    sums = [field_terms(c.terms, field) for c in checks if c.terms not in (JENSEN, AT_ZERO)]

    def block(points):
        fp, fm = (dict(zip(SCALES, t)) for t in _at_scales(f, points, SCALES))
        return np.stack([gauge.evaluate(term_sum(terms, fp, fm)) for terms in sums], axis=1)

    jensen = _jensen_defect(f, *_pair_stacks(pairs), gauge, equation == "jensen-quadratic")
    per_point = iter(_blockwise(block, stack).T)
    d = DefectDerivation(equation=equation, epsilon=epsilon, beta=beta, defect_bound=C)
    for check in checks:
        bound = C if check.bound is None else check.bound(epsilon, tb, itb)
        if check.terms == JENSEN:
            row = _max_row(check.name, bound, jensen, pairs)
        elif check.terms == AT_ZERO:
            zero = field.zero(stack.shape[1])
            row = _max_row(check.name, bound, np.array([gauge.evaluate(f(zero))]), [zero])
        else:
            row = _max_row(check.name, bound, next(per_point), points)
        (d.premise_rows if check.premise else d.chain_rows).append(row)
    return d


def derive_defect_bound_additive(f, epsilon, beta, gauge: Gauge, points, pairs) -> DefectDerivation:
    """Check the additive premises and walk the chain to the defect bound.

    points: sample vectors for the per-point inequalities; pairs: orthogonal
    pairs for the Jensen premise. The derived bound is
    additive_defect_factor(beta) * epsilon; it is certified only if every
    premise row passed, and the derivation says so rather than assuming it.
    """
    return _derive("jensen-additive", f, epsilon, beta, gauge, points, pairs)


def derive_defect_bound_quadratic(f, epsilon, beta, gauge: Gauge, points, pairs) -> DefectDerivation:
    """Quadratic analog of derive_defect_bound_additive.

    pairs must include (0, 0), (0, x), (x, 0) style degenerate pairs (the
    runner guarantees this); the chain inequalities lean on them.
    """
    return _derive("jensen-quadratic", f, epsilon, beta, gauge, points, pairs)


# ---------------------------------------------------------------------------
# conclusion + uniqueness checks


@dataclass
class ConclusionCheck:
    n: int
    max_defect: object
    max_slack: object
    pairs_checked: int
    bound: object = None
    ok: bool | None = None


def verify_conclusion(
    evaluator: CorrectorEvaluator,
    equation: str,
    relation: OrthoRelation,
    pairs,
    gauge: Gauge,
) -> ConclusionCheck:
    """Max Jensen defect of the finite-n corrector over orthogonal pairs.

    Also returns the largest rounding_slack, whose magnitude per coordinate
    sums the corrector term magnitudes behind the defect, so
    computed_defect <= true_defect + slack to first order. RATIONAL runs
    carry slack 0.
    """
    config.read_field("stability.equation", equation)
    if len(pairs) == 0:
        raise InputError("verify_conclusion needs at least one pair")
    for x, y in pairs:
        if not relation.is_orthogonal(x, y):
            raise InputError(f"pair is not orthogonal under {relation.kind}: {x!r}, {y!r}")
    xs, ys = _pair_stacks(pairs)
    field = vec.field_of(xs)
    additive = equation == "jensen-additive"

    def block(xb, yb):
        """(defect, slack) for each pair of a block."""
        rows, parts = _jensen_rows(xb, yb, quadratic=not additive)
        values, mags = evaluator.value_and_magnitude(rows)
        defects = gauge.evaluate(_jensen_expression(values, parts))

        def magnitude():
            *gm, gx, gy = np.split(mags, parts)
            return 2.0 * gm[0] + gx + gy if additive else 2.0 * gm[0] + 2.0 * gm[1] + gx + gy

        return np.stack([defects, rounding_slack(gauge, defects, magnitude)], axis=1)

    defects, slacks = _blockwise(block, xs, ys).T
    zero = field.const(0)
    return ConclusionCheck(
        n=evaluator.n,
        max_defect=max([zero] + defects.tolist()),
        max_slack=max([zero] + slacks.tolist()),
        pairs_checked=len(pairs),
    )


@dataclass
class UniquenessCheck:
    n_low: int
    n_high: int
    max_gap: object
    bound: object
    ok: bool
    points_checked: int


def uniqueness_probe(
    f, points, n_low: int, n_high: int, beta, defect_bound, gauge: Gauge
) -> UniquenessCheck:
    """Distance between two corrector depths against its telescoped bound.

    max over points of gauge(g_(n_low) - g_(n_high)) must stay within
    defect_bound * sum of cauchy_gap(m) for m in [n_low, n_high), which
    squeezes to zero as n_low grows: any two limits built this way coincide.
    """
    if not (1 <= n_low < n_high):
        raise InputError(f"need 1 <= n_low < n_high, got {n_low}, {n_high}")
    if len(points) == 0:
        raise InputError("uniqueness_probe needs at least one point")
    stack = vec.stack(points)
    low, high = CorrectorEvaluator(f, n_low), CorrectorEvaluator(f, n_high)
    gaps = _blockwise(lambda block: gauge.evaluate(low.value(block) - high.value(block)), stack)
    field = vec.field_of(stack)
    worst = max([field.const(0)] + gaps.tolist())
    terms = [cauchy_gap(m, beta, field) for m in range(n_low, n_high)]
    # The float sum carries a rounding envelope; the exact one needs none.
    total = sum(terms) if field is RATIONAL else math.fsum(terms) * (1.0 + 16 * EPS)
    bound = defect_bound * total
    return UniquenessCheck(
        n_low=n_low,
        n_high=n_high,
        max_gap=worst,
        bound=bound,
        ok=worst <= bound,
        points_checked=len(points),
    )


# ---------------------------------------------------------------------------
# experiment configuration and runner


@dataclass(frozen=True)
class StabilityConfig:
    equation: str
    dimension: int
    gauge: Gauge
    relation: OrthoRelation
    map_spec: MapSpec
    beta: object
    epsilon: object = config.default("stability.epsilon")
    sample_count: int = config.default("stability.sample_count")
    pair_count: int = config.default("stability.pair_count")
    n_max: int = config.default("stability.n_max")
    seed: int = config.default("stability.seed")
    mode: str = config.default("stability.mode")
    quasi_corollary: bool = config.default("stability.quasi_corollary")
    conclusion_pairs: int = config.default("stability.conclusion_pairs")
    uniqueness_points: int = config.default("stability.uniqueness_points")
    point_scale: float = config.default("stability.point_scale")

    def __post_init__(self):
        config.check_fields(self, "stability")
        if self.relation.dimension != self.dimension:
            raise ConfigurationError(
                f"relation.dimension {self.relation.dimension} does not match "
                f"space.dimension {self.dimension}"
            )
        if self.mode != self.map_spec.backend:
            raise ConfigurationError(
                f"stability.mode {self.mode!r} does not match map backend "
                f"{self.map_spec.backend!r}"
            )
        if self.map_spec.domain_dim not in (None, self.dimension):
            raise ConfigurationError(
                f"map.matrix takes points of dimension {self.map_spec.domain_dim}, "
                f"but space.dimension is {self.dimension}"
            )
        if self.quasi_corollary:
            if self.gauge.kind != "lp-quasi":
                raise ConfigurationError("quasi_corollary runs need an lp-quasi gauge")
            if self.mode == "exact-rational":
                raise ConfigurationError("quasi_corollary runs are float-only")
            if abs(float(self.beta) - float(self.gauge.p)) > 1e-12:
                raise ConfigurationError(
                    f"quasi_corollary runs work at homogeneity p: stability.beta "
                    f"{self.beta!r} must equal gauge p {self.gauge.p!r}"
                )
        elif self.gauge.kind == "lp-quasi":
            raise ConfigurationError(
                "lp-quasi gauges are not subadditive; set quasi_corollary true to run "
                "through the p-power transform"
            )
        else:
            deg = self.gauge.homogeneity_degree
            if abs(float(self.beta) - deg) > 1e-12:
                raise ConfigurationError(
                    f"stability.beta {self.beta!r} does not match gauge homogeneity {deg!r}"
                )
        vec.field_named(self.mode).beta(self.beta)
        if self.mode == "exact-rational":
            if not self.gauge.supports_exact:
                raise ConfigurationError(
                    f"gauge {self.gauge.describe()} has no exact evaluation"
                )
            if self.relation.kind == "isosceles":
                raise ConfigurationError("isosceles sampling is float-only")
        else:
            require_float_tolerance(self.relation)

    @property
    def work_beta(self):
        return float(self.gauge.p) if self.quasi_corollary else self.beta

    def work_gauge(self) -> Gauge:
        return p_power_transform(self.gauge, self.gauge.p) if self.quasi_corollary else self.gauge

    def resolve_epsilon(self):
        """(epsilon in working units, delta). Derived from the noise amplitude
        when not given: (2^b + 2) delta for additive, (2*2^b + 2) delta for
        quadratic, b the working homogeneity degree."""
        delta = self.map_spec.noise_amplitude
        if self.epsilon is not None:
            eps = self.epsilon
            if self.quasi_corollary:
                return float(eps) ** float(self.gauge.p), delta
            return eps, delta
        field = vec.field_named(self.mode)
        two_b = field.const(2) ** field.beta(self.work_beta)
        factor = two_b + 2 if self.equation == "jensen-additive" else 2 * two_b + 2
        return factor * field.const(delta), delta


@dataclass
class SampleRow:
    point: object
    value: object
    bound: object
    ratio: object
    residual: object
    within: bool


@dataclass
class StabilityReport:
    config: StabilityConfig
    equation: str
    beta: object
    epsilon: object
    delta: object
    defect_bound: object
    k_interval: tuple
    derivation: DefectDerivation
    samples: list
    conclusion: ConclusionCheck
    uniqueness: UniquenessCheck
    quasi: dict | None
    guard_events: list
    precision_notes: list

    @property
    def premise_ok(self) -> bool:
        return self.derivation.premises_ok

    @property
    def all_within_bound(self) -> bool:
        return all(r.within for r in self.samples)

    @property
    def max_ratio(self):
        finite = [r.ratio for r in self.samples if r.ratio != float("inf")]
        if len(finite) < len(self.samples):
            return float("inf")
        return max(finite) if finite else 0.0

    @property
    def ok(self) -> bool:
        return (
            self.premise_ok
            and self.derivation.chain_ok
            and self.all_within_bound
            and bool(self.conclusion.ok)
            and self.uniqueness.ok
            and not self.guard_events
        )

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "mode": self.config.mode,
            "beta": jsonable(self.beta),
            "epsilon": jsonable(self.epsilon),
            "delta": jsonable(self.delta),
            "defect_bound": jsonable(self.defect_bound),
            "k_interval": [jsonable(self.k_interval[0]), jsonable(self.k_interval[1])],
            "gauge": self.config.gauge.to_config(),
            "relation": self.config.relation.to_config(),
            "n_max": self.config.n_max,
            "seed": self.config.seed,
            "sample_count": len(self.samples),
            "derivation": self.derivation.to_dict(),
            "conclusion": jsonable(self.conclusion),
            "uniqueness": jsonable(self.uniqueness),
            "quasi": jsonable(self.quasi),
            "guard_events": list(self.guard_events),
            "precision_notes": list(self.precision_notes),
            "verdict": {
                "premise_ok": self.premise_ok,
                "chain_ok": self.derivation.chain_ok,
                "all_within_bound": self.all_within_bound,
                "max_ratio": jsonable(self.max_ratio),
                "conclusion_ok": bool(self.conclusion.ok),
                "uniqueness_ok": self.uniqueness.ok,
                "ok": self.ok,
            },
        }


def _sample_points(config: StabilityConfig, field, seed) -> list:
    """Corrector sample points: doubled seeded draws (the bounds certify at 2x)."""
    rng = np.random.default_rng(seed)
    two = field.const(2)
    return [
        vec.vscale(two, field.draw(rng, config.dimension, config.point_scale))
        for _ in range(config.sample_count)
    ]


def run_stability(config: StabilityConfig, f=None) -> StabilityReport:
    """Run the full pipeline: premises, chain, per-sample bounds, conclusion.

    f defaults to the map built from config.map_spec under the working gauge.
    Deterministic given the config: sampling runs on spawned child seeds in a
    fixed order and reductions are sequential.
    """
    field = vec.field_named(config.mode)
    work_gauge = config.work_gauge()
    beta = config.work_beta
    if f is None:
        f = build_map(config.map_spec, work_gauge)
    elif f.scalar_backend != config.map_spec.backend:
        raise ConfigurationError("map backend does not match config mode")
    eps, delta = config.resolve_epsilon()
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    pairs = sample_orthogonal_pairs(
        config.relation, config.pair_count, seed=seeds[0], field=field
    )
    points = _sample_points(config, field, seeds[1])
    if config.equation == "jensen-quadratic":
        zero = field.zero(config.dimension)
        pairs = [(zero, zero), (zero, points[0]), (points[0], zero)] + pairs
        derivation = derive_defect_bound_quadratic(f, eps, beta, work_gauge, points, pairs)
        k_enc = k_quadratic(beta, field=field)
    else:
        derivation = derive_defect_bound_additive(f, eps, beta, work_gauge, points, pairs)
        k_enc = k_additive(beta, field=field)
    C = derivation.defect_bound
    bound = k_enc.upper * eps
    guard_events: list[str] = []
    precision_notes: list[str] = []
    indeterminate_total = 0
    terms, residuals = [], []
    for x in points:
        g, trace = corrector_limit(f, x, beta, C, work_gauge, config.n_max)
        for w in trace.precision_warnings:
            if len(guard_events) < 8:
                guard_events.append(w)
        if trace.indeterminate_scales:
            indeterminate_total += len(trace.indeterminate_scales)
            if len(precision_notes) < 6:
                k, sign, d, s = trace.indeterminate_scales[0]
                precision_notes.append(
                    f"scale {sign}2^{k - 1}: three-eighths defect {float(d):.6g} is over "
                    f"its bound but within the rounding slack {float(s):.6g}"
                )
        if not trace.hypothesis_ok:
            k, sign, val = trace.hypothesis_violations[0]
            guard_events.append(
                f"three-eighths defect exceeded its bound at scale {sign}2^{k - 1} of "
                f"point {[float(c) for c in x]}: {float(val):.6g}"
            )
        terms.append(g)
        residuals.append(trace.residual_bound)
    values = _blockwise(
        lambda block, g: work_gauge.evaluate(evaluate_stack(f, block) - g),
        vec.stack(points),
        vec.stack(terms),
    ).tolist()
    rows = []
    for x, value, residual in zip(points, values, residuals):
        if bound > 0:
            ratio = value / bound
        else:
            ratio = field.const(0) if value <= residual else float("inf")
        rows.append(
            SampleRow(
                point=x,
                value=value,
                bound=bound,
                ratio=ratio,
                residual=residual,
                within=value <= bound + residual,
            )
        )
    evaluator = CorrectorEvaluator(f, config.n_max)
    conclusion_pairs = pairs[: config.conclusion_pairs]
    conclusion = verify_conclusion(
        evaluator, config.equation, config.relation, conclusion_pairs, work_gauge
    )
    conclusion.bound = (
        cauchy_gap(config.n_max, beta, field) * eps + field.const(10) * conclusion.max_slack
    )
    conclusion.ok = conclusion.max_defect <= conclusion.bound
    n_low = max(1, config.n_max // 2)
    uniq_points = points[: config.uniqueness_points]
    if n_low < config.n_max:
        uniqueness = uniqueness_probe(f, uniq_points, n_low, config.n_max, beta, C, work_gauge)
    else:
        uniqueness = uniqueness_probe(
            f, uniq_points, config.n_max, config.n_max + 1, beta, C, work_gauge
        )
    if indeterminate_total:
        precision_notes.append(
            f"{indeterminate_total} scale checks were decided only up to rounding "
            "slack; the rational backend decides them exactly"
        )
    quasi = None
    if config.quasi_corollary:
        p = float(config.gauge.p)
        inv = 1.0 / p
        k_quasi = (
            k_additive_quasi(p)
            if config.equation == "jensen-additive"
            else k_quadratic_quasi(p)
        )
        worst = max(r.value for r in rows)
        quasi = {
            "p": p,
            "epsilon_quasi": float(eps) ** inv,
            "k_quasi_interval": [k_quasi.lower, k_quasi.upper],
            "max_value_quasi": float(worst) ** inv,
            "bound_quasi": float(bound + max(r.residual for r in rows)) ** inv,
        }
    return StabilityReport(
        config=config,
        equation=config.equation,
        beta=beta,
        epsilon=eps,
        delta=delta,
        defect_bound=C,
        k_interval=(k_enc.lower, k_enc.upper),
        derivation=derivation,
        samples=rows,
        conclusion=conclusion,
        uniqueness=uniqueness,
        quasi=quasi,
        guard_events=guard_events,
        precision_notes=precision_notes,
    )
