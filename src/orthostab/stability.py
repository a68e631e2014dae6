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
from fractions import Fraction

import numpy as np

from .corrector import (
    EPS,
    OPS_ENVELOPE,
    CorrectorEvaluator,
    SeriesEnclosure,
    _at_scales,
    cauchy_gap,
    corrector_limit,
    gap_series,
    three_eighths_expression,
)
from .errors import ConfigurationError, InputError
from .gauges import Gauge, p_power_transform
from .maps import MapSpec, build_map, evaluate_stack
from .orthogonality import OrthoRelation, sample_orthogonal_pairs
from . import vectors as vec

EQUATIONS = ("jensen-additive", "jensen-quadratic")

# Sample points and pairs are evaluated this many at a time: each map call
# gets a stack, and memory stays flat however many samples a run draws.
BLOCK = 32


def _blockwise(fn, *stacks):
    """fn on consecutive blocks of BLOCK rows of equally long stacks, joined along axis 0."""
    blocks = range(0, len(stacks[0]), BLOCK)
    return np.concatenate([fn(*(s[i : i + BLOCK] for s in stacks)) for i in blocks])


# ---------------------------------------------------------------------------
# certified constants


def additive_defect_factor(beta, exact: bool = False):
    """(1 + 2^b + 4^b + 8^b + 16^b) / 8^b, the premise-to-defect conversion."""
    if exact:
        if beta != 1:
            raise ConfigurationError("exact factor needs beta = 1")
        return Fraction(31, 8)
    b = float(beta)
    return (1.0 + 2.0 ** b + 4.0 ** b + 8.0 ** b + 16.0 ** b) / 8.0 ** b


def quadratic_defect_factor(beta, exact: bool = False):
    """(1 + 2^b + 2^(1-b) + 2^(1-2b)) / 8^b."""
    if exact:
        if beta != 1:
            raise ConfigurationError("exact factor needs beta = 1")
        return Fraction(9, 16)
    b = float(beta)
    return (1.0 + 2.0 ** b + 2.0 ** (1.0 - b) + 2.0 ** (1.0 - 2.0 * b)) / 8.0 ** b


def _k_enclosure(beta, factor_fn, tol, exact) -> SeriesEnclosure:
    if exact:
        f = factor_fn(beta, exact=True)
        s = gap_series(beta, tol=min(tol, 1e-12) / (2 * float(f)), exact=True)
        return SeriesEnclosure((s.lower + 1) * f, (s.upper + 1) * f, s.terms)
    f = factor_fn(beta)
    s = gap_series(beta, tol=max(tol * 0.4 / f, 1e-13))
    lo = (s.lower + 1.0) * f * (1.0 - 4 * EPS)
    hi = (s.upper + 1.0) * f * (1.0 + 4 * EPS)
    return SeriesEnclosure(lo, hi, s.terms)


def k_additive(beta, tol: float = 1e-12, exact: bool = False) -> SeriesEnclosure:
    """Certified enclosure of the additive stability constant."""
    return _k_enclosure(beta, additive_defect_factor, tol, exact)


def k_quadratic(beta, tol: float = 1e-12, exact: bool = False) -> SeriesEnclosure:
    """Certified enclosure of the quadratic stability constant."""
    return _k_enclosure(beta, quadratic_defect_factor, tol, exact)


def _quasi_enclosure(base: SeriesEnclosure, p: float) -> SeriesEnclosure:
    inv = 1.0 / p
    lo = base.lower ** inv * (1.0 - 4 * EPS)
    hi = base.upper ** inv * (1.0 + 4 * EPS)
    return SeriesEnclosure(lo, hi, base.terms)


def k_additive_quasi(p: float, rel_tol: float = 1e-12) -> SeriesEnclosure:
    """Enclosure of k_additive(p)^(1/p); width is relative (see rel_tol)."""
    if not (0 < p <= 1):
        raise ConfigurationError(f"quasi exponent p must lie in (0, 1], got {p!r}")
    rough = k_additive(p, tol=1e-6)
    return _quasi_enclosure(k_additive(p, tol=max(rel_tol * p * rough.lower * 0.5, 1e-13)), p)


def k_quadratic_quasi(p: float, rel_tol: float = 1e-12) -> SeriesEnclosure:
    """Enclosure of k_quadratic(p)^(1/p); width is relative (see rel_tol)."""
    if not (0 < p <= 1):
        raise ConfigurationError(f"quasi exponent p must lie in (0, 1], got {p!r}")
    rough = k_quadratic(p, tol=1e-6)
    return _quasi_enclosure(k_quadratic(p, tol=max(rel_tol * p * rough.lower * 0.5, 1e-13)), p)


# ---------------------------------------------------------------------------
# defect expressions


def _jensen_rows(xs, ys, quadratic: bool):
    """(rows, parts): the stack a Jensen defect evaluates its map at, for stacks xs, ys.

    rows holds (x + y)/2, for the quadratic equation also (x - y)/2, then x
    and y: parts blocks of one row per pair.
    """
    half = Fraction(1, 2) if vec.is_exact(xs) else 0.5
    mids = [half * (xs + ys)] + ([half * (xs - ys)] if quadratic else [])
    return np.concatenate(mids + [xs, ys]), len(mids) + 2


def _jensen_expression(values, parts: int):
    """2 f((x+y)/2) [+ 2 f((x-y)/2)] - (f(x) + f(y)), from values at _jensen_rows."""
    *mids, fx, fy = np.split(values, parts)
    two = Fraction(2) if values.dtype == object else 2.0
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


@dataclass
class CheckRow:
    name: str
    bound: object
    max_value: object
    ok: bool
    witness: object = None
    checked: int = 0

    def to_dict(self) -> dict:
        from .reporting import jsonable

        return {
            "name": self.name,
            "bound": jsonable(self.bound),
            "max_value": jsonable(self.max_value),
            "ok": self.ok,
            "witness": jsonable(self.witness),
            "checked": self.checked,
        }


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
        from .reporting import jsonable

        return {
            "equation": self.equation,
            "epsilon": jsonable(self.epsilon),
            "beta": jsonable(self.beta),
            "defect_bound": jsonable(self.defect_bound),
            "premises_ok": self.premises_ok,
            "chain_ok": self.chain_ok,
            "certified": self.certified,
            "premise_rows": [r.to_dict() for r in self.premise_rows],
            "chain_rows": [r.to_dict() for r in self.chain_rows],
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


def _value_at_zero(f, epsilon, inv_two_b, gauge: Gauge, dim: int, exact: bool) -> CheckRow:
    zero = vec.vzero(dim, exact)
    v0 = gauge.evaluate(f(zero))
    bound = epsilon * inv_two_b
    return CheckRow(
        name="value-at-zero", bound=bound, max_value=v0, ok=v0 <= bound, witness=zero, checked=1
    )


def _pows(beta, exact):
    """(2^b, 2^-b) in the right scalar type."""
    if exact:
        if beta != 1:
            raise ConfigurationError("exact chain factors need beta = 1")
        return Fraction(2), Fraction(1, 2)
    b = float(beta)
    return 2.0 ** b, 2.0 ** -b


def _pair_stacks(pairs):
    """The first and the second members of a list of pairs, as two stacks."""
    return vec.stack([x for x, _ in pairs]), vec.stack([y for _, y in pairs])


def _derivation_inputs(points, pairs):
    """(stack of points, exact, stacks of the first and of the second pair members)."""
    if len(points) == 0 or len(pairs) == 0:
        raise InputError("defect derivation needs nonempty points and pairs")
    stack = vec.stack(points)
    return (stack, vec.is_exact(stack), *_pair_stacks(pairs))


def _chain_values(f, gauge: Gauge, expressions, stack) -> np.ndarray:
    """Gauge values of per-point expressions, one row per expression.

    expressions(fp, fm) gives the expression stacks for a block of points from
    fp and fm, the values f(s x) and f(-s x) for s = 1/2, 1, 2, 4, which one
    map call computes.
    """

    def block(points):
        fp, fm = _at_scales(f, points, (-1, 0, 1, 2))
        return np.stack([gauge.evaluate(e) for e in expressions(fp, fm)], axis=1)

    return _blockwise(block, stack).T


def derive_defect_bound_additive(f, epsilon, beta, gauge: Gauge, points, pairs) -> DefectDerivation:
    """Check the additive premises and walk the chain to the defect bound.

    points: sample vectors for the per-point inequalities; pairs: orthogonal
    pairs for the Jensen premise. The derived bound is
    additive_defect_factor(beta) * epsilon; it is certified only if every
    premise row passed, and the derivation says so rather than assuming it.
    Each row evaluates its inequality on stacks of samples.
    """
    stack, exact, xs, ys = _derivation_inputs(points, pairs)
    two_b, inv_two_b = _pows(beta, exact)
    one, two, three, eight = (Fraction(k) for k in (1, 2, 3, 8)) if exact else (1.0, 2.0, 3.0, 8.0)

    def expressions(fp, fm):
        (f_half, f1, f2, f4), (_, f_neg, _, f_neg4) = fp, fm
        return (
            f1 + f_neg,
            two * f_half - f1,
            two * f1 - f2,
            three * f4 - eight * f2 - f_neg4,
            three_eighths_expression(f2, f4, f_neg4, exact),
        )

    premise = jensen_additive_defect(f, xs, ys, gauge)
    oddness, halving, doubling, combination, defect = _chain_values(f, gauge, expressions, stack)
    C = additive_defect_factor(beta, exact) * epsilon
    d = DefectDerivation(
        equation="jensen-additive", epsilon=epsilon, beta=beta, defect_bound=C
    )
    d.premise_rows.append(_max_row("jensen-additive-premise", epsilon, premise, pairs))
    d.premise_rows.append(_max_row("oddness-premise", epsilon, oddness, points))
    d.chain_rows.append(_value_at_zero(f, epsilon, inv_two_b, gauge, stack.shape[1], exact))
    halving_bound = (inv_two_b + one) * epsilon
    d.chain_rows.append(_max_row("halving", halving_bound, halving, points))
    d.chain_rows.append(_max_row("doubling", halving_bound, doubling, points))
    comb_bound = (one + two_b + two_b ** 2 + two_b ** 3 + two_b ** 4) * epsilon
    d.chain_rows.append(_max_row("fourth-scale-combination", comb_bound, combination, points))
    d.chain_rows.append(_max_row("three-eighths-defect", C, defect, points))
    return d


def derive_defect_bound_quadratic(f, epsilon, beta, gauge: Gauge, points, pairs) -> DefectDerivation:
    """Quadratic analog of derive_defect_bound_additive.

    pairs must include (0, 0), (0, x), (x, 0) style degenerate pairs (the
    runner guarantees this); the chain inequalities lean on them.
    """
    stack, exact, xs, ys = _derivation_inputs(points, pairs)
    two_b, inv_two_b = _pows(beta, exact)
    one, two, three, four, eight = (
        (Fraction(k) for k in (1, 2, 3, 4, 8)) if exact else (1.0, 2.0, 3.0, 4.0, 8.0)
    )

    def expressions(fp, fm):
        (f_half, f1, f2, f4), (f_neg_half, f_neg, _, f_neg4) = fp, fm
        return (
            two * f_half + two * f_neg_half - f1,
            four * f_half - f1,
            f1 - f_neg,
            three * f4 - eight * f2 - f_neg4,
            three_eighths_expression(f2, f4, f_neg4, exact),
        )

    premise = jensen_quadratic_defect(f, xs, ys, gauge)
    halving_sum, halving_even, evenness, combination, defect = _chain_values(
        f, gauge, expressions, stack
    )
    C = quadratic_defect_factor(beta, exact) * epsilon
    d = DefectDerivation(
        equation="jensen-quadratic", epsilon=epsilon, beta=beta, defect_bound=C
    )
    d.premise_rows.append(_max_row("jensen-quadratic-premise", epsilon, premise, pairs))
    d.chain_rows.append(_value_at_zero(f, epsilon, inv_two_b, gauge, stack.shape[1], exact))
    halving_bound = (inv_two_b + one) * epsilon
    d.chain_rows.append(_max_row("halving-sum", halving_bound, halving_sum, points))
    d.chain_rows.append(_max_row("halving-even", halving_bound, halving_even, points))
    evenness_bound = two * inv_two_b * (inv_two_b + one) * epsilon
    d.chain_rows.append(_max_row("evenness-defect", evenness_bound, evenness, points))
    comb_bound = (one + two_b + two * inv_two_b + two * inv_two_b ** 2) * epsilon
    d.chain_rows.append(_max_row("fourth-scale-combination", comb_bound, combination, points))
    d.chain_rows.append(_max_row("three-eighths-defect", C, defect, points))
    return d


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

    def to_dict(self) -> dict:
        from .reporting import jsonable

        return {
            "n": self.n,
            "max_defect": jsonable(self.max_defect),
            "max_slack": jsonable(self.max_slack),
            "pairs_checked": self.pairs_checked,
            "bound": jsonable(self.bound),
            "ok": self.ok,
        }


def verify_conclusion(
    evaluator: CorrectorEvaluator,
    equation: str,
    relation: OrthoRelation,
    pairs,
    gauge: Gauge,
) -> ConclusionCheck:
    """Max Jensen defect of the finite-n corrector over orthogonal pairs.

    Also returns the rounding envelope: per coordinate, OPS_ENVELOPE * eps *
    (sum of contributing term magnitudes), pushed through the gauge. Every
    shipped gauge is monotone in coordinate-wise magnitude and subadditive, so
    computed_defect <= true_defect + slack to first order. Exact backend runs
    carry slack 0.
    """
    if equation not in EQUATIONS:
        raise ConfigurationError(f"unknown equation {equation!r}")
    if len(pairs) == 0:
        raise InputError("verify_conclusion needs at least one pair")
    for x, y in pairs:
        if not relation.is_orthogonal(x, y):
            raise InputError(f"pair is not orthogonal under {relation.kind}: {x!r}, {y!r}")
    xs, ys = _pair_stacks(pairs)
    exact = vec.is_exact(xs)
    additive = equation == "jensen-additive"

    def block(xb, yb):
        """(defect, slack) for each pair of a block."""
        rows, parts = _jensen_rows(xb, yb, quadratic=not additive)
        values, mags = evaluator.value_and_magnitude(rows)
        defects = gauge.evaluate(_jensen_expression(values, parts))
        if exact:
            return np.stack([defects, vec.zeros(defects.shape, exact)], axis=1)
        *gm, gx, gy = np.split(mags, parts)
        mag = 2.0 * gm[0] + gx + gy if additive else 2.0 * gm[0] + 2.0 * gm[1] + gx + gy
        return np.stack([defects, gauge.evaluate(OPS_ENVELOPE * EPS * mag)], axis=1)

    defects, slacks = _blockwise(block, xs, ys).T
    zero = Fraction(0) if exact else 0.0
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

    def to_dict(self) -> dict:
        from .reporting import jsonable

        return {
            "n_low": self.n_low,
            "n_high": self.n_high,
            "max_gap": jsonable(self.max_gap),
            "bound": jsonable(self.bound),
            "ok": self.ok,
            "points_checked": self.points_checked,
        }


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
    exact = vec.is_exact(stack)
    worst = max([Fraction(0) if exact else 0.0] + gaps.tolist())
    if exact:
        total = sum(cauchy_gap(m, beta, exact=True) for m in range(n_low, n_high))
    else:
        total = math.fsum(cauchy_gap(m, beta) for m in range(n_low, n_high))
        total *= 1.0 + 16 * EPS
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
    epsilon: object = None
    sample_count: int = 1000
    pair_count: int = 1000
    n_max: int = 20
    seed: int = 0
    mode: str = "float64"
    quasi_corollary: bool = False
    conclusion_pairs: int = 100
    uniqueness_points: int = 50
    point_scale: float = 1.0

    def __post_init__(self):
        if self.equation not in EQUATIONS:
            raise ConfigurationError(
                f"stability.equation must be one of {EQUATIONS}, got {self.equation!r}"
            )
        if self.mode not in ("float64", "exact-rational"):
            raise ConfigurationError(
                f"stability.mode must be float64 or exact-rational, got {self.mode!r}"
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
        counts = (self.sample_count, self.pair_count, self.conclusion_pairs, self.uniqueness_points)
        if min(counts) < 1:
            raise ConfigurationError(
                "sample_count, pair_count, conclusion_pairs and uniqueness_points must be >= 1"
            )
        if self.n_max < 1:
            raise ConfigurationError(f"stability.n_max must be >= 1, got {self.n_max}")
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
            if not (0 < float(self.beta) <= 1):
                raise ConfigurationError(
                    f"stability.beta must lie in (0, 1], got {self.beta!r}"
                )
        if self.mode == "exact-rational":
            if float(self.beta) != 1:
                raise ConfigurationError("exact-rational runs need beta = 1")
            if not self.gauge.supports_exact:
                raise ConfigurationError(
                    f"gauge {self.gauge.describe()} has no exact evaluation"
                )
            if self.relation.kind == "isosceles":
                raise ConfigurationError("isosceles sampling is float-only")

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
        exact = self.mode == "exact-rational"
        b = self.work_beta
        if self.epsilon is not None:
            eps = self.epsilon
            if self.quasi_corollary:
                return float(eps) ** float(self.gauge.p), delta
            return eps, delta
        if exact:
            factor = Fraction(4) if self.equation == "jensen-additive" else Fraction(6)
            return factor * Fraction(delta), delta
        two_b = 2.0 ** float(b)
        factor = two_b + 2.0 if self.equation == "jensen-additive" else 2.0 * two_b + 2.0
        return factor * float(delta), delta


@dataclass
class SampleRow:
    point: object
    value: object
    bound: object
    ratio: object
    residual: object
    within: bool

    def to_dict(self) -> dict:
        from .reporting import jsonable

        return {
            "point": jsonable(self.point),
            "value": jsonable(self.value),
            "bound": jsonable(self.bound),
            "ratio": jsonable(self.ratio),
            "residual": jsonable(self.residual),
            "within": self.within,
        }


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
        from .reporting import jsonable

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
            "conclusion": self.conclusion.to_dict(),
            "uniqueness": self.uniqueness.to_dict(),
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


def _sample_points(config: StabilityConfig, seed) -> list:
    """Corrector sample points: doubled seeded draws (the bounds certify at 2x)."""
    rng = np.random.default_rng(seed)
    exact = config.mode == "exact-rational"
    d = config.dimension
    points = []
    for _ in range(config.sample_count):
        if exact:
            num = rng.integers(-4096, 4097, size=d)
            z = tuple(Fraction(int(n), 256) for n in num)
            points.append(vec.vscale(Fraction(2), z))
        else:
            z = config.point_scale * rng.normal(size=d)
            points.append(2.0 * z)
    return points


def run_stability(config: StabilityConfig, f=None) -> StabilityReport:
    """Run the full pipeline: premises, chain, per-sample bounds, conclusion.

    f defaults to the map built from config.map_spec under the working gauge.
    Deterministic given the config: sampling runs on spawned child seeds in a
    fixed order and reductions are sequential.
    """
    exact = config.mode == "exact-rational"
    work_gauge = config.work_gauge()
    beta = config.work_beta
    if f is None:
        f = build_map(config.map_spec, work_gauge)
    elif f.scalar_backend != config.map_spec.backend:
        raise ConfigurationError("map backend does not match config mode")
    eps, delta = config.resolve_epsilon()
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    pairs = sample_orthogonal_pairs(
        config.relation, config.pair_count, seed=seeds[0], exact=exact
    )
    points = _sample_points(config, seeds[1])
    if config.equation == "jensen-quadratic":
        zero = vec.vzero(config.dimension, exact)
        pairs = [(zero, zero), (zero, points[0]), (points[0], zero)] + pairs
        derivation = derive_defect_bound_quadratic(f, eps, beta, work_gauge, points, pairs)
        k_enc = k_quadratic(beta, exact=exact)
    else:
        derivation = derive_defect_bound_additive(f, eps, beta, work_gauge, points, pairs)
        k_enc = k_additive(beta, exact=exact)
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
            ratio = (Fraction(0) if exact else 0.0) if value <= residual else float("inf")
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
    ten = Fraction(10) if exact else 10.0
    conclusion.bound = cauchy_gap(config.n_max, beta, exact) * eps + ten * conclusion.max_slack
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
