"""Corrector sequence machinery.

For a map f the n-th corrector term at x is

    corrector_term(f, x, n) = c_plus(n) * f(2^n x) - c_minus(n) * f(-2^n x)

with c_plus(n) = (2^n + 1) / 2^(2n+1) and c_minus(n) = (2^n - 1) / 2^(2n+1).
The sequence is stationary on maps that are additive and odd (where it equals
f itself) and on maps that are quadratic and even, and it contracts toward a
nearby such map whenever the three-eighths defect

    three_eighths_defect(f, x) = gauge(f(2x) - 3/8 f(4x) + 1/8 f(-4x))

is uniformly small: consecutive terms differ by at most that defect bound
times

    cauchy_gap(n, beta) = c_plus(n)^beta + c_minus(n)^beta

under a beta-homogeneous gauge. Summing the gaps gives the certified series
enclosure gap_series(beta), whose tail bounds the distance from the n-th term
to the limit. Everything here works on both scalar backends; beta must be 1
for exact-rational work since other powers leave the rationals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, InputError, PrecisionWarning, RangeError
from .gauges import Gauge
from .maps import evaluate_stack
from . import vectors as vec

EPS = sys.float_info.epsilon

# Multiplier on machine epsilon for first-order rounding envelopes; generous
# for the handful of flops behind each combined evaluation.
OPS_ENVELOPE = 64

# Above this n, float64 corrector terms of quadratically growing maps lose
# roughly n bits to cancellation (coefficients ~2^-n against values ~4^n).
N_CANCEL_DEFAULT = 20


def coefficients(n: int, exact: bool = False):
    """(c_plus(n), c_minus(n)); both exact dyadics in either backend for n <= 52."""
    if n < 1:
        raise InputError(f"corrector index must be >= 1, got {n}")
    if exact:
        den = 2 ** (2 * n + 1)
        return Fraction(2 ** n + 1, den), Fraction(2 ** n - 1, den)
    den = 2.0 ** (2 * n + 1)
    return (2.0 ** n + 1.0) / den, (2.0 ** n - 1.0) / den


def _three_eighths(exact: bool):
    if exact:
        return Fraction(3, 8), Fraction(1, 8)
    return 0.375, 0.125


def three_eighths_expression(f2, f4, fm4, exact: bool):
    """f(2x) - 3/8 f(4x) + 1/8 f(-4x) from the three values, row by row."""
    a, b = _three_eighths(exact)
    return (f2 - a * f4) + b * fm4


def _at_scales(f, points, ks):
    """(f(2^k x), f(-2^k x)) for k in ks and x in points, from one map call.

    Both are (len(ks), N, m) arrays. The scalings 2^k are exact in both
    backends.
    """
    exact = vec.is_exact(points)
    scales = np.array(
        [Fraction(2) ** k if exact else 2.0 ** k for k in ks], dtype=points.dtype
    )
    rows = (scales[:, None, None] * points).reshape(-1, points.shape[1])
    values = evaluate_stack(f, np.concatenate([rows, -rows]))
    values = values.reshape(2, len(ks), len(points), -1)
    return values[0], values[1]


def _coefficient_columns(ns, exact: bool):
    """(c_plus, c_minus) for each n in ns, as columns that scale the rows of a stack."""
    c = np.array([coefficients(n, exact) for n in ns], dtype=object if exact else np.float64)
    return c[:, :1], c[:, 1:]


def three_eighths_defect(f, x, gauge: Gauge):
    """gauge(f(2x) - 3/8 f(4x) + 1/8 f(-4x)), the contraction hypothesis at x.

    x is a point or a stack of points; a stack gives one value per row.
    """
    points, single = vec.as_stack(x)
    fp, fm = _at_scales(f, points, (1, 2))
    expr = three_eighths_expression(fp[0], fp[1], fm[1], vec.is_exact(points))
    return gauge.evaluate(vec.unstack(expr, single))


def corrector_term(f, x, n: int, n_cancel: int = N_CANCEL_DEFAULT, warn: bool = True):
    """c_plus(n) f(2^n x) - c_minus(n) f(-2^n x), at a point or each row of a stack.

    Emits PrecisionWarning when a float64 quadratically growing map is pushed
    past n_cancel, where cancellation costs about n bits.
    """
    if (
        warn
        and not vec.is_exact(x)
        and getattr(f, "growth_hint", "unknown") == "quadratic"
        and n > n_cancel
    ):
        import warnings

        warnings.warn(
            f"corrector term n={n} beyond cancellation budget {n_cancel} for a "
            "quadratically growing float64 map",
            PrecisionWarning,
            stacklevel=2,
        )
    return CorrectorEvaluator(f, n).value(x)


def corrector_residual(f, x, n: int, gauge: Gauge):
    """gauge(f(2x) - g_n(2x)) where g_n is the n-th corrector term.

    Expanded, this is gauge(f(2x) - c_plus(n) f(2^(n+1) x) + c_minus(n) f(-2^(n+1) x));
    at n = 1 it coincides with the three-eighths defect at x.
    """
    points, single = vec.as_stack(x)
    cp, cm = coefficients(n, vec.is_exact(points))
    fp, fm = _at_scales(f, points, (1, n + 1))
    return gauge.evaluate(vec.unstack((fp[0] - cp * fp[1]) + cm * fm[1], single))


def cauchy_gap(n: int, beta, exact: bool = False):
    """Gap coefficient c_plus(n)^beta + c_minus(n)^beta; equals 2^-n at beta = 1."""
    if exact:
        if beta != 1:
            raise ConfigurationError("exact cauchy_gap needs beta = 1")
        return Fraction(1, 2 ** n)
    cp, cm = coefficients(n, exact=False)
    b = float(beta)
    return cp ** b + cm ** b


@dataclass(frozen=True)
class SeriesEnclosure:
    """Certified interval [lower, upper] containing the series value."""

    lower: object
    upper: object
    terms: int

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def midpoint(self):
        return (self.upper + self.lower) / 2


def gap_tail_bound(n_start: int, beta, exact: bool = False):
    """Upper bound for sum of cauchy_gap(m, beta) over m >= n_start.

    Elementary majorant from c_plus(m), c_minus(m) <= 2^-m:
    tail <= 2 * 2^(-n_start*beta) / (1 - 2^-beta). At beta = 1 the majorant is
    tight termwise and the tail is exactly 2^(1 - n_start).
    """
    if n_start < 1:
        raise InputError(f"tail start must be >= 1, got {n_start}")
    if exact:
        if beta != 1:
            raise ConfigurationError("exact tail bound needs beta = 1")
        return Fraction(2, 2 ** n_start)
    b = float(beta)
    if b <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta!r}")
    if b == 1.0:
        return 2.0 ** (1 - n_start)
    r = 2.0 ** -b
    return 2.0 * (2.0 ** (-n_start * b)) / (1.0 - r)


def gap_series(beta, tol: float = 1e-12, exact: bool = False) -> SeriesEnclosure:
    """Certified enclosure of sum of cauchy_gap(n, beta) over n >= 1.

    Terms are summed until the geometric tail majorant drops below tol/2;
    the upper end carries the tail plus a summation rounding pad. The exact
    backend (beta = 1) returns [1 - 2^-N, 1] since the majorant is tight there.
    """
    if tol <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tol!r}")
    if exact:
        if beta != 1:
            raise ConfigurationError("exact gap_series needs beta = 1")
        n_terms = max(1, math.ceil(-math.log2(min(tol, 1.0))))
        partial = 1 - Fraction(1, 2 ** n_terms)
        return SeriesEnclosure(partial, Fraction(1), n_terms)
    b = float(beta)
    if b <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta!r}")
    terms = []
    n = 1
    while gap_tail_bound(n, b) > tol / 2:
        terms.append(cauchy_gap(n, b))
        n += 1
        if n > 200_000:
            raise ConfigurationError(f"tolerance {tol!r} unreachable in float64 at beta={beta!r}")
    partial = math.fsum(terms)
    tail = gap_tail_bound(n, b)
    pad = 16 * EPS * max(1.0, partial)
    if tail + pad > tol:
        raise ConfigurationError(f"tolerance {tol!r} unreachable in float64 at beta={beta!r}")
    return SeriesEnclosure(partial, partial + tail + pad, n - 1)


def scale_table(f, x, k_max: int):
    """(fp, fm) with fp[k] = f(2^k x) and fm[k] = f(-2^k x), k = 0..k_max.

    Both are (k_max + 1, m) stacks, evaluated in one map call.
    """
    points = vec.stack(x)
    fp, fm = _at_scales(f, points, range(k_max + 1))
    fp, fm = fp[:, 0], fm[:, 0]
    if not vec.is_exact(points):
        finite = np.isfinite(fp).all(axis=-1) & np.isfinite(fm).all(axis=-1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise RangeError(f"map value left float64 range at scale 2^{k} of x={x!r}")
    return fp, fm


def _scale_defects(fp, fm, gauge: Gauge, exact: bool):
    """Three-eighths defects at +/-2^(k-1)x with their rounding envelopes.

    fp, fm is a scale table; k runs from 1 to len(fp) - 2. Returns (defects,
    slacks), two arrays with one row per k and one column per sign, + then
    -. The slack is a first-order rounding envelope, OPS_ENVELOPE * eps * the
    coordinate-wise magnitude sum pushed through the gauge; it is what the
    computed defect can deviate from the true one by. Zero on the exact
    backend. At scales where the base map values dwarf the defect the
    envelope exceeds the defect itself, and a comparison against a bound is
    only decidable outside the envelope.
    """
    plus = three_eighths_expression(fp[1:-1], fp[2:], fm[2:], exact)
    minus = three_eighths_expression(fm[1:-1], fm[2:], fp[2:], exact)
    defects = gauge.evaluate(np.stack([plus, minus], axis=1))
    if exact:
        return defects, vec.zeros(defects.shape, exact)
    a, b = _three_eighths(exact)
    ap, am = np.abs(fp), np.abs(fm)
    mag_p = ap[1:-1] + a * ap[2:] + b * am[2:]
    mag_m = am[1:-1] + a * am[2:] + b * ap[2:]
    return defects, gauge.evaluate(OPS_ENVELOPE * EPS * np.stack([mag_p, mag_m], axis=1))


def _classify(defects, slacks, bound):
    """(violations, indeterminate) among the defects of _scale_defects.

    A defect above bound + slack is a certain violation, listed as (k, sign,
    defect); one inside (bound, bound + slack] is indeterminate, listed as
    (k, sign, defect, slack). Both lists run in order of k, + before -.
    """
    over = defects > bound + slacks
    unsure = ~over & (defects > bound)
    d, s = defects.tolist(), slacks.tolist()
    violations = [(k + 1, "+-"[j], d[k][j]) for k, j in np.argwhere(over).tolist()]
    indeterminate = [(k + 1, "+-"[j], d[k][j], s[k][j]) for k, j in np.argwhere(unsure).tolist()]
    return violations, indeterminate


@dataclass
class CorrectorTrace:
    """Per-point record of a corrector run: terms, defects, guards, residual."""

    point: object
    n_max: int
    defect_bound: object
    residual_bound: object
    terms: object = None  # stack of g_1 .. g_(n_max)
    defects: list = field(default_factory=list)  # three-eighths defect at +2^(n-1)x
    hypothesis_ok: bool = True
    hypothesis_violations: list = field(default_factory=list)  # (k, sign, defect value)
    # Scales where the bound comparison fell inside the rounding envelope:
    # (k, sign, defect, slack). Not violations; undecidable at this precision.
    indeterminate_scales: list = field(default_factory=list)
    precision_warnings: list = field(default_factory=list)

    @property
    def rows(self) -> list:
        """(n, g_n, defect at +2^(n-1)x) for n = 1..n_max."""
        return [
            (n, vec.point_form(g), d)
            for n, (g, d) in enumerate(zip(self.terms, self.defects), start=1)
        ]

    def to_dict(self) -> dict:
        from .reporting import jsonable

        return {
            "point": jsonable(self.point),
            "n_max": self.n_max,
            "defect_bound": jsonable(self.defect_bound),
            "residual_bound": jsonable(self.residual_bound),
            "hypothesis_ok": self.hypothesis_ok,
            "hypothesis_violations": jsonable(self.hypothesis_violations),
            "indeterminate_scales": jsonable(self.indeterminate_scales),
            "precision_warnings": list(self.precision_warnings),
            "rows": [
                {"n": n, "term": jsonable(g), "defect": jsonable(d)} for n, g, d in self.rows
            ],
        }


def corrector_limit(
    f,
    x,
    beta,
    defect_bound,
    gauge: Gauge,
    n_max: int,
    n_cancel: int = N_CANCEL_DEFAULT,
):
    """Run the corrector to index n_max and certify the truncation debt.

    Returns (g, trace) where g is the n_max-th corrector term. The residual
    bound defect_bound * gap_tail_bound(n_max, beta) bounds the distance from
    g to the limit map, provided the three-eighths defect stays within
    defect_bound at every scale, not only the finitely many checked here. The
    trace records the defects at the scales actually touched (both signs) and
    flags violations instead of assuming them away. Each float comparison
    carries the rounding envelope from _scale_defects: a defect above
    bound + slack is a certain violation; one inside (bound, bound + slack]
    is recorded as indeterminate, since at large scales the cancellation
    residue of the base map exceeds anything the comparison could detect.
    The exact backend has slack 0 and decides every scale.
    """
    if n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    exact = vec.is_exact(x)
    fp, fm = scale_table(f, x, n_max + 1)
    defects, slacks = _scale_defects(fp, fm, gauge, exact)
    violations, indeterminate = _classify(defects, slacks, defect_bound)
    cp, cm = _coefficient_columns(range(1, n_max + 1), exact)
    trace = CorrectorTrace(
        point=x,
        n_max=n_max,
        defect_bound=defect_bound,
        residual_bound=defect_bound * gap_tail_bound(n_max, beta, exact),
        terms=cp * fp[1:-1] - cm * fm[1:-1],
        defects=defects[:, 0].tolist(),
        hypothesis_ok=not violations,
        hypothesis_violations=violations,
        indeterminate_scales=indeterminate,
    )
    if (
        not exact
        and getattr(f, "growth_hint", "unknown") == "quadratic"
        and n_max > n_cancel
    ):
        trace.precision_warnings.append(
            f"n_max={n_max} beyond cancellation budget {n_cancel} for a quadratically "
            "growing float64 map; trailing digits are rounding-dominated"
        )
    return vec.point_form(trace.terms[-1]), trace


class CorrectorEvaluator:
    """Fixed-n corrector as a map, with term magnitudes for rounding envelopes.

    Takes a point or a stack of points, like the map it corrects.
    """

    def __init__(self, f, n: int):
        if n < 1:
            raise InputError(f"corrector index must be >= 1, got {n}")
        self.f = f
        self.n = n

    def _terms(self, z):
        points, single = vec.as_stack(z)
        cp, cm = coefficients(self.n, vec.is_exact(points))
        fp, fm = _at_scales(self.f, points, (self.n,))
        return cp * fp[0], cm * fm[0], single

    def value(self, z):
        tp, tm, single = self._terms(z)
        return vec.unstack(tp - tm, single)

    def value_and_magnitude(self, z):
        """(corrector value, coordinate-wise sum of |term| magnitudes)."""
        tp, tm, single = self._terms(z)
        return vec.unstack(tp - tm, single), vec.unstack(np.abs(tp) + np.abs(tm), single)

    def __call__(self, z):
        return self.value(z)


@dataclass
class GapBoundRow:
    n: int
    residual: object          # corrector_residual at this n
    residual_next: object
    residual_step: object     # |residual(n+1) - residual(n)|
    term_gap: object          # gauge(g_n - g_(n+1))
    gap_bound: object         # defect_bound * cauchy_gap(n, beta)
    level_bound: object       # defect_bound * (series upper + 1)
    step_ok: bool = True
    term_ok: bool = True
    level_ok: bool = True


@dataclass
class GapBoundReport:
    point: object
    defect_bound: object
    hypothesis_ok: bool
    hypothesis_violations: list
    hypothesis_indeterminate: list
    rows: list

    @property
    def all_ok(self) -> bool:
        return all(r.step_ok and r.term_ok and r.level_ok for r in self.rows)


def check_gap_bounds(f, x, n_values, defect_bound, beta, gauge: Gauge) -> GapBoundReport:
    """Check the telescoping inequalities behind the corrector convergence.

    For each n in n_values: the residual step |r(n+1) - r(n)| and the term gap
    gauge(g_n - g_(n+1)) must both stay within defect_bound * cauchy_gap(n),
    and the residual level within defect_bound * (gap_series upper + 1). The
    comparisons are exact in the rational backend. The hypothesis (defects at
    the touched scales within defect_bound) is recorded, not assumed.
    """
    if not n_values:
        raise InputError("n_values must be nonempty")
    ns = sorted(n_values)
    exact = vec.is_exact(x)
    fp, fm = scale_table(f, x, ns[-1] + 2)
    violations, indeterminate = _classify(*_scale_defects(fp, fm, gauge, exact), defect_bound)
    series_upper = gap_series(beta, exact=exact).upper
    level_cap = defect_bound * (series_upper + 1)
    # levels n, then n + 1, for each n; r(n) = gauge(f(2x) - g_n(2x))
    levels = np.array(ns + [n + 1 for n in ns])
    cp, cm = _coefficient_columns(levels.tolist(), exact)
    terms = cp * fp[levels] - cm * fm[levels]
    residuals = gauge.evaluate((fp[1] - cp * fp[levels + 1]) + cm * fm[levels + 1]).tolist()
    term_gaps = gauge.evaluate(terms[: len(ns)] - terms[len(ns) :]).tolist()
    rows = []
    for n, r_n, r_n1, term_gap in zip(ns, residuals, residuals[len(ns) :], term_gaps):
        step = abs(r_n1 - r_n)
        bound = defect_bound * cauchy_gap(n, beta, exact)
        rows.append(
            GapBoundRow(
                n=n,
                residual=r_n,
                residual_next=r_n1,
                residual_step=step,
                term_gap=term_gap,
                gap_bound=bound,
                level_bound=level_cap,
                step_ok=step <= bound,
                term_ok=term_gap <= bound,
                level_ok=r_n <= level_cap,
            )
        )
    return GapBoundReport(
        point=x,
        defect_bound=defect_bound,
        hypothesis_ok=not violations,
        hypothesis_violations=violations,
        hypothesis_indeterminate=indeterminate,
        rows=rows,
    )
