"""Corrector sequence machinery.

For a map f the n-th corrector term at x is

    g_n(x) = c_plus(n) * f(2^n x) - c_minus(n) * f(-2^n x)

with c_plus(n) = (2^n + 1) / 2^(2n+1) and c_minus(n) = (2^n - 1) / 2^(2n+1);
CorrectorEvaluator computes it. The sequence is stationary on maps that are
additive and odd (where it equals f itself) and on maps that are quadratic and
even, and it contracts toward a nearby such map whenever the three-eighths
defect

    gauge(f(2x) - 3/8 f(4x) + 1/8 f(-4x))

is uniformly small: consecutive terms differ by at most that defect bound
times

    cauchy_gap(n, beta) = c_plus(n)^beta + c_minus(n)^beta

under a beta-homogeneous gauge. Summing the gaps gives the certified series
enclosure gap_series(beta), whose tail bounds the distance from the n-th term
to the limit. Each formula is written once: term_sum evaluates every sum of
c * f(sign 2^k x), such as the three-eighths defect THREE_EIGHTHS and its
magnitude; corrector_terms forms every corrector product; rounding_slack is
the one float rounding envelope. Everything here works on both scalar fields
(vectors.py): a function that holds a point reads the field off it, and one
that holds none takes a field, FLOAT64 by default.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, InputError, RangeError
from .gauges import Gauge
from .maps import evaluate_stack
from . import vectors as vec
from .vectors import FLOAT64, RATIONAL

EPS = sys.float_info.epsilon

# Multiplier on machine epsilon for first-order rounding envelopes; generous
# for the handful of flops behind each combined evaluation.
OPS_ENVELOPE = 64

# Above this n, float64 corrector terms of quadratically growing maps lose
# roughly n bits to cancellation (coefficients ~2^-n against values ~4^n).
N_CANCEL_DEFAULT = 20


# Every sample of a run asks for the same n = 1..n_max; the pairs are immutable.
@functools.lru_cache(maxsize=1024)
def coefficients(n: int, field=FLOAT64):
    """(c_plus(n), c_minus(n)) as (1 +- 2^-n) 2^-(n+1).

    Exact dyadics on both fields for n <= 52; float64 rounds 1 +- 2^-n once
    beyond that and never overflows.
    """
    if n < 1:
        raise InputError(f"corrector index must be >= 1, got {n}")
    t = field.const(2) ** -n
    return (1 + t) * (t / 2), (1 - t) * (t / 2)


def field_terms(terms, field) -> tuple:
    """(coefficient, k, sign) terms as term_sum takes them: each coefficient a scalar of field."""
    return tuple((field.const(c), k, sign) for c, k, sign in terms)


def term_sum(terms, fp, fm):
    """The sum of c * f(sign 2^k x) over field_terms (c, k, sign), left to right.

    fp[k] and fm[k] hold f(2^k x) and f(-2^k x); a scale table or a mapping
    from k serves. A coefficient of 1 adds the value itself, and a - b is
    summed as a + (-1) * b, which IEEE arithmetic rounds the same way.
    """
    total = None
    for c, k, sign in terms:
        t = (fp if sign == "+" else fm)[k]
        t = t if c == 1 else c * t
        total = t if total is None else total + t
    return total


# The three-eighths defect f(2x) - 3/8 f(4x) + 1/8 f(-4x) as (coefficient, k,
# sign) terms. Per field, its field_terms and those of its magnitude sum,
# the same terms over |c|, converted once rather than for every sample.
THREE_EIGHTHS = ((1, 1, "+"), (Fraction(-3, 8), 2, "+"), (Fraction(1, 8), 2, "-"))
_THREE_EIGHTHS_ON = {
    field: (
        field_terms(THREE_EIGHTHS, field),
        field_terms([(abs(c), k, sign) for c, k, sign in THREE_EIGHTHS], field),
    )
    for field in (FLOAT64, RATIONAL)
}


def rounding_slack(gauge: Gauge, values, magnitude):
    """OPS_ENVELOPE * eps * magnitude() pushed through the gauge, for each computed value.

    magnitude() sums the term magnitudes behind each value, coordinate-wise.
    Every shipped gauge is monotone in them and subadditive, so a computed
    value lies within this slack of the true one to first order. RATIONAL
    values are exact: their slack is zero, and magnitude is never called.
    """
    field = vec.field_of(values)
    if field is RATIONAL:
        return field.zeros(values.shape)
    return gauge.evaluate(OPS_ENVELOPE * EPS * magnitude())


def _at_scales(f, points, ks):
    """(f(2^k x), f(-2^k x)) for k in ks and x in points, from one map call.

    Both are (len(ks), N, m) arrays. The scalings 2^k are exact in both
    backends.
    """
    two = vec.field_of(points).const(2)
    scales = np.array([two ** k for k in ks], dtype=points.dtype)
    rows = (scales[:, None, None] * points).reshape(-1, points.shape[1])
    values = evaluate_stack(f, np.concatenate([rows, -rows]))
    values = values.reshape(2, len(ks), len(points), -1)
    return values[0], values[1]


def corrector_terms(ns, fp, fm):
    """(c_plus(n) f(2^n x), c_minus(n) f(-2^n x)) for each n in ns.

    fp and fm hold f(2^n x) and f(-2^n x) along axis 0, one entry per n; the
    corrector term g_n is the first minus the second.
    """
    field = vec.field_of(fp)
    c = np.array([coefficients(n, field) for n in ns], dtype=field.dtype)
    c = c.reshape(c.shape + (1,) * (fp.ndim - 1))
    return c[:, 0] * fp, c[:, 1] * fm


def cauchy_gap(n: int, beta, field=FLOAT64):
    """Gap coefficient c_plus(n)^beta + c_minus(n)^beta; equals 2^-n at beta = 1."""
    cp, cm = coefficients(n, field)
    b = field.beta(beta)
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


def gap_tail_bound(n_start: int, beta, field=FLOAT64):
    """Upper bound for sum of cauchy_gap(m, beta) over m >= n_start.

    Elementary majorant from c_plus(m), c_minus(m) <= 2^-m:
    tail <= 2 * 2^(-n_start*beta) / (1 - 2^-beta). At beta = 1 the majorant is
    tight termwise and the tail is exactly 2^(1 - n_start).
    """
    if n_start < 1:
        raise InputError(f"tail start must be >= 1, got {n_start}")
    b = field.beta(beta)
    if b <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta!r}")
    two = field.const(2)
    if b == 1:
        return two ** (1 - n_start)
    r = two ** -b
    return 2 * (two ** (-n_start * b)) / (1 - r)


def gap_series(beta, tol: float = 1e-12, field=FLOAT64) -> SeriesEnclosure:
    """Certified enclosure of sum of cauchy_gap(n, beta) over n >= 1.

    Terms are summed until the geometric tail majorant drops below tol/2;
    the upper end carries the tail plus a summation rounding pad. RATIONAL
    (beta = 1) returns [1 - 2^-N, 1] in closed form, since the majorant is
    tight there.
    """
    if tol <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tol!r}")
    b = field.beta(beta)
    if b <= 0:
        raise ConfigurationError(f"beta must be positive, got {beta!r}")
    if field is RATIONAL:
        n_terms = max(1, math.ceil(-math.log2(min(tol, 1.0))))
        return SeriesEnclosure(1 - field.const(1, 2 ** n_terms), field.const(1), n_terms)
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
    if vec.field_of(points) is FLOAT64:
        finite = np.isfinite(fp).all(axis=-1) & np.isfinite(fm).all(axis=-1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise RangeError(f"map value left float64 range at scale 2^{k} of x={x!r}")
    return fp, fm


def _both_signs(terms, table):
    """term_sum at +2^(k-1)x and at -2^(k-1)x for k = 1..len(table) - 2.

    table[k] holds (f(2^k x), f(-2^k x)); the result has one row per k and
    one column per sign, + then -.
    """
    flip = table[:, ::-1]
    return term_sum(terms, {1: table[1:-1], 2: table[2:]}, {1: flip[1:-1], 2: flip[2:]})


def _scale_defects(fp, fm, gauge: Gauge):
    """Three-eighths defects at +/-2^(k-1)x with their rounding envelopes.

    fp, fm is a scale table; k runs from 1 to len(fp) - 2. Returns (defects,
    slacks), two arrays with one row per k and one column per sign, + then
    -. The slack is rounding_slack over THREE_EIGHTHS summed on |c| and |f|:
    what the computed defect can deviate from the true one by. At scales
    where the base map values dwarf the defect the envelope exceeds the
    defect itself, and a comparison against a bound is only decidable outside
    the envelope.
    """
    terms, magnitude_terms = _THREE_EIGHTHS_ON[vec.field_of(fp)]
    table = np.stack([fp, fm], axis=1)
    defects = gauge.evaluate(_both_signs(terms, table))
    return defects, rounding_slack(gauge, defects, lambda: _both_signs(magnitude_terms, np.abs(table)))


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


def corrector_limit(
    f,
    x,
    beta,
    defect_bound,
    gauge: Gauge,
    n_max: int,
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
    RATIONAL has slack 0 and decides every scale.
    """
    if n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    field = vec.field_of(x)
    fp, fm = scale_table(f, x, n_max + 1)
    defects, slacks = _scale_defects(fp, fm, gauge)
    violations, indeterminate = _classify(defects, slacks, defect_bound)
    plus, minus = corrector_terms(range(1, n_max + 1), fp[1:-1], fm[1:-1])
    trace = CorrectorTrace(
        point=x,
        n_max=n_max,
        defect_bound=defect_bound,
        residual_bound=defect_bound * gap_tail_bound(n_max, beta, field),
        terms=plus - minus,
        defects=defects[:, 0].tolist(),
        hypothesis_ok=not violations,
        hypothesis_violations=violations,
        indeterminate_scales=indeterminate,
    )
    if (
        field is FLOAT64
        and getattr(f, "growth_hint", "unknown") == "quadratic"
        and n_max > N_CANCEL_DEFAULT
    ):
        trace.precision_warnings.append(
            f"n_max={n_max} beyond cancellation budget {N_CANCEL_DEFAULT} for a quadratically "
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
        tp, tm = corrector_terms((self.n,), *_at_scales(self.f, points, (self.n,)))
        return tp[0], tm[0], single

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
    residual: object          # gauge(f(2x) - g_n(2x))
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
    field = vec.field_of(x)
    fp, fm = scale_table(f, x, ns[-1] + 2)
    violations, indeterminate = _classify(*_scale_defects(fp, fm, gauge), defect_bound)
    series_upper = gap_series(beta, field=field).upper
    level_cap = defect_bound * (series_upper + 1)
    # levels n, then n + 1, for each n; r(n) = gauge(f(2x) - g_n(2x))
    levels = ns + [n + 1 for n in ns]
    at = np.array(levels)
    tp, tm = corrector_terms(levels, fp[at], fm[at])
    # g_n(2x) = c_plus(n) f(2^(n+1) x) - c_minus(n) f(-2^(n+1) x)
    rp, rm = corrector_terms(levels, fp[at + 1], fm[at + 1])
    residuals = gauge.evaluate((fp[1] - rp) + rm).tolist()
    terms = tp - tm
    term_gaps = gauge.evaluate(terms[: len(ns)] - terms[len(ns) :]).tolist()
    rows = []
    for n, r_n, r_n1, term_gap in zip(ns, residuals, residuals[len(ns) :], term_gaps):
        step = abs(r_n1 - r_n)
        bound = defect_bound * cauchy_gap(n, beta, field)
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
