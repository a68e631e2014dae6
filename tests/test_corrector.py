"""Corrector terms, gap coefficients, series enclosures, and the lemma checks.

The numeric oracles here were derived by hand with exact rational arithmetic:

  * the cubic t -> t^3 on the line has three-eighths defect |8 - 24 + (-8)| = 24
    at t = 1, and its n-th corrector term at 1 collapses to 4^n;
  * any odd additive map is a fixed point of every corrector term, as is any
    even quadratic map, because the coefficient pair (c_plus, c_minus) sums to
    2^-n and differs by 4^-n;
  * at homogeneity degree 1 the gap coefficient is exactly 2^-n, the tail from
    N is exactly 2^(1-N), and the full series sums to 1. At degree 2 the series
    telescopes to 1/6 + 1/30 = 1/5.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthostab import (
    ConfigurationError,
    CorrectorEvaluator,
    Gauge,
    InputError,
    RangeError,
    cauchy_gap,
    check_gap_bounds,
    coefficients,
    corrector_limit,
    corrector_residual,
    corrector_term,
    gap_series,
    gap_tail_bound,
    three_eighths_defect,
)
from orthostab.corrector import scale_table
from orthostab.errors import PrecisionWarning
from orthostab.stability import derive_defect_bound_additive
from orthostab.orthogonality import OrthoRelation, sample_orthogonal_pairs

ABS1 = Gauge(kind="beta-sum", beta=1.0)
ABS1_EXACT = Gauge(kind="beta-sum", beta=1)


def cubic_float(t):
    return np.array([float(t[0]) ** 3])


def cubic_exact(t):
    return (t[0] ** 3,)


class TestCoefficients:
    def test_exact_values(self):
        assert coefficients(1, exact=True) == (Fraction(3, 8), Fraction(1, 8))
        assert coefficients(2, exact=True) == (Fraction(5, 32), Fraction(3, 32))

    def test_float_matches_exact(self):
        for n in range(1, 30):
            cp, cm = coefficients(n)
            ep, em = coefficients(n, exact=True)
            assert cp == float(ep) and cm == float(em)

    def test_sum_and_difference_identities(self):
        for n in range(1, 20):
            cp, cm = coefficients(n, exact=True)
            assert cp + cm == Fraction(1, 2**n)
            assert cp - cm == Fraction(1, 4**n)

    def test_index_validation(self):
        with pytest.raises(InputError):
            coefficients(0)


class TestDefectAndTerms:
    def test_cubic_defect_oracle(self):
        assert three_eighths_defect(cubic_exact, (Fraction(1),), ABS1_EXACT) == 24
        assert three_eighths_defect(cubic_float, np.array([1.0]), ABS1) == 24.0

    def test_cubic_corrector_powers_of_four(self):
        for n in (1, 2, 3):
            val = corrector_term(cubic_exact, (Fraction(1),), n)
            assert val == (Fraction(4) ** n,)

    def test_linear_map_is_fixed_point(self):
        f = lambda t: (5 * t[0],)
        assert corrector_term(f, (Fraction(1),), 3) == (Fraction(5),)
        g = lambda t: np.array([5.0 * t[0]])
        assert corrector_term(g, np.array([1.0]), 3) == pytest.approx([5.0])

    def test_square_map_is_fixed_point(self):
        f = lambda t: (t[0] ** 2,)
        assert corrector_term(f, (Fraction(2),), 4) == (Fraction(4),)

    def test_residual_at_one_equals_defect(self):
        x = (Fraction(3, 2),)
        r1 = corrector_residual(cubic_exact, x, 1, ABS1_EXACT)
        assert r1 == three_eighths_defect(cubic_exact, x, ABS1_EXACT)

    def test_cross_backend_cubic_at_depth_eight(self):
        exact = corrector_term(cubic_exact, (Fraction(1),), 8)[0]
        assert exact == Fraction(65536)
        approx = corrector_term(cubic_float, np.array([1.0]), 8)[0]
        assert abs(approx - 65536.0) <= 1e-9

    def test_quadratic_growth_warning_past_budget(self):
        class Q:
            growth_hint = "quadratic"

            def __call__(self, t):
                return np.array([t[0] ** 2])

        with pytest.warns(PrecisionWarning):
            corrector_term(Q(), np.array([1.0]), 21)


class TestGapCoefficients:
    def test_exact_gap_is_two_to_minus_n(self):
        for n in (1, 2, 3, 10):
            assert cauchy_gap(n, 1, exact=True) == Fraction(1, 2**n)

    def test_float_gap_beta_one(self):
        assert cauchy_gap(3, 1.0) == pytest.approx(0.125, rel=1e-15)

    def test_float_gap_matches_definition(self):
        cp, cm = coefficients(4)
        assert cauchy_gap(4, 0.5) == pytest.approx(cp**0.5 + cm**0.5, rel=1e-15)

    def test_exact_gap_needs_unit_beta(self):
        with pytest.raises(ConfigurationError):
            cauchy_gap(3, 2, exact=True)

    def test_tail_bound_exact(self):
        assert gap_tail_bound(5, 1, exact=True) == Fraction(2, 32)

    def test_tail_bound_dominates_partial_tails(self):
        for beta in (0.5, 1.0):
            tail = sum(cauchy_gap(m, beta) for m in range(4, 60))
            assert tail <= gap_tail_bound(4, beta)

    def test_tail_start_validation(self):
        with pytest.raises(InputError):
            gap_tail_bound(0, 1.0)


class TestGapSeries:
    def test_unit_beta_series_encloses_one(self):
        s = gap_series(1.0, tol=1e-9)
        assert s.lower <= 1.0 <= s.upper
        assert s.width <= 1e-9

    def test_degree_two_series_encloses_one_fifth(self):
        s = gap_series(2.0, tol=1e-9)
        assert s.lower <= 0.2 <= s.upper
        assert s.width <= 1e-9

    def test_exact_enclosure_shape(self):
        s = gap_series(1, tol=1e-12, exact=True)
        assert s.upper == Fraction(1)
        assert s.lower == 1 - Fraction(1, 2**s.terms)
        assert s.width <= Fraction(1, 10**12)

    def test_tolerance_validation(self):
        with pytest.raises(ConfigurationError):
            gap_series(1.0, tol=0.0)

    def test_unreachable_tolerance_is_refused(self):
        with pytest.raises(ConfigurationError):
            gap_series(1.0, tol=1e-17)

    def test_beta_validation(self):
        with pytest.raises(ConfigurationError):
            gap_series(-1.0)


class TestScaleTable:
    def test_table_contents(self):
        fp, fm = scale_table(cubic_exact, (Fraction(1),), 3)
        assert fp.tolist() == [[1], [8], [64], [512]]
        assert fm.tolist() == [[-1], [-8], [-64], [-512]]

    def test_float_overflow_guard(self):
        f = lambda t: np.array([t[0] ** 3])
        with np.errstate(over="ignore"), pytest.raises(RangeError):
            scale_table(f, np.array([1e150]), 4)


class TestCorrectorLimit:
    def test_residual_bound_formula(self):
        f = lambda t: (5 * t[0],)
        g, trace = corrector_limit(f, (Fraction(1, 8),), 1, Fraction(1), ABS1_EXACT, 6)
        assert trace.residual_bound == Fraction(1) * Fraction(2, 2**6)
        assert len(trace.rows) == 6
        assert trace.hypothesis_ok

    def test_detects_hypothesis_violation(self):
        # the cubic's defect at scale 1 is 24, far above the claimed bound
        g, trace = corrector_limit(cubic_exact, (Fraction(1),), 1, Fraction(1, 100), ABS1_EXACT, 3)
        assert not trace.hypothesis_ok
        assert trace.hypothesis_violations
        k, sign, value = trace.hypothesis_violations[0]
        assert value > Fraction(1, 100)
        assert trace.indeterminate_scales == []

    def test_float_rounding_envelope_classifies_scales(self):
        """A constant offset on a square map has defect 0.75*c at all scales.

        With the bound set just below that, small scales are certain
        violations; once the rounding envelope (which grows like 4^k) exceeds
        the 0.05*c margin, the comparison becomes indeterminate instead.
        """
        c = 1.0
        f = lambda t: np.array([t[0] ** 2 + c])
        bound = 0.7 * c
        g, trace = corrector_limit(f, np.array([1.0]), 1.0, bound, ABS1, 24)
        assert not trace.hypothesis_ok
        violated = {k for k, _, _ in trace.hypothesis_violations}
        undecided = {k for k, _, _, _ in trace.indeterminate_scales}
        assert violated, "expected certain violations at small scales"
        assert undecided, "expected indeterminate scales once rounding dominates"
        assert max(violated) < min(undecided)
        for k, sign, d, s in trace.indeterminate_scales:
            assert bound < d <= bound + s

    def test_nmax_validation(self):
        with pytest.raises(InputError):
            corrector_limit(cubic_exact, (Fraction(1),), 1, Fraction(1), ABS1_EXACT, 0)

    def test_trace_serializes(self):
        import json

        _, trace = corrector_limit(cubic_exact, (Fraction(1, 4),), 1, Fraction(40), ABS1_EXACT, 3)
        json.dumps(trace.to_dict())


class TestCorrectorEvaluator:
    def test_value_matches_term(self):
        ev = CorrectorEvaluator(cubic_exact, 5)
        x = (Fraction(1, 2),)
        assert ev.value(x) == corrector_term(cubic_exact, x, 5)
        assert ev(x) == ev.value(x)

    def test_magnitude_is_sum_of_term_magnitudes(self):
        ev = CorrectorEvaluator(cubic_float, 2)
        x = np.array([1.0])
        val, mag = ev.value_and_magnitude(x)
        cp, cm = coefficients(2)
        assert mag[0] == pytest.approx(cp * 64.0 + cm * 64.0, rel=1e-15)
        assert val[0] == pytest.approx(cp * 64.0 + cm * 64.0, rel=1e-15)

    def test_exact_magnitudes_are_fractions(self):
        ev = CorrectorEvaluator(cubic_exact, 2)
        val, mag = ev.value_and_magnitude((Fraction(1),))
        assert isinstance(mag[0], Fraction)

    def test_index_validation(self):
        with pytest.raises(InputError):
            CorrectorEvaluator(cubic_exact, 0)


@pytest.fixture(scope="module")
def noisy_exact_setup():
    from orthostab.maps import MapSpec, build_map

    spec = MapSpec(
        base="linear",
        matrix=((Fraction(2), Fraction(1)), (Fraction(0), Fraction(1))),
        noise_amplitude=Fraction(1, 1000),
        noise_parity="odd",
        seed=7,
        backend="exact-rational",
    )
    f = build_map(spec, ABS1_EXACT)
    rel = OrthoRelation(kind="euclidean", dimension=2)
    pairs = sample_orthogonal_pairs(rel, 40, seed=3, exact=True)
    points = [(Fraction(3, 2), Fraction(-1, 4)), (Fraction(5), Fraction(2))]
    der = derive_defect_bound_additive(f, Fraction(4, 1000), Fraction(1), ABS1_EXACT, points, pairs)
    assert der.certified
    return f, der.defect_bound


class TestGapBounds:

    def test_telescoping_inequalities_exact(self, noisy_exact_setup):
        f, C = noisy_exact_setup
        rep = check_gap_bounds(f, (Fraction(3, 2), Fraction(-1, 4)), range(1, 9), C, Fraction(1), ABS1_EXACT)
        assert rep.hypothesis_ok
        assert rep.hypothesis_indeterminate == []
        assert rep.all_ok
        for row in rep.rows:
            assert row.gap_bound == C * Fraction(1, 2**row.n)

    def test_needs_levels(self, noisy_exact_setup):
        f, C = noisy_exact_setup
        with pytest.raises(InputError):
            check_gap_bounds(f, (Fraction(1), Fraction(1)), [], C, Fraction(1), ABS1_EXACT)


@given(
    nums=st.lists(st.integers(min_value=-512, max_value=512), min_size=2, max_size=2),
    n=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_consecutive_terms_telescope_through_the_defect(nums, n):
    """g_n - g_(n+1) recombines the three-eighths defect vectors exactly.

    The identity c_plus(n) D(2^(n-1) x) - c_minus(n) D(-2^(n-1) x), with D the
    signed defect expression, reproduces the corrector gap with zero tolerance
    over Fractions. This is the algebraic heart of the convergence argument.
    """
    from orthostab.maps import MapSpec, build_map
    from orthostab import vectors as vec

    spec = MapSpec(
        base="linear",
        matrix=((Fraction(2), Fraction(1)), (Fraction(0), Fraction(1))),
        noise_amplitude=Fraction(1, 1000),
        noise_parity="odd",
        seed=13,
        backend="exact-rational",
    )
    f = build_map(spec, ABS1_EXACT)
    x = (Fraction(nums[0], 64), Fraction(nums[1], 64))

    def defect_vec(z):
        z2 = vec.vscale(Fraction(2), z)
        z4 = vec.vscale(Fraction(4), z)
        return vec.vadd(
            vec.vsub(f(z2), vec.vscale(Fraction(3, 8), f(z4))),
            vec.vscale(Fraction(1, 8), f(vec.vneg(z4))),
        )

    g_n = corrector_term(f, x, n)
    g_n1 = corrector_term(f, x, n + 1)
    cp, cm = coefficients(n, exact=True)
    half_scale = vec.vscale(Fraction(2 ** (n - 1)), x)
    rhs = vec.vsub(
        vec.vscale(cp, defect_vec(half_scale)),
        vec.vscale(cm, defect_vec(vec.vneg(half_scale))),
    )
    assert vec.vsub(g_n, g_n1) == rhs


@given(n=st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_gap_halves_at_unit_degree(n):
    assert cauchy_gap(n + 1, 1, exact=True) * 2 == cauchy_gap(n, 1, exact=True)
