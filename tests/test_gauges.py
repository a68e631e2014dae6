"""Gauge construction, evaluation, transforms, and the axiom checkers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthostab import (
    ConfigurationError,
    Gauge,
    check_beta_homogeneity,
    check_fnorm_axioms,
    estimate_quasi_constant,
    make_gauge_samples,
    p_power_transform,
)
from orthostab.cli import _gauge
from orthostab.config import read

finite_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def vec2(a, b):
    return np.array([a, b], dtype=np.float64)


class TestConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Gauge(kind="manhattan")

    def test_beta_sum_needs_positive_beta(self):
        with pytest.raises(ConfigurationError):
            Gauge(kind="beta-sum")
        with pytest.raises(ConfigurationError):
            Gauge(kind="beta-sum", beta=0.0)
        with pytest.raises(ConfigurationError):
            Gauge(kind="beta-sum", beta=-0.5)

    def test_lp_quasi_needs_open_unit_p(self):
        with pytest.raises(ConfigurationError):
            Gauge(kind="lp-quasi", p=1.0)
        with pytest.raises(ConfigurationError):
            Gauge(kind="lp-quasi", p=0.0)
        Gauge(kind="lp-quasi", p=0.5)

    def test_parameterless_kinds_reject_parameters(self):
        with pytest.raises(ConfigurationError):
            Gauge(kind="euclidean", beta=1.0)

    def test_p_power_requires_matching_base(self):
        base = Gauge(kind="lp-quasi", p=0.5)
        with pytest.raises(ConfigurationError):
            Gauge(kind="p-power-of", p=0.25, base=base)
        with pytest.raises(ConfigurationError):
            Gauge(kind="p-power-of", p=0.5, base=Gauge(kind="euclidean"))
        Gauge(kind="p-power-of", p=0.5, base=base)

    def test_frozen(self):
        g = Gauge(kind="euclidean")
        with pytest.raises(AttributeError):
            g.kind = "beta-sum"


class TestEvaluate:
    def test_euclidean_three_four_five(self):
        g = Gauge(kind="euclidean")
        assert g.evaluate(vec2(3.0, 4.0)) == 5.0

    def test_beta_sum_one_is_absolute_sum(self):
        g = Gauge(kind="beta-sum", beta=1.0)
        assert g.evaluate(vec2(-3.0, 4.0)) == 7.0

    def test_beta_sum_half(self):
        g = Gauge(kind="beta-sum", beta=0.5)
        assert g.evaluate(vec2(4.0, 9.0)) == pytest.approx(5.0, rel=1e-15)

    def test_lp_quasi_on_axis(self):
        g = Gauge(kind="lp-quasi", p=0.5)
        # (1^0.5 + 1^0.5)^2 = 4 on the diagonal of the unit square
        assert g.evaluate(vec2(1.0, 1.0)) == pytest.approx(4.0, rel=1e-15)

    def test_euclidean_squared(self):
        g = Gauge(kind="euclidean-squared")
        assert g.evaluate(vec2(3.0, 4.0)) == 25.0

    def test_p_power_matches_base_power(self):
        base = Gauge(kind="lp-quasi", p=0.5)
        g = p_power_transform(base, 0.5)
        x = vec2(0.7, -1.3)
        assert g.evaluate(x) == pytest.approx(base.evaluate(x) ** 0.5, rel=1e-14)

    def test_exact_beta_sum_one(self):
        g = Gauge(kind="beta-sum", beta=1)
        val = g.evaluate((Fraction(-3, 7), Fraction(2, 5)))
        assert val == Fraction(3, 7) + Fraction(2, 5)
        assert isinstance(val, Fraction)

    def test_exact_euclidean_squared(self):
        g = Gauge(kind="euclidean-squared")
        assert g.evaluate((Fraction(1, 2), Fraction(1, 3))) == Fraction(13, 36)

    def test_exact_rejected_for_irrational_gauges(self):
        with pytest.raises(ConfigurationError):
            Gauge(kind="euclidean").evaluate((Fraction(1), Fraction(1)))
        with pytest.raises(ConfigurationError):
            Gauge(kind="beta-sum", beta=0.5).evaluate((Fraction(1), Fraction(1)))

    def test_callable_alias(self):
        g = Gauge(kind="euclidean")
        x = vec2(1.0, 2.0)
        assert g(x) == g.evaluate(x)


class TestMetadata:
    @pytest.mark.parametrize(
        "gauge,degree",
        [
            (Gauge(kind="euclidean"), 1.0),
            (Gauge(kind="beta-sum", beta=0.5), 0.5),
            (Gauge(kind="lp-quasi", p=0.5), 1.0),
            (Gauge(kind="euclidean-squared"), 2.0),
        ],
    )
    def test_homogeneity_degree(self, gauge, degree):
        assert gauge.homogeneity_degree == degree

    def test_p_power_degree(self):
        g = p_power_transform(Gauge(kind="lp-quasi", p=0.25), 0.25)
        assert g.homogeneity_degree == 0.25

    def test_quasi_constants(self):
        assert Gauge(kind="lp-quasi", p=0.5).quasi_constant == 2.0
        assert Gauge(kind="euclidean").quasi_constant == 1.0
        assert Gauge(kind="euclidean-squared").quasi_constant == 2.0

    def test_supports_exact(self):
        assert Gauge(kind="beta-sum", beta=1).supports_exact
        assert Gauge(kind="euclidean-squared").supports_exact
        assert not Gauge(kind="euclidean").supports_exact
        assert not Gauge(kind="beta-sum", beta=0.5).supports_exact

    def test_config_round_trip(self):
        for g in (
            Gauge(kind="euclidean"),
            Gauge(kind="beta-sum", beta=0.75),
            p_power_transform(Gauge(kind="lp-quasi", p=0.5), 0.5),
        ):
            assert _gauge(read(g.to_config(), "gauge")) == g

    def test_from_config_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            read({"kind": "euclidean", "order": 2}, "gauge")


@pytest.fixture(scope="module")
def samples():
    return make_gauge_samples(2, 300, seed=11)


class TestAxiomChecks:
    @pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
    def test_beta_sum_passes_fnorm_axioms(self, samples, beta):
        report = check_fnorm_axioms(Gauge(kind="beta-sum", beta=beta), samples)
        assert report.all_passed, report.failures()

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_beta_sum_homogeneity(self, samples, beta):
        report = check_beta_homogeneity(Gauge(kind="beta-sum", beta=beta), beta, samples)
        assert report.all_passed

    def test_euclidean_squared_fails_triangle(self, samples):
        report = check_fnorm_axioms(Gauge(kind="euclidean-squared"), samples)
        tri = report.check("3-triangle")
        assert not tri.passed
        assert tri.worst_witness is not None

    def test_beta_above_one_fails_triangle(self, samples):
        """beta-sum with beta > 1 loses subadditivity, and the checker sees it."""
        report = check_fnorm_axioms(Gauge(kind="beta-sum", beta=2.0), samples)
        assert not report.check("3-triangle").passed

    def test_lp_quasi_fails_triangle(self, samples):
        report = check_fnorm_axioms(Gauge(kind="lp-quasi", p=0.5), samples)
        assert not report.check("3-triangle").passed

    def test_p_power_restores_triangle(self, samples):
        g = p_power_transform(Gauge(kind="lp-quasi", p=0.5), 0.5)
        report = check_fnorm_axioms(g, samples)
        assert report.check("3-triangle").passed

    def test_homogeneity_checker_rejects_wrong_degree(self, samples):
        report = check_beta_homogeneity(Gauge(kind="beta-sum", beta=0.5), 1.0, samples)
        assert not report.all_passed

    def test_fnorm_checker_needs_samples(self):
        with pytest.raises(Exception):
            check_fnorm_axioms(Gauge(kind="euclidean"), [])

    def test_quasi_constant_estimate_hits_analytic_value(self):
        g = Gauge(kind="lp-quasi", p=0.5)
        est = estimate_quasi_constant(g, trials=500, seed=3)
        assert 1.9 < est <= 2.0 * (1.0 + 1e-9)

    def test_quasi_constant_estimate_deterministic(self):
        g = Gauge(kind="lp-quasi", p=0.5)
        a = estimate_quasi_constant(g, trials=400, seed=9)
        b = estimate_quasi_constant(g, trials=400, seed=9)
        assert a == b

    def test_euclidean_quasi_estimate_stays_at_one(self):
        est = estimate_quasi_constant(Gauge(kind="euclidean"), trials=400, seed=5)
        assert est <= 1.0 + 1e-12


@given(a=finite_coords, b=finite_coords, c=finite_coords, d=finite_coords)
@settings(max_examples=120, deadline=None)
def test_beta_sum_one_subadditive(a, b, c, d):
    g = Gauge(kind="beta-sum", beta=1.0)
    x, y = vec2(a, b), vec2(c, d)
    lhs = g.evaluate(x + y)
    rhs = g.evaluate(x) + g.evaluate(y)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-300


@given(a=finite_coords, b=finite_coords, c=finite_coords, d=finite_coords)
@settings(max_examples=120, deadline=None)
def test_beta_sum_half_subadditive(a, b, c, d):
    g = Gauge(kind="beta-sum", beta=0.5)
    x, y = vec2(a, b), vec2(c, d)
    lhs = g.evaluate(x + y)
    rhs = g.evaluate(x) + g.evaluate(y)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-300


moderate_coords = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-3),
)


@given(
    a=moderate_coords,
    b=moderate_coords,
    t=st.one_of(
        st.floats(min_value=1e-3, max_value=64.0),
        st.floats(min_value=-64.0, max_value=-1e-3),
    ),
)
@settings(max_examples=120, deadline=None)
def test_beta_sum_homogeneity_property(a, b, t):
    g = Gauge(kind="beta-sum", beta=0.5)
    x = vec2(a, b)
    lhs = g.evaluate(t * x)
    rhs = abs(t) ** 0.5 * g.evaluate(x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@given(a=finite_coords, b=finite_coords, c=finite_coords, d=finite_coords)
@settings(max_examples=120, deadline=None)
def test_lp_quasi_triangle_with_analytic_constant(a, b, c, d):
    g = Gauge(kind="lp-quasi", p=0.5)
    x, y = vec2(a, b), vec2(c, d)
    lhs = g.evaluate(x + y)
    rhs = g.quasi_constant * (g.evaluate(x) + g.evaluate(y))
    assert lhs <= rhs * (1.0 + 1e-9) + 1e-300


@given(
    nums=st.lists(st.integers(min_value=-4096, max_value=4096), min_size=2, max_size=2),
    dens=st.lists(st.integers(min_value=-4096, max_value=4096), min_size=2, max_size=2),
)
@settings(max_examples=100, deadline=None)
def test_exact_beta_sum_subadditive_zero_tolerance(nums, dens):
    """Over Fractions the triangle inequality needs no float slack at all."""
    g = Gauge(kind="beta-sum", beta=1)
    x = tuple(Fraction(n, 128) for n in nums)
    y = tuple(Fraction(n, 128) for n in dens)
    s = tuple(u + v for u, v in zip(x, y))
    assert g.evaluate(s) <= g.evaluate(x) + g.evaluate(y)


def test_quasi_power_identity_on_floats():
    """(lp-quasi value)^p equals the p-power gauge value identically."""
    base = Gauge(kind="lp-quasi", p=0.5)
    power = p_power_transform(base, 0.5)
    rng = np.random.default_rng(17)
    for _ in range(50):
        x = rng.normal(size=2)
        assert power.evaluate(x) == pytest.approx(
            base.evaluate(x) ** 0.5, rel=1e-12
        )
