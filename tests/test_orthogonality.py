"""Orthogonality relations, the pair sampler, and the axiom-system checkers."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthostab import (
    AXIOM_SYSTEMS,
    ConfigurationError,
    Gauge,
    InputError,
    OrthoRelation,
    check_relation_axioms,
    sample_orthogonal_pairs,
)
from orthostab.cli import _relation
from orthostab.config import read
from orthostab.vectors import RATIONAL


@pytest.fixture(scope="module")
def euclid():
    return OrthoRelation(kind="euclidean", dimension=2)


@pytest.fixture(scope="module")
def trivial():
    return OrthoRelation(kind="trivial-zero", dimension=2)


@pytest.fixture(scope="module")
def isosceles_beta1():
    return OrthoRelation(
        kind="isosceles", dimension=2, gauge=Gauge(kind="beta-sum", beta=1.0)
    )


class TestConstruction:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            OrthoRelation(kind="birkhoff", dimension=2)

    def test_dimension_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            OrthoRelation(kind="euclidean", dimension=0)

    def test_isosceles_needs_gauge(self):
        with pytest.raises(ConfigurationError):
            OrthoRelation(kind="isosceles", dimension=2)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            OrthoRelation(kind="euclidean", dimension=2, tolerance=-1e-9)

    def test_config_round_trip(self, euclid, isosceles_beta1):
        for rel in (euclid, isosceles_beta1):
            clone = _relation(read(rel.to_config(), "relation"), None)
            assert clone == rel

    def test_from_config_needs_dimension(self):
        with pytest.raises(ConfigurationError):
            read({"kind": "euclidean"}, "relation")


class TestIsOrthogonal:
    def test_euclidean_float(self, euclid):
        assert euclid.is_orthogonal(np.array([1.0, 0.0]), np.array([0.0, 5.0]))
        assert not euclid.is_orthogonal(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_euclidean_exact_is_zero_tolerance(self, euclid):
        x = (Fraction(3), Fraction(1))
        assert euclid.is_orthogonal(x, (Fraction(-1), Fraction(3)))
        assert not euclid.is_orthogonal(x, (Fraction(-1), Fraction(3) + Fraction(1, 10**12)))

    def test_euclidean_tolerance_is_scale_relative(self):
        rel = OrthoRelation(kind="euclidean", dimension=2, tolerance=1e-9)
        x = np.array([1e8, 0.0])
        y = np.array([1e-3, 1e8])
        # dot = 1e5, norms 1e8 each: 1e5 <= 1e-9 * 1e16 holds
        assert rel.is_orthogonal(x, y)

    def test_trivial_zero(self, trivial):
        z = np.zeros(2)
        x = np.array([1.0, 2.0])
        assert trivial.is_orthogonal(z, x)
        assert trivial.is_orthogonal(x, z)
        assert not trivial.is_orthogonal(x, x)

    def test_isosceles_diagonal_pair(self, isosceles_beta1):
        # under the absolute-sum gauge, (a, b) and (-b, a) always qualify
        x = np.array([2.0, 1.0])
        y = np.array([-1.0, 2.0])
        assert isosceles_beta1.is_orthogonal(x, y)

    def test_dimension_mismatch(self, euclid):
        with pytest.raises(InputError):
            euclid.is_orthogonal(np.zeros(3), np.zeros(3))


class TestSampler:
    def test_first_two_pairs_exercise_zero(self, euclid):
        pairs = sample_orthogonal_pairs(euclid, 5, seed=1)
        assert np.all(pairs[0][0] == 0.0)
        assert np.all(pairs[1][1] == 0.0)

    @pytest.mark.parametrize("kind", ["euclidean", "trivial-zero"])
    def test_all_pairs_orthogonal_float(self, kind):
        rel = OrthoRelation(kind=kind, dimension=3)
        for x, y in sample_orthogonal_pairs(rel, 40, seed=7):
            assert rel.is_orthogonal(x, y)

    def test_all_pairs_orthogonal_exact(self, euclid):
        pairs = sample_orthogonal_pairs(euclid, 30, seed=7, field=RATIONAL)
        for x, y in pairs:
            assert isinstance(x, tuple) and isinstance(x[0], Fraction)
            assert euclid.is_orthogonal(x, y)

    def test_isosceles_pairs_satisfy_relation(self, isosceles_beta1):
        for x, y in sample_orthogonal_pairs(isosceles_beta1, 20, seed=3):
            assert isosceles_beta1.is_orthogonal(x, y)

    def test_isosceles_exact_rejected(self, isosceles_beta1):
        with pytest.raises(ConfigurationError):
            sample_orthogonal_pairs(isosceles_beta1, 4, seed=0, field=RATIONAL)

    def test_deterministic(self, euclid):
        a = sample_orthogonal_pairs(euclid, 12, seed=42)
        b = sample_orthogonal_pairs(euclid, 12, seed=42)
        for (x1, y1), (x2, y2) in zip(a, b):
            assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_seed_changes_draws(self, euclid):
        a = sample_orthogonal_pairs(euclid, 12, seed=42)
        b = sample_orthogonal_pairs(euclid, 12, seed=43)
        assert not np.array_equal(a[2][0], b[2][0])

    def test_count_validation(self, euclid):
        with pytest.raises(InputError):
            sample_orthogonal_pairs(euclid, 0, seed=1)


class TestAxiomSystems:
    @pytest.mark.parametrize("system", AXIOM_SYSTEMS)
    def test_euclidean_passes_all_systems(self, euclid, system):
        report = check_relation_axioms(euclid, system, count=48, seed=2)
        assert report.all_passed, report.failures()

    def test_euclidean_ratz_includes_decomposition(self, euclid):
        report = check_relation_axioms(euclid, "ratz", count=32, seed=2)
        names = [c.axiom for c in report.checks]
        assert names == ["r1-zero-total", "r2-independence", "r3-scaling", "r4-decomposition"]

    def test_trivial_zero_fails_existence_with_witness(self, trivial):
        report = check_relation_axioms(trivial, "fechner-sikorska", count=32, seed=2)
        fs2 = report.check("fs2-existence")
        assert not fs2.passed
        assert fs2.worst_witness is not None

    @pytest.mark.parametrize("system", ["zero-ortho-or", "zero-ortho-and", "ratz"])
    def test_trivial_zero_passes_weaker_systems(self, trivial, system):
        report = check_relation_axioms(trivial, system, count=32, seed=2)
        assert report.all_passed, report.failures()

    @pytest.mark.parametrize(
        "system", ["fechner-sikorska", "zero-ortho-or", "zero-ortho-and"]
    )
    def test_isosceles_passes_group_systems(self, isosceles_beta1, system):
        report = check_relation_axioms(isosceles_beta1, system, count=24, seed=2)
        assert report.all_passed, report.failures()

    def test_unknown_system_rejected(self, euclid):
        with pytest.raises(ConfigurationError):
            check_relation_axioms(euclid, "james")


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_sampler_pairs_orthogonal_for_any_seed(seed):
    rel = OrthoRelation(kind="euclidean", dimension=2)
    for x, y in sample_orthogonal_pairs(rel, 6, seed=seed):
        assert rel.is_orthogonal(x, y)


@given(
    ax=st.integers(min_value=-999, max_value=999),
    ay=st.integers(min_value=-999, max_value=999),
)
@settings(max_examples=80, deadline=None)
def test_exact_rotation_pairs_are_orthogonal(ax, ay):
    """The quarter-turn of any rational vector is exactly orthogonal to it."""
    rel = OrthoRelation(kind="euclidean", dimension=2)
    x = (Fraction(ax, 7), Fraction(ay, 11))
    y = (-x[1], x[0])
    assert rel.is_orthogonal(x, y)


@given(
    a=st.floats(min_value=-100, max_value=100, allow_nan=False),
    b=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_isosceles_quarter_turn_under_abs_sum(a, b):
    rel = OrthoRelation(
        kind="isosceles", dimension=2, gauge=Gauge(kind="beta-sum", beta=1.0)
    )
    x = np.array([a, b])
    y = np.array([-b, a])
    assert rel.is_orthogonal(x, y)
