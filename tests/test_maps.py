"""Map specifications, hash-based noise, and assembled evaluable maps."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthostab import (
    ConfigurationError,
    Gauge,
    InputError,
    MapSpec,
    RangeError,
    build_map,
    scaled_noise,
)
from orthostab.config import read
from orthostab.maps import encode_point


@pytest.fixture(scope="module")
def abs_gauge():
    return Gauge(kind="beta-sum", beta=1.0)


class TestMapSpec:
    def test_unknown_base(self):
        with pytest.raises(ConfigurationError):
            MapSpec(base="cubic", matrix=None, noise_amplitude=0, noise_parity="none", seed=0)

    def test_unknown_parity(self):
        with pytest.raises(ConfigurationError):
            MapSpec(
                base="zero",
                matrix=None,
                noise_amplitude=0,
                noise_parity="antisymmetric",
                seed=0,
                codomain_dim=2,
            )

    def test_negative_amplitude(self):
        with pytest.raises(ConfigurationError):
            MapSpec(
                base="zero",
                matrix=None,
                noise_amplitude=-0.5,
                noise_parity="none",
                seed=0,
                codomain_dim=2,
            )

    def test_linear_needs_matrix(self):
        with pytest.raises(ConfigurationError):
            MapSpec(base="linear", matrix=None, noise_amplitude=0, noise_parity="none", seed=0)

    def test_zero_base_needs_codomain(self):
        with pytest.raises(ConfigurationError):
            MapSpec(base="zero", matrix=None, noise_amplitude=0, noise_parity="none", seed=0)

    def test_from_config_exact_amplitude_reads_decimally(self):
        doc = {
            "base": "linear",
            "matrix": [[1, 0], [0, 1]],
            "noise_amplitude": 0.001,
            "noise_parity": "odd",
            "seed": 4,
            "backend": "exact-rational",
        }
        spec = MapSpec(**read(doc, "map", exact=True))
        assert spec.noise_amplitude == Fraction(1, 1000)

    def test_from_config_fraction_string(self):
        doc = {
            "base": "linear",
            "matrix": [["1/2", "0"], ["0", "1"]],
            "noise_amplitude": "3/4000",
            "noise_parity": "even",
            "seed": 4,
            "backend": "exact-rational",
        }
        spec = MapSpec(**read(doc, "map", exact=True))
        assert spec.noise_amplitude == Fraction(3, 4000)

    def test_from_config_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            read({"base": "zero", "codomain_dim": 2, "bias": 1}, "map")


class TestEncodePoint:
    def test_signed_zero_collapses(self):
        assert encode_point(np.array([0.0, 1.0])) == encode_point(np.array([-0.0, 1.0]))

    def test_distinct_floats_distinct_bytes(self):
        assert encode_point(np.array([1.0, 2.0])) != encode_point(np.array([1.0, 2.0 + 1e-9]))

    def test_exact_encoding_is_reduced_fraction_text(self):
        enc = encode_point((Fraction(2, 4), Fraction(-3)))
        assert enc == b"1/2;-3/1;"


class TestScaledNoise:
    def test_amplitude_bound_float(self, abs_gauge):
        x = np.array([0.7, -1.3])
        eta = scaled_noise(11, x, 2, "none", 1e-3, abs_gauge)
        assert abs_gauge.evaluate(eta) <= 1e-3

    def test_amplitude_bound_exact(self, abs_gauge):
        x = (Fraction(3, 2), Fraction(-1, 4))
        eta = scaled_noise(11, x, 2, "odd", Fraction(1, 1000), abs_gauge)
        assert abs_gauge.evaluate(eta) <= Fraction(1, 1000)
        assert all(isinstance(c, Fraction) for c in eta)

    def test_zero_amplitude_is_exact_zero(self, abs_gauge):
        eta = scaled_noise(11, np.array([1.0, 2.0]), 2, "none", 0.0, abs_gauge)
        assert np.all(eta == 0.0)

    def test_odd_parity_float_is_bitwise_odd(self, abs_gauge):
        x = np.array([0.3, 0.9])
        plus = scaled_noise(5, x, 2, "odd", 1e-3, abs_gauge)
        minus = scaled_noise(5, -x, 2, "odd", 1e-3, abs_gauge)
        assert np.array_equal(minus, -plus)

    def test_even_parity_float_is_bitwise_even(self, abs_gauge):
        x = np.array([0.3, 0.9])
        plus = scaled_noise(5, x, 2, "even", 1e-3, abs_gauge)
        minus = scaled_noise(5, -x, 2, "even", 1e-3, abs_gauge)
        assert np.array_equal(minus, plus)

    def test_deterministic_per_seed_and_point(self, abs_gauge):
        x = np.array([0.3, 0.9])
        a = scaled_noise(5, x, 2, "none", 1e-3, abs_gauge)
        b = scaled_noise(5, x, 2, "none", 1e-3, abs_gauge)
        c = scaled_noise(6, x, 2, "none", 1e-3, abs_gauge)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_scaling_under_half_homogeneous_gauge(self):
        g = Gauge(kind="beta-sum", beta=0.5)
        eta = scaled_noise(9, np.array([1.1, -0.4]), 2, "none", 1e-3, g)
        assert g.evaluate(eta) <= 1e-3

    def test_exact_noise_needs_one_homogeneous_gauge(self):
        g = Gauge(kind="euclidean-squared")
        with pytest.raises(ConfigurationError):
            scaled_noise(9, (Fraction(1), Fraction(2)), 2, "none", Fraction(1, 1000), g)


class TestBuildMap:
    def test_linear_float(self, abs_gauge):
        spec = MapSpec(
            base="linear",
            matrix=((2.0, 1.0), (0.5, 1.0)),
            noise_amplitude=0.0,
            noise_parity="none",
            seed=0,
        )
        f = build_map(spec, abs_gauge)
        out = f(np.array([1.0, 2.0]))
        assert np.allclose(out, [4.0, 2.5])
        assert f.growth_hint == "linear"
        assert f.codomain_dim == 2

    def test_quadratic_form_exact(self, abs_gauge):
        spec = MapSpec(
            base="quadratic-form",
            matrix=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),
            noise_amplitude=0,
            noise_parity="none",
            seed=0,
            backend="exact-rational",
        )
        f = build_map(spec, abs_gauge)
        assert f((Fraction(1), Fraction(2))) == (Fraction(9),)
        assert f.growth_hint == "quadratic"
        assert f.codomain_dim == 1

    def test_zero_base(self, abs_gauge):
        spec = MapSpec(
            base="zero",
            matrix=None,
            noise_amplitude=0.0,
            noise_parity="none",
            seed=0,
            codomain_dim=3,
        )
        f = build_map(spec, abs_gauge)
        assert np.array_equal(f(np.array([5.0, 6.0])), np.zeros(3))
        assert f.growth_hint == "bounded"

    def test_odd_noise_keeps_linear_map_exactly_odd(self, abs_gauge):
        spec = MapSpec(
            base="linear",
            matrix=((Fraction(2), Fraction(1)), (Fraction(0), Fraction(1))),
            noise_amplitude=Fraction(1, 1000),
            noise_parity="odd",
            seed=31,
            backend="exact-rational",
        )
        f = build_map(spec, abs_gauge)
        x = (Fraction(5, 4), Fraction(-3, 8))
        fx = f(x)
        fmx = f(tuple(-c for c in x))
        assert fmx == tuple(-c for c in fx)

    def test_even_noise_keeps_quadratic_map_exactly_even(self, abs_gauge):
        spec = MapSpec(
            base="quadratic-form",
            matrix=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),
            noise_amplitude=Fraction(1, 1000),
            noise_parity="even",
            seed=32,
            backend="exact-rational",
        )
        f = build_map(spec, abs_gauge)
        x = (Fraction(5, 4), Fraction(-3, 8))
        assert f(x) == f(tuple(-c for c in x))

    def test_backend_input_guards(self, abs_gauge):
        spec = MapSpec(
            base="linear",
            matrix=((1.0, 0.0), (0.0, 1.0)),
            noise_amplitude=0.0,
            noise_parity="none",
            seed=0,
        )
        f = build_map(spec, abs_gauge)
        with pytest.raises(InputError):
            f((Fraction(1), Fraction(2)))

    def test_exact_backend_rejects_irrational_gauge(self):
        spec = MapSpec(
            base="linear",
            matrix=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            noise_amplitude=Fraction(1, 1000),
            noise_parity="odd",
            seed=0,
            backend="exact-rational",
        )
        with pytest.raises(ConfigurationError):
            build_map(spec, Gauge(kind="euclidean"))

    def test_float_overflow_trips_range_guard(self, abs_gauge):
        spec = MapSpec(
            base="quadratic-form",
            matrix=((1.0, 0.0), (0.0, 1.0)),
            noise_amplitude=0.0,
            noise_parity="none",
            seed=0,
        )
        f = build_map(spec, abs_gauge)
        with np.errstate(over="ignore"), pytest.raises(RangeError):
            f(np.array([1e200, 0.0]))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    coords=st.lists(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        min_size=2,
        max_size=2,
    ),
)
@settings(max_examples=60, deadline=None)
def test_noise_amplitude_never_exceeded(seed, coords):
    gauge = Gauge(kind="beta-sum", beta=1.0)
    x = np.asarray(coords)
    eta = scaled_noise(seed, x, 2, "odd", 1e-3, gauge)
    assert gauge.evaluate(eta) <= 1e-3


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    nums=st.lists(st.integers(min_value=-2048, max_value=2048), min_size=2, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_exact_noise_odd_parity_identity(seed, nums):
    """Odd symmetrization satisfies eta(-x) = -eta(x) as an exact identity."""
    gauge = Gauge(kind="beta-sum", beta=1)
    x = tuple(Fraction(n, 256) for n in nums)
    plus = scaled_noise(seed, x, 2, "odd", Fraction(1, 1000), gauge)
    minus = scaled_noise(seed, tuple(-c for c in x), 2, "odd", Fraction(1, 1000), gauge)
    assert minus == tuple(-c for c in plus)
    assert gauge.evaluate(plus) <= Fraction(1, 1000)
