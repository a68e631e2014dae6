"""Stability constants, defect derivations, and the end-to-end runner.

Hand-derived oracles: at homogeneity degree 1 the additive premise-to-defect
factor is (1 + 2 + 4 + 8 + 16)/8 = 31/8 and the quadratic one is
(1 + 2 + 1 + 1/2)/8 = 9/16; multiplying by 1 + (sum of gap coefficients) = 2
gives the stability constants 31/4 = 7.75 and 9/8 = 1.125.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, exact_points
from orthostab import (
    ConfigurationError,
    CorrectorEvaluator,
    Gauge,
    InputError,
    MapSpec,
    OrthoRelation,
    StabilityConfig,
    additive_defect_factor,
    build_map,
    cauchy_gap,
    coefficients,
    derive_defect_bound_additive,
    derive_defect_bound_quadratic,
    gap_tail_bound,
    jensen_additive_defect,
    jensen_quadratic_defect,
    k_additive,
    k_additive_quasi,
    k_quadratic,
    k_quadratic_quasi,
    quadratic_defect_factor,
    run_stability,
    sample_orthogonal_pairs,
    uniqueness_probe,
    verify_conclusion,
)
from orthostab.cli import load_stability_config
from orthostab.vectors import FLOAT64, RATIONAL

ABS1 = Gauge(kind="beta-sum", beta=1.0)
EUCLID2 = OrthoRelation(kind="euclidean", dimension=2)


def linear_exact(x):
    return (2 * x[0] + x[1], x[1])


def quadratic_exact(x):
    return (x[0] ** 2 + 2 * x[1] ** 2,)


class TestDefectFactors:
    def test_exact_values(self):
        assert additive_defect_factor(1, field=RATIONAL) == Fraction(31, 8)
        assert quadratic_defect_factor(1, field=RATIONAL) == Fraction(9, 16)

    def test_float_matches_exact_at_degree_one(self):
        assert additive_defect_factor(1.0) == pytest.approx(31 / 8, rel=1e-15)
        assert quadratic_defect_factor(1.0) == pytest.approx(9 / 16, rel=1e-15)

    def test_general_degree_formulas(self):
        b = 0.5
        add = (1 + 2**b + 4**b + 8**b + 16**b) / 8**b
        quad = (1 + 2**b + 2 ** (1 - b) + 2 ** (1 - 2 * b)) / 8**b
        assert additive_defect_factor(b) == pytest.approx(add, rel=1e-15)
        assert quadratic_defect_factor(b) == pytest.approx(quad, rel=1e-15)

    def test_exact_needs_unit_degree(self):
        with pytest.raises(ConfigurationError):
            additive_defect_factor(0.5, field=RATIONAL)
        with pytest.raises(ConfigurationError):
            quadratic_defect_factor(2, field=RATIONAL)


# Each function that takes a field, as (beta, field) -> value(s); coefficients
# takes no beta.
ON_BOTH_FIELDS = {
    "coefficients": lambda beta, field: [coefficients(n, field) for n in range(1, 53)],
    "cauchy_gap": lambda beta, field: [cauchy_gap(n, beta, field) for n in range(1, 53)],
    "gap_tail_bound": lambda beta, field: [gap_tail_bound(n, beta, field) for n in range(1, 53)],
    "additive_defect_factor": lambda beta, field: [additive_defect_factor(beta, field)],
    "quadratic_defect_factor": lambda beta, field: [quadratic_defect_factor(beta, field)],
}


@pytest.mark.parametrize("name", sorted(ON_BOTH_FIELDS))
def test_one_formula_on_both_fields(name):
    """At beta = 1 FLOAT64 gives the RATIONAL value rounded, bit for bit; RATIONAL refuses beta = 1/2."""
    fn = ON_BOTH_FIELDS[name]
    floats = np.array(fn(1.0, FLOAT64), dtype=np.float64).ravel()
    exact = np.array(fn(1, RATIONAL), dtype=object).ravel()
    assert all(isinstance(v, Fraction) for v in exact)
    assert [v.hex() for v in floats] == [float(v).hex() for v in exact]
    if name != "coefficients":
        with pytest.raises(ConfigurationError, match="exact-rational backend needs beta = 1"):
            fn(0.5, RATIONAL)


class TestStabilityConstants:
    def test_exact_enclosures_pin_the_rationals(self):
        ka = k_additive(1, field=RATIONAL)
        assert ka.upper == Fraction(31, 4)
        assert ka.lower <= Fraction(31, 4)
        kq = k_quadratic(1, field=RATIONAL)
        assert kq.upper == Fraction(9, 8)
        assert kq.lower <= Fraction(9, 8)

    def test_float_enclosures_contain_the_targets(self):
        ka = k_additive(1.0, tol=1e-10)
        assert ka.lower <= 7.75 <= ka.upper
        assert ka.width <= 1e-9
        kq = k_quadratic(1.0, tol=1e-10)
        assert kq.lower <= 1.125 <= kq.upper
        assert kq.width <= 1e-9

    def test_enclosures_are_ordered_at_fractional_degree(self):
        s = k_additive(0.5, tol=1e-10)
        assert 0 < s.lower < s.upper
        assert s.width <= 1e-9 * s.lower * 10

    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
    def test_quasi_constant_is_the_p_th_root(self, p):
        base = k_additive(p, tol=1e-11)
        quasi = k_additive_quasi(p)
        assert quasi.midpoint**p == pytest.approx(base.midpoint, rel=1e-9)
        baseq = k_quadratic(p, tol=1e-11)
        quasiq = k_quadratic_quasi(p)
        assert quasiq.midpoint**p == pytest.approx(baseq.midpoint, rel=1e-9)

    def test_quasi_exponent_range(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                k_additive_quasi(bad)
            with pytest.raises(ConfigurationError):
                k_quadratic_quasi(bad)


class TestJensenDefects:
    def test_additive_defect_vanishes_on_linear_maps(self):
        pairs = sample_orthogonal_pairs(EUCLID2, 30, seed=5, field=RATIONAL)
        for x, y in pairs:
            assert jensen_additive_defect(linear_exact, x, y, ABS1) == 0

    def test_quadratic_defect_vanishes_on_quadratic_forms(self):
        pairs = sample_orthogonal_pairs(EUCLID2, 30, seed=6, field=RATIONAL)
        for x, y in pairs:
            assert jensen_quadratic_defect(quadratic_exact, x, y, ABS1) == 0

    def test_cubic_has_nonzero_additive_defect(self):
        f = lambda t: (t[0] ** 3,)
        val = jensen_additive_defect(f, (Fraction(2),), (Fraction(0),), ABS1)
        assert val > 0

    def test_float_path_agrees_with_exact(self):
        xe, ye = (Fraction(3), Fraction(1, 4)), (Fraction(-1), Fraction(2))
        f = lambda t: (t[0] ** 3, t[1] ** 3)
        g = lambda t: np.asarray(t, dtype=float) ** 3
        ve = jensen_additive_defect(f, xe, ye, ABS1)
        vf = jensen_additive_defect(
            g, np.array([3.0, 0.25]), np.array([-1.0, 2.0]), ABS1
        )
        assert vf == pytest.approx(float(ve), rel=1e-12)


class TestDeriveAdditive:
    def test_noiseless_map_certifies_at_any_positive_epsilon(self):
        points = exact_points(20, seed=21)
        pairs = sample_orthogonal_pairs(EUCLID2, 20, seed=22, field=RATIONAL)
        eps = Fraction(1, 10**6)
        d = derive_defect_bound_additive(linear_exact, eps, Fraction(1), ABS1, points, pairs)
        assert d.certified
        assert d.defect_bound == Fraction(31, 8) * eps
        for row in d.premise_rows + d.chain_rows:
            assert row.max_value == 0

    def test_noisy_map_certifies_at_the_derived_epsilon(self, exact_linear_noisy):
        points = exact_points(30, seed=23)
        pairs = sample_orthogonal_pairs(EUCLID2, 30, seed=24, field=RATIONAL)
        eps = Fraction(4, 1000)
        d = derive_defect_bound_additive(
            exact_linear_noisy, eps, Fraction(1), ABS1, points, pairs
        )
        assert d.premises_ok and d.chain_ok and d.certified
        assert [r.name for r in d.premise_rows] == [
            "jensen-additive-premise",
            "oddness-premise",
        ]
        assert [r.name for r in d.chain_rows] == [
            "value-at-zero",
            "halving",
            "doubling",
            "fourth-scale-combination",
            "three-eighths-defect",
        ]

    def test_undersized_epsilon_fails_premises_not_silently(self, exact_linear_noisy):
        points = exact_points(30, seed=23)
        pairs = sample_orthogonal_pairs(EUCLID2, 30, seed=24, field=RATIONAL)
        d = derive_defect_bound_additive(
            exact_linear_noisy, Fraction(1, 10**9), Fraction(1), ABS1, points, pairs
        )
        assert not d.premises_ok
        assert not d.certified
        bad = [r for r in d.premise_rows if not r.ok]
        assert bad and bad[0].witness is not None

    def test_needs_samples(self):
        with pytest.raises(InputError):
            derive_defect_bound_additive(linear_exact, Fraction(1), 1, ABS1, [], [((0,), (0,))])
        with pytest.raises(InputError):
            derive_defect_bound_additive(
                linear_exact, Fraction(1), 1, ABS1, [(Fraction(1), Fraction(0))], []
            )


class TestDeriveQuadratic:
    def test_noisy_quadratic_certifies(self, exact_quadratic_noisy):
        points = exact_points(30, seed=31)
        zero = (Fraction(0), Fraction(0))
        pairs = [(zero, zero), (zero, points[0]), (points[0], zero)]
        pairs += sample_orthogonal_pairs(EUCLID2, 30, seed=32, field=RATIONAL)
        eps = Fraction(6, 1000)
        d = derive_defect_bound_quadratic(
            exact_quadratic_noisy, eps, Fraction(1), ABS1, points, pairs
        )
        assert d.certified
        assert d.defect_bound == Fraction(9, 16) * eps

    def test_evenness_row_and_bound(self, exact_quadratic_noisy):
        points = exact_points(20, seed=33)
        zero = (Fraction(0), Fraction(0))
        pairs = [(zero, zero), (zero, points[0]), (points[0], zero)]
        eps = Fraction(6, 1000)
        d = derive_defect_bound_quadratic(
            exact_quadratic_noisy, eps, Fraction(1), ABS1, points, pairs
        )
        row = next(r for r in d.chain_rows if r.name == "evenness-defect")
        # 2 * 2^-1 * (2^-1 + 1) * eps = 3/2 eps at degree 1
        assert row.bound == Fraction(3, 2) * eps
        assert row.ok

    def test_chain_row_names(self, exact_quadratic_noisy):
        points = exact_points(10, seed=34)
        zero = (Fraction(0), Fraction(0))
        pairs = [(zero, zero), (zero, points[0]), (points[0], zero)]
        d = derive_defect_bound_quadratic(
            exact_quadratic_noisy, Fraction(6, 1000), Fraction(1), ABS1, points, pairs
        )
        assert [r.name for r in d.chain_rows] == [
            "value-at-zero",
            "halving-sum",
            "halving-even",
            "evenness-defect",
            "fourth-scale-combination",
            "three-eighths-defect",
        ]


class TestVerifyConclusion:
    def test_zero_defect_on_exact_solutions(self):
        pairs = sample_orthogonal_pairs(EUCLID2, 25, seed=41, field=RATIONAL)
        ev = CorrectorEvaluator(linear_exact, 6)
        chk = verify_conclusion(ev, "jensen-additive", EUCLID2, pairs, ABS1)
        assert chk.max_defect == 0
        assert chk.max_slack == 0
        assert chk.pairs_checked == 25

        evq = CorrectorEvaluator(quadratic_exact, 6)
        chkq = verify_conclusion(evq, "jensen-quadratic", EUCLID2, pairs, ABS1)
        assert chkq.max_defect == 0

    def test_float_run_reports_positive_slack(self):
        pairs = sample_orthogonal_pairs(EUCLID2, 10, seed=42)
        f = lambda t: np.asarray(t, dtype=float) * 3.0
        ev = CorrectorEvaluator(f, 4)
        chk = verify_conclusion(ev, "jensen-additive", EUCLID2, pairs, ABS1)
        assert chk.max_slack > 0
        assert chk.max_defect <= chk.max_slack

    def test_rejects_non_orthogonal_pairs(self):
        ev = CorrectorEvaluator(linear_exact, 3)
        bad = [((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))]
        with pytest.raises(InputError):
            verify_conclusion(ev, "jensen-additive", EUCLID2, bad, ABS1)

    def test_rejects_unknown_equation_and_empty_pairs(self):
        ev = CorrectorEvaluator(linear_exact, 3)
        with pytest.raises(ConfigurationError):
            verify_conclusion(ev, "jensen-cubic", EUCLID2, [((0,), (0,))], ABS1)
        with pytest.raises(InputError):
            verify_conclusion(ev, "jensen-additive", EUCLID2, [], ABS1)


class TestUniquenessProbe:
    def test_pure_solution_has_zero_gap(self):
        points = exact_points(10, seed=51)
        chk = uniqueness_probe(linear_exact, points, 2, 7, Fraction(1), Fraction(1, 100), ABS1)
        assert chk.max_gap == 0
        assert chk.ok
        assert chk.bound == Fraction(1, 100) * sum(Fraction(1, 2**m) for m in range(2, 7))

    def test_noisy_map_stays_within_telescoped_bound(self, exact_linear_noisy):
        points = exact_points(10, seed=52)
        # C from the derivation at eps = 4 delta
        C = Fraction(31, 8) * Fraction(4, 1000)
        chk = uniqueness_probe(exact_linear_noisy, points, 3, 8, Fraction(1), C, ABS1)
        assert chk.ok
        assert 0 < chk.max_gap <= chk.bound

    def test_guards(self):
        points = exact_points(3, seed=53)
        with pytest.raises(InputError):
            uniqueness_probe(linear_exact, points, 5, 5, 1, Fraction(1), ABS1)
        with pytest.raises(InputError):
            uniqueness_probe(linear_exact, [], 2, 4, 1, Fraction(1), ABS1)


def make_float_additive_config(**overrides):
    spec_kw = overrides.pop("map_overrides", {})
    spec = MapSpec(
        base="linear",
        matrix=((2.0, 1.0), (0.5, 1.0)),
        noise_amplitude=1e-3,
        noise_parity="odd",
        seed=909,
        backend="float64",
        **spec_kw,
    )
    kw = dict(
        equation="jensen-additive",
        dimension=2,
        gauge=Gauge(kind="beta-sum", beta=1.0),
        relation=OrthoRelation(kind="euclidean", dimension=2),
        map_spec=spec,
        beta=1.0,
        sample_count=40,
        pair_count=40,
        n_max=10,
        seed=505,
        conclusion_pairs=20,
        uniqueness_points=10,
    )
    kw.update(overrides)
    return StabilityConfig(**kw)


def make_exact_quadratic_config(**overrides):
    spec = MapSpec(
        base="quadratic-form",
        matrix=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),
        noise_amplitude=overrides.pop("noise_amplitude", Fraction(1, 1000)),
        noise_parity="even",
        seed=910,
        backend="exact-rational",
    )
    kw = dict(
        equation="jensen-quadratic",
        dimension=2,
        gauge=Gauge(kind="beta-sum", beta=1.0),
        relation=OrthoRelation(kind="euclidean", dimension=2),
        map_spec=spec,
        beta=1,
        sample_count=25,
        pair_count=25,
        n_max=6,
        seed=606,
        mode="exact-rational",
        conclusion_pairs=10,
        uniqueness_points=5,
    )
    kw.update(overrides)
    return StabilityConfig(**kw)


class TestConfigValidation:
    def test_bare_quasi_gauge_is_rejected(self):
        with pytest.raises(ConfigurationError, match="quasi_corollary"):
            make_float_additive_config(gauge=Gauge(kind="lp-quasi", p=0.5), beta=0.5)

    def test_quasi_run_requires_float_backend(self):
        with pytest.raises(ConfigurationError, match="float-only"):
            make_exact_quadratic_config(
                gauge=Gauge(kind="lp-quasi", p=0.5), quasi_corollary=True, beta=0.5
            )

    def test_quasi_beta_must_equal_p(self):
        with pytest.raises(ConfigurationError, match="must equal gauge p"):
            make_float_additive_config(
                gauge=Gauge(kind="lp-quasi", p=0.5), quasi_corollary=True, beta=1.0
            )

    def test_beta_must_match_gauge_degree(self):
        with pytest.raises(ConfigurationError, match="homogeneity"):
            make_float_additive_config(beta=0.5)

    def test_beta_range(self):
        with pytest.raises(ConfigurationError, match="lie in"):
            make_float_additive_config(
                gauge=Gauge(kind="beta-sum", beta=2.0), beta=2.0
            )

    def test_exact_mode_needs_matching_backend(self):
        with pytest.raises(ConfigurationError, match="does not match map backend"):
            make_float_additive_config(mode="exact-rational")

    def test_exact_mode_rejects_gauges_without_exact_path(self):
        with pytest.raises(ConfigurationError, match="no exact evaluation"):
            make_exact_quadratic_config(gauge=Gauge(kind="euclidean"), beta=1)

    def test_exact_mode_rejects_isosceles_sampling(self):
        with pytest.raises(ConfigurationError, match="float-only"):
            make_exact_quadratic_config(
                relation=OrthoRelation(
                    kind="isosceles", dimension=2, gauge=Gauge(kind="beta-sum", beta=1.0)
                )
            )

    def test_counts_and_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            make_float_additive_config(n_max=0)
        with pytest.raises(ConfigurationError):
            make_float_additive_config(sample_count=0)

    def test_zero_tolerance_needs_exact_orthogonality(self):
        gauge = Gauge(kind="beta-sum", beta=1.0)
        for kind in ("euclidean", "isosceles"):
            relation = OrthoRelation(kind=kind, dimension=2, gauge=gauge, tolerance=0.0)
            with pytest.raises(ConfigurationError, match="relation.tolerance"):
                make_float_additive_config(relation=relation)
        make_float_additive_config(
            relation=OrthoRelation(kind="trivial-zero", dimension=2, tolerance=0.0)
        )
        make_exact_quadratic_config(
            relation=OrthoRelation(kind="euclidean", dimension=2, tolerance=0.0)
        )

    def test_unknown_equation(self):
        with pytest.raises(ConfigurationError, match="equation"):
            make_float_additive_config(equation="jensen-cubic")


class TestResolveEpsilon:
    def test_float_additive_degree_one(self):
        eps, delta = make_float_additive_config().resolve_epsilon()
        assert delta == 1e-3
        assert eps == pytest.approx(4e-3, rel=1e-15)

    def test_float_fractional_degree(self):
        cfg = make_float_additive_config(gauge=Gauge(kind="beta-sum", beta=0.5), beta=0.5)
        eps, _ = cfg.resolve_epsilon()
        assert eps == pytest.approx((2**0.5 + 2) * 1e-3, rel=1e-15)

    def test_exact_factors(self):
        eps, delta = make_exact_quadratic_config().resolve_epsilon()
        assert eps == Fraction(6, 1000)
        assert delta == Fraction(1, 1000)

    def test_explicit_epsilon_passes_through(self):
        cfg = make_float_additive_config(epsilon=0.01)
        assert cfg.resolve_epsilon()[0] == 0.01

    def test_quasi_epsilon_lands_in_working_units(self):
        cfg = make_float_additive_config(
            gauge=Gauge(kind="lp-quasi", p=0.5),
            beta=0.5,
            quasi_corollary=True,
            epsilon=0.04,
        )
        eps, _ = cfg.resolve_epsilon()
        assert eps == pytest.approx(0.04**0.5, rel=1e-15)


class TestRunStability:
    def test_float_additive_pipeline(self):
        report = run_stability(make_float_additive_config())
        assert report.premise_ok
        assert report.derivation.chain_ok
        assert report.all_within_bound
        assert report.conclusion.ok
        assert report.uniqueness.ok
        assert report.ok
        assert len(report.samples) == 40
        assert report.guard_events == []
        assert 0 < report.max_ratio <= 1.0
        assert report.k_interval[0] <= 7.75 <= report.k_interval[1]
        json.dumps(report.to_dict())

    def test_exact_quadratic_pipeline(self):
        report = run_stability(make_exact_quadratic_config())
        assert report.ok
        assert isinstance(report.defect_bound, Fraction)
        assert report.defect_bound == Fraction(9, 16) * Fraction(6, 1000)
        assert all(isinstance(r.value, Fraction) for r in report.samples)
        assert report.precision_notes == []
        json.dumps(report.to_dict())

    def test_exact_run_honours_point_scale(self):
        points = [r.point for r in run_stability(make_exact_quadratic_config()).samples]
        scaled = run_stability(make_exact_quadratic_config(point_scale=4.0)).samples
        assert [r.point for r in scaled] == [tuple(4 * c for c in x) for x in points]
        assert all(isinstance(c, Fraction) for r in scaled for c in r.point)

    def test_noiseless_exact_run_is_exactly_zero_everywhere(self):
        report = run_stability(make_exact_quadratic_config(noise_amplitude=Fraction(0)))
        assert report.epsilon == 0
        assert report.ok
        for row in report.samples:
            assert row.value == 0
            assert row.ratio == 0
            assert row.within

    def test_determinism(self):
        r1 = run_stability(make_float_additive_config())
        r2 = run_stability(make_float_additive_config())
        assert [r.value for r in r1.samples] == [r.value for r in r2.samples]
        assert r1.to_dict() == r2.to_dict()

    def test_seed_changes_draws(self):
        r1 = run_stability(make_float_additive_config())
        r2 = run_stability(make_float_additive_config(seed=506))
        assert [r.value for r in r1.samples] != [r.value for r in r2.samples]

    def test_deep_float_quadratic_trips_the_guard(self):
        spec = MapSpec(
            base="quadratic-form",
            matrix=((1.0, 0.25), (0.25, 2.0)),
            noise_amplitude=1e-3,
            noise_parity="even",
            seed=910,
            backend="float64",
        )
        cfg = StabilityConfig(
            equation="jensen-quadratic",
            dimension=2,
            gauge=Gauge(kind="beta-sum", beta=1.0),
            relation=OrthoRelation(kind="euclidean", dimension=2),
            map_spec=spec,
            beta=1.0,
            sample_count=10,
            pair_count=10,
            n_max=25,
            seed=606,
            conclusion_pairs=5,
            uniqueness_points=5,
        )
        report = run_stability(cfg)
        assert report.guard_events
        assert any("cancellation budget" in e for e in report.guard_events)
        assert not report.ok

    def test_quasi_readings_match_direct_run(self):
        direct = make_float_additive_config(
            gauge=Gauge(kind="beta-sum", beta=0.5), beta=0.5
        )
        quasi = make_float_additive_config(
            gauge=Gauge(kind="lp-quasi", p=0.5), beta=0.5, quasi_corollary=True
        )
        rd = run_stability(direct)
        rq = run_stability(quasi)
        assert rq.quasi is not None
        assert rd.quasi is None
        assert [r.within for r in rd.samples] == [r.within for r in rq.samples]
        assert [r.value for r in rd.samples] == [r.value for r in rq.samples]
        assert rq.quasi["p"] == 0.5


def _indeterminate_count(report) -> int:
    """The number of scale checks decided only up to rounding slack, 0 if none."""
    counts = [int(n.split()[0]) for n in report.precision_notes if "scale checks were" in n]
    return counts[0] if counts else 0


@pytest.mark.parametrize("name", ["additive_beta1", "quadratic_beta1"])
def test_doubling_the_map_doubles_every_value(name):
    """Metamorphic check of the chain, corrector, conclusion and uniqueness formulas.

    At beta = 1 every defect, bound and rounding slack is linear in f, and
    doubling is exact in float64. So doubling map.matrix and
    map.noise_amplitude doubles each of them bit for bit and keeps every
    ratio, verdict and count.
    """
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    doubled = json.loads(json.dumps(doc))
    doubled["map"]["matrix"] = [[2 * v for v in row] for row in doc["map"]["matrix"]]
    doubled["map"]["noise_amplitude"] = 2 * doc["map"]["noise_amplitude"]
    base, twice = (run_stability(load_stability_config(d)) for d in (doc, doubled))
    for a, b in zip(base.samples, twice.samples, strict=True):
        assert (2 * a.value, 2 * a.bound, 2 * a.residual) == (b.value, b.bound, b.residual)
        assert (a.ratio, a.within) == (b.ratio, b.within)
    rows = zip(
        base.derivation.premise_rows + base.derivation.chain_rows,
        twice.derivation.premise_rows + twice.derivation.chain_rows,
        strict=True,
    )
    for a, b in rows:
        assert (2 * a.max_value, 2 * a.bound, a.ok) == (b.max_value, b.bound, b.ok), a.name
    c, d = base.conclusion, twice.conclusion
    assert (2 * c.max_defect, 2 * c.max_slack, c.ok) == (d.max_defect, d.max_slack, d.ok)
    u, v = base.uniqueness, twice.uniqueness
    assert (2 * u.max_gap, u.ok) == (v.max_gap, v.ok)
    assert base.max_ratio == twice.max_ratio
    assert (base.premise_ok, base.derivation.chain_ok, base.ok) == (
        twice.premise_ok,
        twice.derivation.chain_ok,
        twice.ok,
    )
    assert len(base.guard_events) == len(twice.guard_events)
    assert _indeterminate_count(base) == _indeterminate_count(twice)


@given(scale=st.integers(min_value=-6, max_value=6))
@settings(max_examples=20, deadline=None)
def test_defect_bound_scales_linearly_with_epsilon(scale):
    """The derived bound is homogeneous in epsilon: C(t eps) = t C(eps)."""
    eps = Fraction(4, 1000) * Fraction(2) ** scale
    assert additive_defect_factor(1, field=RATIONAL) * eps == Fraction(31, 8) * eps
    points = [(Fraction(1), Fraction(2))]
    pairs = [((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))]
    d = derive_defect_bound_additive(linear_exact, eps, Fraction(1), ABS1, points, pairs)
    assert d.defect_bound == Fraction(31, 8) * eps
