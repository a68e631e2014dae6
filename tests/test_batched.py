"""Stack evaluation of maps, gauges, corrector and derivation against a per-point reference.

The reference functions below evaluate one point at a time, the way the
workbench did before maps, gauges and the corrector took stacks of points.
The stack versions must reproduce them bit for bit: np.array_equal on
float64, == on Fraction, and the same witness objects. The strategy covers
every gauge kind, every noise parity, every base map, dimensions 1 to 4 and
both scalar backends.
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthostab import (
    ConfigurationError,
    CorrectorEvaluator,
    Gauge,
    MapSpec,
    OrthoRelation,
    build_map,
    coefficients,
    corrector_limit,
    derive_defect_bound_additive,
    derive_defect_bound_quadratic,
    scaled_noise,
    uniqueness_probe,
    verify_conclusion,
)
from orthostab import vectors as vec
from orthostab.corrector import EPS, OPS_ENVELOPE, _scale_defects, scale_table
from orthostab.maps import NOISE_DENOMINATOR, NOISE_HEADROOM

FLOAT_GAUGES = (
    Gauge(kind="euclidean"),
    Gauge(kind="beta-sum", beta=1.0),
    Gauge(kind="beta-sum", beta=0.5),
    Gauge(kind="lp-quasi", p=0.5),
    Gauge(kind="p-power-of", p=0.5, base=Gauge(kind="lp-quasi", p=0.5)),
    Gauge(kind="euclidean-squared"),
)
EXACT_GAUGES = (Gauge(kind="beta-sum", beta=1), Gauge(kind="euclidean-squared"))


def field(exact: bool):
    return vec.RATIONAL if exact else vec.FLOAT64


# ---------------------------------------------------------------------------
# reference: one point at a time


def ref_gauge(gauge: Gauge, y):
    if isinstance(y, tuple):
        if gauge.kind == "beta-sum" and gauge.beta == 1:
            return sum((abs(c) for c in y), Fraction(0))
        assert gauge.kind == "euclidean-squared"
        return sum((c * c for c in y), Fraction(0))
    y = np.asarray(y, dtype=np.float64)
    if gauge.kind == "euclidean":
        return float(np.sqrt(np.sum(y * y)))
    if gauge.kind == "euclidean-squared":
        return float(np.sum(y * y))
    if gauge.kind == "beta-sum":
        a = np.abs(y)
        return float(np.sum(a)) if gauge.beta == 1 else float(np.sum(a ** gauge.beta))
    if gauge.kind == "lp-quasi":
        return float(np.sum(np.abs(y) ** gauge.p)) ** (1.0 / gauge.p)
    return ref_gauge(gauge.base, y) ** gauge.p


def ref_encode(x) -> bytes:
    if isinstance(x, tuple):
        return b"".join(f"{c.numerator}/{c.denominator};".encode() for c in x)
    return struct.pack("<%dd" % len(x), *[float(c) + 0.0 for c in x])


def ref_digest_words(seed: int, payload: bytes, count: int) -> list:
    key = seed.to_bytes(8, "little", signed=False)
    words, block = [], 0
    while len(words) < count:
        d = hashlib.blake2b(payload + block.to_bytes(4, "little"), key=key, digest_size=64).digest()
        words += [int.from_bytes(d[i : i + 8], "little") for i in range(0, 64, 8)]
        block += 1
    return words[:count]


def ref_raw_noise(seed: int, x, m: int):
    words = ref_digest_words(seed, ref_encode(x), m)
    if isinstance(x, tuple):
        d = NOISE_DENOMINATOR
        return tuple(Fraction(w % (2 * d) - d, d) for w in words)
    return np.array([(w >> 11) * 2.0 ** -53 * 2.0 - 1.0 for w in words])


def ref_scaled_noise(seed: int, x, m: int, parity: str, amplitude, gauge: Gauge):
    exact = isinstance(x, tuple)
    if amplitude == 0:
        return field(exact).zero(m)
    eta = ref_raw_noise(seed, x, m)
    if parity != "none":
        half = Fraction(1, 2) if exact else 0.5
        neg = ref_raw_noise(seed, vec.vneg(x), m)
        eta = vec.vscale(half, vec.vsub(eta, neg) if parity == "odd" else vec.vadd(eta, neg))
    g = ref_gauge(gauge, eta)
    if g == 0:
        return eta
    if exact:
        if gauge.homogeneity_degree != 1:
            raise ConfigurationError("exact noise scaling needs a 1-homogeneous gauge")
        return vec.vscale(Fraction(amplitude) * NOISE_HEADROOM / g, eta)
    target = float(amplitude) * float(NOISE_HEADROOM)
    eta = vec.vscale((target / g) ** (1.0 / gauge.homogeneity_degree), eta)
    for _ in range(8):
        if ref_gauge(gauge, eta) <= target:
            return eta
        eta = vec.vscale(1.0 - 2.0 ** -48, eta)
    raise AssertionError("reference noise scaling failed")


def ref_noise(spec: MapSpec, gauge: Gauge, x):
    m = len(spec.matrix) if spec.base == "linear" else spec.codomain_dim or 1
    return ref_scaled_noise(spec.seed, x, m, spec.noise_parity, spec.noise_amplitude, gauge)


def ref_map(spec: MapSpec, gauge: Gauge):
    exact = spec.backend == "exact-rational"
    if spec.base == "linear":
        m = len(spec.matrix)
        if exact:
            def base(x):
                return tuple(
                    sum((r[j] * x[j] for j in range(len(x))), Fraction(0)) for r in spec.matrix
                )
        else:
            mat = np.array(spec.matrix, dtype=np.float64)

            def base(x):
                return mat @ x
    elif spec.base == "quadratic-form":
        m = 1
        if exact:
            def base(x):
                acc = Fraction(0)
                for i in range(len(x)):
                    for j in range(len(x)):
                        acc += x[i] * spec.matrix[i][j] * x[j]
                return (acc,)
        else:
            mat = np.array(spec.matrix, dtype=np.float64)

            def base(x):
                return np.array([float(x @ (mat @ x))])
    else:
        m = spec.codomain_dim

        def base(x):
            return field(exact).zero(m)

    def f(x):
        y = base(x)
        if spec.noise_amplitude != 0:
            y = vec.vadd(y, ref_noise(spec, gauge, x))
        return y

    return f


def ref_scale(x, k: int):
    return vec.vscale(Fraction(2) ** k if isinstance(x, tuple) else 2.0 ** k, x)


def ref_scale_table(f, x, k_max: int):
    fp = [f(ref_scale(x, k)) for k in range(k_max + 1)]
    fm = [f(vec.vneg(ref_scale(x, k))) for k in range(k_max + 1)]
    return fp, fm


def ref_defects_from_table(fp, fm, k: int, gauge: Gauge, exact: bool):
    a, b = (Fraction(3, 8), Fraction(1, 8)) if exact else (0.375, 0.125)
    plus = vec.vadd(vec.vsub(fp[k], vec.vscale(a, fp[k + 1])), vec.vscale(b, fm[k + 1]))
    minus = vec.vadd(vec.vsub(fm[k], vec.vscale(a, fm[k + 1])), vec.vscale(b, fp[k + 1]))
    if exact:
        return (ref_gauge(gauge, plus), Fraction(0)), (ref_gauge(gauge, minus), Fraction(0))
    mag_p = np.abs(fp[k]) + a * np.abs(fp[k + 1]) + b * np.abs(fm[k + 1])
    mag_m = np.abs(fm[k]) + a * np.abs(fm[k + 1]) + b * np.abs(fp[k + 1])
    return (
        (ref_gauge(gauge, plus), ref_gauge(gauge, OPS_ENVELOPE * EPS * mag_p)),
        (ref_gauge(gauge, minus), ref_gauge(gauge, OPS_ENVELOPE * EPS * mag_m)),
    )


def ref_max(values_witnesses):
    worst, witness = None, None
    for value, w in values_witnesses:
        if worst is None or value > worst:
            worst, witness = value, w
    return worst, witness


def ref_rows(f, gauge: Gauge, points, pairs, equation: str, exact: bool) -> dict:
    """{row name: (max value, witness)} for every premise and chain row but value-at-zero."""
    half, two, three, four, eight = (
        (Fraction(1, 2), Fraction(2), Fraction(3), Fraction(4), Fraction(8))
        if exact
        else (0.5, 2.0, 3.0, 4.0, 8.0)
    )
    a, b = (Fraction(3, 8), Fraction(1, 8)) if exact else (0.375, 0.125)
    sub, add, scale, neg = vec.vsub, vec.vadd, vec.vscale, vec.vneg

    def per_point(expr):
        return ref_max((ref_gauge(gauge, expr(x)), x) for x in points)

    def per_pair(expr):
        return ref_max((ref_gauge(gauge, expr(*pair)), pair) for pair in pairs)

    def combination(x):
        f4, f2, fm4 = f(scale(four, x)), f(scale(two, x)), f(neg(scale(four, x)))
        return sub(sub(scale(three, f4), scale(eight, f2)), fm4)

    def three_eighths(x):
        f2, f4, fm4 = f(ref_scale(x, 1)), f(ref_scale(x, 2)), f(neg(ref_scale(x, 2)))
        return add(sub(f2, scale(a, f4)), scale(b, fm4))

    rows = {
        "fourth-scale-combination": per_point(combination),
        "three-eighths-defect": per_point(three_eighths),
    }
    if equation == "jensen-additive":
        rows["jensen-additive-premise"] = per_pair(
            lambda x, y: sub(scale(two, f(scale(half, add(x, y)))), add(f(x), f(y)))
        )
        rows["oddness-premise"] = per_point(lambda x: add(f(x), f(neg(x))))
        rows["halving"] = per_point(lambda x: sub(scale(two, f(scale(half, x))), f(x)))
        rows["doubling"] = per_point(lambda x: sub(scale(two, f(x)), f(scale(two, x))))
    else:
        def premise(x, y):
            lhs = add(scale(two, f(scale(half, add(x, y)))), scale(two, f(scale(half, sub(x, y)))))
            return sub(lhs, add(f(x), f(y)))

        rows["jensen-quadratic-premise"] = per_pair(premise)
        def halving_sum(x):
            lhs = add(scale(two, f(scale(half, x))), scale(two, f(neg(scale(half, x)))))
            return sub(lhs, f(x))

        rows["halving-sum"] = per_point(halving_sum)
        rows["halving-even"] = per_point(lambda x: sub(scale(four, f(scale(half, x))), f(x)))
        rows["evenness-defect"] = per_point(lambda x: sub(f(x), f(neg(x))))
    return rows


def ref_value_and_magnitude(f, n: int, z):
    exact = isinstance(z, tuple)
    cp, cm = coefficients(n, field(exact))
    tp = vec.vscale(cp, f(ref_scale(z, n)))
    tm = vec.vscale(cm, f(vec.vneg(ref_scale(z, n))))
    if exact:
        return vec.vsub(tp, tm), tuple(abs(p) + abs(q) for p, q in zip(tp, tm))
    return vec.vsub(tp, tm), np.abs(tp) + np.abs(tm)


# ---------------------------------------------------------------------------
# strategy and comparisons


@st.composite
def setups(draw):
    """(map spec, gauge, points) on one backend; some points come with their negation."""
    exact = draw(st.booleans())
    gauge = draw(st.sampled_from(EXACT_GAUGES if exact else FLOAT_GAUGES))
    base = draw(st.sampled_from(("linear", "quadratic-form", "zero")))
    d = draw(st.integers(1, 4))
    m = 1 if base == "quadratic-form" else draw(st.integers(1, 4))

    def scalar(bound):
        if exact:
            return Fraction(draw(st.integers(-64 * bound, 64 * bound)), 64)
        return draw(st.floats(-bound, bound, allow_nan=False, allow_subnormal=False))

    rows = d if base == "quadratic-form" else m
    matrix = None
    if base != "zero":
        matrix = tuple(tuple(scalar(4) for _ in range(d)) for _ in range(rows))
    amplitudes = (Fraction(0), Fraction(1, 1000), Fraction(3, 7)) if exact else (0.0, 1e-3, 0.37)
    amplitude = draw(st.sampled_from(amplitudes))
    spec = MapSpec(
        base=base,
        matrix=matrix,
        noise_amplitude=amplitude,
        noise_parity=draw(st.sampled_from(("none", "odd", "even"))),
        seed=draw(st.integers(0, 2**64 - 1)),
        backend="exact-rational" if exact else "float64",
        codomain_dim=m if base == "zero" else None,
    )
    points = []
    for _ in range(draw(st.integers(1, 5))):
        coords = [scalar(20) for _ in range(d)]
        point = tuple(coords) if exact else np.array(coords)
        points.append(point)
        if draw(st.booleans()):
            points.append(vec.vneg(point))
    return spec, gauge, points


def assert_same(a, b):
    """Bit-for-bit equality of two values, vectors or stacks of one backend."""
    if vec.field_of(a) is vec.RATIONAL or isinstance(a, Fraction):
        def flat(v):
            return np.ravel(np.asarray(v, dtype=object)).tolist()

        assert flat(a) == flat(b)
    else:
        assert np.array_equal(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


def noise_scales(spec: MapSpec, gauge: Gauge) -> bool:
    """False where exact noise scaling refuses the gauge (at every point but 0)."""
    exact = spec.backend == "exact-rational"
    return not (exact and spec.noise_amplitude != 0 and gauge.homogeneity_degree != 1)


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize(
    "gauge, exact",
    [(g, False) for g in FLOAT_GAUGES] + [(g, True) for g in EXACT_GAUGES],
    ids=lambda v: v.describe() if isinstance(v, Gauge) else ("exact" if v else "float64"),
)
def test_gauge_stacks_match_the_reference_on_many_rows(gauge, exact):
    """Enough rows that a vectorised power, which differs from Python's on
    about one value in a few thousand, would show."""
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 4):
        if exact:
            numerators = rng.integers(-999, 999, size=(200, d)).tolist()
            stack = vec.stack([tuple(Fraction(n, 64) for n in row) for row in numerators])
        else:
            stack = rng.normal(size=(5000, d)) * 10.0 ** rng.integers(-3, 3, size=(5000, 1))
        values = gauge.evaluate(stack)
        assert_same(values, [ref_gauge(gauge, vec.point_form(row)) for row in stack])


@given(setup=setups())
@settings(max_examples=80, deadline=None)
def test_maps_noise_and_gauges_match_the_reference(setup):
    spec, gauge, points = setup
    f, ref = build_map(spec, gauge), ref_map(spec, gauge)
    stack = vec.stack(points)
    m = f.codomain_dim
    try:
        expected = [ref(x) for x in points]
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            f(stack)
        return
    noise = scaled_noise(spec.seed, stack, m, spec.noise_parity, spec.noise_amplitude, gauge)
    values = f(stack)
    gauges = gauge.evaluate(values)
    for i, x in enumerate(points):
        assert_same(noise[i], ref_noise(spec, gauge, x))
        assert_same(values[i], expected[i])
        assert_same(gauges[i], ref_gauge(gauge, expected[i]))
    # one point is the one-row case and keeps its point form
    one = f(points[0])
    assert isinstance(one, tuple) if vec.field_of(stack) is vec.RATIONAL else one.shape == (m,)
    assert_same(one, ref(points[0]))
    value = gauge.evaluate(one)
    assert isinstance(value, Fraction if vec.field_of(stack) is vec.RATIONAL else float)
    assert value == ref_gauge(gauge, ref(points[0]))


@given(
    setup=setups(),
    n_max=st.integers(1, 12),
    bound=st.sampled_from((0, Fraction(1, 4096), Fraction(1, 64), Fraction(1, 2), Fraction(8))),
)
@settings(max_examples=60, deadline=None)
def test_corrector_limit_matches_the_reference(setup, n_max, bound):
    spec, gauge, points = setup
    if not noise_scales(spec, gauge):
        return
    exact = spec.backend == "exact-rational"
    bound = bound if exact else float(bound)
    beta = 1 if exact else 1.0
    f, ref = build_map(spec, gauge), ref_map(spec, gauge)
    for x in points[:2]:
        fp, fm = scale_table(f, x, n_max + 1)
        rp, rm = ref_scale_table(ref, x, n_max + 1)
        for k in range(n_max + 2):
            assert_same(fp[k], rp[k])
            assert_same(fm[k], rm[k])
        defects, slacks = _scale_defects(fp, fm, gauge)
        expected = [ref_defects_from_table(rp, rm, k, gauge, exact) for k in range(1, n_max + 1)]
        violations, indeterminate = [], []
        for k, ((dp, sp), (dm, sm)) in enumerate(expected, start=1):
            assert_same(defects[k - 1], [dp, dm])
            assert_same(slacks[k - 1], [sp, sm])
            for sign, d, s in (("+", dp, sp), ("-", dm, sm)):
                if d > bound + s:
                    violations.append((k, sign, d))
                elif d > bound:
                    indeterminate.append((k, sign, d, s))
        g, trace = corrector_limit(f, x, beta, bound, gauge, n_max)
        assert trace.hypothesis_violations == violations
        assert trace.indeterminate_scales == indeterminate
        assert trace.hypothesis_ok == (not violations)
        cp, cm = coefficients(n_max, field(exact))
        assert_same(g, vec.vsub(vec.vscale(cp, rp[n_max]), vec.vscale(cm, rm[n_max])))
        assert type(g) is type(x)
        assert trace.defects == [dp for (dp, _), _ in expected]


@given(setup=setups(), equation=st.sampled_from(("jensen-additive", "jensen-quadratic")))
@settings(max_examples=60, deadline=None)
def test_derivation_rows_match_the_reference(setup, equation):
    spec, gauge, points = setup
    if not noise_scales(spec, gauge):
        return
    exact = spec.backend == "exact-rational"
    f, ref = build_map(spec, gauge), ref_map(spec, gauge)
    zero = field(exact).zero(len(points[0]))
    pairs = [(zero, zero), (zero, points[0]), (points[0], zero)]
    pairs += list(zip(points, reversed(points)))
    additive = equation == "jensen-additive"
    derive = derive_defect_bound_additive if additive else derive_defect_bound_quadratic
    eps = Fraction(1, 100) if exact else 0.01
    d = derive(f, eps, 1 if exact else 1.0, gauge, points, pairs)
    expected = ref_rows(ref, gauge, points, pairs, equation, exact)
    rows = d.premise_rows + d.chain_rows
    assert {r.name for r in rows} == set(expected) | {"value-at-zero"}
    for row in rows:
        if row.name == "value-at-zero":
            assert_same(row.max_value, ref_gauge(gauge, ref(zero)))
            continue
        value, witness = expected[row.name]
        assert_same(row.max_value, value)
        assert row.witness is witness
        assert row.checked == len(pairs if row.name.startswith("jensen-") else points)
        assert row.ok == (value <= row.bound)


@given(
    setup=setups(),
    n=st.integers(1, 8),
    equation=st.sampled_from(("jensen-additive", "jensen-quadratic")),
)
@settings(max_examples=40, deadline=None)
def test_conclusion_and_uniqueness_match_the_reference(setup, n, equation):
    spec, gauge, points = setup
    if not noise_scales(spec, gauge):
        return
    exact = spec.backend == "exact-rational"
    f, ref = build_map(spec, gauge), ref_map(spec, gauge)
    relation = OrthoRelation(kind="trivial-zero", dimension=len(points[0]))
    zero = field(exact).zero(len(points[0]))
    pairs = [(x, zero) for x in points] + [(zero, x) for x in points]
    check = verify_conclusion(CorrectorEvaluator(f, n), equation, relation, pairs, gauge)
    half, two = (Fraction(1, 2), Fraction(2)) if exact else (0.5, 2.0)
    max_defect = max_slack = Fraction(0) if exact else 0.0
    for x, y in pairs:
        vm1, gm1 = ref_value_and_magnitude(ref, n, vec.vscale(half, vec.vadd(x, y)))
        vx, gx = ref_value_and_magnitude(ref, n, x)
        vy, gy = ref_value_and_magnitude(ref, n, y)
        if equation == "jensen-additive":
            expr = vec.vsub(vec.vscale(two, vm1), vec.vadd(vx, vy))
            mag = None if exact else 2.0 * gm1 + gx + gy
        else:
            vm2, gm2 = ref_value_and_magnitude(ref, n, vec.vscale(half, vec.vsub(x, y)))
            expr = vec.vsub(vec.vadd(vec.vscale(two, vm1), vec.vscale(two, vm2)), vec.vadd(vx, vy))
            mag = None if exact else 2.0 * gm1 + 2.0 * gm2 + gx + gy
        max_defect = max(max_defect, ref_gauge(gauge, expr))
        if not exact:
            max_slack = max(max_slack, ref_gauge(gauge, OPS_ENVELOPE * EPS * mag))
    assert_same(check.max_defect, max_defect)
    assert_same(check.max_slack, max_slack)

    probe = uniqueness_probe(f, points, n, n + 3, 1 if exact else 1.0, max_defect, gauge)
    gaps = []
    for x in points:
        low, high = ref_value_and_magnitude(ref, n, x)[0], ref_value_and_magnitude(ref, n + 3, x)[0]
        gaps.append(ref_gauge(gauge, vec.vsub(low, high)))
    assert_same(probe.max_gap, max([Fraction(0) if exact else 0.0] + gaps))
