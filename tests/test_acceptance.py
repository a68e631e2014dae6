"""End-to-end acceptance suite for the workbench.

Nine criteria, one test each. Every test prints a single line

    criterion N (<name>): PASS|FAIL [detail]

directly to the terminal (bypassing capture), so a plain pytest run shows the
scoreboard; `pytest -v` additionally gives one PASSED/FAILED row per
criterion. Stated tolerances and wall-clock budgets are asserted, not logged.
"""

from __future__ import annotations

import csv
import io
import json
import time
from fractions import Fraction

import numpy as np

from conftest import CONFIG_DIR, exact_points
from orthostab import (
    AXIOM_SYSTEMS,
    CorrectorEvaluator,
    Gauge,
    MapSpec,
    OrthoRelation,
    build_map,
    cauchy_gap,
    check_beta_homogeneity,
    check_fnorm_axioms,
    check_gap_bounds,
    check_relation_axioms,
    derive_defect_bound_additive,
    derive_defect_bound_quadratic,
    estimate_quasi_constant,
    k_additive,
    k_additive_quasi,
    k_quadratic,
    k_quadratic_quasi,
    make_gauge_samples,
    run_stability,
    sample_orthogonal_pairs,
    verify_conclusion,
)
from orthostab.cli import EXIT_OK, EXIT_VIOLATION, load_stability_config, main
from orthostab.vectors import RATIONAL

ABS1 = Gauge(kind="beta-sum", beta=1.0)
EUCLID2 = OrthoRelation(kind="euclidean", dimension=2)


def _verdict(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def _load_config(name: str):
    return load_stability_config(json.loads((CONFIG_DIR / name).read_text()))


def test_criterion_1_certified_constants(capsys):
    t0 = time.perf_counter()
    code = main(["constants"])
    elapsed = time.perf_counter() - t0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    by_key = {(r["quantity"], float(r["parameter"])): r for r in rows}
    targets = [
        (("gap_series", 1.0), 1.0),
        (("gap_series", 2.0), 0.2),
        (("k_additive", 1.0), 7.75),
        (("k_quadratic", 1.0), 1.125),
    ]
    enclosed = True
    for key, target in targets:
        r = by_key[key]
        lo, hi, width = float(r["lower"]), float(r["upper"]), float(r["width"])
        enclosed = enclosed and lo <= target <= hi and width <= 1e-9
    ok = code == EXIT_OK and enclosed and elapsed < 1.0
    _verdict(capsys, 1, "certified constants", ok, f"{elapsed:.3f}s")


def test_criterion_2_solution_stationarity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    float_pts = [2.0 * rng.normal(size=2) for _ in range(100)]
    exact_pts = exact_points(100, seed=20260816)

    lin_f = lambda x: np.array([2.0 * x[0] + x[1], x[1]])
    lin_e = lambda x: (2 * x[0] + x[1], x[1])
    quad_f = lambda x: np.array([x[0] ** 2 + 2.0 * x[1] ** 2])
    quad_e = lambda x: (x[0] ** 2 + 2 * x[1] ** 2,)

    worst = 0.0
    exact_ok = True
    for n in range(1, 11):
        for x in float_pts:
            for f in (lin_f, quad_f):
                dev = np.max(np.abs(CorrectorEvaluator(f, n).value(x) - f(x)))
                worst = max(worst, float(dev))
        for z in exact_pts:
            for f in (lin_e, quad_e):
                if CorrectorEvaluator(f, n).value(z) != f(z):
                    exact_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and exact_ok and elapsed < 5.0
    _verdict(
        capsys, 2, "solution stationarity", ok,
        f"float dev {worst:.3g}, exact {'equal' if exact_ok else 'DIFFERS'}, {elapsed:.2f}s",
    )


def test_criterion_3_exact_telescoping(capsys):
    t0 = time.perf_counter()
    delta = Fraction(1, 1000)
    all_ok = True
    instances = 0
    for i in range(10):
        for equation in ("jensen-additive", "jensen-quadratic"):
            if equation == "jensen-additive":
                spec = MapSpec(
                    base="linear",
                    matrix=((Fraction(2), Fraction(1)), (Fraction(0), Fraction(1))),
                    noise_amplitude=delta,
                    noise_parity="odd",
                    seed=2000 + i,
                    backend="exact-rational",
                )
                eps = Fraction(4) * delta
            else:
                spec = MapSpec(
                    base="quadratic-form",
                    matrix=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),
                    noise_amplitude=delta,
                    noise_parity="even",
                    seed=3000 + i,
                    backend="exact-rational",
                )
                eps = Fraction(6) * delta
            f = build_map(spec, ABS1)
            points = exact_points(25, seed=100 + i)
            pairs = sample_orthogonal_pairs(EUCLID2, 25, seed=200 + i, field=RATIONAL)
            if equation == "jensen-additive":
                der = derive_defect_bound_additive(f, eps, Fraction(1), ABS1, points, pairs)
            else:
                zero = (Fraction(0), Fraction(0))
                aug = [(zero, zero), (zero, points[0]), (points[0], zero)] + pairs
                der = derive_defect_bound_quadratic(f, eps, Fraction(1), ABS1, points, aug)
            all_ok = all_ok and der.certified
            for x in points[:3]:
                rep = check_gap_bounds(f, x, range(1, 9), der.defect_bound, Fraction(1), ABS1)
                all_ok = all_ok and rep.all_ok and rep.hypothesis_ok
                all_ok = all_ok and not rep.hypothesis_indeterminate
            instances += 1
    elapsed = time.perf_counter() - t0
    ok = all_ok and instances == 20 and elapsed < 30.0
    _verdict(capsys, 3, "exact telescoping bounds", ok, f"{instances} instances, {elapsed:.2f}s")


def _end_to_end(config_names, equation, factor_of):
    reports = {}
    for name in config_names:
        cfg = _load_config(name)
        assert cfg.equation == equation
        report = run_stability(cfg)
        reports[name] = (cfg, report)
    return reports


def test_criterion_4_additive_end_to_end(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in ("additive_beta1.json", "additive_beta05.json"):
        cfg = _load_config(name)
        b = float(cfg.beta)
        report = run_stability(cfg)
        eps_ok = report.epsilon == (2.0**b + 2.0) * 1e-3
        this = (
            eps_ok
            and len(report.samples) == 1000
            and cfg.n_max == 20
            and report.premise_ok
            and report.derivation.chain_ok
            and report.all_within_bound
            and report.conclusion.ok
            and report.uniqueness.ok
            and report.ok
        )
        ok = ok and this
        details.append(f"beta={b:g} max ratio {float(report.max_ratio):.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(capsys, 4, "additive pipeline", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_5_quadratic_end_to_end(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in ("quadratic_beta1.json", "quadratic_beta05.json"):
        cfg = _load_config(name)
        b = float(cfg.beta)
        report = run_stability(cfg)
        eps = (2.0 * 2.0**b + 2.0) * 1e-3
        evenness = next(r for r in report.derivation.chain_rows if r.name == "evenness-defect")
        even_bound = 2.0 * 2.0**-b * (2.0**-b + 1.0) * eps
        this = (
            report.epsilon == eps
            and len(report.samples) == 1000
            and report.premise_ok
            and report.derivation.chain_ok
            and report.all_within_bound
            and report.conclusion.ok
            and report.uniqueness.ok
            and report.ok
            and evenness.ok
            and abs(evenness.bound - even_bound) <= 1e-15 * even_bound
        )
        ok = ok and this
        details.append(f"beta={b:g} max ratio {float(report.max_ratio):.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(capsys, 5, "quadratic pipeline", ok, "; ".join(details) + f", {elapsed:.1f}s")


def _defect_profile(f, equation, relation, pairs, gauge, depths):
    out = []
    for n in depths:
        chk = verify_conclusion(CorrectorEvaluator(f, n), equation, relation, pairs, gauge)
        out.append((chk.max_defect, chk.max_slack))
    return out


def test_criterion_6_conclusion_defect_decay(capsys):
    depths = (5, 10, 15, 20)
    pieces = []
    ok = True

    # float additive runs: the computed maxima decay strictly through n = 20
    for name in ("additive_beta1.json", "additive_beta05.json"):
        cfg = _load_config(name)
        f = build_map(cfg.map_spec, cfg.work_gauge())
        pairs = sample_orthogonal_pairs(cfg.relation, 100, seed=cfg.seed)
        prof = _defect_profile(f, cfg.equation, cfg.relation, pairs, cfg.work_gauge(), depths)
        eps, _ = cfg.resolve_epsilon()
        mono = all(prof[i + 1][0] <= prof[i][0] for i in range(len(prof) - 1))
        final = prof[-1][0] <= cauchy_gap(20, float(cfg.beta)) * eps + 10.0 * prof[-1][1]
        ok = ok and mono and final
        pieces.append(f"add b={float(cfg.beta):g}:{'ok' if mono and final else 'FAIL'}")

    # float quadratic runs: decay holds up to ten units of rounding slack,
    # since the true defect sinks below the float cancellation floor
    for name in ("quadratic_beta1.json", "quadratic_beta05.json"):
        cfg = _load_config(name)
        f = build_map(cfg.map_spec, cfg.work_gauge())
        pairs = sample_orthogonal_pairs(cfg.relation, 100, seed=cfg.seed)
        prof = _defect_profile(f, cfg.equation, cfg.relation, pairs, cfg.work_gauge(), depths)
        eps, _ = cfg.resolve_epsilon()
        mono = all(
            prof[i + 1][0] <= prof[i][0] + 10.0 * (prof[i][1] + prof[i + 1][1])
            for i in range(len(prof) - 1)
        )
        final = prof[-1][0] <= cauchy_gap(20, float(cfg.beta)) * eps + 10.0 * prof[-1][1]
        ok = ok and mono and final
        pieces.append(f"quad b={float(cfg.beta):g}:{'ok' if mono and final else 'FAIL'}")

    # rational backend: strict decay with zero tolerance for both equations
    for name, eps in (
        ("additive_rational.json", Fraction(4, 1000)),
        ("quadratic_rational.json", Fraction(6, 1000)),
    ):
        cfg = _load_config(name)
        f = build_map(cfg.map_spec, cfg.work_gauge())
        pairs = sample_orthogonal_pairs(cfg.relation, 100, seed=cfg.seed, field=RATIONAL)
        prof = _defect_profile(f, cfg.equation, cfg.relation, pairs, cfg.work_gauge(), depths)
        mono = all(prof[i + 1][0] <= prof[i][0] for i in range(len(prof) - 1))
        slack_free = all(s == 0 for _, s in prof)
        final = prof[-1][0] <= cauchy_gap(20, 1, field=RATIONAL) * eps
        ok = ok and mono and slack_free and final
        pieces.append(f"exact {cfg.equation.split('-')[1]}:{'ok' if mono and final else 'FAIL'}")

    _verdict(capsys, 6, "conclusion defect decay", ok, ", ".join(pieces))


def test_criterion_7_quasi_corollary(capsys):
    grid = (0.25, 0.5, 0.75, 1.0)
    identity_ok = True
    for p in grid:
        ka, kq = k_additive(p, tol=1e-11), k_quadratic(p, tol=1e-11)
        qa, qq = k_additive_quasi(p), k_quadratic_quasi(p)
        identity_ok = identity_ok and abs(qa.midpoint**p - ka.midpoint) <= 1e-9 * ka.midpoint
        identity_ok = identity_ok and abs(qq.midpoint**p - kq.midpoint) <= 1e-9 * kq.midpoint

    quasi = run_stability(_load_config("quasi_additive_p05.json"))
    direct = run_stability(_load_config("additive_beta05.json"))
    verdicts_match = [r.within for r in quasi.samples] == [r.within for r in direct.samples]
    values_match = [r.value for r in quasi.samples] == [r.value for r in direct.samples]
    ok = (
        identity_ok
        and quasi.quasi is not None
        and quasi.quasi["p"] == 0.5
        and verdicts_match
        and values_match
        and quasi.ok
        and direct.ok
    )
    _verdict(
        capsys, 7, "quasi-norm corollary", ok,
        f"K identity on p grid {'ok' if identity_ok else 'FAIL'}, "
        f"pipelines {'agree' if verdicts_match and values_match else 'DIFFER'}",
    )


def test_criterion_8_axiom_audits(capsys):
    samples = make_gauge_samples(2, 1000, seed=17)
    fnorm_ok = True
    for beta in (0.5, 1.0):
        gauge = Gauge(kind="beta-sum", beta=beta)
        fnorm_ok = fnorm_ok and check_fnorm_axioms(gauge, samples).all_passed
        fnorm_ok = fnorm_ok and check_beta_homogeneity(gauge, beta, samples).all_passed

    est = estimate_quasi_constant(Gauge(kind="lp-quasi", p=0.5), 2000, seed=17, dimension=2)
    quasi_ok = 1.9 < est <= 2.0001

    relation_ok = all(
        check_relation_axioms(EUCLID2, system, count=64, seed=9).all_passed
        for system in AXIOM_SYSTEMS
    )

    code = main(["check-axioms", "--config", str(CONFIG_DIR / "axioms_relation_trivialzero.json")])
    out = capsys.readouterr().out
    witness_ok = (
        code == EXIT_VIOLATION
        and "fs2-existence: FAIL" in out
        and "witness:" in out
        and "verdict: FAIL" in out
    )

    ok = fnorm_ok and quasi_ok and relation_ok and witness_ok
    _verdict(
        capsys, 8, "axiom audits", ok,
        f"fnorm {'ok' if fnorm_ok else 'FAIL'}, quasi est {est:.4f}, "
        f"relations {'ok' if relation_ok else 'FAIL'}, "
        f"degenerate witness {'printed' if witness_ok else 'MISSING'}",
    )


def test_criterion_9_reproducibility(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "additive_beta1.json")
    out1, out2 = tmp_path / "first", tmp_path / "second"
    code1 = main(["run", "--config", cfg, "--out", str(out1)])
    code2 = main(["run", "--config", cfg, "--out", str(out2)])
    capsys.readouterr()
    csv1 = (out1 / "samples.csv").read_bytes()
    csv2 = (out2 / "samples.csv").read_bytes()
    ok = code1 == EXIT_OK and code2 == EXIT_OK and csv1 == csv2 and len(csv1) > 0
    _verdict(
        capsys, 9, "byte-identical reruns", ok,
        f"samples.csv {len(csv1)} bytes x2, {'identical' if csv1 == csv2 else 'DIFFER'}",
    )
