"""Command-line workbench: certified constants, stability runs, axiom checks.

Subcommands:

  constants     emit certified enclosures of the gap series and the stability
                constants as CSV (stdout, plus constants.csv under --out)
  run           execute a stability experiment from a JSON config and write
                report.json, samples.csv, summary.txt
  check-axioms  run a gauge or orthogonality-relation axiom suite from a JSON
                config and write report.json, summary.txt

Exit status: 0 success / all checks passed; 1 configuration error; 2 bound or
axiom violation, or a tripped numeric guard; 3 premise violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import config
from .corrector import gap_series
from .errors import ConfigurationError, InputError, RangeError, SamplerError
from .gauges import (
    Gauge,
    check_beta_homogeneity,
    check_fnorm_axioms,
    estimate_quasi_constant,
    make_gauge_samples,
)
from .maps import MapSpec
from .orthogonality import OrthoRelation, check_relation_axioms
from .reporting import jsonable
from .stability import (
    StabilityConfig,
    StabilityReport,
    k_additive,
    k_additive_quasi,
    k_quadratic,
    k_quadratic_quasi,
    run_stability,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_PREMISE = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as configuration errors (exit 1)."""

    def error(self, message):
        raise ConfigurationError(message)


def _cell(v) -> str:
    """Deterministic CSV cell: repr of a Python float, or p/q for Fractions."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, bool):
        return str(v).lower()
    return repr(float(v))


def _point_cell(point) -> str:
    if isinstance(point, tuple):
        return ";".join(str(c) for c in point)
    return ";".join(repr(float(c)) for c in point)


# ---------------------------------------------------------------------------
# constants


def _parse_number_list(text: str, flag: str) -> list[float]:
    out = [config.read_field(flag, part) for part in text.split(",") if part.strip()]
    if not out:
        raise ConfigurationError(f"{flag}: empty list")
    return out


def cmd_constants(args) -> int:
    betas = _parse_number_list(args.beta, "--beta")
    ps = _parse_number_list(args.p, "--p")
    tol = config.read_field("--tol", args.tol)
    rows = []
    for b in betas:
        s = gap_series(b, tol=tol)
        rows.append(("gap_series", b, s))
        rows.append(("k_additive", b, k_additive(b, tol=tol)))
        rows.append(("k_quadratic", b, k_quadratic(b, tol=tol)))
    for p in ps:
        rows.append(("k_additive_quasi", p, k_additive_quasi(p, rel_tol=tol)))
        rows.append(("k_quadratic_quasi", p, k_quadratic_quasi(p, rel_tol=tol)))
    header = ["quantity", "parameter", "lower", "upper", "width"]
    lines = [",".join(header)]
    for name, param, enc in rows:
        lines.append(
            ",".join(
                [
                    name,
                    repr(float(param)),
                    _cell(enc.lower),
                    _cell(enc.upper),
                    _cell(enc.upper - enc.lower),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "constants.csv").write_text(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as e:
        raise ConfigurationError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return doc


def _gauge(values: dict | None) -> Gauge | None:
    """The Gauge of a read gauge section, its base built the same way."""
    return values and Gauge(**{**values, "base": _gauge(values["base"])})


def _relation(values: dict, default_gauge: Gauge | None) -> OrthoRelation:
    """The relation of a read relation section; only isosceles keeps a gauge."""
    gauge = _gauge(values["gauge"]) or default_gauge
    return OrthoRelation(**{**values, "gauge": gauge if values["kind"] == "isosceles" else None})


def load_stability_config(
    doc: dict, seed_override=None, mode_override=None
) -> StabilityConfig:
    """Assemble a StabilityConfig from a parsed experiment document."""
    st = doc.get("stability")
    if isinstance(st, dict):
        st = dict(st)
        if seed_override is not None:
            st["seed"] = seed_override
        if mode_override is not None:
            st["mode"] = {"rational": "exact-rational"}.get(mode_override, mode_override)
        doc = {**doc, "stability": st}
    exact = isinstance(st, dict) and st.get("mode") == "exact-rational"
    values = config.read(doc, "run", exact)
    for section in ("gauge", "relation", "map", "stability"):
        if values[section] is None:
            raise ConfigurationError(f"config is missing the {section!r} section")
    gauge = _gauge(values["gauge"])
    relation = _relation(values["relation"], gauge)
    stability = values["stability"]
    return StabilityConfig(
        dimension=(values["space"] or {}).get("dimension") or relation.dimension,
        gauge=gauge,
        relation=relation,
        map_spec=MapSpec(**{**values["map"], "backend": stability["mode"]}),
        **stability,
    )


def summary_text(report: StabilityReport) -> str:
    d = report

    def fmt(v):
        if isinstance(v, Fraction):
            return f"{v} (= {float(v):.9g})"
        return f"{float(v):.9g}"

    lines = [
        f"equation: {d.equation}",
        f"mode: {d.config.mode}",
        f"gauge: {d.config.gauge.describe()}",
        f"relation: {d.config.relation.kind}",
        f"working homogeneity degree: {float(d.beta):g}",
        f"noise amplitude delta: {fmt(d.delta)}",
        f"epsilon: {fmt(d.epsilon)}",
        f"defect bound C: {fmt(d.defect_bound)}",
        f"stability constant interval: [{fmt(d.k_interval[0])}, {fmt(d.k_interval[1])}]",
        f"corrector depth n_max: {d.config.n_max}",
        f"certified truncation residual: {fmt(d.samples[0].residual) if d.samples else 'n/a'}",
        "",
    ]
    for kind, rows in (("premise", d.derivation.premise_rows), ("chain", d.derivation.chain_rows)):
        lines.append(f"{kind} checks:")
        for row in rows:
            lines.append(
                f"  {row.name}: max {fmt(row.max_value)} vs bound {fmt(row.bound)} "
                f"on {row.checked} -> {'PASS' if row.ok else 'FAIL'}"
            )
    within = sum(1 for r in d.samples if r.within)
    lines += [
        "",
        f"samples: {len(d.samples)}, within bound: {within}",
        f"max ratio value/(K_upper*eps): {fmt(d.max_ratio) if d.samples else 'n/a'}",
        (
            f"conclusion defect at n={d.conclusion.n}: {fmt(d.conclusion.max_defect)} vs "
            f"bound {fmt(d.conclusion.bound)} on {d.conclusion.pairs_checked} pairs -> "
            f"{'PASS' if d.conclusion.ok else 'FAIL'}"
        ),
        (
            f"uniqueness gap n={d.uniqueness.n_low} vs n={d.uniqueness.n_high}: "
            f"{fmt(d.uniqueness.max_gap)} vs bound {fmt(d.uniqueness.bound)} -> "
            f"{'PASS' if d.uniqueness.ok else 'FAIL'}"
        ),
    ]
    if d.quasi is not None:
        lines.append(
            f"quasi-norm reading: max {d.quasi['max_value_quasi']!r} vs bound "
            f"{d.quasi['bound_quasi']!r} (p={d.quasi['p']:g})"
        )
    if d.guard_events:
        lines.append("guard events:")
        for ev in d.guard_events:
            lines.append(f"  {ev}")
    else:
        lines.append("guard events: none")
    if d.precision_notes:
        lines.append("precision notes:")
        for note in d.precision_notes:
            lines.append(f"  {note}")
    lines.append(f"verdict: {'PASS' if d.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_run_artifacts(report: StabilityReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=False) + "\n"
    )
    with (out / "samples.csv").open("w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["point", "value", "bound", "ratio", "residual_bound"])
        for r in report.samples:
            w.writerow(
                [_point_cell(r.point), _cell(r.value), _cell(r.bound), _cell(r.ratio), _cell(r.residual)]
            )
    (out / "summary.txt").write_text(summary_text(report))


def run_exit_code(report: StabilityReport) -> int:
    return EXIT_PREMISE if not report.premise_ok else EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_run(args) -> int:
    doc = _load_json(args.config)
    config = load_stability_config(doc, seed_override=args.seed, mode_override=args.mode)
    report = run_stability(config)
    write_run_artifacts(report, args.out)
    text = summary_text(report)
    sys.stdout.write(text)
    sys.stdout.write(f"artifacts written to {Path(args.out).resolve()}\n")
    code = run_exit_code(report)
    if code == EXIT_PREMISE:
        for row in report.derivation.premise_rows:
            if not row.ok:
                sys.stdout.write(
                    f"premise violation: {row.name} reached {float(row.max_value):.9g} "
                    f"above {float(row.bound):.9g}; witness {jsonable(row.witness)}\n"
                )
    return code


# ---------------------------------------------------------------------------
# check-axioms


def _axiom_summary(reports, quasi_info, all_passed: bool) -> str:
    lines = []
    for rep in reports:
        lines.append(f"[{rep.subject}]")
        for check in rep.checks:
            status = "PASS" if check.passed else "FAIL"
            line = f"  {check.axiom}: {status}"
            if check.worst_value is not None:
                line += f" (worst {float(check.worst_value):.6g})"
            lines.append(line)
            if not check.passed and check.worst_witness is not None:
                lines.append(f"    witness: {jsonable(check.worst_witness)}")
    if quasi_info is not None:
        lines.append(
            f"quasi-triangle constant estimate: {quasi_info['estimate']!r} "
            f"(analytic {quasi_info['analytic']!r}) -> "
            f"{'PASS' if quasi_info['ok'] else 'FAIL'}"
        )
    lines.append(f"verdict: {'PASS' if all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_check_axioms(args) -> int:
    values = config.read(_load_json(args.config), "check-axioms")
    target, seed = values["target"], values["seed"]
    if values[target] is None:
        raise ConfigurationError(f"check-axioms target {target!r} needs a {target} section")
    gauge = _gauge(values["gauge"])
    reports = []
    quasi_info = None
    if target == "gauge":
        dimension = values["dimension"]
        samples = make_gauge_samples(dimension, values["samples"], seed, values["scale"])
        reports.append(check_fnorm_axioms(gauge, samples))
        beta = values["beta"] if values["beta"] is not None else gauge.homogeneity_degree
        reports.append(check_beta_homogeneity(gauge, beta, samples))
        if gauge.kind == "lp-quasi":
            est = estimate_quasi_constant(gauge, values["quasi_trials"], seed, dimension=dimension)
            analytic = gauge.quasi_constant
            quasi_info = {
                "estimate": est,
                "analytic": analytic,
                "ok": est <= analytic * (1.0 + 1e-9),
            }
    else:
        relation = _relation(values["relation"], gauge)
        single = [values["system"]] if values["system"] else list(config.AXIOM_SYSTEMS)
        for system in values["systems"] or single:
            reports.append(check_relation_axioms(relation, system, count=values["count"], seed=seed))
    all_passed = all(r.all_passed for r in reports) and (quasi_info is None or quasi_info["ok"])
    text = _axiom_summary(reports, quasi_info, all_passed)
    sys.stdout.write(text)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "artifact": "axiom-report",
            "target": target,
            "reports": [rep.to_dict() for rep in reports],
            "quasi_constant": jsonable(quasi_info),
        }
        (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
        (out / "summary.txt").write_text(text)
    return EXIT_OK if all_passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# entry


def build_parser() -> _Parser:
    parser = _Parser(prog="orthostab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="emit certified constant enclosures as CSV")
    p_const.add_argument("--beta", default="0.5,1,2", help="comma-separated homogeneity degrees")
    p_const.add_argument("--p", default="0.25,0.5,0.75,1", help="comma-separated quasi exponents")
    p_const.add_argument("--tol", default="1e-12", help="target enclosure width")
    p_const.add_argument("--out", default=None, help="directory for constants.csv")
    p_const.set_defaults(func=cmd_constants)

    p_run = sub.add_parser("run", help="run a stability experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="experiment config path")
    p_run.add_argument("--out", default=".", help="artifact directory")
    p_run.add_argument("--seed", default=None, help="override stability.seed")
    p_run.add_argument(
        "--mode",
        default=None,
        choices=("float64", "rational", "exact-rational"),
        help="override scalar backend",
    )
    p_run.set_defaults(func=cmd_run)

    p_ax = sub.add_parser("check-axioms", help="run a gauge or relation axiom suite")
    p_ax.add_argument("--config", required=True, help="axiom-check config path")
    p_ax.add_argument("--out", default=None, help="artifact directory")
    p_ax.set_defaults(func=cmd_check_axioms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as e:
        sys.stderr.write(f"configuration error: {e}\n")
        return EXIT_CONFIG
    except (InputError, SamplerError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_CONFIG
    except RangeError as e:
        sys.stderr.write(f"range guard tripped: {e}\n")
        return EXIT_VIOLATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
