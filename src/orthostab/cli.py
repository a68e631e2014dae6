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

from .corrector import gap_series
from .errors import ConfigurationError, InputError, RangeError, SamplerError
from .gauges import (
    Gauge,
    check_beta_homogeneity,
    check_fnorm_axioms,
    estimate_quasi_constant,
    make_gauge_samples,
)
from .maps import MapSpec, _parse_exact_scalar, parse_float, parse_int
from .orthogonality import AXIOM_SYSTEMS, OrthoRelation, check_relation_axioms
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
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(float(part))
        except ValueError as e:
            raise ConfigurationError(f"{flag}: cannot parse {part!r} as a number") from e
    if not out:
        raise ConfigurationError(f"{flag}: empty list")
    return out


def cmd_constants(args) -> int:
    betas = _parse_number_list(args.beta, "--beta")
    ps = _parse_number_list(args.p, "--p")
    tol = parse_float(args.tol, "--tol")
    if tol <= 0:
        raise ConfigurationError(f"--tol must be positive, got {args.tol!r}")
    for b in betas:
        if b <= 0:
            raise ConfigurationError(f"--beta entries must be positive, got {b!r}")
    for p in ps:
        if not (0 < p <= 1):
            raise ConfigurationError(f"--p entries must lie in (0, 1], got {p!r}")
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


_CONFIG_SECTIONS = {"space", "gauge", "relation", "map", "stability"}
_STABILITY_KEYS = {
    "equation",
    "beta",
    "epsilon",
    "sample_count",
    "pair_count",
    "n_max",
    "seed",
    "mode",
    "quasi_corollary",
    "conclusion_pairs",
    "uniqueness_points",
    "point_scale",
}


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


def load_stability_config(
    doc: dict, seed_override=None, mode_override=None
) -> StabilityConfig:
    """Assemble a StabilityConfig from a parsed experiment document."""
    extra = set(doc) - _CONFIG_SECTIONS
    if extra:
        raise ConfigurationError(f"config has unknown sections {sorted(extra)}")
    for section in ("gauge", "relation", "map", "stability"):
        if section not in doc:
            raise ConfigurationError(f"config is missing the {section!r} section")
    space = doc.get("space", {})
    if not isinstance(space, dict) or (space and set(space) - {"dimension"}):
        raise ConfigurationError("space section supports only the 'dimension' field")
    st = dict(doc["stability"])
    extra = set(st) - _STABILITY_KEYS
    if extra:
        raise ConfigurationError(f"stability section has unknown fields {sorted(extra)}")
    mode = st.get("mode", "float64")
    if mode_override is not None:
        mode = {"rational": "exact-rational"}.get(mode_override, mode_override)
    if seed_override is not None:
        st["seed"] = parse_int(seed_override, "--seed")
    gauge = Gauge.from_config(doc["gauge"])
    relation = OrthoRelation.from_config(doc["relation"], default_gauge=gauge)
    dimension = parse_int(space.get("dimension", relation.dimension), "space.dimension")
    if relation.dimension != dimension:
        raise ConfigurationError(
            f"relation.dimension {relation.dimension} does not match space.dimension {dimension}"
        )
    map_cfg = dict(doc["map"])
    map_cfg["backend"] = mode
    map_spec = MapSpec.from_config(map_cfg)
    if "equation" not in st:
        raise ConfigurationError("stability section needs an 'equation' field")
    if "beta" not in st:
        raise ConfigurationError("stability section needs a 'beta' field")
    epsilon = st.get("epsilon")
    if epsilon is not None and mode == "exact-rational":
        epsilon = _parse_exact_scalar(epsilon, "stability.epsilon")
    elif epsilon is not None:
        epsilon = parse_float(epsilon, "stability.epsilon")
    return StabilityConfig(
        equation=st["equation"],
        dimension=dimension,
        gauge=gauge,
        relation=relation,
        map_spec=map_spec,
        beta=st["beta"],
        epsilon=epsilon,
        sample_count=parse_int(st.get("sample_count", 1000), "stability.sample_count"),
        pair_count=parse_int(st.get("pair_count", 1000), "stability.pair_count"),
        n_max=parse_int(st.get("n_max", 20), "stability.n_max"),
        seed=parse_int(st.get("seed", 0), "stability.seed"),
        mode=mode,
        quasi_corollary=bool(st.get("quasi_corollary", False)),
        conclusion_pairs=parse_int(st.get("conclusion_pairs", 100), "stability.conclusion_pairs"),
        uniqueness_points=parse_int(st.get("uniqueness_points", 50), "stability.uniqueness_points"),
        point_scale=parse_float(st.get("point_scale", 1.0), "stability.point_scale"),
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
        "premise checks:",
    ]
    for row in d.derivation.premise_rows:
        lines.append(
            f"  {row.name}: max {fmt(row.max_value)} vs bound {fmt(row.bound)} "
            f"on {row.checked} -> {'PASS' if row.ok else 'FAIL'}"
        )
    lines.append("chain checks:")
    for row in d.derivation.chain_rows:
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
    if not report.premise_ok:
        return EXIT_PREMISE
    if (
        not report.derivation.chain_ok
        or not report.all_within_bound
        or not report.conclusion.ok
        or not report.uniqueness.ok
        or report.guard_events
    ):
        return EXIT_VIOLATION
    return EXIT_OK


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


_AXIOM_KEYS = {
    "target",
    "gauge",
    "relation",
    "system",
    "systems",
    "dimension",
    "samples",
    "count",
    "seed",
    "scale",
    "quasi_trials",
    "beta",
}


def _axiom_summary(reports, quasi_info) -> str:
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
    all_passed = all(rep.all_passed for rep in reports) and (
        quasi_info is None or quasi_info["ok"]
    )
    lines.append(f"verdict: {'PASS' if all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_check_axioms(args) -> int:
    doc = _load_json(args.config)
    extra = set(doc) - _AXIOM_KEYS
    if extra:
        raise ConfigurationError(f"check-axioms config has unknown fields {sorted(extra)}")
    target = doc.get("target")
    seed = parse_int(doc.get("seed", 0), "seed")
    reports = []
    quasi_info = None
    if target == "gauge":
        if "gauge" not in doc:
            raise ConfigurationError("check-axioms target 'gauge' needs a gauge section")
        gauge = Gauge.from_config(doc["gauge"])
        dimension = parse_int(doc.get("dimension", 2), "dimension")
        n_samples = parse_int(doc.get("samples", 1000), "samples")
        scale = parse_float(doc.get("scale", 1.0), "scale")
        samples = make_gauge_samples(dimension, n_samples, seed, scale)
        reports.append(check_fnorm_axioms(gauge, samples))
        beta = parse_float(doc.get("beta", gauge.homogeneity_degree), "beta")
        reports.append(check_beta_homogeneity(gauge, beta, samples))
        if gauge.kind == "lp-quasi":
            trials = parse_int(doc.get("quasi_trials", 2000), "quasi_trials")
            est = estimate_quasi_constant(gauge, trials, seed, dimension=dimension)
            analytic = gauge.quasi_constant
            quasi_info = {
                "estimate": est,
                "analytic": analytic,
                "ok": est <= analytic * (1.0 + 1e-9),
            }
    elif target == "relation":
        if "relation" not in doc:
            raise ConfigurationError("check-axioms target 'relation' needs a relation section")
        default_gauge = Gauge.from_config(doc["gauge"]) if "gauge" in doc else None
        relation = OrthoRelation.from_config(doc["relation"], default_gauge=default_gauge)
        systems = doc.get("systems")
        if systems is None:
            systems = [doc["system"]] if "system" in doc else list(AXIOM_SYSTEMS)
        count = parse_int(doc.get("count", 64), "count")
        for system in systems:
            reports.append(check_relation_axioms(relation, system, count=count, seed=seed))
    else:
        raise ConfigurationError("check-axioms config needs target: 'gauge' or 'relation'")
    text = _axiom_summary(reports, quasi_info)
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
    all_passed = all(rep.all_passed for rep in reports) and (
        quasi_info is None or quasi_info["ok"]
    )
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
