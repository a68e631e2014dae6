"""Input generator: every benchmark op is built from a shipped ``configs/`` template.

An op is one ``orthostab.cli.main([...])`` call. The generator copies a
template, sets the seeds it takes from the workload seed (``stability.seed``
and ``map.seed`` for ``run`` ops, ``seed`` for ``check-axioms`` ops), applies
the workload's size and shape edits, and writes the result as a JSON file.
The program under test only ever sees those generated files.

Workloads:

  float-corrector  float64 runs shaped like additive_beta1, quadratic_beta05
                   and quasi_additive_p05, plus one dimension-4 run under
                   beta-sum(0.5); n_max 20 and 200 samples each.
  premise-heavy    float64 runs of both equations under the isosceles
                   relation, shaped like additive_beta1, quadratic_beta1 and
                   quadratic_beta05, with a shallow corrector (n_max 3) and
                   500 points, pairs and conclusion pairs.
  exact-rational   exact runs shaped like additive_rational,
                   quadratic_rational and additive_exact_eps0.
  audit            check-axioms on all six shipped axiom configs, the gauge
                   audits at 500 samples and the relation audits at 1250
                   pairs, plus constants on its default grid.

A pass takes 2 to 5 s on a 2-core machine, so that a run of 18 s times
three passes or more. No op takes much over a second: the benchmark scales
each op's time by a reference kernel timed at both its ends (harness.py),
and that tracks the machine's speed less well over a longer op. Each pass
has three ops or more: with two ops of different sizes, the median op would
be the midpoint between the slowest run of one and the fastest of the other.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("float-corrector", "premise-heavy", "exact-rational", "audit")

# Sizes that differ from the shipped templates (see the module docstring).
# PREMISE_SIZE sets points, pairs and conclusion pairs: the pairs are half the
# default and the conclusion pairs five times it, against n_max 3.
FLOAT_SAMPLES = 200
PREMISE_SIZE = 500
GAUGE_SAMPLES = 500
RELATION_PAIRS = 1250
# The three shipped axiom configs whose suites are expected to fail (exit 2).
FAILING_AXIOMS = ("gauge_euclidsq", "gauge_lpquasi05", "relation_trivialzero")
AXIOM_CONFIGS = (
    "gauge_betasum05",
    "gauge_euclidsq",
    "gauge_lpquasi05",
    "relation_euclidean",
    "relation_isosceles",
    "relation_trivialzero",
)


@dataclass
class Op:
    """One CLI call: its subcommand, generated config and expected exit code."""

    label: str
    command: str  # run | check-axioms | constants
    doc: dict | None  # generated config document; None for constants
    expect_exit: int = 0

    def argv(self, config_path: Path | None, out_dir: Path) -> list[str]:
        if self.command == "constants":
            return ["constants", "--out", str(out_dir)]
        return [self.command, "--config", str(config_path), "--out", str(out_dir)]


def derive_seed(seed: int, label: str, field: str) -> int:
    """A 31-bit seed for one field of one op, fixed by the workload seed."""
    digest = hashlib.blake2b(f"{seed}/{label}/{field}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") >> 1


def _template(config_dir: Path, name: str) -> dict:
    with open(config_dir / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run_op(config_dir, seed, label, template, stability=None, edit=None) -> Op:
    doc = _template(config_dir, template)
    doc["map"]["seed"] = derive_seed(seed, label, "map")
    doc["stability"]["seed"] = derive_seed(seed, label, "stability")
    doc["stability"].update(stability or {})
    if edit is not None:
        edit(doc)
    return Op(label=label, command="run", doc=doc)


def _dimension_four(doc: dict) -> None:
    """Lift a 2-d linear template to R^4 with a block-diagonal copy of its matrix."""
    (a, b), (c, d) = doc["map"]["matrix"]
    doc["map"]["matrix"] = [[a, b, 0.0, 0.0], [c, d, 0.0, 0.0], [0.0, 0.0, a, b], [0.0, 0.0, c, d]]
    doc["space"]["dimension"] = 4
    doc["relation"]["dimension"] = 4


def _isosceles(doc: dict) -> None:
    doc["relation"] = {"kind": "isosceles", "dimension": 2, "tolerance": 1e-9}


def make_ops(workload: str, seed: int, config_dir: Path) -> list[Op]:
    """The ops of one pass of the workload, in the order they run."""
    if workload == "float-corrector":
        size = {"sample_count": FLOAT_SAMPLES}
        return [
            _run_op(config_dir, seed, "additive_beta1", "additive_beta1", size),
            _run_op(config_dir, seed, "quadratic_beta05", "quadratic_beta05", size),
            _run_op(config_dir, seed, "quasi_additive_p05", "quasi_additive_p05", size),
            _run_op(config_dir, seed, "additive_beta05_dim4", "additive_beta05", size, _dimension_four),
        ]
    if workload == "premise-heavy":
        heavy = {"sample_count": PREMISE_SIZE, "pair_count": PREMISE_SIZE,
                 "conclusion_pairs": PREMISE_SIZE, "n_max": 3}
        return [
            _run_op(config_dir, seed, "additive_isosceles", "additive_beta1", heavy, _isosceles),
            _run_op(config_dir, seed, "quadratic_isosceles", "quadratic_beta1", heavy, _isosceles),
            _run_op(config_dir, seed, "quadratic_beta05_isosceles", "quadratic_beta05", heavy, _isosceles),
        ]
    if workload == "exact-rational":
        return [
            _run_op(config_dir, seed, name, name)
            for name in ("additive_rational", "quadratic_rational", "additive_exact_eps0")
        ]
    if workload == "audit":
        ops = []
        for name in AXIOM_CONFIGS:
            doc = _template(config_dir, f"axioms_{name}")
            doc["seed"] = derive_seed(seed, name, "seed")
            if doc["target"] == "relation":
                # At the shipped 48-64 pairs a relation audit takes a few ms.
                # At this size it takes about as long as a gauge audit, so the
                # median op is one of five ops of one size, not a small one.
                doc["count"] = RELATION_PAIRS
            else:
                doc["samples"] = GAUGE_SAMPLES
            expect = 2 if name in FAILING_AXIOMS else 0
            ops.append(Op(label=f"axioms_{name}", command="check-axioms", doc=doc, expect_exit=expect))
        ops.append(Op(label="constants", command="constants", doc=None))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup_op(op: Op) -> Op:
    """A small copy of op that runs the same code paths before timing starts."""
    doc = copy.deepcopy(op.doc)
    if op.command == "run":
        doc["stability"].update(
            {"sample_count": 16, "pair_count": 16, "conclusion_pairs": 16, "uniqueness_points": 8}
        )
    elif op.command == "check-axioms":
        for key, small in (("samples", 16), ("quasi_trials", 64), ("count", 8)):
            if key in doc:
                doc[key] = small
    return Op(label=f"warmup_{op.label}", command=op.command, doc=doc, expect_exit=op.expect_exit)
