"""JSON form of report records; axiom-check records of the gauge and relation checkers."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, is_dataclass


def jsonable(value):
    """Round-trip-safe JSON form: floats stay floats, vectors lists, dataclasses dicts."""
    import numpy as np
    from fractions import Fraction

    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if is_dataclass(value):
        return jsonable(asdict(value))
    return value


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom over one sample batch."""

    axiom: str
    passed: bool
    worst_value: float | None = None
    worst_witness: object = None


@dataclass
class AxiomReport:
    subject: str
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "all_passed": self.all_passed,
            "checks": jsonable(self.checks),
        }
