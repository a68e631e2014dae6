"""Gauges on R^d: beta-homogeneous F-norms and quasi-norms, plus their checkers.

A gauge assigns a nonnegative size to a vector. Four well-behaved kinds ship:

  euclidean          (sum y_i^2)^(1/2), 1-homogeneous, triangle inequality holds
  beta-sum           sum |y_i|^beta with 0 < beta <= 1, beta-homogeneous,
                     subadditive, the model F-norm
  lp-quasi           (sum |y_i|^p)^(1/p) with 0 < p < 1, 1-homogeneous,
                     quasi-triangle with constant 2^(1/p - 1)
  p-power-of         base quasi-norm raised to the p, which is p-homogeneous
                     and subadditive again (the transform that turns a
                     quasi-norm problem into an F-norm problem)

A fifth kind, euclidean-squared, deliberately violates the triangle inequality
and exists so the axiom checker has something to fail on.

Invalid parameter combinations raise ConfigurationError at construction, with
one exception: beta-sum accepts beta > 1 so the axiom checker can demonstrate
the subadditivity failure; the stability pipelines reject such gauges at
config validation instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, InputError
from .reporting import AxiomCheck, AxiomReport
from . import vectors as vec

KINDS = ("euclidean", "beta-sum", "lp-quasi", "p-power-of", "euclidean-squared")

# Scalar sequence used for the three limit axioms when a sample provides none.
# Long enough that even a 0.5-homogeneous gauge decays below the default
# zero tolerance: 2^(-60*0.5) ~ 1e-9.
DEFAULT_LIMIT_SEQUENCE = tuple(2.0 ** -n for n in range(1, 61))


@dataclass(frozen=True)
class Gauge:
    kind: str
    beta: float | None = None
    p: float | None = None
    base: "Gauge | None" = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"gauge.kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "beta-sum":
            if self.beta is None or not (self.beta > 0):
                raise ConfigurationError(f"gauge.beta must be positive, got {self.beta!r}")
        elif self.kind == "lp-quasi":
            if self.p is None or not (0 < self.p < 1):
                raise ConfigurationError(f"gauge.p must lie in (0, 1), got {self.p!r}")
        elif self.kind == "p-power-of":
            if self.base is None or self.base.kind != "lp-quasi":
                raise ConfigurationError("p-power-of requires an lp-quasi base gauge")
            if self.p is None or self.p != self.base.p:
                raise ConfigurationError(
                    f"p-power-of exponent {self.p!r} must match base p={self.base.p!r}"
                )
        elif self.beta is not None or self.p is not None or self.base is not None:
            raise ConfigurationError(f"gauge kind {self.kind!r} takes no parameters")

    @property
    def homogeneity_degree(self) -> float:
        """Degree b with gauge(t*y) = |t|^b * gauge(y)."""
        if self.kind == "beta-sum":
            return float(self.beta)
        if self.kind == "p-power-of":
            return float(self.p)
        if self.kind == "euclidean-squared":
            return 2.0
        return 1.0

    @property
    def quasi_constant(self) -> float:
        """Smallest analytic C with gauge(x+y) <= C*(gauge(x)+gauge(y))."""
        if self.kind == "lp-quasi":
            return 2.0 ** (1.0 / self.p - 1.0)
        if self.kind == "euclidean-squared":
            return 2.0
        if self.kind == "beta-sum" and self.beta > 1:
            return 2.0 ** (self.beta - 1.0)
        return 1.0

    @property
    def supports_exact(self) -> bool:
        """Exact-rational evaluation needs rational powers of rational inputs."""
        if self.kind == "beta-sum":
            return self.beta == 1
        return self.kind == "euclidean-squared"

    def evaluate(self, y):
        """Gauge value of y, reduced over its last axis.

        One float64 vector gives a Python float and a stack of them an array of
        values, row by row. Tuples and object arrays of Fraction run exactly.
        """
        if vec.is_exact(y):
            return self._evaluate_exact(np.asarray(y, dtype=object))
        y = np.asarray(y, dtype=np.float64)
        if self.kind == "euclidean":
            v = np.sqrt((y * y).sum(axis=-1))
        elif self.kind == "euclidean-squared":
            v = (y * y).sum(axis=-1)
        elif self.kind == "beta-sum":
            a = np.abs(y)
            v = (a if self.beta == 1 else a ** self.beta).sum(axis=-1)
        elif self.kind == "lp-quasi":
            return float_pow((np.abs(y) ** self.p).sum(axis=-1), 1.0 / self.p)
        else:
            # p-power-of: evaluate the base and raise, so the transform is
            # honest rather than a silent alias of beta-sum(p).
            return float_pow(self.base.evaluate(y), self.p)
        return v if isinstance(v, np.ndarray) else float(v)

    def _evaluate_exact(self, y: np.ndarray):
        if self.kind == "beta-sum" and self.beta == 1:
            return np.abs(y).sum(axis=-1, initial=Fraction(0))
        if self.kind == "euclidean-squared":
            return (y * y).sum(axis=-1, initial=Fraction(0))
        raise ConfigurationError(
            f"gauge {self.describe()} has no exact-rational evaluation"
        )

    def __call__(self, y):
        return self.evaluate(y)

    def describe(self) -> str:
        if self.kind == "beta-sum":
            return f"beta-sum({self.beta:g})"
        if self.kind == "lp-quasi":
            return f"lp-quasi({self.p:g})"
        if self.kind == "p-power-of":
            return f"p-power-of({self.base.describe()}, p={self.p:g})"
        return self.kind

    def to_config(self) -> dict:
        cfg = {"kind": self.kind}
        if self.beta is not None:
            cfg["beta"] = self.beta
        if self.p is not None:
            cfg["p"] = self.p
        if self.base is not None:
            cfg["base"] = self.base.to_config()
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "Gauge":
        if not isinstance(cfg, dict) or "kind" not in cfg:
            raise ConfigurationError("gauge config must be an object with a 'kind' field")
        known = {"kind", "beta", "p", "base"}
        extra = set(cfg) - known
        if extra:
            raise ConfigurationError(f"gauge config has unknown fields {sorted(extra)}")
        base = Gauge.from_config(cfg["base"]) if cfg.get("base") is not None else None
        return Gauge(
            kind=cfg["kind"],
            beta=cfg.get("beta"),
            p=cfg.get("p"),
            base=base,
        )


def float_pow(v, e):
    """v ** e in Python float arithmetic, element by element for an array.

    numpy's vectorised power can differ from Python's in the last bit, and
    the values must not depend on whether they were computed one point at a
    time or in a stack.
    """
    if not isinstance(v, np.ndarray):
        return float(v) ** e
    return np.array([a ** e for a in v.ravel().tolist()]).reshape(v.shape)


def p_power_transform(gauge: Gauge, p: float) -> Gauge:
    """Wrap an lp-quasi gauge as its p-th power, a p-homogeneous subadditive gauge."""
    if gauge.kind != "lp-quasi":
        raise ConfigurationError("p_power_transform expects an lp-quasi gauge")
    if p != gauge.p:
        raise ConfigurationError(f"transform exponent {p!r} must equal the gauge p={gauge.p!r}")
    return Gauge(kind="p-power-of", p=p, base=gauge)


def make_gauge_samples(dimension: int, count: int, seed: int, scale: float = 1.0):
    """Deterministic (x, y) sample pairs for the axiom checkers."""
    if count < 1:
        raise InputError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        x = scale * rng.normal(size=dimension)
        y = scale * rng.normal(size=dimension)
        out.append((x, y))
    return out


def check_fnorm_axioms(
    gauge: Gauge,
    samples,
    limit_sequence=DEFAULT_LIMIT_SEQUENCE,
    zero_tol: float = 1e-8,
    rel_tol: float = 1e-12,
) -> AxiomReport:
    """Check the six F-norm axioms on finite samples.

    samples: list of (x, y) vector pairs. Axioms (1)-(3) are pointwise;
    axioms (4)-(6) are limit statements and are checked along the finite
    scalar sequence limit_sequence (default 2^-n, n = 1..60) by requiring the
    gauge values to decrease monotonically (within rel_tol slack) and end
    below zero_tol * (1 + starting value), so the criterion does not depend
    on the sample's overall size. A finite check cannot certify a limit; it
    can only refuse obvious failures, which is the contract here.
    """
    if not samples:
        raise InputError("check_fnorm_axioms needs at least one sample pair")
    report = AxiomReport(subject=gauge.describe())
    dim = vec.vlen(samples[0][0])
    zero = vec.vzero(dim, exact=False)

    # (1) gauge(x) = 0 iff x = 0
    worst = None
    passed = gauge.evaluate(zero) == 0.0
    witness = None if passed else ("zero-vector", gauge.evaluate(zero))
    for x, y in samples:
        for v in (x, y):
            if not vec.is_zero(v):
                g = gauge.evaluate(v)
                if worst is None or g < worst[0]:
                    worst = (g, v)
                if g <= 0.0:
                    passed = False
                    witness = v
    report.checks.append(
        AxiomCheck(
            "1-definiteness",
            passed,
            worst_value=None if worst is None else worst[0],
            worst_witness=witness if witness is not None else (None if worst is None else worst[1]),
        )
    )

    # (2) gauge(lx) = gauge(x) for |l| = 1
    worst_dev, worst_w = 0.0, None
    for x, _ in samples:
        g, gneg = gauge.evaluate(x), gauge.evaluate(vec.vneg(x))
        dev = abs(g - gneg)
        scale = max(g, gneg, 1e-300)
        if dev / scale > worst_dev:
            worst_dev, worst_w = dev / scale, x
    report.checks.append(
        AxiomCheck("2-unit-scalars", worst_dev <= rel_tol, worst_dev, worst_w)
    )

    # (3) gauge(x + y) <= gauge(x) + gauge(y)
    worst_excess, worst_w = 0.0, None
    for x, y in samples:
        lhs = gauge.evaluate(vec.vadd(x, y))
        rhs = gauge.evaluate(x) + gauge.evaluate(y)
        excess = lhs - rhs
        if excess > worst_excess:
            worst_excess, worst_w = excess, (x, y, lhs, rhs)
    tri_ok = all(
        gauge.evaluate(vec.vadd(x, y))
        <= gauge.evaluate(x) + gauge.evaluate(y) + rel_tol * (gauge.evaluate(x) + gauge.evaluate(y))
        for x, y in samples
    )
    report.checks.append(AxiomCheck("3-triangle", tri_ok, worst_excess, worst_w))

    # (4)-(6) limit axioms along the finite sequence
    def limit_check(name, values, witness_vec):
        first, final = values[0], values[-1]
        monotone = all(
            values[k + 1] <= values[k] * (1 + rel_tol) + 1e-300 for k in range(len(values) - 1)
        )
        ok = monotone and final <= zero_tol * (1.0 + first)
        return AxiomCheck(name, ok, final, witness_vec if not ok else None)

    worst4 = worst5 = worst6 = None
    for x, _ in samples:
        if vec.is_zero(x):
            continue
        v4 = [gauge.evaluate(vec.vscale(lam, x)) for lam in limit_sequence]
        v5 = [gauge.evaluate(vec.vscale(3.0, vec.vscale(lam, x))) for lam in limit_sequence]
        v6 = [gauge.evaluate(vec.vscale(lam, vec.vscale(lam, x))) for lam in limit_sequence]
        for slot, vals in ((4, v4), (5, v5), (6, v6)):
            check = limit_check(f"{slot}-limit", vals, x)
            prev = {4: worst4, 5: worst5, 6: worst6}[slot]
            if prev is None or (not check.passed and prev.passed) or (
                check.passed == prev.passed and (check.worst_value or 0) > (prev.worst_value or 0)
            ):
                if slot == 4:
                    worst4 = check
                elif slot == 5:
                    worst5 = check
                else:
                    worst6 = check
    for slot, check, label in (
        (4, worst4, "4-vanishing-scalars"),
        (5, worst5, "5-fixed-scalar"),
        (6, worst6, "6-joint-vanishing"),
    ):
        if check is None:
            report.checks.append(AxiomCheck(label, True, 0.0, None))
        else:
            report.checks.append(AxiomCheck(label, check.passed, check.worst_value, check.worst_witness))
    return report


def check_beta_homogeneity(
    gauge: Gauge, beta: float, samples, scalars=None, rel_tol: float = 1e-12
) -> AxiomReport:
    """Check gauge(t*y) = |t|^beta * gauge(y) on samples and a scalar grid.

    The scalar grid must straddle 1 in magnitude; the default does.
    """
    if scalars is None:
        scalars = (-10.0, -2.0, -1.0, -0.25, 0.25, 0.5, 2.0, 4.0, 10.0)
    if not any(abs(t) > 1 for t in scalars) or not any(0 < abs(t) < 1 for t in scalars):
        raise InputError("scalar grid must include magnitudes above and below 1")
    worst_dev, worst_w = 0.0, None
    for x, _ in samples:
        g = gauge.evaluate(x)
        for t in scalars:
            lhs = gauge.evaluate(vec.vscale(t, x))
            rhs = abs(t) ** beta * g
            dev = abs(lhs - rhs) / max(rhs, 1e-300)
            if dev > worst_dev:
                worst_dev, worst_w = dev, (t, x, lhs, rhs)
    report = AxiomReport(subject=f"{gauge.describe()} homogeneity degree {beta:g}")
    report.checks.append(AxiomCheck("beta-homogeneity", worst_dev <= rel_tol, worst_dev, worst_w))
    return report


def estimate_quasi_constant(
    gauge: Gauge, trials: int, seed: int, dimension: int = 2, scale: float = 1.0
) -> float:
    """Empirical quasi-triangle constant: max of gauge(x+y)/(gauge(x)+gauge(y)).

    Structured probes come first: (x, 0), then axis-aligned pairs
    (a*e_i, b*e_j), which realize the supremum 2^(1/p - 1) for lp-quasi
    exactly, so the estimate does not rely on random pairs landing near the
    extremal direction. Random pairs fill the remaining trials. Deterministic
    given (trials, seed, dimension).
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if dimension < 1:
        raise InputError(f"dimension must be >= 1, got {dimension}")
    probes = []
    e0 = np.zeros(dimension)
    e0[0] = 1.0
    probes.append((e0, np.zeros(dimension)))
    mags = [2.0 ** k for k in range(-3, 4)]
    for i in range(dimension):
        for j in range(dimension):
            if i == j:
                continue
            ei = np.zeros(dimension)
            ej = np.zeros(dimension)
            ei[i] = 1.0
            ej[j] = 1.0
            for a in mags:
                for b in mags:
                    probes.append((a * ei, b * ej))
    rng = np.random.default_rng(seed)
    best = 0.0
    used = 0
    for x, y in probes:
        if used >= trials:
            break
        used += 1
        denom = gauge.evaluate(x) + gauge.evaluate(y)
        if denom == 0.0:
            continue
        best = max(best, gauge.evaluate(vec.vadd(x, y)) / denom)
    while used < trials:
        used += 1
        x = scale * rng.normal(size=dimension)
        y = scale * rng.normal(size=dimension)
        denom = gauge.evaluate(x) + gauge.evaluate(y)
        if denom == 0.0:
            continue
        best = max(best, gauge.evaluate(vec.vadd(x, y)) / denom)
    return best
