"""The config schema: one row per field of the run and check-axioms documents.

Each row gives a field's kind, its range and its default. `read` turns a
parsed JSON document into typed values by this table, and the config classes
(Gauge, OrthoRelation, MapSpec, StabilityConfig) check their fields against
the same rows when they are built, so each field's type, range and default is
written once. A malformed field raises one ConfigurationError naming its
dotted path.

Kinds:

  int      an integer; an integral float or a string of digits reads as one
  float    a finite number, read as a float (numeric strings too)
  number   a finite number kept as given, so 1 and 1.0 echo as written
  scalar   a float, or on the exact backend a Fraction read decimally
           (0.001 is 1/1000) from a number or a "p/q" string
  bool     true or false, nothing else
  enum     one of the row's choices
  enums    a nonempty list of the row's choices
  matrix   a nonempty rectangular list of rows of scalars
  section  an object whose fields are the rows under its own path
  gauge    an object whose fields are the rows under "gauge"
"""

from __future__ import annotations

import math
import numbers
from contextlib import suppress
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import ConfigurationError

# Marks a field that has no default and must be given.
REQUIRED = "required"

# Size caps: a count or a dimension of 1e12 would otherwise run until killed.
COUNT_CAP = 100_000
DIMENSION_CAP = 100
# The corrector evaluates f at 2^k x for k up to n_max + 1; past this depth a
# float64 quadratic map leaves range at every |x| >= 1 (4^512 = 2^1024).
N_MAX_CAP = 511
# The homogeneity audit compares against |t|^beta with |t| up to 10.
BETA_CAP = 16

BACKENDS = ("float64", "exact-rational")
AXIOM_SYSTEMS = ("ratz", "fechner-sikorska", "zero-ortho-or", "zero-ortho-and")

_SECTIONS = ("section", "gauge")


@dataclass(frozen=True)
class Row:
    """One field: its kind, default (None: optional), range [lo, hi] and choices.

    bounds says which ends of the range are open, as in interval notation;
    a bound of None is unbounded.
    """

    kind: str
    default: object = None
    lo: object = None
    hi: object = None
    bounds: str = "[]"
    choices: tuple = ()


FIELDS = {
    # run config
    "space": Row("section"),
    "space.dimension": Row("int", None, 1, DIMENSION_CAP),
    "gauge": Row("section"),
    "gauge.kind": Row(
        "enum", REQUIRED, choices=("euclidean", "beta-sum", "lp-quasi", "p-power-of", "euclidean-squared")
    ),
    "gauge.beta": Row("number", None, 0, BETA_CAP, "(]"),
    "gauge.p": Row("number", None, 0, 1, "()"),
    "gauge.base": Row("gauge"),
    "relation": Row("section"),
    "relation.kind": Row("enum", REQUIRED, choices=("euclidean", "isosceles", "trivial-zero")),
    "relation.dimension": Row("int", REQUIRED, 1, DIMENSION_CAP),
    # A tolerance of 1 or more makes every pair orthogonal.
    "relation.tolerance": Row("float", 1e-9, 0, 1, "[)"),
    "relation.gauge": Row("gauge"),
    "map": Row("section"),
    "map.base": Row("enum", "zero", choices=("linear", "quadratic-form", "zero")),
    "map.matrix": Row("matrix"),
    "map.noise_amplitude": Row("scalar", 0, 0),
    "map.noise_parity": Row("enum", "none", choices=("none", "odd", "even")),
    "map.seed": Row("int", 0, 0, 2 ** 64, "[)"),
    "map.backend": Row("enum", "float64", choices=BACKENDS),
    "map.codomain_dim": Row("int", None, 1, DIMENSION_CAP),
    "stability": Row("section"),
    "stability.equation": Row("enum", REQUIRED, choices=("jensen-additive", "jensen-quadratic")),
    "stability.beta": Row("number", REQUIRED, 0, 1, "(]"),
    "stability.epsilon": Row("scalar", None, 0),
    "stability.sample_count": Row("int", 1000, 1, COUNT_CAP),
    "stability.pair_count": Row("int", 1000, 1, COUNT_CAP),
    "stability.n_max": Row("int", 20, 1, N_MAX_CAP),
    "stability.seed": Row("int", 0, 0),
    "stability.mode": Row("enum", "float64", choices=BACKENDS),
    "stability.quasi_corollary": Row("bool", False),
    "stability.conclusion_pairs": Row("int", 100, 1, COUNT_CAP),
    "stability.uniqueness_points": Row("int", 50, 1, COUNT_CAP),
    "stability.point_scale": Row("float", 1.0, 0, None, "()"),
    # check-axioms config, which shares the gauge and relation sections
    "target": Row("enum", REQUIRED, choices=("gauge", "relation")),
    "system": Row("enum", None, choices=AXIOM_SYSTEMS),
    "systems": Row("enums", None, choices=AXIOM_SYSTEMS),
    "dimension": Row("int", 2, 1, DIMENSION_CAP),
    "samples": Row("int", 1000, 1, COUNT_CAP),
    "count": Row("int", 64, 1, COUNT_CAP),
    "seed": Row("int", 0, 0),
    "scale": Row("float", 1.0, 0, None, "()"),
    "quasi_trials": Row("int", 2000, 1, COUNT_CAP),
    "beta": Row("float", None, 0, BETA_CAP, "(]"),
    # orthostab constants flags; --beta and --p take each entry of their list
    "--beta": Row("float", None, 0, BETA_CAP, "(]"),
    "--p": Row("float", None, 0, 1, "(]"),
    "--tol": Row("float", None, 0, 1, "(]"),
}

# The top-level fields of each kind of document.
DOCUMENTS = {
    "run": ("space", "gauge", "relation", "map", "stability"),
    "check-axioms": (
        "target", "gauge", "relation", "system", "systems",
        "dimension", "samples", "count", "seed", "scale", "quasi_trials", "beta",
    ),
}


def read(doc, section: str, exact: bool = False, where: str | None = None) -> dict:
    """The typed values of doc, with defaults filled in and absent optional fields None.

    section is "run" or "check-axioms" for a whole document, or the path of a
    section row ("gauge", "map", ...); where is the dotted path doc sits at,
    for messages. Scalars read as Fractions when exact is true. A section
    reads as a dict of its fields.
    """
    top = section in DOCUMENTS
    where = ("" if top else section) if where is None else where
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where or 'config'} must be an object, got {doc!r}")
    names = DOCUMENTS[section] if top else [
        path.rpartition(".")[2] for path in FIELDS if path.rpartition(".")[0] == section
    ]
    extra = sorted(set(doc) - set(names))
    if extra:
        raise ConfigurationError(f"{where or 'config'} has unknown fields {extra}")
    out = {}
    for name in names:
        path = name if top else f"{section}.{name}"
        row, here = FIELDS[path], f"{where}.{name}" if where else name
        value = doc.get(name, row.default)
        if value is REQUIRED:
            raise ConfigurationError(f"{here} is required")
        if row.kind in _SECTIONS:
            schema = "gauge" if row.kind == "gauge" else path
            out[name] = None if value is None else read(value, schema, exact, here)
        else:
            out[name] = _check(row, _coerce(row.kind, value, exact), here)
    return out


def read_field(path: str, value, exact: bool = False):
    """value read as the field at path reads it from a document, or ConfigurationError."""
    return _check(FIELDS[path], _coerce(FIELDS[path].kind, value, exact), path)


def default(path: str):
    """The default of the field at path, for the config classes' own defaults."""
    return FIELDS[path].default


def check_fields(obj, section: str) -> None:
    """Check each dataclass field of obj that has a row under section."""
    for f in fields(obj):
        row = FIELDS.get(f"{section}.{f.name}")
        if row is not None:
            _check(row, getattr(obj, f.name), f"{section}.{f.name}")


def _coerce(kind: str, value, exact: bool):
    """value read as the kind where it can be; _check judges the result."""
    if value is None or isinstance(value, bool):
        return value
    if kind == "int":
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            with suppress(ValueError):
                return int(value)
    elif kind == "float" or (kind == "scalar" and not exact):
        if isinstance(value, (int, float, str)):
            with suppress(ValueError, OverflowError):
                return float(value)
    elif kind == "scalar":
        # Decimal reading of a float literal, so 0.001 means 1/1000, not the
        # binary float closest to it.
        text = repr(value) if isinstance(value, float) else value
        if isinstance(text, (int, str)):
            with suppress(ValueError, ZeroDivisionError):
                return Fraction(text)
    elif kind == "matrix" and isinstance(value, (list, tuple)):
        if all(isinstance(row, (list, tuple)) for row in value):
            return tuple(tuple(_coerce("scalar", c, exact) for c in row) for row in value)
    return value


def _finite(value) -> bool:
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int or Fraction too large for a float
        return False


def _check(row: Row, value, where: str):
    if value is None and row.default is None or row.kind in _SECTIONS:
        return value
    kind = row.kind
    if kind == "int":
        ok, what = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif kind == "bool":
        ok, what = isinstance(value, bool), "true or false"
    elif kind == "enum":
        ok, what = value in row.choices, f"one of {row.choices}"
    elif kind == "enums":
        ok = isinstance(value, (list, tuple)) and bool(value) and all(v in row.choices for v in value)
        what = f"a nonempty list of {row.choices}"
    elif kind == "matrix":
        rows = value if isinstance(value, (list, tuple)) and value else [()]
        ok = all(
            isinstance(r, (list, tuple)) and len(r) == len(rows[0]) > 0 and all(map(_finite, r))
            for r in rows
        )
        what = "a nonempty rectangular list of rows of finite numbers"
    else:
        ok, what = _finite(value), "a finite number"
    if not ok:
        raise ConfigurationError(f"{where} must be {what}, got {value!r}")
    lo_ok = row.lo is None or (value > row.lo if row.bounds[0] == "(" else value >= row.lo)
    hi_ok = row.hi is None or (value < row.hi if row.bounds[1] == ")" else value <= row.hi)
    if not (lo_ok and hi_ok):
        hi = "inf)" if row.hi is None else f"{row.hi}{row.bounds[1]}"
        raise ConfigurationError(f"{where} must lie in {row.bounds[0]}{row.lo}, {hi}, got {value!r}")
    return value
