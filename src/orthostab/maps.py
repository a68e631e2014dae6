"""Experiment maps: structured base maps plus reproducible bounded noise.

The noise is a pure function of (seed, point): coordinates come from keyed
blake2b over a canonical encoding of the point, are symmetrized to the
requested parity, and are then scaled per point so the codomain gauge of the
noise never exceeds the amplitude delta. No RNG state is involved, so
evaluation order cannot change results and two processes agree bit for bit.

Scaling preserves parity exactly: the raw noise at x and -x have coordinate-
wise equal magnitudes by construction, hence identical gauge values, hence
identical scale factors.

Float mode uses the little-endian float64 byte image of the point (with -0.0
normalized to +0.0); exact mode encodes numerator/denominator pairs and
quantizes noise coordinates to the dyadic grid with denominator 2^16.

Maps take stacks of points (see vectors.py). A stack hashes each distinct
point once, so the rows x and -x of one stack share their digests; the noise
values do not depend on which stack a point came in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .errors import ConfigurationError, InputError, RangeError
from .gauges import Gauge, float_pow
from . import vectors as vec

# Dyadic grid for exact-mode noise coordinates.
NOISE_DENOMINATOR = 2 ** 16

# Noise is scaled to amplitude * (1 - 2^-20) rather than to the amplitude
# itself. The premise inequalities downstream are tight: sign-aligned noise
# at gauge exactly delta makes the premise an equality, and float rounding
# would then flip the comparison at random. The headroom keeps every bound
# strict by a margin (~1e-6 relative) that dwarfs float error yet is
# invisible at experiment scale. gauge(noise) <= amplitude still holds.
NOISE_HEADROOM = Fraction(2 ** 20 - 1, 2 ** 20)


@dataclass(frozen=True)
class MapSpec:
    base: str
    matrix: tuple | None
    noise_amplitude: object  # float, or Fraction in exact mode
    noise_parity: str
    seed: int
    backend: str = config.default("map.backend")
    codomain_dim: int | None = None

    def __post_init__(self):
        config.check_fields(self, "map")
        if self.base in ("linear", "quadratic-form"):
            if self.matrix is None:
                raise ConfigurationError(f"map.base {self.base!r} needs a matrix")
            if self.base == "quadratic-form" and len(self.matrix) != len(self.matrix[0]):
                raise ConfigurationError(
                    f"map.base 'quadratic-form' needs a square matrix, got "
                    f"{len(self.matrix)}x{len(self.matrix[0])}"
                )
        elif self.codomain_dim is None:
            raise ConfigurationError("map.base 'zero' needs codomain_dim")

    @property
    def domain_dim(self) -> int | None:
        """Dimension of the points the base map takes; None for the zero base."""
        if self.base == "linear":
            return len(self.matrix[0])
        if self.base == "quadratic-form":
            return len(self.matrix)
        return None


@dataclass(frozen=True)
class EvaluableMap:
    """A callable map bundled with the metadata the corrector machinery needs.

    Called with one point it returns one value; called with a stack it
    returns the stack of values.
    """

    fn: object
    scalar_backend: str
    growth_hint: str  # linear | quadratic | bounded | unknown
    domain_dim: int
    codomain_dim: int

    def __call__(self, x):
        return self.fn(x)


def evaluate_stack(f, points: np.ndarray) -> np.ndarray:
    """f at every row of a stack of points, as a stack of values.

    An EvaluableMap takes the whole stack in one call; any other callable is
    taken to map one point and is called row by row.
    """
    if isinstance(f, EvaluableMap):
        return f(points)
    values = [f(vec.point_form(row)) for row in points]
    return np.array(values, dtype=vec.field_of(points).dtype)


def _payloads(points: np.ndarray) -> list[bytes]:
    """Canonical byte image of each row of a stack, the hash input for noise."""
    if points.dtype == object:
        return [
            "".join(f"{c.numerator}/{c.denominator};" for c in row).encode()
            for row in points.tolist()
        ]
    # + 0.0 so that -0.0 and 0.0 encode identically
    data = np.ascontiguousarray(points + 0.0, dtype="<f8").tobytes()
    width = 8 * points.shape[1]
    return [data[i : i + width] for i in range(0, len(data), width)]


def encode_point(x) -> bytes:
    """Canonical byte image of a point, the hash input for noise."""
    return _payloads(vec.stack(x))[0]


def _digest_words(seed: int, payloads, m: int) -> np.ndarray:
    """m uint64 words per payload from keyed blake2b, extended by block counter."""
    keyed = hashlib.blake2b(key=seed.to_bytes(8, "little", signed=False), digest_size=64)
    blocks = [b.to_bytes(4, "little") for b in range(-(-m // 8))]
    words = bytearray()
    for p in payloads:
        for b in blocks:
            h = keyed.copy()  # cheaper than keying a new hash for every payload
            h.update(p + b)
            words += h.digest()
    return np.frombuffer(words, dtype="<u8").reshape(-1, 8 * len(blocks))[:, :m]


def _raw_noise(seed: int, points: np.ndarray, m: int) -> np.ndarray:
    """Unscaled noise in [-1, 1) at each row of a stack; equal rows are hashed once."""
    index: dict = {}
    inverse = [index.setdefault(p, len(index)) for p in _payloads(points)]
    words = _digest_words(seed, index, m)
    if points.dtype == object:
        # uniform over 2^17 values
        u = (words % (2 * NOISE_DENOMINATOR)).astype(np.int64) - NOISE_DENOMINATOR
        raw = np.array(
            [Fraction(c, NOISE_DENOMINATOR) for c in u.ravel().tolist()], dtype=object
        ).reshape(u.shape)
    else:
        raw = (words >> 11).astype(np.float64) * 2.0 ** -53 * 2.0 - 1.0
    return raw[inverse]


def _symmetrized_noise(seed: int, points: np.ndarray, m: int, parity: str) -> np.ndarray:
    if parity == "none":
        return _raw_noise(seed, points, m)
    n = len(points)
    raw = _raw_noise(seed, np.concatenate([points, -points]), m)
    half = vec.field_of(points).const(1, 2)
    if parity == "odd":
        return half * (raw[:n] - raw[n:])
    return half * (raw[:n] + raw[n:])


def scaled_noise(seed: int, x, m: int, parity: str, amplitude, gauge: Gauge):
    """Noise at x, or at each row of a stack, with gauge(noise) <= amplitude.

    Exactly zero if amplitude is. The actual target is amplitude *
    NOISE_HEADROOM; see the constant above.
    """
    points, single = vec.as_stack(x)
    field = vec.field_of(points)
    if amplitude == 0:
        return vec.unstack(field.zeros((len(points), m)), single)
    eta = _symmetrized_noise(seed, points, m, parity)
    g = gauge.evaluate(eta)
    rows = g != 0
    if field is vec.RATIONAL:
        if rows.any():
            if gauge.homogeneity_degree != 1:
                raise ConfigurationError("exact noise scaling needs a 1-homogeneous gauge")
            t = Fraction(amplitude) * NOISE_HEADROOM / g[rows]
            eta[rows] = eta[rows] * t[:, None]
        return vec.unstack(eta, single)
    target = float(amplitude) * float(NOISE_HEADROOM)
    t = float_pow(target / g[rows], 1.0 / gauge.homogeneity_degree)
    eta[rows] = t[:, None] * eta[rows]
    # Float rounding can leave the gauge a few ulp above the target; shave
    # until the bound holds. Both x and -x shave identically because their
    # raw gauges are bit-equal.
    for _ in range(8):
        rows &= ~(gauge.evaluate(eta) <= target)
        if not rows.any():
            return vec.unstack(eta, single)
        eta[rows] = (1.0 - 2.0 ** -48) * eta[rows]
    raise RangeError(
        f"noise scaling failed to enforce amplitude at x={vec.point_form(points[rows][0])!r}"
    )


def build_map(spec: MapSpec, gauge: Gauge) -> EvaluableMap:
    """Assemble base + noise into an evaluable map.

    The gauge argument fixes the codomain gauge in which noise_amplitude is
    measured; it must match the gauge the experiment runs under.
    """
    field = vec.field_named(spec.backend)
    if field is vec.RATIONAL and not gauge.supports_exact:
        raise ConfigurationError(
            f"exact-rational backend cannot evaluate gauge {gauge.describe()}"
        )
    # Each base maps an (N, d) stack to an (N, m) stack. The products are
    # taken one point at a time (a stack of matrix-vector products) because a
    # single matrix-matrix product may round differently.
    if spec.matrix is not None:
        entries = config.read_field("map.matrix", spec.matrix, field is vec.RATIONAL)
        mat = np.array(entries, dtype=field.dtype)
    if spec.base == "linear":
        m, d = mat.shape
        growth = "linear"

        def base_fn(points):
            return (mat @ points[:, :, None])[:, :, 0]
    elif spec.base == "quadratic-form":
        d, m = len(mat), 1
        growth = "quadratic"

        def base_fn(points):
            return (points[:, None, :] @ (mat @ points[:, :, None]))[:, :, 0]
    else:
        m, d = spec.codomain_dim, None
        growth = "bounded"

        def base_fn(points):
            return field.zeros((len(points), m))

    amplitude = spec.noise_amplitude
    seed = spec.seed
    parity = spec.noise_parity

    def fn(x):
        if vec.field_of(x) is not field:
            raise InputError(
                "exact-rational map expects tuple-of-Fraction points"
                if field is vec.RATIONAL
                else "float64 map expects numpy array points"
            )
        points, single = vec.as_stack(x)
        points = np.ascontiguousarray(points)
        y = base_fn(points)
        if amplitude != 0:
            y = y + scaled_noise(seed, points, m, parity, amplitude, gauge)
        if field is vec.FLOAT64:
            finite = np.isfinite(y).all(axis=-1)
            if not finite.all():
                bad = vec.point_form(points[~finite][0])
                raise RangeError(f"map value left float64 range at x={bad!r}")
        return vec.unstack(y, single)

    return EvaluableMap(
        fn=fn,
        scalar_backend=spec.backend,
        growth_hint=growth,
        domain_dim=d if d is not None else m,
        codomain_dim=m,
    )
