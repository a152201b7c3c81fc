"""Stability regions of the complex plane.

A region classifies complex points as interior, boundary, or exterior.
Spectra are tested against regions, eigenvalue counts (inertia) are
taken with respect to them, and the two spectral maps ``-z`` and
``1/z`` act on them.

All regions are conjugate-symmetric and treated as open sets: a point
within ``boundary_tol`` of the defining surface classifies as boundary,
and boundary is *not* interior, so it never counts toward stability.
Thin regions (the real axis, the positive ray, the polynomial-form
zero set) instead classify points within tolerance of the set as
interior, since the set itself is what membership means there.

Every per-kind rule lives in one table, ``_RULES``, with the columns
``classify``, ``negate``, ``reciprocal`` and ``scale``: ``classify`` gives
a stack of points' (codes, exterior margins, interior scores);
``negate`` and ``reciprocal`` give the region's image under ``-z`` and
``1/z``, or are None where no supported kind represents it; ``scale``
tells whether every scalar in an interval keeps interior points inside.
The ``classify`` cells are built from three shared shapes, with
``t = boundary_tol``:

  shape                  kinds                         interior  boundary  exterior
  band around a depth s  half-planes, disk, sector,    s > t     |s| <= t  s < -t
                         hill (positive, nonnegative)
  thin set, distance d   real axis, hill (zero)        d <= t    never     d > t
  plane minus a curve,   nonzero real part,            s > t     s <= t    never
  distance s             punctured plane

and the positive ray keeps its own rule.

Region values are immutable and shareable across threads.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import UnrepresentableError
from .linalg import hill_coefficients

__all__ = [
    "RegionKind",
    "Region",
    "PointClass",
    "Inertia",
    "RegionTransform",
    "TransformedRegion",
    "right_half_plane",
    "left_half_plane",
    "unit_disk",
    "real_axis",
    "positive_ray",
    "nonzero_real_part",
    "punctured_plane",
    "sector",
    "hill_region",
    "classify_point",
    "exterior_margins",
    "first_exit",
    "row_exits",
    "interior_scores",
    "spectrum_in_region",
    "interior_rows",
    "inertia_of",
    "inertia_rows",
    "transform_region",
    "is_scale_invariant",
]

DEFAULT_BOUNDARY_TOL = 1e-9


class RegionKind(enum.Enum):
    RIGHT_HALF_PLANE = "right_half_plane"
    LEFT_HALF_PLANE = "left_half_plane"
    UNIT_DISK = "unit_disk"
    REAL_AXIS = "real_axis"
    POSITIVE_RAY = "positive_ray"
    NONZERO_REAL_PART = "nonzero_real_part"
    PUNCTURED_PLANE = "punctured_plane"
    SECTOR = "sector"
    HILL = "hill"


class PointClass(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


class RegionTransform(enum.Enum):
    NEGATE = "negate"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class Region:
    kind: RegionKind
    boundary_tol: float = DEFAULT_BOUNDARY_TOL
    half_angle: float | None = None
    coeffs: tuple[tuple[float, ...], ...] | None = None
    sense: str = "positive"

    def __post_init__(self):
        if self.boundary_tol <= 0:
            raise ValueError("boundary_tol must be positive")
        if self.kind is RegionKind.SECTOR:
            if self.half_angle is None or not 0 < self.half_angle < math.pi:
                raise ValueError("sector half-angle must lie in (0, pi)")
        if self.kind is RegionKind.HILL:
            if self.coeffs is None:
                raise ValueError("polynomial-form region needs coefficients")
            if self.sense not in ("positive", "nonnegative", "zero"):
                raise ValueError(f"unknown sense {self.sense!r}")

    @functools.cached_property
    def coeff_array(self) -> np.ndarray:
        """The validated coefficients as a read-only array, computed
        once; coefficients that fail validation raise on every access."""
        c = hill_coefficients(np.array(self.coeffs, dtype=float))
        c.flags.writeable = False
        return c

    @property
    def is_bounded(self) -> bool:
        return self.kind is RegionKind.UNIT_DISK

    def geometry(self):
        """Kind plus shape parameters, without the boundary tolerance."""
        return (self.kind, self.half_angle, self.coeffs, self.sense)


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue counts (inside, on boundary, outside) for a region."""

    i_plus: int
    i_zero: int
    i_minus: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.i_plus, self.i_zero, self.i_minus)


@dataclass(frozen=True)
class TransformedRegion:
    region: Region
    is_invariant: bool


def right_half_plane(boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Region:
    return Region(RegionKind.RIGHT_HALF_PLANE, boundary_tol)


def left_half_plane(boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Region:
    return Region(RegionKind.LEFT_HALF_PLANE, boundary_tol)


def unit_disk(boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Region:
    return Region(RegionKind.UNIT_DISK, boundary_tol)


def real_axis(boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Region:
    return Region(RegionKind.REAL_AXIS, boundary_tol)


def positive_ray(boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Region:
    return Region(RegionKind.POSITIVE_RAY, boundary_tol)


def nonzero_real_part(boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Region:
    return Region(RegionKind.NONZERO_REAL_PART, boundary_tol)


def punctured_plane(boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Region:
    return Region(RegionKind.PUNCTURED_PLANE, boundary_tol)


def sector(half_angle: float, boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Region:
    """Open sector ``{z : |arg z| < half_angle}`` around the positive
    real axis, apex at the origin."""
    return Region(RegionKind.SECTOR, boundary_tol, half_angle=float(half_angle))


def hill_region(coeffs, sense: str = "positive",
                boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> Region:
    """Region cut out by the scalar form ``f(z) = sum c[i,j] conj(z)^i z^j``.

    ``sense="positive"`` is the open region ``f > 0``.
    ``"nonnegative"`` classifies every point exactly as ``"positive"``
    does: regions are open, so a point with ``f = 0`` (within
    ``boundary_tol``) is on the boundary under both.  ``"zero"`` is the
    curve ``f = 0``: interior where ``|f| <= boundary_tol``, exterior
    elsewhere.
    """
    c = hill_coefficients(np.asarray(coeffs, dtype=float))
    return Region(
        RegionKind.HILL,
        boundary_tol,
        coeffs=tuple(tuple(float(v) for v in row) for row in c),
        sense=sense,
    )


def _hill_values(region: Region, z: np.ndarray) -> np.ndarray:
    c = region.coeff_array
    m = c.shape[0]
    powers = np.ones((m,) + z.shape, dtype=complex)
    for i in range(1, m):
        powers[i] = powers[i - 1] * z
    return np.einsum("iz,ij,jz->z", np.conj(powers), c, powers).real


def _sector_depth(region: Region, z: np.ndarray) -> np.ndarray:
    r = np.abs(z)
    delta = region.half_angle - np.abs(np.angle(z))
    near = np.abs(delta) <= 0.5 * math.pi
    s = np.where(near, r * np.sin(delta), np.sign(delta) * r)
    return np.where(r == 0.0, 0.0, s)


def _band(depth):
    """The band around a signed depth ``s``, positive inside: interior
    where ``s > t``, exterior where ``s < -t``, boundary between; margin
    ``-s``, score ``s``."""
    def classify(region, z, t):
        s = depth(region, z)
        return np.where(s > t, 1, np.where(s < -t, -1, 0)), -s, s
    return classify


def _thin(distance):
    """The thin set where a distance ``d`` is zero: interior within ``t``
    of it, exterior beyond; margin ``d`` outside and ``-d`` inside, score
    ``t - d``."""
    def classify(region, z, t):
        d = distance(region, z)
        inside = d <= t
        return np.where(inside, 1, -1), np.where(inside, -d, d), t - d
    return classify


def _minus_curve(distance):
    """The plane minus a curve, at distance ``s`` from it: interior beyond
    ``t``, boundary within.  The complement has empty interior, so no
    point is ever a strict exterior witness: margin ``-s``, score
    ``s - t``."""
    def classify(region, z, t):
        s = distance(region, z)
        return np.where(s > t, 1, 0), -s, s - t
    return classify


def _ray_classify(region: Region, z: np.ndarray, t: float):
    """The positive ray's own rule: interior beyond ``t`` along the axis
    and within ``t`` of it, exterior farther than ``t`` from the ray."""
    dist = np.where(z.real > 0.0, np.abs(z.imag), np.abs(z))
    interior = (z.real > t) & (np.abs(z.imag) <= t)
    codes = np.where(interior, 1, np.where(dist > t, -1, 0))
    return (codes, np.where(codes == -1, dist, -dist),
            np.minimum(z.real - t, t - np.abs(z.imag)))


_HILL_BAND = _band(_hill_values)
_HILL_ZERO = _thin(lambda r, z: np.abs(_hill_values(r, z)))


def _hill_negate(region: Region) -> Region:
    c = region.coeff_array
    m = c.shape[0]
    signs = np.fromfunction(lambda i, j: (-1.0) ** (i + j), (m, m))
    return hill_region(c * signs, region.sense, region.boundary_tol)


def _hill_scale_invariant(region: Region, lo: float, hi: float) -> bool:
    c = region.coeff_array
    nz = np.argwhere(c != 0.0)
    if nz.size == 0:
        return True
    degrees = {int(i + j) for i, j in nz}
    if len(degrees) != 1:
        return False
    deg = degrees.pop()
    if deg == 0:
        return True
    if deg % 2 == 1:
        return lo >= 0.0
    return lo >= 0.0 or hi <= 0.0


def _same(region: Region) -> Region:
    return region


def _nonnegative(region: Region, lo: float, hi: float) -> bool:
    return lo >= 0.0


def _one_sign(region: Region, lo: float, hi: float) -> bool:
    return lo >= 0.0 or hi <= 0.0


class _Rules(NamedTuple):
    classify: Callable  # (region, z, t) -> (codes, margins, scores) of the points z
    negate: Callable | None  # region -> its image under -z; None: no kind holds it
    reciprocal: Callable | None  # region -> its image under 1/z; None: no kind holds it
    # (region, lo, hi) -> whether multiplying by every scalar strictly
    # between lo and hi (by lo alone, nonzero, when lo == hi) keeps
    # interior points in the region
    scale: Callable


#: The rules of each kind, as the module docstring lists them.  Conic
#: kinds are their own image under 1/z; where a kind formally contains
#: zero (the real axis), the origin-excluded variant is implied.
_RULES = {
    RegionKind.RIGHT_HALF_PLANE: _Rules(_band(lambda r, z: z.real),
                                        lambda r: left_half_plane(r.boundary_tol),
                                        _same, _nonnegative),
    RegionKind.LEFT_HALF_PLANE: _Rules(_band(lambda r, z: -z.real),
                                       lambda r: right_half_plane(r.boundary_tol),
                                       _same, _nonnegative),
    RegionKind.UNIT_DISK: _Rules(_band(lambda r, z: 1.0 - np.abs(z)), _same, None,
                                 lambda r, lo, hi: lo >= -1.0 and hi <= 1.0),
    RegionKind.REAL_AXIS: _Rules(_thin(lambda r, z: np.abs(z.imag)), _same, _same,
                                 lambda r, lo, hi: True),
    RegionKind.POSITIVE_RAY: _Rules(_ray_classify, None, _same, _nonnegative),
    RegionKind.NONZERO_REAL_PART: _Rules(_minus_curve(lambda r, z: np.abs(z.real)),
                                         _same, _same, _one_sign),
    RegionKind.PUNCTURED_PLANE: _Rules(_minus_curve(lambda r, z: np.abs(z)),
                                       _same, _same, _one_sign),
    RegionKind.SECTOR: _Rules(_band(_sector_depth), None, _same, _nonnegative),
    RegionKind.HILL: _Rules(
        lambda r, z, t: (_HILL_ZERO if r.sense == "zero" else _HILL_BAND)(r, z, t),
        _hill_negate,
        lambda r: hill_region(r.coeff_array[::-1, ::-1], r.sense, r.boundary_tol),
        _hill_scale_invariant),
}


def _classify_arrays(region: Region, z: np.ndarray):
    """Vectorized classification, the kind's ``classify`` rule.

    Returns ``(codes, margins, scores)`` where codes are 1 interior, 0
    boundary, -1 exterior, margins are the exterior margins (positive
    only for strictly exterior points; <= 0 otherwise), and scores are
    the interior scores (see ``interior_scores``).
    """
    return _RULES[region.kind].classify(region, np.asarray(z, dtype=complex),
                                        region.boundary_tol)


def classify_point(region: Region, lam: complex) -> PointClass:
    """Classify one complex point against the region."""
    if not (math.isfinite(complex(lam).real) and math.isfinite(complex(lam).imag)):
        raise ValueError("point must be finite")
    codes = _classify_arrays(region, np.array([lam]))[0]
    return {1: PointClass.INTERIOR, 0: PointClass.BOUNDARY, -1: PointClass.EXTERIOR}[
        int(codes[0])
    ]


def exterior_margins(region: Region, lams) -> np.ndarray:
    """Exterior margin of each point: how far beyond the boundary it
    lies.  Positive exactly for strictly exterior points."""
    return _classify_arrays(region, lams)[1]


def _exits(region: Region, spectra: np.ndarray, tol: float):
    """The exit rule, once for a ``(count, n)`` stack of spectra: the
    margins, and per row whether it has an exterior margin beyond
    ``tol``."""
    margins = exterior_margins(region, spectra.ravel()).reshape(spectra.shape)
    return margins, margins.max(axis=1) > tol


def _exit_of(spectra: np.ndarray, margins: np.ndarray, j: int) -> tuple[complex, float]:
    """Row ``j``'s eigenvalue of largest margin (the first such on a
    tie), and that margin."""
    i = int(margins[j].argmax())
    return complex(spectra[j, i]), float(margins[j, i])


def first_exit(region: Region, spectra, tol: float) -> tuple[int, complex, float] | None:
    """The rule that says which member refutes: for a ``(count, n)``
    stack of spectra, (row, eigenvalue, margin) of the first row with an
    exterior margin beyond ``tol``, its eigenvalue of largest margin
    (the first such on a tie), or None when no row exits."""
    spectra = np.asarray(spectra)
    margins, exits = _exits(region, spectra, tol)
    j = int(exits.argmax())
    if not exits[j]:
        return None
    return (j,) + _exit_of(spectra, margins, j)


def row_exits(region: Region, spectra, tol: float) -> list[tuple[complex, float] | None]:
    """``first_exit``'s rule applied to each row of a ``(count, n)``
    stack of spectra on its own: per row, (eigenvalue, margin) of its
    exit, or None when it does not exit."""
    spectra = np.asarray(spectra)
    margins, exits = _exits(region, spectra, tol)
    out: list[tuple[complex, float] | None] = [None] * len(spectra)
    for j in np.flatnonzero(exits).tolist():
        out[j] = _exit_of(spectra, margins, j)
    return out


def interior_scores(region: Region, lams) -> np.ndarray:
    """Smooth-ish score, positive when safely interior.

    Used as an optimization objective by the stabilizer; for band kinds
    it equals the signed depth, for thin kinds it measures how deep the
    point sits within the tolerance band.
    """
    return _classify_arrays(region, lams)[2]


def _row_codes(region: Region, spectra) -> np.ndarray:
    """The codes of a ``(count, n)`` stack of spectra, in its shape."""
    spectra = np.asarray(spectra)
    return _classify_arrays(region, spectra.ravel())[0].reshape(spectra.shape)


def interior_rows(region: Region, spectra) -> np.ndarray:
    """Per row of a ``(count, n)`` stack of spectra, whether every
    eigenvalue classifies as interior, as a boolean mask.  A row whose
    every eigenvalue is interior has no exterior margin, so it never
    exits."""
    return (_row_codes(region, spectra) == 1).all(axis=1)


def spectrum_in_region(region: Region, spectrum) -> bool:
    """True iff every eigenvalue classifies as interior: ``interior_rows``
    of the spectrum as a stack of one."""
    return bool(interior_rows(region, np.ravel(spectrum)[None])[0])


def inertia_rows(region: Region, spectra) -> np.ndarray:
    """Per row of a ``(count, n)`` stack of spectra, its eigenvalues
    inside, on the boundary of and outside the region, as a
    ``(count, 3)`` array of counts."""
    codes = _row_codes(region, spectra)
    return np.stack([(codes == c).sum(axis=1) for c in (1, 0, -1)], axis=1)


def inertia_of(region: Region, spectrum) -> Inertia:
    """Count eigenvalues inside / on the boundary of / outside the region:
    ``inertia_rows`` of the spectrum as a stack of one."""
    return Inertia(*inertia_rows(region, np.ravel(spectrum)[None])[0].tolist())


def transform_region(region: Region, phi: RegionTransform) -> TransformedRegion:
    """Image of the region under the spectral map ``-z`` or ``1/z``: the
    kind's ``negate`` or ``reciprocal`` rule.

    Raises ``UnrepresentableError`` when the image leaves the supported
    kind set (e.g. the reciprocal image of the unit disk is the disk
    exterior).
    """
    if not isinstance(phi, RegionTransform):
        raise ValueError(f"unknown transform {phi}")
    rule = getattr(_RULES[region.kind], phi.value)  # the column the map names
    if rule is None:
        noun = "negation" if phi is RegionTransform.NEGATE else "reciprocal"
        raise UnrepresentableError(
            f"image of {region.kind.value} under {noun} is outside the supported kinds")
    image = rule(region)
    return TransformedRegion(image, is_invariant=image.geometry() == region.geometry())


def is_scale_invariant(region: Region, interval: tuple[float, float]) -> bool:
    """Whether ``alpha * z`` stays in the region for every interior
    ``z`` and every ``alpha`` in the open interval.

    The answer is analytic per kind; the test suite checks every
    positive answer against sampled interior points.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    return _scale_rule(region, lo, hi)


def _scale_rule(region: Region, lo: float, hi: float) -> bool:
    """The kind's ``scale`` rule: whether multiplying by every scalar
    strictly between ``lo`` and ``hi`` (by ``lo`` alone, nonzero, when
    ``lo == hi``) keeps interior points in the region."""
    return _RULES[region.kind].scale(region, lo, hi)


def scalar_preserves_region(region: Region, alpha: float) -> bool:
    """Pointwise variant: does multiplication by this one scalar map the
    region into itself?  Used by the verdict-transfer machinery, and at
    -1 by ``certify.exhaust`` to enumerate one member of each +/- pair."""
    if alpha == 0.0:
        # alpha * z == 0 for every z; 0 is interior only for the disk
        # and the real axis among supported kinds.
        return region.kind in (RegionKind.UNIT_DISK, RegionKind.REAL_AXIS)
    return _scale_rule(region, alpha, alpha)
