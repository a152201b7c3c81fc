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

Region values are immutable and shareable across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


#: Kinds whose point set is a plane minus a curve: the complement has
#: empty interior, so no point is ever a strict exterior witness.
_THIN_COMPLEMENT_KINDS = (RegionKind.NONZERO_REAL_PART, RegionKind.PUNCTURED_PLANE)


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

    @property
    def coeff_array(self) -> np.ndarray:
        return hill_coefficients(np.array(self.coeffs, dtype=float))

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

    ``sense`` selects ``f > 0`` (participates in stability verdicts),
    ``f >= 0``, or ``f = 0`` (the latter two exist for certificate
    diagnostics only).
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


def _signed_depth(region: Region, z: np.ndarray) -> np.ndarray:
    """Signed distance-like value: positive inside, negative outside.

    Only defined for the 'band' kinds where interior/boundary/exterior
    is a symmetric band around zero depth.
    """
    k = region.kind
    if k is RegionKind.RIGHT_HALF_PLANE:
        return z.real
    if k is RegionKind.LEFT_HALF_PLANE:
        return -z.real
    if k is RegionKind.UNIT_DISK:
        return 1.0 - np.abs(z)
    if k is RegionKind.SECTOR:
        r = np.abs(z)
        delta = region.half_angle - np.abs(np.angle(z))
        near = np.abs(delta) <= 0.5 * math.pi
        s = np.where(near, r * np.sin(delta), np.sign(delta) * r)
        return np.where(r == 0.0, 0.0, s)
    if k is RegionKind.HILL and region.sense in ("positive", "nonnegative"):
        return _hill_values(region, z)
    raise AssertionError(f"no signed depth for {k}")


def _classify_arrays(region: Region, z: np.ndarray):
    """Vectorized classification, the one rule per region kind.

    Returns ``(codes, margins, scores)`` where codes are 1 interior, 0
    boundary, -1 exterior, margins are the exterior margins (positive
    only for strictly exterior points; <= 0 otherwise), and scores are
    the interior scores (see ``interior_scores``).
    """
    z = np.asarray(z, dtype=complex)
    t = region.boundary_tol
    k = region.kind

    if k is RegionKind.REAL_AXIS:
        d = np.abs(z.imag)
        codes = np.where(d <= t, 1, -1)
        return codes, np.where(d <= t, -d, d), t - d
    if k is RegionKind.POSITIVE_RAY:
        dist = np.where(z.real > 0.0, np.abs(z.imag), np.abs(z))
        interior = (z.real > t) & (np.abs(z.imag) <= t)
        codes = np.where(interior, 1, np.where(dist > t, -1, 0))
        return (codes, np.where(codes == -1, dist, -dist),
                np.minimum(z.real - t, t - np.abs(z.imag)))
    if k in _THIN_COMPLEMENT_KINDS:
        s = np.abs(z.real) if k is RegionKind.NONZERO_REAL_PART else np.abs(z)
        codes = np.where(s > t, 1, 0)
        return codes, -s, s - t
    if k is RegionKind.HILL and region.sense == "zero":
        d = np.abs(_hill_values(region, z))
        codes = np.where(d <= t, 1, -1)
        return codes, np.where(d <= t, -d, d), t - d

    s = _signed_depth(region, z)
    codes = np.where(s > t, 1, np.where(s < -t, -1, 0))
    return codes, -s, s


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


def interior_rows(region: Region, spectra) -> np.ndarray:
    """Per row of a ``(count, n)`` stack of spectra, whether every
    eigenvalue classifies as interior, as a boolean mask.  A row whose
    every eigenvalue is interior has no exterior margin, so it never
    exits."""
    spectra = np.asarray(spectra)
    codes = _classify_arrays(region, spectra.ravel())[0].reshape(spectra.shape)
    return (codes == 1).all(axis=1)


def spectrum_in_region(region: Region, spectrum) -> bool:
    """True iff every eigenvalue classifies as interior: ``interior_rows``
    of the spectrum as a stack of one."""
    return bool(interior_rows(region, np.ravel(spectrum)[None])[0])


def inertia_of(region: Region, spectrum) -> Inertia:
    """Count eigenvalues inside / on the boundary of / outside the region."""
    codes = _classify_arrays(region, spectrum)[0]
    return Inertia(
        i_plus=int(np.sum(codes == 1)),
        i_zero=int(np.sum(codes == 0)),
        i_minus=int(np.sum(codes == -1)),
    )


def _negate_image(region: Region) -> Region:
    k = region.kind
    t = region.boundary_tol
    if k is RegionKind.RIGHT_HALF_PLANE:
        return left_half_plane(t)
    if k is RegionKind.LEFT_HALF_PLANE:
        return right_half_plane(t)
    if k in (RegionKind.UNIT_DISK, RegionKind.REAL_AXIS,
             RegionKind.NONZERO_REAL_PART, RegionKind.PUNCTURED_PLANE):
        return region
    if k is RegionKind.HILL:
        c = region.coeff_array
        m = c.shape[0]
        signs = np.fromfunction(lambda i, j: (-1.0) ** (i + j), (m, m))
        return hill_region(c * signs, region.sense, t)
    raise UnrepresentableError(
        f"image of {k.value} under negation is outside the supported kinds"
    )


def _reciprocal_image(region: Region) -> Region:
    # Conic kinds map onto themselves; origin-excluded variants are
    # implied where the kind formally contains zero (real axis).
    k = region.kind
    if k in (RegionKind.RIGHT_HALF_PLANE, RegionKind.LEFT_HALF_PLANE,
             RegionKind.REAL_AXIS, RegionKind.POSITIVE_RAY,
             RegionKind.NONZERO_REAL_PART, RegionKind.PUNCTURED_PLANE,
             RegionKind.SECTOR):
        return region
    if k is RegionKind.HILL:
        c = region.coeff_array
        return hill_region(c[::-1, ::-1], region.sense, region.boundary_tol)
    raise UnrepresentableError(
        f"image of {k.value} under reciprocal is outside the supported kinds"
    )


def transform_region(region: Region, phi: RegionTransform) -> TransformedRegion:
    """Image of the region under the spectral map ``-z`` or ``1/z``.

    Raises ``UnrepresentableError`` when the image leaves the supported
    kind set (e.g. the reciprocal image of the unit disk is the disk
    exterior).
    """
    if phi is RegionTransform.NEGATE:
        image = _negate_image(region)
    elif phi is RegionTransform.RECIPROCAL:
        image = _reciprocal_image(region)
    else:
        raise ValueError(f"unknown transform {phi}")
    return TransformedRegion(image, is_invariant=image.geometry() == region.geometry())


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
    """Whether multiplying by every scalar strictly between ``lo`` and
    ``hi`` (by ``lo`` alone, nonzero, when ``lo == hi``) keeps interior
    points in the region."""
    k = region.kind
    if k in (RegionKind.RIGHT_HALF_PLANE, RegionKind.LEFT_HALF_PLANE,
             RegionKind.POSITIVE_RAY, RegionKind.SECTOR):
        return lo >= 0.0
    if k is RegionKind.REAL_AXIS:
        return True
    if k in (RegionKind.NONZERO_REAL_PART, RegionKind.PUNCTURED_PLANE):
        return lo >= 0.0 or hi <= 0.0
    if k is RegionKind.UNIT_DISK:
        return lo >= -1.0 and hi <= 1.0
    if k is RegionKind.HILL:
        return _hill_scale_invariant(region, lo, hi)
    raise AssertionError(k)


def scalar_preserves_region(region: Region, alpha: float) -> bool:
    """Pointwise variant: does multiplication by this one scalar map the
    region into itself?  Used by the verdict-transfer machinery."""
    if alpha == 0.0:
        # alpha * z == 0 for every z; 0 is interior only for the disk
        # and the real axis among supported kinds.
        return region.kind in (RegionKind.UNIT_DISK, RegionKind.REAL_AXIS)
    return _scale_rule(region, alpha, alpha)
