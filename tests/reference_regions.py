"""A reference for the region rules: the per-kind chains of
``regions.py`` (the signed depth, the classification's special cases,
the ``-z`` and ``1/z`` images and the scale rule) as they ran before the
rules moved into the one table ``regions._RULES``.

The table's rules must give the same codes, margins, scores, images,
errors and scale answers, bit for bit, so these bodies share no rule
with it.
"""

import math

import numpy as np

from dgstab.errors import UnrepresentableError
from dgstab.regions import (Region, RegionKind, RegionTransform, TransformedRegion,
                            _hill_values, hill_region, left_half_plane, right_half_plane)


#: Kinds whose point set is a plane minus a curve: the complement has
#: empty interior, so no point is ever a strict exterior witness.
_THIN_COMPLEMENT_KINDS = (RegionKind.NONZERO_REAL_PART, RegionKind.PUNCTURED_PLANE)


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
    region into itself?  Used by the verdict-transfer machinery, and at
    -1 by ``certify.exhaust`` to enumerate one member of each +/- pair."""
    if alpha == 0.0:
        # alpha * z == 0 for every z; 0 is interior only for the disk
        # and the real axis among supported kinds.
        return region.kind in (RegionKind.UNIT_DISK, RegionKind.REAL_AXIS)
    return _scale_rule(region, alpha, alpha)
