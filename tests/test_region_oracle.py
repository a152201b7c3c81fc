"""The region rule table against ``reference_regions``, the per-kind
chains that ``regions.py`` ran before ``regions._RULES``.

Every rule must be the reference's bit for bit: codes, margins and
scores compared by ``tobytes()`` (so that a -0.0 shows), the ``-z`` and
``1/z`` images with ``is_invariant`` or the same error text, the scale
rule over intervals and at single scalars.  The regions cover every kind
at two tolerances, four sector half-angles and six Hill forms in all
three senses; the points sit on and just off every boundary, on both
axes, on the negative real axis and out to magnitude 1e3.
"""

import math

import numpy as np
import pytest

import reference_regions
from dgstab import regions
from dgstab.errors import UnrepresentableError
from dgstab.linalg import case_i_coefficients, case_iii_coefficients
from dgstab.regions import RegionTransform

TOLS = (1e-9, 1e-3)
HALF_ANGLES = (0.3, 0.7, math.pi / 2, 2.5)
HILL_FORMS = (
    case_i_coefficients(),  # 2 Re z: the right half-plane
    case_iii_coefficients(),  # 1 - |z|^2: the unit disk
    -case_i_coefficients(),
    -case_iii_coefficients(),
    np.array([[0.0, 1.0], [1.0, -1.0]]),  # 2 Re z - |z|^2: degrees 1 and 2
    np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),  # 1 + Re z^2: 0 and 2
)
INTERVALS = ((0.0, 1.0), (0.5, 2.0), (-1.0, 1.0), (-2.0, -0.5), (-1.0, 0.0),
             (-0.5, 0.5), (-3.0, 3.0))
SCALARS = (0.0, -1.0, 1.0, 0.5, 2.0, -0.5, -2.0)


def _regions():
    out = []
    for t in TOLS:
        out += [regions.right_half_plane(t), regions.left_half_plane(t), regions.unit_disk(t),
                regions.real_axis(t), regions.positive_ray(t), regions.nonzero_real_part(t),
                regions.punctured_plane(t)]
        out += [regions.sector(theta, t) for theta in HALF_ANGLES]
        out += [regions.hill_region(c, sense, t) for c in HILL_FORMS
                for sense in ("positive", "nonnegative", "zero")]
    return out


def _points() -> np.ndarray:
    """Points on and just off every boundary, both axes, the negative
    real axis, and magnitudes from 1e-3 to 1e3."""
    offs = np.array([0.0, -0.0] + [s * k * t for t in TOLS for k in (1, 2) for s in (1, -1)])
    axes = np.concatenate([offs, 1j * offs, [complex(-0.0, 0.0), complex(0.0, -0.0),
                                             complex(-0.0, -0.0)]])
    angles = np.linspace(-math.pi, math.pi, 48, endpoint=False)
    radii = 1.0 + offs
    circle = (radii[:, None] * np.exp(1j * angles)).ravel()
    mags = np.logspace(-3, 3, 13)
    negative_real = -mags
    spread = (mags[:, None] * np.exp(1j * np.linspace(-math.pi, math.pi, 17))).ravel()
    edges = [r * np.exp(1j * s * (theta + d)) for theta in HALF_ANGLES + (math.pi,)
             for d in (0.0, 1e-9, -1e-9, 1e-3, -1e-3) for s in (1, -1) for r in (1e-3, 1.0, 1e3)]
    rng = np.random.default_rng(5)
    scattered = 10.0 ** rng.uniform(-3, 3, 200) * np.exp(1j * rng.uniform(-math.pi, math.pi, 200))
    return np.concatenate([axes, circle, negative_real, spread, edges, scattered,
                           np.asarray(edges).real, np.asarray(edges).imag * 1j])


def _bytes(arrays) -> tuple:
    return tuple((a.shape, a.dtype, a.tobytes()) for a in arrays)


def _image(transform, region, phi):
    """``(repr of the image, is_invariant)`` or ``(error type, text)``."""
    try:
        t = transform(region, phi)
    except UnrepresentableError as exc:
        return type(exc), str(exc)
    return repr(t.region), t.is_invariant


@pytest.mark.parametrize("region", _regions(), ids=lambda r: f"{r.kind.value}-{r.boundary_tol}")
def test_classification_is_the_reference_bit_for_bit(region):
    z = _points()
    got = regions._classify_arrays(region, z)
    want = reference_regions._classify_arrays(region, z)
    assert _bytes(got) == _bytes(want)
    # a real input and a stack of one take the same rule
    for w in (z.real, z[7:8]):
        assert _bytes(regions._classify_arrays(region, w)) == \
            _bytes(reference_regions._classify_arrays(region, w))


def test_the_points_reach_every_code_of_every_kind():
    """The point set is no weaker than its docstring says: every kind
    sees interior points and (the thin complements aside) exterior ones,
    and every band kind sees boundary points."""
    z = _points()
    for region in _regions():
        codes = set(reference_regions._classify_arrays(region, z)[0].tolist())
        thin = region.kind is regions.RegionKind.REAL_AXIS or region.sense == "zero"
        complement = region.kind in (regions.RegionKind.NONZERO_REAL_PART,
                                     regions.RegionKind.PUNCTURED_PLANE)
        assert codes == {1, -1} if thin else {1, 0} if complement else {1, 0, -1}, region


@pytest.mark.parametrize("phi", list(RegionTransform))
def test_images_are_the_reference(phi):
    for region in _regions():
        assert _image(regions.transform_region, region, phi) == \
            _image(reference_regions.transform_region, region, phi), (region, phi)


def test_an_unknown_transform_raises_the_same_error():
    for phi in ("negate", None):
        with pytest.raises(ValueError, match="unknown transform"):
            regions.transform_region(regions.unit_disk(), phi)
        with pytest.raises(ValueError, match="unknown transform"):
            reference_regions.transform_region(regions.unit_disk(), phi)


def test_scale_rules_are_the_reference():
    for region in _regions():
        for interval in INTERVALS:
            assert regions.is_scale_invariant(region, interval) is \
                reference_regions.is_scale_invariant(region, interval), (region, interval)
        for alpha in SCALARS:
            assert regions.scalar_preserves_region(region, alpha) is \
                reference_regions.scalar_preserves_region(region, alpha), (region, alpha)
