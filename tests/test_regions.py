import numpy as np
import pytest

from dgstab import regions
from dgstab.errors import UnrepresentableError
from dgstab.linalg import case_i_coefficients
from dgstab.regions import (
    PointClass,
    RegionTransform,
    classify_point,
    exterior_margins,
    first_exit,
    hill_region,
    inertia_of,
    is_scale_invariant,
    left_half_plane,
    nonzero_real_part,
    positive_ray,
    punctured_plane,
    real_axis,
    right_half_plane,
    scalar_preserves_region,
    sector,
    spectrum_in_region,
    transform_region,
    unit_disk,
)

ALL_KINDS = [
    right_half_plane(),
    left_half_plane(),
    unit_disk(),
    real_axis(),
    positive_ray(),
    nonzero_real_part(),
    punctured_plane(),
    sector(0.7),
    hill_region(case_i_coefficients()),
]


def test_classify_point_examples():
    assert classify_point(right_half_plane(), 1.0) is PointClass.INTERIOR
    assert classify_point(unit_disk(), 1j) is PointClass.BOUNDARY
    # f(z) = 2 Re z, so f(-2) = -4 < 0
    assert classify_point(hill_region(case_i_coefficients()), -2.0) \
        is PointClass.EXTERIOR


def test_spectrum_in_region_examples():
    assert spectrum_in_region(right_half_plane(), [1.0, 2 + 1j, 2 - 1j])
    assert not spectrum_in_region(unit_disk(), [0.5, 1.0])
    # real spectra count as inside the real-axis region
    assert spectrum_in_region(real_axis(), [1.0, -3.0])


def test_inertia_examples():
    i = inertia_of(right_half_plane(), np.linalg.eigvals(np.diag([1.0, -2.0, 0.0])))
    assert i.as_tuple() == (1, 1, 1)
    assert inertia_of(unit_disk(), [0.5, 2.0]).as_tuple() == (1, 0, 1)
    assert inertia_of(right_half_plane(), [1.0, -1.0]).as_tuple() == (1, 0, 1)


def test_inertia_counts_sum():
    rng = np.random.default_rng(7)
    for region in ALL_KINDS:
        pts = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        i = inertia_of(region, pts)
        assert i.i_plus + i.i_zero + i.i_minus == 50


def test_transform_examples():
    t = transform_region(positive_ray(), RegionTransform.RECIPROCAL)
    assert t.is_invariant and t.region.kind is regions.RegionKind.POSITIVE_RAY
    t = transform_region(real_axis(), RegionTransform.NEGATE)
    assert t.is_invariant
    with pytest.raises(UnrepresentableError):
        transform_region(unit_disk(), RegionTransform.RECIPROCAL)


def test_transform_half_planes_swap_under_negation():
    t = transform_region(right_half_plane(), RegionTransform.NEGATE)
    assert t.region.kind is regions.RegionKind.LEFT_HALF_PLANE
    assert not t.is_invariant


def test_transforms_are_involutive():
    for region in ALL_KINDS:
        for phi in RegionTransform:
            try:
                once = transform_region(region, phi).region
            except UnrepresentableError:
                continue
            twice = transform_region(once, phi).region
            assert twice.geometry() == region.geometry()


def test_reciprocal_preserves_half_plane_membership():
    rng = np.random.default_rng(8)
    region = right_half_plane()
    pts = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    pts = pts[np.abs(pts.real) > 1e-3]
    image = transform_region(region, RegionTransform.RECIPROCAL).region
    for z in pts:
        assert classify_point(region, z) == classify_point(image, 1 / z)


def test_scale_invariance_examples():
    assert is_scale_invariant(right_half_plane(), (0.0, np.inf))
    assert is_scale_invariant(unit_disk(), (-1.0, 1.0))
    assert not is_scale_invariant(right_half_plane(), (-1.0, 1.0))
    assert is_scale_invariant(real_axis(), (-np.inf, np.inf))
    assert not is_scale_invariant(unit_disk(), (0.0, 2.0))
    assert is_scale_invariant(hill_region(case_i_coefficients()), (0.0, np.inf))


SCALE_INTERVALS = [(0.0, np.inf), (0.5, 2.0), (-1.0, 1.0), (-1.0, 0.0),
                   (-np.inf, 0.0), (-np.inf, np.inf)]
SCALE_INVARIANT_CASES = [(r, iv) for r in ALL_KINDS for iv in SCALE_INTERVALS
                         if is_scale_invariant(r, iv)]
# a scalar that preserves the region is checked as the interval [alpha, alpha]
SCALARS = [0.0, 1e-300, 0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.25, 2.0, 1e300]
SCALE_INVARIANT_CASES += [(r, (alpha, alpha)) for r in ALL_KINDS
                          for alpha in SCALARS + [-x for x in SCALARS[1:]]
                          if scalar_preserves_region(r, alpha)]


@pytest.mark.parametrize(
    "region, interval", SCALE_INVARIANT_CASES,
    ids=[f"{r.kind.value}-{lo}-{hi}" for r, (lo, hi) in SCALE_INVARIANT_CASES])
def test_scale_invariance_holds_on_sampled_points(region, interval):
    # every analytic "invariant" or "preserves" answer must survive
    # scaling sampled interior points by sampled factors from the interval
    rng = np.random.default_rng(20240)
    pts = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    pts = pts * 10.0 ** rng.uniform(-2, 2, 4000)
    codes, _, _ = regions._classify_arrays(region, pts)
    pts = pts[codes == 1][:1000]
    lo, hi = (x if np.isfinite(x) else np.sign(x) * 1e6 for x in interval)
    alphas = rng.uniform(lo, hi, 16)
    for alpha in alphas:
        margins = exterior_margins(region, alpha * pts)
        assert not np.any(margins > 1e-6 * (1.0 + np.abs(alpha * pts))), alpha


def test_classification_is_conjugate_symmetric():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    pts = pts * 10.0 ** rng.uniform(-3, 3, 10_000)
    for region in ALL_KINDS:
        codes, _, _ = regions._classify_arrays(region, pts)
        codes_conj, _, _ = regions._classify_arrays(region, np.conj(pts))
        np.testing.assert_array_equal(codes, codes_conj)


def test_case_i_form_region_matches_right_half_plane():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    region = hill_region(case_i_coefficients())
    rhp = right_half_plane()
    tol = max(region.boundary_tol, rhp.boundary_tol)
    away = pts[np.abs(pts.real) > tol]
    for z in away[:2000]:
        assert classify_point(region, z) == classify_point(rhp, z)


def test_sector_geometry():
    s = sector(np.pi / 4)
    assert classify_point(s, 1.0) is PointClass.INTERIOR
    assert classify_point(s, 1j) is PointClass.EXTERIOR
    assert classify_point(s, 0.0) is PointClass.BOUNDARY
    assert classify_point(s, 1 + 1j) is PointClass.BOUNDARY


def test_thin_complement_kinds_never_give_exterior():
    pts = np.array([0.0, 1j, 1e-12 + 1j, 1.0, -2.0 + 0.5j])
    for region in (nonzero_real_part(), punctured_plane()):
        margins = exterior_margins(region, pts)
        assert np.all(margins <= 0.0)


def test_nonzero_real_part_boundary_behaviour():
    r = nonzero_real_part()
    assert classify_point(r, 1j) is PointClass.BOUNDARY
    assert classify_point(r, 1 + 1j) is PointClass.INTERIOR
    assert not spectrum_in_region(r, np.linalg.eigvals([[0.0, 1.0], [-1.0, 0.0]]))


def test_exterior_margin_is_distance_like():
    m = exterior_margins(right_half_plane(), np.array([-0.5 + 4.44j]))
    assert m[0] == pytest.approx(0.5)
    m = exterior_margins(unit_disk(), np.array([2.0]))
    assert m[0] == pytest.approx(1.0)


def test_first_exit_margin_equal_to_tol_is_no_exit():
    assert first_exit(right_half_plane(), np.array([[-0.5, 1.0]]), 0.5) is None
    assert first_exit(right_half_plane(), np.array([[-0.5, 1.0]]), 0.25) == (0, -0.5, 0.5)


def test_first_exit_takes_the_first_row_then_its_largest_margin():
    rhp = right_half_plane()
    # an earlier row beats a later row's larger margin
    spectra = np.array([[1.0, -0.1 + 2j, 3.0], [-5.0, 1.0, 1.0], [-0.7, -0.2, 1.0]])
    assert first_exit(rhp, spectra, 1e-7) == (0, -0.1 + 2j, pytest.approx(0.1))
    # within a row the largest margin wins, the first of equal ones
    assert first_exit(rhp, spectra[1:], 1e-7) == (0, -5.0, 5.0)
    assert first_exit(rhp, spectra[2:], 1e-7) == (0, -0.7, pytest.approx(0.7))
    assert first_exit(rhp, np.array([[2.0, -1.0, -1.0 + 1j]]), 0.0) == (0, -1.0, 1.0)
    assert first_exit(unit_disk(), spectra, 1e-7) == (0, 3.0, 2.0)


def test_first_exit_at_order_one():
    disk = unit_disk()
    assert first_exit(disk, np.array([[0.5], [-3.0], [4.0]]), 1e-7) == (1, -3.0, 2.0)
    assert first_exit(disk, np.array([0.5])[None], 1e-7) is None
    # an exit's eigenvalue is a Python complex, its row and margin plain numbers
    row, lam, margin = first_exit(disk, np.array([[2.0]]), 0.0)
    assert (type(row), type(lam), type(margin)) == (int, complex, float)


def test_hill_senses():
    c = case_i_coefficients()
    nonneg = hill_region(c, sense="nonnegative")
    zero = hill_region(c, sense="zero")
    assert classify_point(nonneg, 1.0) is PointClass.INTERIOR
    assert classify_point(zero, 1j) is PointClass.INTERIOR  # f = 0 on the axis
    assert classify_point(zero, 1.0) is PointClass.EXTERIOR
