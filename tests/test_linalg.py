import numpy as np
import pytest
import reference_2d

from dgstab.algebra import multiset_distance
from dgstab.errors import NonSymmetricError, SingularOperatorError
from dgstab.linalg import (
    are_positive_definite,
    case_i_coefficients,
    case_iii_coefficients,
    eigenvalues,
    hill_coefficients,
    hill_form,
    is_positive_definite,
    principal_submatrix,
    solve_lyapunov,
    solve_stein,
    spectral_radius,
    symmetric_part,
)


def test_eigenvalues_rotation():
    w = eigenvalues([[0, 1], [-1, 0]])
    np.testing.assert_allclose(sorted(w, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)


def test_eigenvalues_identity():
    np.testing.assert_allclose(eigenvalues(np.eye(3)), [1, 1, 1], atol=1e-12)


def test_eigenvalues_triangular_reads_diagonal():
    np.testing.assert_allclose(eigenvalues([[1, 3], [0, 1]]), [1, 1], atol=1e-8)


def test_eigenvalues_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        eigenvalues([[np.nan, 0], [0, 1]])


def test_spectral_radius_examples():
    assert spectral_radius(np.diag([0.5, -0.25])) == pytest.approx(0.5)
    assert spectral_radius([[0, 1], [-1, 0]]) == pytest.approx(1.0)
    assert spectral_radius([[0, 2], [0, 0]]) == pytest.approx(0.0, abs=1e-12)


def test_is_positive_definite_examples():
    assert is_positive_definite(2 * np.eye(2), 1e-10)
    assert not is_positive_definite([[0, 1], [1, 0]])
    # 2x2 leading minors by hand: 0.5 > 0, det = 0.375 - 0.0625 = 0.3125 > 0
    assert is_positive_definite([[0.5, -0.25], [-0.25, 0.75]])


def test_is_positive_definite_rejects_asymmetric():
    with pytest.raises(NonSymmetricError):
        is_positive_definite([[1, 1], [0, 1]])


@pytest.mark.filterwarnings("error")
def test_is_positive_definite_symmetry_test_does_not_overflow():
    # the Frobenius norm of diag(2e307, 2e307) overflows the float range
    assert is_positive_definite(np.diag([2e307, 2e307]))


@pytest.mark.filterwarnings("error")
def test_is_positive_definite_rejects_indefinite_matrices_near_the_float_limit():
    # s + s^T overflows to inf and the pivot shift inf - inf to NaN,
    # which the Cholesky factorization does not reject
    assert not is_positive_definite(np.diag([1e308, -1e308]))
    assert not is_positive_definite([[1e308, 0.0], [0.0, -1.0]])


@pytest.mark.filterwarnings("error")
def test_is_positive_definite_rejects_asymmetry_near_the_float_limit():
    # both Frobenius norms overflow to inf, and inf > 1e-9 * inf is False
    with pytest.raises(NonSymmetricError):
        is_positive_definite([[1e308, 1e308], [-1e308, 1e308]])


@pytest.mark.filterwarnings("error")
def test_a_stacked_definiteness_test_decides_each_matrix_alone():
    # rows that fail the Cholesky, are asymmetric, non-finite or near the
    # float limit sit among passing rows; each decides as one matrix
    stack = np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]], [[0.5, -0.25], [-0.25, 0.75]],
                      [[1.0, 1.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                      np.diag([2e307, 2e307]), np.diag([1e308, -1e308]),
                      [[1e308, 1e308], [-1e308, 1e308]], np.diag([1.0, 1e-12])])
    want = []
    for s in stack:
        try:
            want.append(reference_2d.is_positive_definite(s))
        except (NonSymmetricError, ValueError):
            want.append(False)
    assert want == [True, False, True, False, False, True, False, False, False]
    assert are_positive_definite(stack).tolist() == want
    assert are_positive_definite(stack[[0, 2, 5]]).tolist() == [True] * 3
    for i in range(len(stack)):
        assert are_positive_definite(stack[i:i + 1]).tolist() == want[i:i + 1]


@pytest.mark.filterwarnings("error")
def test_stacked_definiteness_matches_the_one_matrix_reference_at_its_edges():
    # per order, random matrices whose asymmetry straddles the symmetry
    # tolerance and whose smallest eigenvalue straddles the pivot shift,
    # at scales across the float range
    r = np.random.default_rng(7)
    seen = set()
    for k in (1, 2, 3, 5, 8):
        stack = []
        for _ in range(60):
            q = np.linalg.qr(r.standard_normal((k, k)))[0]
            lam = r.uniform(0.5, 2.0, k)
            lam[0] = r.choice([-1.0, 1.0]) * 10.0 ** r.uniform(-11, -7)
            s = (q * lam) @ q.T
            s = 0.5 * (s + s.T)
            skew = r.standard_normal((k, k))
            skew -= skew.T
            if k > 1:
                # ||s - s^T||_F = 2 c ||skew||_F, near 1e-9 * ||s||_F
                s += skew * (r.uniform(0.98, 1.02) * 1e-9 * np.linalg.norm(s)
                             / (2.0 * np.linalg.norm(skew)))
            stack.append(s * 2.0 ** int(r.integers(-1000, 1000)))
        stack = np.array(stack)
        want = []
        for s in stack:
            try:
                want.append(reference_2d.is_positive_definite(s))
            except NonSymmetricError:
                want.append(None)
            got = None
            try:
                got = is_positive_definite(s)
            except NonSymmetricError:
                pass
            assert got is want[-1], (k, s)
        seen.update(want)
        assert are_positive_definite(stack).tolist() == [w is True for w in want], k
    assert seen == {True, False, None}


def test_symmetric_part_examples():
    np.testing.assert_array_equal(
        symmetric_part([[1, 3], [0, 1]]), [[2, 3], [3, 2]]
    )
    s = np.array([[2.0, 1.0], [1.0, 5.0]])
    np.testing.assert_array_equal(symmetric_part(s), 2 * s)
    k = np.array([[0.0, 3.0], [-3.0, 0.0]])
    np.testing.assert_array_equal(symmetric_part(k), np.zeros((2, 2)))


def test_solve_lyapunov_scalar_case():
    h = solve_lyapunov(np.eye(2), 2 * np.eye(2))
    np.testing.assert_allclose(h, np.eye(2), atol=1e-12)


def test_solve_lyapunov_hand_solved_system():
    # H A + A^T H = I for A = [[1,1],[0,1]]; the 3-unknown linear system
    # gives h11 = 0.5, h12 = -0.25, h22 = 0.75.
    h = solve_lyapunov([[1, 1], [0, 1]], np.eye(2))
    np.testing.assert_allclose(h, [[0.5, -0.25], [-0.25, 0.75]], atol=1e-12)


def test_solve_lyapunov_singular_pair():
    # rotation eigenvalues +-i sum to zero
    with pytest.raises(SingularOperatorError):
        solve_lyapunov([[0, 1], [-1, 0]], np.eye(2))


def test_solve_lyapunov_requires_symmetric_w():
    with pytest.raises(NonSymmetricError):
        solve_lyapunov(np.eye(2), [[1, 1], [0, 1]])


@pytest.mark.filterwarnings("error")
def test_solvers_check_symmetry_without_overflow():
    # the Frobenius norm of W and the symmetrization W + W^T overflow the
    # float range, though W and the solution H are finite
    h = solve_lyapunov(np.eye(2), np.diag([2e307, 2e307]))
    np.testing.assert_array_equal(h, np.diag([1e307, 1e307]))
    h = solve_stein(0.5 * np.eye(2), np.diag([1e308, 1e308]))
    np.testing.assert_allclose(h, np.diag([1e308 / 0.75, 1e308 / 0.75]), rtol=1e-12)
    with pytest.raises(NonSymmetricError):
        solve_lyapunov(np.eye(2), [[1e308, 1e308], [-1e308, 1e308]])


def test_solve_stein_examples():
    h = solve_stein(0.5 * np.eye(2), np.eye(2))
    np.testing.assert_allclose(h, (4.0 / 3.0) * np.eye(2), atol=1e-12)
    w = np.array([[2.0, 1.0], [1.0, 3.0]])
    np.testing.assert_allclose(solve_stein(np.zeros((2, 2)), w), w, atol=1e-14)
    with pytest.raises(SingularOperatorError):
        solve_stein([[0, 1], [-1, 0]], np.eye(2))


def test_hill_form_case_i_is_lyapunov_form():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3))
    h = rng.standard_normal((3, 3))
    h = h + h.T
    w = hill_form(case_i_coefficients(), h, a)
    np.testing.assert_array_equal(w, h @ a + a.T @ h)


def test_hill_form_case_iii_is_stein_form():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 3))
    h = rng.standard_normal((3, 3))
    h = h + h.T
    w = hill_form(case_iii_coefficients(), h, a)
    np.testing.assert_array_equal(w, h - a.T @ h @ a)


def test_hill_form_zero_coefficients():
    w = hill_form(np.zeros((2, 2)), np.eye(3), np.ones((3, 3)))
    np.testing.assert_array_equal(w, np.zeros((3, 3)))


def test_hill_coefficients_must_be_exactly_symmetric():
    with pytest.raises(NonSymmetricError):
        hill_coefficients([[0.0, 1.0], [1.0 + 1e-15, 0.0]])


def test_principal_submatrix_examples():
    a = np.arange(9.0).reshape(3, 3)
    np.testing.assert_array_equal(principal_submatrix(a, [0, 1, 2]), a)
    np.testing.assert_array_equal(
        principal_submatrix(np.diag([1.0, 2.0, 3.0]), [0, 2]), np.diag([1.0, 3.0])
    )
    np.testing.assert_array_equal(
        principal_submatrix([[1, 2], [3, 4]], [1]), [[4.0]]
    )


def test_principal_submatrix_bounds():
    with pytest.raises(IndexError):
        principal_submatrix(np.eye(2), [0, 2])
    with pytest.raises(IndexError):
        principal_submatrix(np.eye(2), [])
    with pytest.raises(IndexError):
        principal_submatrix(np.eye(3), [2, 0])


def test_spectra_closed_under_conjugation():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        w = eigenvalues(rng.standard_normal((n, n)))
        complex_part = w[np.abs(w.imag) > 1e-8]
        d = multiset_distance(complex_part, np.conj(complex_part))
        assert d <= 1e-8


@pytest.mark.parametrize("solver,residual", [
    (solve_lyapunov, lambda a, h: h @ a + a.T @ h),
    (solve_stein, lambda a, h: h - a.T @ h @ a),
])
def test_solver_residuals_random_instances(solver, residual):
    rng = np.random.default_rng(101)
    done = 0
    while done < 100:
        n = int(rng.integers(2, 11))
        a = rng.standard_normal((n, n))
        # keep the operator well away from singularity
        w_eig = np.linalg.eigvals(a)
        sums = w_eig[:, None] + w_eig[None, :]
        prods = w_eig[:, None] * w_eig[None, :]
        if solver is solve_lyapunov and np.min(np.abs(sums)) < 0.05:
            continue
        if solver is solve_stein and np.min(np.abs(prods - 1.0)) < 0.05:
            continue
        b = rng.standard_normal((n, n))
        w = b + b.T
        h = solver(a, w)
        np.testing.assert_array_equal(h, h.T)
        assert np.linalg.norm(residual(a, h) - w) <= 1e-8 * np.linalg.norm(w)
        done += 1


def test_eigenvalues_invariant_under_permutation_similarity():
    rng = np.random.default_rng(102)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        p = np.eye(n)[rng.permutation(n)]
        d = multiset_distance(eigenvalues(a), eigenvalues(p @ a @ p.T))
        assert d <= 1e-7
