import numpy as np
import pytest
import reference_2d

from dgstab.algebra import multiset_distance
from dgstab.errors import NonSymmetricError, SingularOperatorError
from dgstab.linalg import (
    _symmetric_operator,
    are_positive_definite,
    case_i_coefficients,
    case_iii_coefficients,
    eigenvalues,
    hill_coefficients,
    hill_form,
    is_positive_definite,
    polynomial_forms,
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


@pytest.mark.filterwarnings("error")
def test_solvers_overflow_edges():
    # the Lyapunov equation is homogeneous in A, so a huge A is solved
    # exactly on A / 2^e; the Kronecker sum of A itself would overflow
    h = solve_lyapunov(1e308 * np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    np.testing.assert_allclose(h, 1e-308 * np.array([[0.5, -0.25], [-0.25, 0.75]]),
                               rtol=1e-12, atol=0.0)
    with pytest.raises(OverflowError, match="rescale the inputs"):
        solve_stein(1e200 * np.eye(2), np.eye(2))
    # H = W / (2 * 2^-20) leaves the float range
    with pytest.raises(OverflowError, match="rescale the inputs"):
        solve_lyapunov(2.0**-20 * np.eye(2), 1e308 * np.eye(2))


def test_solvers_at_order_one_and_at_zero_inputs():
    np.testing.assert_array_equal(solve_lyapunov([[2.0]], [[1.0]]), [[0.25]])
    # W = 0 gives no column for the condition estimate, only H = 0
    np.testing.assert_array_equal(solve_stein(0.5 * np.eye(2), np.zeros((2, 2))),
                                  np.zeros((2, 2)))
    for solver, a in ((solve_lyapunov, [[0.0]]), (solve_stein, [[1.0]]),
                      (solve_stein, [[-1.0]]), (solve_lyapunov, np.zeros((3, 3)))):
        with pytest.raises(SingularOperatorError):
            solver(a, np.eye(len(a)))


@pytest.mark.parametrize("solver", [solve_lyapunov, solve_stein])
def test_solvers_are_deterministic(solver):
    rng = np.random.default_rng(7)
    a = 0.3 * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    assert solver(a, b + b.T).tobytes() == solver(a, b + b.T).tobytes()


def test_solve_lyapunov_scales_exactly_with_a():
    rng = np.random.default_rng(8)
    for n in (1, 3, 7):
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal((n, n))
        h = solve_lyapunov(a, b + b.T)
        for k in (10, -10):
            np.testing.assert_array_equal(solve_lyapunov(np.ldexp(a, k), b + b.T),
                                          np.ldexp(h, -k))


def _kron_operator(a, mode):
    n = len(a)
    if mode == "lyap":
        return np.kron(a.T, np.eye(n)) + np.kron(np.eye(n), a.T)
    return np.eye(n * n) - np.kron(a.T, a.T)


def _hidden(rng, t):
    """``S T S^-1`` for a Gaussian ``S`` with ``cond(S) < 1e3``."""
    n = len(t)
    while True:
        s = rng.standard_normal((n, n))
        if np.linalg.cond(s) < 1e3:
            return s @ t @ np.linalg.inv(s)


def _oracle_inputs(rng, n, mode):
    """One input of each kind: singular diagonalizable, singular
    defective, separated and raw Gaussian."""
    lam = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    lam[1] = -lam[0] if mode == "lyap" else 1.0 / lam[0]
    yield "singular", _hidden(rng, np.diag(lam))
    # a Jordan block J_k(mu) with partner -mu (lyap) or 1 / mu (stein);
    # with no room for a partner, mu = 0 (lyap) or +-1 (stein) pairs
    # the block with itself
    k = int(rng.integers(2, min(4, n) + 1))
    t = np.diag(rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n))
    mu = t[0, 0] if k < n else (0.0 if mode == "lyap" else t[0, 0] / abs(t[0, 0]))
    t[:k, :k] = mu * np.eye(k) + np.diag(rng.uniform(0.5, 2.0, k - 1), 1)
    if k < n:
        t[k, k] = -mu if mode == "lyap" else 1.0 / mu
    yield "singular", _hidden(rng, t)
    while True:
        a = rng.standard_normal((n, n))
        w = np.linalg.eigvals(a)
        gaps = (np.abs(w[:, None] + w[None, :]) if mode == "lyap"
                else np.abs(w[:, None] * w[None, :] - 1.0))
        if gaps.min() > 0.05:
            yield "separated", a
            break
    yield "raw", rng.standard_normal((n, n))


@pytest.mark.parametrize("solver,mode,residual", [
    (solve_lyapunov, "lyap", lambda a, h: h @ a + a.T @ h),
    (solve_stein, "stein", lambda a, h: h - a.T @ h @ a),
])
def test_solvers_agree_with_the_svd_oracle(monkeypatch, solver, mode, residual):
    # the solvers judge singularity from their one LU solve; the SVD of
    # the Kronecker operator, run here only, is the reference
    svd = np.linalg.svd

    def no_svd(*args, **kwargs):
        raise AssertionError("a solver called np.linalg.svd")

    rng = np.random.default_rng(2024)
    seen = {"singular": 0, "solved": 0}
    for n in [*range(2, 11)] * 3 + [16, 16]:
        for kind, a in _oracle_inputs(rng, n, mode):
            b = rng.standard_normal((n, n))
            w = b + b.T
            op = _kron_operator(a, mode)
            sv = svd(op, compute_uv=False)
            rcond = sv[-1] / sv[0]
            assert kind != "singular" or rcond <= 1e-14
            monkeypatch.setattr(np.linalg, "svd", no_svd)
            if rcond <= 1e-14:
                with pytest.raises(SingularOperatorError):
                    solver(a, w)
                seen["singular"] += 1
            elif rcond >= 1e-10:
                h = solver(a, w)
                old = np.linalg.solve(op, w.flatten(order="F")).reshape((n, n), order="F")
                old = 0.5 * old + 0.5 * old.T
                # the floor of one unit roundoff of W covers the inputs
                # whose old residual rounds to exactly zero
                floor = np.finfo(float).eps * np.linalg.norm(w)
                assert (np.linalg.norm(residual(a, h) - w)
                        <= 4 * max(np.linalg.norm(residual(a, old) - w), floor))
                seen["solved"] += 1
            monkeypatch.setattr(np.linalg, "svd", svd)
    assert seen["singular"] >= 2 * 29 and seen["solved"] >= 2 * 29


def _restricted_operator(a, mode):
    """The solvers' operator on symmetric matrices in the coordinates of
    ``np.triu_indices``; Stein's is twice the halved one the solver
    builds."""
    n = len(a)
    k, l = np.triu_indices(n)
    if mode == "lyap":
        return _symmetric_operator(a.T, np.eye(n), k, l)
    return np.eye(len(k)) + 2.0 * _symmetric_operator(0.25 * a.T, -a.T, k, l)


def test_symmetric_operator_maps_x_to_n_x_mt_plus_m_x_nt():
    rng = np.random.default_rng(29)
    for n in range(1, 7):
        k, l = np.triu_indices(n)
        for _ in range(5):
            nm, mm, x = rng.standard_normal((3, n, n))
            x = x + x.T
            y = nm @ x @ mm.T + mm @ x @ nm.T
            z = _symmetric_operator(nm, mm, k, l) @ x[k, l]
            assert np.linalg.norm(z - y[k, l]) <= 1e-13 * np.linalg.norm(y[k, l])


@pytest.mark.parametrize("mode", ["lyap", "stein"])
def test_restricted_operator_is_the_kronecker_operator_on_symmetric_matrices(mode):
    rng = np.random.default_rng(28)
    for n in range(1, 7):
        k, l = np.triu_indices(n)
        for _ in range(5):
            a, x = rng.standard_normal((2, n, n))
            x = x + x.T
            full = (_kron_operator(a, mode) @ x.flatten(order="F")).reshape((n, n), order="F")
            sym = _restricted_operator(a, mode) @ x[k, l]
            assert np.linalg.norm(sym - full[k, l]) <= 1e-13 * np.linalg.norm(full[k, l])


@pytest.mark.filterwarnings("error")
def test_symmetric_operator_never_doubles_a_product():
    # a diagonal column holds N_ik M_jk + M_ik N_jk; four products halved
    # would pass through 4 c^2, beyond the float range
    c = np.sqrt(0.6e308)
    op = _symmetric_operator(np.array([[c]]), np.array([[c]]), *np.triu_indices(1))
    np.testing.assert_allclose(op, [[2 * c * c]], rtol=1e-15)


@pytest.mark.filterwarnings("error")
def test_solve_stein_overflows_no_sooner_than_the_kronecker_system():
    # I - kron(A^T, A^T) has entries and column sums below 1.6e308, while
    # the entry 2 a_00 a_10 of I - (X -> A^T X A) at row (0, 0) and
    # column (0, 1) is 2.2e308: the halved operator keeps it in range
    a = np.sqrt(1.1e308) * np.array([[1.0, 0.2], [1.0, -0.2]])
    assert np.isfinite(np.abs(_kron_operator(a, "stein")).sum(axis=0).max())
    h = solve_stein(a, np.eye(2))
    np.testing.assert_array_equal(h, h.T)
    assert np.linalg.norm(h - a.T @ h @ a - np.eye(2)) <= 1e-8 * np.sqrt(2)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_solvers_find_a_singularity_in_a_diagonal_coordinate_alone(n):
    # lambda_0 + lambda_0 = 0 (Lyapunov) or lambda_0^2 = 1 (Stein) is the
    # only singular pair: the null space is spanned by the x_00 direction
    # of the eigenbasis, hidden by the similarity
    rng = np.random.default_rng(30 + n)
    lam = rng.uniform(0.5, 2.0, n)
    lam[0] = 0.0
    with pytest.raises(SingularOperatorError):
        solve_lyapunov(_hidden(rng, np.diag(lam)), np.eye(n))
    for mu in (1.0, -1.0):
        lam = rng.uniform(0.2, 0.8, n) * rng.choice([-1.0, 1.0], n)
        lam[0] = mu
        with pytest.raises(SingularOperatorError):
            solve_stein(_hidden(rng, np.diag(lam)), np.eye(n))


def test_solvers_find_a_singular_pair_at_order_24():
    rng = np.random.default_rng(24)
    for solver, mode in ((solve_lyapunov, "lyap"), (solve_stein, "stein")):
        lam = rng.uniform(0.5, 2.0, 24) * rng.choice([-1.0, 1.0], 24)
        lam[1] = -lam[0] if mode == "lyap" else 1.0 / lam[0]
        with pytest.raises(SingularOperatorError):
            solver(_hidden(rng, np.diag(lam)), np.eye(24))


@pytest.mark.parametrize("n", [16, 24, 32])
@pytest.mark.parametrize("solver,mode,residual", [
    (solve_lyapunov, "lyap", lambda a, h: h @ a + a.T @ h),
    (solve_stein, "stein", lambda a, h: h - a.T @ h @ a),
])
def test_solver_residuals_at_large_orders(n, solver, mode, residual):
    rng = np.random.default_rng(n)
    for _ in range(2):
        while True:
            a = rng.standard_normal((n, n))
            ev = np.linalg.eigvals(a)
            gaps = np.abs(ev[:, None] + ev) if mode == "lyap" else np.abs(ev[:, None] * ev - 1.0)
            if gaps.min() > 0.05:
                break
        b = rng.standard_normal((n, n))
        w = b + b.T
        h = solver(a, w)
        np.testing.assert_array_equal(h, h.T)
        assert np.linalg.norm(residual(a, h) - w) <= 1e-8 * np.linalg.norm(w)


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


def _signed_stacks(seed):
    """Pairs of seeded (m, k, k) stacks with entries of magnitude
    1e-3..1e3, a third of them +0.0 or -0.0."""
    r = np.random.default_rng(seed)
    for m, k in ((1, 1), (3, 2), (5, 4), (2, 7)):
        pair = []
        for _ in range(2):
            x = r.choice([-1.0, 1.0], (m, k, k)) * 10.0 ** r.uniform(-3, 3, (m, k, k))
            zero = r.random((m, k, k)) < 1 / 3
            x[zero] = r.choice([0.0, -0.0], int(zero.sum()))
            pair.append(x)
        yield pair


def test_polynomial_forms_are_the_lyapunov_and_stein_forms_bit_for_bit():
    for seed in range(20):
        for h, a in _signed_stacks(seed):
            for p in (h, h + h.swapaxes(1, 2)):
                for c, ref in ((case_i_coefficients(), p @ a + a.swapaxes(1, 2) @ p),
                               (case_iii_coefficients(), p - a.swapaxes(1, 2) @ p @ a)):
                    w = polynomial_forms(c, p, a)
                    assert np.array_equal(w, ref)
                    assert np.array_equal(np.signbit(w), np.signbit(ref))


def test_hill_form_is_the_polynomial_form_on_a_stack_of_one():
    # higher powers, a negative and a fractional coefficient, a skipped zero
    c = np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 0.0], [-0.5, 0.0, 2.0]])
    r = np.random.default_rng(13)
    a = r.standard_normal((3, 3))
    h = r.standard_normal((3, 3))
    h = h + h.T
    w = hill_form(c, h, a)
    assert np.array_equal(w, polynomial_forms(c, h[None], a[None])[0])
    a2 = a @ a
    ref = (h @ a + a.T @ h - 0.5 * (h @ a2) - 0.5 * (a2.T @ h) + 2.0 * (a2.T @ h @ a2))
    np.testing.assert_allclose(w, ref, rtol=1e-12, atol=1e-12)
    with pytest.raises(OverflowError):
        hill_form(c, h, 1e200 * a)


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
