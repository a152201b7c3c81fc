"""Dense real matrix primitives.

Spectra, definiteness tests, the two matrix-equation solvers
(continuous Lyapunov and discrete Stein) and the evaluator of the
generalized polynomial form that the rest of the package builds on.

Everything here is a pure function of immutable inputs: arrays are
validated, never mutated, and no module state exists, so all operations
are safe to call concurrently.

The equation solvers write the operator on symmetric matrices as a dense
system in the ``n(n+1)/2`` unknowns ``h_kl``, ``k <= l``: simple and exact
at the declared scope (``n <= 32``).  One LU factorization both solves it
and judges it singular: a probed 1-norm rcond estimate of that restricted
operator, taken from the same solve, must reach ``RCOND_SINGULAR``.
"""

from __future__ import annotations

import numpy as np

from .errors import NonSymmetricError, SingularOperatorError

__all__ = [
    "as_square_matrix",
    "eigenvalues",
    "spectral_radius",
    "spectral_radius_bounds",
    "is_positive_definite",
    "are_positive_definite",
    "symmetric_part",
    "solve_lyapunov",
    "solve_stein",
    "hill_coefficients",
    "case_i_coefficients",
    "case_iii_coefficients",
    "polynomial_forms",
    "hill_form",
    "principal_submatrix",
]

#: Reciprocal-condition threshold below which a solver operator is
#: reported as singular.
RCOND_SINGULAR = 1e-12

#: Default tolerance for positive-definiteness pivots.
PD_TOL = 1e-9

#: ``spectral_radius_bounds`` takes ``||X^k||_F^(1/k)`` at ``k = 2^3``.
GELFAND_SQUARINGS = 3

# twice the unit roundoff, and the smallest subnormal
_U = 2.0 ** -52
_ETA = 2.0 ** -1074


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a dense real n-by-n float array.

    Raises ``ValueError`` for non-square shapes, empty matrices, or
    non-finite entries.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must have positive order")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def eigenvalues(a) -> np.ndarray:
    """All ``n`` eigenvalues of a real square matrix, with multiplicity.

    Returns a complex array sorted by (real, imaginary) part so results
    are deterministic.  The underlying LAPACK routine (Hessenberg
    reduction plus shifted QR) raises ``numpy.linalg.LinAlgError`` on
    non-convergence; that failure is propagated, never masked.
    """
    a = as_square_matrix(a)
    return np.sort_complex(np.linalg.eigvals(a))


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of ``a``."""
    return float(np.max(np.abs(eigenvalues(a))))


def _frobenius_above(y: np.ndarray) -> np.ndarray:
    """An upper bound on the Frobenius norm of each matrix of the finite
    stack ``y``, of order n: the computed ``s = sum y_ij^2`` has
    ``||y||_F^2 <= (s + n^2 eta) / (1 - gamma_(n^2))`` with the squares'
    underflow counted in ``eta``, and the factor ``1 + (n^2 + 8) 2u``
    covers that and the three roundings taken here."""
    m = y.shape[-1] ** 2
    return np.sqrt((y * y).sum(axis=(1, 2)) + m * _ETA) * (1.0 + (m + 8) * _U)


def spectral_radius_bounds(m: np.ndarray) -> np.ndarray:
    """A rigorous upper bound on the spectral radius of each matrix of
    the finite ``(count, n, n)`` stack ``m``, from Gelfand's
    ``rho(M) <= ||M^k||_F^(1/k)`` at ``k = 2^GELFAND_SQUARINGS``, taken
    as ``2^e (||fl(X^k)||_F + d)^(1/k)``.  ``X = M / 2^e`` has entries
    below 1 in magnitude, so no power of it overflows; ``fl(X^k)`` is
    the computed result of repeated squaring and ``d`` bounds its
    Frobenius distance from ``X^k``.

    Rounding is counted as in Higham, *Accuracy and Stability of
    Numerical Algorithms* (2002), section 3.5, with ``u = 2^-53`` and
    ``eta = 2^-1074`` for gradual underflow: a computed product has
    ``|fl(Y Y) - Y Y| <= gamma_n |Y| |Y| + n eta`` entrywise, so a
    squaring raises the bound ``d`` on the error of ``Y`` to
    ``(2 ||Y||_F + d) d + gamma_n ||Y||_F^2 + n^2 eta``, each norm
    bounded from above (``_frobenius_above``); scaling by ``2^-e`` errs
    only where an entry underflows, by ``n eta`` in all.  Every
    ``gamma`` is taken with ``2u``, and every step is widened by a few
    units of ``2u``, which covers the rounding of the bookkeeping
    itself.  The bound is +inf where the bound on ``||M||_F`` is not
    finite, or where ``2^e`` times the root overflows, and is rounded
    up to the next float, so an underflow never lowers it below rho."""
    n = m.shape[-1]
    e = np.frexp(np.abs(m).max(axis=(1, 2)))[1]
    y = np.ldexp(m, -e[:, None, None])
    norm = _frobenius_above(y)
    with np.errstate(over="ignore"):  # an overflow reads +inf, a bound
        finite_norm = np.isfinite(np.ldexp(norm, e))
    d = n * _ETA
    for _ in range(GELFAND_SQUARINGS):
        d = ((2.0 * norm + d) * d + n * _U * norm * norm + n * n * _ETA) * (1.0 + 8 * _U)
        y = y @ y
        norm = _frobenius_above(y)
    r = norm + d
    for _ in range(GELFAND_SQUARINGS):
        r = np.sqrt(r)
    with np.errstate(over="ignore"):
        r = np.nextafter(np.ldexp(r * (1.0 + 8 * _U), e), np.inf)
    return np.where(finite_norm, r, np.inf)


def symmetric_part(a) -> np.ndarray:
    """Return ``A + A^T``.

    Note the convention: no 1/2 factor.  Definiteness of this sum is
    what the certificate machinery tests, and it has the same sign
    behaviour as the averaged version.
    """
    a = as_square_matrix(a)
    return a + a.T


def _frobenius(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of the stack ``x``, bit for bit
    as ``np.linalg.norm`` takes it of one matrix (a dot product of the
    flattened entries)."""
    v = x.reshape(len(x), -1)
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _scaled(s: np.ndarray, tol: float):
    """For a finite ``(m, k, k)`` stack ``s``: each matrix divided by
    ``2^e``, with ``e >= 0`` even chosen so that its entries stay below 1
    in magnitude when any entry reaches 1, and the mask of the matrices
    with ``||s - s^T||_F <= tol * max(||s||_F, 1)``, with their relative
    deviations.  No norm of a scaled matrix can overflow, and the test
    decides as it would on ``s``, since scaling by a power of two is
    exact."""
    e = np.maximum(np.frexp(np.abs(s).max(axis=(1, 2)))[1], 0)
    e += e % 2
    f = np.ldexp(1.0, -e)
    u = s * f[:, None, None]
    dev = _frobenius(u - u.swapaxes(1, 2))
    scale = np.maximum(_frobenius(u), f)
    return u, dev <= tol * scale, dev / scale


def _scaled_symmetric(s: np.ndarray, tol: float, name: str) -> np.ndarray:
    """``_scaled`` of the one finite matrix ``s``; ``NonSymmetricError``
    when it is not symmetric."""
    u, ok, rel = _scaled(s[None], tol)
    if not ok[0]:
        raise NonSymmetricError(
            f"{name} is not symmetric: deviation {rel[0]:.3e} "
            f"relative to max(||{name}||_F, 1) exceeds tolerance"
        )
    return u[0]


def _cholesky_passes(u: np.ndarray, tol: float) -> np.ndarray:
    """Per matrix of the stack ``u``: whether its symmetrized copy,
    shifted by ``tol * max|diag|``, has a Cholesky factorization.  One
    factorization runs on the whole stack; only when it fails are the
    matrices factored one by one."""
    sym = 0.5 * (u + u.swapaxes(1, 2))
    thr = tol * np.abs(np.diagonal(sym, axis1=1, axis2=2)).max(axis=1)
    shifted = sym - thr[:, None, None] * np.eye(sym.shape[-1])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        if len(shifted) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_cholesky_passes(x[None], tol) for x in u])
    return np.ones(len(shifted), dtype=bool)


def is_positive_definite(s, tol: float = PD_TOL) -> bool:
    """Whether the symmetric matrix ``s`` is positive definite.

    ``s`` must be symmetric up to ``tol * max(||s||_F, 1)``; otherwise
    ``NonSymmetricError`` is raised.  The test itself is an attempted
    Cholesky factorization of the symmetrized matrix shifted by the
    pivot threshold ``tol * max|diag|``, i.e. it requires
    ``lambda_min > tol * max|diag|`` rather than bare positivity.
    """
    # the Cholesky test runs on the scaled copy too: it decides as it
    # would on s, since the Cholesky factor of s / 2^e is that of s
    # scaled by 2^(e/2)
    u = _scaled_symmetric(as_square_matrix(s, "s"), tol, "s")
    return bool(_cholesky_passes(u[None], tol)[0])


def are_positive_definite(s: np.ndarray, tol: float = PD_TOL) -> np.ndarray:
    """``is_positive_definite`` of each matrix of the ``(m, k, k)`` stack
    ``s`` at ``tol``, as a boolean mask: a matrix that is non-finite or
    not symmetric up to ``tol * max(||s||_F, 1)`` is False, alone."""
    ok = np.isfinite(s).all(axis=(1, 2))
    if ok.any():
        rows = np.flatnonzero(ok)
        u, sym, _ = _scaled(s[rows], tol)
        ok[rows] = sym
        if sym.any():
            ok[rows[sym]] = _cholesky_passes(u[sym], tol)
    return ok


def _require_symmetric(w, name: str) -> np.ndarray:
    w = as_square_matrix(w, name)
    _scaled_symmetric(w, 1e-9, name)
    return 0.5 * w + 0.5 * w.T


def _symmetric_operator(n_, m_, k, l) -> np.ndarray:
    """The matrix of ``X -> N X M^T + M X N^T`` on symmetric ``X``, in the
    coordinates ``x_kl`` of ``k, l = np.triu_indices(n)``: its entry at
    row ``(i, j)`` and column ``(k, l)`` is ``N_ik M_jl + N_il M_jk +
    M_ik N_jl + M_il N_jk``, halved where ``k = l`` by leaving out the
    second and fourth products, which there repeat the first and third;
    so no product is doubled.  An overflow yields inf or nan."""
    n = len(n_)
    # z[s] is column s of [N | M | 0]; f[:, c] indexes the factors N_.k, N_.l,
    # M_.k (0 where k = l), M_.l of column c = (k, l), f[::-1, c] their
    # partners; p[c] is the image of e_k e_l^T + e_l e_k^T (of e_k e_k^T)
    z = np.concatenate((n_.T, m_.T, np.zeros((1, n))))
    f = np.array([k, l, np.where(k < l, n + k, 2 * n), n + l])
    p = np.matmul(z[f.T].transpose(0, 2, 1), z[f[::-1].T])
    return p.reshape(len(k), n * n)[:, k * n + l].T


def _solve_symmetric(w, n_, m_, shift: float = 0.0, e: int = 0) -> np.ndarray:
    """Solve ``shift * H + N H M^T + M H N^T = W`` in the ``n(n+1)/2``
    unknowns ``h_kl``, ``k <= l``, of a symmetric ``H``; return ``H / 2^e``
    with both triangles written from the ``h_kl``.  Raises
    ``SingularOperatorError`` when the rcond estimate of the operator on
    symmetric matrices, ``op``, is below ``RCOND_SINGULAR``: one LU solves
    for the ``w_kl`` and two fixed-seed Gaussian probes, and each column
    ``b`` with solution ``x`` bounds ``||op^-1||_1 >= ||x||_1 / ||b||_1``
    (Dixon, 1983; Higham and Tisseur, 2000); a singular pivot or a
    non-finite ``x`` reads as rcond 0.  Raises ``OverflowError`` when
    ``||op||_1`` or ``H / 2^e`` overflows; each column is scaled by a
    power of two below 1, so no 1-norm of it overflows and ``H`` is exact."""
    if w.shape != n_.shape:
        raise ValueError("a and w must have equal orders")
    r = np.arange(len(w))
    k, l = np.nonzero(r[:, None] <= r)  # np.triu_indices(n), built faster
    # an overflow below yields inf or nan, which a finiteness test catches
    with np.errstate(over="ignore", invalid="ignore"):
        op = _symmetric_operator(n_, m_, k, l)
        op.flat[:: len(k) + 1] += shift
        op_norm = np.abs(op).sum(axis=0).max()
        if not np.isfinite(op_norm):
            raise OverflowError("equation operator overflowed; rescale the inputs")
        b = np.empty((len(k), 3))
        b[:, 0] = w[k, l]
        b[:, 1:] = np.random.default_rng(0).standard_normal((len(k), 2))
        s = np.frexp(np.abs(b).max(axis=0))[1]
        b = np.ldexp(b, -s)
        try:
            x = np.linalg.solve(op, b)
        except np.linalg.LinAlgError:
            x = None
        rcond = 0.0
        if x is not None and np.isfinite(x).all():
            b_norm = np.abs(b).sum(axis=0)
            live = b_norm > 0.0  # W may be zero; a probe never is
            ratio = np.max(np.abs(x).sum(axis=0)[live] / b_norm[live])
            rcond = 1.0 / (op_norm * ratio)
        if rcond < RCOND_SINGULAR:
            raise SingularOperatorError("equation operator is numerically "
                                        f"singular (rcond ~ {rcond:.2e})")
        h = np.empty_like(w)
        h[k, l] = h[l, k] = np.ldexp(x[:, 0], s[0] - e)
    if not np.isfinite(h).all():
        raise OverflowError("solution overflowed; rescale the inputs")
    return h


def solve_lyapunov(a, w) -> np.ndarray:
    """Solve ``H A + A^T H = W`` for symmetric ``H``.

    ``W`` must be symmetric.  Solvable when no two eigenvalues of ``A``
    sum to zero; otherwise ``SingularOperatorError`` is raised.  An
    ``H`` beyond the float range raises ``OverflowError``.  It is solved
    in the ``n(n+1)/2`` unknowns ``h_kl``, ``k <= l``, and rcond is
    estimated on the operator restricted to symmetric matrices.
    """
    a, w = as_square_matrix(a, "a"), _require_symmetric(w, "w")
    # homogeneous in A: solve for A / 2^e, entries below 1, and divide by 2^e
    e = int(np.frexp(np.abs(a).max())[1])
    return _solve_symmetric(w, np.ldexp(a.T, -e), np.eye(len(a)), e=e)


def solve_stein(a, w) -> np.ndarray:
    """Solve ``H - A^T H A = W`` for symmetric ``H``.

    ``W`` must be symmetric.  Solvable when no product of two
    eigenvalues of ``A`` equals one; otherwise ``SingularOperatorError``
    is raised.  The equation is not homogeneous in ``A``, so an ``A``
    whose operator overflows raises ``OverflowError``, as does an ``H``
    beyond the float range.  It is solved in the ``n(n+1)/2`` unknowns
    ``h_kl``, ``k <= l``, and rcond is estimated on the operator
    restricted to symmetric matrices.
    """
    a, w = as_square_matrix(a, "a"), _require_symmetric(w, "w")
    # the halved operator X/2 - (A^T/4) X A - A^T X (A/4) has the solution 2 H;
    # no entry or 1-norm of it exceeds that of the n^2 x n^2 operator
    return _solve_symmetric(w, 0.25 * a.T, -a.T, shift=0.5, e=1)


def hill_coefficients(c) -> np.ndarray:
    """Validate a coefficient matrix for the generalized polynomial form.

    The array must be square, real, finite and exactly symmetric
    (``c[i, j] == c[j, i]``); symmetry is what makes the associated
    scalar form real-valued.
    """
    c = as_square_matrix(c, "c")
    if not np.array_equal(c, c.T):
        raise NonSymmetricError("coefficient matrix must be exactly symmetric")
    return c


def case_i_coefficients() -> np.ndarray:
    """Coefficients of the Lyapunov form ``H A + A^T H`` (right half-plane)."""
    return np.array([[0.0, 1.0], [1.0, 0.0]])


def case_iii_coefficients() -> np.ndarray:
    """Coefficients of the Stein form ``H - A^T H A`` (unit disk)."""
    return np.array([[1.0, 0.0], [0.0, -1.0]])


def polynomial_forms(c: np.ndarray, h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``sum_ij c[i,j] (A^T)^i H A^j`` for the stacks ``h`` and ``a``,
    unvalidated: no value makes it raise, and an overflow stays in it.
    Terms add in ``(i, j)`` order from the first nonzero one, with no
    product by the identity or by 1 (``[[1]]`` returns ``h`` itself), so
    cases I and III give ``H @ A + A^T @ H`` and ``H - A^T @ H @ A`` bit for bit."""
    powers = [None, a]  # A^j for j >= 1
    for _ in range(2, len(c)):
        powers.append(powers[-1] @ a)
    w = None
    for i, row in enumerate(c.tolist()):
        for j, coef in enumerate(row):
            if coef:
                term = h if i == 0 else powers[i].swapaxes(-1, -2) @ h
                term = term @ powers[j] if j else term
                term = term if coef == 1.0 else coef * term
                w = term if w is None else w + term
    return np.zeros_like(h) if w is None else w


def hill_form(c, h, a) -> np.ndarray:
    """``polynomial_forms`` of one symmetric ``h``, at exactly symmetric
    coefficients ``c`` of any order; ``OverflowError`` when it overflows."""
    c = hill_coefficients(c)
    h = _require_symmetric(h, "h")
    a = as_square_matrix(a, "a")
    if h.shape != a.shape:
        raise ValueError("h and a must have equal orders")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        w = polynomial_forms(c, h[None], a[None])[0]
    if not np.isfinite(w).all():
        raise OverflowError("generalized form overflowed; rescale the inputs")
    return w


def principal_submatrix(a, index_set) -> np.ndarray:
    """Restriction of ``a`` to the rows and columns in ``index_set``.

    Indices are 0-based, must be sorted, unique, nonempty and within
    bounds.
    """
    a = as_square_matrix(a)
    idx = list(index_set)
    if not idx:
        raise IndexError("index set must be nonempty")
    if idx != sorted(set(idx)):
        raise IndexError("index set must be sorted and duplicate-free")
    if idx[0] < 0 or idx[-1] >= a.shape[0]:
        raise IndexError(f"index set {idx} out of range for order {a.shape[0]}")
    sel = np.asarray(idx)
    return a[np.ix_(sel, sel)]
