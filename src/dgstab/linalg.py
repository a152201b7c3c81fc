"""Dense real matrix primitives.

Spectra, definiteness tests, the two matrix-equation solvers
(continuous Lyapunov and discrete Stein) and the evaluator of the
generalized polynomial form that the rest of the package builds on.

Everything here is a pure function of immutable inputs: arrays are
validated, never mutated, and no module state exists, so all operations
are safe to call concurrently.

The equation solvers vectorize to a dense ``n^2 x n^2`` linear system,
which keeps them simple and exact at the package's declared scope
(``n <= 32``); they are not meant for large-scale use.  One LU
factorization of that system both solves it and judges it singular: a
probed 1-norm estimate of its reciprocal condition number, taken from
the same solve, must reach ``RCOND_SINGULAR``.
"""

from __future__ import annotations

import numpy as np

from .errors import NonSymmetricError, SingularOperatorError

__all__ = [
    "as_square_matrix",
    "eigenvalues",
    "spectral_radius",
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


def _solve_vectorized(op: np.ndarray, w: np.ndarray, n: int, e: int = 0) -> np.ndarray:
    """Solve ``op @ vec(H) = vec(W)`` and return symmetrized ``H / 2^e``.

    ``op`` acts on column-stacked matrices.  Raises
    ``SingularOperatorError`` when the reciprocal condition estimate of
    ``op`` falls below ``RCOND_SINGULAR``, and ``OverflowError`` when
    the 1-norm of ``op`` or an entry of ``H / 2^e`` overflows.

    One LU factorization solves for ``vec(W)`` and for two Gaussian
    probe columns drawn from a fixed seed.  Each column ``b`` with
    solution ``x`` bounds ``||op^-1||_1 >= ||x||_1 / ||b||_1`` from
    below (the probing estimators of Dixon, 1983, and Higham and
    Tisseur, 2000), so ``1 / (||op||_1 * max ||x||_1 / ||b||_1)``
    estimates rcond from above.  An exactly singular pivot or a
    non-finite solution reads as rcond 0.  Each column is scaled by a
    power of two to entries below 1 in magnitude, so that no 1-norm
    of it overflows and ``H`` is recovered exactly.
    """
    # an overflow below yields inf, which a finiteness test then catches
    with np.errstate(over="ignore"):
        op_norm = np.abs(op).sum(axis=0).max()
        if not np.isfinite(op_norm):
            raise OverflowError("equation operator overflowed; rescale the inputs")
        b = np.empty((n * n, 3))
        b[:, 0] = w.flatten(order="F")
        b[:, 1:] = np.random.default_rng(0).standard_normal((n * n, 2))
        s = np.frexp(np.abs(b).max(axis=0))[1]
        b = np.ldexp(b, -s)
        try:
            x = np.linalg.solve(op, b)
        except np.linalg.LinAlgError:
            x = None
        rcond = 0.0
        if x is not None and np.isfinite(x).all():
            b_norm = np.abs(b).sum(axis=0)
            live = b_norm > 0.0  # vec(W) may be zero; a probe never is
            ratio = np.max(np.abs(x).sum(axis=0)[live] / b_norm[live])
            rcond = 1.0 / (op_norm * ratio)
        if rcond < RCOND_SINGULAR:
            raise SingularOperatorError(
                f"equation operator is numerically singular (rcond ~ {rcond:.2e})"
            )
        h = np.ldexp(x[:, 0], s[0] - e).reshape((n, n), order="F")
    if not np.isfinite(h).all():
        raise OverflowError("solution overflowed; rescale the inputs")
    return 0.5 * h + 0.5 * h.T


def solve_lyapunov(a, w) -> np.ndarray:
    """Solve ``H A + A^T H = W`` for symmetric ``H``.

    ``W`` must be symmetric.  Solvable when no two eigenvalues of ``A``
    sum to zero; otherwise ``SingularOperatorError`` is raised.  An
    ``H`` beyond the float range raises ``OverflowError``.
    """
    a = as_square_matrix(a, "a")
    w = _require_symmetric(w, "w")
    if w.shape != a.shape:
        raise ValueError("a and w must have equal orders")
    n = a.shape[0]
    # the equation is homogeneous in A: solve it for A / 2^e, whose
    # entries lie below 1 in magnitude, and divide that H by 2^e
    e = int(np.frexp(np.abs(a).max())[1])
    at = np.ldexp(a.T, -e)
    # op = kron(A^T, I) + kron(I, A^T), written block by block
    op = np.zeros((n * n, n * n))
    blocks = op.reshape(n, n, n, n)
    idx = np.arange(n)
    blocks[idx, :, idx, :] = at
    blocks[:, idx, :, idx] += at
    return _solve_vectorized(op, w, n, e)


def solve_stein(a, w) -> np.ndarray:
    """Solve ``H - A^T H A = W`` for symmetric ``H``.

    ``W`` must be symmetric.  Solvable when no product of two
    eigenvalues of ``A`` equals one; otherwise ``SingularOperatorError``
    is raised.  The equation is not homogeneous in ``A``, so an ``A``
    whose operator overflows raises ``OverflowError``, as does an ``H``
    beyond the float range.
    """
    a = as_square_matrix(a, "a")
    w = _require_symmetric(w, "w")
    if w.shape != a.shape:
        raise ValueError("a and w must have equal orders")
    n = a.shape[0]
    # op = I - kron(A^T, A^T), with no n^4 temporary
    op = np.empty((n * n, n * n))
    with np.errstate(over="ignore"):
        np.multiply(a.T[:, None, :, None], -a.T[None, :, None, :],
                    out=op.reshape(n, n, n, n))
    op.reshape(-1)[:: n * n + 1] += 1.0
    return _solve_vectorized(op, w, n)


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
