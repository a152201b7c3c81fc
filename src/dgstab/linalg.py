"""Dense real matrix primitives.

Spectra, definiteness tests, and the three matrix-equation solvers
(continuous Lyapunov, discrete Stein, and the generalized polynomial
form) that the rest of the package builds on.

Everything here is a pure function of immutable inputs: arrays are
validated, never mutated, and no module state exists, so all operations
are safe to call concurrently.

The equation solvers vectorize to a dense ``n^2 x n^2`` linear system,
which keeps them simple and exact at the package's declared scope
(``n <= 32``); they are not meant for large-scale use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonSymmetricError, SingularOperatorError

__all__ = [
    "as_square_matrix",
    "eigenvalues",
    "spectral_radius",
    "is_positive_definite",
    "symmetric_part",
    "solve_lyapunov",
    "solve_stein",
    "hill_coefficients",
    "case_i_coefficients",
    "case_iii_coefficients",
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
    if not np.all(np.isfinite(arr)):
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


def _scaled_symmetric(s: np.ndarray, tol: float, name: str) -> np.ndarray:
    """``s / 2^e``, with ``e >= 0`` even chosen so that its entries stay
    below 1 in magnitude when any entry of ``s`` reaches 1, after
    checking on it that ``||s - s^T||_F <= tol * max(||s||_F, 1)``
    (``NonSymmetricError`` otherwise).  No norm of the scaled copy can
    overflow, and the check decides as it would on ``s``, since scaling
    by a power of two is exact."""
    e = max(math.frexp(float(np.max(np.abs(s))))[1], 0)
    e += e % 2
    u = s * 2.0 ** -e
    dev = np.linalg.norm(u - u.T)
    scale = max(np.linalg.norm(u), 2.0 ** -e)
    if dev > tol * scale:
        raise NonSymmetricError(
            f"{name} is not symmetric: deviation {dev / scale:.3e} "
            f"relative to max(||{name}||_F, 1) exceeds tolerance"
        )
    return u


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
    sym = 0.5 * (u + u.T)
    thr = tol * float(np.max(np.abs(np.diag(sym))))
    try:
        np.linalg.cholesky(sym - thr * np.eye(sym.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def _require_symmetric(w, name: str) -> np.ndarray:
    w = as_square_matrix(w, name)
    _scaled_symmetric(w, 1e-9, name)
    return 0.5 * w + 0.5 * w.T


def _solve_vectorized(op: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Solve ``op @ vec(H) = vec(W)`` and return symmetrized ``H``.

    ``op`` acts on column-stacked matrices.  Raises
    ``SingularOperatorError`` when the reciprocal condition estimate of
    ``op`` falls below ``RCOND_SINGULAR``.
    """
    sv = np.linalg.svd(op, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < RCOND_SINGULAR:
        raise SingularOperatorError(
            "equation operator is numerically singular "
            f"(rcond ~ {0.0 if sv[0] == 0.0 else sv[-1] / sv[0]:.2e})"
        )
    h = np.linalg.solve(op, w.flatten(order="F")).reshape((n, n), order="F")
    return 0.5 * h + 0.5 * h.T


def solve_lyapunov(a, w) -> np.ndarray:
    """Solve ``H A + A^T H = W`` for symmetric ``H``.

    ``W`` must be symmetric.  Solvable when no two eigenvalues of ``A``
    sum to zero; otherwise ``SingularOperatorError`` is raised.
    """
    a = as_square_matrix(a, "a")
    w = _require_symmetric(w, "w")
    if w.shape != a.shape:
        raise ValueError("a and w must have equal orders")
    n = a.shape[0]
    eye = np.eye(n)
    op = np.kron(a.T, eye) + np.kron(eye, a.T)
    return _solve_vectorized(op, w, n)


def solve_stein(a, w) -> np.ndarray:
    """Solve ``H - A^T H A = W`` for symmetric ``H``.

    ``W`` must be symmetric.  Solvable when no product of two
    eigenvalues of ``A`` equals one; otherwise ``SingularOperatorError``
    is raised.
    """
    a = as_square_matrix(a, "a")
    w = _require_symmetric(w, "w")
    if w.shape != a.shape:
        raise ValueError("a and w must have equal orders")
    n = a.shape[0]
    op = np.eye(n * n) - np.kron(a.T, a.T)
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


def case_i_coefficients(m: int = 2) -> np.ndarray:
    """Coefficients reproducing the continuous Lyapunov form
    ``H A + A^T H`` (right-half-plane region)."""
    if m < 2:
        raise ValueError("need order >= 2")
    c = np.zeros((m, m))
    c[0, 1] = c[1, 0] = 1.0
    return c


def case_iii_coefficients(m: int = 2) -> np.ndarray:
    """Coefficients reproducing the Stein form ``H - A^T H A``
    (unit-disk region)."""
    if m < 2:
        raise ValueError("need order >= 2")
    c = np.zeros((m, m))
    c[0, 0] = 1.0
    c[1, 1] = -1.0
    return c


def hill_form(c, h, a) -> np.ndarray:
    """Evaluate ``W = sum_ij c[i,j] (A^T)^i H A^j``.

    ``h`` must be symmetric.  ``c`` may have any order ``m >= 1``;
    indices beyond ``m - 1`` are treated as zero coefficients.  Zero
    coefficients are skipped, so the two classical special cases
    reproduce ``H A + A^T H`` and ``H - A^T H A`` bit for bit.
    """
    c = hill_coefficients(c)
    h = _require_symmetric(h, "h")
    a = as_square_matrix(a, "a")
    if h.shape != a.shape:
        raise ValueError("h and a must have equal orders")
    n = a.shape[0]
    m = c.shape[0]
    powers = [np.eye(n)]
    for _ in range(1, m):
        powers.append(powers[-1] @ a)
    powers_t = [p.T for p in powers]
    w = np.zeros((n, n))
    for i in range(m):
        for j in range(m):
            if c[i, j] != 0.0:
                w = w + c[i, j] * (powers_t[i] @ h @ powers[j])
    if not np.all(np.isfinite(w)):
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
