"""One-matrix references for the stacked certificate checks.

The definiteness test, the class membership test and the Lyapunov and
Stein forms as they are computed on one 2-D matrix: ``np.linalg.norm``
for the symmetry test, a 2-D shifted Cholesky, per-kind membership
rules with Python loops and early returns, ``a.T @ p`` for the forms.
The stacked code in ``dgstab.linalg``, ``dgstab.classes`` and
``dgstab.certify`` must decide every matrix of a stack as these do
alone, bit for bit, so they share none of its code.
"""

import math

import numpy as np

from dgstab.classes import RANK_TOL, ClassKind
from dgstab.errors import DimensionMismatchError, NonSymmetricError
from dgstab.linalg import as_square_matrix


def is_positive_definite(s, tol: float = 1e-9) -> bool:
    """Positive definiteness of one matrix: ``NonSymmetricError`` when
    ``s / 2^e`` is not symmetric up to ``tol * max(||s||_F, 1)``, else
    whether its symmetrized copy, shifted by ``tol * max|diag|``, has a
    Cholesky factorization."""
    s = as_square_matrix(s, "s")
    e = max(math.frexp(float(np.max(np.abs(s))))[1], 0)
    e += e % 2
    u = s * 2.0 ** -e
    dev = np.linalg.norm(u - u.T)
    scale = max(np.linalg.norm(u), 2.0 ** -e)
    if dev > tol * scale:
        raise NonSymmetricError("s is not symmetric")
    sym = 0.5 * (u + u.T)
    thr = tol * float(np.max(np.abs(np.diag(sym))))
    try:
        np.linalg.cholesky(sym - thr * np.eye(sym.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def lyapunov_form(p, a):
    return p @ a + a.T @ p


def stein_form(p, a):
    return p - a.T @ p @ a


def _offdiag_small(m, thr: float) -> bool:
    off = m - np.diag(np.diag(m))
    return float(np.max(np.abs(off), initial=0.0)) <= thr


def contains(c, m, tol: float = 1e-9) -> bool:
    """Membership of one matrix in the class ``c``, kind by kind."""
    m = as_square_matrix(m, "m")
    if m.shape[0] != c.order:
        raise DimensionMismatchError("matrix order does not match class order")
    scale = max(1.0, float(np.max(np.abs(m))))
    thr = tol * scale
    d = np.diag(m)
    k = c.kind
    if k is ClassKind.SYMMETRIC:
        return float(np.max(np.abs(m - m.T))) <= thr
    if k in (ClassKind.SPD, ClassKind.ALPHA_BLOCK_SPD):
        mask = np.zeros_like(m, dtype=bool)
        for block in c.partition.blocks if c.partition else (range(c.order),):
            sel = np.asarray(block)
            mask[np.ix_(sel, sel)] = True
        half = 0.5 * m
        if float(np.max(np.abs(m[~mask]), initial=0.0)) > thr:
            return False
        if float(np.max(np.abs(half - half.T))) > 0.5 * thr:
            return False
        return is_positive_definite(half + half.T, tol)
    if k is ClassKind.DIAG:
        return _offdiag_small(m, thr)
    if k is ClassKind.POS_DIAG:
        return _offdiag_small(m, thr) and bool(np.all(d > 0.0))
    if k is ClassKind.SIGN_DIAG:
        if not _offdiag_small(m, thr):
            return False
        for di, si in zip(d, c.signs):
            if si > 0 and not di > 0.0:
                return False
            if si < 0 and not di < 0.0:
                return False
            if si == 0 and not abs(di) <= thr:
                return False
        return True
    if k in (ClassKind.ALPHA_SCALAR, ClassKind.POS_ALPHA_SCALAR):
        if not _offdiag_small(m, thr):
            return False
        for block in c.partition.blocks:
            vals = d[np.asarray(block)]
            spread = float(np.max(vals) - np.min(vals))
            if spread > tol * max(1.0, float(np.max(np.abs(vals)))):
                return False
        return k is ClassKind.ALPHA_SCALAR or bool(np.all(d > 0.0))
    if k is ClassKind.THETA_ORDERED:
        if not (_offdiag_small(m, thr) and np.all(d > 0.0)):
            return False
        ordered = d[np.asarray(c.theta)]
        slack = tol * np.maximum(1.0, np.abs(ordered[:-1]))
        return bool(np.all(ordered[:-1] >= ordered[1:] - slack))
    if k is ClassKind.BOX_DIAG:
        if not _offdiag_small(m, thr):
            return False
        return bool(np.all(d > np.asarray(c.lo)) and np.all(d < np.asarray(c.hi)))
    if k is ClassKind.VERTEX_DIAG:
        return _offdiag_small(m, thr) and bool(np.all(np.abs(np.abs(d) - 1.0) <= thr))
    if k in (ClassKind.RANK_K_POSITIVE, ClassKind.SUM_RANK_ONE_POSITIVE):
        if not np.all(m > 0.0):
            return False
        sv = np.linalg.svd(m, compute_uv=False)
        return bool(np.all(sv[c.rank:] <= RANK_TOL * sv[0])) if sv[0] > 0 else True
    if k is ClassKind.PARAMETRIC_RANK_ONE:
        outer = np.outer(c.x, c.y)
        denom = float(np.sum(outer * outer))
        if denom == 0.0:
            return float(np.max(np.abs(m))) <= thr
        t_hat = float(np.sum(m * outer)) / denom
        if float(np.max(np.abs(m - t_hat * outer))) > thr:
            return False
        return c.tau[0] - tol <= t_hat <= c.tau[1] + tol
    if k is ClassKind.EXPLICIT_LIST:
        return any(float(np.max(np.abs(m - np.array(ref, dtype=float)))) <= thr
                   for ref in c.members)
    raise AssertionError(k)
