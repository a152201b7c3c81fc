"""One-matrix references for the stacked certificate checks.

The definiteness test and the Lyapunov and Stein forms as they are
computed on one 2-D matrix: ``np.linalg.norm`` for the symmetry test, a
2-D shifted Cholesky, ``a.T @ p`` for the forms.  The stacked code in
``dgstab.linalg`` and ``dgstab.certify`` must decide every matrix of a
stack as these do alone, bit for bit, so they share none of its code.
"""

import math

import numpy as np

from dgstab.errors import NonSymmetricError
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
