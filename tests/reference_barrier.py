"""A reference for ``certify._barrier_search``: the same search with
its two forms written out by hand.

It writes the Lyapunov form ``P A + A^T P`` (``form="lyap"``) and the
Stein form ``P - A^T P A`` (``form="stein"``), their gradients and
their Hessians out.  The search that evaluates each form from its
coefficients must return the same ``(P, t, steps)`` bit for bit, so it
shares none of that code.
"""

import itertools
import math

import numpy as np

from dgstab.certify import _GAP_TOL, _MAX_STEPS, FOUND_TOL


def barrier_search(a: np.ndarray, form: str, entries: np.ndarray, t: float):
    """Phase-I barrier Newton search for a witness ``P(x)`` parametrized
    by ``entries`` that makes ``form`` positive definite at ``a``.

    It maximizes ``t`` subject to ``F(x) - t I > 0``, ``P(x) > 0`` and
    ``tr P = n`` by damped Newton steps (length ``1/(1 + decrement)``,
    the equality held by the KKT system) on ``-s t - log det(F - t I) -
    log det P``, from ``P = I`` and the given ``t``, which must lie below
    the smallest eigenvalue of the form there.  ``s`` grows 8x whenever
    the decrement is at most 1/2.  With ``R = (F - t I)^-1``, ``B = A R``,
    ``C = A R A^T`` and ``Q = P^-1``, the Hessian at the directed entries
    ``(j, k)`` and ``(l, i)`` of ``P`` is a sum of products ``X_ij Y_kl``,
    over ``(X, Y)`` in ``(B, B), (R, C), (C, R), (B^T, B^T)`` for ``P A +
    A^T P`` and ``(R, R), (-B, B^T), (-B^T, B), (C, C)`` for ``P - A^T P
    A``, plus ``(Q, Q)`` for the witness barrier: a step costs O(n^3 +
    d^2) for d directed entries.

    Returns ``(P, t, steps)`` at the first ``t > FOUND_TOL``, else
    ``(None, best t, steps)`` once the duality gap ``2n/s`` is below
    ``_GAP_TOL``, at an iterate that is not finite or not positive
    definite, or, as a guard only, after ``_MAX_STEPS`` steps."""
    n = a.shape[0]
    off = entries[:, 0] != entries[:, 1]
    jj = np.concatenate((entries[:, 0], entries[off, 1]))
    kk = np.concatenate((entries[:, 1], entries[off, 0]))
    own = np.concatenate((entries[:, 2], entries[off, 2]))
    m = int(own.max()) + 1
    incidence = np.zeros((own.size, m))  # directed entries to parameters
    incidence[np.arange(own.size), own] = 1.0
    trace_row = np.bincount(own[jj == kk], minlength=m).astype(float)
    pair_index = kk[:, None] * n + jj  # flat index of (k_s, j_t)

    def gather(mat):
        return mat.take(pair_index)

    def adjoint(mat):  # the gradient of tr(mat F(P)) in P, for symmetric mat
        if form == "lyap":
            am = a @ mat
            return am + am.T
        return mat - a @ mat @ a.T

    kkt = np.zeros((m + 2, m + 2))
    kkt[:m, m + 1] = kkt[m + 1, :m] = trace_row
    rhs = np.zeros(m + 2)
    x = (trace_row > 0).astype(float)  # P = I
    eye, s, best = np.eye(n), None, t
    # a non-finite or indefinite iterate ends the search, so its warnings
    # say nothing
    with np.errstate(all="ignore"):
        try:
            for steps in itertools.count():
                p = np.zeros((n, n))
                p[jj, kk] = x[own]
                shifted = (p @ a + a.T @ p if form == "lyap" else p - a.T @ p @ a) - t * eye
                np.linalg.cholesky(shifted)
                np.linalg.cholesky(p)
                best = max(best, t)
                if t > FOUND_TOL:
                    return p, t, steps
                if steps >= _MAX_STEPS:
                    break
                r, q = np.linalg.inv(shifted), np.linalg.inv(p)
                b, c = a @ r, a @ r @ a.T
                pairs = (((b, b), (r, c), (c, r), (b.T, b.T)) if form == "lyap" else
                         ((r, r), (-b, b.T), (-b.T, b), (c, c))) + ((q, q),)
                h = sum(gather(u).T * gather(v) for u, v in pairs)
                kkt[:m, :m] = incidence.T @ h @ incidence
                kkt[:m, m] = kkt[m, :m] = -incidence.T @ adjoint(r @ r)[jj, kk]
                kkt[m, m] = np.sum(r * r)
                rhs[:m] = incidence.T @ (adjoint(r) + q)[jj, kk]
                s = np.trace(r) if s is None else s  # the start is centred in t
                while True:
                    rhs[m] = s - np.trace(r)
                    step = np.linalg.solve(kkt, rhs)[:m + 1]
                    decrement = math.sqrt(max(step @ rhs[:m + 1], 0.0))
                    if not math.isfinite(decrement):
                        return None, best, steps
                    if decrement > 0.5:
                        break
                    if 2.0 * n / s < _GAP_TOL:
                        return None, best, steps
                    s *= 8.0
                x = x + step[:m] / (1.0 + decrement)
                t = t + step[m] / (1.0 + decrement)
        except np.linalg.LinAlgError:
            pass
    return None, best, steps
