"""Sufficiency certificates for region/class/operation stability.

A certificate is a structured positive definite matrix ``P`` making a
quadratic form built from the target matrix positive definite:

* diagonal / block-scalar / block / identity witnesses for the
  continuous form ``P A + A^T P`` (right-half-plane region), and
* positive diagonal witnesses for the discrete form ``D - A^T D A``
  (unit-disk region).

Both are ``sum_ij c_ij (A^T)^i P A^j`` at fixed ``c`` (cases I and III
of root clustering, Gutman and Jury, IEEE TAC 26, 1981), and the
polynomial kind carries its own ``c``: every check and search evaluates
its kind's form with ``linalg.polynomial_forms``.

A found certificate proves stability for every class member of the
triples its kind is paired with in ``_PAIRINGS``, the one table of each
kind's form, witness class and proven (region, class, op) triples; a
failed search proves nothing.  ``proves`` is the one check that turns a
candidate certificate into a proof of a query's own triple at its
matrix: it returns the certificate, with ``min_eig`` measured there,
when it re-verifies and its kind's triples cover the query's.  It is
the stack of one of ``restrict_certificate``, which decides the
restrictions of one certificate to many principal submatrices of one
order: both run ``_proofs``, and every witness is verified by
``_verified``.  ``exhaust`` is the one enumeration of a finite class:
the engine's enumeration stage and verdict transfer turn its result
into a verdict, and an ``EXHAUSTIVE`` certificate verifies by running
it again.  Where a member and its negation exit together (vertex
diagonals under multiplication or the entrywise product, in a region
symmetric about 0 such as the unit disk), it composes only the first
member of each +/- pair: the negation of a member comes later in the
enumeration order, so the first exit, the one that refutes, is the
same, and only an exhaustive certificate's ``min_eig`` can move, by
rounding, as ``eigvals(-M)`` is ``-eigvals(M)`` only up to rounding.

One search serves every searched kind: the diagonal, block-scalar and
Stein forms over positive (block-scalar) diagonals, a plain diagonal
being the all-singleton partition, and the continuous form over
block-diagonal SPD witnesses.  Each form is a linear matrix inequality
in the witness parameters (Boyd, El Ghaoui, Feron and Balakrishnan,
*Linear Matrix Inequalities in System and Control Theory*, SIAM 1994),
so the search tries ``P = I`` and otherwise runs a deterministic
phase-I barrier Newton method that maximizes the smallest eigenvalue of
the form at trace n (``_barrier_search``).  It is self-contained,
deliberately chosen over an external semidefinite solver, and stops by
its own rule, at a certificate or a closed duality gap (``_MAX_STEPS``
is a guard only), unless its caller caps its Newton steps
(``max_steps``): a not-found report is always inconclusive.

Where ``P = I`` fails, the diagonal and block-scalar Lyapunov kinds
search the row-scaled matrix ``B = D0 A`` instead of ``A``
(``_row_scaled_search``): ``D0`` is a positive diagonal of powers of
two, constant on each witness block, that brings each block's largest
diagonal entry into [0.5, 1).  ``P' D0`` certifies ``A`` exactly when
``P'`` certifies ``B``, since the two forms are one matrix, and every
product by a power of two is exact: a graded input is searched at the
scale of its diagonal, and the witness found, mapped back and scaled to
trace n, is re-verified at ``A`` by the one check, unchanged.  The Stein
form and block SPD witnesses have no such equivalence and are searched
on ``A``, and so is any input where the scaling would not be exact.

Before it searches, ``search_for_triple`` runs the kind's screen, the
``screen`` column of ``_PAIRINGS``: a cheap condition that every matrix
with a certificate of the kind meets (the form's principal submatrices
are positive definite), or None where no such condition is known.  A
screen rejects only when its condition fails beyond rounding, and its
rejection is a not-found report with 0 iterations whose ``reason``
names the failed condition.  It proves only that no certificate of that
kind exists, never a verdict.  The ``find_*`` functions never screen.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import algebra, classes, regions
from .algebra import ADD, MUL
from .classes import ClassKind, MatrixClass, Partition
from .errors import UnsupportedClassError
from .linalg import (are_positive_definite, as_square_matrix, case_i_coefficients,
                     case_iii_coefficients, hill_coefficients, polynomial_forms,
                     spectral_radius_bounds)

__all__ = [
    "CertKind",
    "Certificate",
    "CertReport",
    "find_diagonal_lyapunov",
    "find_stein_diagonal",
    "find_structured_lyapunov",
    "searched_kind",
    "search_for_triple",
    "minor_violation",
    "exhaust",
    "verify_certificate",
    "implied_stabilities",
    "proves",
    "restrict_certificate",
    "certified_form",
]

#: A witness counts as found when the normalized form's smallest
#: eigenvalue clears this threshold (guards boundary false positives).
FOUND_TOL = 1e-8

#: A failed search stops once the barrier's duality gap is below this.
_GAP_TOL = 1e-7
#: A guard only: a search stops by its own rule long before (66 steps in the tests).
#: A caller may pass a smaller budget (``max_steps``) where a failed search
#: costs more than the decision that follows it.
_MAX_STEPS = 5000
#: The barrier search starts its slack below the form's smallest
#: eigenvalue ``t0`` at ``P = I`` by this share of ``|t0|``, and by at
#: least this much (``_start``).
_START_GAP = 0.03


class CertKind(enum.Enum):
    DIAGONAL_LYAPUNOV = "diagonal_lyapunov"
    ALPHA_SCALAR_LYAPUNOV = "alpha_scalar_lyapunov"
    BLOCK_LYAPUNOV = "block_lyapunov"
    IDENTITY_LYAPUNOV = "identity_lyapunov"
    STEIN_DIAGONAL = "stein_diagonal"
    #: symmetric witness of arbitrary inertia; a positive definite form
    #: proves the spectrum avoids the imaginary axis and that the
    #: witness and target share their half-plane eigenvalue counts.
    #: Verified when supplied, never searched for (the witness set has
    #: no convex parametrization).
    SYMMETRIC_INDEFINITE = "symmetric_indefinite"
    HILL = "hill"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True, eq=False)
class Certificate:
    """A checkable stability witness.

    ``witness`` is the structured matrix ``P``; ``min_eig`` the smallest
    eigenvalue of the certified form evaluated at the target matrix.
    Exhaustive certificates instead record the finite triple that was
    checked member by member.
    """

    kind: CertKind
    witness: np.ndarray | None
    min_eig: float
    partition: Partition | None = None
    coeffs: tuple[tuple[float, ...], ...] | None = None
    triple: tuple | None = None
    members_checked: int | None = None


@dataclass(frozen=True, eq=False)
class CertReport:
    found: bool
    certificate: Certificate | None
    best_min_eig: float
    #: Newton steps taken, 0 when ``P = I`` certifies or a screen rejects
    #: (the identity kind's one definiteness test counts 1)
    iterations: int
    #: why no search ran, when a screen ruled the certificate out
    reason: str | None = None


def _entries(kind: CertKind, n: int, partition: Partition | None) -> np.ndarray:
    """The linear parametrization of ``kind``'s witnesses as rows
    ``(i, j, owner)``, ``i <= j``: ``P_ij = P_ji = x[owner]``.  A block
    SPD witness owns each entry of its blocks' upper triangles; the
    diagonal kinds own one value per block of ``partition``
    (singletons when None)."""
    if kind is CertKind.BLOCK_LYAPUNOV:
        pairs = [ij for block in partition.blocks
                 for ij in itertools.combinations_with_replacement(block, 2)]
        return np.array([(i, j, k) for k, (i, j) in enumerate(pairs)])
    blocks = partition.blocks if partition is not None else [(i,) for i in range(n)]
    owner = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    return np.column_stack((np.arange(n), np.arange(n), owner))


def _barrier_search(a: np.ndarray, c: np.ndarray, entries: np.ndarray, t: float,
                    max_steps: int | None = None, best_iterate: bool = False):
    """Phase-I barrier Newton search for a witness ``P(x)`` parametrized
    by ``entries`` that makes the form ``F(P) = sum_ij c_ij (A^T)^i P
    A^j`` of degree-1 coefficients ``c`` positive definite at ``a``.

    It maximizes ``t`` subject to ``F(x) - t I > 0``, ``P(x) > 0`` and
    ``tr P = n`` by damped Newton steps (length ``1/(1 + decrement)``,
    the equality held by the KKT system) on ``-s t - log det(F - t I) -
    log det P``, from ``P = I`` and the given ``t``, which must lie below
    the smallest eigenvalue of the form there.  ``s`` grows 8x whenever
    the decrement is at most 1/2.  With ``R = (F - t I)^-1``, the moments
    ``X_bc = A^b R (A^T)^c`` and ``Q = P^-1``, the Hessian at the directed
    entries ``(l, i)`` and ``(j, k)`` of ``P`` is ``sum c_ab c_cd (X_bc)_ij
    (X_da)_kl + Q_ij Q_kl``, and the gradient of ``tr(M F)`` is ``sum c_ij
    X_ji`` at ``M``'s moments: a step costs O(n^3 + d^2) for d entries.

    Returns ``(P, t, steps)`` at the first ``t > FOUND_TOL``, else
    ``(None, best t, steps)`` once the duality gap ``2n/s`` is below
    ``_GAP_TOL``, at an iterate that is not finite or not positive
    definite, or after ``max_steps`` steps (``_MAX_STEPS``, a guard only,
    when None).  With ``best_iterate``, a failed search returns the
    first iterate at its best ``t`` in place of None (still None when no
    iterate was positive definite)."""
    n = a.shape[0]
    max_steps = _MAX_STEPS if max_steps is None else max_steps
    off = entries[:, 0] != entries[:, 1]
    jj = np.concatenate((entries[:, 0], entries[off, 1]))
    kk = np.concatenate((entries[:, 1], entries[off, 0]))
    own = np.concatenate((entries[:, 2], entries[off, 2]))
    m = int(own.max()) + 1
    incidence = np.zeros((own.size, m))  # directed entries to parameters
    incidence[np.arange(own.size), own] = 1.0
    trace_row = np.bincount(own[jj == kk], minlength=m).astype(float)
    pair_index = kk[:, None] * n + jj  # flat index of (k_s, j_t)
    terms = [(i, j, v) for i, row in enumerate(c.tolist()) for j, v in enumerate(row) if v]

    def gather(mat):
        return mat.take(pair_index)

    def moments(mat):  # X[b][c] = A^b mat (A^T)^c
        am = a @ mat
        return (mat, am.T), (am, am @ a.T)

    def adjoint(xm):  # the gradient of tr(M F(P)) in P from M's moments, M symmetric
        g = [xm[j][i] if v == 1.0 else v * xm[j][i] for i, j, v in terms]
        return sum(g[1:], g[0])

    kkt = np.zeros((m + 2, m + 2))
    kkt[:m, m + 1] = kkt[m + 1, :m] = trace_row
    rhs = np.zeros(m + 2)
    x = (trace_row > 0).astype(float)  # P = I
    eye, s, best, best_p = np.eye(n), None, t, None
    # a non-finite or indefinite iterate ends the search, so its warnings
    # say nothing
    with np.errstate(all="ignore"):
        try:
            for steps in itertools.count():
                p = np.zeros((n, n))
                p[jj, kk] = x[own]
                shifted = polynomial_forms(c, p, a) - t * eye
                np.linalg.cholesky(shifted)
                np.linalg.cholesky(p)
                if best_p is None or t > best:
                    best_p = p
                best = max(best, t)
                if t > FOUND_TOL:
                    return p, t, steps
                if steps >= max_steps:
                    break
                r, q = np.linalg.inv(shifted), np.linalg.inv(p)
                xr = moments(r)
                h = sum(gather(xr[d][i1] if v * w == 1.0 else v * w * xr[d][i1]).T
                        * gather(xr[j1][i2]) for i1, j1, v in terms for i2, d, w in terms
                        ) + gather(q).T * gather(q)
                kkt[:m, :m] = incidence.T @ h @ incidence
                kkt[:m, m] = kkt[m, :m] = -incidence.T @ adjoint(moments(r @ r))[jj, kk]
                kkt[m, m] = np.sum(r * r)
                rhs[:m] = incidence.T @ (adjoint(xr) + q)[jj, kk]
                s = np.trace(r) if s is None else s  # the start is centred in t
                while True:
                    rhs[m] = s - np.trace(r)
                    step = np.linalg.solve(kkt, rhs)[:m + 1]
                    decrement = math.sqrt(max(step @ rhs[:m + 1], 0.0))
                    if not math.isfinite(decrement) or decrement > 0.5 or 2.0 * n / s < _GAP_TOL:
                        break
                    s *= 8.0
                if not (math.isfinite(decrement) and decrement > 0.5):
                    break  # not finite, or the gap closed
                x = x + step[:m] / (1.0 + decrement)
                t = t + step[m] / (1.0 + decrement)
        except np.linalg.LinAlgError:
            pass
    return best_p if best_iterate else None, best, steps


def _start(t0: float) -> float:
    """The slack ``_barrier_search`` starts from, below the smallest
    eigenvalue ``t0`` of the searched form at ``P = I``: a gap of
    ``_START_GAP max(1, |t0|)``, at the form's own scale, so that the
    first Newton steps need not close an arbitrary fixed gap."""
    return t0 - _START_GAP * max(1.0, abs(t0))


def _form_search(a, kind: CertKind, partition: Partition | None,
                 max_steps: int | None = None) -> CertReport:
    """Search ``kind``'s form over its witnesses: block-diagonal SPD
    for ``BLOCK_LYAPUNOV``, else positive block-scalar diagonals on the
    blocks of ``partition`` (singletons, not recorded, when None).
    ``P = I`` is tried first and returned, measured, when its form
    clears ``FOUND_TOL``; otherwise ``_barrier_search`` runs from the
    slack ``_start(t0)`` just below the smallest eigenvalue ``t0`` of
    that form at the searched matrix, unless that form is not finite
    (best -inf).  The diagonal and block-scalar Lyapunov kinds search
    the exactly row-scaled matrix (``_row_scaled_search``) wherever it
    is exact; every other search runs on ``A``.  A form homogeneous in
    ``A`` (``c_00 = c_11 = 0``: case I) is searched on ``A`` at unit
    Frobenius norm, found/not-found being invariant under positive
    scaling, and compared at the scale of ``2^-e A`` (no entry above 1),
    whose norm no square overflows.  ``max_steps`` caps the Newton steps
    (None: the ``_MAX_STEPS`` guard)."""
    a = as_square_matrix(a)
    start = _measured(Certificate(kind, np.eye(len(a)), np.nan, partition=partition), a)
    c = _PAIRINGS[kind].form
    homogeneous = not (c[0, 0] or c[1, 1])
    e = math.frexp(np.abs(a).max())[1] if homogeneous else 0
    unit = np.ldexp(a, -e)
    norm = float(np.linalg.norm(unit)) if homogeneous else 1.0
    if norm == 0.0 or start.min_eig == -np.inf:  # A = 0: its form is 0
        return CertReport(False, None, start.min_eig, 0)
    if math.ldexp(start.min_eig, -e) > FOUND_TOL * norm:
        return CertReport(True, start, start.min_eig, 0)
    entries = _entries(kind, len(a), partition)
    if kind in _ROW_SCALED:
        report = _row_scaled_search(a, kind, partition, entries, max_steps)
        if report is not None:
            return report
    t0 = math.ldexp(start.min_eig, -e) / norm
    p, t, steps = _barrier_search(unit / norm, c, entries, _start(t0), max_steps)
    if p is None:
        return CertReport(False, None, math.ldexp(max(t, t0) * norm, e), steps)
    cert = _measured(Certificate(kind, p, np.nan, partition=partition), a)
    return CertReport(True, cert, cert.min_eig, steps)


#: The kinds whose search runs on the row-scaled matrix ``D0 A``.
_ROW_SCALED = (CertKind.DIAGONAL_LYAPUNOV, CertKind.ALPHA_SCALAR_LYAPUNOV)


def _row_scaled_search(a: np.ndarray, kind: CertKind, partition: Partition | None,
                       entries: np.ndarray, max_steps: int | None) -> CertReport | None:
    """The search of a positive block-scalar diagonal ``P`` with ``P A +
    A^T P`` positive definite, run on ``B = D0 A``: ``D0`` is the power
    of two ``2^-e`` on each block of ``entries``' owners, ``e`` the
    ``frexp`` exponent of the block's largest ``|a_ii|``, so that ``B``'s
    diagonal is graded no more than within a block.  For every witness
    ``P'`` of ``B``, ``P' D0`` is one of ``A`` with the same form, ``P'
    D0 A + A^T D0 P' = P' B + B^T P'``, and every product by a power of
    two is exact, so the found ``P'`` maps back, scaled to trace n,
    bit for bit up to that scaling.  ``_barrier_search`` runs on ``B``
    at unit Frobenius norm from ``_start`` of its form's smallest
    eigenvalue at ``P' = I``.  A failed search reports the smallest
    eigenvalue at ``A`` of its best iterate mapped back.

    None, and ``A`` is searched unscaled, where the scaling is not
    exact or its witness not representable: a block's diagonal is 0,
    ``D0 A`` overflows or turns a nonzero entry zero or subnormal, no
    iterate was positive definite, or the mapped witness has an entry
    that is not a positive normal number or a form at ``A`` that is not
    finite."""
    top = np.zeros(entries[-1, 2] + 1)  # each block's largest |a_ii|
    np.maximum.at(top, entries[:, 2], np.abs(a.diagonal()))
    if not top.all():
        return None
    rows = np.frexp(top)[1][entries[:, 2]]
    with np.errstate(over="ignore", under="ignore"):  # both are caught below
        b = np.ldexp(a, -rows[:, None])
    if not np.isfinite(b).all() or (np.abs(b[a != 0.0]) < _TINY).any():
        return None
    b = np.ldexp(b, -math.frexp(np.abs(b).max())[1])
    b = b / np.linalg.norm(b)
    c = _PAIRINGS[kind].form
    t0 = float(np.linalg.eigvalsh(polynomial_forms(c, np.eye(len(a)), b))[0])
    p, t, steps = _barrier_search(b, c, entries, _start(t0), max_steps, best_iterate=True)
    if p is None:
        return None
    with np.errstate(under="ignore"):  # a subnormal entry is caught below
        w = np.ldexp(p, rows.min() - rows)  # P' D0 / max(D0), by columns
    w = w * (len(a) / np.trace(w))
    if not (w.diagonal() >= _TINY).all():
        return None
    cert = _measured(Certificate(kind, w, np.nan, partition=partition), a)
    if cert.min_eig == -np.inf:
        return None
    if t > FOUND_TOL:
        return CertReport(True, cert, cert.min_eig, steps)
    return CertReport(False, None, cert.min_eig, steps)


def find_diagonal_lyapunov(a) -> CertReport:
    """Search for a positive diagonal ``D`` making ``D A + A^T D``
    positive definite: the block-scalar search over singleton blocks."""
    return _form_search(a, CertKind.DIAGONAL_LYAPUNOV, None)


def find_stein_diagonal(a, max_steps: int | None = None) -> CertReport:
    """Search for a positive diagonal ``D`` making ``D - A^T D A``
    positive definite, in at most ``max_steps`` Newton steps (None: no
    cap but the guard)."""
    return _form_search(a, CertKind.STEIN_DIAGONAL, None, max_steps)


def identity_witness_class(n: int) -> MatrixClass:
    """The singleton witness class containing only the identity."""
    return classes.explicit_list([np.eye(n)])


def find_structured_lyapunov(a, p_class: MatrixClass) -> CertReport:
    """Search the continuous form over a structured witness class.

    Supported parametrizations: positive block-scalar diagonals,
    block-diagonal SPD matrices, and the identity singleton (a single
    definiteness test of ``A + A^T``).  Anything else raises
    ``UnsupportedClassError``.
    """
    a = as_square_matrix(a)
    if a.shape[0] != p_class.order:
        raise UnsupportedClassError("witness class order does not match matrix")
    kind = _BY_WITNESS.get(p_class.kind)
    if kind is None or _at(kind, p_class.order, p_class.partition)[0] != p_class:
        raise UnsupportedClassError(
            f"no search parametrization for witness class {p_class.kind.value}")
    if kind is CertKind.IDENTITY_LYAPUNOV:
        cert = _measured(Certificate(kind, np.eye(len(a)), np.nan), a)
        found = bool(_verified(cert, cert.witness[None], [None], a[None])[0][0])
        return CertReport(found, cert if found else None, cert.min_eig, 1)
    return _form_search(a, kind, p_class.partition)


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _entry(i: int, j: int) -> str:
    return f"a_{i + 1}{j + 1}" if max(i, j) < 9 else f"a_{i + 1},{j + 1}"


def minor_violation(a: np.ndarray, strict: bool) -> tuple[tuple[int, ...], str] | None:
    """The first principal minor of order 1 or 2 of ``a`` that is
    negative, or a zero diagonal entry unless ``strict``, as (its
    indices, the failed condition): a diagonal entry below 0 (``strict``)
    or at most 0, else, with every diagonal entry passing, the first pair
    with ``a_ii a_jj < a_ij a_ji`` in row order; None when every one
    passes.  Both tests are exact: a computed product
    is the exact one rounded, and rounding is monotone, so
    ``fl(a_ii a_jj) < fl(a_ij a_ji)`` proves ``a_ii a_jj < a_ij a_ji``."""
    d = a.diagonal()
    low = d < 0.0 if strict else d <= 0.0
    if low.any():
        i = int(np.argmax(low))
        return (i,), f"{_entry(i, i)} {'<' if strict else '<='} 0"
    with np.errstate(over="ignore"):  # an overflowed product stays ordered
        less = d[:, None] * d < a * a.T
    if less.any():
        i, j = (int(k) for k in np.argwhere(less)[0])
        return (i, j), f"{_entry(i, i)}*{_entry(j, j)} < {_entry(i, j)}*{_entry(j, i)}"
    return None


def _diagonal_screen(a: np.ndarray, partition) -> str | None:
    """The form ``D A + A^T D`` has diagonal ``2 d_i a_ii`` and 2x2
    principal minors ``4 d_i d_j (a_ii a_jj - a_ij a_ji) - (d_i a_ij -
    d_j a_ji)^2``, so a certificate needs every 1x1 and 2x2 principal
    minor of ``A`` positive (``minor_violation``).  Returns the first
    failed condition, or None."""
    found = minor_violation(a, strict=False)
    return None if found is None else found[1]


def _blocks(a: np.ndarray, partition: Partition):
    """(block number from 1, size, diagonal block) per block of
    ``partition``, of ``a`` times the power of two that brings its
    largest entry into [0.5, 1): no sum of two entries overflows, and no
    entry moves by more than half the smallest subnormal."""
    s = np.ldexp(a, -math.frexp(np.abs(a).max())[1])
    for k, block in enumerate(partition.blocks, 1):
        yield k, len(block), s[block[0]:block[-1] + 1, block[0]:block[-1] + 1]


def _block_scalar_screen(a: np.ndarray, partition: Partition) -> str | None:
    """The form's diagonal block k is ``c_k (A_kk + A_kk^T)`` for a
    block-scalar witness, so a certificate needs each ``A_kk + A_kk^T``
    positive definite.  A block fails when its smallest computed
    eigenvalue lies below minus ``eigvalsh``'s error (Weyl's bound)."""
    for k, m, b in _blocks(a, partition):
        h = b + b.T
        if np.linalg.eigvalsh(h)[0] < -(8.0 * m * _EPS * np.linalg.norm(h) + _TINY):
            return f"A_kk + A_kk^T is not positive definite at block k = {k}"
    return None


def _block_spd_screen(a: np.ndarray, partition: Partition) -> str | None:
    """The form's diagonal block k is ``P_k A_kk + A_kk^T P_k`` for a
    block-diagonal SPD witness, so a certificate needs each ``A_kk``
    positive stable (Lyapunov).  A computed eigenvalue is one of
    ``A_kk + E`` with ``||E|| <= c m eps ||A_kk||`` at block size m, so
    by Elsner's bound an eigenvalue of ``A_kk`` lies within
    ``2 ||A_kk|| (c m eps)^(1/m)`` of it; a block fails below that."""
    for k, m, b in _blocks(a, partition):
        bound = 3.0 * (np.linalg.norm(b) + _TINY) * (64.0 * m * _EPS) ** (1.0 / m)
        if np.linalg.eigvals(b).real.min() < -bound:
            return f"A_kk is not positive stable at block k = {k}"
    return None


class _Pairing(NamedTuple):
    form: np.ndarray | None  # c of sum_ij c_ij (A^T)^i P A^j; None: the certificate's own
    at: Callable  # (n, partition) -> (witness class, proven (region, class, op)s)
    screen: Callable | None = None  # (a, partition) -> failed condition | None


def _rhp(cls):
    # stability of G A and G + A for every G in the class
    return tuple((regions.right_half_plane(), cls, op) for op in (MUL, ADD))


#: Each kind's form, witness class, proven triples and screen (None: no
#: cheap necessary condition known).  A kind is searched exactly when it
#: proves a triple (``_search``); the others are verified when supplied,
#: and the polynomial form pairs with no class beyond the half-plane
#: cases.
_PAIRINGS = {
    CertKind.DIAGONAL_LYAPUNOV: _Pairing(case_i_coefficients(), lambda n, p: (
        classes.pos_diag(n), _rhp(classes.pos_diag(n))), _diagonal_screen),
    CertKind.ALPHA_SCALAR_LYAPUNOV: _Pairing(case_i_coefficients(), lambda n, p: (
        classes.pos_alpha_scalar(p), _rhp(classes.alpha_block_spd(p))), _block_scalar_screen),
    CertKind.BLOCK_LYAPUNOV: _Pairing(case_i_coefficients(), lambda n, p: (
        classes.alpha_block_spd(p), _rhp(classes.pos_alpha_scalar(p))), _block_spd_screen),
    CertKind.IDENTITY_LYAPUNOV: _Pairing(case_i_coefficients(), lambda n, p: (
        identity_witness_class(n), _rhp(classes.spd(n)))),
    CertKind.STEIN_DIAGONAL: _Pairing(case_iii_coefficients(), lambda n, p: (
        classes.pos_diag(n), tuple((regions.unit_disk(), c, MUL) for c in (
            classes.vertex_diag(n), classes.box_diag([-1.0] * n, [1.0] * n))))),
    CertKind.SYMMETRIC_INDEFINITE: _Pairing(case_i_coefficients(), lambda n, p: (
        classes.symmetric(n), ())),
    CertKind.HILL: _Pairing(None, lambda n, p: (classes.spd(n), ())),
}


@functools.lru_cache(maxsize=1024)
def _at(kind: CertKind, n: int, partition: Partition | None):
    """``kind``'s witness class and proven triples, built once: both hold
    immutable values only."""
    return _PAIRINGS[kind].at(n, partition)


#: The kinds ``find_structured_lyapunov`` searches by witness class kind,
#: and the searched kinds by the (region, class, op) kinds of each of
#: their triples (no two share one).
_BY_WITNESS = {_at(k, 1, Partition(((0,),)))[0].kind: k for k in (
    CertKind.ALPHA_SCALAR_LYAPUNOV, CertKind.BLOCK_LYAPUNOV, CertKind.IDENTITY_LYAPUNOV)}
_BY_TRIPLE = {(r.kind, c.kind, o.kind): k for k in _PAIRINGS
              for r, c, o in _at(k, 1, Partition(((0,),)))[1]}


def _class_subset(sub: MatrixClass, sup: MatrixClass) -> bool:
    if sub.kind is sup.kind is ClassKind.BOX_DIAG and sub.order == sup.order:
        return (all(s >= p for s, p in zip(sub.lo, sup.lo))
                and all(s <= p for s, p in zip(sub.hi, sup.hi)))
    return sub == sup


def _triple_covered(region, cls, op, implied) -> bool:
    # left/right is immaterial for these operations: addition and the
    # entrywise product are commutative, and under multiplication G A
    # and A G share their spectrum.
    return any(r.geometry() == region.geometry() and o.kind is op.kind
               and _class_subset(cls, c) for r, c, o in implied)


def _search(kind: CertKind, a, partition: Partition | None,
            max_steps: int | None = None) -> CertReport:
    """Run ``kind``'s search by its finder's module name, so that a
    replaced finder is called; block kinds take ``partition``'s blocks.
    ``max_steps`` reaches the Stein search only, the one kind that covers
    a finite class's triple."""
    if kind is CertKind.DIAGONAL_LYAPUNOV:
        return find_diagonal_lyapunov(a)
    if kind is CertKind.STEIN_DIAGONAL:
        return find_stein_diagonal(a, max_steps)
    return find_structured_lyapunov(a, _at(kind, len(a), partition)[0])


def searched_kind(region: regions.Region, cls: MatrixClass, op) -> CertKind | None:
    """The searched certificate kind whose proven triples cover (region,
    cls, op), with the witness blocks of ``cls``, or None."""
    kind = _BY_TRIPLE.get((region.kind, cls.kind, op.kind))
    if kind is None or not _triple_covered(
            region, cls, op, _at(kind, cls.order, cls.partition)[1]):
        return None
    return kind


def search_for_triple(a, region: regions.Region, cls: MatrixClass, op,
                      max_steps: int | None = None) -> CertReport | None:
    """Search for a certificate of ``searched_kind(region, cls, op)``, in
    at most ``max_steps`` Newton steps (None: no cap but the guard); None
    when no searched kind proves the triple.  The kind's screen runs
    first: when it rejects, no search runs and the report's ``reason``
    says why."""
    kind = searched_kind(region, cls, op)
    if kind is None:
        return None
    screen = _PAIRINGS[kind].screen
    failed = screen and screen(as_square_matrix(a), cls.partition)
    if failed:
        return CertReport(False, None, -np.inf, 0,
                          f"no {kind.value} certificate exists: {failed}")
    return _search(kind, a, cls.partition, max_steps)


def _coefficients(cert: Certificate) -> np.ndarray:
    """``cert``'s form's coefficients, the polynomial kind's own validated:
    ``ValueError`` when they are malformed or the kind has no form."""
    pair = _PAIRINGS.get(cert.kind)
    if pair is None:
        raise ValueError(f"no closed form for certificate kind {cert.kind.value}")
    return hill_coefficients(cert.coeffs) if pair.form is None else pair.form


def certified_form(cert: Certificate, a) -> np.ndarray:
    """Recompute the quadratic form the certificate claims to be
    positive definite."""
    p, a = np.asarray(cert.witness)[None], as_square_matrix(a)[None]
    return polynomial_forms(_coefficients(cert), p, a)[0]


def _measured(cert: Certificate, a) -> Certificate:
    """``cert`` with ``min_eig`` the smallest eigenvalue of its form at
    ``a``, or -inf when the form is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        form = certified_form(cert, a)
    lam = float(np.linalg.eigvalsh(form)[0]) if np.isfinite(form).all() else -np.inf
    return replace(cert, min_eig=lam)


def _paired(cert: Certificate):
    """The witness class and proven triples of a non-exhaustive
    certificate, or None when it lacks its witness, a block kind's
    partition or well-formed coefficients (``_coefficients``)."""
    if cert.witness is None or (cert.partition is None and cert.kind in (
            CertKind.ALPHA_SCALAR_LYAPUNOV, CertKind.BLOCK_LYAPUNOV)):
        return None
    try:
        _coefficients(cert)
    except (TypeError, ValueError):
        return None
    return _at(cert.kind, cert.witness.shape[0], cert.partition)


class Exhaustion(NamedTuple):
    hit: tuple[int, np.ndarray, complex, float] | None
    checked: int
    boundary: bool
    min_score: float
    overflowed: int


def exhaust(a, region: regions.Region, cls: MatrixClass, op, tol: float) -> Exhaustion:
    """Check ``G o A`` against the region for the members ``G`` of the
    finite class ``cls`` in enumeration order, up to the first that
    exits by more than ``tol`` (``regions.first_exit``), in stacks of 8
    members that double up to 256, so that an early exit costs few
    solves.  A member whose composition overflows is skipped
    (``algebra.finite_compositions``) and counted in ``overflowed``.

    Where a member and its negation exit together, only the first half
    of the ``2^n`` members is composed.  That holds over vertex
    diagonals, which ``G -> -G`` maps onto themselves, under
    multiplication on either side or the entrywise product, where
    ``(-G) o A = -(G o A)``, and in a region that -1 maps into itself
    (``regions.scalar_preserves_region``: the unit disk, the real axis,
    the nonzero-real-part region, the punctured plane and Hill regions
    of one even degree).  Member ``j``'s negation is member
    ``2^n - 1 - j``, so the first exit in order always lies in the
    first half, with the same index, member, eigenvalue and margin.
    The second half would repeat the first's boundary and scores up to
    rounding, and its counts equal the first's.

    On the unit disk, a composition is solved only when its spectral
    radius bound (``linalg.spectral_radius_bounds``) reaches
    ``min(r, 1 - boundary_tol) (1 - 1e-9)``, where ``r`` is the largest
    eigenvalue modulus solved in the stacks before.  A composition
    below that has every eigenvalue interior and of modulus below
    ``r``: it can neither exit, nor sit in the boundary band, nor lower
    ``min_score``, so skipping it gives the result solving it would,
    wherever the eigensolver's error in a modulus stays below that
    relative 1e-9.  Every member is still composed and counted.
    Elsewhere every finite composition is solved.

    The ``hit`` is that exit as (member index, member, eigenvalue,
    margin), or None.  ``checked`` counts the members before the exit,
    or all of them without one, and ``overflowed`` those of them
    skipped; without an exit, ``boundary`` says whether a member left an
    eigenvalue off the interior and ``min_score`` is the smallest
    interior score of the eigenvalues solved, which on the disk is that
    of the largest modulus over all members composed."""
    members = classes.enumerate_members(cls)
    paired = (cls.kind is ClassKind.VERTEX_DIAG and op.kind is not ADD.kind
              and regions.scalar_preserves_region(region, -1.0))
    if paired:
        members = itertools.islice(members, cls.finite_size // 2)
    checked = overflowed = 0
    boundary, min_score = False, np.inf
    radius = 0.0  # the largest eigenvalue modulus solved so far
    disk = region.kind is regions.RegionKind.UNIT_DISK
    size = 8
    while chunk := list(itertools.islice(members, size)):
        stack = np.stack(chunk)
        rows, comps = algebra.finite_compositions(op, stack, a)
        if disk:
            # below the floor, a row's eigenvalues are interior and inside the
            # largest radius solved, with room for the solver's rounding
            floor = min(radius, 1.0 - region.boundary_tol) * (1.0 - 1e-9)
            solved = np.flatnonzero(spectral_radius_bounds(comps) >= floor)
            comps = comps[solved]
        else:
            solved = np.arange(rows.size)
        if solved.size:
            ws = np.linalg.eigvals(comps)
            hit = regions.first_exit(region, ws, tol)
            if hit is not None:
                k, lam, margin = hit
                i = int(solved[k])
                j = int(rows[i])
                # the j members before the hit in its stack, i of them finite
                return Exhaustion((checked + j, stack[j], lam, margin), checked + j, boundary,
                                  min_score, overflowed + j - i)
            flat = ws.ravel()
            boundary = boundary or not regions.spectrum_in_region(region, flat)
            min_score = min(min_score, float(regions.interior_scores(region, flat).min()))
            radius = max(radius, float(np.abs(flat).max()))
        overflowed += len(stack) - rows.size
        checked += len(stack)
        size = min(2 * size, 256)
    if paired:
        checked, overflowed = 2 * checked, 2 * overflowed
    return Exhaustion(None, checked, boundary, min_score, overflowed)


def _verified(cert: Certificate, p: np.ndarray, partitions, a: np.ndarray):
    """The one check of non-exhaustive certificates: for the stacked
    witnesses ``p`` of ``cert``'s kind (with ``partitions``, one per
    witness) at the stacked matrices ``a``, the mask of those in their
    witness class whose form is positive definite, and the forms.  The
    witness membership is one ``classes.are_members`` test on the stack,
    its rows grouped by equal witness class, and the forms are one
    ``polynomial_forms`` on the stack (``cert`` passes ``_paired``).  A
    witness fails alone: a witness or form that is not finite, or a form
    that is not symmetric, rejects only its own matrix."""
    k = a.shape[1]
    ok = classes.are_members([_at(cert.kind, k, part)[0] for part in partitions], p)
    # a form that overflows is rejected as non-finite, silently
    with np.errstate(over="ignore", invalid="ignore"):
        forms = polynomial_forms(_coefficients(cert), p, a)
        ok &= are_positive_definite(forms)
    return ok, forms


def _proofs(cert: Certificate, p: np.ndarray, partitions, a: np.ndarray,
            region: regions.Region, sub_classes, op) -> list[Certificate | None]:
    """Row i's proof of (region, ``sub_classes[i]``, op) at ``a[i]`` by
    the stacked witness ``p[i]`` of the non-exhaustive ``cert``'s kind
    with ``partitions[i]``: ``cert`` with that witness and partition and
    ``min_eig`` the smallest eigenvalue of its form, or None unless the
    kind's triples at that partition cover the triple and the witness
    passes ``_verified``.  The coverage is checked once per distinct
    class object and partition; the check and the eigenvalues run on the
    stack of the covered rows, each row bit for bit as alone."""
    k = a.shape[1]
    covered: dict[tuple[int, Partition | None], bool] = {}  # by class object and partition
    for c, part in zip(sub_classes, partitions):
        if (id(c), part) not in covered:
            covered[id(c), part] = _triple_covered(region, c, op, _at(cert.kind, k, part)[1])
    rows = np.flatnonzero([covered[id(c), part] for c, part in zip(sub_classes, partitions)])
    out: list[Certificate | None] = [None] * len(p)
    if rows.size:
        ok, forms = _verified(cert, p[rows], [partitions[i] for i in rows.tolist()], a[rows])
        lams = np.linalg.eigvalsh(forms[ok])[:, 0].tolist()
        for i, lam in zip(rows[ok].tolist(), lams):
            out[i] = Certificate(cert.kind, p[i], lam, partitions[i], cert.coeffs, cert.triple,
                                 cert.members_checked)
    return out


def verify_certificate(cert: Certificate, a) -> bool:
    """Recompute the certified form and check it independently of the
    search path: witness class membership plus positive definiteness,
    ``_verified`` on a stack of one.  An exhaustive certificate verifies
    when ``exhaust`` finds every eigenvalue interior, over the same
    number of members and with no composition overflowed; it verifies
    only over a finite class."""
    a = as_square_matrix(a)
    if cert.kind is CertKind.EXHAUSTIVE:
        if cert.triple is None or not cert.triple[1].is_finite:
            return False
        # an exit beyond tol 0 also puts an eigenvalue off the interior
        r = exhaust(a, *cert.triple, 0.0)
        return r.hit is None and not r.boundary and not r.overflowed and (
            cert.members_checked is None or r.checked == cert.members_checked)
    if _paired(cert) is None or cert.witness.shape != a.shape:
        return False
    return bool(_verified(cert, cert.witness[None], [cert.partition], a[None])[0][0])


def implied_stabilities(cert: Certificate) -> list[tuple]:
    """The (region, class, operation) triples the certificate proves:
    those its kind is paired with, or an exhaustive certificate's own."""
    if cert.kind is CertKind.EXHAUSTIVE:
        return [cert.triple] if cert.triple is not None else []
    paired = _paired(cert)
    return [] if paired is None else list(paired[1])


def proves(cert: Certificate, a, region: regions.Region, cls: MatrixClass,
           op) -> Certificate | None:
    """``cert``, with ``min_eig`` measured at ``a`` unless it is
    exhaustive, when it proves the triple (region, cls, op) at ``a``: it
    re-verifies at ``a`` and its implied triples cover the query's.
    Else None.  A non-exhaustive certificate is decided by the check
    that ``restrict_certificate`` runs, ``_proofs``, on a stack of one."""
    a = as_square_matrix(a)
    if cert.kind is CertKind.EXHAUSTIVE:
        ok = verify_certificate(cert, a) and _triple_covered(
            region, cls, op, implied_stabilities(cert))
        return cert if ok else None
    if _paired(cert) is None or cert.witness.shape != a.shape:
        return None
    return _proofs(cert, cert.witness[None], [cert.partition], a[None], region, [cls], op)[0]


def restrict_certificate(cert: Certificate, idx, a, region: regions.Region,
                         sub_classes, op) -> list[Certificate | None]:
    """The certificates that ``cert`` restricts to on the principal
    submatrices of one order k: ``idx`` holds one row of k ascending
    indices per submatrix, ``a`` the ``(m, k, k)`` stack of those
    submatrices and ``sub_classes`` their m restricted classes.  Row i's
    witness is the principal submatrix of ``cert``'s on ``idx[i]``,
    scaled to trace k as the searches normalize, with the partition
    restricted as the class is, and ``_proofs`` decides it on the stack
    as ``proves`` would alone.

    A certificate of the full matrix's triple restricts to one of the
    restricted class's for the diagonal, block-scalar, identity and
    Stein-diagonal kinds, and for a block SPD witness when ``idx[i]``
    splits no block: ``(P A)[idx] = P[idx] A[idx]`` for such ``P``, and
    a positive diagonal ``P`` gives ``P[idx] - A[idx]^T P[idx] A[idx] >=
    (P - A^T P A)[idx]``."""
    idx = np.asarray(idx)
    if _paired(cert) is None:
        return [None] * len(idx)
    p = cert.witness[idx[:, :, None], idx[:, None, :]]
    trace = np.trace(p, axis1=1, axis2=2)
    # a trace that is not positive scales to a NaN witness, in no class
    w = p * (idx.shape[1] / np.where(trace > 0.0, trace, np.nan))[:, None, None]
    parts = [None] * len(idx) if cert.partition is None else [
        cert.partition.restrict(i) for i in idx.tolist()]
    return _proofs(cert, w, parts, a, region, sub_classes, op)
