"""Sufficiency certificates for region/class/operation stability.

A certificate is a structured positive definite matrix ``P`` making a
quadratic form built from the target matrix positive definite:

* diagonal / block-scalar / block / identity witnesses for the
  continuous form ``P A + A^T P`` (right-half-plane region), and
* positive diagonal witnesses for the discrete form ``D - A^T D A``
  (unit-disk region).

A found certificate proves stability for every class member of the
triples its kind is paired with in ``_PAIRINGS``, the one table of each
kind's form, witness class and proven (region, class, op) triples; a
failed search proves nothing.  ``proves`` is the one check that turns a
candidate certificate into a proof of a query's own triple at its
matrix: it returns the certificate, with ``min_eig`` measured there,
when it re-verifies and its kind's triples cover the query's.
``restrict_certificate`` decides the restrictions of one certificate to
many principal submatrices of one order the same way, with the same
check run on their stack.  ``exhaust`` is the one enumeration of a finite class: the engine's enumeration stage
and verdict transfer turn its result into a verdict, and an
``EXHAUSTIVE`` certificate verifies by running it again.  The searches
maximize the smallest eigenvalue of the form by projected subgradient
ascent over the witness parametrization with trace normalization and
multi-starts.  One positive block-scalar diagonal search serves the
diagonal, block-scalar and Stein forms (a plain diagonal is the
all-singleton partition); the block-diagonal SPD witness has its own
Cholesky parametrization.  This is a self-contained heuristic,
deliberately chosen over an external semidefinite solver: ``NotFound``
is always inconclusive.

Before it searches, ``search_for_triple`` runs the kind's screen, the
``screen`` column of ``_PAIRINGS``: a cheap condition that every matrix
with a certificate of the kind meets (the form's principal submatrices
are positive definite), or None where no such condition is known.  A
screen rejects only when its condition fails beyond rounding, and its
rejection is a not-found report with 0 iterations whose ``reason``
names the failed condition.  It proves only that no certificate of that
kind exists, never a verdict.  The ``find_*`` functions never screen.

The multi-starts of a search advance together as one stack of
parameter rows, one batched ``eigh`` per iteration; the sequential
stopping rule (budget, stall count, ``FOUND_TOL``, start order) is
replayed on the recorded values, so a search reports what running its
starts one after another would.  The generator is left in a different
state, though: every start's parameters are drawn before the first
iterate, reached by the replay or not, so a caller's generator advances
even when start 0 certifies at once.  Run several searches concurrently
by passing split generator streams.
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
from .errors import NonSymmetricError, UnsupportedClassError
from .linalg import as_square_matrix, are_positive_definite, hill_form, is_positive_definite

__all__ = [
    "CertKind",
    "Certificate",
    "CertReport",
    "find_diagonal_lyapunov",
    "find_stein_diagonal",
    "find_structured_lyapunov",
    "search_for_triple",
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

#: Search stops early after this many iterations without improvement.
STALL_LIMIT = 800

_MULTI_STARTS = 8


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
    iterations: int
    #: why no search ran, when a screen ruled the certificate out
    reason: str | None = None


def _min_eig_vecs(vals: np.ndarray, vecs: np.ndarray, rng: np.random.Generator):
    """From a stack's ``eigh`` output, a unit vector in each matrix's
    smallest-eigenvalue eigenspace; degenerate eigenspaces get a random
    direction, drawn in row order."""
    v = vecs[:, :, 0]
    if vals.shape[1] == 1:
        return v
    lam = vals[:, 0]
    tol = lam + 1e-10 * np.maximum(vals[:, -1] - lam, 1.0)
    odd = np.flatnonzero(vals[:, 1] <= tol)
    if odd.size:
        v = v.copy()
        for i in odd:
            cols = np.flatnonzero(vals[i] <= tol[i])
            vi = vecs[i][:, cols] @ rng.standard_normal(cols.size)
            v[i] = vi / np.linalg.norm(vi)
    return v


def _ascend(init_params, decode, grad, project, budget: int,
            rng: np.random.Generator):
    """Shared projected subgradient ascent over witness parameters.

    The multi-starts advance together as one ``(starts, p)`` stack of
    parameter rows: ``init_params(start)`` draws one start's parameters,
    and ``decode`` (rows to the stack of forms), ``grad`` (subgradient
    of each form's smallest eigenvalue at the rows and their
    eigenvectors) and ``project`` (re-normalization) act on the stack.
    Every start's parameters are drawn, in start order, before the first
    iterate, so the generator advances even when start 0 certifies at
    once.  Each lockstep iteration ``t`` is one batched ``eigh`` and a
    step of ``0.5/sqrt(t)`` for every live row.

    A row leaves the stack when it certifies, reaches its per-start
    share of the budget, has a vanishing subgradient, or stalls against
    the better of its own best and the replayed best of the finished
    starts; that stall count is never larger than the sequential one.
    The live rows leave once the finished starts certify.  The
    sequential stopping rule (per-start budget share, stall count
    against the running best, ``FOUND_TOL``, start order) is then
    replayed on the recorded values, so the result equals that of
    running the starts one after another, unless a degenerate eigenspace
    drew a random direction.  Returns the best (params, min_eig,
    iterations used).
    """
    if budget <= 0:
        return None, -np.inf, 0
    per_start = max(budget // _MULTI_STARTS, 1)
    n_starts = min(_MULTI_STARTS, budget)
    # lams[t - 1, s] is start s's min_eig at iteration t (the replay reads
    # only what was written); it doubles as the iterations run need it.
    # kept[t - 1] holds the starts that improved on their best at
    # iteration t, with their params.
    lams = np.empty((min(per_start, 1024), n_starts))
    kept = {}
    steps = np.zeros(n_starts, dtype=int)  # iterates evaluated per start
    rows = np.arange(n_starts)  # the start of each live row, ascending
    p = project(np.stack([init_params(s) for s in rows]))
    # prior is the replayed best of the finished starts, a lower bound
    # of the running best each live start's sequential stall count is
    # taken against; best and last_up are taken against it too
    prior = -np.inf
    best = np.full(n_starts, -np.inf)
    last_up = np.zeros(n_starts, dtype=int)
    for t in itertools.count(1):
        vals, vecs = np.linalg.eigh(decode(p))
        lam, v = vals[:, 0], _min_eig_vecs(vals, vecs, rng)
        if t > len(lams):
            lams = np.concatenate([lams, np.empty_like(lams)])
        lams[t - 1, rows] = lam
        up = lam > best
        best = np.where(up, lam, best)
        last_up = np.where(up, t, last_up)
        if up.any():
            kept[t - 1] = rows[up], p[up]
        g = grad(p, v)
        norm = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
        go = ((t < per_start) & (t - last_up <= STALL_LIMIT)
              & (lam <= FOUND_TOL) & ~(norm < 1e-15))
        if not go.all():
            steps[rows[~go]] = t
            first_live = rows[0]
            rows, p, g, norm = rows[go], p[go], g[go], norm[go]
            if rows.size == 0:
                break
            if rows[0] > first_live:
                prior = _replay(lams, steps, rows[0])[0]
                if prior > FOUND_TOL:
                    break  # the sequential run never reaches the live starts
            # recount the live rows' best and last_up from their records
            x = lams[:t, rows]
            best = np.maximum(prior, x.max(axis=0))
            last_up = (_ups(x, prior) * np.arange(1, t + 1)[:, None]).max(axis=0)
        p = project(p + (0.5 / np.sqrt(t)) * g / norm[:, None])
    best_val, best_at, used = _replay(lams, steps, n_starts)
    if best_at is None:
        return None, best_val, used
    s, j = best_at
    starts, params = kept[j]
    return params[np.flatnonzero(starts == s)[0]], best_val, used


def _ups(x, prior):
    """Where each of the values ``x`` beats the running best from
    ``prior`` along the first axis."""
    before = np.concatenate((np.full_like(x[:1], prior), x[:-1]))
    return x > np.maximum.accumulate(before)


def _replay(lams, steps, n):
    """Run the sequential stopping rule over the recorded ``min_eig``
    values of starts ``0..n-1`` in start order: (best value, start and
    iteration index of the best or None, iterations used).  The starts'
    shares never sum past the budget."""
    best_val, best_at, used = -np.inf, None, 0
    for s in range(n):
        x = lams[:steps[s], s]
        up = _ups(x, best_val)
        idx = np.arange(x.size)
        stall = idx - np.maximum.accumulate(np.where(up, idx, -1))
        stop = np.flatnonzero((x > FOUND_TOL) | (stall > STALL_LIMIT))
        end = int(stop[0]) + 1 if stop.size else x.size
        used += end
        ups = np.flatnonzero(up[:end])
        if ups.size:
            best_val, best_at = float(x[ups[-1]]), (s, ups[-1])
        if best_val > FOUND_TOL:
            break
    return best_val, best_at, used


def _block_scalar_search(a: np.ndarray, part: Partition, form: str, budget: int,
                         rng: np.random.Generator):
    """Search a positive block-scalar diagonal ``D`` (one value per block
    of ``part``, trace n) maximizing the smallest eigenvalue of the
    continuous ('lyap', ``D A + A^T D``) or discrete ('stein',
    ``D - A^T D A``) form.  Plain diagonals are the all-singleton
    partition.  Returns the ascent result and its witness map."""
    n = a.shape[0]
    block_of = np.repeat(np.arange(len(part.blocks)), [len(b) for b in part.blocks])
    sizes = np.bincount(block_of).astype(float)
    p_dim = sizes.size

    def init_params(start: int) -> np.ndarray:
        if start == 0:
            return np.ones(p_dim)
        return 10.0 ** rng.uniform(-1.5, 1.5, p_dim)

    def project(cvals: np.ndarray) -> np.ndarray:
        cvals = np.maximum(cvals, 1e-10)
        return cvals * (n / (cvals * sizes).sum(axis=1))[:, None]

    # per-block sums of each row: one bincount, each row in its own bins
    bins = block_of + p_dim * np.arange(_MULTI_STARTS)[:, None]

    def block_sums(w):
        rows = w.shape[0]
        return np.bincount(bins[:rows].ravel(), w.ravel(), rows * p_dim).reshape(rows, p_dim)

    def av_of(v):
        return np.matmul(a, v[:, :, None])[..., 0]

    if form == "lyap":
        def decode(cvals):
            da = cvals[:, block_of, None] * a
            return da + da.transpose(0, 2, 1)

        def grad(cvals, v):
            return block_sums(2.0 * v * av_of(v))
    else:
        eye = np.eye(n)

        def decode(cvals):
            d = cvals[:, block_of]
            return d[:, None, :] * eye - np.matmul(a.T, d[:, :, None] * a)

        def grad(cvals, v):
            av = av_of(v)
            return block_sums(v * v - av * av)

    result = _ascend(init_params, decode, grad, project, budget, rng)
    return result, lambda cvals: np.diag(project(cvals[None])[0, block_of])


def _block_spd_search(a: np.ndarray, part: Partition, budget: int,
                      rng: np.random.Generator):
    """Search over per-block Cholesky factors of a block-diagonal SPD
    witness; the blocks are visited in turn, the rows together."""
    n = a.shape[0]
    slots = []  # (block index array, local lower-triangular indices)
    offsets = [0]
    for block in part.blocks:
        nb = len(block)
        tril = np.tril_indices(nb)
        slots.append((np.asarray(block), tril))
        offsets.append(offsets[-1] + tril[0].size)
    p_dim = offsets[-1]

    def factors(p: np.ndarray):
        """(block indices, lower-triangular indices, parameter slice,
        stack of Cholesky factors) per block."""
        for (sel, tril), lo, hi in zip(slots, offsets, offsets[1:]):
            ell = np.zeros((p.shape[0], sel.size, sel.size))
            ell[:, tril[0], tril[1]] = p[:, lo:hi]
            yield sel, tril, slice(lo, hi), ell

    def decode_h(p: np.ndarray) -> np.ndarray:
        h = np.zeros((p.shape[0], n, n))
        for sel, _, _, ell in factors(p):
            h[:, sel[:, None], sel] = (ell @ ell.transpose(0, 2, 1)
                                       + 1e-12 * np.eye(sel.size))
        return h

    def init_params(start: int) -> np.ndarray:
        p = np.zeros(p_dim)
        for (sel, tril), lo, hi in zip(slots, offsets, offsets[1:]):
            nb = sel.size
            ell = np.eye(nb) if start == 0 else np.tril(
                rng.standard_normal((nb, nb))
            ) + nb * np.eye(nb)
            p[lo:hi] = ell[tril]
        return p

    def project(p: np.ndarray) -> np.ndarray:
        # the trace is positive: each block adds 1e-12 to its diagonal
        tr = np.trace(decode_h(p), axis1=1, axis2=2)
        return p * np.sqrt(n / tr)[:, None]

    def decode(p):
        ha = np.matmul(decode_h(p), a)
        return ha + ha.transpose(0, 2, 1)

    def grad(p, v):
        # dlambda/dH = v (A v)^T + (A v) v^T; chain through H = L L^T.
        av = np.matmul(a, v[:, :, None])[..., 0]
        gh = v[:, :, None] * av[:, None, :] + av[:, :, None] * v[:, None, :]
        g = np.zeros_like(p)
        for sel, tril, span, ell in factors(p):
            gl = 2.0 * np.ascontiguousarray(gh[:, sel[:, None], sel]) @ ell
            g[:, span] = gl[:, tril[0], tril[1]]
        return g

    def witness_of(p):
        h = decode_h(p[None])[0]
        return h * (n / np.trace(h))

    return _ascend(init_params, decode, grad, project, budget, rng), witness_of


def _form_search(a, kind: CertKind, partition: Partition | None, budget: int,
                 rng: np.random.Generator | None) -> CertReport:
    """Search ``kind``'s form over block-diagonal SPD witnesses for
    ``BLOCK_LYAPUNOV``, else over positive block-scalar diagonals on the
    blocks of ``partition`` (singletons, not recorded, when None).  The
    continuous form is searched on ``A`` scaled to unit Frobenius norm,
    so that found/not-found is invariant under positive scaling."""
    a = as_square_matrix(a)
    rng = np.random.default_rng(0) if rng is None else rng
    form = _PAIRINGS[kind].form
    norm = float(np.linalg.norm(a)) if form == "lyap" else 1.0
    if norm == 0.0:
        return CertReport(False, None, 0.0, 0)
    part = partition or Partition.from_sizes([1] * a.shape[0])
    if kind is CertKind.BLOCK_LYAPUNOV:
        result, witness_of = _block_spd_search(a / norm, part, budget, rng)
    else:
        result, witness_of = _block_scalar_search(a / norm, part, form, budget, rng)
    params, val, used = result
    if params is None or val <= FOUND_TOL:
        return CertReport(False, None, val * norm if params is not None else -np.inf, used)
    cert = _measured(Certificate(kind, witness_of(params), np.nan, partition=partition), a)
    return CertReport(True, cert, cert.min_eig, used)


def find_diagonal_lyapunov(a, budget: int = 5000,
                           rng: np.random.Generator | None = None) -> CertReport:
    """Search for a positive diagonal ``D`` making ``D A + A^T D``
    positive definite: the block-scalar search over singleton blocks."""
    return _form_search(a, CertKind.DIAGONAL_LYAPUNOV, None, budget, rng)


def find_stein_diagonal(a, budget: int = 5000,
                        rng: np.random.Generator | None = None) -> CertReport:
    """Search for a positive diagonal ``D`` making ``D - A^T D A``
    positive definite."""
    return _form_search(a, CertKind.STEIN_DIAGONAL, None, budget, rng)


def identity_witness_class(n: int) -> MatrixClass:
    """The singleton witness class containing only the identity."""
    return classes.explicit_list([np.eye(n)])


def find_structured_lyapunov(a, p_class: MatrixClass, budget: int = 5000,
                             rng: np.random.Generator | None = None) -> CertReport:
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
        s = a + a.T
        lam, found = float(np.linalg.eigvalsh(s)[0]), is_positive_definite(s)
        cert = Certificate(kind, np.eye(a.shape[0]), lam) if found else None
        return CertReport(found, cert, lam, 1)
    return _form_search(a, kind, p_class.partition, budget, rng)


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _entry(i: int, j: int) -> str:
    return f"a_{i + 1}{j + 1}" if max(i, j) < 9 else f"a_{i + 1},{j + 1}"


def _diagonal_screen(a: np.ndarray, partition) -> str | None:
    """The form ``D A + A^T D`` has diagonal ``2 d_i a_ii`` and 2x2
    principal minors ``4 d_i d_j (a_ii a_jj - a_ij a_ji) - (d_i a_ij -
    d_j a_ji)^2``, so a certificate needs every 1x1 and 2x2 principal
    minor of ``A`` positive.  Both tests are exact: a computed product
    is the exact one rounded, and rounding is monotone, so
    ``fl(a_ii a_jj) < fl(a_ij a_ji)`` proves ``a_ii a_jj < a_ij a_ji``.
    Returns the first failed condition, or None."""
    d = a.diagonal()
    if d.min() <= 0.0:
        i = int(np.argmax(d <= 0.0))
        return f"{_entry(i, i)} <= 0"
    with np.errstate(over="ignore"):  # an overflowed product stays ordered
        less = d[:, None] * d < a * a.T
    if less.any():
        i, j = np.argwhere(less)[0]
        return f"{_entry(i, i)}*{_entry(j, j)} < {_entry(i, j)}*{_entry(j, i)}"
    return None


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
    form: str  # "lyap": P A + A^T P, "stein": P - A^T P A, "hill": polynomial
    at: Callable  # (n, partition) -> (witness class, proven (region, class, op)s)
    search: Callable | None = None  # (a, witness class, budget, rng) -> CertReport
    screen: Callable | None = None  # (a, partition) -> failed condition | None


def _rhp(cls):
    # stability of G A and G + A for every G in the class
    return tuple((regions.right_half_plane(), cls, op) for op in (MUL, ADD))


def _structured(a, witness, budget, rng):
    return find_structured_lyapunov(a, witness, budget, rng)


#: Each kind's form, witness class, proven triples, search (None:
#: verified when supplied, never searched) and screen (None: no cheap
#: necessary condition known); the polynomial form pairs with no class
#: beyond the half-plane cases.  The searches look the finders up when
#: called, so that a replaced module attribute is called.
_PAIRINGS = {
    CertKind.DIAGONAL_LYAPUNOV: _Pairing("lyap", lambda n, p: (
        classes.pos_diag(n), _rhp(classes.pos_diag(n))),
        lambda a, w, budget, rng: find_diagonal_lyapunov(a, budget, rng),
        _diagonal_screen),
    CertKind.ALPHA_SCALAR_LYAPUNOV: _Pairing("lyap", lambda n, p: (
        classes.pos_alpha_scalar(p), _rhp(classes.alpha_block_spd(p))), _structured,
        _block_scalar_screen),
    CertKind.BLOCK_LYAPUNOV: _Pairing("lyap", lambda n, p: (
        classes.alpha_block_spd(p), _rhp(classes.pos_alpha_scalar(p))), _structured,
        _block_spd_screen),
    CertKind.IDENTITY_LYAPUNOV: _Pairing("lyap", lambda n, p: (
        identity_witness_class(n), _rhp(classes.spd(n))), _structured),
    CertKind.STEIN_DIAGONAL: _Pairing("stein", lambda n, p: (
        classes.pos_diag(n), tuple((regions.unit_disk(), c, MUL) for c in (
            classes.vertex_diag(n), classes.box_diag([-1.0] * n, [1.0] * n)))),
        lambda a, w, budget, rng: find_stein_diagonal(a, budget, rng)),
    CertKind.SYMMETRIC_INDEFINITE: _Pairing("lyap", lambda n, p: (classes.symmetric(n), ())),
    CertKind.HILL: _Pairing("hill", lambda n, p: (classes.spd(n), ())),
}


@functools.lru_cache(maxsize=1024)
def _at(kind: CertKind, n: int, partition: Partition | None):
    """``kind``'s witness class and proven triples, built once: both hold
    immutable values only."""
    return _PAIRINGS[kind].at(n, partition)


#: The structured searches' kinds by witness class kind, and the searched
#: kinds by the (region, class, op) kinds of each triple (no two share one).
_BY_WITNESS = {_at(k, 1, Partition(((0,),)))[0].kind: k
               for k, pair in _PAIRINGS.items() if pair.search is _structured}
_BY_TRIPLE = {(r.kind, c.kind, o.kind): k for k, pair in _PAIRINGS.items() if pair.search
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


def _search(kind: CertKind, a, partition: Partition | None, budget: int,
            rng: np.random.Generator | None) -> CertReport:
    """Run ``kind``'s search; block kinds take the blocks of ``partition``."""
    return _PAIRINGS[kind].search(a, _at(kind, len(a), partition)[0], budget, rng)


def search_for_triple(a, region: regions.Region, cls: MatrixClass, op,
                      budget: int = 5000,
                      rng: np.random.Generator | None = None) -> CertReport | None:
    """Search for a certificate of the kind whose proven triples cover
    (region, cls, op), with the witness blocks of ``cls``; None when no
    searched kind proves the triple.  The kind's screen runs first: when
    it rejects, no search runs and the report's ``reason`` says why."""
    kind = _BY_TRIPLE.get((region.kind, cls.kind, op.kind))
    if kind is None or not _triple_covered(
            region, cls, op, _at(kind, cls.order, cls.partition)[1]):
        return None
    screen = _PAIRINGS[kind].screen
    failed = screen and screen(as_square_matrix(a), cls.partition)
    if failed:
        return CertReport(False, None, -np.inf, 0,
                          f"no {kind.value} certificate exists: {failed}")
    return _search(kind, a, cls.partition, budget, rng)


def _forms(kind: CertKind, coeffs, p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The quadratic forms of ``kind`` for the stacked witnesses ``p`` at
    the stacked matrices ``a``; each matrix of the stack is computed as it
    would be alone."""
    form = getattr(_PAIRINGS.get(kind), "form", None)
    if form == "lyap":
        return p @ a + a.swapaxes(1, 2) @ p
    if form == "stein":
        return p - a.swapaxes(1, 2) @ p @ a
    if form == "hill":
        # the polynomial form proves no triple, so only verify_certificate
        # checks it, for one witness
        assert len(p) == 1, "the polynomial form is checked one witness at a time"
        return hill_form(np.array(coeffs, dtype=float), p[0], a[0])[None]
    raise ValueError(f"no closed form for certificate kind {kind.value}")


def certified_form(cert: Certificate, a) -> np.ndarray:
    """Recompute the quadratic form the certificate claims to be
    positive definite."""
    p = np.asarray(cert.witness)[None]
    return _forms(cert.kind, cert.coeffs, p, as_square_matrix(a)[None])[0]


def _measured(cert: Certificate, a) -> Certificate:
    """``cert`` with ``min_eig`` the smallest eigenvalue of its form at
    ``a``."""
    return replace(cert, min_eig=float(np.linalg.eigvalsh(certified_form(cert, a))[0]))


def _paired(cert: Certificate):
    """The witness class and proven triples of a non-exhaustive
    certificate, or None when it lacks its witness or, for a block
    kind, its partition."""
    if cert.witness is None or (cert.partition is None and cert.kind in (
            CertKind.ALPHA_SCALAR_LYAPUNOV, CertKind.BLOCK_LYAPUNOV)):
        return None
    return _at(cert.kind, cert.witness.shape[0], cert.partition)


class Exhaustion(NamedTuple):
    hit: tuple[int, np.ndarray, complex, float] | None
    checked: int
    boundary: bool
    min_score: float


def exhaust(a, region: regions.Region, cls: MatrixClass, op, tol: float) -> Exhaustion:
    """Check ``G o A`` against the region for the members ``G`` of the
    finite class ``cls`` in enumeration order, 256 to a stack, up to the
    first that exits by more than ``tol`` (``regions.first_exit``).  The
    ``hit`` is that exit as (member index, member, eigenvalue, margin), or
    None; without one, ``checked`` counts the members, ``boundary`` says
    whether one of them left an eigenvalue off the interior, and
    ``min_score`` is their eigenvalues' smallest interior score."""
    members = classes.enumerate_members(cls)
    checked, boundary, min_score = 0, False, np.inf
    while chunk := list(itertools.islice(members, 256)):
        stack = np.stack(chunk)
        ws = np.linalg.eigvals(algebra.apply(op, stack, a))
        hit = regions.first_exit(region, ws, tol)
        if hit is not None:
            j, lam, margin = hit
            return Exhaustion((checked + j, stack[j], lam, margin), checked, boundary,
                              min_score)
        flat = ws.ravel()
        boundary = boundary or not regions.spectrum_in_region(region, flat)
        min_score = min(min_score, float(regions.interior_scores(region, flat).min()))
        checked += len(stack)
    return Exhaustion(None, checked, boundary, min_score)


def _verified(cert: Certificate, p: np.ndarray, partitions, a: np.ndarray):
    """The one check of non-exhaustive certificates: for the stacked
    witnesses ``p`` of ``cert``'s kind (with ``partitions``, one per
    witness) at the stacked matrices ``a``, the mask of those in their
    witness class whose form is positive definite, and the forms.  A
    witness fails alone: a form that is not finite or not symmetric
    rejects only its own matrix."""
    k = a.shape[1]
    ok = np.array([classes.contains(_at(cert.kind, k, part)[0], w)
                   for w, part in zip(p, partitions)], dtype=bool)
    # a form that overflows is rejected as non-finite, silently
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            forms = _forms(cert.kind, cert.coeffs, p, a)
        except (NonSymmetricError, ValueError, OverflowError):
            # only the polynomial form raises, and it comes one witness
            # at a time
            return np.zeros(len(p), dtype=bool), np.full_like(p, np.nan)
        ok &= are_positive_definite(forms)
    return ok, forms


def verify_certificate(cert: Certificate, a) -> bool:
    """Recompute the certified form and check it independently of the
    search path: witness class membership plus positive definiteness,
    the stack of one of the check that ``restrict_certificate`` runs.
    An exhaustive certificate verifies when ``exhaust`` finds every
    eigenvalue interior, over the same number of members; it verifies
    only over a finite class."""
    a = as_square_matrix(a)
    if cert.kind is CertKind.EXHAUSTIVE:
        if cert.triple is None or not cert.triple[1].is_finite:
            return False
        # an exit beyond tol 0 also puts an eigenvalue off the interior
        r = exhaust(a, *cert.triple, 0.0)
        return r.hit is None and not r.boundary and (
            cert.members_checked is None or r.checked == cert.members_checked)
    if cert.witness is None or cert.witness.shape != a.shape or _paired(cert) is None:
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
    Else None."""
    if not (verify_certificate(cert, a) and _triple_covered(
            region, cls, op, implied_stabilities(cert))):
        return None
    return cert if cert.kind is CertKind.EXHAUSTIVE else _measured(cert, a)


def restrict_certificate(cert: Certificate, idx, a, region: regions.Region,
                         sub_classes, op) -> list[Certificate | None]:
    """The certificates that ``cert`` restricts to on the principal
    submatrices of one order k: ``idx`` holds one row of k ascending
    indices per submatrix, ``a`` the ``(m, k, k)`` stack of those
    submatrices and ``sub_classes`` their m restricted classes.  Row i's
    certificate is the witness's principal submatrix on ``idx[i]``,
    scaled to trace k as the searches normalize, with the partition
    restricted as the class is and ``min_eig`` measured at ``a[i]``; it
    is None unless it proves the triple (region, ``sub_classes[i]``, op) at
    ``a[i]``, as ``proves`` would decide it alone.  The witness
    membership and the triple coverage are checked row by row; the
    forms, their definiteness test and their smallest eigenvalues are
    computed on the stack, each row bit for bit as alone.

    A certificate of the full matrix's triple restricts to one of the
    restricted class's for the diagonal, block-scalar, identity and
    Stein-diagonal kinds, and for a block SPD witness when ``idx[i]``
    splits no block: ``(P A)[idx] = P[idx] A[idx]`` for such ``P``, and
    a positive diagonal ``P`` gives ``P[idx] - A[idx]^T P[idx] A[idx] >=
    (P - A^T P A)[idx]``."""
    idx = np.asarray(idx)
    out: list[Certificate | None] = [None] * len(idx)
    if _paired(cert) is None:
        return out
    k = idx.shape[1]
    p = cert.witness[idx[:, :, None], idx[:, None, :]]
    trace = np.trace(p, axis1=1, axis2=2)
    parts = [None if cert.partition is None else cert.partition.restrict(i)
             for i in idx.tolist()]
    rows = np.array([i for i in range(len(idx)) if trace[i] > 0.0 and _triple_covered(
        region, sub_classes[i], op, _at(cert.kind, k, parts[i])[1])], dtype=int)
    if not rows.size:
        return out
    w = p[rows] * (k / trace[rows])[:, None, None]
    ok, forms = _verified(cert, w, [parts[i] for i in rows], a[rows])
    if ok.any():
        for i, wi, lam in zip(rows[ok], w[ok], np.linalg.eigvalsh(forms[ok])[:, 0]):
            out[i] = replace(cert, witness=wi, partition=parts[i], min_eig=float(lam))
    return out
