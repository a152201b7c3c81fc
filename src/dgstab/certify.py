"""Sufficiency certificates for region/class/operation stability.

A certificate is a structured positive definite matrix ``P`` making a
quadratic form built from the target matrix positive definite:

* diagonal / block-scalar / block / identity witnesses for the
  continuous form ``P A + A^T P`` (right-half-plane region), and
* positive diagonal witnesses for the discrete form ``D - A^T D A``
  (unit-disk region).

A found certificate proves stability for every class member of the
associated triples (see ``implied_stabilities``); a failed search
proves nothing.  The searches maximize the smallest eigenvalue of the
form by projected subgradient ascent over the witness parametrization
with trace normalization and multi-starts.  One positive
block-scalar diagonal search serves the diagonal, block-scalar and
Stein forms (a plain diagonal is the all-singleton partition); the
block-diagonal SPD witness has its own Cholesky parametrization.  This
is a self-contained heuristic, deliberately chosen over an external
semidefinite solver: ``NotFound`` is always inconclusive.

The multi-starts of a search advance together as one stack of
parameter rows, one batched ``eigh`` per iteration; the sequential
stopping rule (budget, stall count, ``FOUND_TOL``, start order) is
replayed on the recorded values, so a search reports what running its
starts one after another would.  The generator is left in a different
state, though: once start 0's first iterate fails, every start's
parameters are drawn, reached by the replay or not.  Run several
searches concurrently by passing split generator streams.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, classes, regions
from .algebra import ADD, MUL
from .classes import ClassKind, MatrixClass, Partition
from .errors import NonSymmetricError, UnsupportedClassError
from .linalg import as_square_matrix, hill_form, is_positive_definite

__all__ = [
    "CertKind",
    "Certificate",
    "CertReport",
    "find_diagonal_lyapunov",
    "find_stein_diagonal",
    "find_structured_lyapunov",
    "verify_certificate",
    "implied_stabilities",
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
    Each lockstep iteration is one batched ``eigh``; each row keeps its
    own iteration count ``t`` and step ``0.5/sqrt(t)``.  Start 0's first
    iterate is evaluated alone, and the other starts are drawn, in start
    order, only if it does not certify.

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
    p = project(init_params(0)[None])
    vals, vecs = np.linalg.eigh(decode(p))
    if vals[0, 0] > FOUND_TOL:
        return p[0], float(vals[0, 0]), 1

    per_start = max(budget // _MULTI_STARTS, 1)
    n_starts = min(_MULTI_STARTS, budget)
    # lams[j, s] is start s's min_eig at lockstep iteration j (start 0
    # is one iterate ahead of the others; the replay reads only what was
    # written); it doubles as the iterations run need it.  kept[j] holds
    # the starts that improved on their best at iteration j, with their
    # params.
    lams = np.empty((min(per_start + 1, 1024), n_starts))
    kept = {}
    steps = np.zeros(n_starts, dtype=int)  # iterates evaluated per start
    rows = np.zeros(1, dtype=int)  # the start of each live row, ascending
    t = np.zeros(1, dtype=int)
    # prior is the replayed best of the finished starts, a lower bound
    # of the running best each live start's sequential stall count is
    # taken against; best and last_up are taken against it too
    prior = -np.inf
    best = np.full(1, -np.inf)
    last_up = np.zeros(1, dtype=int)
    fresh = range(1, n_starts)  # drawn once start 0's first iterate fails
    for j in itertools.count():
        lam, v = vals[:, 0], _min_eig_vecs(vals, vecs, rng)
        t += 1
        if j == len(lams):
            lams = np.concatenate([lams, np.empty_like(lams)])
        lams[j, rows] = lam
        up = lam > best
        best = np.where(up, lam, best)
        last_up = np.where(up, t, last_up)
        if up.any():
            kept[j] = rows[up], p[up]
        g = grad(p, v)
        norm = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
        go = ((t < per_start) & (t - last_up <= STALL_LIMIT)
              & (lam <= FOUND_TOL) & ~(norm < 1e-15))
        if not go.all():
            steps[rows[~go]] = t[~go]
            first_live = rows[0]
            rows, t, best, last_up = rows[go], t[go], best[go], last_up[go]
            p, g, norm = p[go], g[go], norm[go]
            if rows.size and rows[0] > first_live:
                prior = _replay(lams, steps, rows[0])[0]
                if prior > FOUND_TOL:
                    break  # the sequential run never reaches the live starts
                for i, s in enumerate(rows):
                    x = lams[int(s > 0) : int(s > 0) + t[i], s]
                    ups = np.flatnonzero(_ups(x, prior))
                    best[i] = max(prior, x.max())
                    last_up[i] = ups[-1] + 1 if ups.size else 0
        p = project(p + ((0.5 / np.sqrt(t))[:, None] * g) / norm[:, None])
        if fresh:
            new = len(fresh)
            rows = np.concatenate([rows, fresh])
            t = np.concatenate([t, np.zeros(new, dtype=int)])
            best = np.concatenate([best, np.full(new, prior)])
            last_up = np.concatenate([last_up, np.zeros(new, dtype=int)])
            p = np.concatenate([p, project(np.stack([init_params(s) for s in fresh]))])
            fresh = ()
        if rows.size == 0:
            break
        vals, vecs = np.linalg.eigh(decode(p))
    best_val, best_at, used = _replay(lams, steps, n_starts)
    if best_at is None:
        return None, best_val, used
    s, j = best_at
    starts, params = kept[j]
    return params[np.flatnonzero(starts == s)[0]], best_val, used


def _ups(x, prior):
    """Where each of the values ``x`` beats the running best from
    ``prior``."""
    return x > np.maximum.accumulate(np.concatenate(([prior], x[:-1])))


def _replay(lams, steps, n):
    """Run the sequential stopping rule over the recorded ``min_eig``
    values of starts ``0..n-1`` in start order: (best value, start and
    lockstep iteration of the best or None, iterations used).  The
    starts' shares never sum past the budget."""
    best_val, best_at, used = -np.inf, None, 0
    for s in range(n):
        first = int(s > 0)  # lockstep iteration of the start's first iterate
        x = lams[first : first + steps[s], s]
        up = _ups(x, best_val)
        idx = np.arange(x.size)
        stall = idx - np.maximum.accumulate(np.where(up, idx, -1))
        stop = np.flatnonzero((x > FOUND_TOL) | (stall > STALL_LIMIT))
        end = int(stop[0]) + 1 if stop.size else x.size
        used += end
        ups = np.flatnonzero(up[:end])
        if ups.size:
            best_val, best_at = float(x[ups[-1]]), (s, first + ups[-1])
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


def _report(kind: CertKind, a: np.ndarray, result, witness_of, scale: float = 1.0,
            partition: Partition | None = None) -> CertReport:
    """Report an ascent result.  A witness clearing ``FOUND_TOL`` becomes
    a certificate whose ``min_eig`` is recomputed from the certified
    form at ``a``; otherwise the best value is reported times ``scale``
    (the norm the search divided ``a`` by)."""
    params, val, used = result
    if params is None or val <= FOUND_TOL:
        return CertReport(False, None, val * scale if params is not None else -np.inf, used)
    cert = Certificate(kind, witness_of(params), np.nan, partition=partition)
    min_eig = float(np.linalg.eigvalsh(certified_form(cert, a))[0])
    return CertReport(True, replace(cert, min_eig=min_eig), min_eig, used)


def _lyapunov_search(a: np.ndarray, kind: CertKind, part: Partition, budget: int,
                     rng: np.random.Generator) -> CertReport:
    """Continuous-form search on ``A`` scaled to unit Frobenius norm, so
    that the found/not-found outcome is exactly invariant under positive
    scaling of ``A``; the reported ``min_eig`` refers to the original
    matrix."""
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return CertReport(False, None, 0.0, 0)
    if kind is CertKind.BLOCK_LYAPUNOV:
        result, witness_of = _block_spd_search(a / norm, part, budget, rng)
    else:
        result, witness_of = _block_scalar_search(a / norm, part, "lyap", budget, rng)
    partition = None if kind is CertKind.DIAGONAL_LYAPUNOV else part
    return _report(kind, a, result, witness_of, norm, partition)


def find_diagonal_lyapunov(a, budget: int = 5000,
                           rng: np.random.Generator | None = None) -> CertReport:
    """Search for a positive diagonal ``D`` making ``D A + A^T D``
    positive definite: the block-scalar search over singleton blocks."""
    a = as_square_matrix(a)
    rng = np.random.default_rng(0) if rng is None else rng
    singletons = Partition.from_sizes([1] * a.shape[0])
    return _lyapunov_search(a, CertKind.DIAGONAL_LYAPUNOV, singletons, budget, rng)


def find_stein_diagonal(a, budget: int = 5000,
                        rng: np.random.Generator | None = None) -> CertReport:
    """Search for a positive diagonal ``D`` making ``D - A^T D A``
    positive definite."""
    a = as_square_matrix(a)
    rng = np.random.default_rng(0) if rng is None else rng
    singletons = Partition.from_sizes([1] * a.shape[0])
    result, witness_of = _block_scalar_search(a, singletons, "stein", budget, rng)
    return _report(CertKind.STEIN_DIAGONAL, a, result, witness_of)


def _is_identity_singleton(p_class: MatrixClass) -> bool:
    if p_class.kind is not ClassKind.EXPLICIT_LIST:
        return False
    eye = np.eye(p_class.order)
    return all(
        np.array_equal(np.array(m, dtype=float), eye) for m in p_class.members
    )


def identity_witness_class(n: int) -> MatrixClass:
    """The singleton witness class containing only the identity."""
    return classes.explicit_list([np.eye(n)])


#: Certificate kind found by searching each parametrized witness class.
_SEARCH_KINDS = {
    ClassKind.POS_ALPHA_SCALAR: CertKind.ALPHA_SCALAR_LYAPUNOV,
    ClassKind.ALPHA_BLOCK_SPD: CertKind.BLOCK_LYAPUNOV,
}


def find_structured_lyapunov(a, p_class: MatrixClass, budget: int = 5000,
                             rng: np.random.Generator | None = None) -> CertReport:
    """Search the continuous form over a structured witness class.

    Supported parametrizations: positive block-scalar diagonals,
    block-diagonal SPD matrices, and the identity singleton (a single
    definiteness test of ``A + A^T``).  Anything else raises
    ``UnsupportedClassError``.
    """
    a = as_square_matrix(a)
    rng = np.random.default_rng(0) if rng is None else rng
    if a.shape[0] != p_class.order:
        raise UnsupportedClassError("witness class order does not match matrix")

    if _is_identity_singleton(p_class):
        s = a + a.T
        lam = float(np.linalg.eigvalsh(s)[0])
        if is_positive_definite(s):
            cert = Certificate(CertKind.IDENTITY_LYAPUNOV, np.eye(a.shape[0]), lam)
            return CertReport(True, cert, lam, 1)
        return CertReport(False, None, lam, 1)

    kind = _SEARCH_KINDS.get(p_class.kind)
    if kind is None:
        raise UnsupportedClassError(
            f"no search parametrization for witness class {p_class.kind.value}"
        )
    return _lyapunov_search(a, kind, p_class.partition, budget, rng)


def certified_form(cert: Certificate, a) -> np.ndarray:
    """Recompute the quadratic form the certificate claims to be
    positive definite."""
    a = as_square_matrix(a)
    p = cert.witness
    if cert.kind in (
        CertKind.DIAGONAL_LYAPUNOV,
        CertKind.ALPHA_SCALAR_LYAPUNOV,
        CertKind.BLOCK_LYAPUNOV,
        CertKind.IDENTITY_LYAPUNOV,
        CertKind.SYMMETRIC_INDEFINITE,
    ):
        return p @ a + a.T @ p
    if cert.kind is CertKind.STEIN_DIAGONAL:
        return p - a.T @ p @ a
    if cert.kind is CertKind.HILL:
        return hill_form(np.array(cert.coeffs, dtype=float), p, a)
    raise ValueError(f"no closed form for certificate kind {cert.kind.value}")


def _witness_ok(cert: Certificate) -> bool:
    w = cert.witness
    n = w.shape[0]
    if cert.kind in (CertKind.DIAGONAL_LYAPUNOV, CertKind.STEIN_DIAGONAL):
        return classes.contains(classes.pos_diag(n), w)
    if cert.kind is CertKind.ALPHA_SCALAR_LYAPUNOV:
        return classes.contains(classes.pos_alpha_scalar(cert.partition), w)
    if cert.kind is CertKind.BLOCK_LYAPUNOV:
        return classes.contains(classes.alpha_block_spd(cert.partition), w)
    if cert.kind is CertKind.IDENTITY_LYAPUNOV:
        return bool(np.allclose(w, np.eye(n), atol=1e-12))
    if cert.kind is CertKind.SYMMETRIC_INDEFINITE:
        return classes.contains(classes.symmetric(n), w)
    if cert.kind is CertKind.HILL:
        return classes.contains(classes.spd(n), w)
    raise AssertionError(cert.kind)


def verify_certificate(cert: Certificate, a) -> bool:
    """Recompute the certified form and check it independently of the
    search path: witness class membership plus positive definiteness.
    Exhaustive certificates re-run the member check, 256 members to a
    stack as in the enumeration stage."""
    a = as_square_matrix(a)
    if cert.kind is CertKind.EXHAUSTIVE:
        if cert.triple is None:
            return False
        region, cls, op = cert.triple
        members = classes.enumerate_members(cls)
        count = 0
        while stack := list(itertools.islice(members, 256)):
            ws = np.linalg.eigvals(algebra.apply(op, np.stack(stack), a))
            if not regions.spectrum_in_region(region, ws.ravel()):
                return False
            count += len(stack)
        return cert.members_checked is None or count == cert.members_checked
    if cert.witness is None or cert.witness.shape != a.shape:
        return False
    if not _witness_ok(cert):
        return False
    # a form that overflows is rejected below as non-finite, silently
    with np.errstate(over="ignore", invalid="ignore"):
        form = certified_form(cert, a)
        try:
            return is_positive_definite(form)
        except (NonSymmetricError, ValueError):
            return False


def implied_stabilities(cert: Certificate) -> list[tuple]:
    """The (region, class, operation) triples the certificate proves.

    Diagonal witnesses prove stability against positive diagonals under
    both multiplication and addition; block-scalar witnesses against
    block-supported SPD classes and vice versa; the identity witness
    against the full SPD class (multiplication and addition); discrete
    diagonal witnesses prove unit-disk stability against vertex
    diagonals and the box of diagonals with entries in (-1, 1).
    Polynomial-form certificates for general regions imply no triple.
    """
    rhp = regions.right_half_plane()
    if cert.kind is CertKind.EXHAUSTIVE:
        return [cert.triple] if cert.triple is not None else []
    if cert.kind in (CertKind.HILL, CertKind.SYMMETRIC_INDEFINITE):
        # no class-quantified consequence: the polynomial-form witness
        # pairs with no known class beyond the half-plane cases, and
        # the indefinite witness only certifies the target matrix's own
        # spectrum (plus the eigenvalue-count match of the two).
        return []
    n = cert.witness.shape[0]
    if cert.kind is CertKind.DIAGONAL_LYAPUNOV:
        cls = classes.pos_diag(n)
        return [(rhp, cls, MUL), (rhp, cls, ADD)]
    if cert.kind is CertKind.ALPHA_SCALAR_LYAPUNOV:
        cls = classes.alpha_block_spd(cert.partition)
        return [(rhp, cls, MUL), (rhp, cls, ADD)]
    if cert.kind is CertKind.BLOCK_LYAPUNOV:
        cls = classes.pos_alpha_scalar(cert.partition)
        return [(rhp, cls, MUL), (rhp, cls, ADD)]
    if cert.kind is CertKind.IDENTITY_LYAPUNOV:
        cls = classes.spd(n)
        return [(rhp, cls, MUL), (rhp, cls, ADD)]
    if cert.kind is CertKind.STEIN_DIAGONAL:
        disk = regions.unit_disk()
        return [
            (disk, classes.vertex_diag(n), MUL),
            (disk, classes.box_diag([-1.0] * n, [1.0] * n), MUL),
        ]
    raise AssertionError(cert.kind)
