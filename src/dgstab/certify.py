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

Searches are sequential per call; run several concurrently by passing
split generator streams.
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


def _min_eig_vec(s: np.ndarray, rng: np.random.Generator):
    """Smallest eigenvalue of symmetric ``s`` and a unit vector in its
    eigenspace; degenerate eigenspaces get a random direction."""
    vals, vecs = np.linalg.eigh(s)
    lam = vals[0]
    span = max(vals[-1] - vals[0], 1.0)
    degenerate = np.flatnonzero(vals <= lam + 1e-10 * span)
    if degenerate.size > 1:
        w = rng.standard_normal(degenerate.size)
        v = vecs[:, degenerate] @ w
        v /= np.linalg.norm(v)
    else:
        v = vecs[:, 0]
    return float(lam), v


def _ascend(init_params, decode, grad, project, budget: int,
            rng: np.random.Generator):
    """Shared projected subgradient ascent over witness parameters.

    ``decode`` maps parameters to the witness matrix, ``grad`` gives the
    subgradient of the form's smallest eigenvalue at (params, v),
    ``project`` re-normalizes parameters.  Returns the best
    (params, min_eig, iterations used).
    """
    best_p = None
    best_val = -np.inf
    used = 0
    per_start = max(budget // _MULTI_STARTS, 1)
    for start in range(_MULTI_STARTS):
        if used >= budget:
            break
        p = project(init_params(start))
        stall = 0
        t = 0
        while used < budget and t < per_start:
            t += 1
            used += 1
            s = decode(p)
            lam, v = _min_eig_vec(s, rng)
            if lam > best_val:
                best_val = lam
                best_p = p.copy()
                stall = 0
            else:
                stall += 1
            if best_val > FOUND_TOL or stall > STALL_LIMIT:
                break
            g = grad(p, v)
            norm = np.linalg.norm(g)
            if norm < 1e-15:
                break
            p = project(p + (0.5 / np.sqrt(t)) * g / norm)
        if best_val > FOUND_TOL:
            break
    return best_p, best_val, used


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
        return cvals * (n / np.sum(cvals * sizes))

    if form == "lyap":
        def decode(cvals):
            da = cvals[block_of][:, None] * a
            return da + da.T

        def grad(cvals, v):
            return np.bincount(block_of, 2.0 * v * (a @ v), p_dim)
    else:
        def decode(cvals):
            d = cvals[block_of]
            return np.diag(d) - a.T @ (d[:, None] * a)

        def grad(cvals, v):
            av = a @ v
            return np.bincount(block_of, v * v - av * av, p_dim)

    result = _ascend(init_params, decode, grad, project, budget, rng)
    return result, lambda cvals: np.diag(project(cvals)[block_of])


def _block_spd_search(a: np.ndarray, part: Partition, budget: int,
                      rng: np.random.Generator):
    """Search over per-block Cholesky factors of a block-diagonal SPD
    witness."""
    n = a.shape[0]
    slots = []  # (block index array, local lower-triangular indices)
    offsets = [0]
    for block in part.blocks:
        nb = len(block)
        tril = np.tril_indices(nb)
        slots.append((np.asarray(block), tril))
        offsets.append(offsets[-1] + tril[0].size)
    p_dim = offsets[-1]

    def decode_h(p: np.ndarray) -> np.ndarray:
        h = np.zeros((n, n))
        for (sel, tril), lo, hi in zip(slots, offsets, offsets[1:]):
            nb = sel.size
            ell = np.zeros((nb, nb))
            ell[tril] = p[lo:hi]
            h[np.ix_(sel, sel)] = ell @ ell.T + 1e-12 * np.eye(nb)
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
        h = decode_h(p)
        tr = np.trace(h)
        if tr <= 0:
            return init_params(1)
        return p * np.sqrt(n / tr)

    def decode(p):
        h = decode_h(p)
        ha = h @ a
        return ha + ha.T

    def grad(p, v):
        # dlambda/dH = v (A v)^T + (A v) v^T; chain through H = L L^T.
        av = a @ v
        gh = np.outer(v, av) + np.outer(av, v)
        g = np.zeros(p_dim)
        for (sel, tril), lo, hi in zip(slots, offsets, offsets[1:]):
            nb = sel.size
            ell = np.zeros((nb, nb))
            ell[tril] = p[lo:hi]
            gl = 2.0 * gh[np.ix_(sel, sel)] @ ell
            g[lo:hi] = gl[tril]
        return g

    def witness_of(p):
        h = decode_h(p)
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
