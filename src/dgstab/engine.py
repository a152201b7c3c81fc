"""The verdict engine.

A query asks whether the spectrum of ``G o A`` stays inside a region
for *every* member ``G`` of a matrix class.  The property is
universally quantified over an (almost always) infinite class, so the
engine returns a three-valued verdict:

* ``CERTIFIED`` -- a checkable sufficiency witness was found (a
  structured definiteness certificate, or exhaustion of a finite
  class);
* ``REFUTED``  -- a concrete class member was found whose product /
  sum pushes an eigenvalue strictly outside the region;
* ``UNKNOWN``  -- neither, within the trial budget.

``decide`` runs one sequence of stages, cheapest necessary conditions
first, and stops at the first definite answer:

1. unbounded-class escape for bounded regions;
2. the identity-element necessary check;
3. exact enumeration, for finite classes only, whose verdict is final
   (an inconclusive one means boundary eigenvalues, which block every
   verdict);
4. the certificate stage, for infinite classes: search the form whose
   proven triples cover the query (``certify.search_for_triple``), then
   re-verify the certificate independently;
5. randomized falsification, for infinite classes.

Every REFUTED verdict, from whichever stage or from a verdict
transfer, is built by one constructor.  Verdicts are deterministic
functions of the query (including its seed).

Falsification trials are evaluated in fixed-size chunks with generator
streams spawned per chunk, and the first witness in chunk order wins;
results are therefore reproducible regardless of how many worker
threads evaluate the chunks (``DGSTAB_THREADS`` caps the pool).
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import algebra, certify, classes, regions
from .algebra import BinaryOp, OpKind
from .certify import CertKind, Certificate
from .classes import ClassKind, MatrixClass, Partition
from .errors import OrderTooLargeError, SingularOperatorError, UnrepresentableError
from .linalg import as_square_matrix, principal_submatrix

__all__ = [
    "Query",
    "Verdict",
    "VerdictStatus",
    "check_region_stability",
    "decide",
    "falsify",
    "StabilizeReport",
    "stabilize",
    "TotalStabilityReport",
    "total_stability",
    "InertiaPreservationReport",
    "inertia_preserving",
    "TransformKind",
    "Transform",
    "transform_matrix",
    "transform_query",
    "transfer_verdict",
]

_CHUNK = 512
_CERT_BUDGET = 5000


class VerdictStatus(enum.Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class Query:
    a: np.ndarray
    region: regions.Region
    cls: MatrixClass
    op: BinaryOp
    budget: int = 10_000
    seed: int = 42
    tol: float = 1e-7

    def __post_init__(self):
        object.__setattr__(self, "a", as_square_matrix(self.a))
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.a.shape[0] != self.cls.order:
            raise ValueError("matrix order does not match class order")


@dataclass(eq=False)
class Verdict:
    status: VerdictStatus
    certificate: Certificate | None = None
    witness: np.ndarray | None = None
    offending_eigenvalue: complex | None = None
    margin: float | None = None
    trials_used: int = 0
    provenance: tuple[str, ...] = ()


def check_region_stability(a, region: regions.Region) -> bool:
    """Whether the spectrum of ``a`` lies inside the region."""
    return regions.spectrum_in_region(region, np.linalg.eigvals(as_square_matrix(a)))


def _worst_eigenvalue(region, w) -> tuple[complex, float]:
    """The eigenvalue of the spectrum ``w`` with the largest exterior
    margin, and that margin."""
    margins = regions.exterior_margins(region, w)
    i = int(np.argmax(margins))
    return complex(w[i]), float(margins[i])


# ---------------------------------------------------------------------------
# falsification


def _first_hit(margins: np.ndarray, tol: float) -> tuple[int, int] | None:
    """(row, column) of the worst eigenvalue in the first row of
    ``margins`` with an exterior margin beyond ``tol``, or None."""
    hits = np.flatnonzero(margins.max(axis=1) > tol)
    if not hits.size:
        return None
    j = int(hits[0])
    return j, int(np.argmax(margins[j]))


def _refuted(g, lam: complex, margin: float, note: str, provenance=(),
             trials_used: int = 0) -> Verdict:
    """The REFUTED verdict for witness ``g`` whose composition has the
    eigenvalue ``lam`` at exterior ``margin``."""
    return Verdict(VerdictStatus.REFUTED, witness=g, offending_eigenvalue=lam,
                   margin=margin, trials_used=trials_used,
                   provenance=tuple(provenance) + (note,))


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("DGSTAB_THREADS", "1")))
    except ValueError:
        return 1


def falsify(q: Query) -> Verdict:
    """Randomized counterexample search over the class.

    Trials run in chunks of ``_CHUNK``, each drawn from its own spawned
    generator stream, so the first witness in chunk order is the same
    for every thread count.  Returns ``REFUTED`` with that witness or
    ``UNKNOWN`` with the number of trials spent.
    """
    a, region, cls, op, budget, tol = q.a, q.region, q.cls, q.op, q.budget, q.tol
    n_chunks = math.ceil(budget / _CHUNK)
    children = np.random.SeedSequence(q.seed).spawn(3)[2].spawn(n_chunks)

    def eval_chunk(i: int):
        count = min(_CHUNK, budget - i * _CHUNK)
        rng = np.random.default_rng(children[i])
        gs = classes.sample_batch(cls, rng, count)
        ms = algebra.apply(op, gs, a)
        ws = np.linalg.eigvals(ms)
        margins = regions.exterior_margins(region, ws.ravel()).reshape(count, -1)
        hit = _first_hit(margins, tol)
        if hit is None:
            return None
        j, lam = hit
        return (j, gs[j], complex(ws[j, lam]), float(margins[j, lam]))

    threads = _thread_count()
    window = threads * 4
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        chunk_map = map if pool is None else pool.map
        for lo in range(0, n_chunks, window):
            hi = min(lo + window, n_chunks)
            for i, res in zip(range(lo, hi), chunk_map(eval_chunk, range(lo, hi))):
                if res is not None:
                    j, g, lam, margin = res
                    used = i * _CHUNK + j + 1
                    return _refuted(g, lam, margin,
                                    f"falsification found witness after {used} trials",
                                    trials_used=used)
    return Verdict(
        VerdictStatus.UNKNOWN,
        trials_used=budget,
        provenance=(f"falsification exhausted {budget} trials",),
    )


# ---------------------------------------------------------------------------
# decide pipeline


def _unboundedness_escape(q: Query, rng) -> Verdict | None:
    """For a bounded region and an unbounded class, scale a sampled
    member upward until an eigenvalue exits; produces a concrete
    witness rather than a bare impossibility claim."""
    if not (q.region.is_bounded and q.cls.is_unbounded
            and q.cls.closed_under_positive_scaling):
        return None
    if q.op.kind is OpKind.HADAMARD:
        return None
    if q.op.kind is OpKind.MUL and algebra.op_inverse(q.op, q.a) is None:
        return None
    for _ in range(8):
        g0 = classes.sample(q.cls, rng)
        for k in range(61):
            g = (2.0 ** k) * g0
            if not classes.contains(q.cls, g, 1e-7):
                break
            w = np.linalg.eigvals(algebra.apply(q.op, g, q.a))
            lam, margin = _worst_eigenvalue(q.region, w)
            if margin > q.tol:
                return _refuted(g, lam, margin, "bounded region with unbounded class: "
                                f"scaled sample 2^{k} escapes")
    return None


def _identity_check(q: Query) -> tuple[Verdict | None, str | None]:
    ident = classes.identity_element(q.cls, q.op)
    if ident is None:
        return None, "class has no identity element for the operation"
    w = np.linalg.eigvals(algebra.apply(q.op, ident, q.a))
    lam, margin = _worst_eigenvalue(q.region, w)
    if margin > q.tol:
        note = "identity-element necessary check refutes"
        return _refuted(ident, lam, margin, note), None
    if not regions.spectrum_in_region(q.region, w):
        return None, "identity element leaves a boundary eigenvalue (inconclusive)"
    return None, "identity-element check passed"


def _exhaustive_check(a, region, cls, op, tol) -> Verdict:
    """Exact decision over a finite class by enumeration, streamed 256
    members to a stack."""
    members = classes.enumerate_members(cls)
    checked = 0
    min_score = np.inf
    boundary_blocked = False
    while chunk := list(itertools.islice(members, 256)):
        stack = np.stack(chunk)
        ws = np.linalg.eigvals(algebra.apply(op, stack, a))
        flat = ws.ravel()
        margins = regions.exterior_margins(region, flat).reshape(ws.shape)
        hit = _first_hit(margins, tol)
        if hit is not None:
            j, lam = hit
            return _refuted(stack[j], complex(ws[j, lam]), float(margins[j, lam]),
                            f"exhaustive enumeration refutes at member {checked + j} "
                            f"of {cls.finite_size}")
        if not regions.spectrum_in_region(region, flat):
            boundary_blocked = True
        min_score = min(min_score, float(regions.interior_scores(region, flat).min()))
        checked += len(stack)
    if boundary_blocked:
        return Verdict(
            VerdictStatus.UNKNOWN,
            provenance=(
                "exhaustive enumeration inconclusive: boundary eigenvalues "
                "without strict exterior margin",
            ),
        )
    cert = Certificate(
        CertKind.EXHAUSTIVE,
        witness=None,
        min_eig=min_score,
        triple=(region, cls, op),
        members_checked=checked,
    )
    return Verdict(
        VerdictStatus.CERTIFIED,
        certificate=cert,
        provenance=(f"exhaustive enumeration certified {checked} members",),
    )


def _certificate_stage(q: Query, rng, enabled: bool) -> tuple[Certificate | None, str]:
    """Search the certificate form whose proven triples cover the query
    and keep a found certificate only if it re-verifies and its implied
    triples cover the query.  Returns (certificate | None, provenance
    note)."""
    if not enabled:
        return None, "certificate search disabled"
    report = certify.search_for_triple(q.a, q.region, q.cls, q.op, _CERT_BUDGET, rng)
    if report is None:
        return None, "no certificate form matches the query triple"
    if not report.found:
        return None, ("certificate search inconclusive "
                      f"(best min_eig={report.best_min_eig:.3e})")
    cert = report.certificate
    if certify.verify_certificate(cert, q.a) and certify._triple_covered(
        q.region, q.cls, q.op, certify.implied_stabilities(cert)
    ):
        return cert, (f"certificate found ({cert.kind.value}, "
                      f"min_eig={cert.min_eig:.3e}) and re-verified")
    return None, "certificate candidate failed re-verification"


def decide(q: Query, use_certificates: bool = True) -> Verdict:
    """Layered decision: unboundedness escape, identity-element check,
    then exact enumeration for finite classes, or certificate search and
    randomized falsification for infinite ones.

    ``use_certificates=False`` skips the certificate stage (the other
    stages are unaffected); useful for honesty testing and benchmarks.
    """
    prov: list[str] = []
    ss_pre, ss_cert, _ = np.random.SeedSequence(q.seed).spawn(3)

    def done(v: Verdict) -> Verdict:
        v.provenance = tuple(prov) + v.provenance
        return v

    v = _unboundedness_escape(q, np.random.default_rng(ss_pre))
    if v is not None:
        return done(v)
    prov.append("unboundedness precheck: not applicable or no escape found")

    v, note = _identity_check(q)
    if v is not None:
        return done(v)
    prov.append(note)

    if q.cls.is_finite:
        # boundary eigenvalues block every verdict, so an inconclusive
        # enumeration is final
        return done(_exhaustive_check(q.a, q.region, q.cls, q.op, q.tol))

    cert, note = _certificate_stage(q, np.random.default_rng(ss_cert), use_certificates)
    prov.append(note)
    if cert is not None:
        return done(Verdict(VerdictStatus.CERTIFIED, certificate=cert))
    return done(falsify(q))


# ---------------------------------------------------------------------------
# stabilization


@dataclass(eq=False)
class StabilizeReport:
    found: bool
    witness: np.ndarray | None
    evaluations: int


def _coordinate_moves(step=None, clip=None, multiplicative=False, flip=False):
    """moves(p, i, scale): copies of ``p`` whose coordinate ``i`` is
    replaced, in this order, by ``p[i] + scale*step(p, i)`` and
    ``p[i] - scale*step(p, i)`` (both clipped to the interval ``clip``,
    if given), then ``p[i]*(1 + scale)`` and ``p[i]/(1 + scale)``, then
    ``-p[i]``; each group only when it is enabled."""

    def moves(p, i, scale):
        values = []
        if step is not None:
            delta = scale * step(p, i)
            values += [p[i] + delta, p[i] - delta]
            if clip is not None:
                values = [np.clip(v, *clip) for v in values]
        if multiplicative:
            values += [p[i] * (1.0 + scale), p[i] / (1.0 + scale)]
        if flip:
            values.append(-p[i])
        for value in values:
            cand = p.copy()
            cand[i] = value
            yield cand

    return moves


def _stabilize_params(cls: MatrixClass, rng):
    """(init, decode, moves, dim) for coordinate descent over the
    class's natural parameters: log10 entries of positive diagonals,
    entries of the other diagonals, one value per partition block, the
    rank-one coefficient, and the free entries of a symmetric matrix,
    Cholesky factor or pair of log10 rank-k factors.  Every kind except
    the explicit list, which ``stabilize`` enumerates, has one."""
    n, k = cls.order, cls.kind

    def sampled_diag():
        return np.diag(classes.sample(cls, rng))

    if k in (ClassKind.POS_DIAG, ClassKind.THETA_ORDERED):
        theta = None if cls.theta is None else np.asarray(cls.theta)

        def decode(p):
            if theta is None:
                return np.diag(10.0 ** p)
            d = np.zeros(n)
            d[theta] = np.sort(10.0 ** p)[::-1]
            return np.diag(d)

        return (lambda: np.log10(sampled_diag()), decode,
                _coordinate_moves(step=lambda p, i: 1.0), n)

    if k in (ClassKind.DIAG, ClassKind.SIGN_DIAG, ClassKind.VERTEX_DIAG):
        # sign flips are the only moves that keep vertex entries at +-1;
        # for general diagonals they jump the search across orthants
        moves = _coordinate_moves(multiplicative=k is not ClassKind.VERTEX_DIAG,
                                  flip=k is not ClassKind.SIGN_DIAG)
        return sampled_diag, np.diag, moves, n

    if k in (ClassKind.ALPHA_SCALAR, ClassKind.POS_ALPHA_SCALAR):
        blocks = cls.partition.blocks
        block_of = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        firsts = [b[0] for b in blocks]
        moves = _coordinate_moves(multiplicative=True,
                                  flip=k is ClassKind.ALPHA_SCALAR)
        return (lambda: sampled_diag()[firsts], lambda p: np.diag(p[block_of]),
                moves, len(blocks))

    if k is ClassKind.BOX_DIAG:
        lo, hi = np.asarray(cls.lo), np.asarray(cls.hi)
        width = hi - lo
        eps = 1e-9 * width
        return (sampled_diag, lambda p: np.diag(np.clip(p, lo + eps, hi - eps)),
                _coordinate_moves(step=lambda p, i: width[i]), n)

    if k is ClassKind.PARAMETRIC_RANK_ONE:
        outer = np.outer(cls.x, cls.y)
        lo, hi = cls.tau
        span = max(hi - lo, 1e-12)
        return (lambda: np.array([rng.uniform(lo, hi)]),
                lambda p: float(np.clip(p[0], lo, hi)) * outer,
                _coordinate_moves(step=lambda p, i: span, clip=(lo, hi)), 1)

    if k is ClassKind.SYMMETRIC:
        iu = np.triu_indices(n)

        def init():
            return classes.sample(cls, rng)[iu]

        def decode(p):
            m = np.zeros((n, n))
            m[iu] = p
            return m + np.triu(m, 1).T

    elif k in (ClassKind.SPD, ClassKind.ALPHA_BLOCK_SPD):
        il = np.tril_indices(n)
        mask = np.zeros((n, n), dtype=bool)
        for b in cls.partition.blocks if cls.partition else (range(n),):
            mask[np.ix_(b, b)] = True

        def init():
            g = classes.sample(cls, rng)
            return np.linalg.cholesky(g + 1e-9 * np.eye(n))[il]

        def decode(p):
            ell = np.zeros((n, n))
            ell[il] = p
            ell = np.where(np.tril(mask), ell, 0.0)
            return ell @ ell.T + 1e-10 * np.eye(n)

    elif k in (ClassKind.RANK_K_POSITIVE, ClassKind.SUM_RANK_ONE_POSITIVE):
        r = cls.rank

        def init():
            return np.log10(rng.uniform(0.1, 10.0, size=2 * r * n))

        def decode(p):
            u = (10.0 ** p[: r * n]).reshape(r, n)
            v = (10.0 ** p[r * n :]).reshape(r, n)
            return np.einsum("ki,kj->ij", u, v)

    else:
        raise AssertionError(k)
    # the dimension probe len(init()) draws one start from rng and drops
    # it; every later draw depends on it
    moves = _coordinate_moves(step=lambda p, i: abs(p[i]) + 1.0)
    return init, decode, moves, len(init())


def stabilize(a, region: regions.Region, cls: MatrixClass, op: BinaryOp,
              budget: int = 10_000, seed: int = 42) -> StabilizeReport:
    """Search the class for one member whose composition with ``a`` is
    region-stable: random multi-start plus coordinate descent on the
    summed exterior margin.  A found witness is re-verified before it
    is returned."""
    a = as_square_matrix(a)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    req = 2.0 * region.boundary_tol

    def loss_of(g) -> float:
        w = np.linalg.eigvals(algebra.apply(op, g, a))
        scores = regions.interior_scores(region, w)
        return float(np.sum(np.maximum(0.0, req - scores)))

    def verified(g) -> bool:
        return classes.contains(cls, g, 1e-7) and regions.spectrum_in_region(
            region, np.linalg.eigvals(algebra.apply(op, g, a))
        )

    if cls.kind is ClassKind.EXPLICIT_LIST:
        evals = 0
        for g in classes.enumerate_members(cls):
            evals += 1
            if loss_of(g) == 0.0 and verified(g):
                return StabilizeReport(True, g, evals)
        return StabilizeReport(False, None, evals)

    init, decode, moves, dim = _stabilize_params(cls, rng)
    evals = 0
    while evals < budget:
        p = np.asarray(init(), dtype=float)
        loss = loss_of(decode(p))
        evals += 1
        if loss == 0.0 and verified(decode(p)):
            return StabilizeReport(True, decode(p), evals)
        scale = 0.5
        while evals < budget and scale > 1e-3:
            improved = False
            for i in range(dim):
                for cand in moves(p, i, scale):
                    if evals >= budget:
                        break
                    cand_loss = loss_of(decode(cand))
                    evals += 1
                    if cand_loss < loss:
                        p, loss = cand, cand_loss
                        improved = True
                        if loss == 0.0 and verified(decode(p)):
                            return StabilizeReport(True, decode(p), evals)
            if not improved:
                scale *= 0.5
    return StabilizeReport(False, None, evals)


# ---------------------------------------------------------------------------
# total stability


@dataclass(eq=False)
class TotalStabilityReport:
    overall: VerdictStatus
    results: dict[tuple[int, ...], Verdict]


def restrict_class(cls: MatrixClass, idx: tuple[int, ...]) -> MatrixClass:
    """Induce the class on a principal index subset: per-index fields
    select, the partition and the permutation renumber, the rank bound
    caps at the new order, and explicit members take their principal
    submatrices."""
    m = len(idx)
    pos = {orig: new for new, orig in enumerate(idx)}

    def pick(values):
        return None if values is None else tuple(values[i] for i in idx)

    partition = theta = None
    if cls.partition is not None:
        blocks = (tuple(pos[i] for i in b if i in pos) for b in cls.partition.blocks)
        partition = Partition(tuple(b for b in blocks if b))
    if cls.theta is not None:
        theta = tuple(pos[t] for t in cls.theta if t in pos)
    members = None if cls.members is None else tuple(
        tuple(pick(row) for row in pick(mm)) for mm in cls.members)
    return MatrixClass(cls.kind, m, partition=partition, theta=theta,
                       signs=pick(cls.signs), lo=pick(cls.lo), hi=pick(cls.hi),
                       rank=None if cls.rank is None else min(cls.rank, m),
                       x=pick(cls.x), y=pick(cls.y), tau=cls.tau, members=members)


def total_stability(q: Query, use_certificates: bool = True) -> TotalStabilityReport:
    """Decide the query on every nonempty principal submatrix (class
    induced on the index subset).  Overall verdict: certified only if
    every subset is, refuted if any subset is."""
    n = q.a.shape[0]
    if n > 16:
        raise OrderTooLargeError("total stability supported for order <= 16")
    results: dict[tuple[int, ...], Verdict] = {}
    statuses = []
    for mask in range(1, 2 ** n):
        idx = tuple(i for i in range(n) if mask >> i & 1)
        sub = Query(
            principal_submatrix(q.a, idx),
            q.region,
            restrict_class(q.cls, idx),
            q.op,
            budget=q.budget,
            seed=q.seed,
            tol=q.tol,
        )
        v = decide(sub, use_certificates=use_certificates)
        results[idx] = v
        statuses.append(v.status)
    if any(s is VerdictStatus.REFUTED for s in statuses):
        overall = VerdictStatus.REFUTED
    elif all(s is VerdictStatus.CERTIFIED for s in statuses):
        overall = VerdictStatus.CERTIFIED
    else:
        overall = VerdictStatus.UNKNOWN
    return TotalStabilityReport(overall, results)


# ---------------------------------------------------------------------------
# inertia preservation


@dataclass(eq=False)
class InertiaPreservationReport:
    plausible: bool
    trials: int
    witness: np.ndarray | None = None
    witness_inertia: tuple[int, int, int] | None = None
    product_inertia: tuple[int, int, int] | None = None


def inertia_preserving(a, cls: MatrixClass, op: BinaryOp,
                       region: regions.Region, budget: int = 1000,
                       seed: int = 42) -> InertiaPreservationReport:
    """Sampled check that composing with class members preserves their
    eigenvalue counts relative to the region; any mismatch is returned
    as a witness."""
    a = as_square_matrix(a)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    done = 0
    while done < budget:
        count = min(_CHUNK, budget - done)
        gs = classes.sample_batch(cls, rng, count)
        w_g = np.linalg.eigvals(gs)
        w_m = np.linalg.eigvals(algebra.apply(op, gs, a))
        for j in range(count):
            ig = regions.inertia_of(region, w_g[j]).as_tuple()
            im = regions.inertia_of(region, w_m[j]).as_tuple()
            if ig != im:
                return InertiaPreservationReport(
                    False, done + j + 1, gs[j], ig, im
                )
        done += count
    return InertiaPreservationReport(True, done)


# ---------------------------------------------------------------------------
# verdict transfer


class TransformKind(enum.Enum):
    TRANSPOSE = "transpose"
    OP_INVERSE = "op_inverse"
    SCALAR = "scalar"
    SIMILARITY = "similarity"


@dataclass(frozen=True, eq=False)
class Transform:
    kind: TransformKind
    alpha: float | None = None
    s: np.ndarray | None = None


def _is_permutation_matrix(s: np.ndarray) -> bool:
    if not np.all((s == 0.0) | (s == 1.0)):
        return False
    return bool(
        np.all(s.sum(axis=0) == 1.0) and np.all(s.sum(axis=1) == 1.0)
    )


def _is_nonsingular_diagonal(s: np.ndarray) -> bool:
    off = s - np.diag(np.diag(s))
    return float(np.max(np.abs(off), initial=0.0)) == 0.0 and bool(
        np.all(np.diag(s) != 0.0)
    )


def _closed_under_transpose(cls: MatrixClass) -> bool:
    if cls.kind is ClassKind.PARAMETRIC_RANK_ONE:
        return bool(np.allclose(np.outer(cls.x, cls.y), np.outer(cls.y, cls.x)))
    if cls.kind is ClassKind.EXPLICIT_LIST:
        return all(
            classes.contains(cls, np.array(m, dtype=float).T, 1e-9)
            for m in cls.members
        )
    return True


def _closed_under_op_inverse(cls: MatrixClass, op: BinaryOp) -> bool:
    k = cls.kind
    if op.kind is OpKind.ADD:
        if k in (ClassKind.SYMMETRIC, ClassKind.DIAG, ClassKind.VERTEX_DIAG,
                 ClassKind.ALPHA_SCALAR):
            return True
        if k is ClassKind.BOX_DIAG:
            return all(l == -h for l, h in zip(cls.lo, cls.hi))
        if k is ClassKind.PARAMETRIC_RANK_ONE:
            return cls.tau[0] == -cls.tau[1]
        return False
    if op.kind is OpKind.MUL:
        return k in (
            ClassKind.SYMMETRIC,
            ClassKind.SPD,
            ClassKind.ALPHA_BLOCK_SPD,
            ClassKind.DIAG,
            ClassKind.POS_DIAG,
            ClassKind.SIGN_DIAG,
            ClassKind.ALPHA_SCALAR,
            ClassKind.POS_ALPHA_SCALAR,
            ClassKind.VERTEX_DIAG,
        )
    return False


def _closed_under_scalar(cls: MatrixClass, alpha: float) -> bool:
    """Both alpha*G and G/alpha stay in the class."""
    if alpha == 0.0:
        return False
    if alpha == 1.0:
        return True
    k = cls.kind
    if alpha > 0.0:
        return cls.closed_under_positive_scaling
    if alpha == -1.0 and k is ClassKind.VERTEX_DIAG:
        return True
    return k in (ClassKind.SYMMETRIC, ClassKind.DIAG, ClassKind.ALPHA_SCALAR)


def _similarity_invariant(cls: MatrixClass, s: np.ndarray) -> bool:
    k = cls.kind
    if _is_nonsingular_diagonal(s):
        # diagonal similarity fixes every diagonal matrix pointwise
        if k in (ClassKind.DIAG, ClassKind.POS_DIAG, ClassKind.SIGN_DIAG,
                 ClassKind.ALPHA_SCALAR, ClassKind.POS_ALPHA_SCALAR,
                 ClassKind.THETA_ORDERED, ClassKind.BOX_DIAG,
                 ClassKind.VERTEX_DIAG):
            return True
        if k is ClassKind.EXPLICIT_LIST:
            return all(
                classes.contains(classes.diag(cls.order), np.array(m, dtype=float),
                                 1e-12)
                for m in cls.members
            )
        return False
    if _is_permutation_matrix(s):
        pi = np.argmax(s, axis=1)  # conjugation sends d_i to d_{pi(i)}
        if k in (ClassKind.SYMMETRIC, ClassKind.SPD, ClassKind.DIAG,
                 ClassKind.POS_DIAG, ClassKind.VERTEX_DIAG,
                 ClassKind.RANK_K_POSITIVE, ClassKind.SUM_RANK_ONE_POSITIVE):
            return True
        if k is ClassKind.SIGN_DIAG:
            return tuple(cls.signs[j] for j in pi) == cls.signs
        if k is ClassKind.BOX_DIAG:
            return (
                tuple(cls.lo[j] for j in pi) == cls.lo
                and tuple(cls.hi[j] for j in pi) == cls.hi
            )
        if k in (ClassKind.ALPHA_SCALAR, ClassKind.POS_ALPHA_SCALAR,
                 ClassKind.ALPHA_BLOCK_SPD):
            blocks = {frozenset(b) for b in cls.partition.blocks}
            mapped = {frozenset(int(pi[i]) for i in b) for b in cls.partition.blocks}
            return mapped == blocks
        if k is ClassKind.THETA_ORDERED:
            inv = np.empty_like(pi)
            inv[pi] = np.arange(pi.size)
            return tuple(int(inv[t]) for t in cls.theta) == cls.theta
        if k is ClassKind.EXPLICIT_LIST:
            return all(
                classes.contains(cls, s @ np.array(m, dtype=float) @ s.T, 1e-9)
                for m in cls.members
            )
        return False
    return False


def transform_matrix(a, tf: Transform, op: BinaryOp) -> np.ndarray:
    """The transformed target matrix."""
    a = as_square_matrix(a)
    if tf.kind is TransformKind.TRANSPOSE:
        return a.T
    if tf.kind is TransformKind.OP_INVERSE:
        if op.kind is OpKind.HADAMARD:
            raise ValueError("operation inverse transfer needs addition or "
                             "multiplication")
        inv = algebra.op_inverse(op, a)
        if inv is None:
            raise SingularOperatorError("matrix is singular; no multiplicative inverse")
        return inv
    if tf.kind is TransformKind.SCALAR:
        return float(tf.alpha) * a
    if tf.kind is TransformKind.SIMILARITY:
        s = as_square_matrix(tf.s, "s")
        return s @ a @ np.linalg.inv(s)
    raise AssertionError(tf.kind)


def transform_query(q: Query, tf: Transform) -> Query:
    """Same triple, transformed matrix."""
    return replace(q, a=transform_matrix(q.a, tf, q.op))


def _transfer_applicable(q: Query, tf: Transform) -> str | None:
    """None when the relevant theorem's hypotheses hold, else a reason."""
    if tf.kind is TransformKind.TRANSPOSE:
        if not _closed_under_transpose(q.cls):
            return "class is not closed under transposition"
        return None
    if tf.kind is TransformKind.OP_INVERSE:
        if q.op.kind is OpKind.HADAMARD:
            return "no spectral map is available for the entrywise inverse"
        phi = (
            regions.RegionTransform.NEGATE
            if q.op.kind is OpKind.ADD
            else regions.RegionTransform.RECIPROCAL
        )
        try:
            if not regions.transform_region(q.region, phi).is_invariant:
                return "region is not invariant under the spectral map"
        except UnrepresentableError:
            return "region is not invariant under the spectral map"
        if not _closed_under_op_inverse(q.cls, q.op):
            return "class is not closed under the operation inverse"
        return None
    if tf.kind is TransformKind.SCALAR:
        alpha = float(tf.alpha)
        if not regions.scalar_preserves_region(q.region, alpha):
            return "region is not invariant under this scalar"
        if q.op.kind is OpKind.ADD and not _closed_under_scalar(q.cls, alpha):
            return "class is not closed under this scaling"
        return None
    if tf.kind is TransformKind.SIMILARITY:
        if q.op.kind is OpKind.HADAMARD:
            return "similarity transfer needs addition or multiplication"
        s = np.asarray(tf.s, dtype=float)
        if not (_is_permutation_matrix(s) or _is_nonsingular_diagonal(s)):
            return "similarity matrix must be a permutation or a nonsingular diagonal"
        if not _similarity_invariant(q.cls, s):
            return "class is not invariant under this similarity"
        return None
    raise AssertionError(tf.kind)


def _transfer_witness(g: np.ndarray, q: Query, tf: Transform) -> np.ndarray | None:
    if tf.kind is TransformKind.TRANSPOSE:
        return g.T
    if tf.kind is TransformKind.OP_INVERSE:
        return algebra.op_inverse(q.op, g)
    if tf.kind is TransformKind.SCALAR:
        if q.op.kind is OpKind.ADD:
            return float(tf.alpha) * g
        return g
    if tf.kind is TransformKind.SIMILARITY:
        s = np.asarray(tf.s, dtype=float)
        return s @ g @ np.linalg.inv(s)
    raise AssertionError(tf.kind)


def _transfer_certificate(cert: Certificate, q: Query,
                          tf: Transform) -> Certificate | None:
    if cert.kind is CertKind.EXHAUSTIVE:
        return None  # handled by re-running the enumeration
    w = cert.witness
    if tf.kind is TransformKind.TRANSPOSE:
        new_w = np.linalg.inv(w)
        new_w = 0.5 * (new_w + new_w.T)
    elif tf.kind in (TransformKind.OP_INVERSE, TransformKind.SCALAR):
        new_w = w
    elif tf.kind is TransformKind.SIMILARITY:
        s = np.asarray(tf.s, dtype=float)
        if _is_permutation_matrix(s):
            new_w = s @ w @ s.T
        else:
            s_inv = np.linalg.inv(s)
            new_w = s_inv @ w @ s_inv
    else:
        raise AssertionError(tf.kind)
    return Certificate(cert.kind, new_w, min_eig=np.nan,
                       partition=cert.partition, coeffs=cert.coeffs)


def transfer_verdict(v: Verdict, q: Query, tf: Transform) -> Verdict:
    """Carry a verdict for ``q`` over to the transformed matrix.

    Certified and refuted verdicts transfer with transformed witnesses
    when the corresponding theorem's hypotheses hold (checked against a
    static table) and the transformed witness re-verifies; anything
    else comes back unknown with the reason in the provenance.
    """
    reason = _transfer_applicable(q, tf)
    label = tf.kind.value
    if reason is not None:
        return Verdict(
            VerdictStatus.UNKNOWN,
            provenance=(f"transfer ({label}): theorem inapplicable: {reason}",),
        )
    qt = transform_query(q, tf)

    if v.status is VerdictStatus.UNKNOWN:
        return Verdict(
            VerdictStatus.UNKNOWN,
            trials_used=v.trials_used,
            provenance=v.provenance + (f"transfer ({label}): unknown stays unknown",),
        )

    if v.status is VerdictStatus.REFUTED:
        g = _transfer_witness(v.witness, q, tf)
        if g is None or not classes.contains(q.cls, g, 1e-7):
            return Verdict(
                VerdictStatus.UNKNOWN,
                provenance=(
                    f"transfer ({label}): witness left the class numerically",
                ),
            )
        w = np.linalg.eigvals(algebra.apply(q.op, g, qt.a))
        lam, margin = _worst_eigenvalue(q.region, w)
        if margin > q.tol:
            return _refuted(g, lam, margin, f"transfer ({label}): witness transformed",
                            v.provenance)
        return Verdict(
            VerdictStatus.UNKNOWN,
            provenance=(
                f"transfer ({label}): transformed witness lost its exterior margin",
            ),
        )

    cert = v.certificate
    if cert is not None and cert.kind is CertKind.EXHAUSTIVE:
        vt = _exhaustive_check(qt.a, q.region, q.cls, q.op, q.tol)
        vt.provenance = v.provenance + (
            f"transfer ({label}): finite class re-enumerated",
        ) + vt.provenance
        return vt
    new_cert = _transfer_certificate(cert, q, tf)
    if new_cert is not None and certify.verify_certificate(new_cert, qt.a):
        form = certify.certified_form(new_cert, qt.a)
        new_cert = Certificate(
            new_cert.kind,
            new_cert.witness,
            float(np.linalg.eigvalsh(0.5 * (form + form.T))[0]),
            partition=new_cert.partition,
            coeffs=new_cert.coeffs,
        )
        return Verdict(
            VerdictStatus.CERTIFIED,
            certificate=new_cert,
            provenance=v.provenance + (
                f"transfer ({label}): certificate transformed and re-verified",
            ),
        )
    return Verdict(
        VerdictStatus.UNKNOWN,
        provenance=(
            f"transfer ({label}): transformed certificate failed verification",
        ),
    )
