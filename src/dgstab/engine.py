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
3. exact enumeration, for finite classes only;
4. the certificate stage: search the form matching the triple, then
   re-verify the certificate independently.  Finite classes whose
   enumeration was inconclusive run this same stage;
5. randomized falsification, for infinite classes only (sampling a
   finite class again cannot add to its enumeration).

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
from .certify import CertKind, Certificate, CertReport
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


def _worst_eigenvalue(region, m) -> tuple[complex, float]:
    w = np.linalg.eigvals(m)
    margins = regions.exterior_margins(region, w)
    i = int(np.argmax(margins))
    return complex(w[i]), float(margins[i])


def _nonsingular(a: np.ndarray) -> bool:
    sv = np.linalg.svd(a, compute_uv=False)
    return sv[0] > 0 and sv[-1] / sv[0] > 1e-12


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
    if q.op.kind is OpKind.MUL and not _nonsingular(q.a):
        return None
    for _ in range(8):
        g0 = classes.sample(q.cls, rng)
        for k in range(61):
            g = (2.0 ** k) * g0
            if not classes.contains(q.cls, g, 1e-7):
                break
            lam, margin = _worst_eigenvalue(q.region, algebra.apply(q.op, g, q.a))
            if margin > q.tol:
                return _refuted(g, lam, margin, "bounded region with unbounded class: "
                                f"scaled sample 2^{k} escapes")
    return None


def _identity_check(q: Query) -> tuple[Verdict | None, str | None]:
    ident = classes.identity_element(q.cls, q.op)
    if ident is None:
        return None, "class has no identity element for the operation"
    m = algebra.apply(q.op, ident, q.a)
    lam, margin = _worst_eigenvalue(q.region, m)
    if margin > q.tol:
        note = "identity-element necessary check refutes"
        return _refuted(ident, lam, margin, note), None
    if not check_region_stability(m, q.region):
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


def _box_within_unit(cls: MatrixClass) -> bool:
    return all(l >= -1.0 for l in cls.lo) and all(h <= 1.0 for h in cls.hi)


def _certificate_search(q: Query, rng) -> CertReport | None:
    """Dispatch to the certificate search matching the query triple, if
    any sufficiency theorem applies."""
    rk, ck = q.region.kind, q.cls.kind
    n = q.a.shape[0]
    if rk is regions.RegionKind.RIGHT_HALF_PLANE and q.op.kind in (
        OpKind.ADD,
        OpKind.MUL,
    ):
        if ck is ClassKind.POS_DIAG:
            return certify.find_diagonal_lyapunov(q.a, _CERT_BUDGET, rng)
        if ck is ClassKind.ALPHA_BLOCK_SPD:
            return certify.find_structured_lyapunov(
                q.a, classes.pos_alpha_scalar(q.cls.partition), _CERT_BUDGET, rng
            )
        if ck is ClassKind.POS_ALPHA_SCALAR:
            return certify.find_structured_lyapunov(
                q.a, classes.alpha_block_spd(q.cls.partition), _CERT_BUDGET, rng
            )
        if ck is ClassKind.SPD:
            return certify.find_structured_lyapunov(
                q.a, certify.identity_witness_class(n), _CERT_BUDGET, rng
            )
    if (
        rk is regions.RegionKind.UNIT_DISK
        and q.op.kind is OpKind.MUL
        and (
            ck is ClassKind.VERTEX_DIAG
            or (ck is ClassKind.BOX_DIAG and _box_within_unit(q.cls))
        )
    ):
        return certify.find_stein_diagonal(q.a, _CERT_BUDGET, rng)
    return None


def _class_subset(sub: MatrixClass, sup: MatrixClass) -> bool:
    if sub == sup:
        return True
    if (
        sub.kind is ClassKind.BOX_DIAG
        and sup.kind is ClassKind.BOX_DIAG
        and sub.order == sup.order
    ):
        return all(sl >= pl for sl, pl in zip(sub.lo, sup.lo)) and all(
            sh <= ph for sh, ph in zip(sub.hi, sup.hi)
        )
    return False


def _triple_covered(region, cls, op, implied) -> bool:
    for r2, c2, o2 in implied:
        if r2.geometry() != region.geometry():
            continue
        if o2.kind is not op.kind:
            continue
        # left/right is immaterial for these operations: addition and
        # the entrywise product are commutative, and under
        # multiplication G A and A G share their spectrum.
        if _class_subset(cls, c2):
            return True
    return False


def _certificate_stage(q: Query, rng, enabled: bool) -> tuple[Certificate | None, str]:
    """Search the certificate form matching the query triple and keep a
    found certificate only if it re-verifies and its implied triples
    cover the query.  Returns (certificate | None, provenance note)."""
    if not enabled:
        return None, "certificate search disabled"
    report = _certificate_search(q, rng)
    if report is None:
        return None, "no certificate form matches the query triple"
    if not report.found:
        return None, ("certificate search inconclusive "
                      f"(best min_eig={report.best_min_eig:.3e})")
    cert = report.certificate
    if certify.verify_certificate(cert, q.a) and _triple_covered(
        q.region, q.cls, q.op, certify.implied_stabilities(cert)
    ):
        return cert, (f"certificate found ({cert.kind.value}, "
                      f"min_eig={cert.min_eig:.3e}) and re-verified")
    return None, "certificate candidate failed re-verification"


def decide(q: Query, use_certificates: bool = True) -> Verdict:
    """Layered decision: unboundedness escape, identity-element check,
    exact enumeration (finite classes), certificate search, randomized
    falsification (infinite classes), in that order.

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
        v = _exhaustive_check(q.a, q.region, q.cls, q.op, q.tol)
        if v.status is not VerdictStatus.UNKNOWN:
            return done(v)
        prov.extend(v.provenance)

    cert, note = _certificate_stage(q, np.random.default_rng(ss_cert), use_certificates)
    prov.append(note)
    if cert is not None:
        return done(Verdict(VerdictStatus.CERTIFIED, certificate=cert))
    if q.cls.is_finite:
        # sampling the members already enumerated cannot add information
        prov.append("finite class: falsification skipped (already enumerated)")
        return done(Verdict(VerdictStatus.UNKNOWN))
    return done(falsify(q))


# ---------------------------------------------------------------------------
# stabilization


@dataclass(eq=False)
class StabilizeReport:
    found: bool
    witness: np.ndarray | None
    evaluations: int


def _stabilize_params(cls: MatrixClass, rng):
    """(init, decode, moves) triple for coordinate descent over the
    class's natural parameters; None when the kind has no useful
    parametrization (falls back to plain multi-start sampling)."""
    n = cls.order
    k = cls.kind

    def diag_decode(p):
        return np.diag(p)

    if k in (ClassKind.POS_DIAG, ClassKind.THETA_ORDERED):
        def init():
            return np.log10(np.diag(classes.sample(cls, rng)))

        if k is ClassKind.POS_DIAG:
            def decode(p):
                return np.diag(10.0 ** p)
        else:
            theta = np.asarray(cls.theta)

            def decode(p):
                vals = np.sort(10.0 ** p)[::-1]
                d = np.zeros(n)
                d[theta] = vals
                return np.diag(d)

        def moves(p, i, scale):
            for delta in (scale, -scale):
                cand = p.copy()
                cand[i] += delta
                yield cand

        return init, decode, moves, n

    if k in (ClassKind.DIAG, ClassKind.SIGN_DIAG, ClassKind.VERTEX_DIAG):
        def init():
            return np.diag(classes.sample(cls, rng))

        def moves(p, i, scale):
            if k is not ClassKind.VERTEX_DIAG:
                factor = 1.0 + scale
                cand = p.copy()
                cand[i] *= factor
                yield cand
                cand = p.copy()
                cand[i] /= factor
                yield cand
            if k is not ClassKind.SIGN_DIAG:
                # sign flips are the only moves that keep vertex
                # entries at +-1; for general diagonals they jump the
                # search across orthants
                cand = p.copy()
                cand[i] *= -1.0
                yield cand

        return init, diag_decode, moves, n

    if k in (ClassKind.ALPHA_SCALAR, ClassKind.POS_ALPHA_SCALAR):
        blocks = [np.asarray(b) for b in cls.partition.blocks]

        def init():
            d = np.diag(classes.sample(cls, rng))
            return np.array([d[b[0]] for b in blocks])

        def decode(p):
            d = np.zeros(n)
            for val, b in zip(p, blocks):
                d[b] = val
            return np.diag(d)

        def moves(p, i, scale):
            factor = 1.0 + scale
            cand = p.copy()
            cand[i] *= factor
            yield cand
            cand = p.copy()
            cand[i] /= factor
            yield cand
            if k is ClassKind.ALPHA_SCALAR:
                cand = p.copy()
                cand[i] *= -1.0
                yield cand

        return init, decode, moves, len(blocks)

    if k is ClassKind.BOX_DIAG:
        lo = np.asarray(cls.lo)
        hi = np.asarray(cls.hi)
        width = hi - lo

        def init():
            return np.diag(classes.sample(cls, rng))

        def decode(p):
            eps = 1e-9 * width
            return np.diag(np.clip(p, lo + eps, hi - eps))

        def moves(p, i, scale):
            for delta in (scale * width[i], -scale * width[i]):
                cand = p.copy()
                cand[i] += delta
                yield cand

        return init, decode, moves, n

    if k is ClassKind.PARAMETRIC_RANK_ONE:
        outer = np.outer(cls.x, cls.y)
        lo, hi = cls.tau

        def init():
            return np.array([rng.uniform(lo, hi)])

        def decode(p):
            return float(np.clip(p[0], lo, hi)) * outer

        def moves(p, i, scale):
            span = max(hi - lo, 1e-12)
            for delta in (scale * span, -scale * span):
                yield np.array([np.clip(p[0] + delta, lo, hi)])

        return init, decode, moves, 1

    if k in (ClassKind.SPD, ClassKind.SYMMETRIC, ClassKind.ALPHA_BLOCK_SPD,
             ClassKind.RANK_K_POSITIVE, ClassKind.SUM_RANK_ONE_POSITIVE):
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

            def init():
                g = classes.sample(cls, rng)
                return np.linalg.cholesky(g + 1e-9 * np.eye(n))[il]

            if k is ClassKind.SPD:
                def decode(p):
                    ell = np.zeros((n, n))
                    ell[il] = p
                    return ell @ ell.T + 1e-10 * np.eye(n)
            else:
                mask = np.zeros((n, n), dtype=bool)
                for b in cls.partition.blocks:
                    sel = np.asarray(b)
                    mask[np.ix_(sel, sel)] = True

                def decode(p):
                    ell = np.zeros((n, n))
                    ell[il] = p
                    ell = np.where(np.tril(mask), ell, 0.0)
                    return ell @ ell.T + 1e-10 * np.eye(n)

        else:
            r = cls.rank

            def init():
                return np.log10(rng.uniform(0.1, 10.0, size=2 * r * n))

            def decode(p):
                u = (10.0 ** p[: r * n]).reshape(r, n)
                v = (10.0 ** p[r * n :]).reshape(r, n)
                return np.einsum("ki,kj->ij", u, v)

        def moves(p, i, scale):
            base = abs(p[i]) + 1.0
            for delta in (scale * base, -scale * base):
                cand = p.copy()
                cand[i] += delta
                yield cand

        return init, decode, moves, len(init())

    return None


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

    params = _stabilize_params(cls, rng)
    evals = 0

    if params is None:
        while evals < budget:
            g = classes.sample(cls, rng)
            evals += 1
            if loss_of(g) == 0.0 and verified(g):
                return StabilizeReport(True, g, evals)
        return StabilizeReport(False, None, evals)

    init, decode, moves, dim = params
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
                    cand_loss = loss_of(decode(cand))
                    evals += 1
                    if cand_loss < loss:
                        p, loss = cand, cand_loss
                        improved = True
                        if loss == 0.0 and verified(decode(p)):
                            return StabilizeReport(True, decode(p), evals)
                    if evals >= budget:
                        break
                if evals >= budget:
                    break
            if not improved:
                scale *= 0.5
    return StabilizeReport(False, None, evals)


# ---------------------------------------------------------------------------
# total stability


@dataclass(eq=False)
class TotalStabilityReport:
    overall: VerdictStatus
    results: dict[tuple[int, ...], Verdict]


def _restrict_partition(partition: Partition, idx: tuple[int, ...]) -> Partition:
    pos = {orig: new for new, orig in enumerate(idx)}
    blocks = []
    for block in partition.blocks:
        kept = tuple(pos[i] for i in block if i in pos)
        if kept:
            blocks.append(kept)
    return Partition(tuple(blocks))


def restrict_class(cls: MatrixClass, idx: tuple[int, ...]) -> MatrixClass:
    """Induce the class on a principal index subset (orders shrink,
    partitions/permutations restrict, bounds select)."""
    m = len(idx)
    k = cls.kind
    if k is ClassKind.SYMMETRIC:
        return classes.symmetric(m)
    if k is ClassKind.SPD:
        return classes.spd(m)
    if k is ClassKind.DIAG:
        return classes.diag(m)
    if k is ClassKind.POS_DIAG:
        return classes.pos_diag(m)
    if k is ClassKind.VERTEX_DIAG:
        return classes.vertex_diag(m)
    if k is ClassKind.SIGN_DIAG:
        return classes.sign_diag([cls.signs[i] for i in idx])
    if k in (ClassKind.ALPHA_SCALAR, ClassKind.POS_ALPHA_SCALAR,
             ClassKind.ALPHA_BLOCK_SPD):
        part = _restrict_partition(cls.partition, idx)
        factory = {
            ClassKind.ALPHA_SCALAR: classes.alpha_scalar,
            ClassKind.POS_ALPHA_SCALAR: classes.pos_alpha_scalar,
            ClassKind.ALPHA_BLOCK_SPD: classes.alpha_block_spd,
        }[k]
        return factory(part)
    if k is ClassKind.THETA_ORDERED:
        pos = {orig: new for new, orig in enumerate(idx)}
        theta = tuple(pos[t] for t in cls.theta if t in pos)
        return classes.theta_ordered(theta)
    if k is ClassKind.BOX_DIAG:
        return classes.box_diag(
            [cls.lo[i] for i in idx], [cls.hi[i] for i in idx]
        )
    if k in (ClassKind.RANK_K_POSITIVE, ClassKind.SUM_RANK_ONE_POSITIVE):
        factory = (
            classes.rank_k_positive
            if k is ClassKind.RANK_K_POSITIVE
            else classes.sum_rank_one_positive
        )
        return factory(m, min(cls.rank, m))
    if k is ClassKind.PARAMETRIC_RANK_ONE:
        return classes.parametric_rank_one(
            [cls.x[i] for i in idx], [cls.y[i] for i in idx], cls.tau
        )
    if k is ClassKind.EXPLICIT_LIST:
        subs = [principal_submatrix(np.array(mm, dtype=float), idx)
                for mm in cls.members]
        return classes.explicit_list(subs)
    raise AssertionError(k)


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
        if op.kind is OpKind.ADD:
            return -a
        if op.kind is OpKind.MUL:
            if not _nonsingular(a):
                raise SingularOperatorError(
                    "matrix is singular; no multiplicative inverse"
                )
            return np.linalg.inv(a)
        raise ValueError("operation inverse transfer needs addition or "
                         "multiplication")
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
        if q.op.kind is OpKind.ADD:
            return -g
        if not _nonsingular(g):
            return None
        return np.linalg.inv(g)
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
        lam, margin = _worst_eigenvalue(q.region, algebra.apply(q.op, g, qt.a))
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
