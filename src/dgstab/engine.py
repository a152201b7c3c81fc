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
first.  Each stage takes the ``Query`` and returns a ``Verdict``, which
ends the run, or the provenance note it adds (a ``str``); one loop,
``_decide_stack``, orders the stages and joins their notes:

1. unbounded-class escape for bounded regions;
2. the identity-element necessary check;
3. the principal-minor refutation, on the right half-plane for a class
   that holds every positive row scaling ``D A`` under the query's
   operation (the ``row_scaling`` fact: positive and general diagonals
   under multiplication, positive rank-one outer products under the
   entrywise product); other queries skip it.  A negative principal
   minor of order 1 or 2 (Cross's necessary condition) gives a scaling
   whose sum of principal minors of that order is negative in exact
   arithmetic;
4. for a finite class of at most ``classes.ENUMERATION_LIMIT`` members,
   a certificate search capped at ``_FINITE_SEARCH_STEPS`` Newton steps,
   where a searched kind's triples cover the query (the Stein diagonal
   on the unit disk's vertex diagonals), and then exact enumeration,
   whose verdict is final (an inconclusive one means boundary
   eigenvalues or compositions that overflowed, which block every
   verdict).  Every member is composed;
   on the unit disk, a composition is solved only when its spectral
   radius bound (``linalg.spectral_radius_bounds``) reaches the largest
   radius solved so far, capped at ``1 - boundary_tol``, less a
   relative 1e-9, since one below it can neither exit, sit in the
   boundary band nor lower the certificate's ``min_eig``;
5. the certificate stage, for infinite classes and finite ones past the
   enumeration limit: screen and search the form whose proven triples
   cover the query (``certify.search_for_triple``), then re-verify the
   certificate independently;
6. randomized falsification, for the same classes.

``_decide_stack`` decides a stack of matrices of one order at once,
each under its own class and the settings of one query, each as it
would be decided alone, and ``decide`` is its stack of one:
``total_stability`` passes it the submatrices of one order that no
restricted certificate proves, already validated, with their restricted
classes.  The escape asks each distinct class object once whether it
applies; the identity check (``_identity_checks``) runs once on the
stack, one composition and one ``eigvals`` for all rows; only a row it
leaves open becomes a ``Query`` and goes through the later stages.

Every REFUTED verdict, from whichever stage or from a verdict
transfer, is built by one constructor, ``_refuted``.  Every CERTIFIED
verdict is built by ``_certified``, from a certificate that
``certify.proves`` returned (a searched or transferred one), a
restricted one from ``certify.restrict_certificate``, which runs the
same check on a stack (``proves`` is its stack of one), or from
exhaustion of a finite class.  Every stage that tests members composes
them with the matrix by one rule, ``algebra.finite_compositions``,
which drops an overflowed composition (``algebra.finite_spectra`` adds
the spectra of the rest), and picks the refuting member and
eigenvalue by another, ``regions.first_exit``; a finite class is
scanned only by ``certify.exhaust``, whose result the enumeration stage
and verdict transfer turn into a verdict.  Verdicts are deterministic
functions of the query (including its seed).

The searches of a class run through two loops.  ``_scan`` draws and
tests members in fixed-size chunks and returns the first hit in chunk
order: ``falsify`` (chunk i drawn from ``_stream(seed, 2, i)``, on a pool
that ``DGSTAB_THREADS`` and the CPUs the process may run on cap, so its
results do not depend on the thread count) and ``inertia_preserving``
(every chunk from one stream, so on one thread).  The chunks run in
windows of one chunk per thread and share no state: each returns its
overflow count and its hit, and the main thread reads a window's
results in chunk order.  ``_descend`` is the one
descent in a class's parameters; ``stabilize`` starts it from draws, and
scans an explicit list's members in order instead.
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
from .classes import ClassKind, MatrixClass
from .errors import (DimensionMismatchError, OrderTooLargeError, SingularOperatorError,
                     UnrepresentableError)
from .linalg import as_square_matrix

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
        """The one check of a query's inputs, for every operation that
        takes them."""
        object.__setattr__(self, "a", as_square_matrix(self.a))
        if not isinstance(self.budget, (int, np.integer)) or self.budget < 1:
            raise ValueError("budget must be an integer >= 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be an integer >= 0")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError("tol must be finite and >= 0")
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


# ---------------------------------------------------------------------------
# falsification


def _refuted(g, lam: complex, margin: float, note: str, provenance=(),
             trials_used: int = 0) -> Verdict:
    """The REFUTED verdict for witness ``g`` whose composition has the
    eigenvalue ``lam`` at exterior ``margin``."""
    return Verdict(VerdictStatus.REFUTED, witness=g, offending_eigenvalue=lam,
                   margin=margin, trials_used=trials_used,
                   provenance=tuple(provenance) + (note,))


def _certified(cert: Certificate, note: str, provenance=()) -> Verdict:
    """The CERTIFIED verdict carrying ``cert``: one that ``certify.proves``
    returned, or an exhaustive certificate from ``certify.exhaust``."""
    return Verdict(VerdictStatus.CERTIFIED, certificate=cert,
                   provenance=tuple(provenance) + (note,))


def _stream(seed: int, *key: int) -> np.random.SeedSequence:
    """The engine's one way to derive a generator stream: the descendant
    of ``SeedSequence(seed)`` at spawn path ``key``, its siblings unbuilt.
    ``()`` seeds ``stabilize`` and ``inertia_preserving``, ``(0,)`` the
    unboundedness escape and ``(2, i)`` the falsifier's chunk ``i``; key
    1 stays unused (the certificate search draws nothing)."""
    return np.random.SeedSequence(seed, spawn_key=key)


def _thread_count() -> int:
    """``DGSTAB_THREADS``, 1 when unset or not an integer, clamped to
    between 1 and the CPUs this process may run on."""
    try:
        wanted = int(os.environ.get("DGSTAB_THREADS", "1"))
    except ValueError:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(wanted, cpus))


def _scan(q: Query, stream, test, threads: int):
    """The engine's one chunked member scan, for ``falsify`` and
    ``inertia_preserving``.

    ``q.budget`` trials run in chunks of ``_CHUNK``: chunk ``i`` is the
    ``(count, n, n)`` stack of members that ``classes.sample_batch`` draws
    from the generator ``stream(i)``, composed with ``q.a`` by
    ``algebra.finite_spectra``, and ``test(gs, rows, w)`` gets the whole
    chunk, the indices of its finite compositions and their spectra.  It
    returns ``None`` or ``(j, payload)`` for the first hit, ``j`` indexing
    ``gs``.  Each chunk returns its overflow count and its hit, and
    shares nothing with the others.  The chunks run in windows of
    ``threads``, and the main thread reads each window's results in chunk
    order, so the first hit in chunk order wins: the result is the same
    for every ``threads`` when each chunk's generator depends on ``i``
    alone; a scan whose chunks share one generator must run on one
    thread.  After a hit, only the chunks of its window still run.

    Returns ``(trials, member, payload, overflowed)``: for the first hit,
    the trials up to and including it, its member and payload, and the
    compositions that overflowed in the chunks up to its own; without a
    hit, ``q.budget``, ``None``, ``None`` and every overflowed
    composition.  An overflowed composition is never tested.
    """
    n_chunks = math.ceil(q.budget / _CHUNK)

    # bench/spans.py times the falsifier's chunks by the draws called from
    # a function of this name (FALSIFY_SITE)
    def eval_chunk(i: int):
        count = min(_CHUNK, q.budget - i * _CHUNK)
        gs = classes.sample_batch(q.cls, stream(i), count)
        rows, w = algebra.finite_spectra(q.op, gs, q.a)
        hit = test(gs, rows, w) if rows.size else None
        return count - rows.size, None if hit is None else (gs[hit[0]],) + hit

    overflowed = 0
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        chunk_map = map if pool is None else pool.map
        for lo in range(0, n_chunks, threads):
            window = range(lo, min(lo + threads, n_chunks))
            for i, (skipped, hit) in zip(window, chunk_map(eval_chunk, window)):
                overflowed += skipped
                if hit is not None:
                    g, j, payload = hit
                    return i * _CHUNK + j + 1, g, payload, overflowed
    return q.budget, None, None, overflowed


def falsify(q: Query) -> Verdict:
    """Randomized counterexample search over the class: ``_scan`` on
    ``DGSTAB_THREADS`` workers, chunk ``i`` drawn from its own stream
    ``_stream(seed, 2, i)`` and tested by ``regions.first_exit``.
    Returns ``REFUTED`` with the first witness in chunk order or
    ``UNKNOWN`` with the number of trials spent and, if any, the number
    whose composition overflowed."""
    def exit_of(gs, rows, w):
        hit = regions.first_exit(q.region, w, q.tol)
        return None if hit is None else (int(rows[hit[0]]), hit[1:])

    used, g, hit, overflowed = _scan(
        q, lambda i: np.random.default_rng(_stream(q.seed, 2, i)), exit_of, _thread_count())
    if g is not None:
        return _refuted(g, *hit, f"falsification found witness after {used} trials",
                        trials_used=used)
    note = f"falsification exhausted {used} trials"
    if overflowed:
        note += f" ({overflowed} compositions overflowed and were skipped)"
    return Verdict(VerdictStatus.UNKNOWN, trials_used=used, provenance=(note,))


# ---------------------------------------------------------------------------
# decide pipeline


_NO_ESCAPE = "unboundedness precheck: not applicable or no escape found"


def _escape_applies(q: Query, cls: MatrixClass) -> bool:
    """Whether the unboundedness escape can run on a row of class ``cls``
    under ``q``'s region and operation: a bounded region, an unbounded
    class closed under positive scaling, and an operation other than the
    entrywise product."""
    return (q.region.is_bounded and cls.is_unbounded and cls.closed_under_positive_scaling
            and q.op.kind is not OpKind.HADAMARD)


def _unboundedness_escape(q: Query, a: np.ndarray, cls: MatrixClass) -> Verdict | str:
    """For a row ``a`` of class ``cls`` where the escape applies
    (``_escape_applies``) and ``a`` is invertible under ``q``'s operation,
    scale each of 8 sampled members up until an eigenvalue exits, the
    member leaves the class or its composition overflows: a concrete
    witness rather than a bare impossibility claim."""
    if not algebra.is_invertible(q.op, a):
        return _NO_ESCAPE
    rng = np.random.default_rng(_stream(q.seed, 0))
    for _ in range(8):
        g0 = classes.sample(cls, rng)
        for k in range(61):
            g = (2.0 ** k) * g0
            if not classes.contains(cls, g, classes.RECHECK_TOL):
                break
            rows, w = algebra.finite_spectra(q.op, g[None], a)
            if not rows.size:
                break
            hit = regions.first_exit(q.region, w, q.tol)
            if hit is not None:
                return _refuted(g, *hit[1:], "bounded region with unbounded class: "
                                f"scaled sample 2^{k} escapes")
    return _NO_ESCAPE


def _identity_checks(q: Query, a: np.ndarray, sub_classes) -> list[Verdict | str]:
    """The identity-element necessary check of each matrix of the stack
    ``a`` under its class ``sub_classes[i]`` and ``q``'s region,
    operation and tol: the operation has one identity element, each
    distinct class object is asked once whether it holds it
    (``classes.class_groups``), and one composition and one ``eigvals``
    run on the rows whose class does.  A row whose spectrum is not
    interior is refuted by its exit, chosen by ``regions.first_exit``'s
    rule (``regions.row_exits``), or else left inconclusive."""
    region, op, tol = q.region, q.op, q.tol
    rows: list[int] = []  # ascending, as the stack ``a[rows]`` takes them
    ident = None  # one matrix, whichever class holds it
    for cls, group in classes.class_groups(sub_classes):
        elem = classes.identity_element(cls, op)
        if elem is not None:
            ident = elem
            rows += group
    rows.sort()
    out: list[Verdict | str] = ["class has no identity element for the operation"] * len(a)
    if not rows:
        return out
    w = np.linalg.eigvals(algebra.apply(op, ident, a if len(rows) == len(a) else a[rows]))
    for i in rows:
        out[i] = "identity-element check passed"
    # only a row with an eigenvalue off the interior can exit
    left = np.flatnonzero(~regions.interior_rows(region, w))
    if left.size:
        for k, hit in zip(left.tolist(), regions.row_exits(region, w[left], tol)):
            out[rows[k]] = (
                "identity element leaves a boundary eigenvalue (inconclusive)" if hit is None
                else _refuted(ident.copy(), *hit, "identity-element necessary check refutes"))
    return out


def _dyadic(x: np.ndarray) -> np.ndarray:
    """Python integers ``N`` with ``x = N / 2**m`` exactly, for one
    ``m``: an object array of ``x``'s shape."""
    ratios = [v.as_integer_ratio() for v in x.ravel().tolist()]
    m = max(den.bit_length() for _, den in ratios)
    return np.array([num << (m - den.bit_length()) for num, den in ratios],
                    dtype=object).reshape(x.shape)


def _minor_sum_coeffs(a: np.ndarray, s: tuple[int, ...]) -> list[int]:
    """Integers ``c_0 .. c_k``, ``k = len(s)`` (1 or 2), such that the
    sum ``E_k`` of the principal minors of order k of ``D_t A`` is
    ``sum_m c_m t^m`` times a positive power of two, where ``D_t`` has t
    at the indices ``s`` and 1 elsewhere: the minor on the indices K
    gains the factor ``t^|K & s|``.  Exact, in integer arithmetic."""
    inside = np.zeros(a.shape[0], dtype=int)
    inside[list(s)] = 1
    if len(s) == 1:
        minors, count = _dyadic(a.diagonal()), inside
    else:
        x = _dyadic(a)
        iu = np.triu_indices(a.shape[0], 1)
        minors = (np.outer(x.diagonal(), x.diagonal()) - x * x.T)[iu]
        count = (inside[:, None] + inside)[iu]
    return [sum(minors[count == m].tolist()) for m in range(len(s) + 1)]


def _minor_refutation(q: Query) -> Verdict | str:
    """Cross's necessary condition (LAA 20, 1978): a matrix that stays
    positive stable under every positive row scaling ``D A`` has no
    negative principal minor of order 1 or 2.  For the first such minor
    (``certify.minor_violation``) on the indices s, put ``t = 2^e`` at s
    in ``D_t``, doubling t, until the sum ``E_k(D_t A)`` of the principal
    minors of the minor's order is negative in exact arithmetic, which
    proves an eigenvalue with negative real part, and ``regions.first_exit``
    sees it beyond ``tol``.  The class holds the member with composition
    ``D_t A`` (its ``row_scaling`` fact).  The search stops at the first
    such composition that overflows: a larger t overflows too."""
    found = certify.minor_violation(q.a, strict=True)
    if found is None:
        return "principal-minor check passed"
    s, failed = found
    idx = list(s)
    coeffs = _minor_sum_coeffs(q.a, s)
    u = np.ones(q.a.shape[0])
    for e in range(1, 1024):
        if sum(c << (e * m) for m, c in enumerate(coeffs)) >= 0:
            continue
        u[idx] = math.ldexp(1.0, e)
        g = algebra.row_scaling(q.op, u)
        rows, w = algebra.finite_spectra(q.op, g[None], q.a)
        if not rows.size:
            break
        hit = regions.first_exit(q.region, w, q.tol)
        if hit is not None:
            at = ", ".join(str(i + 1) for i in s)
            return _refuted(g, *hit[1:], f"principal minor {failed} refutes: t = 2^{e} "
                            f"on {{{at}}}, E_{len(s)} < 0 (exact)")
    return f"principal minor {failed}: no t = 2^k refutes before G o A overflows"


def _exhaustive_check(q: Query) -> Verdict:
    """Exact decision over a finite class from ``certify.exhaust``."""
    r = certify.exhaust(q.a, q.region, q.cls, q.op, q.tol)
    if r.hit is not None:
        i, g, lam, margin = r.hit
        return _refuted(g, lam, margin, f"exhaustive enumeration refutes at member {i} "
                        f"of {q.cls.finite_size}")
    if r.overflowed:
        return Verdict(VerdictStatus.UNKNOWN, provenance=(
            f"exhaustive enumeration inconclusive: {r.overflowed} of {r.checked} "
            "compositions overflowed and were skipped",))
    if r.boundary:
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
        min_eig=r.min_score,
        triple=(q.region, q.cls, q.op),
        members_checked=r.checked,
    )
    return _certified(cert, f"exhaustive enumeration certified {r.checked} members")


def _certificate_stage(q: Query, max_steps: int | None = None) -> Verdict | str:
    """Search the certificate form whose proven triples cover the query,
    in at most ``max_steps`` Newton steps (None: no cap but the search's
    guard), and certify with a found certificate only if
    ``certify.proves`` the query's triple with it."""
    report = certify.search_for_triple(q.a, q.region, q.cls, q.op, max_steps)
    if report is None:
        return "no certificate form matches the query triple"
    if report.reason is not None:
        return report.reason
    if not report.found:
        return f"certificate search inconclusive (best min_eig={report.best_min_eig:.3e})"
    cert = certify.proves(report.certificate, q.a, q.region, q.cls, q.op)
    if cert is None:
        return "certificate candidate failed re-verification"
    return _certified(cert, f"certificate found ({cert.kind.value}, "
                      f"min_eig={cert.min_eig:.3e}) and re-verified")


#: The Newton steps of the certificate search ahead of an enumeration.
#: Of 600 stable random unit-disk vertex inputs at n = 8, 10 and 12, the
#: search certified 551 at ``P = I`` and all but two of the others within
#: 1-8 steps; those two take 9, past the cap, and are certified by the
#: enumeration.  On unstable inputs it fails only after 30-41 steps, where
#: the enumeration after it decides all the same.  A lower cap would trade
#: the failed search's time on a refuted call for a multi-ms enumeration
#: on a stable one.
_FINITE_SEARCH_STEPS = 8


def _later_stages(q: Query, use_certificates: bool) -> tuple:
    """The stages after the identity check that apply to ``q``, in order;
    the last one always returns a verdict.

    A finite class of at most ``classes.ENUMERATION_LIMIT`` members ends
    in enumeration, whose verdict is final: boundary eigenvalues block
    every verdict, so an inconclusive one is too.  Where certificates are
    on and a searched kind covers the triple (``certify.searched_kind``),
    a search of ``_FINITE_SEARCH_STEPS`` Newton steps runs ahead of it,
    and a failed search leaves its note.  Past the limit, a finite class
    takes the infinite classes' stages after a note naming the limit:
    the certificate stage, uncapped, and falsification."""
    stages = ()
    if (q.region.kind is regions.RegionKind.RIGHT_HALF_PLANE
            and q.cls.fact("row_scaling") is q.op.kind):
        stages += (_minor_refutation,)
    if q.cls.is_finite:
        if q.cls.finite_size <= classes.ENUMERATION_LIMIT:
            if use_certificates and certify.searched_kind(q.region, q.cls, q.op) is not None:
                stages += (lambda row: _certificate_stage(row, _FINITE_SEARCH_STEPS),)
            return stages + (_exhaustive_check,)
        stages += (lambda row: f"finite class of {row.cls.finite_size} members is over the "
                   f"enumeration limit of {classes.ENUMERATION_LIMIT}: not enumerated",)
    if use_certificates:
        return stages + (_certificate_stage, falsify)
    return stages + (lambda _: "certificate search disabled", falsify)


def _decide_stack(q: Query, a: np.ndarray | None = None, sub_classes=None,
                  use_certificates: bool = True) -> list[Verdict]:
    """``decide`` of each matrix of the stack ``a`` under its class
    ``sub_classes[i]``, with ``q``'s region, operation, budget, seed and
    tol, each verdict as ``replace(q, a=a[i], cls=sub_classes[i])`` would
    reach it alone; without ``a``, of ``q`` itself.  The rows of ``a`` are
    already valid, principal submatrices of ``q.a``.  The escape asks
    each distinct class object once whether it applies and then runs row
    by row, the identity check runs once on the rows it leaves open, and
    only a row still open becomes a ``Query``, which goes through the
    later stages, its notes kept."""
    alone = a is None
    if alone:
        a, sub_classes = q.a[None], (q.cls,)
    # each row's stage results in order: notes, then its verdict
    runs: list[list[Verdict | str]] = [[_NO_ESCAPE] for _ in range(len(a))]
    for cls, rows in classes.class_groups(sub_classes):
        if _escape_applies(q, cls):
            for i in rows:
                runs[i][0] = _unboundedness_escape(q, a[i], cls)
    rows = [i for i, run in enumerate(runs) if isinstance(run[-1], str)]
    if rows:
        sub = a if len(rows) == len(a) else a[rows]
        for i, v in zip(rows, _identity_checks(q, sub, [sub_classes[i] for i in rows])):
            runs[i].append(v)
    for i, run in enumerate(runs):
        if isinstance(run[-1], str):
            row = q if alone else replace(q, a=a[i], cls=sub_classes[i])
            for stage in _later_stages(row, use_certificates):
                run.append(stage(row))
                if isinstance(run[-1], Verdict):
                    break
    for run in runs:
        run[-1].provenance = tuple(run[:-1]) + run[-1].provenance
    return [run[-1] for run in runs]


def decide(q: Query, use_certificates: bool = True) -> Verdict:
    """Layered decision: unboundedness escape, identity-element check,
    the exact principal-minor refutation on the right half-plane where
    the class holds every positive row scaling under the query's
    operation, then, for a finite class of at most
    ``classes.ENUMERATION_LIMIT`` members, a short certificate search
    where a searched kind covers the triple and exact enumeration, or
    else certificate search and randomized falsification (a finite class
    past the limit first notes it).
    The escape and the identity check always run and leave a note, also
    where they do not apply ("unboundedness precheck: not applicable or
    no escape found", "class has no identity element for the
    operation"); a later stage that does not apply does not run and
    adds no note.  Each stage returns a verdict, which ends the run, or
    its note; the verdict's provenance begins with the notes before it.
    The last stage always returns one.  This is ``_decide_stack`` on a stack
    of one.

    ``use_certificates=False`` replaces the certificate stage by the
    note "certificate search disabled" and drops the short search ahead
    of an enumeration (the other stages are unaffected); useful for
    honesty testing, benchmarks and pinning enumeration.
    """
    return _decide_stack(q, use_certificates=use_certificates)[0]


# ---------------------------------------------------------------------------
# stabilization


@dataclass(eq=False)
class StabilizeReport:
    found: bool
    witness: np.ndarray | None
    evaluations: int


def _descend(cls: MatrixClass, p: np.ndarray, loss, budget: int, done):
    """The engine's one descent in a class's parameters (``classes.draw``),
    from ``p``: sweeps of ``classes.coordinate_moves``, one coordinate at
    a time, each coordinate's moves taken from the parameters that the
    sweep reached before it; a move is kept when ``loss`` falls, and the
    step starts at 0.5 and halves after a sweep that lowers nothing,
    down to 1e-3.  It stops after ``budget`` evaluations of ``loss``, or
    when ``done(p, value)`` holds at the start or at a kept move.

    Returns ``(p, value, evaluations, finished)``, ``finished`` telling
    whether ``done`` held."""
    value, evals = loss(p), 1
    if done(p, value):
        return p, value, evals, True
    scale = 0.5
    while evals < budget and scale > 1e-3:
        improved = False
        for i in range(p.size):
            for cand in classes.coordinate_moves(cls, p, i, scale):
                if evals >= budget:
                    break
                cand_value = loss(cand)
                evals += 1
                if cand_value < value:
                    p, value, improved = cand, cand_value, True
                    if done(p, value):
                        return p, value, evals, True
        if not improved:
            scale *= 0.5
    return p, value, evals, False


def stabilize(a, region: regions.Region, cls: MatrixClass, op: BinaryOp,
              budget: int = 10_000, seed: int = 42) -> StabilizeReport:
    """Search the class for one member whose composition with ``a`` is
    region-stable: ``_descend`` on the summed shortfall of the interior
    scores below twice the boundary tolerance, started from one
    ``classes.draw`` after another, until ``budget`` evaluations are
    spent.  An explicit list is scanned instead, its first ``budget``
    members in order, one evaluation each: a member is a start with no
    moves, whose loss is 0 exactly when every score reaches twice the
    tolerance, so the members are composed and solved in stacks of 8
    that double up to ``_CHUNK``.  A found witness is re-verified before
    it is returned.  A member whose composition overflows has infinite
    loss and never verifies."""
    a = Query(a, region, cls, op, budget, seed).a
    rng = np.random.default_rng(_stream(seed))
    req = 2.0 * region.boundary_tol

    def spectrum(p):  # None when the composition overflows
        w = algebra.finite_spectra(op, classes.decode(cls, p[None]), a)[1]
        return None if w is None else w[0]

    def loss(p) -> float:
        w = spectrum(p)
        if w is None:
            return np.inf
        with np.errstate(over="ignore"):  # shortfalls near the float limit sum to inf
            return float(np.sum(np.maximum(0.0, req - regions.interior_scores(region, w))))

    def verified(p, value: float) -> bool:
        if value != 0.0 or not classes.contains(cls, classes.decode(cls, p[None])[0],
                                                classes.RECHECK_TOL):
            return False
        w = spectrum(p)
        return w is not None and regions.spectrum_in_region(region, w)

    if cls.kind is ClassKind.EXPLICIT_LIST:
        count, done, size = min(budget, len(cls.members)), 0, 8
        while done < count:
            ps = np.arange(done, min(done + size, count))[:, None]
            rows, w = algebra.finite_spectra(op, classes.decode(cls, ps), a)
            if rows.size:
                scores = regions.interior_scores(region, w.ravel()).reshape(w.shape)
                for i in rows[(scores >= req).all(axis=1)].tolist():
                    if verified(ps[i], 0.0):
                        return StabilizeReport(True, classes.decode(cls, ps[i][None])[0],
                                               done + i + 1)
            done, size = done + len(ps), min(2 * size, _CHUNK)
        return StabilizeReport(False, None, count)

    evals = 0
    for p in (classes.draw(cls, rng, 1)[0] for _ in itertools.count()):
        p, _, spent, found = _descend(cls, p, loss, budget - evals, verified)
        evals += spent
        if found:
            return StabilizeReport(True, classes.decode(cls, p[None])[0], evals)
        if evals >= budget:
            break
    return StabilizeReport(False, None, evals)


# ---------------------------------------------------------------------------
# total stability


@dataclass(eq=False)
class TotalStabilityReport:
    overall: VerdictStatus
    results: dict[tuple[int, ...], Verdict]


#: The class fields that hold data per index; a class with none of them
#: set restricts to the same class on every subset of one order.
_PER_INDEX = ("partition", "theta", "signs", "lo", "hi", "x", "y", "members")


def _restricted(cls: MatrixClass, idx) -> MatrixClass:
    """``restrict_class`` on one sequence of indices."""
    m = len(idx)
    pos = {orig: new for new, orig in enumerate(idx)}

    def pick(values):
        return None if values is None else tuple(values[i] for i in idx)

    partition = None if cls.partition is None else cls.partition.restrict(idx)
    theta = None if cls.theta is None else tuple(pos[t] for t in cls.theta if t in pos)
    members = None if cls.members is None else tuple(
        tuple(pick(row) for row in pick(mm)) for mm in cls.members)
    return MatrixClass(cls.kind, m, partition=partition, theta=theta,
                       signs=pick(cls.signs), lo=pick(cls.lo), hi=pick(cls.hi),
                       rank=None if cls.rank is None else min(cls.rank, m),
                       x=pick(cls.x), y=pick(cls.y), tau=cls.tau, members=members)


def restrict_classes(cls: MatrixClass, idx) -> list[MatrixClass]:
    """The class induced on each row of the ``(m, k)`` index array
    ``idx``, as ``restrict_class`` induces it, rows with equal classes
    holding one object.  A class with no per-index data (``_PER_INDEX``)
    restricts to the same class on every row, so it is built once;
    otherwise each row's class is built and equal ones are merged."""
    rows = np.asarray(idx).tolist()
    if all(getattr(cls, name) is None for name in _PER_INDEX):
        return [_restricted(cls, rows[0])] * len(rows)
    merged: dict[MatrixClass, MatrixClass] = {}
    return [merged.setdefault(c, c) for c in (_restricted(cls, row) for row in rows)]


def restrict_class(cls: MatrixClass, idx: tuple[int, ...]) -> MatrixClass:
    """Induce the class on the indices ``idx``, in that order: per-index
    fields select, the partition (blocks sorted) and the permutation
    renumber, the rank bound caps at the new order, and explicit members
    take their principal submatrices.  A reordering of all indices gives
    the class conjugated by that permutation; ``Partition.restrict`` raises
    ValueError when the reordered blocks are not contiguous.  This is
    ``restrict_classes`` on a stack of one."""
    return restrict_classes(cls, [idx])[0]


def total_stability(q: Query) -> TotalStabilityReport:
    """Decide the query on every nonempty principal submatrix (class
    induced on the index subset), keyed in index-mask order.  The full
    index set is decided first, and ``q.a`` is validated there only.  The
    proper subsets follow in groups of one order k: one stack of
    submatrices gathered from ``q.a`` and their classes from one
    ``restrict_classes``, which shares one object among the rows of a
    class without per-index data.  When a certificate certifies the full
    set, one call of ``certify.restrict_certificate`` per group checks its
    restrictions, and each subset whose triple its restriction proves is
    certified by it.  The other subsets of the group are decided together
    (``_decide_stack``): the escape, one stacked identity check, and only
    the rows still open become queries for the later stages, each
    verdict as ``decide`` would reach it alone.  Overall verdict:
    certified only if every subset is, refuted if any subset is."""
    n = q.a.shape[0]
    if n > 16:
        raise OrderTooLargeError("total stability supported for order <= 16")
    full = decide(q)
    cert = full.certificate if full.status is VerdictStatus.CERTIFIED else None
    kind = None if cert is None else cert.kind.value  # every restriction's kind
    subsets: list[tuple[int, ...]] = []
    masks, verdicts = [], []
    for k in range(1, n):
        order = list(itertools.combinations(range(n), k))
        idx = np.array(order)
        subs = q.a[idx[:, :, None], idx[:, None, :]]
        sub_classes = restrict_classes(q.cls, idx)
        proofs = [None] * len(order) if cert is None else certify.restrict_certificate(
            cert, idx, subs, q.region, sub_classes, q.op)
        decided = [None if rc is None else _certified(
            rc, f"restricted from the full matrix's certificate ({kind}, "
            f"min_eig={rc.min_eig:.3e}) and re-verified") for rc in proofs]
        open_rows = [i for i, rc in enumerate(proofs) if rc is None]
        if open_rows:
            for i, v in zip(open_rows, _decide_stack(
                    q, subs[open_rows], [sub_classes[i] for i in open_rows])):
                decided[i] = v
        subsets += order
        masks.append((1 << idx).sum(axis=1))
        verdicts += decided
    subsets.append(tuple(range(n)))
    masks.append([2 ** n - 1])
    verdicts.append(full)
    results = {subsets[j]: verdicts[j] for j in np.argsort(np.concatenate(masks)).tolist()}
    statuses = [v.status for v in verdicts]
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
    overflowed: int = 0  # trials whose composition overflowed: never witnesses


def inertia_preserving(a, cls: MatrixClass, op: BinaryOp,
                       region: regions.Region, budget: int = 1000,
                       seed: int = 42) -> InertiaPreservationReport:
    """Sampled check that composing with class members preserves their
    eigenvalue counts relative to the region; the first mismatch is
    returned as a witness.  ``_scan`` on one thread, every chunk drawn in
    turn from the one stream ``_stream(seed)``; a member whose
    composition overflows is skipped and counted in ``overflowed``."""
    q = Query(a, region, cls, op, budget, seed)
    rng = np.random.default_rng(_stream(seed))

    def mismatch(gs, rows, w_m):
        ig = regions.inertia_rows(region, np.linalg.eigvals(gs[rows]))
        im = regions.inertia_rows(region, w_m)
        differ = (ig != im).any(axis=1)
        k = int(differ.argmax())
        if not differ[k]:
            return None
        return int(rows[k]), (tuple(ig[k].tolist()), tuple(im[k].tolist()))

    trials, g, inertias, overflowed = _scan(q, lambda i: rng, mismatch, 1)
    if g is None:
        return InertiaPreservationReport(True, trials, overflowed=overflowed)
    return InertiaPreservationReport(False, trials, g, *inertias, overflowed)


# ---------------------------------------------------------------------------
# verdict transfer


class TransformKind(enum.Enum):
    TRANSPOSE = "transpose"
    OP_INVERSE = "op_inverse"
    SCALAR = "scalar"
    SIMILARITY = "similarity"


#: The field each parametrized transform kind cannot do without.
_TRANSFORM_PARAMETER = {TransformKind.SCALAR: "alpha", TransformKind.SIMILARITY: "s"}


@dataclass(frozen=True, eq=False)
class Transform:
    kind: TransformKind
    alpha: float | None = None
    s: np.ndarray | None = None

    def __post_init__(self):
        needed = _TRANSFORM_PARAMETER.get(self.kind)
        if needed is not None and getattr(self, needed) is None:
            raise ValueError(f"{self.kind.value} transform needs its {needed!r} field")


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


def _closed_under_scalar(cls: MatrixClass, alpha: float) -> bool:
    """Both alpha*G and G/alpha stay in the class."""
    if alpha == 0.0:
        return False
    return ((alpha > 0.0 or cls.fact("negatable"))
            and (abs(alpha) == 1.0 or cls.fact("scalable")))


def _similarity_invariant(cls: MatrixClass, s: np.ndarray) -> bool:
    """Whether ``S G S^-1`` stays in the class for every member ``G``;
    ``s`` is a nonsingular diagonal or a permutation matrix."""
    if _is_nonsingular_diagonal(s):
        # diagonal similarity fixes every diagonal matrix pointwise
        return cls.fact("diagonal")
    if cls.kind is ClassKind.EXPLICIT_LIST:
        return all(
            classes.contains(cls, s @ np.array(m, dtype=float) @ s.T, 1e-9)
            for m in cls.members
        )
    # conjugation sends g_ij to g_pi(i)pi(j): the class induced on the
    # reordered indices
    pi = tuple(int(j) for j in np.argmax(s, axis=1))
    try:
        return restrict_class(cls, pi) == cls
    except ValueError:  # the renumbered blocks are not contiguous
        return False


def transform_matrix(a, tf: Transform, op: BinaryOp) -> np.ndarray:
    """The transformed target matrix; ``SingularOperatorError`` when the
    matrix to invert or the similarity is singular, ``ValueError`` when
    the result overflows."""
    a = as_square_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        if tf.kind is TransformKind.TRANSPOSE:
            out = a.T
        elif tf.kind is TransformKind.OP_INVERSE:
            if op.kind is OpKind.HADAMARD:
                raise ValueError("operation inverse transfer needs addition or "
                                 "multiplication")
            out = algebra.op_inverse(op, a)
            if out is None:
                raise SingularOperatorError("matrix is singular; no multiplicative inverse")
        elif tf.kind is TransformKind.SCALAR:
            alpha = float(tf.alpha)
            if not math.isfinite(alpha):
                raise ValueError("scalar is not finite")
            out = alpha * a
        elif tf.kind is TransformKind.SIMILARITY:
            s = as_square_matrix(tf.s, "s")
            if s.shape != a.shape:
                raise DimensionMismatchError(
                    f"similarity matrix order {s.shape[0]} does not match "
                    f"matrix order {a.shape[0]}")
            try:
                out = s @ a @ np.linalg.inv(s)
            except np.linalg.LinAlgError:
                raise SingularOperatorError("similarity matrix is singular") from None
        else:
            raise AssertionError(tf.kind)
    if not np.isfinite(out).all():
        raise ValueError("matrix contains non-finite entries")
    return out


def transform_query(q: Query, tf: Transform) -> Query:
    """Same triple, transformed matrix."""
    return replace(q, a=transform_matrix(q.a, tf, q.op))


def _transfer_applicable(q: Query, tf: Transform) -> str | None:
    """None when the relevant theorem's hypotheses hold, else a reason.
    The op-inverse's last one, an invertible matrix, is left to
    ``transform_query``, which inverts it anyway."""
    if tf.kind is TransformKind.TRANSPOSE:
        if not q.cls.fact("transposable"):
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
        if not q.cls.fact("negatable" if q.op.kind is OpKind.ADD else "invertible"):
            return "class is not closed under the operation inverse"
        return None
    if tf.kind is TransformKind.SCALAR:
        alpha = float(tf.alpha)
        if not math.isfinite(alpha):
            return "scalar is not finite"
        if not regions.scalar_preserves_region(q.region, alpha):
            return "region is not invariant under this scalar"
        if q.op.kind is OpKind.ADD and not _closed_under_scalar(q.cls, alpha):
            return "class is not closed under this scaling"
        return None
    if tf.kind is TransformKind.SIMILARITY:
        if q.op.kind is OpKind.HADAMARD:
            return "similarity transfer needs addition or multiplication"
        s = np.asarray(tf.s, dtype=float)
        if s.shape != q.a.shape:
            return "similarity matrix order does not match the matrix"
        if not (_is_permutation_matrix(s) or _is_nonsingular_diagonal(s)):
            return "similarity matrix must be a permutation or a nonsingular diagonal"
        if not _similarity_invariant(q.cls, s):
            return "class is not invariant under this similarity"
        return None
    raise AssertionError(tf.kind)


def _transfer_witness(g: np.ndarray, q: Query, tf: Transform) -> np.ndarray | None:
    """The witness mapped like the matrix, except that under a scalar
    only an additive witness moves; None for a singular op-inverse or a
    witness that overflows."""
    if tf.kind is TransformKind.SCALAR and q.op.kind is not OpKind.ADD:
        return g
    try:
        return transform_matrix(g, tf, q.op)
    except (SingularOperatorError, ValueError):
        return None


def _transfer_certificate(cert: Certificate, tf: Transform, n: int) -> Certificate | None:
    """``cert`` with its witness mapped for the transformed matrix of
    order ``n``; None when the witness is missing, of another shape, or
    singular under a transpose."""
    w = cert.witness
    if w is None or np.shape(w) != (n, n):
        return None
    if tf.kind is TransformKind.TRANSPOSE:
        try:
            new_w = np.linalg.inv(w)
        except np.linalg.LinAlgError:
            return None
        new_w = 0.5 * (new_w + new_w.T)
    elif tf.kind in (TransformKind.OP_INVERSE, TransformKind.SCALAR):
        new_w = w
    elif tf.kind is TransformKind.SIMILARITY:
        # S^-T P S^-1 certifies S A S^-1: the two forms are congruent; a
        # witness that overflows fails its verification
        s_inv = np.linalg.inv(np.asarray(tf.s, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            new_w = s_inv.T @ w @ s_inv
    else:
        raise AssertionError(tf.kind)
    return Certificate(cert.kind, new_w, min_eig=np.nan,
                       partition=cert.partition, coeffs=cert.coeffs)


def transfer_verdict(v: Verdict, q: Query, tf: Transform) -> Verdict:
    """Carry a verdict for ``q`` over to the transformed matrix.

    Certified and refuted verdicts transfer with transformed witnesses
    when the corresponding theorem's hypotheses hold (the region's
    invariance and the class's closure facts from the static table
    ``classes._FACTS``) and the transformed witness re-verifies: a
    refutation's witness must stay in the class with its exterior
    margin, and a transformed certificate must prove the query's own
    triple at the transformed matrix (``certify.proves``), whatever
    triple the verdict came from, and carries the ``min_eig`` measured
    there.  An exhaustive certificate's finite class is enumerated again.
    Anything else comes back unknown with the reason in the provenance,
    without a warning where a transformed matrix, witness or certificate
    overflows.
    """
    label = f"transfer ({tf.kind.value})"

    def unknown(note: str, prior=(), trials_used: int = 0) -> Verdict:
        return Verdict(VerdictStatus.UNKNOWN, trials_used=trials_used,
                       provenance=prior + (f"{label}: {note}",))

    reason = _transfer_applicable(q, tf)
    if reason is None:
        try:
            qt = transform_query(q, tf)
        except SingularOperatorError as exc:
            reason = str(exc)
        except ValueError as exc:
            reason = f"transformed {exc}"
    if reason is not None:
        return unknown(f"theorem inapplicable: {reason}")

    if v.status is VerdictStatus.UNKNOWN:
        return unknown("unknown stays unknown", v.provenance, v.trials_used)

    if v.status is VerdictStatus.REFUTED:
        g = _transfer_witness(v.witness, q, tf)
        note = "witness left the class numerically"
        if g is not None and classes.contains(q.cls, g, classes.RECHECK_TOL):
            rows, w = algebra.finite_spectra(q.op, g[None], qt.a)
            hit = regions.first_exit(q.region, w, q.tol) if rows.size else None
            if hit is not None:
                return _refuted(g, *hit[1:], f"{label}: witness transformed", v.provenance)
            note = "transformed witness lost its exterior margin"
        return unknown(note)

    cert = v.certificate
    if cert.kind is CertKind.EXHAUSTIVE:
        vt = _exhaustive_check(qt)
        vt.provenance = v.provenance + (
            f"{label}: finite class re-enumerated",
        ) + vt.provenance
        return vt
    moved = _transfer_certificate(cert, tf, len(qt.a))
    new_cert = None if moved is None else certify.proves(moved, qt.a, q.region, q.cls, q.op)
    if new_cert is None:
        return unknown("transformed certificate failed verification")
    return _certified(new_cert, f"{label}: certificate transformed and re-verified",
                      v.provenance)
