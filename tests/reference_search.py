"""A reference for the engine's member searches: ``falsify``,
``stabilize`` and ``inertia_preserving`` as each ran its own loop,
before the chunked scan moved into ``engine._scan`` and the descent into
``engine._descend``.

The engine's functions must return the same reports and verdicts, bit
for bit, so these bodies share neither loop with them.
"""

import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from dgstab import algebra, classes, regions
from dgstab.algebra import BinaryOp
from dgstab.classes import ClassKind, MatrixClass
from dgstab.engine import (_CHUNK, InertiaPreservationReport, Query, StabilizeReport,
                           Verdict, VerdictStatus, _refuted, _stream, _thread_count)


def falsify(q: Query) -> Verdict:
    """Randomized counterexample search over the class.

    Trials run in chunks of ``_CHUNK``, chunk ``i`` drawn from its own
    stream ``_stream(seed, 2, i)``, so the first witness in chunk order
    is the same for every thread count.  Returns ``REFUTED`` with that
    witness or ``UNKNOWN`` with the number of trials spent and, if any,
    the number whose composition overflowed, which are never witnesses.
    A worker skips every chunk after one known to hold a witness: the
    pool starts chunks in order, so each chunk before that one has
    started, and the first witness is among them.
    """
    a, region, cls, op, budget, tol = q.a, q.region, q.cls, q.op, q.budget, q.tol
    n_chunks = math.ceil(budget / _CHUNK)
    first_hit = [n_chunks]  # the lowest chunk known to hold a witness
    overflowed = [0] * n_chunks  # per chunk, the trials whose composition overflowed
    lock = threading.Lock()

    def eval_chunk(i: int):
        if i > first_hit[0]:
            return None
        count = min(_CHUNK, budget - i * _CHUNK)
        rng = np.random.default_rng(_stream(q.seed, 2, i))
        gs = classes.sample_batch(cls, rng, count)
        rows, w = algebra.finite_spectra(op, gs, a)
        overflowed[i] = count - rows.size
        hit = regions.first_exit(region, w, tol) if rows.size else None
        if hit is None:
            return None
        with lock:
            first_hit[0] = min(first_hit[0], i)
        j = int(rows[hit[0]])
        return (gs[j], j) + hit[1:]

    threads = _thread_count()
    window = threads * 4
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        chunk_map = map if pool is None else pool.map
        for lo in range(0, n_chunks, window):
            hi = min(lo + window, n_chunks)
            for i, res in zip(range(lo, hi), chunk_map(eval_chunk, range(lo, hi))):
                if res is not None:
                    g, j, lam, margin = res
                    used = i * _CHUNK + j + 1
                    return _refuted(g, lam, margin,
                                    f"falsification found witness after {used} trials",
                                    trials_used=used)
    note = f"falsification exhausted {budget} trials"
    if sum(overflowed):
        note += f" ({sum(overflowed)} compositions overflowed and were skipped)"
    return Verdict(VerdictStatus.UNKNOWN, trials_used=budget, provenance=(note,))


def stabilize(a, region: regions.Region, cls: MatrixClass, op: BinaryOp,
              budget: int = 10_000, seed: int = 42) -> StabilizeReport:
    """Search the class for one member whose composition with ``a`` is
    region-stable: random multi-start plus coordinate descent on the
    summed exterior margin, or a scan of an explicit list's first
    ``budget`` members.  The descent searches the parameters that the
    falsifier's draws decode (``classes.draw``): each start is one
    draw, each step tries ``classes.coordinate_moves`` one coordinate
    at a time, and the step halves after a sweep that lowers nothing.
    A found witness is re-verified before it is returned.  A member
    whose composition overflows has infinite loss and never
    verifies."""
    a = Query(a, region, cls, op, budget, seed).a
    rng = np.random.default_rng(_stream(seed))
    req = 2.0 * region.boundary_tol

    def spectrum(g):  # None when the composition overflows
        w = algebra.finite_spectra(op, g[None], a)[1]
        return None if w is None else w[0]

    def loss_of(g) -> float:
        w = spectrum(g)
        if w is None:
            return np.inf
        scores = regions.interior_scores(region, w)
        return float(np.sum(np.maximum(0.0, req - scores)))

    def verified(g) -> bool:
        if not classes.contains(cls, g, 1e-7):
            return False
        w = spectrum(g)
        return w is not None and regions.spectrum_in_region(region, w)

    if cls.kind is ClassKind.EXPLICIT_LIST:
        evals = 0
        for g in itertools.islice(classes.enumerate_members(cls), budget):
            evals += 1
            if loss_of(g) == 0.0 and verified(g):
                return StabilizeReport(True, g, evals)
        return StabilizeReport(False, None, evals)

    def decode(p):
        return classes.decode(cls, p[None])[0]

    evals = 0
    while evals < budget:
        p = classes.draw(cls, rng, 1)[0]
        loss = loss_of(decode(p))
        evals += 1
        if loss == 0.0 and verified(decode(p)):
            return StabilizeReport(True, decode(p), evals)
        scale = 0.5
        while evals < budget and scale > 1e-3:
            improved = False
            for i in range(p.size):
                for cand in classes.coordinate_moves(cls, p, i, scale):
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


def inertia_preserving(a, cls: MatrixClass, op: BinaryOp,
                       region: regions.Region, budget: int = 1000,
                       seed: int = 42) -> InertiaPreservationReport:
    """Sampled check that composing with class members preserves their
    eigenvalue counts relative to the region; any mismatch is returned
    as a witness.  A member whose composition overflows is skipped and
    counted in ``overflowed``."""
    a = Query(a, region, cls, op, budget, seed).a
    rng = np.random.default_rng(_stream(seed))
    done = overflowed = 0
    while done < budget:
        count = min(_CHUNK, budget - done)
        gs = classes.sample_batch(cls, rng, count)
        rows, w_m = algebra.finite_spectra(op, gs, a)
        overflowed += count - rows.size
        if rows.size:
            w_g = np.linalg.eigvals(gs[rows])
            for j, wg, wm in zip(rows.tolist(), w_g, w_m):
                ig = regions.inertia_of(region, wg).as_tuple()
                im = regions.inertia_of(region, wm).as_tuple()
                if ig != im:
                    return InertiaPreservationReport(
                        False, done + j + 1, gs[j], ig, im, overflowed
                    )
        done += count
    return InertiaPreservationReport(True, done, overflowed=overflowed)
