"""The engine's member searches against ``reference_search``, the loops
that ``falsify``, ``stabilize`` and ``inertia_preserving`` each ran
before they shared ``engine._scan`` and ``engine._descend``.

Every report and verdict must be the reference's bit for bit: status,
trials or evaluations, witness bytes, eigenvalue, margin, inertias,
overflow counts and provenance, on every class kind, on a matrix whose
compositions overflow, on the right half-plane and the unit disk, under
each operation, at budgets within one chunk and across several, and at
one and two threads.
"""

import itertools

import numpy as np
import pytest

import reference_search
from dgstab import algebra, classes, regions
from dgstab.algebra import ADD, HADAMARD, MUL
from dgstab.engine import Query, falsify, inertia_preserving, stabilize
from dgstab.linalg import case_i_coefficients
from test_classes import _kinds_of_order

RHP, DISK = regions.right_half_plane(), regions.unit_disk()
OPS = (MUL, ADD, HADAMARD)

#: One matrix that some members stabilize and others do not; one whose
#: pos_diag compositions leave the half-plane about once in 1,000 draws
#: (d1 < 10^-5.73 d2), so a falsifier's hit can lie past chunk 0; and
#: one whose compositions overflow for members with entries above 1.
MATRICES = (np.array([[1.0, -3.0], [1.0, -1.0]]),
            np.array([[1.0, -3.0], [1.0, -10.0 ** -5.73]]),
            np.diag([1.7e308, -1.7e308]))


def _classes():
    """Every kind at order 2, and an explicit list longer than most budgets."""
    long_list = classes.explicit_list(
        [np.diag([-1.0 - k, 0.5 * k]) for k in range(11)] + [np.diag([3.0, 2.0])])
    return _kinds_of_order(2) + [long_list]


def _fields(report) -> tuple:
    """A report's or verdict's fields, arrays as (shape, dtype, bytes)."""
    return tuple((v.shape, v.dtype, v.tobytes()) if isinstance(v, np.ndarray) else v
                 for v in vars(report).values())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("budget, seed", [(1, 0), (3, 1), (50, 2), (400, 3)])
def test_stabilize_is_the_reference_bit_for_bit(budget, seed):
    cases = itertools.product(_classes(), MATRICES, OPS, (RHP, DISK))
    for cls, a, op, region in cases:
        if budget == 400 and region is DISK:
            continue  # the long descents at one region suffice
        got = stabilize(a, region, cls, op, budget=budget, seed=seed)
        with np.errstate(over="ignore"):  # its loss warned where shortfalls sum to inf
            want = reference_search.stabilize(a, region, cls, op, budget=budget, seed=seed)
        assert _fields(got) == _fields(want), (cls.kind, a[1, 1], op, region.kind)


@pytest.mark.filterwarnings("error")
def test_stabilize_scans_a_long_list_as_the_reference_does():
    # 2,000 members on the imaginary axis (-c I A has the spectrum of
    # -c A, +-i c sqrt(2)), one list with diag(3, 2) late among them and
    # one without it; the budget cuts the scan before that member, at a
    # stack's end and inside one, and after it.  The half-plane is also
    # given as a Hill region, whose scores take one spectrum at a time.
    a = MATRICES[0]
    plain = [-(1.0 + k / 1000.0) * np.eye(2) for k in range(2000)]
    late = plain[:1937] + [np.diag([3.0, 2.0])] + plain[1938:]
    hill = regions.hill_region(case_i_coefficients())
    for members, region in itertools.product((late, plain), (RHP, hill)):
        cls = classes.explicit_list(members)
        for budget in (8, 1500, 1937, 2000, 10_000):
            got = stabilize(a, region, cls, MUL, budget=budget, seed=0)
            want = reference_search.stabilize(a, region, cls, MUL, budget=budget, seed=0)
            assert _fields(got) == _fields(want), (len(members), region.kind, budget)
            assert got.found == (members is late and budget >= 1938), budget


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_falsify_is_the_reference_bit_for_bit(monkeypatch, threads):
    monkeypatch.setenv("DGSTAB_THREADS", threads)
    hits_past_chunk_0 = hits_past_chunk_1 = 0
    cases = itertools.product(_classes(), MATRICES, OPS, (RHP, DISK), (1, 600, 1500, 2000))
    for cls, a, op, region, budget in cases:
        if cls.is_finite:
            continue  # decide enumerates a finite class; it is never sampled
        q = Query(a, region, cls, op, budget=budget, seed=budget % 7)
        got, want = falsify(q), reference_search.falsify(q)
        assert _fields(got) == _fields(want), (cls.kind, a[1, 1], op, region.kind, budget)
        hits_past_chunk_0 += got.witness is not None and got.trials_used > 512
        # past chunk 1: in the second window of chunks at two threads
        hits_past_chunk_1 += got.witness is not None and got.trials_used > 1024
    assert hits_past_chunk_0 and hits_past_chunk_1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_inertia_preserving_is_the_reference_bit_for_bit(monkeypatch, threads):
    monkeypatch.setenv("DGSTAB_THREADS", threads)  # it runs on one thread regardless
    cases = itertools.product(_classes(), MATRICES, OPS, (RHP, DISK), (1, 600))
    for cls, a, op, region, budget in cases:
        got = inertia_preserving(a, cls, op, region, budget=budget, seed=budget % 5)
        want = reference_search.inertia_preserving(a, cls, op, region, budget=budget,
                                                   seed=budget % 5)
        assert _fields(got) == _fields(want), (cls.kind, a[1, 1], op, region.kind, budget)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_an_inertia_mismatch_past_chunk_0_is_the_references(monkeypatch, threads):
    # about 1 in 1,000 draws puts g2 a22 inside the boundary band, and the
    # chunks share one stream, so a hit past chunk 0 depends on every
    # chunk before it being drawn, in order
    monkeypatch.setenv("DGSTAB_THREADS", threads)
    a = np.diag([1.0, 10.0 ** -6.006])
    for seed, trials in ((1, 665), (2, 1477), (3, 1126), (5, 2122), (7, 604)):
        got = inertia_preserving(a, classes.pos_diag(2), MUL, RHP, budget=3000, seed=seed)
        want = reference_search.inertia_preserving(a, classes.pos_diag(2), MUL, RHP,
                                                   budget=3000, seed=seed)
        assert _fields(got) == _fields(want), seed
        assert (got.plausible, got.trials) == (False, trials), seed


@pytest.mark.parametrize("budget", [1, 2, 7])
def test_no_search_evaluates_past_its_budget(monkeypatch, budget):
    # every composition that stabilize's loss or the two scans make goes
    # through algebra.finite_spectra; stabilize's check of a found witness
    # adds one
    sizes, finite_spectra = [], algebra.finite_spectra

    def counting(op, gs, a):
        sizes.append(len(gs))
        return finite_spectra(op, gs, a)

    monkeypatch.setattr(algebra, "finite_spectra", counting)
    a = MATRICES[0]
    for cls in _classes():
        sizes.clear()
        rep = stabilize(a, RHP, cls, MUL, budget=budget, seed=budget)
        assert rep.evaluations <= budget and sum(sizes) <= budget + rep.found, cls.kind
        sizes.clear()
        rep = inertia_preserving(a, cls, MUL, RHP, budget=budget, seed=budget)
        assert rep.trials <= budget and sum(sizes) <= budget, cls.kind
        if not cls.is_finite:
            sizes.clear()
            v = falsify(Query(a, RHP, cls, MUL, budget=budget, seed=budget))
            assert v.trials_used <= budget and sum(sizes) <= budget, cls.kind
