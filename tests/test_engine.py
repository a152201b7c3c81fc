import json
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import dgstab as dg
from dgstab import algebra, certify, classes, engine, regions, serialize
from dgstab.algebra import MUL, BinaryOp, OpKind, Side
from dgstab.certify import CertKind, Certificate
from dgstab.engine import (
    Query,
    Transform,
    TransformKind,
    VerdictStatus,
    check_region_stability,
    decide,
    falsify,
    inertia_preserving,
    restrict_class,
    stabilize,
    total_stability,
    transfer_verdict,
    transform_query,
)
from dgstab.errors import (
    DimensionMismatchError,
    OrderTooLargeError,
    SingularOperatorError,
)
from dgstab.linalg import principal_submatrix

RHP = dg.right_half_plane()

# positive stable (eigenvalues 1 +- 2i) but not D-stable:
# trace(D A) = -d1 + 3 d2 goes negative for d1 > 3 d2
NOT_D_STABLE = np.array([[-1.0, 2.0], [-4.0, 3.0]])

# D-stable but not diagonally stable: trace(D A) = d2 > 0 and
# det(D A) = d1 d2 > 0 always, yet the form has a zero (1,1) entry
D_STABLE_NO_CERT = np.array([[0.0, 1.0], [-1.0, 1.0]])


def test_check_region_stability_examples():
    assert check_region_stability(np.eye(2), RHP)
    assert not check_region_stability(
        [[0.0, 1.0], [-1.0, 0.0]], dg.nonzero_real_part()
    )
    assert check_region_stability(np.diag([0.5, -0.5]), dg.unit_disk())


def test_decide_certifies_identity():
    q = Query(np.eye(2), RHP, classes.pos_diag(2), MUL, budget=100, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.CERTIFIED
    assert v.certificate.kind is CertKind.DIAGONAL_LYAPUNOV
    assert dg.verify_certificate(v.certificate, np.eye(2))


@pytest.mark.parametrize("tol", [-1.0, -1e-300, np.inf, np.nan])
def test_query_rejects_a_negative_or_non_finite_tol(tol):
    # with tol=-1 every spectrum has an exterior margin beyond tol: 0.5*I
    # was refuted for positive diagonals, witness I and margin -0.5
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        Query(0.5 * np.eye(2), RHP, classes.pos_diag(2), MUL, tol=tol)
    q = Query(0.5 * np.eye(2), RHP, classes.pos_diag(2), MUL, tol=0.0)
    assert decide(q).status is VerdictStatus.CERTIFIED


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 2.5), ("seed", "7"), ("budget", 2.5), ("budget", "100"),
])
def test_query_rejects_a_seed_or_budget_that_is_not_an_integer_in_range(field, value):
    # seed=-1 once failed partway through decide with numpy's "expected
    # non-negative integer", and budget=2.5 in falsify with a TypeError
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        Query(np.eye(2), RHP, classes.pos_diag(2), MUL, **{field: value})
    q = Query(np.eye(2), RHP, classes.pos_diag(2), MUL, budget=np.int64(5), seed=np.int64(0))
    assert decide(q).status is VerdictStatus.CERTIFIED


@pytest.mark.parametrize("a, cls, settings, message", [
    ([[np.nan]], classes.diag(1), {}, "matrix contains non-finite entries"),
    ([[1.0, 2.0, 3.0]], classes.diag(1), {}, r"matrix must be square, got shape \(1, 3\)"),
    (np.eye(2), classes.diag(3), {}, "matrix order does not match class order"),
    (np.eye(2), classes.explicit_list([np.eye(3)]), {},
     "matrix order does not match class order"),
    (np.eye(2), classes.diag(2), {"seed": -1}, "seed must be an integer >= 0"),
    (np.eye(2), classes.diag(2), {"budget": 2.5}, "budget must be an integer >= 1"),
])
def test_stabilize_and_inertia_preserving_validate_as_query_does(a, cls, settings, message):
    # a class of another order once reached numpy's "operand shapes
    # (1, 3, 3) and (2, 2) are incompatible"
    for call in (lambda: Query(a, RHP, cls, MUL, **settings),
                 lambda: stabilize(a, RHP, cls, MUL, **settings),
                 lambda: inertia_preserving(a, cls, MUL, RHP, **settings)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_decide_refutes_non_d_stable():
    q = Query(NOT_D_STABLE, RHP, classes.pos_diag(2), MUL, budget=100_000, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.REFUTED
    assert classes.contains(classes.pos_diag(2), v.witness)
    m = v.witness @ NOT_D_STABLE
    w = np.linalg.eigvals(m)
    assert np.max(regions.exterior_margins(RHP, w)) > q.tol
    # the known analytic witness family: d1 > 3 d2
    d = np.diag(v.witness)
    assert -d[0] + 3 * d[1] < 0


def test_decide_exhausts_vertex_class():
    q = Query(0.4 * np.eye(2), dg.unit_disk(), classes.vertex_diag(2), MUL,
              budget=100, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.CERTIFIED
    assert v.certificate.kind is CertKind.EXHAUSTIVE
    assert v.certificate.members_checked == 4
    assert dg.verify_certificate(v.certificate, 0.4 * np.eye(2))


def test_decide_exhaustion_refutes():
    a = np.diag([0.5, 1.5])
    q = Query(a, dg.unit_disk(), classes.vertex_diag(2), MUL, budget=10, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.REFUTED
    assert classes.contains(classes.vertex_diag(2), v.witness)


@pytest.mark.filterwarnings("error")
def test_an_enumeration_that_skips_an_overflowed_member_never_certifies():
    # 1e300 * 1e10 overflows: the enumeration once raised LinAlgError
    v = decide(Query([[1e10]], RHP, classes.explicit_list([[[1e300]]]), MUL))
    assert v.status is VerdictStatus.UNKNOWN
    assert v.provenance[-1] == ("exhaustive enumeration inconclusive: 1 of 1 "
                                "compositions overflowed and were skipped")
    # interior members beside an overflowed one leave the verdict unknown
    v = decide(Query([[1e10]], RHP, classes.explicit_list([[[1.0]], [[1e300]], [[2.0]]]),
                     MUL))
    assert v.status is VerdictStatus.UNKNOWN
    assert v.provenance[-1].startswith("exhaustive enumeration inconclusive: 1 of 3 ")
    # a refuting member after an overflowed one is found, at its own index
    v = decide(Query([[1e10]], RHP, classes.explicit_list([[[1e300]], [[1.0]], [[-1.0]]]),
                     MUL))
    assert v.status is VerdictStatus.REFUTED and v.witness.tolist() == [[-1.0]]
    assert v.provenance[-1] == "exhaustive enumeration refutes at member 2 of 3"
    # an exhaustive certificate does not verify where a member overflows
    cert = Certificate(CertKind.EXHAUSTIVE, None, 1.0,
                       triple=(RHP, classes.explicit_list([[[1.0]], [[1e300]]]), MUL))
    assert not dg.verify_certificate(cert, [[1e10]])
    assert dg.verify_certificate(cert, [[1.0]])


def test_decide_identity_precheck_refutes():
    q = Query(-np.eye(2), RHP, classes.pos_diag(2), MUL, budget=10, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.REFUTED
    np.testing.assert_array_equal(v.witness, np.eye(2))


def test_decide_unboundedness_precheck():
    q = Query(0.4 * np.eye(2), dg.unit_disk(), classes.pos_diag(2), MUL,
              budget=10, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.REFUTED
    assert dg.spectral_radius(v.witness @ (0.4 * np.eye(2))) > 1.0


def test_decide_unknown_when_nothing_applies():
    q = Query(D_STABLE_NO_CERT, RHP, classes.pos_diag(2), MUL,
              budget=2000, seed=3)
    v = decide(q)
    assert v.status is VerdictStatus.UNKNOWN
    assert v.trials_used == 2000


def test_decide_is_deterministic():
    q = Query(NOT_D_STABLE, RHP, classes.pos_diag(2), MUL, budget=5000, seed=9)
    v1 = decide(q)
    v2 = decide(q)
    assert v1.status == v2.status
    np.testing.assert_array_equal(v1.witness, v2.witness)
    assert v1.trials_used == v2.trials_used
    assert v1.provenance == v2.provenance


def test_a_searched_certificate_does_not_depend_on_the_seed():
    # D = I is no certificate (A + A^T is indefinite): the certificate
    # comes from Newton steps, and neither it nor the verdict may depend
    # on the query's seed
    a = np.array([[33.837, 0.21, 50.785, 31.15, 6.971],
                  [1.776, 1.781, 0.649, -1.516, -0.107],
                  [-4.322, 18.328, 15.532, 5.284, -11.623],
                  [-3.641, 18.37, 8.783, 12.208, 11.683],
                  [0.126, 0.231, 0.258, -0.078, 0.148]])
    assert np.linalg.eigvalsh(a + a.T)[0] < 0.0
    outputs = set()
    for seed in range(5):
        v = decide(Query(a, RHP, classes.pos_diag(5), MUL, seed=seed))
        assert v.status is VerdictStatus.CERTIFIED, seed
        outputs.add(serialize.dumps(serialize.verdict_to_json(v)))
    assert len(outputs) == 1


def test_falsify_examples():
    q = Query(NOT_D_STABLE, RHP, classes.pos_diag(2), MUL, budget=100_000, seed=2)
    v = falsify(q)
    assert v.status is VerdictStatus.REFUTED

    q = Query(np.eye(2), RHP, classes.pos_diag(2), MUL, budget=1000, seed=2)
    v = falsify(q)
    assert v.status is VerdictStatus.UNKNOWN
    assert v.trials_used == 1000

    q = Query(-np.eye(2), RHP, classes.pos_diag(2), MUL, budget=1000, seed=2)
    v = falsify(q)
    assert v.status is VerdictStatus.REFUTED
    assert v.trials_used == 1


def test_falsify_witness_reproduces():
    rng = np.random.default_rng(50)
    checked = 0
    while checked < 30:
        a = rng.uniform(-2, 2, (2, 2))
        q = Query(a, RHP, classes.pos_diag(2), MUL, budget=2000,
                  seed=int(rng.integers(1 << 30)))
        v = falsify(q)
        if v.status is not VerdictStatus.REFUTED:
            continue
        checked += 1
        w = np.linalg.eigvals(v.witness @ a)
        margins = regions.exterior_margins(RHP, w)
        assert np.max(margins) > q.tol
        assert abs(np.max(margins) - v.margin) < 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_falsify_skips_compositions_that_overflow(monkeypatch, threads):
    # S diag(1e308, 1e308) overflows for the SPD members with an entry
    # above about 1.8; the others are finite and never leave the half-plane
    monkeypatch.setenv("DGSTAB_THREADS", threads)
    v = falsify(Query(np.diag([1e308, 1e308]), RHP, classes.spd(2), MUL, budget=50))
    assert (v.status, v.trials_used) == (VerdictStatus.UNKNOWN, 50)
    note = v.provenance[-1]
    assert note.startswith("falsification exhausted 50 trials (")
    assert note.endswith(" compositions overflowed and were skipped)")
    assert 0 < int(note.split("(")[1].split()[0]) < 50
    # a finite member with a negative eigenvalue is still found, and it
    # is the same one for every thread count
    a = np.diag([-1e308, 1e308])
    v = falsify(Query(a, RHP, classes.spd(2), MUL, budget=1200, seed=3))
    assert v.status is VerdictStatus.REFUTED
    m = v.witness @ a
    assert np.isfinite(m).all() and classes.contains(classes.spd(2), v.witness, 1e-7)
    assert regions.first_exit(RHP, np.linalg.eigvals(m)[None], 1e-7)[1:] == (
        v.offending_eigenvalue, v.margin)
    monkeypatch.setenv("DGSTAB_THREADS", "1")
    ref = falsify(Query(a, RHP, classes.spd(2), MUL, budget=1200, seed=3))
    assert (ref.trials_used, ref.margin) == (v.trials_used, v.margin)
    np.testing.assert_array_equal(ref.witness, v.witness)


class _RecordingPool:
    """A stand-in for ``ThreadPoolExecutor`` that records ``max_workers``
    and maps in the calling thread, starting none."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("affinity", [True, False])
def test_the_falsifier_pool_is_capped_at_the_available_cpus(monkeypatch, affinity):
    # DGSTAB_THREADS has no upper bound of its own: the pool once started
    # a thread per chunk up to it
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    if affinity:
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    else:
        monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
    q = Query(np.eye(2), RHP, classes.pos_diag(2), MUL, budget=20 * engine._CHUNK)
    monkeypatch.setenv("DGSTAB_THREADS", "1000000")
    v = falsify(q)
    assert _RecordingPool.made == [3]
    monkeypatch.setenv("DGSTAB_THREADS", "2")
    assert falsify(q).trials_used == v.trials_used == q.budget
    assert _RecordingPool.made == [3, 2]
    # one available CPU, or one thread asked for: no pool at all
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for threads in ("1000000", "1"):
        monkeypatch.setenv("DGSTAB_THREADS", threads)
        assert falsify(q).trials_used == q.budget
    assert _RecordingPool.made == [3, 2]


@pytest.mark.filterwarnings("error")
def test_inertia_preserving_skips_compositions_that_overflow():
    rep = inertia_preserving(np.diag([1e308, 1e308]), classes.spd(2), MUL, RHP, budget=50)
    assert rep.plausible and rep.trials == 50 and 0 < rep.overflowed < 50
    # -A flips the inertia of every finite composition
    rep = inertia_preserving(np.diag([-1e308, -1e308]), classes.spd(2), MUL, RHP, budget=50)
    assert not rep.plausible and np.isfinite(rep.witness @ np.diag([-1e308, -1e308])).all()
    assert (rep.witness_inertia, rep.product_inertia) == ((2, 0, 0), (0, 0, 2))
    assert inertia_preserving(np.eye(2), classes.spd(2), MUL, RHP, budget=50).overflowed == 0


def test_stabilize_examples():
    rep = stabilize(-np.eye(2), RHP, classes.diag(2), MUL, budget=3000, seed=4)
    assert rep.found
    assert check_region_stability(rep.witness @ -np.eye(2), RHP)

    rep = stabilize(np.diag([1.0, -1.0]), RHP, classes.diag(2), MUL,
                    budget=3000, seed=4)
    assert rep.found

    circulant = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    rep = stabilize(circulant, RHP, classes.diag(3), MUL, budget=4000, seed=4)
    assert not rep.found


@pytest.mark.parametrize("budget", [0, -3])
def test_stabilize_rejects_a_budget_below_one(budget):
    # it once ran no search and reported nothing found, as Query rejects
    for cls in (classes.diag(2), classes.explicit_list([np.eye(2)])):
        with pytest.raises(ValueError, match="budget"):
            stabilize(-np.eye(2), RHP, cls, MUL, budget=budget)


@pytest.mark.parametrize("budget", [0, -3])
def test_inertia_preserving_rejects_a_budget_below_one(budget):
    # it once reported plausible=True from zero trials
    with pytest.raises(ValueError, match="budget"):
        inertia_preserving(np.eye(2), classes.symmetric(2), MUL, RHP, budget=budget)


def test_stabilize_explicit_list():
    cls = classes.explicit_list([-np.eye(2), np.eye(2)])
    rep = stabilize(-np.eye(2), RHP, cls, MUL, budget=10, seed=1)
    assert rep.found
    np.testing.assert_array_equal(rep.witness, -np.eye(2))


def test_stabilize_enumerates_at_most_budget_members_of_a_list():
    # it once scanned the whole list whatever the budget
    cls = classes.explicit_list([np.eye(2), 2.0 * np.eye(2), -np.eye(2)])
    rep = stabilize(-np.eye(2), RHP, cls, MUL, budget=1)
    assert (rep.found, rep.evaluations) == (False, 1)
    rep = stabilize(-np.eye(2), RHP, cls, MUL, budget=3)
    assert (rep.found, rep.evaluations) == (True, 3)
    np.testing.assert_array_equal(rep.witness, -np.eye(2))


@pytest.mark.filterwarnings("error")
def test_stabilize_skips_compositions_that_overflow():
    # its loss and its verification once raised LinAlgError ("Array must
    # not contain infs or NaNs") on an overflowed composition
    a = np.diag([1e300, -1e300])
    rep = stabilize(a, RHP, classes.spd(2), MUL, budget=200)
    assert (rep.found, rep.witness, rep.evaluations) == (False, None, 200)
    # a list member that overflows is skipped, and a later one found
    cls = classes.explicit_list([np.diag([1e10, 1.0]), np.diag([1.0, -1.0])])
    rep = stabilize(a, RHP, cls, MUL, budget=10)
    assert (rep.found, rep.evaluations) == (True, 2)
    np.testing.assert_array_equal(rep.witness, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("op", [MUL, dg.ADD], ids=["mul", "add"])
@pytest.mark.parametrize("cls", [
    classes.pos_diag(2), classes.theta_ordered((0, 1)), classes.symmetric(2),
    classes.rank_k_positive(2, 2), classes.sum_rank_one_positive(2, 2), classes.spd(2),
    classes.alpha_block_spd(classes.Partition.from_sizes([1, 1])), classes.diag(2),
    classes.sign_diag([1, 1]), classes.alpha_scalar(classes.Partition.from_sizes([1, 1])),
    classes.pos_alpha_scalar(classes.Partition.from_sizes([1, 1])),
    classes.box_diag([0.0, 0.0], [4.0, 4.0])],
    ids=lambda c: c.kind.value)
def test_stabilize_decodes_the_parametrization_of_each_kind(cls, op):
    # every class has members near diag(3, 2), which stabilizes both:
    # D A = [[d1, -3 d1], [d2, -d2]] for d1 > d2 > 0, D + A for d2 > 1
    a = np.array([[1.0, -3.0], [1.0, -1.0]]) if op is MUL else np.diag([1.0, -1.0])
    rep = stabilize(a, RHP, cls, op, budget=2000, seed=3)
    assert rep.found
    assert classes.contains(cls, rep.witness, 1e-7)
    assert check_region_stability(algebra.apply(op, rep.witness, a), RHP)
    again = stabilize(a, RHP, cls, op, budget=2000, seed=3)
    assert again.evaluations == rep.evaluations
    np.testing.assert_array_equal(again.witness, rep.witness)


def test_total_stability_identity():
    q = Query(np.eye(3), RHP, classes.pos_diag(3), MUL, budget=100, seed=1)
    rep = total_stability(q)
    assert rep.overall is VerdictStatus.CERTIFIED
    assert len(rep.results) == 7


def test_total_stability_restricts_the_full_certificate():
    q = Query(np.eye(3), RHP, classes.pos_diag(3), MUL, budget=100, seed=1)
    rep = total_stability(q)
    full = rep.results.pop((0, 1, 2))
    assert full.provenance == decide(q).provenance
    assert list(rep.results) == [(0,), (1,), (0, 1), (2,), (0, 2), (1, 2)]
    for idx, v in rep.results.items():
        assert v.status is VerdictStatus.CERTIFIED
        assert v.certificate.kind is CertKind.DIAGONAL_LYAPUNOV
        np.testing.assert_array_equal(v.certificate.witness, np.eye(len(idx)))
        assert v.certificate.min_eig == 2.0
        assert v.provenance == ("restricted from the full matrix's certificate "
                                "(diagonal_lyapunov, min_eig=2.000e+00) and re-verified",)


def test_total_stability_decides_what_an_exhaustive_certificate_cannot_restrict():
    q = Query(0.5 * np.eye(2), dg.unit_disk(), classes.vertex_diag(2), MUL,
              budget=100, seed=1)
    rep = total_stability(q)
    assert rep.overall is VerdictStatus.CERTIFIED
    for idx, v in rep.results.items():
        assert v.certificate.kind is CertKind.EXHAUSTIVE
        assert v.provenance == decide(Query(
            0.5 * np.eye(len(idx)), q.region, classes.vertex_diag(len(idx)), MUL,
            budget=100, seed=1)).provenance


def test_decide_draws_each_stage_from_its_spawned_stream(monkeypatch):
    # the escape and the falsifier's first chunk start from children 0
    # and 2 of SeedSequence(seed); the certificate search draws nothing
    seed = 11
    kids = np.random.SeedSequence(seed).spawn(3)
    states = []

    def recording(fn):
        def wrapped(*args):
            rng = next(x for x in args if isinstance(x, np.random.Generator))
            states.append(rng.bit_generator.state)
            return fn(*args)
        return wrapped

    cases = [
        # the escape scales a sample of the unbounded class
        (classes, "sample", np.eye(2), dg.unit_disk(), kids[0]),
        # the screen rejects a_11 = 0, so only the falsifier draws
        (classes, "sample_batch", D_STABLE_NO_CERT, RHP, kids[2].spawn(2)[0]),
    ]
    for module, attr, a, region, stream in cases:
        states.clear()
        with monkeypatch.context() as m:
            m.setattr(module, attr, recording(getattr(module, attr)))
            decide(Query(a, region, classes.pos_diag(2), MUL, budget=600, seed=seed))
        assert states and states[0] == np.random.default_rng(stream).bit_generator.state, attr


def test_total_stability_negative_entry_refutes_at_singleton():
    a = np.array([[1.0, 0.0], [0.0, -0.5]])
    q = Query(a, RHP, classes.pos_diag(2), MUL, budget=100, seed=1)
    rep = total_stability(q)
    assert rep.overall is VerdictStatus.REFUTED
    assert rep.results[(1,)].status is VerdictStatus.REFUTED


def test_total_stability_refutes_full_set_and_singleton():
    q = Query(NOT_D_STABLE, RHP, classes.pos_diag(2), MUL, budget=50_000, seed=1)
    rep = total_stability(q)
    assert rep.results[(0,)].status is VerdictStatus.REFUTED  # a11 = -1
    assert rep.results[(0, 1)].status is VerdictStatus.REFUTED
    assert rep.overall is VerdictStatus.REFUTED


def test_total_stability_order_guard():
    with pytest.raises(OrderTooLargeError):
        total_stability(Query(np.eye(17), RHP, classes.pos_diag(17), MUL))


def test_restrict_class_structures():
    part = classes.Partition.from_sizes([2, 2])
    sub = restrict_class(classes.pos_alpha_scalar(part), (0, 1, 3))
    assert sub.partition.blocks == ((0, 1), (2,))
    sub = restrict_class(classes.theta_ordered((3, 0, 2, 1)), (0, 2, 3))
    assert sub.theta == (2, 0, 1)
    sub = restrict_class(classes.box_diag([0, 1, 2], [1, 2, 3]), (0, 2))
    assert sub.lo == (0.0, 2.0) and sub.hi == (1.0, 3.0)
    sub = restrict_class(classes.rank_k_positive(4, 3), (0, 1))
    assert sub.rank == 2


def test_inertia_preserving_examples():
    rep = inertia_preserving(np.eye(3), classes.symmetric(3), MUL, RHP,
                             budget=300, seed=5)
    assert rep.plausible

    rep = inertia_preserving(-np.eye(3), classes.symmetric(3), MUL, RHP,
                             budget=300, seed=5)
    assert not rep.plausible
    assert rep.witness_inertia != rep.product_inertia

    rng = np.random.default_rng(51)
    b = rng.standard_normal((3, 3))
    a_spd = b @ b.T + 0.5 * np.eye(3)
    rep = inertia_preserving(a_spd, classes.symmetric(3), MUL, RHP,
                             budget=300, seed=5)
    assert rep.plausible


def test_transfer_transpose_refuted():
    q = Query(NOT_D_STABLE, RHP, classes.pos_diag(2), MUL, budget=50_000, seed=1)
    v = decide(q)
    tf = Transform(TransformKind.TRANSPOSE)
    vt = transfer_verdict(v, q, tf)
    assert vt.status is VerdictStatus.REFUTED
    qt = transform_query(q, tf)
    w = np.linalg.eigvals(vt.witness @ qt.a)
    assert np.max(regions.exterior_margins(RHP, w)) > q.tol


def test_transfer_certified_cases():
    q = Query(np.eye(2), RHP, classes.pos_diag(2), MUL, budget=100, seed=1)
    v = decide(q)
    for tf in (
        Transform(TransformKind.TRANSPOSE),
        Transform(TransformKind.OP_INVERSE),
        Transform(TransformKind.SCALAR, alpha=2.0),
        Transform(TransformKind.SIMILARITY, s=np.array([[0.0, 1.0], [1.0, 0.0]])),
        Transform(TransformKind.SIMILARITY, s=np.diag([2.0, 0.5])),
    ):
        vt = transfer_verdict(v, q, tf)
        assert vt.status is VerdictStatus.CERTIFIED, tf
        qt = transform_query(q, tf)
        assert dg.verify_certificate(vt.certificate, qt.a)


def test_transfer_inapplicable_cases():
    # negative scalar leaves the right half-plane
    q = Query(np.eye(2), RHP, classes.pos_diag(2), MUL, budget=100, seed=1)
    v = decide(q)
    vt = transfer_verdict(v, q, Transform(TransformKind.SCALAR, alpha=-1.0))
    assert vt.status is VerdictStatus.UNKNOWN
    assert "inapplicable" in vt.provenance[0]

    # vertex class is not closed under scaling, addition side
    q2 = Query(0.4 * np.eye(2), dg.unit_disk(), classes.vertex_diag(2), MUL,
               budget=10, seed=1)
    v2 = decide(q2)
    vt = transfer_verdict(v2, q2, Transform(TransformKind.OP_INVERSE))
    # reciprocal image of the disk is unrepresentable -> inapplicable
    assert vt.status is VerdictStatus.UNKNOWN


def test_transfer_scalar_on_disk_shrinks():
    a = np.diag([0.5, -0.3])
    q = Query(a, dg.unit_disk(), classes.box_diag([-1, -1], [1, 1]), MUL,
              budget=500, seed=2)
    v = decide(q)
    assert v.status is VerdictStatus.CERTIFIED
    vt = transfer_verdict(v, q, Transform(TransformKind.SCALAR, alpha=0.5))
    assert vt.status is VerdictStatus.CERTIFIED


def test_transfer_op_inverse_requires_nonsingular():
    q = Query(np.diag([1.0, 0.0]), RHP, classes.pos_diag(2), MUL,
              budget=10, seed=1)
    with pytest.raises(SingularOperatorError):
        transform_query(q, Transform(TransformKind.OP_INVERSE))


@pytest.mark.parametrize("s", [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]])])
def test_a_singular_similarity_raises_singular_operator_error(s):
    # numpy's LinAlgError once escaped, where the op-inverse branch
    # raised SingularOperatorError
    tf = Transform(TransformKind.SIMILARITY, s=s)
    with pytest.raises(SingularOperatorError, match="^similarity matrix is singular$"):
        engine.transform_matrix(np.eye(2), tf, MUL)
    # the transfer rejects such an s before it inverts anything
    q = Query(np.eye(2), RHP, classes.pos_diag(2), MUL, budget=100, seed=1)
    vt = transfer_verdict(decide(q), q, tf)
    assert vt.provenance == (
        "transfer (similarity): theorem inapplicable: similarity matrix must be a "
        "permutation or a nonsingular diagonal",)


def test_similarity_of_another_order_is_inapplicable():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    for cls in (classes.pos_diag(2), classes.sign_diag([1, -1]),
                classes.box_diag([0, 0], [1, 1])):
        q = Query(a, RHP, cls, MUL, budget=100, seed=1)
        v = decide(q)
        for s in (np.eye(3), np.eye(3)[[1, 0, 2]]):
            tf = Transform(TransformKind.SIMILARITY, s=s)
            vt = transfer_verdict(v, q, tf)
            assert vt.status is VerdictStatus.UNKNOWN
            assert vt.provenance == (
                "transfer (similarity): theorem inapplicable: similarity matrix "
                "order does not match the matrix",)
            with pytest.raises(DimensionMismatchError):
                engine.transform_matrix(a, tf, MUL)


def test_non_finite_scalar_is_inapplicable():
    q = Query(np.eye(2), RHP, classes.pos_diag(2), MUL, budget=100, seed=1)
    v = decide(q)
    for alpha in (np.inf, -np.inf, np.nan):
        tf = Transform(TransformKind.SCALAR, alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vt = transfer_verdict(v, q, tf)
            with pytest.raises(ValueError, match="scalar is not finite"):
                engine.transform_matrix(q.a, tf, MUL)
            with pytest.raises(ValueError, match="scalar is not finite"):
                transform_query(q, tf)
        assert vt.status is VerdictStatus.UNKNOWN
        assert vt.provenance == (
            "transfer (scalar): theorem inapplicable: scalar is not finite",)


@pytest.mark.parametrize("kind, needed", [
    (TransformKind.TRANSPOSE, None),
    (TransformKind.OP_INVERSE, None),
    (TransformKind.SCALAR, "alpha"),
    (TransformKind.SIMILARITY, "s"),
])
def test_a_transform_without_its_parameter_is_rejected(kind, needed):
    if needed is None:
        assert Transform(kind).kind is kind
        return
    other = {"alpha": {"s": np.eye(2)}, "s": {"alpha": 2.0}}[needed]
    for fields in ({}, other):
        with pytest.raises(ValueError, match=f"^{kind.value} transform needs its "
                                             f"'{needed}' field$"):
            Transform(kind, **fields)


def _transferred_refutation_reproduces(q, tf):
    v = decide(q)
    assert v.status is VerdictStatus.REFUTED
    vt = transfer_verdict(v, q, tf)
    assert vt.status is VerdictStatus.REFUTED, vt.provenance
    assert classes.contains(q.cls, vt.witness, 1e-7)
    w = np.linalg.eigvals(algebra.apply(q.op, vt.witness, transform_query(q, tf).a))
    assert np.max(regions.exterior_margins(q.region, w)) > q.tol


@pytest.mark.parametrize("cls", [
    classes.box_diag([-1, -1], [1, 1]),
    classes.parametric_rank_one([1.0, 1.0], [1.0, 1.0], (-1.0, 1.0)),
])
def test_negation_transfers_on_classes_closed_under_it(cls):
    # G + (-A) = -((-G) + A) and the disk is symmetric about 0
    q = Query(0.5 * np.eye(2), dg.unit_disk(), cls, BinaryOp(OpKind.ADD),
              budget=2000, seed=3)
    _transferred_refutation_reproduces(
        q, Transform(TransformKind.SCALAR, alpha=-1.0))


def test_a_permutation_fixing_x_and_y_transfers_on_a_rank_one_class():
    # S (tau x y^T) S^T = tau x y^T when S fixes x and y
    cls = classes.parametric_rank_one([1.0, 1.0], [1.0, 1.0], (-1.0, 1.0))
    q = Query([[1.0, 2.0], [0.0, 3.0]], RHP, cls, MUL, budget=2000, seed=3)
    _transferred_refutation_reproduces(
        q, Transform(TransformKind.SIMILARITY, s=np.array([[0.0, 1.0], [1.0, 0.0]])))


def test_refuted_transfers_to_smaller_region():
    # nested regions: a right-half-plane witness also refutes the ray
    q = Query(NOT_D_STABLE, RHP, classes.pos_diag(2), MUL, budget=50_000, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.REFUTED
    w = np.linalg.eigvals(v.witness @ NOT_D_STABLE)
    assert np.max(regions.exterior_margins(dg.positive_ray(), w)) > q.tol


def test_union_decomposition_over_orderings():
    # refuting over all positive diagonals matches refuting over the
    # ordered subclasses for at least one ordering, exhaustively at n=3
    import itertools

    a3 = np.array([[-1.0, 2.0, 0.0], [-4.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
    q = Query(a3, RHP, classes.pos_diag(3), MUL, budget=50_000, seed=6)
    v = decide(q)
    assert v.status is VerdictStatus.REFUTED
    refuted_thetas = []
    for theta in itertools.permutations(range(3)):
        qt = Query(a3, RHP, classes.theta_ordered(theta), MUL,
                   budget=20_000, seed=6)
        vt = falsify(qt)
        if vt.status is VerdictStatus.REFUTED:
            refuted_thetas.append(theta)
    assert refuted_thetas

    stable = np.eye(3)
    for theta in itertools.permutations(range(3)):
        qt = Query(stable, RHP, classes.theta_ordered(theta), MUL,
                   budget=2000, seed=6)
        assert falsify(qt).status is VerdictStatus.UNKNOWN


def test_group_closure_consequence():
    # certified matrices stay unrefuted after composing with a member
    rng = np.random.default_rng(52)
    q = Query(np.eye(3), RHP, classes.pos_diag(3), MUL, budget=100, seed=1)
    assert decide(q).status is VerdictStatus.CERTIFIED
    for _ in range(50):
        d = classes.sample(classes.pos_diag(3), rng)
        q2 = Query(d @ np.eye(3), RHP, classes.pos_diag(3), MUL,
                   budget=1000, seed=int(rng.integers(1 << 30)))
        assert decide(q2).status is not VerdictStatus.REFUTED


def test_right_side_queries():
    op = BinaryOp(OpKind.MUL, Side.RIGHT)
    q = Query(NOT_D_STABLE, RHP, classes.pos_diag(2), op, budget=50_000, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.REFUTED
    w = np.linalg.eigvals(NOT_D_STABLE @ v.witness)
    assert np.max(regions.exterior_margins(RHP, w)) > q.tol


def test_certified_never_contradicted_by_samples():
    # a certified verdict must survive fresh sampling of the class
    rng = np.random.default_rng(53)
    a = np.array([[1.0, 0.3], [-0.2, 0.8]])
    q = Query(a, RHP, classes.pos_diag(2), MUL, budget=100, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.CERTIFIED
    gs = classes.sample_batch(classes.pos_diag(2), rng, 1000)
    w = np.linalg.eigvals(gs @ a)
    assert np.max(regions.exterior_margins(RHP, w.ravel())) <= q.tol


def test_certified_implies_no_subclass_refutation():
    # shrinking the class can only preserve stability: no ordered
    # subclass of the positive diagonals refutes a certified matrix
    a = np.array([[1.0, 0.3], [-0.2, 0.8]])
    q = Query(a, RHP, classes.pos_diag(2), MUL, budget=100, seed=1)
    assert decide(q).status is VerdictStatus.CERTIFIED
    for theta in ((0, 1), (1, 0)):
        sub = Query(a, RHP, classes.theta_ordered(theta), MUL,
                    budget=3000, seed=2)
        assert falsify(sub).status is VerdictStatus.UNKNOWN


def test_refuted_witnesses_reproduce_in_bulk():
    # every stored witness must re-produce its exterior eigenvalue
    rng = np.random.default_rng(54)
    reproduced = 0
    while reproduced < 100:
        a = rng.uniform(-2, 2, (2, 2))
        q = Query(a, RHP, classes.pos_diag(2), MUL, budget=500,
                  seed=int(rng.integers(1 << 30)))
        v = decide(q)
        if v.status is not VerdictStatus.REFUTED:
            continue
        w = np.linalg.eigvals(v.witness @ a)
        assert np.max(regions.exterior_margins(RHP, w)) > q.tol
        assert classes.contains(classes.pos_diag(2), v.witness)
        reproduced += 1


def test_certificates_can_be_disabled():
    q = Query(np.eye(2), RHP, classes.pos_diag(2), MUL, budget=500, seed=1)
    v = decide(q, use_certificates=False)
    assert v.status is VerdictStatus.UNKNOWN
    assert any("disabled" in p for p in v.provenance)


def test_transfer_additive_scalar_scales_witness():
    # under addition the scalar rule moves the witness to alpha * G
    a = np.diag([1.0, -2.0])  # refuted additively: identity fails
    q = Query(a, RHP, classes.pos_diag(2), dg.ADD, budget=2000, seed=3)
    v = decide(q)
    assert v.status is VerdictStatus.REFUTED
    tf = Transform(TransformKind.SCALAR, alpha=2.0)
    vt = transfer_verdict(v, q, tf)
    assert vt.status is VerdictStatus.REFUTED
    np.testing.assert_allclose(vt.witness, 2.0 * v.witness)


def test_transfer_additive_inverse_on_disk():
    # the Stein certificate proves (disk, box, MUL) only: passed as the
    # verdict of the additive triple, it must not certify -A, where
    # G = diag(-0.9, 0) puts the eigenvalue -1.2 of G - A off the disk
    a = np.array([[0.3, 0.2], [0.0, 0.4]])
    box = classes.box_diag([-1, -1], [1, 1])
    q = Query(a, dg.unit_disk(), box, MUL, budget=500, seed=3)
    v = decide(q)
    assert v.status is VerdictStatus.CERTIFIED
    q_add = Query(a, dg.unit_disk(), box, dg.ADD, budget=500, seed=3)
    tf = Transform(TransformKind.OP_INVERSE)
    vt = transfer_verdict(v, q_add, tf)
    assert vt.status is VerdictStatus.UNKNOWN
    assert vt.provenance == (
        "transfer (op_inverse): transformed certificate failed verification",)
    assert decide(transform_query(q_add, tf)).status is VerdictStatus.REFUTED


def test_stabilize_reaches_a_member_of_spd_at_the_witness_tolerance():
    # its descent once decoded SPD parameters as L L^T + 1e-10 I, which
    # the class's membership test does not accept: here it reached zero
    # loss at a matrix with lambda_min / lambda_max about 2e-9, which
    # fails contains at 1e-7, and no move could lower a loss of 0, so it
    # spent all 1000 evaluations there and found nothing
    a = np.random.default_rng(4).standard_normal((3, 4, 4))[2]  # its third 4x4 draw
    rep = stabilize(a, RHP, classes.spd(4), MUL, budget=1000, seed=0)
    assert rep.found and rep.evaluations < 1000
    assert classes.contains(classes.spd(4), rep.witness, 1e-7)
    assert check_region_stability(rep.witness @ a, RHP)


def test_stabilize_dense_classes():
    # SPD witness class: any SPD times -I cannot be half-plane stable,
    # but SPD plus a shifted matrix can
    a = np.array([[-0.5, 0.2], [-0.1, -0.3]])
    rep = stabilize(a, RHP, classes.spd(2), dg.ADD, budget=4000, seed=6)
    assert rep.found
    assert classes.contains(classes.spd(2), rep.witness, 1e-7)
    assert check_region_stability(rep.witness + a, RHP)

    rep = stabilize(np.diag([2.0, 0.5]), dg.unit_disk(),
                    classes.vertex_diag(2), MUL, budget=500, seed=6)
    assert not rep.found  # |2 d| >= 2 for every sign choice


def test_stabilize_vertex_flips_find_the_right_signs():
    # D A = diag(d1, -d2): only the sign choice diag(1, -1) lands both
    # entries in the half-plane, reachable by coordinate flips
    a = np.diag([1.0, -1.0])
    rep = stabilize(a, RHP, classes.vertex_diag(2), MUL, budget=200, seed=8)
    assert rep.found
    assert classes.contains(classes.vertex_diag(2), rep.witness)
    assert check_region_stability(rep.witness @ a, RHP)


def test_stabilize_parametric_rank_one():
    # A + tau x y^T = [[1, tau], [0, -1]] is never half-plane stable,
    # but with y = e1 the (1,1) entry moves: [[1 + tau, 0], [0, -1]]
    # still keeps the -1; use the region where that is fine
    a = np.diag([1.0, -1.0])
    cls = classes.parametric_rank_one([1.0, 0.0], [1.0, 0.0], (-5.0, 5.0))
    rep = stabilize(a, dg.nonzero_real_part(), cls, dg.ADD,
                    budget=300, seed=7)
    assert rep.found
    w = np.linalg.eigvals(rep.witness + a)
    assert regions.spectrum_in_region(dg.nonzero_real_part(), w)


def test_restrict_class_explicit_and_parametric():
    cls = classes.explicit_list([np.diag([1.0, 2.0, 3.0])])
    sub = restrict_class(cls, (0, 2))
    np.testing.assert_array_equal(
        np.array(sub.members[0]), np.diag([1.0, 3.0])
    )
    cls = classes.parametric_rank_one([1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                                      (-1.0, 1.0))
    sub = restrict_class(cls, (1, 2))
    assert sub.x == (2.0, 3.0) and sub.y == (5.0, 6.0)


def test_total_stability_with_structured_class():
    part = classes.Partition.from_sizes([2, 1])
    q = Query(np.eye(3), RHP, classes.pos_alpha_scalar(part), MUL,
              budget=200, seed=1)
    rep = total_stability(q)
    assert rep.overall is VerdictStatus.CERTIFIED


def test_random_query_fuzz_preserves_verdict_invariants():
    # whatever the verdict, its payload must check out independently:
    # refuted witnesses re-produce an exterior eigenvalue from inside
    # the class; certificates re-verify, cover the query triple, and
    # are never contradicted by fresh samples
    import dgstab.certify as certify

    rng = np.random.default_rng(55)
    region_pool = [RHP, dg.unit_disk(), dg.left_half_plane(),
                   dg.nonzero_real_part(), dg.real_axis(), dg.sector(0.9)]
    op_pool = [MUL, dg.ADD, dg.HADAMARD]
    for i in range(60):
        n = int(rng.integers(2, 5))
        part = classes.Partition.from_sizes(
            [n - 1, 1] if n > 1 and rng.random() < 0.5 else [n]
        )
        cls_pool = [
            classes.pos_diag(n),
            classes.diag(n),
            classes.spd(n),
            classes.vertex_diag(n),
            classes.box_diag([-1.0] * n, [1.0] * n),
            classes.pos_alpha_scalar(part),
            classes.rank_k_positive(n, 1),
            classes.theta_ordered(tuple(rng.permutation(n))),
        ]
        q = Query(
            rng.standard_normal((n, n)) * rng.uniform(0.2, 2.0),
            region_pool[int(rng.integers(len(region_pool)))],
            cls_pool[int(rng.integers(len(cls_pool)))],
            op_pool[int(rng.integers(len(op_pool)))],
            budget=400,
            seed=int(rng.integers(1 << 30)),
        )
        v = decide(q)
        if v.status is VerdictStatus.REFUTED:
            assert classes.contains(q.cls, v.witness, 1e-6), i
            w = np.linalg.eigvals(algebra.apply(q.op, v.witness, q.a))
            assert np.max(regions.exterior_margins(q.region, w)) > q.tol, i
        elif v.status is VerdictStatus.CERTIFIED:
            assert certify.verify_certificate(v.certificate, q.a), i
            triples = certify.implied_stabilities(v.certificate)
            assert triples, i
            gs = classes.sample_batch(q.cls, np.random.default_rng(i), 100)
            w = np.linalg.eigvals(algebra.apply(q.op, gs, q.a))
            assert np.max(
                regions.exterior_margins(q.region, w.ravel())
            ) <= q.tol, i


def test_transfer_op_inverse_on_the_unit_disk_is_inapplicable():
    # the reciprocal image of the disk is its exterior, which no region
    # kind represents
    q = Query(0.4 * np.eye(2), dg.unit_disk(), classes.vertex_diag(2), MUL,
              budget=10, seed=1)
    vt = transfer_verdict(decide(q), q, Transform(TransformKind.OP_INVERSE))
    assert vt.status is VerdictStatus.UNKNOWN
    assert vt.provenance == (
        "transfer (op_inverse): theorem inapplicable: region is not invariant "
        "under the spectral map",
    )


def test_verdicts_do_not_depend_on_thread_count(monkeypatch):
    # block [[-e, 1], [-1, 1]] over a diagonally stable block: a positive
    # diagonal destabilises it only when d1 / d2 > 1 / e.  e = 10^-5.8
    # lets the sampler find that after a few chunks; e = 1e-9 never.
    # 8000 trials are 16 chunks, more than one pool window at 2 and 3
    # threads.
    stable = np.eye(6) + 0.5 * np.triu(np.ones((6, 6)), 1)
    queries = []
    for e in (10.0 ** -5.8, 1e-9):
        a = np.zeros((8, 8))
        a[:2, :2] = [[-e, 1.0], [-1.0, 1.0]]
        a[:2, 2:] = 0.3
        a[2:, 2:] = stable
        queries.append(Query(a, RHP, classes.pos_diag(8), MUL, budget=8000, seed=3))
    outputs = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("DGSTAB_THREADS", threads)
        outputs[threads] = [serialize.dumps(serialize.verdict_to_json(stage(q)))
                            for q in queries for stage in (decide, falsify)]
    assert outputs["1"] == outputs["2"] == outputs["3"]
    found = [falsify(q) for q in queries]
    assert [v.status for v in found] == [VerdictStatus.REFUTED, VerdictStatus.UNKNOWN]
    assert found[0].trials_used > 512  # the witness is not in the first chunk
    # a_11 < 0: the principal-minor stage refutes both before any search
    assert [decide(q).status for q in queries] == [VerdictStatus.REFUTED] * 2


def test_inconclusive_enumeration_is_final(monkeypatch):
    # eigenvalue 1 sits on the disk boundary for every vertex member, so
    # enumeration is inconclusive, and that is the verdict: no
    # certificate search runs after it
    calls = []
    for name in ("find_diagonal_lyapunov", "find_stein_diagonal",
                 "find_structured_lyapunov"):
        monkeypatch.setattr(dg.certify, name,
                            lambda *args, name=name, **kw: calls.append(name))
    q = Query(np.diag([1.0, 0.5]), dg.unit_disk(), classes.vertex_diag(2), MUL,
              budget=100, seed=1)
    for use_certificates in (True, False):
        v = decide(q, use_certificates=use_certificates)
        assert v.status is VerdictStatus.UNKNOWN
        assert v.provenance[-1] == ("exhaustive enumeration inconclusive: boundary "
                                    "eigenvalues without strict exterior margin")
    assert calls == []


def test_enumeration_streams_the_finite_class():
    # 2^14 vertex members: held at once they take about 27 MB; streamed
    # 256 to a stack the whole decision stays far below that
    b = np.random.default_rng(14).standard_normal((14, 14))
    q = Query(0.5 * b / np.linalg.norm(b, 2), dg.unit_disk(), classes.vertex_diag(14),
              MUL, budget=100, seed=14)
    tracemalloc.start()
    try:
        v = decide(q, use_certificates=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    out = json.loads(serialize.dumps(serialize.verdict_to_json(v)))
    cert = out.pop("certificate")
    assert cert.pop("min_eig") == pytest.approx(0.6068868404035478, rel=1e-12)
    assert cert == {
        "kind": "exhaustive",
        "members_checked": 16384,
        "triple": {
            "class": {"kind": "vertex_diag", "n": 14},
            "op": {"op": "mul", "side": "left"},
            "region": {"boundary_tol": 1e-09, "kind": "unit_disk"},
        },
    }
    assert out == {
        "provenance": [
            "unboundedness precheck: not applicable or no escape found",
            "identity-element check passed",
            "exhaustive enumeration certified 16384 members",
        ],
        "status": "certified",
        "trials_used": 0,
    }


def test_restrict_class_equals_the_factory_on_restricted_parameters():
    idx = (0, 1, 3)
    part = classes.Partition.from_sizes([2, 1, 2])
    sub_part = classes.Partition(((0, 1), (2,)))
    lo, hi = [-1.0, 0.0, 1.0, 2.0, 3.0], [0.5, 1.5, 2.5, 3.5, 4.5]
    x, y = [1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0, 9.0, 10.0]
    mats = [np.arange(25.0).reshape(5, 5), -np.eye(5)]
    cases = [
        (classes.symmetric(5), classes.symmetric(3)),
        (classes.spd(5), classes.spd(3)),
        (classes.alpha_block_spd(part), classes.alpha_block_spd(sub_part)),
        (classes.diag(5), classes.diag(3)),
        (classes.pos_diag(5), classes.pos_diag(3)),
        (classes.sign_diag([1, -1, 0, 1, -1]), classes.sign_diag([1, -1, 1])),
        (classes.alpha_scalar(part), classes.alpha_scalar(sub_part)),
        (classes.pos_alpha_scalar(part), classes.pos_alpha_scalar(sub_part)),
        # theta entries 3, 0, 1 survive and renumber to 2, 0, 1
        (classes.theta_ordered((3, 0, 4, 2, 1)), classes.theta_ordered((2, 0, 1))),
        (classes.box_diag(lo, hi),
         classes.box_diag([lo[i] for i in idx], [hi[i] for i in idx])),
        (classes.vertex_diag(5), classes.vertex_diag(3)),
        (classes.rank_k_positive(5, 4), classes.rank_k_positive(3, 3)),
        (classes.sum_rank_one_positive(5, 2), classes.sum_rank_one_positive(3, 2)),
        (classes.parametric_rank_one(x, y, (-1.0, 2.0)),
         classes.parametric_rank_one([x[i] for i in idx], [y[i] for i in idx],
                                     (-1.0, 2.0))),
        (classes.explicit_list(mats),
         classes.explicit_list([m[np.ix_(idx, idx)] for m in mats])),
    ]
    assert {cls.kind for cls, _ in cases} == set(classes.ClassKind)
    for cls, expected in cases:
        sub = restrict_class(cls, idx)
        assert sub == expected, cls.kind
        assert repr(sub) == repr(expected), cls.kind


def test_stabilize_moves_per_kind():
    # the candidate values of coordinate i at scale 0.5, in search order,
    # as the class's parameter table gives them: additive steps, then
    # multiplicative ones, then the sign flip
    part = classes.Partition.from_sizes([1, 2])
    p_i = 2.0
    up, down, flip = p_i * 1.5, p_i / 1.5, -p_i
    log_step = 10.0 ** (0.5 * (np.log10(p_i) + 1.0))
    cases = [
        (classes.pos_diag(3), [2.5, 1.5]),
        (classes.theta_ordered((2, 0, 1)), [2.5, 1.5]),
        (classes.diag(3), [up, down, flip]),
        (classes.sign_diag([1, -1, 1]), [up, down]),
        (classes.vertex_diag(3), [flip]),
        (classes.alpha_scalar(part), [up, down, flip]),
        (classes.pos_alpha_scalar(part), [up, down]),
        # step 0.5 * width 4
        (classes.box_diag([0.0, 0.0, 0.0], [4.0, 4.0, 4.0]), [4.0, 0.0]),
        # step 0.5 * span 4, clipped to tau
        (classes.parametric_rank_one([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], (-1.0, 3.0)),
         [3.0, 0.0]),
        # dense kinds: step 0.5 * (|p_i| + 1); the last coordinate of an
        # SPD kind is on the diagonal of its last block's factor
        (classes.symmetric(3), [3.5, 0.5]),
        (classes.spd(3), [3.5, 0.5]),
        (classes.alpha_block_spd(part), [3.5, 0.5]),
        # the linear factors move by the step 0.5 * (|log10 p_i| + 1) of
        # their exponents
        (classes.rank_k_positive(3, 2), [p_i * log_step, p_i / log_step]),
        (classes.sum_rank_one_positive(3, 1), [p_i * log_step, p_i / log_step]),
        # stabilize scans a list; its member index has no moves
        (classes.explicit_list([np.eye(3)]), []),
    ]
    assert {cls.kind for cls, _ in cases} == set(classes.ClassKind)
    for cls, expected in cases:
        dim = classes.draw(cls, np.random.default_rng(0), 1).shape[1]
        i = dim - 1
        p = np.arange(1.0, dim + 1.0)
        p[i] = p_i
        before = p.copy()
        cands = list(classes.coordinate_moves(cls, p, i, 0.5))
        np.testing.assert_array_equal(p, before)
        assert [c[i] for c in cands] == expected, cls.kind
        for c in cands:
            np.testing.assert_array_equal(np.delete(c, i), np.delete(p, i))
    # only the upper triangle of each SPD block's factor B moves: spd(3)
    # has B[1, 0] at 3, and the 2x2 block of alpha_block_spd at 1 + 2
    for cls in (classes.spd(3), classes.alpha_block_spd(part)):
        assert list(classes.coordinate_moves(cls, np.arange(1.0, 10.0), 3, 0.5)) == []


def test_identity_check_solves_one_spectrum(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(m):
        calls.append(m)
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    for a, note in ((np.eye(2), "identity-element check passed"),
                    (np.diag([1.0, 0.0]),
                     "identity element leaves a boundary eigenvalue (inconclusive)")):
        calls.clear()
        q = Query(a, RHP, classes.pos_diag(2), MUL)
        assert engine._identity_checks(q, q.a[None], [q.cls]) == [note]
        assert len(calls) == 1


def _block_instance(block):
    # [[B, C], [0, S]] with S = P^-1 (W/2 + K) diagonally stable, rows
    # and columns permuted so that B's (1, 1) entry lands at (2, 2): the
    # destabilising block B decides the verdict
    r = np.random.default_rng(5)
    b = r.standard_normal((2, 2))
    k = r.standard_normal((2, 2))
    s = np.linalg.solve(np.diag([0.5, 3.0]), 0.5 * (b @ b.T + 0.5 * np.eye(2)) + k - k.T)
    m = np.block([[block, r.standard_normal((2, 2))], [np.zeros((2, 2)), s]])
    perm = [2, 0, 3, 1]
    return m[np.ix_(perm, perm)]


def test_screened_queries_keep_the_falsifier_verdict(monkeypatch):
    # a zero (2, 2) entry rules out a diagonal certificate but refutes no
    # D-stability: the screen skips the search, and the falsifier, which
    # draws from its own seed stream, returns what it returned after the
    # failed search.  P0_NOT_D_STABLE has nonnegative principal minors of
    # order 1 and 2, yet a positive diagonal destabilises it.
    from dgstab import certify

    pairing = certify._PAIRINGS[CertKind.DIAGONAL_LYAPUNOV]
    calls = []
    for name in ("find_diagonal_lyapunov", "find_stein_diagonal",
                 "find_structured_lyapunov"):
        def counted(*args, _f=getattr(certify, name), **kw):
            calls.append(_f)
            return _f(*args, **kw)
        monkeypatch.setattr(certify, name, counted)
    p0_not_d_stable = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, -1.0], [-2.0, 1.0, 1.0]])
    for a, status in ((p0_not_d_stable, VerdictStatus.REFUTED),
                      (_block_instance(D_STABLE_NO_CERT), VerdictStatus.UNKNOWN)):
        q = Query(a, RHP, classes.pos_diag(len(a)), MUL, budget=2000, seed=11)
        calls.clear()
        got = decide(q)
        assert calls == []
        with monkeypatch.context() as m:
            m.setitem(certify._PAIRINGS, CertKind.DIAGONAL_LYAPUNOV,
                      pairing._replace(screen=None))
            want = decide(q)
        assert len(calls) == 1
        assert got.status is want.status is status
        assert got.trials_used == want.trials_used
        assert got.margin == want.margin
        assert got.offending_eigenvalue == want.offending_eigenvalue
        if status is VerdictStatus.REFUTED:
            np.testing.assert_array_equal(got.witness, want.witness)
        else:
            assert got.witness is want.witness is None
        note = "no diagonal_lyapunov certificate exists: a_22 <= 0"
        assert note in got.provenance and len(got.provenance) == len(want.provenance)
        assert [p for p in got.provenance if p != note] == \
            [p for p in want.provenance if not p.startswith("certificate search inconclusive")]
    # a negative diagonal entry is refuted by the principal-minor stage,
    # before the screen and the search
    calls.clear()
    for block in (NOT_D_STABLE, np.array([[-1e-9, 1.0], [-1.0, 1.0]])):
        q = Query(_block_instance(block), RHP, classes.pos_diag(4), MUL,
                  budget=2000, seed=11)
        v = decide(q)
        assert v.status is VerdictStatus.REFUTED and v.trials_used == 0
        assert v.provenance[-1].startswith("principal minor a_22 < 0 refutes")
    assert calls == []


# ---------------------------------------------------------------------------
# the principal-minor refutation


def _exact_minor_sum(m: np.ndarray, k: int) -> Fraction:
    """The sum of the principal minors of order k (1 or 2) of ``m``, in
    rationals."""
    f = [[Fraction(x) for x in row] for row in m.tolist()]
    n = len(f)
    if k == 1:
        return sum(f[i][i] for i in range(n))
    return sum(f[i][i] * f[j][j] - f[i][j] * f[j][i]
               for i in range(n) for j in range(i + 1, n))


def _check_minor_refutation(q, v, k, at):
    """``v`` refutes ``q`` from the principal-minor stage: an in-class
    witness that scales the rows ``at`` by one power of two, an exact
    negative sum of principal minors of order k, and a margin above
    tol."""
    assert v.status is VerdictStatus.REFUTED and v.trials_used == 0
    assert "(exact)" in v.provenance[-1] and "t = 2^" in v.provenance[-1]
    assert classes.contains(q.cls, v.witness, 1e-7)
    u = v.witness.max(axis=1)
    np.testing.assert_array_equal(v.witness, algebra.row_scaling(q.op, u))
    t = u[at[0]]
    assert t == 2.0 ** round(np.log2(t)) and t > 1.0
    np.testing.assert_array_equal(u, np.where(np.isin(np.arange(len(u)), at), t, 1.0))
    m = algebra.apply(q.op, v.witness, q.a)
    assert np.all(np.isfinite(m))
    # from the right, A D_t has the principal minors of D_t A
    np.testing.assert_array_equal(m, q.a * u[None, :] if q.op.side is Side.RIGHT
                                  and q.op.kind is OpKind.MUL else u[:, None] * q.a)
    assert _exact_minor_sum(m, k) < 0
    w = np.linalg.eigvals(m)
    assert np.max(regions.exterior_margins(q.region, w)) == v.margin > q.tol


def _unknown_block_instance(n):
    # UNKNOWN_BLOCK [[-1e-9, 1], [-1, 1]] over a diagonally stable block:
    # only d1 / d2 > 1e9 destabilises it, which the sampler never draws
    a = np.zeros((n, n))
    a[:2, :2] = [[-1e-9, 1.0], [-1.0, 1.0]]
    a[:2, 2:] = 0.3
    a[2:, 2:] = np.eye(n - 2) + 0.5 * np.triu(np.ones((n - 2, n - 2)), 1)
    perm = np.random.default_rng(n).permutation(n)
    return a[np.ix_(perm, perm)], int(np.flatnonzero(perm == 0)[0])


@pytest.mark.parametrize("n", range(2, 9))
def test_a_negative_diagonal_entry_is_refuted_exactly(n):
    a, i = _unknown_block_instance(n)
    for cls, op in ((classes.pos_diag(n), MUL), (classes.diag(n), MUL),
                    (classes.rank_k_positive(n, 1), dg.HADAMARD),
                    (classes.sum_rank_one_positive(n, 2), dg.HADAMARD),
                    (classes.pos_diag(n), BinaryOp(OpKind.MUL, Side.RIGHT))):
        q = Query(a, RHP, cls, op, budget=200, seed=n)
        v = decide(q)
        _check_minor_refutation(q, v, 1, [i])
        assert v.provenance[:2] == ("unboundedness precheck: not applicable or no escape "
                                    "found", "identity-element check passed")
        assert v.provenance[-1].startswith(f"principal minor {certify._entry(i, i)} < 0 "
                                           f"refutes: t = 2^")


def test_a_negative_minor_of_order_two_is_refuted_exactly():
    # positive stable with a positive diagonal, but a_11 a_33 - a_13 a_31
    # = -2: t on {1, 3} drives E_2 negative
    a = np.array([[2.0, 2.0, -2.0], [-1.0, 2.0, -1.0], [-3.0, 1.0, 2.0]])
    assert np.linalg.eigvals(a).real.min() > 0
    for cls, op in ((classes.pos_diag(3), MUL), (classes.rank_k_positive(3, 1), dg.HADAMARD)):
        q = Query(a, RHP, cls, op, budget=200, seed=1)
        v = decide(q)
        _check_minor_refutation(q, v, 2, [0, 2])
        assert v.provenance[-1] == ("principal minor a_11*a_33 < a_13*a_31 refutes: "
                                    "t = 2^3 on {1, 3}, E_2 < 0 (exact)")


def test_a_zero_diagonal_entry_refutes_nothing():
    # D_STABLE_NO_CERT is D-stable: no minor is negative, whatever the
    # sign of its zero
    for zero in (0.0, -0.0):
        a = D_STABLE_NO_CERT.copy()
        a[0, 0] = zero
        v = decide(Query(a, RHP, classes.pos_diag(2), MUL, budget=300, seed=1))
        assert v.status is VerdictStatus.UNKNOWN
        assert v.provenance[2] == "principal-minor check passed"


def test_a_tiny_negative_entry_stops_before_overflow():
    # t * 1e-300 stays below a_22 = 1 until t * 1e9 would overflow: the
    # stage gives up, and the later stages run
    a = np.array([[-1e-300, 1e9], [-1e-9, 1.0]])
    q = Query(a, RHP, classes.pos_diag(2), MUL, budget=300, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = decide(q)
    assert v.status is VerdictStatus.UNKNOWN
    assert v.provenance[2:] == (
        "principal minor a_11 < 0: no t = 2^k refutes before G o A overflows",
        "no diagonal_lyapunov certificate exists: a_11 <= 0",
        "falsification exhausted 300 trials",
    )
    # with a_12 = 1 the trace turns negative at t = 2^997, short of overflow
    a[0, 1], a[1, 0] = 1.0, -1.0
    q = Query(a, RHP, classes.pos_diag(2), MUL, budget=300, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = decide(q)
    _check_minor_refutation(q, v, 1, [0])
    assert "t = 2^997 on {1}" in v.provenance[-1]


def test_minor_refutations_do_not_depend_on_seed_or_threads(monkeypatch):
    a, _ = _unknown_block_instance(6)
    order_2 = np.array([[2.0, 2.0, -2.0], [-1.0, 2.0, -1.0], [-3.0, 1.0, 2.0]])
    for m in (a, order_2):
        outputs = set()
        for threads in ("1", "2"):
            monkeypatch.setenv("DGSTAB_THREADS", threads)
            for seed in (1, 2, 3):
                q = Query(m, RHP, classes.pos_diag(len(m)), MUL, budget=1000, seed=seed)
                outputs.add(serialize.dumps(serialize.verdict_to_json(decide(q))))
        assert len(outputs) == 1


@pytest.mark.parametrize("region, cls, op", [
    (RHP, classes.pos_diag(2), dg.ADD),
    (dg.unit_disk(), classes.pos_diag(2), MUL),
    (dg.left_half_plane(), classes.pos_diag(2), MUL),
    (RHP, classes.vertex_diag(2), MUL),
    (RHP, classes.box_diag([0.1, 0.1], [10.0, 10.0]), MUL),
    (RHP, classes.spd(2), MUL),
    (RHP, classes.pos_diag(2), dg.HADAMARD),
    (RHP, classes.rank_k_positive(2, 1), MUL),
])
def test_the_minor_stage_runs_only_where_it_applies(monkeypatch, region, cls, op):
    def refuse(q):
        raise AssertionError("the principal-minor stage ran")

    monkeypatch.setattr(engine, "_minor_refutation", refuse)
    decide(Query(np.array([[-1e-9, 1.0], [-1.0, 1.0]]), region, cls, op,
                 budget=100, seed=1))


def test_falsifier_samples_no_chunk_after_a_known_witness(monkeypatch):
    # every member refutes -I, so chunk 0 holds the first witness; a
    # worker that finishes a chunk skips every later one, so at most one
    # chunk per worker is sampled, and the verdict bytes stay the same
    calls = []
    sample_batch = classes.sample_batch

    def counted(*args):
        calls.append(args)
        time.sleep(0.01)
        return sample_batch(*args)

    monkeypatch.setattr(classes, "sample_batch", counted)
    q = Query(-np.eye(2), RHP, classes.pos_diag(2), MUL, budget=10_000, seed=1)
    outputs = set()
    for threads in (1, 2, 3):
        monkeypatch.setenv("DGSTAB_THREADS", str(threads))
        calls.clear()
        v = falsify(q)
        assert v.trials_used == 1 and 1 <= len(calls) <= threads, threads
        outputs.add(serialize.dumps(serialize.verdict_to_json(v)))
    assert len(outputs) == 1


def test_the_escape_inverts_nothing(monkeypatch):
    # invertibility is judged by the singular values alone
    def refuse(*args):
        raise AssertionError("the escape inverted the matrix")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(algebra, "op_inverse", refuse)
    v = decide(Query(0.5 * np.eye(2), dg.unit_disk(), classes.pos_diag(2), MUL,
                     budget=100, seed=1))
    assert v.status is VerdictStatus.REFUTED
    assert v.provenance[-1].startswith("bounded region with unbounded class: scaled sample")
    v = decide(Query(np.diag([0.5, 0.0]), dg.unit_disk(), classes.pos_diag(2), MUL,
                     budget=100, seed=1))
    assert v.provenance[0] == "unboundedness precheck: not applicable or no escape found"


# ---------------------------------------------------------------------------
# the exits of the certificate stage and of verdict transfer


@pytest.mark.parametrize("a, cert", [
    # the form A + A^T = diag(0, 2) is not positive definite
    (D_STABLE_NO_CERT, Certificate(CertKind.DIAGONAL_LYAPUNOV, np.eye(2), 1.0)),
    # a valid Stein certificate, which proves no right-half-plane triple
    (0.5 * np.eye(2), Certificate(CertKind.STEIN_DIAGONAL, np.eye(2), 0.75)),
])
def test_a_certificate_that_does_not_prove_the_query_is_dropped(monkeypatch, a, cert):
    monkeypatch.setattr(certify, "search_for_triple",
                        lambda *args: certify.CertReport(True, cert, cert.min_eig, 1))
    v = decide(Query(a, RHP, classes.pos_diag(2), MUL, budget=200, seed=1))
    assert v.status is VerdictStatus.UNKNOWN
    assert v.provenance == (
        "unboundedness precheck: not applicable or no escape found",
        "identity-element check passed",
        "principal-minor check passed",
        "certificate candidate failed re-verification",
        "falsification exhausted 200 trials",
    )


def test_unknown_transfers_as_unknown_with_its_trials():
    q = Query(D_STABLE_NO_CERT, RHP, classes.pos_diag(2), MUL, budget=200, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.UNKNOWN
    vt = transfer_verdict(v, q, Transform(TransformKind.TRANSPOSE))
    assert vt.status is VerdictStatus.UNKNOWN
    assert vt.trials_used == v.trials_used == 200
    assert vt.provenance == v.provenance + ("transfer (transpose): unknown stays unknown",)


def test_a_witness_that_leaves_the_class_does_not_transfer():
    q = Query(NOT_D_STABLE, RHP, classes.pos_diag(2), MUL, budget=200, seed=1)
    # a singular witness has no op-inverse; a non-member stays one
    for g, tf in ((np.diag([1.0, 0.0]), Transform(TransformKind.OP_INVERSE)),
                  (np.diag([-1.0, 1.0]), Transform(TransformKind.TRANSPOSE))):
        v = engine.Verdict(VerdictStatus.REFUTED, witness=g)
        vt = transfer_verdict(v, q, tf)
        assert vt.status is VerdictStatus.UNKNOWN
        assert vt.provenance == (
            f"transfer ({tf.kind.value}): witness left the class numerically",)


def test_a_witness_that_loses_its_margin_does_not_transfer():
    # the identity refutes diag(1.5, 0.2) on the disk; halved, it is stable
    q = Query(np.diag([1.5, 0.2]), dg.unit_disk(), classes.vertex_diag(2), MUL,
              budget=200, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.REFUTED
    vt = transfer_verdict(v, q, Transform(TransformKind.SCALAR, alpha=0.5))
    assert vt.status is VerdictStatus.UNKNOWN
    assert vt.provenance == (
        "transfer (scalar): transformed witness lost its exterior margin",)


def test_a_finite_class_is_enumerated_again_on_transfer():
    q = Query(0.4 * np.eye(2), dg.unit_disk(), classes.vertex_diag(2), MUL,
              budget=200, seed=1)
    v = decide(q)
    assert v.certificate.kind is CertKind.EXHAUSTIVE
    tf = Transform(TransformKind.SCALAR, alpha=0.5)
    vt = transfer_verdict(v, q, tf)
    assert vt.status is VerdictStatus.CERTIFIED
    assert vt.provenance == v.provenance + (
        "transfer (scalar): finite class re-enumerated",
        "exhaustive enumeration certified 4 members",
    )
    assert dg.verify_certificate(vt.certificate, transform_query(q, tf).a)


def test_a_certificate_that_fails_after_the_transform_does_not_transfer():
    # the identity is no diagonal Lyapunov witness for D_STABLE_NO_CERT,
    # nor, transposed, for its transpose
    q = Query(D_STABLE_NO_CERT, RHP, classes.pos_diag(2), MUL, budget=200, seed=1)
    v = engine.Verdict(VerdictStatus.CERTIFIED, certificate=Certificate(
        CertKind.DIAGONAL_LYAPUNOV, np.eye(2), 1.0))
    vt = transfer_verdict(v, q, Transform(TransformKind.TRANSPOSE))
    assert vt.status is VerdictStatus.UNKNOWN
    assert vt.provenance == (
        "transfer (transpose): transformed certificate failed verification",)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tf", [
    Transform(TransformKind.TRANSPOSE), Transform(TransformKind.OP_INVERSE),
    Transform(TransformKind.SCALAR, alpha=2.0),
    Transform(TransformKind.SIMILARITY, s=np.diag([1.0, 2.0]))], ids=lambda tf: tf.kind.value)
def test_a_certificate_that_cannot_be_transformed_does_not_transfer(tf):
    # a zero, singular or missing witness, or one of another shape, once
    # raised LinAlgError under a transpose and ValueError under a similarity
    q = Query([[2.0, 1.0], [0.0, 3.0]], RHP, classes.pos_diag(2), MUL, budget=200, seed=1)
    for w in (np.zeros((2, 2)), np.ones((2, 2)), None, np.eye(3), np.ones((2, 3))):
        v = engine.Verdict(VerdictStatus.CERTIFIED, certificate=Certificate(
            CertKind.DIAGONAL_LYAPUNOV, w, 1.0))
        vt = transfer_verdict(v, q, tf)
        assert (vt.status, vt.provenance) == (VerdictStatus.UNKNOWN, (
            f"transfer ({tf.kind.value}): transformed certificate failed verification",))


@pytest.mark.filterwarnings("error")
def test_a_transfer_that_overflows_is_unknown_without_a_warning():
    # alpha A once raised Query's ValueError, and S^-T P S^-1 warned
    q = Query([[2.0, 1.0], [0.0, 3.0]], RHP, classes.pos_diag(2), MUL, budget=200, seed=1)
    v = decide(q)
    assert v.status is VerdictStatus.CERTIFIED
    vt = transfer_verdict(v, q, Transform(TransformKind.SCALAR, alpha=1e308))
    assert (vt.status, vt.provenance) == (VerdictStatus.UNKNOWN, (
        "transfer (scalar): theorem inapplicable: transformed matrix contains "
        "non-finite entries",))
    vt = transfer_verdict(v, q, Transform(TransformKind.SIMILARITY,
                                          s=np.diag([1e-300, 1e300])))
    assert (vt.status, vt.provenance) == (VerdictStatus.UNKNOWN, (
        "transfer (similarity): transformed certificate failed verification",))
    # an additive witness that overflows leaves the class
    q = Query(np.diag([1e-300, -1e-300]), RHP, classes.symmetric(2), algebra.ADD, budget=64)
    v = engine.Verdict(VerdictStatus.REFUTED, witness=np.diag([2.0, -2.0]))
    vt = transfer_verdict(v, q, Transform(TransformKind.SCALAR, alpha=1e308))
    assert (vt.status, vt.provenance) == (VerdictStatus.UNKNOWN, (
        "transfer (scalar): witness left the class numerically",))


@pytest.mark.filterwarnings("error")
def test_a_transformed_matrix_that_overflows_raises_without_a_warning():
    # it once warned and returned infinite entries
    a = [[2.0, 1.0], [0.0, 3.0]]
    for tf in (Transform(TransformKind.SCALAR, alpha=1e308),
               Transform(TransformKind.SIMILARITY, s=np.diag([1e300, 1e-300]))):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            engine.transform_matrix(a, tf, MUL)


def test_transfer_of_a_singular_matrix_by_op_inverse_is_unknown():
    # decide leaves [[1,1],[1,1]] unknown (eigenvalue 0 under every D);
    # the transfer once raised SingularOperatorError from inverting it
    q = Query(np.ones((2, 2)), RHP, classes.pos_diag(2), MUL, budget=200, seed=3)
    v = decide(q)
    assert v.status is VerdictStatus.UNKNOWN
    vt = transfer_verdict(v, q, Transform(TransformKind.OP_INVERSE))
    assert vt.status is VerdictStatus.UNKNOWN
    assert vt.provenance == ("transfer (op_inverse): theorem inapplicable: "
                             "matrix is singular; no multiplicative inverse",)


def test_transfer_by_op_inverse_inverts_the_matrix_once(monkeypatch):
    # the applicability check once inverted it only to test singularity
    calls = []
    op_inverse = algebra.op_inverse

    def counted(op, a):
        calls.append(a)
        return op_inverse(op, a)

    monkeypatch.setattr(algebra, "op_inverse", counted)
    q = Query(np.diag([1.0, 2.0]), RHP, classes.pos_diag(2), MUL, budget=1)
    v = engine.Verdict(VerdictStatus.UNKNOWN)
    vt = transfer_verdict(v, q, Transform(TransformKind.OP_INVERSE))
    assert vt.provenance == ("transfer (op_inverse): unknown stays unknown",)
    assert len(calls) == 1


def _proof_queries(r):
    """Seeded queries whose certified verdicts carry diagonal, identity,
    block SPD, block-scalar and Stein witnesses, plus finite classes."""
    out = []
    for n in (2, 3, 4):
        dominant = np.diag(r.uniform(1.0, 3.0, n)) + 0.3 * r.standard_normal((n, n))
        out.append(Query(dominant, RHP, classes.pos_diag(n), MUL, budget=256, seed=5))
        out.append(Query(dominant, RHP, classes.spd(n), MUL, budget=256, seed=5))
        part = classes.Partition.from_sizes([2] + [1] * (n - 2))
        block = 0.05 * r.standard_normal((n, n)) + np.eye(n)
        block[0, 1] += r.uniform(2.0, 6.0)  # positive stable, not diagonally stable
        out.append(Query(block, RHP, classes.pos_alpha_scalar(part), MUL, budget=256, seed=5))
        out.append(Query(dominant, RHP, classes.alpha_block_spd(part), MUL, budget=256,
                         seed=5))
        small = 0.6 * r.standard_normal((n, n)) / np.sqrt(n)
        for cls in (classes.box_diag([-1.0] * n, [1.0] * n), classes.vertex_diag(n)):
            out.append(Query(small, dg.unit_disk(), cls, MUL, budget=256, seed=5))
    return out


def _transfers(n):
    yield Transform(TransformKind.TRANSPOSE)
    yield Transform(TransformKind.OP_INVERSE)
    yield Transform(TransformKind.SCALAR, alpha=0.5)
    yield Transform(TransformKind.SIMILARITY, s=np.eye(n)[::-1])
    yield Transform(TransformKind.SIMILARITY, s=np.diag(np.arange(1.0, n + 1)))


def test_every_certified_witness_reverifies_with_its_own_min_eig():
    # whatever path certified it (search, restriction or transfer), a
    # CERTIFIED verdict's certificate verifies at the verdict's own matrix,
    # and its min_eig is that matrix's form's smallest eigenvalue, bit for bit
    seen = {"decide": 0, "total": 0, "transfer": 0}

    def check(v, a, path):
        if v.status is not VerdictStatus.CERTIFIED or v.certificate.witness is None:
            return
        cert = v.certificate
        assert certify.verify_certificate(cert, a), (path, cert.kind)
        assert cert.min_eig == np.linalg.eigvalsh(certify.certified_form(cert, a))[0], (
            path, cert.kind)
        seen[path] += 1

    kinds = set()
    # seed 11 includes Stein transfers whose form is not exactly symmetric
    for q in _proof_queries(np.random.default_rng(11)):
        v = decide(q)
        check(v, q.a, "decide")
        if v.status is VerdictStatus.CERTIFIED:
            kinds.add(v.certificate.kind)
        for idx, sub in total_stability(q).results.items():
            check(sub, principal_submatrix(q.a, idx), "total")
        for tf in _transfers(q.a.shape[0]):
            check(transfer_verdict(v, q, tf), engine.transform_matrix(q.a, tf, q.op),
                  "transfer")
    assert min(seen.values()) > 0, seen
    assert {CertKind.DIAGONAL_LYAPUNOV, CertKind.IDENTITY_LYAPUNOV, CertKind.BLOCK_LYAPUNOV,
            CertKind.ALPHA_SCALAR_LYAPUNOV, CertKind.STEIN_DIAGONAL,
            CertKind.EXHAUSTIVE} <= kinds, kinds
