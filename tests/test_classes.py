import itertools

import numpy as np
import pytest

import reference_2d
from dgstab import algebra
from dgstab.algebra import MUL
from dgstab.classes import (
    ClassKind,
    Partition,
    alpha_block_spd,
    are_members,
    alpha_scalar,
    box_diag,
    chain_memberships,
    closure_probe,
    contains,
    diag,
    enumerate_members,
    explicit_list,
    identity_element,
    parametric_rank_one,
    pos_alpha_scalar,
    pos_diag,
    rank_k_positive,
    sample,
    sample_batch,
    sign_diag,
    spd,
    sum_rank_one_positive,
    symmetric,
    theta_ordered,
    theta_ratios,
    vertex_diag,
)
from dgstab.errors import (
    DimensionMismatchError,
    InfiniteClassError,
    NotThetaOrderedError,
)

RNG = np.random.default_rng(2024)


def all_kinds(n=4):
    part = Partition.from_sizes([2, n - 2])
    return [
        symmetric(n),
        spd(n),
        alpha_block_spd(part),
        diag(n),
        pos_diag(n),
        sign_diag([1, -1] + [1] * (n - 2)),
        alpha_scalar(part),
        pos_alpha_scalar(part),
        theta_ordered(range(n)),
        box_diag([-1.0] * n, [1.0] * n),
        vertex_diag(n),
        rank_k_positive(n, 2),
        sum_rank_one_positive(n, 2),
        parametric_rank_one([1.0] * n, [0.5] * n, (-2.0, 2.0)),
        explicit_list([np.eye(n), 2 * np.eye(n)]),
    ]


def _compositions(n):
    for cuts in itertools.product((False, True), repeat=n - 1):
        sizes, size = [], 1
        for cut in cuts:
            if cut:
                sizes.append(size)
                size = 1
            else:
                size += 1
        yield Partition.from_sizes(sizes + [size])


def factory_classes(n):
    """Every kind at order n, with the parameters that decide its facts:
    every sign pattern, partition and ordering; symmetric and asymmetric
    boxes, tau ranges and rank-one directions; diagonal, symmetric,
    transpose-closed and permutation-closed explicit lists."""
    up = np.arange(1.0, n + 1)
    g = np.triu(np.ones((n, n)))
    out = [f(n) for f in (symmetric, spd, diag, pos_diag, vertex_diag)]
    out += [sign_diag(s) for s in itertools.product((-1, 0, 1), repeat=n)]
    for p in _compositions(n):
        out += [alpha_scalar(p), pos_alpha_scalar(p), alpha_block_spd(p)]
    out += [theta_ordered(t) for t in itertools.permutations(range(n))]
    out += [box_diag(lo, hi) for lo, hi in (
        (-np.ones(n), np.ones(n)), (np.zeros(n), np.ones(n)), (-up, up),
        (-up, up + 1.0), (-np.ones(n), 2.0 * np.ones(n)))]
    for k in range(1, n + 1):
        out += [rank_k_positive(n, k), sum_rank_one_positive(n, k)]
    for x, y in ((np.ones(n), np.ones(n)), (np.ones(n), 0.5 * np.ones(n)),
                 (up, up), (up, up[::-1]), (np.eye(n)[0], np.eye(n)[-1])):
        for tau in ((-1.0, 1.0), (0.0, 2.0), (-2.0, 1.0)):
            out.append(parametric_rank_one(x, y, tau))
    out += [explicit_list(ms) for ms in (
        [np.eye(n)], [np.eye(n), 2 * np.eye(n)], [-np.eye(n), np.eye(n)],
        [np.diag(up)], [np.diag(up), np.diag(up[::-1])], [g], [g, g.T],
        [g + g.T])]
    return out


def test_contains_examples():
    assert contains(pos_diag(3), np.diag([1.0, 2.0, 3.0]))
    # identity order requires non-increasing entries; 1 < 2 violates it
    assert not contains(theta_ordered([0, 1]), np.diag([1.0, 2.0]))
    assert contains(spd(2), [[2.0, 1.0], [1.0, 2.0]])


def test_contains_structure_checks():
    part = Partition.from_sizes([1, 1])
    assert not contains(alpha_block_spd(part), [[2.0, 1.0], [1.0, 2.0]])
    assert contains(alpha_block_spd(Partition.from_sizes([2])), [[2.0, 1.0], [1.0, 2.0]])
    assert not contains(pos_diag(2), np.diag([1.0, -1.0]))
    assert contains(sign_diag([1, -1]), np.diag([1.0, -1.0]))
    assert not contains(sign_diag([1, 1]), np.diag([1.0, -1.0]))
    assert contains(box_diag([0, 0], [1, 1]), np.diag([0.5, 0.5]))
    assert not contains(box_diag([0, 0], [1, 1]), np.diag([0.5, 1.0]))
    assert contains(rank_k_positive(3, 1), np.outer([1, 2, 3], [4, 5, 6.0]))
    assert not contains(rank_k_positive(3, 1), np.ones((3, 3)) + np.diag([1.0, 2, 3]))


@pytest.mark.filterwarnings("error")
def test_spd_membership_near_the_float_limit():
    # m + m^T overflows; the halves do not
    big = np.diag([1e308, 1e308])
    for cls in (spd(2), alpha_block_spd(Partition.from_sizes([1, 1])),
                alpha_block_spd(Partition.from_sizes([2]))):
        assert contains(cls, big)
        assert not contains(cls, [[1e308, 1e308], [-1e308, 1e308]])
        assert not contains(cls, np.diag([1e308, -1e308]))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        contains(pos_diag(3), np.eye(2))


def test_sampled_members_pass_membership():
    for cls in all_kinds():
        batch = sample_batch(cls, RNG, 10_000)
        for g in batch:
            assert contains(cls, g), cls.kind


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_spd_draws_pass_membership_at_the_witness_tolerance(n):
    # the engine re-checks witnesses at 1e-7; a fixed 1e-8 I shift once
    # left 0.1-0.5% of draws below that
    part = Partition.from_sizes([1] * (n % 2) + [2] * (n // 2))
    for cls in (spd(n), alpha_block_spd(part)):
        for g in sample_batch(cls, np.random.default_rng(n), 2000):
            assert contains(cls, g, 1e-7), cls.kind


def test_sample_is_deterministic_given_stream():
    cls = spd(3)
    a = sample(cls, np.random.default_rng(5))
    b = sample(cls, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_enumerate_vertex_diag():
    members = list(enumerate_members(vertex_diag(2)))
    expected = [
        np.diag([1.0, 1.0]),
        np.diag([1.0, -1.0]),
        np.diag([-1.0, 1.0]),
        np.diag([-1.0, -1.0]),
    ]
    assert len(members) == 4
    for got, want in zip(members, expected):
        np.testing.assert_array_equal(got, want)


def test_enumerate_vertex_diag_order_one():
    members = [np.diag(m).tolist() for m in enumerate_members(vertex_diag(1))]
    assert members == [[1.0], [-1.0]]


def test_enumerate_vertex_count_and_membership():
    cls = vertex_diag(5)
    members = list(enumerate_members(cls))
    assert len(members) == 2 ** 5
    seen = {tuple(np.diag(m)) for m in members}
    assert len(seen) == 2 ** 5
    assert all(contains(cls, m) for m in members)


def test_enumerate_vertex_diag_matches_the_product_order_bit_for_bit():
    # the members come in blocks of 256; the reference builds each alone
    for n in (1, 2, 3, 8, 9):
        got = list(enumerate_members(vertex_diag(n)))
        want = [np.diag(np.asarray(s)) for s in itertools.product((1.0, -1.0), repeat=n)]
        assert len(got) == len(want) == 2 ** n
        assert all(g.shape == w.shape and g.tobytes() == w.tobytes()
                   for g, w in zip(got, want)), n


def test_enumerate_infinite_class_raises():
    with pytest.raises(InfiniteClassError):
        list(enumerate_members(pos_diag(2)))


def test_enumerate_sign_diag_raises():
    # a sign pattern covers a continuum: it once enumerated one +-1/0
    # representative and had finite_size 1, though it is not finite
    cls = sign_diag([1, -1, 0])
    with pytest.raises(InfiniteClassError):
        list(enumerate_members(cls))
    with pytest.raises(InfiniteClassError):
        cls.finite_size


def test_identity_element_examples():
    assert np.array_equal(identity_element(pos_diag(2), algebra.MUL), np.eye(2))
    assert identity_element(pos_diag(2), algebra.ADD) is None
    assert identity_element(spd(2), algebra.HADAMARD) is None
    assert np.array_equal(
        identity_element(theta_ordered([0, 1]), algebra.MUL), np.eye(2)
    )
    assert np.array_equal(
        identity_element(diag(2), algebra.ADD), np.zeros((2, 2))
    )


def test_closure_probe_pos_diag_mul_is_group():
    rep = closure_probe(pos_diag(3), algebra.MUL, 200, np.random.default_rng(1))
    assert rep.closed and rep.has_inverses


def test_closure_probe_theta_ordered_lacks_inverses():
    rep = closure_probe(
        theta_ordered([0, 1, 2]), algebra.MUL, 200, np.random.default_rng(2)
    )
    assert rep.closed
    assert not rep.has_inverses
    assert rep.inverse_counterexample is not None


def test_closure_probe_spd_mul_not_closed():
    rep = closure_probe(spd(3), algebra.MUL, 200, np.random.default_rng(3))
    assert not rep.closed
    g1, g2 = rep.closure_counterexample
    assert contains(spd(3), g1) and contains(spd(3), g2)
    assert not contains(spd(3), g1 @ g2, 1e-7)


def test_closure_probe_spd_add_closed():
    rep = closure_probe(spd(3), algebra.ADD, 100, np.random.default_rng(4))
    assert rep.closed


def test_chain_membership_examples():
    part = Partition.from_sizes([2, 1])
    assert chain_memberships(np.diag([2.0, 2.0, 5.0]), part) == (
        True, True, True, True,
    )
    assert chain_memberships(np.diag([1.0, 2.0, 3.0]), part) == (
        False, True, True, True,
    )
    part2 = Partition.from_sizes([1, 1])
    assert chain_memberships(np.array([[2.0, 1.0], [1.0, 2.0]]), part2) == (
        False, False, False, True,
    )


def test_chain_membership_monotone_on_samples():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        sizes = []
        n = 0
        while n < 4:
            s = int(rng.integers(1, 3))
            sizes.append(s)
            n += s
        part = Partition.from_sizes(sizes)
        d = sample(pos_alpha_scalar(part), rng)
        memberships = chain_memberships(d, part)
        assert memberships == (True, True, True, True)
        # monotone: once true, stays true
        for a, b in zip(memberships, memberships[1:]):
            assert (not a) or b


def test_positive_diagonals_decompose_into_ordered_classes():
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = sample(pos_diag(4), rng)
        order = tuple(np.argsort(-np.diag(d)))
        assert contains(theta_ordered(order), d)


def test_sign_patterns_partition_nonsingular_diagonals():
    rng = np.random.default_rng(8)
    patterns = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for _ in range(300):
        d = sample(diag(2), rng)
        matches = [p for p in patterns if contains(sign_diag(p), d)]
        assert len(matches) == 1


def test_theta_ratios_examples():
    assert theta_ratios(np.diag([4.0, 2.0, 1.0]), [0, 1, 2]) == (2.0, 2.0)
    assert theta_ratios(np.eye(3), [2, 0, 1]) == (1.0, 1.0)
    assert theta_ratios(np.diag([8.0, 4.0, 1.0]), [0, 1, 2]) == (2.0, 4.0)


def test_theta_ratios_rejects_unordered():
    with pytest.raises(NotThetaOrderedError):
        theta_ratios(np.diag([1.0, 2.0]), [0, 1])


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(((0, 2), (1,)))
    with pytest.raises(ValueError):
        Partition(((0,), (2,)))
    p = Partition.from_sizes([2, 2])
    assert p.order == 4 and p.blocks == ((0, 1), (2, 3))


@pytest.mark.parametrize("blocks", [((0, 1), ()), ((), (0,)), ((0,), (), (1,))])
def test_partition_rejects_an_empty_block(blocks):
    # an empty block once passed, and classes.contains then raised IndexError
    with pytest.raises(ValueError, match="partition blocks must be nonempty"):
        Partition(blocks)
    with pytest.raises(ValueError):
        Partition.from_sizes([len(b) for b in blocks])


def test_finiteness_flags():
    assert vertex_diag(3).is_finite and vertex_diag(3).finite_size == 8
    assert explicit_list([np.eye(2)]).is_finite
    assert not sign_diag([1, -1]).is_finite
    assert not pos_diag(3).is_finite
    assert pos_diag(3).is_unbounded
    assert not box_diag([0, 0], [1, 1]).is_unbounded
    assert not sign_diag([0, 0]).is_unbounded


def _claim_images(name, g):
    """The matrices that the True cell ``name`` claims stay in the class
    of ``g`` (for ``diagonal``: in the diagonal matrices)."""
    if name == "invertible":
        # contains() asks lambda_min > 1e-7 * max|diag| of a definite
        # member, which the inverse of a member with condition number
        # beyond about 1e7 fails in any class: check the others
        if np.linalg.cond(g) > 1e6:
            return []
        return [algebra.op_inverse(MUL, g)]
    return {"diagonal": [g], "negatable": [-g], "scalable": [2.0 * g, 0.5 * g],
            "transposable": [g.T]}[name]


def test_row_scaling_fact_holds_at_every_spread():
    # the member that scales row i by u_i, for spreads of u far beyond
    # the sampler's range
    a = np.random.default_rng(3).standard_normal((4, 4))
    kinds = set()
    for cls in all_kinds(4):
        kind = cls.fact("row_scaling")
        if kind is None:
            continue
        kinds.add(cls.kind)
        op = algebra.BinaryOp(kind)
        for e in (1, 30, 60, 500):
            for u in (np.array([2.0 ** e, 1.0, 1.0, 1.0]),
                      np.array([1.0, 2.0 ** e, 2.0 ** e, 1.0])):
                g = algebra.row_scaling(op, u)
                assert contains(cls, g, 1e-7), (cls.kind, e)
                np.testing.assert_array_equal(algebra.apply(op, g, a), u[:, None] * a)
    assert kinds == {ClassKind.DIAG, ClassKind.POS_DIAG, ClassKind.RANK_K_POSITIVE,
                     ClassKind.SUM_RANK_ONE_POSITIVE}


@pytest.mark.parametrize("n", [3, 4])
def test_closure_facts_hold_on_sampled_members(n):
    names = ("diagonal", "negatable", "invertible", "scalable", "transposable")
    for cls in all_kinds(n):
        # a closure claim maps members to members: take the draws that
        # pass the membership test the images must pass
        gs = [g for g in sample_batch(cls, np.random.default_rng(n), 200)
              if contains(cls, g, 1e-7)]
        assert len(gs) > 150, cls.kind
        for name in names:
            if not cls.fact(name):
                continue
            target = diag(n) if name == "diagonal" else cls
            images = [m for g in gs for m in _claim_images(name, g)]
            assert images, (cls.kind, name)
            for m in images:
                assert contains(target, m, 1e-7), (cls.kind, name, m)


# --- the stacked membership test ---------------------------------------------


_EDGE = 2.0 ** -20


def _membership_probes(c, rng):
    """Matrices at the edges of the class's rule: sampled members, each
    with one entry moved by ``tol * max(1, max|m|)`` at tol 1e-9 and by
    the floats just beside it, its negation and transpose, identities
    with one entry exactly on the threshold at tol 2^-20, the kind's own
    boundaries (box ends, tau ends), fixed matrices, and all of them
    scaled by 2^1000 and 2^-1000."""
    n = c.order
    out = [np.zeros((n, n)), np.eye(n), -np.eye(n), np.ones((n, n))]
    for g in sample_batch(c, rng, 2):
        out += [g, -g, g.T]
        thr = 1e-9 * max(1.0, float(np.max(np.abs(g))))
        for e in (thr, np.nextafter(thr, 0.0), np.nextafter(thr, np.inf), -thr):
            for i, j in {(0, n - 1), (n - 1, 0), (0, 0), (n - 1, n - 1)}:
                h = g.copy()
                h[i, j] += e
                out.append(h)
    # at tol 2^-20 the threshold of a matrix with max|m| = 1 is exact:
    # these entries sit on it
    for i, j in {(0, n - 1), (n - 1, 0), (0, 0)}:
        for e in (_EDGE, -_EDGE):
            h = np.eye(n)
            h[i, j] = 1.0 - abs(e) if i == j else e
            out.append(h)
    if c.kind is ClassKind.BOX_DIAG:
        out += [np.diag(c.lo), np.diag(c.hi),
                np.diag(np.nextafter(np.asarray(c.hi), np.inf)),
                np.diag(np.nextafter(np.asarray(c.hi), -np.inf))]
    if c.kind is ClassKind.PARAMETRIC_RANK_ONE:
        outer = np.outer(c.x, c.y)
        for t in c.tau:
            for edge in (t - 1e-9, t + 1e-9):
                out += [v * outer for v in (edge, np.nextafter(edge, -np.inf),
                                            np.nextafter(edge, np.inf))]
    return out + [m * 2.0 ** 1000 for m in out] + [m * 2.0 ** -1000 for m in out]


def _membership_classes():
    return all_kinds(4) + factory_classes(3) + [
        f(1) for f in (symmetric, spd, diag, pos_diag, vertex_diag)] + [
        theta_ordered([0]), box_diag([0.5], [2.0]), rank_k_positive(1, 1),
        parametric_rank_one([2.0], [0.5], (0.0, 1.0)), explicit_list([[[3.0]]])]


@pytest.mark.filterwarnings("error")
def test_stacked_membership_equals_a_loop_of_contains():
    # the one-matrix rules of the former contains are the oracle
    rng = np.random.default_rng(17)
    accepted, rejected = set(), set()
    for c in _membership_classes():
        ms = np.stack(_membership_probes(c, rng))
        want = [contains(c, m) for m in ms]
        assert want == [reference_2d.contains(c, m) for m in ms], c
        accepted |= {c.kind} if any(want) else set()
        rejected |= {c.kind} if not all(want) else set()
        assert are_members([c] * len(ms), ms).tolist() == want, c
        for tol in (1e-7, _EDGE):
            want = [contains(c, m, tol) for m in ms]
            assert want == [reference_2d.contains(c, m, tol) for m in ms], (c, tol)
            assert are_members([c] * len(ms), ms, tol).tolist() == want, (c, tol)
    assert accepted == rejected == set(ClassKind)


def test_stacked_membership_groups_rows_by_class():
    # rows of several classes of one order, interleaved
    rng = np.random.default_rng(18)
    pairs = [(c, m) for c in factory_classes(3) for m in _membership_probes(c, rng)[:12]]
    order = rng.permutation(len(pairs))
    cs = [pairs[i][0] for i in order]
    ms = np.stack([pairs[i][1] for i in order])
    assert are_members(cs, ms).tolist() == [contains(c, m) for c, m in zip(cs, ms)]


def test_stacked_membership_rejects_a_non_finite_row_alone():
    ms = np.stack([np.eye(2), np.diag([1.0, np.nan]), np.diag([np.inf, 1.0]), 2 * np.eye(2)])
    for c in (pos_diag(2), spd(2), symmetric(2), explicit_list([np.eye(2)])):
        want = [contains(c, ms[0]), False, False, contains(c, ms[3])]
        assert are_members([c] * 4, ms).tolist() == want, c.kind
        # the one-matrix test refuses a non-finite matrix outright
        for m in ms[1:3]:
            with pytest.raises(ValueError, match="non-finite"):
                contains(c, m)


def test_stacked_membership_rejects_a_wrong_order():
    with pytest.raises(DimensionMismatchError):
        are_members([pos_diag(3)], np.eye(2)[None])
    with pytest.raises(DimensionMismatchError):
        are_members([pos_diag(2), pos_diag(3)], np.stack([np.eye(2)] * 2))
    with pytest.raises(ValueError):
        are_members([pos_diag(2)], np.stack([np.eye(2)] * 2))
