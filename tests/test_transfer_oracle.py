"""The verdict-transfer rules read from the facts table agree with the
per-kind rules they replaced.

The ``_old_*`` functions below are the former hand-written rules, kept
verbatim (the class properties as functions of the class).  Over the
factory classes at n = 1..4 they must give the same answers as the table
driven rules, except for three sound widenings, which are listed in
``_widening`` and must each occur.
"""

import itertools

import numpy as np

from dgstab import classes, engine, regions
from dgstab.algebra import BinaryOp, OpKind
from dgstab.classes import ClassKind, MatrixClass, Partition
from dgstab.engine import Query, Transform, TransformKind
from dgstab.errors import UnrepresentableError
from test_classes import factory_classes

ALPHAS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0)
OPS = tuple(BinaryOp(k) for k in OpKind)
REGIONS = (regions.right_half_plane(), regions.unit_disk(), regions.real_axis())


# --- the former rules, verbatim ----------------------------------------------


def _old_is_finite(self) -> bool:
    return self.kind in (ClassKind.VERTEX_DIAG, ClassKind.EXPLICIT_LIST)


def _old_is_unbounded(self) -> bool:
    k = self.kind
    if k in (ClassKind.VERTEX_DIAG, ClassKind.BOX_DIAG, ClassKind.EXPLICIT_LIST):
        return False
    if k is ClassKind.SIGN_DIAG:
        return any(s != 0 for s in self.signs)
    if k is ClassKind.PARAMETRIC_RANK_ONE:
        return False  # tau ranges are finite intervals
    return True


def _old_closed_under_positive_scaling(self) -> bool:
    return self.kind not in (
        ClassKind.VERTEX_DIAG,
        ClassKind.BOX_DIAG,
        ClassKind.PARAMETRIC_RANK_ONE,
        ClassKind.EXPLICIT_LIST,
    )


def _old_closed_under_transpose(cls: MatrixClass) -> bool:
    if cls.kind is ClassKind.PARAMETRIC_RANK_ONE:
        return bool(np.allclose(np.outer(cls.x, cls.y), np.outer(cls.y, cls.x)))
    if cls.kind is ClassKind.EXPLICIT_LIST:
        return all(
            classes.contains(cls, np.array(m, dtype=float).T, 1e-9)
            for m in cls.members
        )
    return True


def _old_closed_under_op_inverse(cls: MatrixClass, op: BinaryOp) -> bool:
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


def _old_closed_under_scalar(cls: MatrixClass, alpha: float) -> bool:
    """Both alpha*G and G/alpha stay in the class."""
    if alpha == 0.0:
        return False
    if alpha == 1.0:
        return True
    k = cls.kind
    if alpha > 0.0:
        return _old_closed_under_positive_scaling(cls)
    if alpha == -1.0 and k is ClassKind.VERTEX_DIAG:
        return True
    return k in (ClassKind.SYMMETRIC, ClassKind.DIAG, ClassKind.ALPHA_SCALAR)


def _old_similarity_invariant(cls: MatrixClass, s: np.ndarray) -> bool:
    k = cls.kind
    if engine._is_nonsingular_diagonal(s):
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
    if engine._is_permutation_matrix(s):
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


def _old_transfer_applicable(q: Query, tf: Transform) -> str | None:
    """None when the relevant theorem's hypotheses hold, else a reason."""
    if tf.kind is TransformKind.TRANSPOSE:
        if not _old_closed_under_transpose(q.cls):
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
        if not _old_closed_under_op_inverse(q.cls, q.op):
            return "class is not closed under the operation inverse"
        return None
    if tf.kind is TransformKind.SCALAR:
        alpha = float(tf.alpha)
        if not regions.scalar_preserves_region(q.region, alpha):
            return "region is not invariant under this scalar"
        if q.op.kind is OpKind.ADD and not _old_closed_under_scalar(q.cls, alpha):
            return "class is not closed under this scaling"
        return None
    if tf.kind is TransformKind.SIMILARITY:
        if q.op.kind is OpKind.HADAMARD:
            return "similarity transfer needs addition or multiplication"
        s = np.asarray(tf.s, dtype=float)
        if not (engine._is_permutation_matrix(s) or engine._is_nonsingular_diagonal(s)):
            return "similarity matrix must be a permutation or a nonsingular diagonal"
        if not _old_similarity_invariant(q.cls, s):
            return "class is not invariant under this similarity"
        return None
    raise AssertionError(tf.kind)


# --- the comparison ----------------------------------------------------------


def _similarities(n):
    perms = [np.eye(n)[list(p)] for p in itertools.permutations(range(n))]
    return perms + [np.diag(np.arange(2.0, n + 2)), -np.eye(n)]


def _transforms(n):
    yield Transform(TransformKind.TRANSPOSE)
    yield Transform(TransformKind.OP_INVERSE)
    for alpha in ALPHAS:
        yield Transform(TransformKind.SCALAR, alpha=alpha)
    for s in _similarities(n):
        yield Transform(TransformKind.SIMILARITY, s=s)


def _widening(cls, tf):
    """Which listed widening, if any, the new rules make for (cls, tf)."""
    if tf.kind is TransformKind.SCALAR and tf.alpha == -1.0:
        if cls.kind is ClassKind.BOX_DIAG and cls.lo == tuple(-h for h in cls.hi):
            return "negated box"
        if cls.kind is ClassKind.PARAMETRIC_RANK_ONE and cls.tau[0] == -cls.tau[1]:
            return "negated rank-one"
    if (tf.kind is TransformKind.SIMILARITY
            and cls.kind is ClassKind.PARAMETRIC_RANK_ONE
            and not engine._is_nonsingular_diagonal(tf.s)):
        pi = np.argmax(tf.s, axis=1)
        if np.array_equal(np.asarray(cls.x)[pi], cls.x) and np.array_equal(
                np.asarray(cls.y)[pi], cls.y):
            return "permuted rank-one"
    return None


def test_new_rules_match_the_old_ones_but_for_the_listed_widenings():
    seen = set()
    count = 0
    for n in range(1, 5):
        for cls in factory_classes(n):
            count += 1
            assert cls.is_finite == _old_is_finite(cls), cls
            assert cls.is_unbounded == _old_is_unbounded(cls), cls
            assert (cls.closed_under_positive_scaling
                    == _old_closed_under_positive_scaling(cls)), cls
            for alpha in ALPHAS:
                old = _old_closed_under_scalar(cls, alpha)
                new = engine._closed_under_scalar(cls, alpha)
                tf = Transform(TransformKind.SCALAR, alpha=alpha)
                assert new == (old or _widening(cls, tf) is not None), (cls, alpha)
            for s in _similarities(n):
                tf = Transform(TransformKind.SIMILARITY, s=s)
                old = _old_similarity_invariant(cls, s)
                new = engine._similarity_invariant(cls, s)
                assert new == (old or _widening(cls, tf) is not None), (cls, s)
            for region, op, tf in itertools.product(REGIONS, OPS, _transforms(n)):
                q = Query(np.eye(n), region, cls, op, budget=1)
                old = _old_transfer_applicable(q, tf)
                new = engine._transfer_applicable(q, tf)
                if old == new:
                    continue
                widening = _widening(cls, tf)
                assert widening is not None and new is None, (cls, region, op, tf, old)
                seen.add(widening)
    assert count > 250
    assert seen == {"negated box", "negated rank-one", "permuted rank-one"}
