"""Matrix-class descriptors: membership tests, samplers, enumerators,
and group-structure probes.

A class descriptor is an immutable value carrying the structural
parameters (partition, permutation, sign pattern, bounds, rank, ...).
Membership is a structural predicate with tolerance, one rule per
kind, tested on a stack of matrices (``are_members``; ``contains`` is
its stack of one); samplers draw members from an explicit generator
stream, so parallel callers split streams deterministically; only the
two finite kinds (vertex diagonals and explicit lists) can be
enumerated exactly.

Every per-kind closure fact lives in one table, ``_FACTS``, with the
columns ``diagonal``, ``finite``, ``bounded``, ``scalable``,
``negatable``, ``invertible``, ``transposable`` and ``row_scaling``; a
cell is a value (a bool; an operation kind or None for
``row_scaling``), or a predicate where the answer depends on the class's
parameters.  Read it through ``MatrixClass.fact(name)``.

Every kind is also reached through its parameters, in the table
``_PARAMS``: ``draw`` gives a (count, dim) array of them, ``decode`` the
(count, n, n) members, and the move rule the values that
``coordinate_moves`` tries for one coordinate at step ``s``.
``sample_batch`` decodes draws; ``engine.stabilize`` descends on the
falsifier's own parameters.  L is log-uniform on [1e-3, 1e3], to stress
scale separation; U is uniform, and B and g are Gaussian:

  kind                   parameters          decode            moves
  pos_diag               log10 of L          diag(10^p)        p +- s
  theta_ordered          log10 of L          10^p sorted       p +- s
  diag, sign_diag        +-L (sign_diag:     diag(p)           p (1+s), p/(1+s),
                         the class's signs)                    then -p for diag
  vertex_diag            +-1                 diag(p)           -p
  (pos_)alpha_scalar     (+-)L per block     p on each block   as (sign_)diag
  box_diag               U(lo, hi)           clipped inside    p +- s (hi - lo)
  parametric_rank_one    tau, U(tau range)   tau x y^T         p +- s span, in range
  symmetric              triu of g + g^T     symmetric fill    p +- s (|p| + 1)
  spd, alpha_block_spd   B for each block    B^T B + 1e-6 I    as symmetric, on
                                             max diag          B's upper triangle
  rank_k_positive,       factors u, v,       sum u_k v_k^T     p 10^(+-s (|log10 p|
  sum_rank_one_positive  U(0.1, 10)                            + 1))
  explicit_list          member index        that member       none
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import algebra
from .algebra import BinaryOp, OpKind
from .errors import (
    DimensionMismatchError,
    InfiniteClassError,
    NotThetaOrderedError,
)
from .linalg import are_positive_definite, as_square_matrix

__all__ = [
    "ClassKind",
    "Partition",
    "MatrixClass",
    "symmetric",
    "spd",
    "alpha_block_spd",
    "diag",
    "pos_diag",
    "sign_diag",
    "alpha_scalar",
    "pos_alpha_scalar",
    "theta_ordered",
    "box_diag",
    "vertex_diag",
    "rank_k_positive",
    "sum_rank_one_positive",
    "parametric_rank_one",
    "explicit_list",
    "contains",
    "are_members",
    "class_groups",
    "draw",
    "decode",
    "coordinate_moves",
    "sample",
    "sample_batch",
    "enumerate_members",
    "identity_element",
    "ClosureReport",
    "closure_probe",
    "chain_memberships",
    "theta_ratios",
]

#: Singular values below this fraction of the largest count as zero in
#: rank decisions.
RANK_TOL = 1e-9

_LOG_RANGE = (-3.0, 3.0)


class ClassKind(enum.Enum):
    SYMMETRIC = "symmetric"
    SPD = "spd"
    ALPHA_BLOCK_SPD = "alpha_block_spd"
    DIAG = "diag"
    POS_DIAG = "pos_diag"
    SIGN_DIAG = "sign_diag"
    ALPHA_SCALAR = "alpha_scalar"
    POS_ALPHA_SCALAR = "pos_alpha_scalar"
    THETA_ORDERED = "theta_ordered"
    BOX_DIAG = "box_diag"
    VERTEX_DIAG = "vertex_diag"
    RANK_K_POSITIVE = "rank_k_positive"
    SUM_RANK_ONE_POSITIVE = "sum_rank_one_positive"
    PARAMETRIC_RANK_ONE = "parametric_rank_one"
    EXPLICIT_LIST = "explicit_list"


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint contiguous index blocks covering 0..n-1."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [i for block in self.blocks for i in block]
        if not flat:
            raise ValueError("partition must be nonempty")
        if not all(self.blocks):
            raise ValueError("partition blocks must be nonempty")
        if flat != list(range(len(flat))):
            raise ValueError(
                "blocks must be contiguous, disjoint, and cover 0..n-1 in order"
            )

    @classmethod
    def from_sizes(cls, sizes) -> "Partition":
        blocks = []
        start = 0
        for s in sizes:
            blocks.append(tuple(range(start, start + s)))
            start += s
        return cls(tuple(blocks))

    @property
    def order(self) -> int:
        return sum(len(b) for b in self.blocks)

    def restrict(self, idx) -> "Partition":
        """The partition induced on the indices ``idx``, renumbered in
        that order: each block keeps its indices in ``idx`` (sorted), and
        the nonempty blocks are sorted.  Raises ValueError when a
        reordering leaves them non-contiguous."""
        pos = {orig: new for new, orig in enumerate(idx)}
        blocks = (tuple(sorted(pos[i] for i in b if i in pos)) for b in self.blocks)
        return Partition(tuple(sorted(b for b in blocks if b)))


@dataclass(frozen=True)
class MatrixClass:
    kind: ClassKind
    order: int
    partition: Partition | None = None
    theta: tuple[int, ...] | None = None
    signs: tuple[int, ...] | None = None
    lo: tuple[float, ...] | None = None
    hi: tuple[float, ...] | None = None
    rank: int | None = None
    x: tuple[float, ...] | None = None
    y: tuple[float, ...] | None = None
    tau: tuple[float, float] | None = None
    members: tuple | None = None

    def fact(self, name: str) -> bool:
        """The ``_FACTS`` cell ``name`` for this class."""
        value = getattr(_FACTS[self.kind], name)
        return value(self) if callable(value) else value

    @property
    def is_finite(self) -> bool:
        """Whether the class has finitely many members (the ``finite``
        fact), so that ``enumerate_members`` lists them all and exhaustion
        over them decides."""
        return self.fact("finite")

    @property
    def finite_size(self) -> int:
        if self.kind is ClassKind.VERTEX_DIAG:
            return 2 ** self.order
        if self.kind is ClassKind.EXPLICIT_LIST:
            return len(self.members)
        raise InfiniteClassError(f"{self.kind.value} has infinitely many members")

    @property
    def is_unbounded(self) -> bool:
        return not self.fact("bounded")

    @property
    def closed_under_positive_scaling(self) -> bool:
        return self.fact("scalable")


class _Facts(NamedTuple):
    diagonal: bool | Callable  # every member is diagonal
    finite: bool | Callable  # exact enumeration is sound
    bounded: bool | Callable  # the members form a bounded set
    scalable: bool | Callable  # closed under G -> c G for every c > 0
    negatable: bool | Callable  # closed under G -> -G
    invertible: bool | Callable  # closed under G -> G^-1 (invertible G)
    transposable: bool | Callable  # closed under G -> G^T
    # the operation o under which, for every positive vector u, the class
    # holds a member G with G o A = diag(u) A for every A (diag(u) under
    # the product, u 1^T under the entrywise product) that also passes
    # contains at 1e-7; None otherwise.  The SPD kinds hold every
    # positive diagonal, but that test rejects a wide spread of u.
    row_scaling: OpKind | None


def _members_diagonal(c: MatrixClass) -> bool:
    return all(contains(diag(c.order), m, 1e-12) for m in _member_arrays(c))


def _members_transposable(c: MatrixClass) -> bool:
    return all(contains(c, m.T, 1e-9) for m in _member_arrays(c))


#: The closure facts of each kind, in the column order of ``_Facts``.
#: The engine's unboundedness escape, enumeration, principal-minor
#: refutation and verdict-transfer rules read them here.
_FACTS = {
    ClassKind.SYMMETRIC: _Facts(False, False, False, True, True, True, True, None),
    ClassKind.SPD: _Facts(False, False, False, True, False, True, True, None),
    ClassKind.ALPHA_BLOCK_SPD: _Facts(False, False, False, True, False, True, True, None),
    ClassKind.DIAG: _Facts(True, False, False, True, True, True, True, OpKind.MUL),
    ClassKind.POS_DIAG: _Facts(True, False, False, True, False, True, True, OpKind.MUL),
    ClassKind.SIGN_DIAG: _Facts(
        True, False, lambda c: not any(c.signs), True, False, True, True, None),
    ClassKind.ALPHA_SCALAR: _Facts(True, False, False, True, True, True, True, None),
    ClassKind.POS_ALPHA_SCALAR: _Facts(True, False, False, True, False, True, True, None),
    ClassKind.THETA_ORDERED: _Facts(True, False, False, True, False, False, True, None),
    ClassKind.BOX_DIAG: _Facts(
        True, False, True, False,
        lambda c: all(l == -h for l, h in zip(c.lo, c.hi)), False, True, None),
    ClassKind.VERTEX_DIAG: _Facts(True, True, True, False, True, True, True, None),
    ClassKind.RANK_K_POSITIVE: _Facts(
        False, False, False, True, False, False, True, OpKind.HADAMARD),
    ClassKind.SUM_RANK_ONE_POSITIVE: _Facts(
        False, False, False, True, False, False, True, OpKind.HADAMARD),
    ClassKind.PARAMETRIC_RANK_ONE: _Facts(
        False, False, True, False, lambda c: c.tau[0] == -c.tau[1], False,
        lambda c: bool(np.allclose(np.outer(c.x, c.y), np.outer(c.y, c.x))), None),
    ClassKind.EXPLICIT_LIST: _Facts(
        _members_diagonal, True, True, False, False, False, _members_transposable, None),
}


def _check_perm(theta, n: int) -> tuple[int, ...]:
    t = tuple(operator.index(i) for i in theta)  # 1.5 raises, never truncates
    if sorted(t) != list(range(n)):
        raise ValueError(f"{theta} is not a permutation of 0..{n - 1}")
    return t


def symmetric(n: int) -> MatrixClass:
    return MatrixClass(ClassKind.SYMMETRIC, n)


def spd(n: int) -> MatrixClass:
    return MatrixClass(ClassKind.SPD, n)


def alpha_block_spd(partition: Partition) -> MatrixClass:
    """Symmetric positive definite matrices supported on the diagonal
    blocks of the partition."""
    return MatrixClass(ClassKind.ALPHA_BLOCK_SPD, partition.order, partition=partition)


def diag(n: int) -> MatrixClass:
    return MatrixClass(ClassKind.DIAG, n)


def pos_diag(n: int) -> MatrixClass:
    return MatrixClass(ClassKind.POS_DIAG, n)


def sign_diag(signs) -> MatrixClass:
    s = tuple(int(np.sign(v)) for v in signs)
    return MatrixClass(ClassKind.SIGN_DIAG, len(s), signs=s)


def alpha_scalar(partition: Partition) -> MatrixClass:
    """Diagonal matrices constant on each partition block."""
    return MatrixClass(ClassKind.ALPHA_SCALAR, partition.order, partition=partition)


def pos_alpha_scalar(partition: Partition) -> MatrixClass:
    return MatrixClass(
        ClassKind.POS_ALPHA_SCALAR, partition.order, partition=partition
    )


def theta_ordered(theta) -> MatrixClass:
    """Positive diagonals non-increasing along the permutation theta
    (0-based)."""
    t = _check_perm(theta, len(tuple(theta)))
    return MatrixClass(ClassKind.THETA_ORDERED, len(t), theta=t)


def box_diag(lo, hi) -> MatrixClass:
    lo = tuple(float(v) for v in lo)
    hi = tuple(float(v) for v in hi)
    if len(lo) != len(hi):
        raise ValueError("lo and hi must have equal lengths")
    if any(l >= h for l, h in zip(lo, hi)):
        raise ValueError("need lo[i] < hi[i] for every coordinate")
    return MatrixClass(ClassKind.BOX_DIAG, len(lo), lo=lo, hi=hi)


def vertex_diag(n: int) -> MatrixClass:
    return MatrixClass(ClassKind.VERTEX_DIAG, n)


def rank_k_positive(n: int, k: int) -> MatrixClass:
    if not 1 <= k <= n:
        raise ValueError("rank bound must satisfy 1 <= k <= n")
    return MatrixClass(ClassKind.RANK_K_POSITIVE, n, rank=k)


def sum_rank_one_positive(n: int, k: int) -> MatrixClass:
    if not 1 <= k <= n:
        raise ValueError("rank bound must satisfy 1 <= k <= n")
    return MatrixClass(ClassKind.SUM_RANK_ONE_POSITIVE, n, rank=k)


def parametric_rank_one(x, y, tau: tuple[float, float]) -> MatrixClass:
    x = tuple(float(v) for v in x)
    y = tuple(float(v) for v in y)
    if len(x) != len(y):
        raise ValueError("x and y must have equal lengths")
    lo, hi = float(tau[0]), float(tau[1])
    if not lo <= hi:
        raise ValueError("tau range must satisfy lo <= hi")
    return MatrixClass(ClassKind.PARAMETRIC_RANK_ONE, len(x), x=x, y=y, tau=(lo, hi))


def explicit_list(members) -> MatrixClass:
    mats = [as_square_matrix(m, "member") for m in members]
    if not mats:
        raise ValueError("explicit list must be nonempty")
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise ValueError("all members must have equal order")
    frozen = tuple(tuple(tuple(row) for row in m) for m in mats)
    return MatrixClass(ClassKind.EXPLICIT_LIST, n, members=frozen)


def _member_arrays(c: MatrixClass) -> list[np.ndarray]:
    return [np.array(m, dtype=float) for m in c.members]


def _blocks(c: MatrixClass):  # an SPD kind's blocks; SPD is the one-block case
    return c.partition.blocks if c.partition else (range(c.order),)


def _offdiag_within(absm: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Per matrix of the stack of magnitudes ``absm`` (overwritten):
    whether every off-diagonal entry is at most its row's ``thr``."""
    diag_idx = np.arange(absm.shape[-1])
    absm[:, diag_idx, diag_idx] = 0.0
    return absm.max(axis=(1, 2)) <= thr


def _member_rows(c: MatrixClass, m: np.ndarray, tol: float) -> np.ndarray:
    """The membership rules, one per kind: the mask of the matrices of
    the finite ``(r, n, n)`` stack ``m`` that are in ``c`` at ``tol``,
    each decided as it would be alone."""
    absm = np.abs(m)
    top = absm.max(axis=(1, 2))
    thr = tol * np.maximum(1.0, top)
    d = m.diagonal(axis1=1, axis2=2)
    k = c.kind

    if k is ClassKind.SYMMETRIC:
        return np.abs(m - m.swapaxes(1, 2)).max(axis=(1, 2)) <= thr
    if k in (ClassKind.SPD, ClassKind.ALPHA_BLOCK_SPD):
        # SPD is the one-block case; halves first, so that nothing
        # overflows near the float limit
        mask = np.zeros((c.order, c.order), dtype=bool)
        for block in _blocks(c):
            sel = np.asarray(block)
            mask[np.ix_(sel, sel)] = True
        half = 0.5 * m
        ok = ((absm[:, ~mask].max(axis=1, initial=0.0) <= thr)
              & (np.abs(half - half.swapaxes(1, 2)).max(axis=(1, 2)) <= 0.5 * thr))
        rows = np.flatnonzero(ok)
        if rows.size:
            ok[rows] = are_positive_definite(half[rows] + half[rows].swapaxes(1, 2), tol)
        return ok
    if k is ClassKind.DIAG:
        return _offdiag_within(absm, thr)
    if k is ClassKind.POS_DIAG:
        # sign constraints are strict; scaled tolerances would reject
        # legitimately small entries of wide-range products
        return _offdiag_within(absm, thr) & (d > 0.0).all(axis=1)
    if k is ClassKind.SIGN_DIAG:
        signs = np.asarray(c.signs)
        fits = np.where(signs > 0, d > 0.0,
                        np.where(signs < 0, d < 0.0, np.abs(d) <= thr[:, None]))
        return _offdiag_within(absm, thr) & fits.all(axis=1)
    if k in (ClassKind.ALPHA_SCALAR, ClassKind.POS_ALPHA_SCALAR):
        ok = _offdiag_within(absm, thr)
        for block in c.partition.blocks:
            vals = d[:, np.asarray(block)]
            spread = vals.max(axis=1) - vals.min(axis=1)
            ok &= spread <= tol * np.maximum(1.0, np.abs(vals).max(axis=1))
        return ok & (d > 0.0).all(axis=1) if k is ClassKind.POS_ALPHA_SCALAR else ok
    if k is ClassKind.THETA_ORDERED:
        ordered = d[:, np.asarray(c.theta)]
        slack = tol * np.maximum(1.0, np.abs(ordered[:, :-1]))
        return (_offdiag_within(absm, thr) & (d > 0.0).all(axis=1)
                & (ordered[:, :-1] >= ordered[:, 1:] - slack).all(axis=1))
    if k is ClassKind.BOX_DIAG:
        return (_offdiag_within(absm, thr) & (d > np.asarray(c.lo)).all(axis=1)
                & (d < np.asarray(c.hi)).all(axis=1))
    if k is ClassKind.VERTEX_DIAG:
        return _offdiag_within(absm, thr) & (np.abs(np.abs(d) - 1.0) <= thr[:, None]).all(axis=1)
    if k in (ClassKind.RANK_K_POSITIVE, ClassKind.SUM_RANK_ONE_POSITIVE):
        # Entrywise positive with rank at most k, with singular values
        # below RANK_TOL times the largest counting as zero.  For sums of
        # positive rank-one terms this over-approximates the class; exact
        # membership is not decidable structurally.
        ok = (m > 0.0).all(axis=(1, 2))
        rows = np.flatnonzero(ok)
        if rows.size:
            sv = np.linalg.svd(m[rows], compute_uv=False)
            ok[rows] = (sv[:, c.rank:] <= RANK_TOL * sv[:, :1]).all(axis=1)
        return ok
    if k is ClassKind.PARAMETRIC_RANK_ONE:
        outer = np.outer(c.x, c.y)
        denom = float(np.sum(outer * outer))
        if denom == 0.0:
            return top <= thr
        t_hat = (m * outer).reshape(len(m), -1).sum(axis=1) / denom
        fits = np.abs(m - t_hat[:, None, None] * outer).max(axis=(1, 2)) <= thr
        return fits & (c.tau[0] - tol <= t_hat) & (t_hat <= c.tau[1] + tol)
    if k is ClassKind.EXPLICIT_LIST:
        refs = np.stack(_member_arrays(c))
        near = np.abs(m[:, None] - refs[None]).max(axis=(2, 3)) <= thr[:, None]
        return near.any(axis=1)
    raise AssertionError(k)


def are_members(cs, m, tol: float = 1e-9) -> np.ndarray:
    """Structural membership of each matrix of the ``(r, n, n)`` stack
    ``m`` in its own class ``cs[i]``, with tolerance ``tol``, as a
    boolean mask.  Rows that hold one class object are tested together
    (``class_groups``), by the one rule of their kind.

    Zero patterns, symmetry, sign constraints and ordering are tested
    against ``tol * max(1, max|entry|)``; rank against singular values
    below ``RANK_TOL`` times the largest.  A matrix with a non-finite
    entry is in no class; a class whose order is not the stack's raises
    ``DimensionMismatchError``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or len(cs) != len(m):
        raise ValueError(f"need one class per matrix of a square stack, got "
                         f"{len(cs)} classes and shape {m.shape}")
    ok = np.isfinite(m).all(axis=(1, 2))
    for c, rows in class_groups(cs):
        _check_order(c, m.shape[1])
        rows = np.asarray(rows)[ok[rows]]
        if rows.size:
            ok[rows] = _member_rows(c, m[rows], tol)
    return ok


def class_groups(cs) -> list[tuple[MatrixClass, list[int]]]:
    """The distinct class objects of the sequence ``cs``, each with the
    rows that hold it, in first-seen order.  Rows are grouped by object
    identity, so no class is hashed: ``engine.restrict_classes`` gives
    the rows of a stack of subsets one object per distinct class, and
    equal classes held as separate objects only split a group."""
    if len(cs) and all(c is cs[0] for c in cs):
        return [(cs[0], list(range(len(cs))))]
    groups: dict[int, tuple[MatrixClass, list[int]]] = {}
    for i, c in enumerate(cs):
        groups.setdefault(id(c), (c, []))[1].append(i)
    return list(groups.values())


def _check_order(c: MatrixClass, n: int) -> None:
    if n != c.order:
        raise DimensionMismatchError(f"matrix order {n} does not match class order {c.order}")


def contains(c: MatrixClass, m, tol: float = 1e-9) -> bool:
    """Structural membership of the matrix ``m`` with tolerance ``tol``,
    by the rule that ``are_members`` applies to a stack, on a stack of
    one.  Raises ``ValueError`` for a matrix that is not square or not
    finite."""
    m = as_square_matrix(m, "m")
    _check_order(c, m.shape[0])
    return bool(_member_rows(c, m[None], tol)[0])


def _log_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    return 10.0 ** rng.uniform(*_LOG_RANGE, size=shape)


def _diagonals(c: MatrixClass, vals: np.ndarray) -> np.ndarray:
    out = np.zeros((len(vals), c.order, c.order))
    out.reshape(len(vals), c.order ** 2)[:, ::c.order + 1] = vals
    return out


def _sym_draw(c: MatrixClass, rng, count: int) -> np.ndarray:
    g = rng.standard_normal((count, c.order, c.order))
    return (g + np.swapaxes(g, 1, 2))[:, np.triu(np.ones((c.order, c.order), bool))]


def _sym_decode(c: MatrixClass, p: np.ndarray) -> np.ndarray:
    at = np.zeros((c.order, c.order), dtype=int)  # the parameter at (i, j), i <= j
    at[np.triu(np.ones(at.shape, bool))] = np.arange(p.shape[1])
    return p[:, at + np.triu(at, 1).T]


def _spd_decode(c: MatrixClass, p: np.ndarray) -> np.ndarray:
    # the shift puts every member's smallest eigenvalue above 1e-7 times
    # its largest diagonal entry, which is what contains(c, g, 1e-7) asks
    out, start = np.zeros((len(p), c.order, c.order)), 0
    for sel in map(np.asarray, _blocks(c)):
        b = p[:, start:start + sel.size ** 2].reshape(-1, sel.size, sel.size)
        out[:, sel[:, None], sel] = np.swapaxes(b, 1, 2) @ b
        start += sel.size ** 2
    shift = 1e-6 * out.diagonal(axis1=1, axis2=2).max(axis=1)
    return out + shift[:, None, None] * np.eye(c.order)


def _theta_decode(c: MatrixClass, p: np.ndarray) -> np.ndarray:
    vals = np.zeros(p.shape)
    vals[:, c.theta] = np.sort(10.0 ** p, axis=1)[:, ::-1]
    return _diagonals(c, vals)


def _block_values(c: MatrixClass, p: np.ndarray) -> np.ndarray:
    return _diagonals(c, p[:, [j for j, b in enumerate(c.partition.blocks) for _ in b]])


def _box_decode(c: MatrixClass, p: np.ndarray) -> np.ndarray:
    eps = 1e-9 * (np.asarray(c.hi) - c.lo)
    return _diagonals(c, np.clip(p, c.lo + eps, c.hi - eps))


def _steps(step):  # the moves to p[i] +- s step(c, p, i)
    def moves(c: MatrixClass, p: np.ndarray, i: int, s: float):
        delta = s * step(c, p, i)
        return p[i] + delta, p[i] - delta
    return moves


def _scalings(flip: bool):  # the moves to p[i] (1 + s), p[i] / (1 + s), then -p[i] if flip
    return lambda c, p, i, s: (p[i] * (1.0 + s), p[i] / (1.0 + s)) + ((-p[i],) if flip else ())


_unit_steps = _steps(lambda c, p, i: 1.0)
_dense_steps = _steps(lambda c, p, i: abs(p[i]) + 1.0)
_tau_steps = _steps(lambda c, p, i: max(c.tau[1] - c.tau[0], 1e-12))


def _spd_moves(c: MatrixClass, p: np.ndarray, i: int, s: float):
    # B^T B = R^T R for the triangular R of B = QR, so B's upper
    # triangle reaches every member; moving every entry lost finds
    upper = [r <= q for b in _blocks(c) for r in range(len(b)) for q in range(len(b))]
    return _dense_steps(c, p, i, s) if upper[i] else ()


def _log_steps(c: MatrixClass, p: np.ndarray, i: int, s: float):
    # the step +-s (|x| + 1) of the exponent x = log10 p[i], taken on p[i]
    f = 10.0 ** (s * (abs(np.log10(p[i])) + 1.0))
    return p[i] * f, p[i] / f


class _Params(NamedTuple):
    draw: Callable  # (c, rng, count) -> (count, dim) parameters
    decode: Callable  # (c, params) -> (count, n, n) members
    moves: Callable  # (c, p, i, s) -> the values p[i] moves to at step s, in order


_SPD = _Params(
    lambda c, rng, k: np.hstack([rng.standard_normal((k, len(b) ** 2)) for b in _blocks(c)]),
    _spd_decode, _spd_moves)
_RANK = _Params(  # the factors u, then v
    lambda c, rng, k: np.hstack(rng.uniform(0.1, 10.0, (2, k, c.rank * c.order))),
    lambda c, p: np.einsum("cki,ckj->cij",
                           *p.reshape(len(p), 2, c.rank, c.order).swapaxes(0, 1)),
    _log_steps)


#: The parameters of each kind, as the module docstring lists them; read
#: them through ``draw``, ``decode`` and ``coordinate_moves``.
_PARAMS = {
    ClassKind.SYMMETRIC: _Params(_sym_draw, _sym_decode, _dense_steps),
    ClassKind.SPD: _SPD,
    ClassKind.ALPHA_BLOCK_SPD: _SPD,
    ClassKind.DIAG: _Params(
        lambda c, rng, k: (rng.choice([-1.0, 1.0], (k, c.order))
                           * _log_uniform(rng, (k, c.order))),
        _diagonals, _scalings(True)),
    ClassKind.POS_DIAG: _Params(lambda c, rng, k: rng.uniform(*_LOG_RANGE, (k, c.order)),
                                lambda c, p: _diagonals(c, 10.0 ** p), _unit_steps),
    ClassKind.SIGN_DIAG: _Params(
        lambda c, rng, k: np.asarray(c.signs, dtype=float) * _log_uniform(rng, (k, c.order)),
        _diagonals, _scalings(False)),
    ClassKind.ALPHA_SCALAR: _Params(
        lambda c, rng, k: (_log_uniform(rng, (k, len(c.partition.blocks)))
                           * rng.choice([-1.0, 1.0], (k, len(c.partition.blocks)))),
        _block_values, _scalings(True)),
    ClassKind.POS_ALPHA_SCALAR: _Params(
        lambda c, rng, k: _log_uniform(rng, (k, len(c.partition.blocks))),
        _block_values, _scalings(False)),
    ClassKind.THETA_ORDERED: _Params(lambda c, rng, k: rng.uniform(*_LOG_RANGE, (k, c.order)),
                                     _theta_decode, _unit_steps),
    ClassKind.BOX_DIAG: _Params(lambda c, rng, k: rng.uniform(c.lo, c.hi, (k, c.order)),
                                _box_decode, _steps(lambda c, p, i: c.hi[i] - c.lo[i])),
    ClassKind.VERTEX_DIAG: _Params(lambda c, rng, k: rng.choice([-1.0, 1.0], (k, c.order)),
                                   _diagonals, lambda c, p, i, s: (-p[i],)),
    ClassKind.RANK_K_POSITIVE: _RANK,
    ClassKind.SUM_RANK_ONE_POSITIVE: _RANK,
    ClassKind.PARAMETRIC_RANK_ONE: _Params(
        lambda c, rng, k: rng.uniform(*c.tau, (k, 1)),
        lambda c, p: np.clip(p[:, :1, None], *c.tau) * np.outer(c.x, c.y),
        lambda c, p, i, s: np.clip(_tau_steps(c, p, i, s), *c.tau)),
    ClassKind.EXPLICIT_LIST: _Params(
        lambda c, rng, k: rng.integers(0, len(c.members), (k, 1)),
        lambda c, p: np.stack(_member_arrays(c))[p[:, 0]], lambda c, p, i, s: ()),
}


def draw(c: MatrixClass, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws of the class's parameters, as a (count, dim) array."""
    return _PARAMS[c.kind].draw(c, rng, count)


def decode(c: MatrixClass, params: np.ndarray) -> np.ndarray:
    """The members that the rows of ``params`` stand for, as a (count, n, n) stack."""
    return _PARAMS[c.kind].decode(c, params)


def coordinate_moves(c: MatrixClass, p: np.ndarray, i: int, scale: float):
    """Yield copies of the parameters ``p`` with coordinate ``i`` replaced
    by each value of the kind's move rule at step ``scale``, in order."""
    for value in _PARAMS[c.kind].moves(c, p, i, scale):
        cand = p.copy()
        cand[i] = value
        yield cand


def sample_batch(c: MatrixClass, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` members as a (count, n, n) stack: ``decode(draw)``.

    Deterministic given the generator state; every draw satisfies
    ``contains``, at tolerances up to 1e-7 (the engine re-checks
    witnesses at 1e-7).
    """
    return decode(c, draw(c, rng, count))


def sample(c: MatrixClass, rng: np.random.Generator) -> np.ndarray:
    """Draw one member of the class."""
    return sample_batch(c, rng, 1)[0]


def enumerate_members(c: MatrixClass):
    """Yield every member of a finite class (``is_finite``) exactly once.

    Vertex diagonals enumerate all ``2^n`` sign assignments in
    lexicographic order (+1 before -1, first index most significant);
    explicit lists yield their members in order.  Every infinite class
    raises ``InfiniteClassError``.
    """
    if c.kind is ClassKind.VERTEX_DIAG:
        n = c.order
        if n > 20:
            raise ValueError("vertex enumeration supported for order <= 20")
        # member j has -1 at index i when bit n-1-i of j is set: the order
        # of itertools.product((1.0, -1.0), repeat=n), built 256 at a time
        shifts, diag = np.arange(n - 1, -1, -1), np.arange(n)
        for start in range(0, 2 ** n, 256):
            j = np.arange(start, min(start + 256, 2 ** n))
            block = np.zeros((j.size, n, n))
            block[:, diag, diag] = 1.0 - 2.0 * (j[:, None] >> shifts & 1)
            yield from block
        return
    if c.kind is ClassKind.EXPLICIT_LIST:
        yield from _member_arrays(c)
        return
    raise InfiniteClassError(
        f"{c.kind.value} has infinitely many members; cannot enumerate"
    )


def identity_element(c: MatrixClass, op: BinaryOp) -> np.ndarray | None:
    """The operation's identity element if the class contains it, else
    None."""
    elem = algebra.identity_matrix_for(op, c.order)
    return elem if contains(c, elem) else None


@dataclass
class ClosureReport:
    closed: bool
    closure_counterexample: tuple[np.ndarray, np.ndarray] | None
    has_inverses: bool
    inverse_counterexample: np.ndarray | None


def closure_probe(c: MatrixClass, op: BinaryOp, trials: int,
                  rng: np.random.Generator) -> ClosureReport:
    """Randomized probe of closure and inverse-membership under the
    operation.

    Samples pairs and tests whether their composition stays in the
    class; samples members and tests whether their op-inverse (when
    computable) stays in the class.  Any violation is returned as a
    witness.  A clean report is evidence, not proof.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    closed = True
    closure_ce = None
    has_inv = True
    inv_ce = None
    for _ in range(trials):
        g1 = sample(c, rng)
        g2 = sample(c, rng)
        if closed and not contains(c, algebra.apply(op, g1, g2), 1e-7):
            closed = False
            closure_ce = (g1, g2)
        if has_inv:
            inv = algebra.op_inverse(op, g1)
            if inv is not None and not contains(c, inv, 1e-7):
                has_inv = False
                inv_ce = g1
        if not closed and not has_inv:
            break
    return ClosureReport(closed, closure_ce, has_inv, inv_ce)


def chain_memberships(d, partition: Partition, tol: float = 1e-9
                      ) -> tuple[bool, bool, bool, bool]:
    """Membership of ``d`` along the nested chain: positive block-scalar
    diagonals, positive diagonals, block-supported SPD, SPD.

    The chain is monotone: each membership implies the next.
    """
    d = as_square_matrix(d, "d")
    return (
        contains(pos_alpha_scalar(partition), d, tol),
        contains(pos_diag(d.shape[0]), d, tol),
        contains(alpha_block_spd(partition), d, tol),
        contains(spd(d.shape[0]), d, tol),
    )


def theta_ratios(d, theta) -> tuple[float, float]:
    """Smallest and largest consecutive diagonal ratio along the
    permutation.  Requires a positive diagonal ordered along theta;
    both ratios are >= 1 (up to tolerance).  Diagnostic only."""
    d = as_square_matrix(d, "d")
    n = d.shape[0]
    t = _check_perm(theta, n)
    cls = theta_ordered(t)
    if not contains(cls, d, 1e-9):
        raise NotThetaOrderedError(
            "matrix is not a positive diagonal ordered along the permutation"
        )
    vals = np.diag(d)[np.asarray(t)]
    if n == 1:
        return (1.0, 1.0)
    ratios = vals[:-1] / vals[1:]
    return (float(np.min(ratios)), float(np.max(ratios)))
