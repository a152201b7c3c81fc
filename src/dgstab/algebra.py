"""Binary matrix operations and randomized law checkers.

The three operations are addition, multiplication, and the entrywise
(Hadamard) product, each usable from the left (``G o A``) or the right
(``A o G``).  The checkers measure, over random trials, how far each
operation is from satisfying the spectral-commutation, transposition,
scalar and multiplication laws; laws that fail come back with a stored
counterexample.

Checkers are pure given their explicit random generator, so concurrent
callers should pass split generator streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linalg import as_square_matrix, eigenvalues

__all__ = [
    "OpKind",
    "Side",
    "BinaryOp",
    "ADD",
    "MUL",
    "HADAMARD",
    "apply",
    "finite_compositions",
    "finite_spectra",
    "identity_matrix_for",
    "multiset_distance",
    "LawReport",
    "check_spectrum_commutation",
    "check_transpose_law",
    "check_scalar_laws",
    "check_mul_distributivity",
    "law_table",
    "EXPECTED_LAWS",
]


class OpKind(enum.Enum):
    ADD = "add"
    MUL = "mul"
    HADAMARD = "hadamard"


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class BinaryOp:
    kind: OpKind
    side: Side = Side.LEFT


ADD = BinaryOp(OpKind.ADD)
MUL = BinaryOp(OpKind.MUL)
HADAMARD = BinaryOp(OpKind.HADAMARD)


def apply(op: BinaryOp, g, a) -> np.ndarray:
    """Evaluate ``G o A`` (left side) or ``A o G`` (right side)."""
    g = np.asarray(g, dtype=float)
    a = np.asarray(a, dtype=float)
    if g.shape[-2:] != a.shape[-2:] or g.shape[-1] != g.shape[-2]:
        raise DimensionMismatchError(
            f"operand shapes {g.shape} and {a.shape} are incompatible"
        )
    if op.kind is OpKind.ADD:
        return g + a
    if op.kind is OpKind.HADAMARD:
        return g * a
    if op.side is Side.LEFT:
        return g @ a
    return a @ g


def finite_compositions(op: BinaryOp, gs: np.ndarray, a: np.ndarray):
    """The rows of the member stack ``gs`` whose composition with ``a``
    is finite, and those compositions: a composition that overflows has
    no spectrum to test, so it is never a witness."""
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are dropped here
        comps = apply(op, gs, a)
    finite = np.isfinite(comps).all(axis=(1, 2))
    rows = np.flatnonzero(finite)
    if rows.size < len(gs):
        comps = comps[rows]
    return rows, comps


def finite_spectra(op: BinaryOp, gs: np.ndarray, a: np.ndarray):
    """``finite_compositions`` and the spectra of those compositions
    (None when no row is finite)."""
    rows, comps = finite_compositions(op, gs, a)
    return rows, np.linalg.eigvals(comps) if rows.size else None


def identity_matrix_for(op: BinaryOp, n: int) -> np.ndarray:
    """The identity element of the operation on n-by-n matrices: the
    zero matrix for addition, the identity for multiplication, the
    all-ones matrix for the entrywise product."""
    if op.kind is OpKind.ADD:
        return np.zeros((n, n))
    if op.kind is OpKind.MUL:
        return np.eye(n)
    return np.ones((n, n))


def row_scaling(op: BinaryOp, u) -> np.ndarray:
    """The matrix ``G`` with ``G o A = diag(u) A`` for every ``A``:
    ``diag(u)`` under multiplication (from the right, ``A diag(u)`` has
    the same spectrum) and ``u 1^T`` under the entrywise product.
    Addition has none."""
    u = np.asarray(u, dtype=float)
    if op.kind is OpKind.MUL:
        return np.diag(u)
    if op.kind is OpKind.HADAMARD:
        return np.repeat(u[:, None], u.size, axis=1)
    raise ValueError("addition scales no rows")


def is_invertible(op: BinaryOp, g) -> bool:
    """Whether ``op_inverse`` computes an inverse of ``g``: always under
    addition, for a condition number up to 1e12 under multiplication,
    and for no entry below 1e-12 in magnitude under the entrywise
    product."""
    g = as_square_matrix(g, "g")
    if op.kind is OpKind.ADD:
        return True
    if op.kind is OpKind.MUL:
        sv = np.linalg.svd(g, compute_uv=False)
        return bool(sv[0] != 0.0 and sv[-1] / sv[0] >= 1e-12)
    return bool(np.min(np.abs(g)) >= 1e-12)


def op_inverse(op: BinaryOp, g) -> np.ndarray | None:
    """Inverse of ``g`` with respect to the operation, or None when it
    is not computable (``is_invertible``)."""
    g = as_square_matrix(g, "g")
    if not is_invertible(op, g):
        return None
    if op.kind is OpKind.ADD:
        return -g
    if op.kind is OpKind.MUL:
        return np.linalg.inv(g)
    return 1.0 / g


def multiset_distance(w1, w2) -> float:
    """Greedy minimal-weight matching distance between two eigenvalue
    multisets: repeatedly pair the globally closest remaining values and
    return the largest paired distance.

    Greedy matching is a heuristic, adequate at the small orders
    (n <= 8) the checkers run at.
    """
    w1 = np.asarray(w1, dtype=complex).ravel()
    w2 = np.asarray(w2, dtype=complex).ravel()
    if w1.size != w2.size:
        raise ValueError("multisets must have equal cardinality")
    dist = np.abs(w1[:, None] - w2[None, :])
    worst = 0.0
    for _ in range(w1.size):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        worst = max(worst, float(dist[i, j]))
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return worst


@dataclass
class LawReport:
    """Largest deviation observed for one law, with the worst witness."""

    max_deviation: float
    witness: tuple | None = None

    def holds(self, gate: float = 1e-10) -> bool:
        return self.max_deviation <= gate


def _random_pair(rng: np.random.Generator, n: int):
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _norm(x) -> float:
    return float(np.linalg.norm(x))


def _worst(trials: int, draw, deviations) -> dict[str, LawReport]:
    """The largest deviation of each law over ``trials`` draws, with the
    draw that gave it: ``draw()`` returns a witness tuple, and
    ``deviations[law](*witness)`` measures the law on it."""
    worst = {law: LawReport(0.0) for law in deviations}
    for _ in range(trials):
        w = draw()
        for law, deviation in deviations.items():
            d = deviation(*w)
            if d > worst[law].max_deviation:
                worst[law] = LawReport(d, w)
    return worst


def check_spectrum_commutation(op: BinaryOp, trials: int, n: int,
                               rng: np.random.Generator) -> LawReport:
    """Largest matched-multiset distance between the spectra of
    ``A o B`` and ``B o A`` over random trials."""
    return _worst(trials, lambda: _random_pair(rng, n), {
        "spectrum_commutation": lambda a, b: multiset_distance(
            eigenvalues(apply(op, a, b)), eigenvalues(apply(op, b, a))),
    })["spectrum_commutation"]


def check_transpose_law(op: BinaryOp, trials: int, n: int,
                        rng: np.random.Generator) -> LawReport:
    """Frobenius deviation of ``(G o A)^T`` from ``A^T o G^T``."""
    return _worst(trials, lambda: _random_pair(rng, n), {
        "transpose": lambda g, a: _norm(apply(op, g, a).T - apply(op, a.T, g.T)),
    })["transpose"]


def check_scalar_laws(op: BinaryOp, trials: int, n: int,
                      rng: np.random.Generator) -> dict[str, LawReport]:
    """Deviations for the two scalar rules.

    ``scalar_associativity``: alpha (A o B) = (alpha A) o B = A o (alpha B)
    (holds for multiplication and the entrywise product);
    ``scalar_distributivity``: alpha (A o B) = (alpha A) o (alpha B)
    (holds for addition).
    """
    return _worst(trials, lambda: (*_random_pair(rng, n), float(rng.uniform(-2.0, 2.0))), {
        "scalar_associativity": lambda a, b, alpha: max(
            _norm(alpha * apply(op, a, b) - apply(op, alpha * a, b)),
            _norm(alpha * apply(op, a, b) - apply(op, a, alpha * b))),
        "scalar_distributivity": lambda a, b, alpha: _norm(
            alpha * apply(op, a, b) - apply(op, alpha * a, alpha * b)),
    })


def check_mul_distributivity(op: BinaryOp, trials: int, n: int,
                             rng: np.random.Generator) -> dict[str, LawReport]:
    """Deviations for the two rules tying the operation to matrix
    multiplication.

    ``mul_associativity``: A o (B C) = (A B) o C (holds when o is
    multiplication); ``mul_distributivity``: A (B o C) = (A B) o (A C)
    (holds when o is addition).
    """
    return _worst(trials, lambda: (*_random_pair(rng, n), rng.standard_normal((n, n))), {
        "mul_associativity": lambda a, b, c: _norm(apply(op, a, b @ c) - apply(op, a @ b, c)),
        "mul_distributivity": lambda a, b, c: _norm(
            a @ apply(op, b, c) - apply(op, a @ b, a @ c)),
    })


#: Which (law, op) cells are expected to hold, and at which deviation
#: gate.  Spectrum commutation under multiplication is gated separately:
#: the identity is exact but the matched-eigenvalue comparison carries
#: eigensolver noise.
EXPECTED_LAWS: dict[str, dict[OpKind, bool]] = {
    "spectrum_commutation": {OpKind.ADD: True, OpKind.MUL: True, OpKind.HADAMARD: True},
    "transpose": {OpKind.ADD: True, OpKind.MUL: True, OpKind.HADAMARD: True},
    "scalar_associativity": {OpKind.ADD: False, OpKind.MUL: True, OpKind.HADAMARD: True},
    "scalar_distributivity": {OpKind.ADD: True, OpKind.MUL: False, OpKind.HADAMARD: False},
    "mul_associativity": {OpKind.ADD: False, OpKind.MUL: True, OpKind.HADAMARD: False},
    "mul_distributivity": {OpKind.ADD: True, OpKind.MUL: False, OpKind.HADAMARD: False},
}

LAW_GATES: dict[str, dict[OpKind, float]] = {
    "spectrum_commutation": {OpKind.ADD: 1e-10, OpKind.MUL: 1e-6, OpKind.HADAMARD: 1e-10},
}


def law_gate(law: str, kind: OpKind) -> float:
    return LAW_GATES.get(law, {}).get(kind, 1e-10)


def law_table(trials: int, n: int, rng: np.random.Generator
              ) -> dict[OpKind, dict[str, LawReport]]:
    """Full deviation table over the three operations; ``trials`` must be
    at least 1, since no trial shows no deviation."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    table: dict[OpKind, dict[str, LawReport]] = {}
    for kind in OpKind:
        op = BinaryOp(kind)
        row = {"spectrum_commutation": check_spectrum_commutation(op, trials, n, rng),
               "transpose": check_transpose_law(op, trials, n, rng)}
        row.update(check_scalar_laws(op, trials, n, rng))
        row.update(check_mul_distributivity(op, trials, n, rng))
        table[kind] = row
    return table
