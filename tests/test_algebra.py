import numpy as np
import pytest

from dgstab.algebra import (
    ADD,
    HADAMARD,
    MUL,
    BinaryOp,
    OpKind,
    Side,
    apply,
    check_mul_distributivity,
    check_scalar_laws,
    check_spectrum_commutation,
    check_transpose_law,
    identity_matrix_for,
    is_invertible,
    law_table,
    multiset_distance,
    op_inverse,
    row_scaling,
)
from dgstab.errors import DimensionMismatchError
from dgstab.linalg import eigenvalues


def test_apply_examples():
    np.testing.assert_array_equal(apply(ADD, np.eye(2), np.eye(2)), 2 * np.eye(2))
    np.testing.assert_array_equal(
        apply(MUL, np.diag([2.0, 3.0]), [[1, 1], [0, 1]]), [[2, 2], [0, 3]]
    )
    np.testing.assert_array_equal(
        apply(HADAMARD, [[1, 2], [3, 4]], [[2, 2], [2, 2]]), [[2, 4], [6, 8]]
    )


def test_apply_right_side():
    g = np.diag([2.0, 3.0])
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(
        apply(BinaryOp(OpKind.MUL, Side.RIGHT), g, a), a @ g
    )


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(MUL, np.eye(2), np.eye(3))


def test_identity_elements():
    np.testing.assert_array_equal(identity_matrix_for(ADD, 2), np.zeros((2, 2)))
    np.testing.assert_array_equal(identity_matrix_for(MUL, 2), np.eye(2))
    np.testing.assert_array_equal(identity_matrix_for(HADAMARD, 2), np.ones((2, 2)))


def test_op_inverse():
    g = np.diag([2.0, 4.0])
    np.testing.assert_array_equal(op_inverse(ADD, g), -g)
    np.testing.assert_allclose(op_inverse(MUL, g), np.diag([0.5, 0.25]))
    np.testing.assert_allclose(op_inverse(HADAMARD, 2 * np.ones((2, 2))),
                               0.5 * np.ones((2, 2)))
    assert op_inverse(MUL, np.zeros((2, 2))) is None
    assert op_inverse(HADAMARD, np.diag([1.0, 1.0])) is None


def test_is_invertible_is_the_criterion_of_op_inverse():
    # condition numbers on both sides of 1e12, and entries on both sides
    # of 1e-12
    mats = [np.eye(2), np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([1.0, 2e-12]),
            np.diag([1.0, 5e-13]), 2 * np.ones((2, 2)), np.full((2, 2), 5e-13),
            np.array([[1.0, 2.0], [2.0, 4.0]])]
    for op in (ADD, MUL, HADAMARD):
        for g in mats:
            assert is_invertible(op, g) is (op_inverse(op, g) is not None), (op, g)
    assert is_invertible(MUL, np.diag([1.0, 2e-12]))
    assert not is_invertible(MUL, np.diag([1.0, 5e-13]))


def test_row_scaling_scales_the_rows():
    u = np.array([2.0 ** 60, 1.0, 0.25])
    a = np.random.default_rng(0).standard_normal((3, 3))
    for op in (MUL, HADAMARD):
        np.testing.assert_array_equal(apply(op, row_scaling(op, u), a), u[:, None] * a)
    right = BinaryOp(OpKind.MUL, Side.RIGHT)
    np.testing.assert_array_equal(apply(right, row_scaling(right, u), a), a * u)
    with pytest.raises(ValueError):
        row_scaling(ADD, u)


def test_multiset_distance():
    assert multiset_distance([1, 2, 3], [3, 1, 2]) == 0.0
    assert multiset_distance([1 + 1j, 0], [0, 1 + 1j]) == 0.0
    assert multiset_distance([0.0], [0.5]) == pytest.approx(0.5)


def test_spectrum_commutation_gates():
    rng = np.random.default_rng(30)
    assert check_spectrum_commutation(MUL, 100, 5, rng).max_deviation <= 1e-7
    assert check_spectrum_commutation(ADD, 50, 5, rng).max_deviation <= 1e-12
    assert check_spectrum_commutation(HADAMARD, 50, 5, rng).max_deviation <= 1e-12


def test_spectrum_commutation_survives_rank_deficiency():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        a = rng.standard_normal((4, 4))
        u = rng.standard_normal((4, 2))
        v = rng.standard_normal((2, 4))
        b = u @ v  # rank two
        d = multiset_distance(np.linalg.eigvals(a @ b), np.linalg.eigvals(b @ a))
        worst = max(worst, d)
    assert worst <= 1e-6


@pytest.mark.parametrize("op", [ADD, MUL, HADAMARD])
def test_transpose_law_exact(op):
    rng = np.random.default_rng(32)
    assert check_transpose_law(op, 200, 6, rng).max_deviation <= 1e-12


def test_scalar_laws():
    rng = np.random.default_rng(33)
    assert check_scalar_laws(MUL, 200, 5, rng)["scalar_associativity"].max_deviation \
        <= 1e-12
    assert check_scalar_laws(ADD, 200, 5, rng)["scalar_distributivity"].max_deviation \
        <= 1e-12
    rep = check_scalar_laws(ADD, 200, 5, rng)["scalar_associativity"]
    assert rep.max_deviation > 1e-3
    assert rep.witness is not None
    a, b, alpha = rep.witness
    lhs = alpha * apply(ADD, a, b)
    rhs = apply(ADD, alpha * a, b)
    assert np.linalg.norm(lhs - rhs) == pytest.approx(rep.max_deviation)


def test_mul_distributivity():
    rng = np.random.default_rng(34)
    assert check_mul_distributivity(ADD, 200, 5, rng)["mul_distributivity"] \
        .max_deviation <= 1e-12
    assert check_mul_distributivity(MUL, 200, 5, rng)["mul_associativity"] \
        .max_deviation <= 1e-12
    rep = check_mul_distributivity(HADAMARD, 200, 5, rng)["mul_distributivity"]
    assert rep.max_deviation > 1e-3 and rep.witness is not None


def test_hadamard_distributivity_fails_even_at_2x2():
    # brute search over small integer matrices finds a counterexample
    found = False
    grid = [-1.0, 0.0, 1.0, 2.0]
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    for x in grid:
        b = np.array([[1.0, x], [0.0, 1.0]])
        c = np.array([[1.0, 0.0], [x, 1.0]])
        lhs = a @ (b * c)
        rhs = (a @ b) * (a @ c)
        if np.linalg.norm(lhs - rhs) > 1e-9:
            found = True
            break
    assert found


@pytest.mark.parametrize("trials", [0, -3])
def test_law_table_needs_a_trial(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        law_table(trials, 3, np.random.default_rng(0))


#: Each law's deviation at a witness, written out from the law itself.
_DEVIATION_AT = {
    "spectrum_commutation": lambda op, a, b: multiset_distance(
        eigenvalues(apply(op, a, b)), eigenvalues(apply(op, b, a))),
    "transpose": lambda op, g, a: np.linalg.norm(apply(op, g, a).T - apply(op, a.T, g.T)),
    "scalar_associativity": lambda op, a, b, alpha: max(
        np.linalg.norm(alpha * apply(op, a, b) - apply(op, alpha * a, b)),
        np.linalg.norm(alpha * apply(op, a, b) - apply(op, a, alpha * b))),
    "scalar_distributivity": lambda op, a, b, alpha: np.linalg.norm(
        alpha * apply(op, a, b) - apply(op, alpha * a, alpha * b)),
    "mul_associativity": lambda op, a, b, c: np.linalg.norm(
        apply(op, a, b @ c) - apply(op, a @ b, c)),
    "mul_distributivity": lambda op, a, b, c: np.linalg.norm(
        a @ apply(op, b, c) - apply(op, a @ b, a @ c)),
}


@pytest.mark.parametrize("kind", list(OpKind))
def test_every_stored_witness_recomputes_its_deviation(kind):
    # a law with no witness never deviated; every other witness is the
    # draw whose deviation is the reported maximum, to the last bit
    row = law_table(50, 4, np.random.default_rng(36))[kind]
    assert set(row) == set(_DEVIATION_AT)
    for law, rep in row.items():
        if rep.witness is None:
            assert rep.max_deviation == 0.0, law
        else:
            assert _DEVIATION_AT[law](BinaryOp(kind), *rep.witness) == rep.max_deviation, law
    assert any(rep.witness is not None for rep in row.values())


def test_law_table_shape():
    rng = np.random.default_rng(35)
    table = law_table(20, 3, rng)
    assert set(table.keys()) == set(OpKind)
    for row in table.values():
        assert set(row.keys()) == {
            "spectrum_commutation",
            "transpose",
            "scalar_associativity",
            "scalar_distributivity",
            "mul_associativity",
            "mul_distributivity",
        }
