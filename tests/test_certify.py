import numpy as np
import pytest

from dgstab import classes, regions
from dgstab.algebra import OpKind
from dgstab.certify import (
    CertKind,
    Certificate,
    find_diagonal_lyapunov,
    find_stein_diagonal,
    find_structured_lyapunov,
    identity_witness_class,
    implied_stabilities,
    verify_certificate,
)
from dgstab.classes import ClassKind, Partition
from dgstab.errors import UnsupportedClassError
from dgstab.linalg import case_iii_coefficients


def rng(seed=0):
    return np.random.default_rng(seed)


def test_diagonal_search_identity():
    rep = find_diagonal_lyapunov(np.eye(2), rng=rng())
    assert rep.found
    np.testing.assert_allclose(rep.certificate.witness, np.eye(2), atol=1e-6)
    assert rep.certificate.min_eig == pytest.approx(2.0, rel=1e-5)


def test_diagonal_search_jordan_block():
    # D A + A^T D = [[2 d1, 3 d1], [3 d1, 2 d2]]: definite iff 4 d1 d2 > 9 d1^2
    rep = find_diagonal_lyapunov(np.array([[1.0, 3.0], [0.0, 1.0]]), rng=rng())
    assert rep.found
    d = np.diag(rep.certificate.witness)
    assert 4 * d[0] * d[1] > 9 * d[0] ** 2
    assert verify_certificate(rep.certificate, [[1.0, 3.0], [0.0, 1.0]])


def test_diagonal_search_rotation_never_found():
    # the form has zero diagonal for every D, so it is never definite
    rep = find_diagonal_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), rng=rng())
    assert not rep.found
    assert rep.best_min_eig <= 0.0


def test_stein_search_examples():
    rep = find_stein_diagonal(0.5 * np.eye(2), rng=rng())
    assert rep.found
    assert verify_certificate(rep.certificate, 0.5 * np.eye(2))

    rep = find_stein_diagonal(np.eye(2), rng=rng())
    assert not rep.found  # the form is identically zero

    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    # direct algebra: form = diag(d1, d2 - 4 d1); d = (0.2, 1.8) works
    rep = find_stein_diagonal(a, rng=rng())
    assert rep.found
    d = np.diag(rep.certificate.witness)
    assert d[1] > 4 * d[0]


def test_structured_identity_cases():
    a = np.array([[2.0, 1.0], [-1.0, 2.0]])
    rep = find_structured_lyapunov(a, identity_witness_class(2), rng=rng())
    assert rep.found and rep.certificate.kind is CertKind.IDENTITY_LYAPUNOV
    np.testing.assert_array_equal(
        rep.certificate.witness + rep.certificate.witness, 2 * np.eye(2)
    )

    # A + A^T = [[2,3],[3,2]] has eigenvalues 5, -1
    rep = find_structured_lyapunov(
        np.array([[1.0, 3.0], [0.0, 1.0]]), identity_witness_class(2), rng=rng()
    )
    assert not rep.found
    assert rep.best_min_eig == pytest.approx(-1.0, abs=1e-9)


def test_structured_alpha_scalar():
    part = Partition.from_sizes([2])
    rep = find_structured_lyapunov(
        np.eye(2), classes.pos_alpha_scalar(part), rng=rng()
    )
    assert rep.found and rep.certificate.kind is CertKind.ALPHA_SCALAR_LYAPUNOV
    assert classes.contains(classes.pos_alpha_scalar(part), rep.certificate.witness)


def test_structured_block_spd():
    part = Partition.from_sizes([2, 1])
    a = np.array([[1.0, -0.5, 0.0], [0.8, 1.2, 0.1], [0.0, -0.2, 0.9]])
    rep = find_structured_lyapunov(a, classes.alpha_block_spd(part), rng=rng())
    if rep.found:
        assert verify_certificate(rep.certificate, a)
        assert classes.contains(
            classes.alpha_block_spd(part), rep.certificate.witness
        )


def test_structured_searches_recover_constructed_witnesses():
    # matrices built inside a structured certified cone: the search
    # must find some witness of that structure (not necessarily ours)
    r = rng(8)
    part4 = Partition.from_sizes([2, 2])
    part3 = Partition.from_sizes([2, 1])
    for trial in range(10):
        h = np.zeros((4, 4))
        for b in part4.blocks:
            sel = np.asarray(b)
            g = r.standard_normal((2, 2))
            h[np.ix_(sel, sel)] = g @ g.T + 0.5 * np.eye(2)
        b = r.standard_normal((4, 4))
        w = b @ b.T + 0.5 * np.eye(4)
        k = r.standard_normal((4, 4))
        a = np.linalg.solve(h, 0.5 * w + (k - k.T))
        rep = find_structured_lyapunov(
            a, classes.alpha_block_spd(part4), rng=rng(trial)
        )
        assert rep.found and verify_certificate(rep.certificate, a)

        d = np.diag([2.0, 2.0, 0.5])
        b = r.standard_normal((3, 3))
        w = b @ b.T + 0.5 * np.eye(3)
        k = r.standard_normal((3, 3))
        a = np.linalg.solve(d, 0.5 * w + (k - k.T))
        rep = find_structured_lyapunov(
            a, classes.pos_alpha_scalar(part3), rng=rng(trial)
        )
        assert rep.found and verify_certificate(rep.certificate, a)


def test_structured_rejects_unsupported_class():
    with pytest.raises(UnsupportedClassError):
        find_structured_lyapunov(np.eye(2), classes.pos_diag(2), rng=rng())


def test_verify_certificate_examples():
    cert = Certificate(CertKind.DIAGONAL_LYAPUNOV, np.eye(2), 2.0)
    assert verify_certificate(cert, np.eye(2))
    assert not verify_certificate(cert, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    hill_cert = Certificate(
        CertKind.HILL,
        np.eye(2),
        0.75,
        coeffs=tuple(map(tuple, case_iii_coefficients())),
    )
    assert verify_certificate(hill_cert, 0.5 * np.eye(2))
    assert not verify_certificate(hill_cert, np.eye(2))


def test_verify_symmetric_indefinite_certificate():
    # a hyperbolic matrix admits an indefinite symmetric witness: the
    # form diag(2, 2) is definite even though H = diag(1, -1) is not
    a = np.diag([1.0, -1.0])
    h = np.diag([1.0, -1.0])
    cert = Certificate(CertKind.SYMMETRIC_INDEFINITE, h, 2.0)
    assert verify_certificate(cert, a)
    assert implied_stabilities(cert) == []
    # eigenvalue counts of witness and target match (half-plane split)
    assert np.sum(np.linalg.eigvalsh(h) > 0) == np.sum(np.linalg.eigvals(a).real > 0)

    # the rotation matrix has imaginary eigenvalues: no symmetric
    # witness can make the form definite
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert not verify_certificate(cert, rot)


def test_verify_rejects_wrong_witness_structure():
    cert = Certificate(CertKind.DIAGONAL_LYAPUNOV, np.array([[1.0, 0.5], [0.5, 1.0]]),
                       1.0)
    assert not verify_certificate(cert, np.eye(2))


def test_implied_stabilities_contents():
    cert = Certificate(CertKind.DIAGONAL_LYAPUNOV, np.eye(2), 2.0)
    triples = implied_stabilities(cert)
    kinds = {(r.kind, c.kind, o.kind) for r, c, o in triples}
    assert (regions.RegionKind.RIGHT_HALF_PLANE, ClassKind.POS_DIAG,
            OpKind.MUL) in kinds
    assert (regions.RegionKind.RIGHT_HALF_PLANE, ClassKind.POS_DIAG,
            OpKind.ADD) in kinds

    ident = Certificate(CertKind.IDENTITY_LYAPUNOV, np.eye(2), 1.0)
    kinds = {(r.kind, c.kind, o.kind) for r, c, o in implied_stabilities(ident)}
    assert (regions.RegionKind.RIGHT_HALF_PLANE, ClassKind.SPD, OpKind.MUL) in kinds

    stein = Certificate(CertKind.STEIN_DIAGONAL, np.eye(2), 0.5)
    kinds = {(r.kind, c.kind, o.kind) for r, c, o in implied_stabilities(stein)}
    assert (regions.RegionKind.UNIT_DISK, ClassKind.VERTEX_DIAG, OpKind.MUL) in kinds
    assert (regions.RegionKind.UNIT_DISK, ClassKind.BOX_DIAG, OpKind.MUL) in kinds

    hill = Certificate(CertKind.HILL, np.eye(2), 1.0,
                       coeffs=((1.0, 0.0), (0.0, -1.0)))
    assert implied_stabilities(hill) == []


def test_found_certificates_always_verify():
    r = rng(40)
    for _ in range(20):
        n = int(r.integers(2, 5))
        d = np.diag(10.0 ** r.uniform(-1, 1, n))
        w = r.standard_normal((n, n))
        w = w @ w.T + 0.5 * np.eye(n)
        k = r.standard_normal((n, n))
        k = k - k.T
        # D a + a^T D = w by construction
        a = np.linalg.solve(d, 0.5 * w + k)
        rep = find_diagonal_lyapunov(a, rng=r)
        assert rep.found
        assert verify_certificate(rep.certificate, a)


def test_search_found_is_scale_invariant():
    r = rng(41)
    for _ in range(10):
        a = r.standard_normal((3, 3)) + 2.0 * np.eye(3)
        rep1 = find_diagonal_lyapunov(a, rng=rng(7))
        rep2 = find_diagonal_lyapunov(2.0 * a, rng=rng(7))
        rep3 = find_diagonal_lyapunov(0.125 * a, rng=rng(7))
        assert rep1.found == rep2.found == rep3.found


def test_sufficiency_under_full_budget_sampling():
    # scaled-down companion to the acceptance check: fewer matrices per
    # kind, but the falsifier gets its full 10^4 budget on each implied
    # triple of each matrix
    import sys
    sys.path.insert(0, "tests")
    from test_acceptance import _certified_instance

    from dgstab.engine import Query, VerdictStatus, falsify

    r = rng(43)
    for kind in (CertKind.DIAGONAL_LYAPUNOV, CertKind.ALPHA_SCALAR_LYAPUNOV,
                 CertKind.BLOCK_LYAPUNOV, CertKind.IDENTITY_LYAPUNOV,
                 CertKind.STEIN_DIAGONAL):
        for _ in range(10):
            a, cert = _certified_instance(r, kind)
            assert verify_certificate(cert, a)
            for region, cls, op in implied_stabilities(cert):
                q = Query(a, region, cls, op, budget=10_000,
                          seed=int(r.integers(1 << 30)))
                assert falsify(q).status is not VerdictStatus.REFUTED, kind


def test_not_found_is_inconclusive_for_stable_matrices():
    # A is stable for every positive diagonal scaling, yet no diagonal
    # witness exists: the (1,1) entry of the form is identically zero.
    a = np.array([[0.0, 1.0], [-1.0, 1.0]])
    rep = find_diagonal_lyapunov(a, rng=rng())
    assert not rep.found
    # verify directly that every positive diagonal keeps it stable:
    # trace(D A) = d2 > 0 and det(D A) = d1 d2 > 0 for all d > 0.
    r = rng(42)
    for _ in range(200):
        d = 10.0 ** r.uniform(-3, 3, 2)
        m = np.diag(d) @ a
        w = np.linalg.eigvals(m)
        assert np.all(w.real > 0)


def test_diagonal_search_is_the_singleton_block_scalar_search():
    r = rng(5)
    outcomes = set()
    for n in (2, 3, 5):
        singletons = classes.pos_alpha_scalar(Partition.from_sizes([1] * n))
        for s in range(3):
            a = r.standard_normal((n, n)) + 2.0 * s * np.eye(n)
            rep_d = find_diagonal_lyapunov(a, 2000, rng(s))
            rep_s = find_structured_lyapunov(a, singletons, 2000, rng(s))
            assert rep_d.found == rep_s.found
            assert rep_d.iterations == rep_s.iterations
            assert rep_d.best_min_eig == rep_s.best_min_eig
            if rep_d.found:
                assert rep_d.certificate.witness.tobytes() == \
                    rep_s.certificate.witness.tobytes()
            outcomes.add(rep_d.found)
    assert outcomes == {True, False}


def test_verify_rejects_a_form_that_overflows():
    # D A + A^T D overflows to inf, which the definiteness test rejects
    # with a ValueError (non-finite entries)
    cert = Certificate(CertKind.DIAGONAL_LYAPUNOV, np.diag([1e308, 1e308]), 1.0)
    with np.errstate(over="ignore"):
        assert verify_certificate(cert, 10.0 * np.eye(2)) is False
