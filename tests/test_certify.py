import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
import reference_2d

from dgstab import algebra, certify, classes, regions
from dgstab.algebra import ADD, HADAMARD, MUL, BinaryOp, OpKind, Side
from dgstab.certify import (
    _paired,
    CertKind,
    Certificate,
    certified_form,
    find_diagonal_lyapunov,
    find_stein_diagonal,
    find_structured_lyapunov,
    identity_witness_class,
    implied_stabilities,
    proves,
    restrict_certificate,
    verify_certificate,
)
from dgstab.classes import ClassKind, Partition
from dgstab.engine import Query, VerdictStatus, decide, restrict_class
from dgstab.errors import NonSymmetricError, UnsupportedClassError
from dgstab.linalg import case_iii_coefficients, principal_submatrix


def rng(seed=0):
    return np.random.default_rng(seed)


def test_diagonal_search_identity():
    rep = find_diagonal_lyapunov(np.eye(2))
    assert rep.found
    np.testing.assert_allclose(rep.certificate.witness, np.eye(2), atol=1e-6)
    assert rep.certificate.min_eig == pytest.approx(2.0, rel=1e-5)


def test_diagonal_search_jordan_block():
    # D A + A^T D = [[2 d1, 3 d1], [3 d1, 2 d2]]: definite iff 4 d1 d2 > 9 d1^2
    rep = find_diagonal_lyapunov(np.array([[1.0, 3.0], [0.0, 1.0]]))
    assert rep.found
    d = np.diag(rep.certificate.witness)
    assert 4 * d[0] * d[1] > 9 * d[0] ** 2
    assert verify_certificate(rep.certificate, [[1.0, 3.0], [0.0, 1.0]])


def test_diagonal_search_rotation_never_found():
    # the form has zero diagonal for every D, so it is never definite
    rep = find_diagonal_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not rep.found
    assert rep.best_min_eig <= 0.0


def test_stein_search_examples():
    rep = find_stein_diagonal(0.5 * np.eye(2))
    assert rep.found
    assert verify_certificate(rep.certificate, 0.5 * np.eye(2))

    rep = find_stein_diagonal(np.eye(2))
    assert not rep.found  # the form is identically zero

    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    # direct algebra: form = diag(d1, d2 - 4 d1); d = (0.2, 1.8) works
    rep = find_stein_diagonal(a)
    assert rep.found
    d = np.diag(rep.certificate.witness)
    assert d[1] > 4 * d[0]


def test_structured_identity_cases():
    a = np.array([[2.0, 1.0], [-1.0, 2.0]])
    rep = find_structured_lyapunov(a, identity_witness_class(2))
    assert rep.found and rep.certificate.kind is CertKind.IDENTITY_LYAPUNOV
    np.testing.assert_array_equal(
        rep.certificate.witness + rep.certificate.witness, 2 * np.eye(2)
    )

    # A + A^T = [[2,3],[3,2]] has eigenvalues 5, -1
    rep = find_structured_lyapunov(
        np.array([[1.0, 3.0], [0.0, 1.0]]), identity_witness_class(2)
    )
    assert not rep.found
    assert rep.best_min_eig == pytest.approx(-1.0, abs=1e-9)


def test_structured_alpha_scalar():
    part = Partition.from_sizes([2])
    rep = find_structured_lyapunov(
        np.eye(2), classes.pos_alpha_scalar(part)
    )
    assert rep.found and rep.certificate.kind is CertKind.ALPHA_SCALAR_LYAPUNOV
    assert classes.contains(classes.pos_alpha_scalar(part), rep.certificate.witness)


def test_structured_block_spd():
    part = Partition.from_sizes([2, 1])
    a = np.array([[1.0, -0.5, 0.0], [0.8, 1.2, 0.1], [0.0, -0.2, 0.9]])
    rep = find_structured_lyapunov(a, classes.alpha_block_spd(part))
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
            a, classes.alpha_block_spd(part4)
        )
        assert rep.found and verify_certificate(rep.certificate, a)

        d = np.diag([2.0, 2.0, 0.5])
        b = r.standard_normal((3, 3))
        w = b @ b.T + 0.5 * np.eye(3)
        k = r.standard_normal((3, 3))
        a = np.linalg.solve(d, 0.5 * w + (k - k.T))
        rep = find_structured_lyapunov(
            a, classes.pos_alpha_scalar(part3)
        )
        assert rep.found and verify_certificate(rep.certificate, a)


def test_structured_rejects_unsupported_class():
    with pytest.raises(UnsupportedClassError):
        find_structured_lyapunov(np.eye(2), classes.pos_diag(2))


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


def test_exhaustive_certificates_verify_only_over_finite_classes():
    # a sign-pattern class holds I, whose product with A is stable, yet
    # diag(d, 1) destabilizes A for d > 3
    a = np.array([[-1.0, 2.0], [-4.0, 3.0]])
    rhp = regions.right_half_plane()
    for cls, members, ok in ((classes.sign_diag([1, 1]), 1, False),
                             (classes.explicit_list([np.eye(2), 2.0 * np.eye(2)]), 2, True)):
        cert = Certificate(CertKind.EXHAUSTIVE, None, 0.0, triple=(rhp, cls, MUL),
                           members_checked=members)
        assert verify_certificate(cert, a) is ok, cls.kind


def test_proves_asks_for_the_query_triple():
    # a Stein certificate proves (disk, box, MUL); it verifies at -A too,
    # where it proves nothing about the additive triple
    a = np.array([[0.3, 0.2], [0.0, 0.4]])
    cert = find_stein_diagonal(a).certificate
    disk, box = regions.unit_disk(), classes.box_diag([-1, -1], [1, 1])
    proof = proves(cert, a, disk, box, MUL)
    assert proof is not None and proof.kind is cert.kind
    np.testing.assert_array_equal(proof.witness, cert.witness)
    # the returned certificate reports its form at the query's matrix
    assert proof.min_eig == np.linalg.eigvalsh(certified_form(cert, a))[0]
    assert verify_certificate(cert, -a)
    assert proves(cert, -a, disk, box, ADD) is None
    assert proves(cert, a, regions.right_half_plane(), box, MUL) is None
    assert proves(cert, 3.0 * a, disk, box, MUL) is None


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


def test_verify_rejects_a_non_finite_witness():
    # it used to raise ValueError from the membership test
    for w in (np.diag([1.0, np.nan]), np.diag([np.inf, 1.0])):
        assert not verify_certificate(Certificate(CertKind.DIAGONAL_LYAPUNOV, w, 1.0),
                                      np.eye(2))


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
        rep = find_diagonal_lyapunov(a)
        assert rep.found
        assert verify_certificate(rep.certificate, a)


def test_search_found_is_scale_invariant():
    r = rng(41)
    for _ in range(10):
        a = r.standard_normal((3, 3)) + 2.0 * np.eye(3)
        rep1 = find_diagonal_lyapunov(a)
        rep2 = find_diagonal_lyapunov(2.0 * a)
        rep3 = find_diagonal_lyapunov(0.125 * a)
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
    rep = find_diagonal_lyapunov(a)
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
            rep_d = find_diagonal_lyapunov(a)
            rep_s = find_structured_lyapunov(a, singletons)
            assert rep_d.found == rep_s.found
            assert rep_d.iterations == rep_s.iterations
            assert rep_d.best_min_eig == rep_s.best_min_eig
            if rep_d.found:
                assert rep_d.certificate.witness.tobytes() == \
                    rep_s.certificate.witness.tobytes()
            outcomes.add((rep_d.found, rep_d.iterations > 0))
    assert outcomes == {(True, False), (True, True), (False, True)}


def test_verify_rejects_a_form_that_overflows():
    # D A + A^T D overflows to inf, which the definiteness test rejects
    # with a ValueError (non-finite entries)
    cert = Certificate(CertKind.DIAGONAL_LYAPUNOV, np.diag([1e308, 1e308]), 1.0)
    with np.errstate(over="ignore"):
        assert verify_certificate(cert, 10.0 * np.eye(2)) is False


def test_verify_rejects_a_polynomial_form_that_overflows():
    # H - A^T H A overflows; the polynomial form raises OverflowError,
    # which verification turns into a rejection like any other overflow
    cert = Certificate(CertKind.HILL, np.diag([1e200, 1e200]), 1.0,
                       coeffs=tuple(map(tuple, case_iii_coefficients())))
    assert verify_certificate(cert, 1e60 * np.eye(2)) is False


def test_verify_rejects_a_false_certificate_near_the_float_limit():
    # A = diag(1, -1) is not positive stable; its form D A + A^T D =
    # diag(1e308, -1e308) is finite but indefinite
    cert = Certificate(CertKind.DIAGONAL_LYAPUNOV, np.diag([5e307, 5e307]), 1.0)
    assert verify_certificate(cert, np.diag([1.0, -1.0])) is False


def test_verify_keeps_overflow_warnings_inside():
    cert = Certificate(CertKind.DIAGONAL_LYAPUNOV, np.diag([1e308, 1e308]), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_certificate(cert, 10.0 * np.eye(2)) is False


# -- the barrier search on every searched form ------------------------------


def _continuous_stable(seed, h, eps):
    """``a`` with ``h a + a^T h = w + eps I`` for a random PSD ``w``: the
    witness ``h`` certifies it, and is harder to find for a smaller
    eps or a more spread ``h``."""
    r = rng(seed)
    n = h.shape[0]
    w = r.standard_normal((n, n))
    k = r.standard_normal((n, n))
    return np.linalg.solve(h, 0.5 * (w @ w.T / n + eps * np.eye(n)) + (k - k.T))


def _spread_diag(seed, sizes, spread):
    return np.diag(np.repeat(10.0 ** rng(seed).uniform(-spread, spread, len(sizes)),
                             sizes))


def _discrete_stable(seed, n, spread, norm):
    """``d^-1/2 b d^1/2`` with ``||b||_2 = norm < 1``: the diagonal ``d``
    certifies the Stein form."""
    b = rng(seed).standard_normal((n, n))
    s = np.sqrt(np.diag(_spread_diag(seed, [1] * n, spread)))
    return norm * b / np.linalg.norm(b, 2) * s / s[:, None]


def _search_cases():
    """(name, A, search()) triples for every searched form:
    certificates at ``P = I``, certificates that take Newton steps, and
    failed searches."""
    cases = []
    for name, a in (
        ("n=1", rng(1).standard_normal((1, 1))),
        ("n=2", _continuous_stable(0, _spread_diag(0, [1, 1], 2.0), 1e-3)),
        ("n=3", _continuous_stable(0, _spread_diag(0, [1] * 3, 2.0), 1e-2)),
        ("n=3 gaussian", rng(3).standard_normal((3, 3))),
        ("n=5", _continuous_stable(11, _spread_diag(11, [1] * 5, 2.0), 1e-2)),
        ("n=8", _continuous_stable(3, _spread_diag(3, [1] * 8, 1.0), 1e-2)),
    ):
        cases.append((f"diagonal {name}", a,
                      lambda a=a: find_diagonal_lyapunov(a)))
    for n in (1, 2, 3, 5, 8):
        a = _discrete_stable(n, n, 1.0, 0.98)
        cases.append((f"stein n={n}", a, lambda a=a: find_stein_diagonal(a)))
    g = rng(5).standard_normal((5, 5))
    a = 0.95 * g / max(np.abs(np.linalg.eigvals(g)))
    cases.append(("stein n=5 gaussian", a, lambda a=a: find_stein_diagonal(a)))
    # a form of scale 1e4: the search starts at the form's own scale
    g = rng(7).standard_normal((7, 7))
    a = 70.0 * g / max(np.abs(np.linalg.eigvals(g)))
    cases.append(("stein n=7 radius 70", a, lambda a=a: find_stein_diagonal(a)))
    sizes = [2, 1, 2]
    m = rng(4).standard_normal((5, 5))
    block_spd = np.zeros((5, 5))
    for sel in Partition.from_sizes(sizes).blocks:
        block_spd[np.ix_(sel, sel)] = (m @ m.T)[np.ix_(sel, sel)]
    for cls, a in (
        ("alpha_scalar", _continuous_stable(4, _spread_diag(4, sizes, 1.5), 1e-2)),
        ("alpha_scalar", rng(6).standard_normal((5, 5)) + np.eye(5)),
        ("block_spd", _continuous_stable(4, block_spd, 1e-2)),
        ("block_spd", rng(5).standard_normal((5, 5))),
    ):
        witnesses = classes.pos_alpha_scalar if cls == "alpha_scalar" \
            else classes.alpha_block_spd
        cases.append((f"{cls} {len(cases)}", a,
                      lambda a=a, c=witnesses(Partition.from_sizes(sizes)):
                      find_structured_lyapunov(a, c)))
    return cases


#: The certificate kind of each ``_search_cases`` name's first word.
_CASE_KINDS = {"diagonal": CertKind.DIAGONAL_LYAPUNOV, "stein": CertKind.STEIN_DIAGONAL,
               "alpha_scalar": CertKind.ALPHA_SCALAR_LYAPUNOV,
               "block_spd": CertKind.BLOCK_LYAPUNOV}


def test_found_certificates_of_every_form_verify():
    outcomes = set()
    for name, a, search in _search_cases():
        kind = _CASE_KINDS[name.split()[0]]
        start = np.linalg.eigvalsh(certified_form(Certificate(kind, np.eye(len(a)), 1.0), a))[0]
        rep = search()
        assert type(rep.iterations) is int and rep.iterations >= 0, name
        if rep.found:
            assert verify_certificate(rep.certificate, a), name
            assert rep.best_min_eig == rep.certificate.min_eig > 0.0, name
            assert np.trace(rep.certificate.witness) == pytest.approx(len(a)), name
        else:
            assert rep.certificate is None and rep.best_min_eig <= 0.0, name
            assert rep.best_min_eig > start, name  # the steps improve on P = I
        outcomes.add((name.split()[0], rep.found, rep.iterations > 0))
    kinds = tuple(_CASE_KINDS)
    # every form certifies after Newton steps and fails after them
    assert outcomes >= {(kind, found, True) for kind in kinds for found in (True, False)}
    # certificates at P = I take no step
    assert outcomes >= {(kind, True, False) for kind in ("diagonal", "stein")}


def test_every_search_stops_by_its_own_rule_within_100_steps():
    # at a certificate or a closed duality gap, far below the _MAX_STEPS
    # guard: the largest count here is 66
    assert certify._MAX_STEPS > 100
    for name, _, search in _search_cases():
        assert search().iterations <= 100, name


def test_a_capped_search_stops_at_its_cap():
    # max_steps ends a Stein search that would take more Newton steps,
    # not found; one that stops by its own rule within the cap returns
    # its own report
    capped = 0
    for name, a, _ in _search_cases():
        if name.split()[0] != "stein":
            continue
        full = find_stein_diagonal(a)
        for cap in (0, 3, full.iterations):
            rep = find_stein_diagonal(a, cap)
            if cap < full.iterations:
                assert (rep.found, rep.certificate, rep.iterations) == (False, None, cap), name
                capped += 1
                continue
            assert (rep.found, rep.iterations, rep.best_min_eig) == (
                full.found, full.iterations, full.best_min_eig), name
            if full.found:
                np.testing.assert_array_equal(rep.certificate.witness, full.certificate.witness)
    assert capped > 0


def test_the_search_certifies_constructed_matrices_at_n32():
    # D A + A^T D = W by construction, with D spread over two decades
    r = rng(32)
    for _ in range(4):
        b = r.standard_normal((32, 32))
        k = r.standard_normal((32, 32))
        d = 10.0 ** r.uniform(-1.0, 1.0, 32)
        a = np.linalg.solve(np.diag(d), 0.5 * (b @ b.T + 0.5 * np.eye(32)) + (k - k.T))
        rep = find_diagonal_lyapunov(a)
        assert rep.found and rep.iterations > 0
        assert verify_certificate(rep.certificate, a)


def test_the_search_ends_near_the_best_value_when_none_exists():
    # a P-matrix that is not D-stable: no diagonal certificate exists,
    # and the search stops at its duality gap near the optimum, -0.0227
    a = np.array([[1.768, 2.375, 0.143], [-2.455, 3.06, -1.134],
                  [-3.792, -0.438, 0.173]])
    rep = find_diagonal_lyapunov(a)
    assert not rep.found
    assert -0.025 < rep.best_min_eig < 0.0
    assert 0 < rep.iterations <= 100


def test_the_search_takes_edge_inputs_without_a_warning():
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    graded = np.diag([1e-3, 1.0, 1e3]) @ (rng(7).standard_normal((3, 3)) + 2.0 * np.eye(3))
    spread = 10.0 ** rng(8).uniform(-3.0, 3.0, (4, 4)) * rng(9).choice([-1.0, 1.0], (4, 4))
    whole = Partition.from_sizes([2, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (np.array([[2.0]]), np.array([[-1.0]]), np.zeros((1, 1)), singular,
                  graded, spread, np.ones((3, 3)), -np.eye(3)):
            n = a.shape[0]
            reports = [find_diagonal_lyapunov(a), find_stein_diagonal(a)]
            if n == 3:
                reports += [find_structured_lyapunov(a, c(whole)) for c in (
                    classes.pos_alpha_scalar, classes.alpha_block_spd)]
            for rep in reports:
                assert isinstance(rep, certify.CertReport)
                assert not rep.found or verify_certificate(rep.certificate, a)
        # near the float limit: ||A||_F once overflowed while squaring,
        # and the Stein form at P = I overflows
        huge = np.diag([1e200, 1e200])
        rep = find_diagonal_lyapunov(huge)
        assert rep.found and rep.iterations == 0 and verify_certificate(rep.certificate, huge)
        assert rep.best_min_eig == 2e200
        # a form that overflows at P = I: not found, with no finite best
        top = np.diag([1e308, 1e308])
        for rep in (find_stein_diagonal(huge), find_diagonal_lyapunov(top),
                    find_structured_lyapunov(top, identity_witness_class(2))):
            assert (rep.found, rep.certificate, rep.best_min_eig) == (False, None, -np.inf)


# ---------------------------------------------------------------------------
# the pairing table against the hand-written dispatch it replaced, kept
# here verbatim (module references qualified) as the reference


def _reference_certificate_search(q):
    """Dispatch to the certificate search matching the query triple, if
    any sufficiency theorem applies."""
    import dgstab.certify as certify
    from dgstab.algebra import ADD, MUL, OpKind

    def _box_within_unit(cls):
        return all(l >= -1.0 for l in cls.lo) and all(h <= 1.0 for h in cls.hi)

    rk, ck = q.region.kind, q.cls.kind
    n = q.a.shape[0]
    if rk is regions.RegionKind.RIGHT_HALF_PLANE and q.op.kind in (
        OpKind.ADD,
        OpKind.MUL,
    ):
        if ck is ClassKind.POS_DIAG:
            return certify.find_diagonal_lyapunov(q.a)
        if ck is ClassKind.ALPHA_BLOCK_SPD:
            return certify.find_structured_lyapunov(
                q.a, classes.pos_alpha_scalar(q.cls.partition)
            )
        if ck is ClassKind.POS_ALPHA_SCALAR:
            return certify.find_structured_lyapunov(
                q.a, classes.alpha_block_spd(q.cls.partition)
            )
        if ck is ClassKind.SPD:
            return certify.find_structured_lyapunov(
                q.a, certify.identity_witness_class(n)
            )
    if (
        rk is regions.RegionKind.UNIT_DISK
        and q.op.kind is OpKind.MUL
        and (
            ck is ClassKind.VERTEX_DIAG
            or (ck is ClassKind.BOX_DIAG and _box_within_unit(q.cls))
        )
    ):
        return certify.find_stein_diagonal(q.a)
    return None


def _reference_witness_ok(cert):
    w = cert.witness
    n = w.shape[0]
    if cert.kind in (CertKind.DIAGONAL_LYAPUNOV, CertKind.STEIN_DIAGONAL):
        return classes.contains(classes.pos_diag(n), w)
    if cert.kind is CertKind.ALPHA_SCALAR_LYAPUNOV:
        return classes.contains(classes.pos_alpha_scalar(cert.partition), w)
    if cert.kind is CertKind.BLOCK_LYAPUNOV:
        return classes.contains(classes.alpha_block_spd(cert.partition), w)
    if cert.kind is CertKind.IDENTITY_LYAPUNOV:
        return bool(np.allclose(w, np.eye(n), atol=1e-12))
    if cert.kind is CertKind.SYMMETRIC_INDEFINITE:
        return classes.contains(classes.symmetric(n), w)
    if cert.kind is CertKind.HILL:
        return classes.contains(classes.spd(n), w)
    raise AssertionError(cert.kind)


def _reference_certified_form(cert, a):
    from dgstab.linalg import hill_form

    p = cert.witness
    if cert.kind in (
        CertKind.DIAGONAL_LYAPUNOV,
        CertKind.ALPHA_SCALAR_LYAPUNOV,
        CertKind.BLOCK_LYAPUNOV,
        CertKind.IDENTITY_LYAPUNOV,
        CertKind.SYMMETRIC_INDEFINITE,
    ):
        return p @ a + a.T @ p
    if cert.kind is CertKind.STEIN_DIAGONAL:
        return p - a.T @ p @ a
    if cert.kind is CertKind.HILL:
        return hill_form(np.array(cert.coeffs, dtype=float), p, a)
    raise ValueError(f"no closed form for certificate kind {cert.kind.value}")


def _reference_implied_stabilities(cert):
    from dgstab.algebra import ADD, MUL

    rhp = regions.right_half_plane()
    if cert.kind is CertKind.EXHAUSTIVE:
        return [cert.triple] if cert.triple is not None else []
    if cert.kind in (CertKind.HILL, CertKind.SYMMETRIC_INDEFINITE):
        return []
    n = cert.witness.shape[0]
    if cert.kind is CertKind.DIAGONAL_LYAPUNOV:
        cls = classes.pos_diag(n)
        return [(rhp, cls, MUL), (rhp, cls, ADD)]
    if cert.kind is CertKind.ALPHA_SCALAR_LYAPUNOV:
        cls = classes.alpha_block_spd(cert.partition)
        return [(rhp, cls, MUL), (rhp, cls, ADD)]
    if cert.kind is CertKind.BLOCK_LYAPUNOV:
        cls = classes.pos_alpha_scalar(cert.partition)
        return [(rhp, cls, MUL), (rhp, cls, ADD)]
    if cert.kind is CertKind.IDENTITY_LYAPUNOV:
        cls = classes.spd(n)
        return [(rhp, cls, MUL), (rhp, cls, ADD)]
    if cert.kind is CertKind.STEIN_DIAGONAL:
        disk = regions.unit_disk()
        return [
            (disk, classes.vertex_diag(n), MUL),
            (disk, classes.box_diag([-1.0] * n, [1.0] * n), MUL),
        ]
    raise AssertionError(cert.kind)


def _factory_classes():
    p21 = Partition.from_sizes([2, 1])
    return [
        classes.symmetric(3), classes.spd(3), classes.alpha_block_spd(p21),
        classes.diag(3), classes.pos_diag(3), classes.sign_diag((1, -1, 0)),
        classes.alpha_scalar(p21), classes.pos_alpha_scalar(p21),
        classes.theta_ordered((2, 0, 1)),
        classes.box_diag([-0.5, -1.0, 0.0], [1.0, 0.5, 0.9]),
        classes.box_diag([-2.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        classes.vertex_diag(3), classes.rank_k_positive(3, 1),
        classes.sum_rank_one_positive(3, 2),
        classes.parametric_rank_one([1, 2, 3], [1, 0, 1], (-1.0, 2.0)),
        classes.explicit_list([np.eye(3)]),
        classes.explicit_list([np.diag([1.0, -1.0, 0.5]), np.eye(3)]),
    ]


def test_search_for_triple_picks_what_the_dispatch_picked(monkeypatch):
    # 17 classes x 10 regions x 3 operations x 2 sides: the table calls
    # the finder the hand-written dispatch called, with an equal witness
    # class, or calls none when it called none
    import dgstab.certify as certify
    from dgstab.algebra import BinaryOp, Side
    from dgstab.certify import search_for_triple
    from dgstab.engine import Query

    calls = []

    def recorder(name):
        def record(a, *rest):
            witness = rest[0] if name == "find_structured_lyapunov" else None
            calls.append((name, witness))
            return name
        return record

    for name in ("find_diagonal_lyapunov", "find_stein_diagonal",
                 "find_structured_lyapunov"):
        monkeypatch.setattr(certify, name, recorder(name))
    all_regions = [regions.right_half_plane(), regions.left_half_plane(),
                   regions.unit_disk(), regions.real_axis(), regions.positive_ray(),
                   regions.nonzero_real_part(), regions.punctured_plane(),
                   regions.sector(0.7), regions.hill_region([[0, 1], [1, 0]]),
                   regions.unit_disk(1e-6)]
    a = np.array([[2.0, 1.0, 0.0], [-1.0, 3.0, 0.5], [0.0, -0.5, 1.0]])
    searched = 0
    for cls in _factory_classes():
        for region in all_regions:
            for kind in OpKind:
                for side in Side:
                    q = Query(a, region, cls, BinaryOp(kind, side))
                    calls.clear()
                    want = _reference_certificate_search(q)
                    want_calls = list(calls)
                    calls.clear()
                    got = search_for_triple(a, region, cls, q.op)
                    assert got == want and calls == want_calls, (cls, region, q.op)
                    searched += want is not None
    assert searched == 24


def _witness_candidates(n, part):
    r = rng(n)
    b = r.standard_normal((n, n))
    block = np.zeros((n, n))
    for blk in part.blocks:
        sel = np.ix_(blk, blk)
        block[sel] = b[sel] @ b[sel].T + np.eye(len(blk))
    scalars = np.diag([1.0 + k for k, blk in enumerate(part.blocks) for _ in blk])
    return [np.eye(n), 2.0 * np.eye(n), np.diag(10.0 ** r.uniform(-1, 1, n)),
            -np.eye(n), np.diag(np.linspace(-1.0, 1.0, n)), scalars, block,
            b @ b.T + np.eye(n), b + b.T, b, np.eye(n) + 1e-13 * (b + b.T)]


def test_a_power_of_two_row_scaling_leaves_found_unchanged():
    # for D = 2^k, D A and A share their row-scaled matrix D0 A, so the
    # Newton searches agree; they could differ only where P = I
    # certifies one of them and not the other
    r = rng(36)
    for name, a, _ in _search_cases():
        if name.split()[0] != "diagonal":
            continue
        for _ in range(4):
            d = np.ldexp(1.0, r.integers(-30, 31, len(a)))
            assert find_diagonal_lyapunov(d[:, None] * a).found == \
                find_diagonal_lyapunov(a).found, name


def test_the_row_scaled_search_certifies_row_graded_matrices():
    # A = diag(p)^-1 (W/2 + K) has the certificate diag(p), and its rows
    # scaled by 2^k the certificate diag(p) 2^-k: every query is true
    rhp = regions.right_half_plane()
    for spread in (5, 10, 20):
        r, statuses = rng(5), []
        for seed in range(100):
            n = int(r.integers(3, 9))
            b = r.standard_normal((n, n))
            k = r.standard_normal((n, n))
            p = 10.0 ** r.uniform(-1.0, 1.0, n)
            a = np.linalg.solve(np.diag(p), 0.5 * (b @ b.T + 0.5 * np.eye(n)) + (k - k.T))
            a = np.ldexp(a, r.integers(-spread, spread + 1, n)[:, None])
            q = Query(a, rhp, classes.pos_diag(n), MUL, budget=2000, seed=seed)
            statuses.append(decide(q).status)
        assert statuses == [VerdictStatus.CERTIFIED] * 100, spread


def test_the_row_scaled_search_falls_back_at_the_edges():
    # A is searched unscaled where D0 A is not exact: a block's diagonal
    # is 0, an entry overflows, or a nonzero entry becomes subnormal or 0
    from dgstab.certify import _entries, _row_scaled_search

    edges = (
        (np.array([[0.0, 1.0], [-1.0, 1.0]]), None),
        (np.array([[1.0, 2.0, 0.5], [-2.0, 0.0, 1.0], [0.0, -1.0, 0.0]]),
         Partition.from_sizes([1, 2])),
        (np.array([[1e-300, 1e300], [-1.0, 1.0]]), None),
        (np.array([[1e300, 1e-300], [-1.0, 1.0]]), None),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, part in edges:
            kind = CertKind.DIAGONAL_LYAPUNOV if part is None else CertKind.ALPHA_SCALAR_LYAPUNOV
            assert _row_scaled_search(a, kind, part, _entries(kind, 2 if part is None else 3,
                                                              part), None) is None
            rep = find_diagonal_lyapunov(a) if part is None else \
                find_structured_lyapunov(a, classes.pos_alpha_scalar(part))
            assert not rep.found or verify_certificate(rep.certificate, a)
        # order 1: P = I or nothing, measured at A
        assert find_diagonal_lyapunov(np.array([[3.0]])).iterations == 0
        rep = find_diagonal_lyapunov(np.array([[-1.0]]))
        assert (rep.found, rep.best_min_eig) == (False, -2.0)
        # rows graded between 1e300 and 1e-300: the witness P' D0 at
        # trace 2 would hold an entry near 2^-1990, below the smallest
        # subnormal, so A is searched unscaled
        for a in (np.array([[1e-300, 0.0], [1.0, 1e300]]),
                  np.array([[1e300, 1e299], [-1e-300, 2e-300]])):
            kind = CertKind.DIAGONAL_LYAPUNOV
            assert _row_scaled_search(a, kind, None, _entries(kind, 2, None), None) is None
            rep = find_diagonal_lyapunov(a)
            assert not rep.found or verify_certificate(rep.certificate, a)
        # rows graded from 1e150 to 1e-150, certified through D0 A
        a = np.array([[1e150, 1e149], [-1e-150, 2e-150]])
        rep = find_diagonal_lyapunov(a)
        assert rep.found and verify_certificate(rep.certificate, a)


def _random_partition(r, n):
    cuts = r.choice(np.arange(1, n), size=r.integers(0, n), replace=False) if n > 1 else []
    return Partition.from_sizes(np.diff([0, *sorted(cuts), n]).tolist())


def test_the_barrier_search_is_the_hand_written_one_bit_for_bit():
    # the search reads each form from its coefficients; the hand-written
    # Lyapunov and Stein searches it replaced must return the same
    # (P, t, steps): n = 1..12, plain, graded and scaled matrices, the
    # diagonal, block-scalar, block SPD and Stein parametrizations over
    # random partitions, each started as _form_search starts it
    import reference_barrier

    from dgstab.certify import _barrier_search, _entries, _start
    from dgstab.linalg import case_i_coefficients, polynomial_forms

    forms = {"lyap": case_i_coefficients(), "stein": case_iii_coefficients()}
    r, outcomes = rng(24), set()
    for n in range(1, 13):
        for style in ("plain", "graded", "scaled"):
            a = r.standard_normal((n, n))
            if style == "graded":
                d = 10.0 ** r.uniform(-3.0, 3.0, n)
                a = d[:, None] * a / d
            part = _random_partition(r, n)
            for form, c in forms.items():
                if form == "lyap":
                    b = a + r.uniform(0.0, 2.0) * np.abs(a).max() * np.eye(n)
                    b = b / np.linalg.norm(b)
                    kinds = ((CertKind.DIAGONAL_LYAPUNOV, None),
                             (CertKind.ALPHA_SCALAR_LYAPUNOV, part),
                             (CertKind.BLOCK_LYAPUNOV, part))
                else:
                    b = a / (np.abs(np.linalg.eigvals(a)).max() * r.uniform(0.8, 1.3))
                    kinds = ((CertKind.STEIN_DIAGONAL, None),
                             (CertKind.ALPHA_SCALAR_LYAPUNOV, part))
                if style == "scaled":
                    b = b * 10.0 ** r.uniform(-3.0, 3.0)
                t = _start(np.linalg.eigvalsh(polynomial_forms(c, np.eye(n), b))[0])
                for kind, p in kinds:
                    entries = _entries(kind, n, p)
                    want = reference_barrier.barrier_search(b, form, entries, t)
                    got = _barrier_search(b, c, entries, t)
                    case = (n, style, form, kind, p)
                    assert (got[0] is None) == (want[0] is None), case
                    assert want[0] is None or np.array_equal(got[0], want[0]), case
                    assert got[1:] == want[1:], case
                    outcomes.add((form, want[0] is not None, want[2] > 0))
    # both forms certify and fail after Newton steps
    assert outcomes >= {(form, found, True) for form in forms for found in (True, False)}


def test_pairing_table_agrees_with_the_hand_written_functions():
    # every kind, n = 1..4, singleton and mixed partitions: the same
    # witness verdicts, forms and proven triples as before the table
    from dgstab.certify import _PAIRINGS, certified_form

    coeffs = tuple(map(tuple, case_iii_coefficients()))
    for n in (1, 2, 3, 4):
        a = rng(10 + n).standard_normal((n, n))
        for sizes in ([1] * n, [n], [1, n - 1] if n > 1 else [1], [n - 1, 1] if n > 1 else [1]):
            part = Partition.from_sizes(sizes)
            for kind in CertKind:
                if kind is CertKind.EXHAUSTIVE:
                    continue
                for w in _witness_candidates(n, part):
                    cert = Certificate(kind, w, 1.0, partition=part, coeffs=coeffs)
                    witness_class = _PAIRINGS[kind].at(n, part)[0]
                    assert classes.contains(witness_class, w) == _reference_witness_ok(cert)
                    sym = w.T @ w
                    cert = Certificate(kind, sym, 1.0, partition=part, coeffs=coeffs)
                    np.testing.assert_array_equal(certified_form(cert, a),
                                                  _reference_certified_form(cert, a))
                    assert implied_stabilities(cert) == _reference_implied_stabilities(cert)
    # the selection index loses no kind: no two kinds prove a triple of
    # the same (region, class, op) kinds, and only searched kinds prove one
    from dgstab.certify import _BY_TRIPLE

    proven = [t for pair in _PAIRINGS.values()
              for t in pair.at(1, Partition.from_sizes([1]))[1]]
    assert len(_BY_TRIPLE) == len(proven)
    exhaustive = Certificate(CertKind.EXHAUSTIVE, None, 1.0,
                             triple=(regions.unit_disk(), classes.vertex_diag(2), None))
    assert implied_stabilities(exhaustive) == [exhaustive.triple]
    with pytest.raises(ValueError, match="no closed form"):
        certified_form(exhaustive, np.eye(2))


def test_identity_witness_tolerance_is_class_membership():
    # the identity witness is checked by membership in its singleton
    # class (1e-9 of the largest entry), no longer by np.allclose, whose
    # relative 1e-5 accepted a diagonal entry 1e-7 away from 1
    a = np.diag([1.0, 2.0])
    for w, ok in ((np.eye(2), True), (np.diag([1.0, 1.0 + 1e-7]), False),
                  (np.eye(2) + 1e-10 * np.ones((2, 2)), True)):
        cert = Certificate(CertKind.IDENTITY_LYAPUNOV, w, 1.0)
        assert verify_certificate(cert, a) is ok


def test_unsearched_kinds_verify_and_prove_nothing():
    from dgstab.certify import _BY_TRIPLE, _BY_WITNESS, _PAIRINGS

    h = np.diag([1.0, -1.0])
    hill = Certificate(CertKind.HILL, 0.5 * np.eye(2) + 1.5 * np.eye(2), 1.0,
                       coeffs=tuple(map(tuple, case_iii_coefficients())))
    for cert, a in ((Certificate(CertKind.SYMMETRIC_INDEFINITE, h, 2.0), h),
                    (hill, 0.5 * np.eye(2))):
        assert verify_certificate(cert, a)
        assert implied_stabilities(cert) == []
        assert _PAIRINGS[cert.kind].at(2, None)[1] == ()
        assert cert.kind not in {*_BY_TRIPLE.values(), *_BY_WITNESS.values()}
    for n in (1, 2, 3, 4):
        with pytest.raises(UnsupportedClassError):
            find_structured_lyapunov(np.eye(n), classes.pos_diag(n))


# ---------------------------------------------------------------------------
# certificates missing their witness or partition


def test_block_certificates_without_a_partition_are_rejected():
    for kind in (CertKind.ALPHA_SCALAR_LYAPUNOV, CertKind.BLOCK_LYAPUNOV):
        cert = Certificate(kind, np.eye(2), 1.0)
        assert verify_certificate(cert, np.eye(2)) is False
        assert implied_stabilities(cert) == []


def test_certificates_without_a_witness_are_rejected():
    part = Partition.from_sizes([1, 1])
    for kind in CertKind:
        if kind is CertKind.EXHAUSTIVE:
            continue
        cert = Certificate(kind, None, 1.0, partition=part,
                           coeffs=tuple(map(tuple, case_iii_coefficients())))
        assert verify_certificate(cert, np.eye(2)) is False, kind
        assert implied_stabilities(cert) == [], kind


# ---------------------------------------------------------------------------
# the screens: cheap necessary conditions run before a search


def _screen(kind):
    from dgstab.certify import _PAIRINGS

    return _PAIRINGS[kind].screen


def _random_partition(r, n):
    cuts = np.sort(r.choice(np.arange(1, n), size=r.integers(0, n), replace=False))
    return Partition.from_sizes(np.diff(np.concatenate(([0], cuts, [n]))).tolist())


def _with_certificate(r, n, part, witness, decades):
    """``A = P^-1 (W/2 + K)`` with ``W = B B^T + I/2`` and ``K`` skew, so
    that ``P A + A^T P = W`` is positive definite: ``P`` is a positive
    diagonal ('diag'), positive and constant on each block of ``part``
    ('scalar'), or SPD on each block ('spd'), its eigenvalues spread
    over ``decades`` either side of 1."""
    return _with_witness(r, n, part, witness, decades)[1]


def _with_witness(r, n, part, witness, decades):
    """``(P, A)`` of ``_with_certificate``."""
    b = r.standard_normal((n, n))
    w = b @ b.T + 0.5 * np.eye(n)
    k = r.standard_normal((n, n))
    k = k - k.T
    p = np.zeros((n, n))
    for blk in part.blocks:
        sel = np.ix_(blk, blk)
        m = len(blk)
        if witness == "diag":
            p[sel] = np.diag(10.0 ** r.uniform(-decades, decades, m))
        elif witness == "scalar":
            p[sel] = 10.0 ** r.uniform(-decades, decades) * np.eye(m)
        else:
            q = np.linalg.qr(r.standard_normal((m, m)))[0]
            p[sel] = (q * 10.0 ** r.uniform(-decades, decades, m)) @ q.T
    return p, np.linalg.solve(p, 0.5 * w + k)


def test_screens_never_reject_a_matrix_with_a_certificate():
    # every witness is a block-diagonal SPD matrix on its partition, and
    # a block-scalar one is a positive diagonal too
    diag, scalar, spd = (_screen(k) for k in (CertKind.DIAGONAL_LYAPUNOV,
                                              CertKind.ALPHA_SCALAR_LYAPUNOV,
                                              CertKind.BLOCK_LYAPUNOV))
    singletons = {n: Partition.from_sizes([1] * n) for n in range(1, 13)}
    r = rng(61)
    for trial in range(600):
        n = 1 + trial % 12
        decades = r.uniform(0.0, 3.0)
        part = _random_partition(r, n)
        a = _with_certificate(r, n, singletons[n], "diag", decades)
        assert diag(a, None) is None and spd(a, part) is None, (trial, a)
        a = _with_certificate(r, n, part, "scalar", decades)
        assert diag(a, None) is None, (trial, a)
        assert scalar(a, part) is None and spd(a, part) is None, (trial, a)
        a = _with_certificate(r, n, part, "spd", decades)
        assert spd(a, part) is None, (trial, a)
    # a 2x2 minor of 2^-104 computes as 0: D = diag(1 - 2^-52, 1 + 2^-52)
    # certifies A, so only a strict test of the computed minor is sound
    e = 2.0 ** -52
    a = np.array([[1.0, 1.0 + e], [1.0 - e, 1.0]])
    assert diag(a, None) is None
    # A + A^T = ones + 2^-52 I is positive definite, yet eigvalsh puts
    # its smallest eigenvalue near -1e-15
    a = 0.5 * (np.ones((7, 7)) + e * np.eye(7))
    whole = Partition.from_sizes([7])
    assert scalar(a, whole) is None and spd(a, whole) is None
    # S (2^-20 I + 1024 N) S^-1, stored exactly, has the triple
    # eigenvalue 2^-20, yet eigvals puts one near -6.5e-3
    s = np.tril(np.ones((3, 3)))
    a = s @ (2.0 ** -20 * np.eye(3) + 1024.0 * np.eye(3, k=1)) @ (np.eye(3) - np.eye(3, k=-1))
    assert spd(a, Partition.from_sizes([3])) is None


def test_screens_are_necessary():
    # a matrix a screen rejects has no certificate the unscreened search
    # finds and verification accepts
    from dgstab.certify import _search

    r = rng(62)
    rejected = dict.fromkeys(CertKind, 0)
    for trial in range(120):
        n = 2 + trial % 5
        a = r.standard_normal((n, n))
        if trial % 2:
            a[np.diag_indices(n)] = np.abs(np.diag(a))
        part = _random_partition(r, n)
        for kind in (CertKind.DIAGONAL_LYAPUNOV, CertKind.ALPHA_SCALAR_LYAPUNOV,
                     CertKind.BLOCK_LYAPUNOV):
            blocks = None if kind is CertKind.DIAGONAL_LYAPUNOV else part
            if _screen(kind)(a, blocks) is None or rejected[kind] == 8:
                continue
            rejected[kind] += 1
            rep = _search(kind, a, blocks)
            assert not (rep.found and verify_certificate(rep.certificate, a)), (kind, a)
    assert min(rejected[k] for k in (CertKind.DIAGONAL_LYAPUNOV,
                                     CertKind.ALPHA_SCALAR_LYAPUNOV,
                                     CertKind.BLOCK_LYAPUNOV)) == 8


def test_minor_violation_is_strict_only_when_asked():
    # the screen rejects a_ii <= 0; a refutation needs a_ii < 0, so a zero
    # diagonal entry leaves the pairs to decide
    order_2 = np.array([[2.0, 2.0, -2.0], [-1.0, 2.0, -1.0], [-3.0, 1.0, 2.0]])
    cases = [
        (np.array([[0.0, 1.0], [-1.0, 1.0]]), None, ((0,), "a_11 <= 0")),
        (np.array([[-0.0, 1.0], [-1.0, 1.0]]), None, ((0,), "a_11 <= 0")),
        (np.array([[1.0, 0.0], [0.0, -1e-300]]), ((1,), "a_22 < 0"), ((1,), "a_22 <= 0")),
        (np.array([[0.0, 1.0], [1.0, 1.0]]), ((0, 1), "a_11*a_22 < a_12*a_21"),
         ((0,), "a_11 <= 0")),
        (order_2, ((0, 2), "a_11*a_33 < a_13*a_31"), ((0, 2), "a_11*a_33 < a_13*a_31")),
        (np.eye(3), None, None),
    ]
    for a, strict, loose in cases:
        assert certify.minor_violation(a, strict=True) == strict, a
        assert certify.minor_violation(a, strict=False) == loose, a


def test_search_for_triple_reports_the_failed_condition(monkeypatch):
    import dgstab.certify as certify
    from dgstab.algebra import MUL
    from dgstab.certify import CertReport, search_for_triple

    def refuse(*args):
        raise AssertionError("a screened query was searched")

    rhp = regions.right_half_plane()
    part = Partition.from_sizes([2, 1])
    cases = [
        (np.array([[0.0, 1.0], [-1.0, 1.0]]), classes.pos_diag(2),
         "no diagonal_lyapunov certificate exists: a_11 <= 0"),
        (np.array([[1.0, 2.0], [1.0, 1.0]]), classes.pos_diag(2),
         "no diagonal_lyapunov certificate exists: a_11*a_22 < a_12*a_21"),
        (np.diag([1.0, 2.0, -3.0] + [1.0] * 8), classes.pos_diag(11),
         "no diagonal_lyapunov certificate exists: a_33 <= 0"),
        (np.diag([1.0] * 9 + [-3.0, 1.0]), classes.pos_diag(11),
         "no diagonal_lyapunov certificate exists: a_10,10 <= 0"),
        (np.array([[1.0, 3.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
         classes.alpha_block_spd(part), "no alpha_scalar_lyapunov certificate "
         "exists: A_kk + A_kk^T is not positive definite at block k = 1"),
        (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]),
         classes.pos_alpha_scalar(part), "no block_lyapunov certificate exists: "
         "A_kk is not positive stable at block k = 2"),
    ]
    for name in ("find_diagonal_lyapunov", "find_structured_lyapunov"):
        monkeypatch.setattr(certify, name, refuse)
    for a, cls, reason in cases:
        got = search_for_triple(a, rhp, cls, MUL)
        assert isinstance(got, CertReport)
        assert (got.found, got.certificate, got.iterations, got.reason) == \
            (False, None, 0, reason)
    monkeypatch.undo()
    # the finders never screen
    a = np.array([[0.0, 1.0], [-1.0, 1.0]])
    rep = find_diagonal_lyapunov(a)
    assert rep.iterations > 0 and rep.reason is None


# restriction: a certificate's principal submatrices certify A's


def _constructed_certificates(r, n):
    """(certificate, A) per restricting kind, each certificate built with
    ``A`` and proving its kind's triples at ``A``."""
    part = _random_partition(r, n)
    singletons = Partition.from_sizes([1] * n)
    out = []
    for kind, blocks, witness in ((CertKind.DIAGONAL_LYAPUNOV, None, "diag"),
                                  (CertKind.ALPHA_SCALAR_LYAPUNOV, part, "scalar"),
                                  (CertKind.BLOCK_LYAPUNOV, part, "spd")):
        p, a = _with_witness(r, n, blocks or singletons, witness, 1.0)
        out.append((Certificate(kind, p, np.nan, partition=blocks), a))
    _, a = _with_witness(r, n, Partition.from_sizes([n]), "scalar", 0.0)
    out.append((Certificate(CertKind.IDENTITY_LYAPUNOV, np.eye(n), np.nan), a))
    seed = int(r.integers(1 << 30))
    out.append((Certificate(CertKind.STEIN_DIAGONAL, _spread_diag(seed, [1] * n, 1.0),
                            np.nan), _discrete_stable(seed, n, 1.0, 0.9)))
    return out


def test_every_restriction_of_a_constructed_certificate_proves():
    r = rng(63)
    rejected = 0
    for trial in range(30):
        n = 1 + trial % 6
        for cert, a in _constructed_certificates(r, n):
            triples = implied_stabilities(cert)
            assert triples and all(proves(cert, a, *t) for t in triples), cert.kind
            for mask in range(1, 2 ** n):
                idx = tuple(i for i in range(n) if mask >> i & 1)
                kept = set(idx)
                splits = cert.kind is CertKind.BLOCK_LYAPUNOV and any(
                    not kept.isdisjoint(b) and not kept.issuperset(b)
                    for b in cert.partition.blocks)
                sub = principal_submatrix(a, idx)
                for region, cls, op in triples:
                    sub_cls = restrict_class(cls, idx)
                    rc = restrict_certificate(cert, [idx], sub[None], region, [sub_cls], op)[0]
                    if rc is None:
                        # only a block SPD witness cut across a block may fail
                        assert splits, (cert.kind, idx)
                        rejected += 1
                        continue
                    assert proves(rc, sub, region, sub_cls, op)
                    assert np.trace(rc.witness) == pytest.approx(len(idx), rel=1e-12)
                    assert rc.min_eig == np.linalg.eigvalsh(certified_form(rc, sub))[0] > 0
    assert rejected > 0


def test_other_kinds_and_malformed_certificates_give_no_restriction():
    idx, sub = (0, 2), np.eye(2)
    p = np.eye(3)
    for cert in (Certificate(CertKind.SYMMETRIC_INDEFINITE, p, 1.0),
                 Certificate(CertKind.HILL, p, 1.0, coeffs=((1.0,),)),
                 Certificate(CertKind.EXHAUSTIVE, None, 1.0, members_checked=8,
                             triple=(regions.unit_disk(), classes.vertex_diag(3), MUL)),
                 # no partition, no witness, a restricted trace of 0
                 Certificate(CertKind.ALPHA_SCALAR_LYAPUNOV, p, 1.0),
                 Certificate(CertKind.DIAGONAL_LYAPUNOV, None, 1.0),
                 Certificate(CertKind.DIAGONAL_LYAPUNOV, np.diag([0.0, 2.0, 0.0]), 1.0)):
        assert restrict_certificate(cert, [idx], sub[None], regions.right_half_plane(),
                                    [classes.pos_diag(2)], MUL) == [None], cert.kind
    # the restriction proves only the triple it is asked for
    cert = Certificate(CertKind.DIAGONAL_LYAPUNOV, p, 2.0)
    assert restrict_certificate(cert, [idx], -sub[None], regions.right_half_plane(),
                                [classes.pos_diag(2)], MUL) == [None]
    assert restrict_certificate(cert, [idx], sub[None], regions.unit_disk(),
                                [classes.pos_diag(2)], MUL) == [None]


def test_polynomial_kind_is_verified_on_a_stack_as_alone():
    # the polynomial form was once checked one witness at a time, behind
    # an assertion
    from dgstab.certify import _verified

    coeffs = ((0.0, 1.0, 0.0), (1.0, 0.0, -0.25), (0.0, -0.25, 0.0))
    for n in (1, 3):
        r = rng(40 + n)
        b = r.standard_normal((12, n, n))
        p = b @ b.swapaxes(1, 2) + np.eye(n)
        p[3] = -p[3]  # not in the witness class
        # near +I the form is about 1.5 P, near -I about -1.5 P
        a = np.eye(n) + 0.2 * r.standard_normal((12, n, n))
        a[::2] *= -1.0
        cert = Certificate(CertKind.HILL, p[0], 1.0, coeffs=coeffs)
        ok, forms = _verified(cert, p, [None] * 12, a)
        assert ok.any() and not ok.all()
        for i in range(12):
            alone, form = _verified(cert, p[i:i + 1], [None], a[i:i + 1])
            assert ok[i] == alone[0] == verify_certificate(replace(cert, witness=p[i]), a[i])
            assert np.array_equal(forms[i], form[0])


@pytest.mark.filterwarnings("error")
def test_malformed_polynomial_coefficients_are_rejected_without_a_warning():
    a, rhp, spd = 0.5 * np.eye(2), regions.right_half_plane(), classes.spd(2)
    cert = Certificate(CertKind.HILL, np.eye(2), 1.0,
                       coeffs=tuple(map(tuple, case_iii_coefficients())))
    assert verify_certificate(cert, a)
    for coeffs in (None, ((1.0, 0.0), (0.0,)), ((1.0, 0.0),),
                   ((0.0, 1.0), (1.0 + 2.0 ** -52, 0.0)), ((1.0, 0.0), (0.0, np.inf)),
                   ((np.nan, 0.0), (0.0, -1.0))):
        bad = replace(cert, coeffs=coeffs)
        assert verify_certificate(bad, a) is False, coeffs
        assert proves(bad, a, rhp, spd, MUL) is None
        assert restrict_certificate(bad, [(0, 1)], a[None], rhp, [spd], MUL) == [None]
        assert implied_stabilities(bad) == []
        with pytest.raises(ValueError):
            certified_form(bad, a)


# restriction: one stack per order equals one subset at a time


def _old_restrict(cert, idx, a, region, cls, op):
    """The one-subset restriction on 2-D arrays, the reference: the
    witness's principal submatrix scaled to trace ``len(idx)``, its
    class membership and triple coverage, then its form, definiteness
    test and ``min_eig`` on the one matrix (``reference_2d``, which
    shares no code with the stacked check)."""
    if _paired(cert) is None:
        return None
    p = principal_submatrix(cert.witness, idx)
    trace = float(np.trace(p))
    if not trace > 0.0:
        return None
    partition = None if cert.partition is None else cert.partition.restrict(idx)
    w = p * (len(idx) / trace)
    witness_cls, triples = certify._at(cert.kind, len(idx), partition)
    if not (classes.contains(witness_cls, w)
            and certify._triple_covered(region, cls, op, triples)):
        return None
    form = (reference_2d.stein_form if cert.kind is CertKind.STEIN_DIAGONAL
            else reference_2d.lyapunov_form)
    with np.errstate(over="ignore", invalid="ignore"):
        f = form(w, a)
        try:
            if not reference_2d.is_positive_definite(f):
                return None
        except (NonSymmetricError, ValueError):
            return None
    return replace(cert, witness=w, partition=partition,
                   min_eig=float(np.linalg.eigvalsh(f)[0]))


def _same(x, y) -> bool:
    if x is None or y is None:
        return x is y
    return (x.kind is y.kind and x.partition == y.partition
            and x.witness.shape == y.witness.shape
            and x.witness.tobytes() == y.witness.tobytes()
            and np.float64(x.min_eig).tobytes() == np.float64(y.min_eig).tobytes())


def _restrict_order(cert, a, region, cls, op, k):
    """Every order-k restriction of ``cert`` at ``a`` from one stacked
    call, after checking each row bit for bit against the stack of one
    and the former one-subset restriction."""
    subsets = list(itertools.combinations(range(a.shape[0]), k))
    idx = np.array(subsets)
    subs = a[idx[:, :, None], idx[:, None, :]]
    sub_classes = [restrict_class(cls, s) for s in subsets]
    stacked = restrict_certificate(cert, idx, subs, region, sub_classes, op)
    assert len(stacked) == len(subsets)
    for i, s in enumerate(subsets):
        one = restrict_certificate(cert, idx[i:i + 1], subs[i:i + 1], region,
                                   sub_classes[i:i + 1], op)
        old = _old_restrict(cert, s, principal_submatrix(a, s), region, sub_classes[i], op)
        assert _same(stacked[i], one[0]) and _same(stacked[i], old), (cert.kind, s)
    return dict(zip(subsets, stacked))


def test_stacked_restrictions_equal_one_subset_at_a_time():
    r = rng(64)
    outcomes = {}
    for trial in range(12):
        n = 2 + trial % 5
        for cert, a in _constructed_certificates(r, n):
            for region, cls, op in implied_stabilities(cert):
                for k in range(1, n):
                    for rc in _restrict_order(cert, a, region, cls, op, k).values():
                        outcomes.setdefault(cert.kind, set()).add(rc is None)
    assert outcomes[CertKind.BLOCK_LYAPUNOV] == {True, False}  # a split block fails
    assert all(False in seen for seen in outcomes.values()) and len(outcomes) == 5


def test_a_stacked_restriction_rejects_its_failing_rows_alone():
    rhp = regions.right_half_plane()
    # a witness spread over 1e-300..1 at A = 1e-30 I: on {1, 4} the scaled
    # witness is diag(2e-300, 2) and its form underflows to a zero pivot,
    # so every pair with index 1 fails the Cholesky among passing pairs
    cert = Certificate(CertKind.DIAGONAL_LYAPUNOV, np.diag([1e-300, 1e-3, 0.5, 1.0]), np.nan)
    a = 1e-30 * np.eye(4)
    got = _restrict_order(cert, a, rhp, classes.pos_diag(4), MUL, 2)
    assert [s for s, rc in got.items() if rc is None] == [(0, 1), (0, 2), (0, 3)]
    form = certified_form(replace(cert, witness=np.diag([2e-300, 2.0])), a[:2, :2])
    assert form[0, 0] == 0.0
    assert all(rc is not None for rc in _restrict_order(cert, a, rhp, classes.pos_diag(4),
                                                        MUL, 1).values())
    # a form that overflows on one row is rejected there alone, silently
    cert = Certificate(CertKind.DIAGONAL_LYAPUNOV, np.eye(3), np.nan)
    a = np.diag([1.0, 2.0, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, failing in ((1, [(2,)]), (2, [(0, 2), (1, 2)])):
            got = _restrict_order(cert, a, rhp, classes.pos_diag(3), MUL, k)
            assert [s for s, rc in got.items() if rc is None] == failing


def _composed(monkeypatch):
    """A list that ``algebra.finite_compositions`` appends each composed
    stack's member count to, for as long as ``monkeypatch`` holds."""
    counts = []
    real = algebra.finite_compositions

    def spy(op, gs, a):
        counts.append(len(gs))
        return real(op, gs, a)

    monkeypatch.setattr(algebra, "finite_compositions", spy)
    return counts


def test_exhaust_composes_one_member_of_each_pair_where_negation_pairs_them(monkeypatch):
    cls, a = classes.vertex_diag(8), np.zeros((8, 8))
    counts = _composed(monkeypatch)
    # the disk holds G o 0 = 0 and G + 0 = G has spectrum {-1, 1} on its
    # circle: nothing exits, so every member of the pass is composed
    disk = regions.unit_disk()
    for op in (MUL, BinaryOp(OpKind.MUL, Side.RIGHT), HADAMARD):
        counts.clear()
        r = certify.exhaust(a, disk, cls, op, 1e-7)
        assert (r.hit, r.checked, r.boundary, r.overflowed) == (None, 256, False, 0), op
        assert sum(counts) == 128, op
    # 0 sits on the boundary of these regions, so no member exits either
    odd_hill = regions.hill_region([[0.0, 0.5], [0.5, 0.0]])  # Re z > 0
    for region, op in ((regions.right_half_plane(), MUL), (regions.left_half_plane(), MUL),
                       (regions.sector(1.0), HADAMARD), (odd_hill, MUL), (disk, ADD)):
        counts.clear()
        r = certify.exhaust(a, region, cls, op, 1e-7)
        assert (r.hit, r.checked, r.boundary) == (None, 256, True), (region.kind, op)
        assert sum(counts) == 256, (region.kind, op)


def test_exhaust_solves_few_members_of_a_stable_vertex_input_on_the_disk(monkeypatch):
    # drawn as the benchmark's stable unit-disk vertex instances: the
    # spectral radius bound of most members is below the largest radius
    # solved, so few compositions reach eigvals
    r = rng(12)
    a = r.standard_normal((12, 12)) * r.uniform(0.15, 0.6) / np.sqrt(12)
    composed, solved = _composed(monkeypatch), []
    eigvals = np.linalg.eigvals

    def spy(m):
        solved.append(len(m))
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    got = certify.exhaust(a, regions.unit_disk(), classes.vertex_diag(12), MUL, 1e-7)
    assert (got.hit, got.checked, got.boundary, got.overflowed) == (None, 4096, False, 0)
    assert sum(composed) == 2048
    assert sum(solved) <= 204, sum(solved)


def test_exhaust_composes_at_most_twice_the_members_before_the_exit_plus_8(monkeypatch):
    # stacks of 8, 16, ... 256 members: the stack that holds exit k starts
    # at s <= k and ends at 2 s + 8, so at most 2 k + 8 members are
    # composed, reached when the exit opens its stack
    counts = _composed(monkeypatch)
    disk, r = regions.unit_disk(), rng(3)
    exits = set()
    for _ in range(40):
        n = int(r.integers(6, 11))
        b = r.standard_normal((n, n))
        a = b / max(abs(np.linalg.eigvals(b))) * r.uniform(0.6, 0.99)
        counts.clear()
        hit = certify.exhaust(a, disk, classes.vertex_diag(n), MUL, 1e-7).hit
        if hit is not None:
            exits.add(hit[0])
            assert sum(counts) <= 2 * hit[0] + 8, (hit[0], counts)
            assert sum(counts) < 2 * hit[0] + 8 or hit[0] in (0, 8, 24, 56, 120, 248)
    assert len(exits) >= 5 and max(exits) >= 8, exits


def test_exhaust_counts_the_members_before_an_exit_alone():
    # member 0 overflows, member 1 is inside the disk and member 2 exits:
    # the counts stop at the exit, whatever the stack size
    lst = classes.explicit_list([1e308 * np.eye(2), 0.05 * np.eye(2), 4.0 * np.eye(2),
                                 np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = certify.exhaust(10.0 * np.eye(2), regions.unit_disk(), lst, MUL, 1e-7)
    assert r.hit[0] == 2 and (r.checked, r.overflowed) == (2, 1)
    assert not r.boundary and r.min_score > 0


def test_a_vertex_class_of_order_one_certifies_both_members():
    v = decide(Query(np.array([[0.5]]), regions.unit_disk(), classes.vertex_diag(1), MUL),
               use_certificates=False)
    assert v.status is VerdictStatus.CERTIFIED
    assert v.certificate.members_checked == 2
    assert v.provenance[-1] == "exhaustive enumeration certified 2 members"
    assert verify_certificate(v.certificate, [[0.5]])
