"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible
with ``pytest -s`` or in captured output on failure).  Tolerances are
pinned here, not configurable.
"""

import contextlib
import time

import numpy as np

import dgstab as dg
from dgstab import algebra, certify, classes, regions, serialize
from dgstab.algebra import MUL
from dgstab.certify import CertKind, Certificate
from dgstab.engine import (
    Query,
    Transform,
    TransformKind,
    VerdictStatus,
    decide,
    falsify,
    transfer_verdict,
    transform_query,
)
from dgstab.linalg import (
    case_i_coefficients,
    case_iii_coefficients,
    hill_form,
    solve_lyapunov,
    solve_stein,
)

RHP = dg.right_half_plane()


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _well_separated(rng, n, mode):
    while True:
        a = rng.standard_normal((n, n))
        w = np.linalg.eigvals(a)
        if mode == "lyap":
            gaps = np.abs(w[:, None] + w[None, :])
        else:
            gaps = np.abs(w[:, None] * w[None, :] - 1.0)
        if np.min(gaps) > 0.05:
            return a


def test_criterion_1_solver_residuals():
    with criterion(1, "solver residuals"):
        rng = np.random.default_rng(1001)
        start = time.time()
        for solver, mode, residual in (
            (solve_lyapunov, "lyap", lambda a, h: h @ a + a.T @ h),
            (solve_stein, "stein", lambda a, h: h - a.T @ h @ a),
        ):
            for _ in range(100):
                n = int(rng.integers(2, 11))
                a = _well_separated(rng, n, mode)
                b = rng.standard_normal((n, n))
                w = b + b.T
                h = solver(a, w)
                assert np.linalg.norm(residual(a, h) - w) \
                    <= 1e-8 * np.linalg.norm(w)
        assert time.time() - start < 10.0


def test_criterion_2_polynomial_form_equivalence():
    with criterion(2, "generalized-form special cases"):
        rng = np.random.default_rng(1002)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            h = rng.standard_normal((n, n))
            h = h + h.T
            w1 = hill_form(case_i_coefficients(), h, a)
            assert np.max(np.abs(w1 - (h @ a + a.T @ h))) <= 1e-12
            w3 = hill_form(case_iii_coefficients(), h, a)
            assert np.max(np.abs(w3 - (h - a.T @ h @ a))) <= 1e-12


def _random_partition(rng, n):
    sizes = []
    left = n
    while left:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    return classes.Partition.from_sizes(sizes)


def _certified_instance(rng, kind):
    """Sample a witness, then a matrix inside its certified cone."""
    n = int(rng.integers(2, 7))
    part = _random_partition(rng, n)
    b = rng.standard_normal((n, n))
    w = b @ b.T + 0.5 * np.eye(n)
    k = rng.standard_normal((n, n))
    k = k - k.T
    if kind is CertKind.DIAGONAL_LYAPUNOV:
        p = np.diag(10.0 ** rng.uniform(-1, 1, n))
    elif kind is CertKind.ALPHA_SCALAR_LYAPUNOV:
        p = np.zeros((n, n))
        for block in part.blocks:
            p[np.asarray(block), np.asarray(block)] = 10.0 ** rng.uniform(-1, 1)
    elif kind is CertKind.BLOCK_LYAPUNOV:
        p = np.zeros((n, n))
        for block in part.blocks:
            sel = np.asarray(block)
            g = rng.standard_normal((len(block), len(block)))
            p[np.ix_(sel, sel)] = g @ g.T + 0.5 * np.eye(len(block))
    elif kind is CertKind.IDENTITY_LYAPUNOV:
        p = np.eye(n)
    elif kind is CertKind.STEIN_DIAGONAL:
        d = np.diag(10.0 ** rng.uniform(-0.5, 0.5, n))
        g = rng.standard_normal((n, n))
        g *= rng.uniform(0.3, 0.9) / np.linalg.svd(g, compute_uv=False)[0]
        sq = np.sqrt(np.diag(d))
        a = np.diag(1.0 / sq) @ g @ np.diag(sq)
        form = d - a.T @ d @ a
        cert = Certificate(kind, d, float(np.linalg.eigvalsh(form)[0]))
        return a, cert
    else:
        raise AssertionError(kind)
    a = np.linalg.solve(p, 0.5 * w + k)
    form = p @ a + a.T @ p
    cert = Certificate(
        kind,
        p,
        float(np.linalg.eigvalsh(0.5 * (form + form.T))[0]),
        partition=part if kind in (CertKind.ALPHA_SCALAR_LYAPUNOV,
                                   CertKind.BLOCK_LYAPUNOV) else None,
    )
    return a, cert


def test_criterion_3_certificate_sufficiency():
    # 10^4 falsifier trials per implied triple, spread over the 200
    # certified matrices of each kind (50 trials each)
    with criterion(3, "certificate sufficiency"):
        rng = np.random.default_rng(1003)
        start = time.time()
        kinds = (
            CertKind.DIAGONAL_LYAPUNOV,
            CertKind.ALPHA_SCALAR_LYAPUNOV,
            CertKind.BLOCK_LYAPUNOV,
            CertKind.IDENTITY_LYAPUNOV,
            CertKind.STEIN_DIAGONAL,
        )
        for kind in kinds:
            for i in range(200):
                a, cert = _certified_instance(rng, kind)
                assert cert.min_eig > 0
                assert certify.verify_certificate(cert, a), kind
                for region, cls, op in certify.implied_stabilities(cert):
                    q = Query(a, region, cls, op, budget=50,
                              seed=int(rng.integers(1 << 30)))
                    v = falsify(q)
                    assert v.status is not VerdictStatus.REFUTED, (kind, i)
        assert time.time() - start < 120.0


def _quadratic_eigs(tr, det):
    disc = np.asarray(tr, dtype=complex) ** 2 - 4.0 * np.asarray(det)
    root = np.sqrt(disc)
    return (tr + root) / 2.0, (tr - root) / 2.0


def _grid_d_stable(a):
    """Independent brute-force oracle over D = diag(d, 1): quadratic
    eigenvalue formula, no LAPACK."""
    d = np.logspace(-6, 6, 10_000)
    tr = d * a[0, 0] + a[1, 1]
    det = d * (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    l1, l2 = _quadratic_eigs(tr, det)
    return bool(np.all(l1.real > 0) and np.all(l2.real > 0))


def test_criterion_4_two_by_two_oracle_agreement():
    with criterion(4, "2x2 oracle agreement"):
        rng = np.random.default_rng(1004)
        instances = []
        while len(instances) < 500:
            a = rng.uniform(-2.0, 2.0, (2, 2))
            det = float(np.linalg.det(a))
            if min(abs(det), abs(a[0, 0]), abs(a[1, 1]),
                   abs(a[0, 0] + a[1, 1])) < 1e-3:
                continue
            instances.append(a)

        false_certified = 0
        false_refuted = 0
        non_d_stable = 0
        refuted = 0
        for i, a in enumerate(instances):
            w = np.linalg.eigvals(a)
            oracle = (
                det_ := float(np.linalg.det(a))) > 0 and a[0, 0] >= 0 \
                and a[1, 1] >= 0 and a[0, 0] + a[1, 1] > 0 \
                and bool(np.all(w.real > 0))
            # pre-validate the analytic criterion against the grid
            assert oracle == _grid_d_stable(a), i
            q = Query(a, RHP, classes.pos_diag(2), MUL,
                      budget=100_000, seed=1004 + i)
            v = decide(q)
            if oracle and v.status is VerdictStatus.REFUTED:
                false_refuted += 1
            if not oracle:
                non_d_stable += 1
                if v.status is VerdictStatus.CERTIFIED:
                    false_certified += 1
                if v.status is VerdictStatus.REFUTED:
                    refuted += 1
        assert false_certified == 0
        assert false_refuted == 0
        assert non_d_stable > 0
        assert refuted / non_d_stable >= 0.95


def test_criterion_5_vertex_exactness():
    with criterion(5, "vertex exhaustion exactness"):
        rng = np.random.default_rng(1005)
        cls = classes.vertex_diag(8)
        members = list(classes.enumerate_members(cls))
        stack = np.stack(members)
        disk = dg.unit_disk()
        kept = 0
        certified = refuted = 0
        while kept < 50:
            scale = rng.uniform(0.15, 1.2)
            a = rng.standard_normal((8, 8)) * scale / np.sqrt(8.0)
            # independent direct loop: spectral radius of every signed
            # version, straight from the eigenvalue definition
            rho = np.max(np.abs(np.linalg.eigvals(stack @ a)), axis=1)
            worst = float(np.max(rho))
            if abs(worst - 1.0) < 1e-3:
                continue  # skip near-boundary instances
            kept += 1
            expected_stable = worst < 1.0
            # the default path may certify by a Stein certificate; the
            # enumeration, pinned by use_certificates=False, counts members
            q = Query(a, disk, cls, MUL, budget=10, seed=kept)
            v = decide(q)
            exhaustive = decide(q, use_certificates=False)
            if expected_stable:
                assert v.status is VerdictStatus.CERTIFIED
                assert exhaustive.status is VerdictStatus.CERTIFIED
                assert exhaustive.certificate.members_checked == 256
                certified += 1
            else:
                assert v.status is VerdictStatus.REFUTED
                assert exhaustive.status is VerdictStatus.REFUTED
                assert classes.contains(cls, v.witness)
                refuted += 1
        assert certified > 0 and refuted > 0  # both outcomes exercised


def test_criterion_6_inclusion_chain():
    with criterion(6, "inclusion chain"):
        rng = np.random.default_rng(1006)
        partitions = [_random_partition(rng, int(rng.integers(2, 7)))
                      for _ in range(20)]
        checked = 0
        while checked < 1000:
            part = partitions[checked % len(partitions)]
            d = classes.sample(classes.pos_alpha_scalar(part), rng)
            tests = classes.chain_memberships(d, part)
            assert tests == (True, True, True, True)
            for first, second in zip(tests, tests[1:]):
                assert (not first) or second
            checked += 1


def _known_verdict_queries(rng):
    """50 certified + 50 refuted queries over (half-plane, positive
    diagonals, multiplication)."""
    queries = []
    while len(queries) < 50:
        n = int(rng.integers(2, 5))
        a, _ = _certified_instance(rng, CertKind.DIAGONAL_LYAPUNOV)
        queries.append(Query(a, RHP, classes.pos_diag(a.shape[0]), MUL,
                             budget=20_000, seed=int(rng.integers(1 << 30))))
    count = 0
    while count < 50:
        a = rng.uniform(-2.0, 2.0, (2, 2))
        det = float(np.linalg.det(a))
        d_stable = det > 0 and a[0, 0] >= 0 and a[1, 1] >= 0 \
            and a[0, 0] + a[1, 1] > 0 \
            and bool(np.all(np.linalg.eigvals(a).real > 0))
        if d_stable or abs(det) < 1e-3 or abs(a[0, 0]) < 1e-3:
            continue
        queries.append(Query(a, RHP, classes.pos_diag(2), MUL,
                             budget=20_000, seed=int(rng.integers(1 << 30))))
        count += 1
    return queries


def test_criterion_7_transfer_consistency():
    with criterion(7, "verdict transfer consistency"):
        rng = np.random.default_rng(1007)
        queries = _known_verdict_queries(rng)
        assert len(queries) == 100
        for qi, q in enumerate(queries):
            v = decide(q)
            assert v.status is not VerdictStatus.UNKNOWN, qi
            n = q.a.shape[0]
            perm = np.eye(n)[rng.permutation(n)]
            transforms = [
                Transform(TransformKind.TRANSPOSE),
                Transform(TransformKind.OP_INVERSE),
                Transform(TransformKind.SCALAR, alpha=float(rng.uniform(0.5, 2.0))),
                Transform(TransformKind.SIMILARITY, s=perm),
            ]
            for tf in transforms:
                vt = transfer_verdict(v, q, tf)
                qt = transform_query(q, tf)
                scratch = decide(qt)
                if v.status is VerdictStatus.CERTIFIED:
                    assert vt.status is VerdictStatus.CERTIFIED, (qi, tf.kind)
                    assert certify.verify_certificate(vt.certificate, qt.a)
                    assert scratch.status is not VerdictStatus.REFUTED, (qi, tf.kind)
                else:
                    assert vt.status is VerdictStatus.REFUTED, (qi, tf.kind)
                    w = np.linalg.eigvals(
                        algebra.apply(q.op, vt.witness, qt.a)
                    )
                    assert np.max(regions.exterior_margins(q.region, w)) > q.tol
                    assert classes.contains(q.cls, vt.witness, 1e-7)
                    assert scratch.status is VerdictStatus.REFUTED, (qi, tf.kind)


def test_criterion_8_inertia_from_symmetric_solution():
    with criterion(8, "inertia equality via the symmetric solution"):
        rng = np.random.default_rng(1008)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 7))
            blocks = []
            plus = 0
            i = 0
            while i < n:
                if n - i >= 2 and rng.random() < 0.5:
                    re = float(rng.uniform(0.2, 2.0) * rng.choice([-1, 1]))
                    im = float(rng.uniform(0.2, 2.0))
                    blocks.append(np.array([[re, im], [-im, re]]))
                    plus += 2 if re > 0 else 0
                    i += 2
                else:
                    lam = float(rng.uniform(0.2, 2.0) * rng.choice([-1, 1]))
                    blocks.append(np.array([[lam]]))
                    plus += 1 if lam > 0 else 0
                    i += 1
            lam_mat = np.zeros((n, n))
            at = 0
            for b in blocks:
                k = b.shape[0]
                lam_mat[at:at + k, at:at + k] = b
                at += k
            s = rng.standard_normal((n, n))
            if np.linalg.cond(s) > 1e3:
                continue
            a = s @ lam_mat @ np.linalg.inv(s)
            w = np.linalg.eigvals(a)
            if np.min(np.abs(w[:, None] + w[None, :])) < 0.05:
                continue
            h = solve_lyapunov(a, np.eye(n))
            ih = regions.inertia_of(RHP, np.linalg.eigvalsh(h))
            ia = regions.inertia_of(RHP, w)
            assert ih.as_tuple() == ia.as_tuple() == (plus, 0, n - plus)
            done += 1


def test_criterion_9_operation_law_table():
    with criterion(9, "operation-law table"):
        rng = np.random.default_rng(1009)
        table = algebra.law_table(1000, 8, rng)
        for kind, row in table.items():
            for law, report in row.items():
                expected = algebra.EXPECTED_LAWS[law][kind]
                gate = algebra.law_gate(law, kind)
                if expected:
                    assert report.max_deviation <= gate, (kind, law)
                else:
                    assert report.max_deviation > gate, (kind, law)
                    assert report.witness is not None, (kind, law)


def test_criterion_10_unknown_honesty_and_determinism():
    with criterion(10, "unknown honesty and determinism"):
        rng = np.random.default_rng(1010)
        for i in range(50):
            a, cert = _certified_instance(rng, CertKind.DIAGONAL_LYAPUNOV)
            assert certify.verify_certificate(cert, a)
            q = Query(a, RHP, classes.pos_diag(a.shape[0]), MUL,
                      budget=1000, seed=4242 + i)
            v1 = decide(q, use_certificates=False)
            v2 = decide(q, use_certificates=False)
            assert v1.status is VerdictStatus.UNKNOWN, i
            assert v1.trials_used == 1000
            j1 = serialize.dumps(serialize.verdict_to_json(v1))
            j2 = serialize.dumps(serialize.verdict_to_json(v2))
            assert j1 == j2
