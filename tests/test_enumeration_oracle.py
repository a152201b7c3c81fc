"""Finite classes scanned by ``certify.exhaust`` agree with the former
enumeration loops.

``_old_exhaustive_check`` (with the ``_first_hit`` it called) and
``_old_verify_exhaustive``, the EXHAUSTIVE branch of the former
``certify.verify_certificate``, are kept verbatim.  Over vertex
diagonals at n = 1..8 and explicit lists, five regions and the three
operations, the engine's enumeration stage must return the old verdict
byte for byte, and ``verify_certificate`` the old answer, including for
a tampered ``members_checked``.  The inputs certify, refute and are
blocked by boundary eigenvalues.

On unit-disk vertex inputs at n = 9..12, where the scan composes one
member of each +/- pair, refutations must still match byte for byte;
a certified verdict's ``min_eig`` may differ in its last bits, as
``eigvals(-M)`` equals ``-eigvals(M)`` only up to rounding.

On the unit disk ``exhaust`` solves only the compositions whose
spectral radius bound reaches the largest radius solved so far; its
result must equal, bit for bit, that of ``_solve_every_member``, the
former scan kept verbatim, which solves every finite composition.
"""

import itertools
from dataclasses import replace

import numpy as np

from dgstab import algebra, certify, classes, engine, regions, serialize
from dgstab.algebra import ADD, HADAMARD, MUL, BinaryOp, OpKind, Side
from dgstab.certify import CertKind, Certificate, Exhaustion, verify_certificate
from dgstab.engine import Query, Verdict, VerdictStatus, _refuted
from dgstab.linalg import as_square_matrix

# --- the former loops, verbatim -----------------------------------------------


def _first_hit(margins: np.ndarray, tol: float) -> tuple[int, int] | None:
    """(row, column) of the worst eigenvalue in the first row of
    ``margins`` with an exterior margin beyond ``tol``, or None."""
    hits = np.flatnonzero(margins.max(axis=1) > tol)
    if not hits.size:
        return None
    j = int(hits[0])
    return j, int(np.argmax(margins[j]))


def _old_exhaustive_check(a, region, cls, op, tol) -> Verdict:
    """Exact decision over a finite class by enumeration, streamed 256
    members to a stack."""
    members = classes.enumerate_members(cls)
    checked = 0
    min_score = np.inf
    boundary_blocked = False
    while chunk := list(itertools.islice(members, 256)):
        stack = np.stack(chunk)
        ws = np.linalg.eigvals(algebra.apply(op, stack, a))
        flat = ws.ravel()
        margins = regions.exterior_margins(region, flat).reshape(ws.shape)
        hit = _first_hit(margins, tol)
        if hit is not None:
            j, lam = hit
            return _refuted(stack[j], complex(ws[j, lam]), float(margins[j, lam]),
                            f"exhaustive enumeration refutes at member {checked + j} "
                            f"of {cls.finite_size}")
        if not regions.spectrum_in_region(region, flat):
            boundary_blocked = True
        min_score = min(min_score, float(regions.interior_scores(region, flat).min()))
        checked += len(stack)
    if boundary_blocked:
        return Verdict(
            VerdictStatus.UNKNOWN,
            provenance=(
                "exhaustive enumeration inconclusive: boundary eigenvalues "
                "without strict exterior margin",
            ),
        )
    cert = Certificate(
        CertKind.EXHAUSTIVE,
        witness=None,
        min_eig=min_score,
        triple=(region, cls, op),
        members_checked=checked,
    )
    return Verdict(
        VerdictStatus.CERTIFIED,
        certificate=cert,
        provenance=(f"exhaustive enumeration certified {checked} members",),
    )


def _old_verify_exhaustive(cert: Certificate, a) -> bool:
    a = as_square_matrix(a)
    if cert.kind is CertKind.EXHAUSTIVE:
        if cert.triple is None:
            return False
        region, cls, op = cert.triple
        if not cls.is_finite:
            return False
        members = classes.enumerate_members(cls)
        count = 0
        while stack := list(itertools.islice(members, 256)):
            ws = np.linalg.eigvals(algebra.apply(op, np.stack(stack), a))
            if not regions.spectrum_in_region(region, ws.ravel()):
                return False
            count += len(stack)
        return cert.members_checked is None or count == cert.members_checked
    raise AssertionError(cert.kind)


def _solve_every_member(a, region, cls, op, tol) -> Exhaustion:
    """``certify.exhaust`` as it was before it bounded spectral radii:
    every finite composition of a stack is solved."""
    members = classes.enumerate_members(cls)
    paired = (cls.kind is classes.ClassKind.VERTEX_DIAG and op.kind is not ADD.kind
              and regions.scalar_preserves_region(region, -1.0))
    if paired:
        members = itertools.islice(members, cls.finite_size // 2)
    checked = overflowed = 0
    boundary, min_score = False, np.inf
    size = 8
    while chunk := list(itertools.islice(members, size)):
        stack = np.stack(chunk)
        rows, ws = algebra.finite_spectra(op, stack, a)
        if rows.size:
            hit = regions.first_exit(region, ws, tol)
            if hit is not None:
                k, lam, margin = hit
                j = int(rows[k])
                # the j members before the hit in its stack, k of them finite
                return Exhaustion((checked + j, stack[j], lam, margin), checked + j, boundary,
                                  min_score, overflowed + j - k)
            flat = ws.ravel()
            boundary = boundary or not regions.spectrum_in_region(region, flat)
            min_score = min(min_score, float(regions.interior_scores(region, flat).min()))
        overflowed += len(stack) - rows.size
        checked += len(stack)
        size = min(2 * size, 256)
    if paired:
        checked, overflowed = 2 * checked, 2 * overflowed
    return Exhaustion(None, checked, boundary, min_score, overflowed)


# --- inputs ----------------------------------------------------------------------

REGIONS = (regions.right_half_plane(), regions.unit_disk(), regions.sector(1.0),
           regions.real_axis(), regions.punctured_plane())


def _classes():
    r = np.random.default_rng(17)
    out = [classes.vertex_diag(n) for n in range(1, 9)]
    out.append(classes.explicit_list([np.eye(2), 2.0 * np.eye(2)]))
    out.append(classes.explicit_list([np.diag([1.0, -1.0]), np.eye(2), np.zeros((2, 2))]))
    out.append(classes.explicit_list([b @ b.T for b in r.standard_normal((5, 3, 3))]))
    # more than one stack of 256
    out.append(classes.explicit_list(list(0.3 * r.standard_normal((300, 2, 2)))))
    return out


def _matrices(n: int, r: np.random.Generator):
    b = r.standard_normal((n, n))
    up = np.triu(r.standard_normal((n, n)), 1)
    return [np.zeros((n, n)), np.eye(n), 0.2 / n * b, 3.0 * b, b + b.T,
            np.eye(n) + up, 2.0 * np.eye(n) + up]


def _cases():
    r = np.random.default_rng(5)
    for cls in _classes():
        for a in _matrices(cls.order, r):
            for region in REGIONS:
                for op in (MUL, ADD, HADAMARD):
                    yield a, region, cls, op


def _json(v) -> str:
    return serialize.dumps(serialize.verdict_to_json(v))


# --- the comparisons ----------------------------------------------------------------


def test_enumeration_stage_and_verification_agree_with_the_old_loops():
    seen = {s: 0 for s in VerdictStatus}
    verified = 0
    for a, region, cls, op in _cases():
        old = _old_exhaustive_check(a, region, cls, op, 1e-7)
        new = engine._exhaustive_check(Query(a, region, cls, op, tol=1e-7))
        assert _json(new) == _json(old), (a, region, cls.kind, op)
        seen[new.status] += 1
        # the verdict's own certificate, else a claimed one; both tampered
        cert = new.certificate or Certificate(
            CertKind.EXHAUSTIVE, None, 0.0, triple=(region, cls, op),
            members_checked=cls.finite_size)
        for checked in (cert.members_checked, cls.finite_size + 1):
            c = replace(cert, members_checked=checked)
            ok = verify_certificate(c, a)
            assert ok is _old_verify_exhaustive(c, a), (region, cls.kind, op, checked)
            verified += ok
    assert all(seen.values()), seen
    assert verified > 0


def _disk_vertex_inputs():
    """Twenty seeded (a, certifies) pairs at n = 9..12: a random matrix
    scaled by its largest spectral radius over the sign diagonals, to
    0.95 of it where every member stays inside the unit disk, and
    otherwise to the middle of the gap between its own radius and that
    largest one, so that some members leave the disk and others do
    not."""
    r = np.random.default_rng(29)
    for i in range(20):
        n = 9 + i % 4
        b = r.standard_normal((n, n))
        members = np.stack(list(classes.enumerate_members(classes.vertex_diag(n))))
        worst = abs(np.linalg.eigvals(members @ b)).max()
        own = abs(np.linalg.eigvals(b)).max()
        yield (b * (0.95 / worst), True) if i % 2 else (b * (2.0 / (own + worst)), False)


def test_paired_vertex_enumeration_agrees_with_the_old_loop():
    disk = regions.unit_disk()
    seen = set()
    for a, certifies in _disk_vertex_inputs():
        cls = classes.vertex_diag(a.shape[0])
        old = _old_exhaustive_check(a, disk, cls, MUL, 1e-7)
        new = engine._exhaustive_check(Query(a, disk, cls, MUL, tol=1e-7))
        assert new.status is old.status
        assert (old.status is VerdictStatus.CERTIFIED) is certifies, a.shape
        seen.add(new.status)
        if new.status is VerdictStatus.REFUTED:
            assert _json(new) == _json(old)
            continue
        assert new.provenance == old.provenance
        assert new.certificate.members_checked == old.certificate.members_checked
        np.testing.assert_allclose(new.certificate.min_eig, old.certificate.min_eig,
                                   rtol=1e-12, atol=0.0)
    assert seen == {VerdictStatus.CERTIFIED, VerdictStatus.REFUTED}


def _disk_scans():
    """(a, class, op, tol) inputs for a unit-disk scan: vertex inputs at
    n = 9..12 drawn as ``bench/workloads.py``'s ``vertex_instance`` draws
    them, stable and unstable, explicit lists under each operation,
    lists with overflowing members and vertex inputs with eigenvalues
    on the circle."""
    for seed in range(20):
        r = np.random.default_rng(seed)
        for n in range(9, 13):
            lo, hi = (0.15, 0.6) if (seed + n) % 2 else (0.6, 1.0)
            a = r.standard_normal((n, n)) * r.uniform(lo, hi) / np.sqrt(n)
            yield a, classes.vertex_diag(n), MUL, 0.0 if seed % 2 else 1e-7
    r = np.random.default_rng(31)
    for op in (MUL, BinaryOp(OpKind.MUL, Side.RIGHT), HADAMARD, ADD):
        for scale in (0.02, 0.1, 0.5):
            a = 0.3 * r.standard_normal((5, 5))
            yield a, classes.explicit_list(list(scale * r.standard_normal((60, 5, 5)))), op, 1e-7
    # G o A overflows at the members of 1.5e308, each skipped and counted
    a = 2.0 * np.eye(4) + 0.05 * r.standard_normal((4, 4))
    members = list(0.1 * r.standard_normal((30, 4, 4)))
    members[0] = members[17] = np.full((4, 4), 1.5e308)
    for op in (MUL, HADAMARD):
        yield a, classes.explicit_list(members), op, 1e-7
    # G + A is finite and upper triangular with rho 0.5, but its norm is
    # not finite, so its bound is +inf and it is solved
    a = 0.5 * np.eye(4) + np.triu(0.3 * r.standard_normal((4, 4)), 1)
    members = list(0.1 * r.standard_normal((30, 4, 4)))
    members[12] = np.triu(np.full((4, 4), 1.3e308), 1)
    yield a, classes.explicit_list(members), ADD, 1e-7
    # eigenvalues on the circle in every member: a boundary input
    a = np.diag([1.0, 0.5, 0.25]) + np.triu(r.standard_normal((3, 3)), 1)
    yield a, classes.vertex_diag(3), MUL, 1e-7
    # G A = I on the circle first, then members far inside it, with and
    # without a last one that exits
    a = 0.3 * r.standard_normal((5, 5))
    members = [np.linalg.inv(a)] + list(0.1 * r.standard_normal((40, 5, 5)))
    yield a, classes.explicit_list(members), MUL, 1e-7
    yield a, classes.explicit_list(members + [3.0 * np.linalg.inv(a)]), MUL, 1e-7


def test_exhaust_on_the_disk_equals_the_scan_that_solves_every_member():
    disk = regions.unit_disk()
    seen = {"hit": 0, "certified": 0, "boundary": 0, "overflowed": 0}
    for a, cls, op, tol in _disk_scans():
        got = certify.exhaust(a, disk, cls, op, tol)
        want = _solve_every_member(a, disk, cls, op, tol)
        where = (a.shape, cls.kind, op, tol)
        assert (got.checked, got.boundary, got.overflowed) == (
            want.checked, want.boundary, want.overflowed), where
        assert np.float64(got.min_score).tobytes() == np.float64(want.min_score).tobytes(), where
        assert (got.hit is None) is (want.hit is None), where
        if got.hit is not None:
            (i, g, lam, margin), (i0, g0, lam0, margin0) = got.hit, want.hit
            assert (i, lam, margin) == (i0, lam0, margin0), where
            np.testing.assert_array_equal(g, g0)
        seen["hit"] += got.hit is not None
        seen["certified"] += got.hit is None and not got.boundary and not got.overflowed
        seen["boundary"] += got.boundary
        seen["overflowed"] += got.overflowed > 0
    assert all(seen.values()), seen
