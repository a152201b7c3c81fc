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
"""

import itertools
from dataclasses import replace

import numpy as np

from dgstab import algebra, classes, engine, regions, serialize
from dgstab.algebra import ADD, HADAMARD, MUL
from dgstab.certify import CertKind, Certificate, verify_certificate
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
