"""Total stability from the full matrix's certificate agrees with
deciding every principal submatrix.

``_old_total_stability`` below is the former per-subset loop, kept
verbatim.  The queries are seeded matrices with a certificate by
construction, under positive diagonal, positive block-scalar, SPD and
unit-disk box classes, and their negations or doublings.  On every
subset ``engine.total_stability`` must reach the old loop's status,
except that a subset the old loop left unknown may be certified by a
restricted certificate that proves the subset's triple.  When no
restriction proves its triple, the output must equal the old loop's
byte for byte.
"""

import numpy as np

from dgstab import certify, classes, engine, regions, serialize
from dgstab.algebra import MUL
from dgstab.classes import Partition
from dgstab.engine import (Query, TotalStabilityReport, VerdictStatus, decide,
                           restrict_class, total_stability)
from dgstab.errors import OrderTooLargeError
from dgstab.linalg import principal_submatrix

RHP = regions.right_half_plane()


# --- the former loop, verbatim -----------------------------------------------


def _old_total_stability(q: Query) -> TotalStabilityReport:
    """Decide the query on every nonempty principal submatrix (class
    induced on the index subset).  Overall verdict: certified only if
    every subset is, refuted if any subset is."""
    n = q.a.shape[0]
    if n > 16:
        raise OrderTooLargeError("total stability supported for order <= 16")
    results: dict[tuple[int, ...], engine.Verdict] = {}
    statuses = []
    for mask in range(1, 2 ** n):
        idx = tuple(i for i in range(n) if mask >> i & 1)
        sub = Query(
            principal_submatrix(q.a, idx),
            q.region,
            restrict_class(q.cls, idx),
            q.op,
            budget=q.budget,
            seed=q.seed,
            tol=q.tol,
        )
        v = decide(sub)
        results[idx] = v
        statuses.append(v.status)
    if any(s is VerdictStatus.REFUTED for s in statuses):
        overall = VerdictStatus.REFUTED
    elif all(s is VerdictStatus.CERTIFIED for s in statuses):
        overall = VerdictStatus.CERTIFIED
    else:
        overall = VerdictStatus.UNKNOWN
    return TotalStabilityReport(overall, results)


# --- queries -----------------------------------------------------------------


def _certified(r, part, witness):
    """``P^-1 (W/2 + K)`` with ``W = B B^T + I/2``, ``K`` skew and ``P`` a
    positive diagonal spread over one decade ('diag'), the identity
    ('identity') or SPD on each block of ``part`` ('spd'), so that ``P A
    + A^T P = W``."""
    n = part.order
    b = r.standard_normal((n, n))
    k = r.standard_normal((n, n))
    w = 0.5 * (b @ b.T + 0.5 * np.eye(n)) + (k - k.T)
    if witness == "identity":
        return w
    p = np.zeros((n, n))
    for blk in part.blocks:
        m = len(blk)
        if witness == "diag":
            p[np.ix_(blk, blk)] = np.diag(10.0 ** r.uniform(0.0, 1.0, m))
        else:
            q = np.linalg.qr(r.standard_normal((m, m)))[0]
            p[np.ix_(blk, blk)] = (q * 10.0 ** r.uniform(0.0, 1.0, m)) @ q.T
    return np.linalg.solve(p, w)


def _queries():
    r = np.random.default_rng(91)
    out = []
    for n in range(2, 7):
        a = _certified(r, Partition.from_sizes([1] * n), "diag")
        for m in (a, -a):
            out.append(Query(m, RHP, classes.pos_diag(n), MUL, budget=256, seed=n))
    for sizes in ([2, 1], [1, 2, 2]):
        part = Partition.from_sizes(sizes)
        a = _certified(r, part, "spd")
        for m in (a, -a):
            out.append(Query(m, RHP, classes.pos_alpha_scalar(part), MUL,
                             budget=256, seed=7))
    for n in (3, 4):
        a = _certified(r, Partition.from_sizes([n]), "identity")
        for m in (a, -a):
            out.append(Query(m, RHP, classes.spd(n), MUL, budget=256, seed=8))
    # D^-1/2 B D^1/2 with ||B||_2 < 1: D certifies the Stein form
    for n in (3, 4):
        b = r.standard_normal((n, n))
        s = 10.0 ** r.uniform(0.0, 0.5, n)
        a = 0.9 * b / np.linalg.norm(b, 2) * s / s[:, None]
        for m in (a, 2.0 * a):
            out.append(Query(m, regions.unit_disk(), classes.box_diag([-1.0] * n, [1.0] * n),
                             MUL, budget=256, seed=9))
    return out


def _restricted(v) -> bool:
    return any("restricted from the full matrix" in p for p in v.provenance)


def _text(rep: TotalStabilityReport) -> str:
    """The report as ``dgstab total`` prints it."""
    return serialize.dumps({
        "overall": rep.overall.value,
        "subsets": {",".join(str(i + 1) for i in idx): serialize.verdict_to_json(v)
                    for idx, v in rep.results.items()}})


def _json(v) -> str:
    return serialize.dumps(serialize.verdict_to_json(v))


# --- the comparisons ---------------------------------------------------------


def test_total_stability_agrees_with_the_old_loop():
    restricted = 0
    for q in _queries():
        old, new = _old_total_stability(q), total_stability(q)
        assert list(new.results) == list(old.results)
        widened = 0
        for idx, v_old in old.results.items():
            v = new.results[idx]
            if v.status is not v_old.status:
                assert (v_old.status, v.status) == (VerdictStatus.UNKNOWN,
                                                    VerdictStatus.CERTIFIED), idx
                widened += 1
            if v.status is VerdictStatus.CERTIFIED:
                sub_a = principal_submatrix(q.a, idx)
                assert certify.proves(v.certificate, sub_a, q.region,
                                      restrict_class(q.cls, idx), q.op), idx
            restricted += _restricted(v)
        full = tuple(range(q.a.shape[0]))  # decided as before
        assert _json(new.results[full]) == _json(old.results[full])
        assert new.overall is old.overall or (
            widened and new.overall is VerdictStatus.CERTIFIED)
    assert restricted > 0


def test_restrictions_that_fail_to_prove_fall_back_to_decide(monkeypatch):
    restrict, proves = certify.restrict_certificate, certify.proves
    restricting, rejected = [], []

    def restrict_and_record(*args):
        restricting.append(True)
        try:
            return restrict(*args)
        finally:
            restricting.pop()

    def proves_but_restrictions(*args):
        if restricting:
            rejected.append(args[0])
            return None
        return proves(*args)

    monkeypatch.setattr(certify, "restrict_certificate", restrict_and_record)
    monkeypatch.setattr(certify, "proves", proves_but_restrictions)
    for q in _queries():
        assert _text(total_stability(q)) == _text(_old_total_stability(q))
    assert rejected
