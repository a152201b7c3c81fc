"""Total stability from the full matrix's certificate agrees with
deciding every principal submatrix.

``_old_total_stability`` below is the former per-subset loop, kept
verbatim.  The queries are seeded matrices with a certificate by
construction, under positive diagonal, positive block-scalar, SPD and
unit-disk box classes, and their negations or doublings, plus classes
with data per index (a box with its own bounds at each index, a
permutation order, an explicit list), which restrict row by row where
the others share one class per order.  On every
subset ``engine.total_stability`` must reach the old loop's status,
except that a subset the old loop left unknown may be certified by a
restricted certificate that proves the subset's triple.  When no
restriction proves its triple, the output must equal the old loop's
byte for byte.
"""

import dataclasses
import itertools

import numpy as np

from dgstab import algebra, certify, classes, engine, linalg, regions, serialize
from dgstab.algebra import HADAMARD, MUL
from dgstab.classes import Partition
from dgstab.engine import (Query, TotalStabilityReport, VerdictStatus, decide,
                           restrict_class, restrict_classes, total_stability)
from dgstab.errors import OrderTooLargeError
from dgstab.linalg import principal_submatrix
from test_classes import factory_classes

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
        # its own bounds at each index, inside [-1, 1]: the Stein
        # certificate still covers every restriction
        box = classes.box_diag(-r.uniform(0.5, 1.0, n), r.uniform(0.5, 1.0, n))
        for m in (a, 2.0 * a):
            out.append(Query(m, regions.unit_disk(), box, MUL, budget=256, seed=10))
    # no certificate kind covers a permutation order or an explicit list
    a = _certified(r, Partition.from_sizes([1] * 4), "diag")
    for m in (a, -a):
        out.append(Query(m, RHP, classes.theta_ordered((2, 0, 3, 1)), MUL, budget=256,
                         seed=11))
    a = _certified(r, Partition.from_sizes([1] * 3), "diag")
    members = [np.eye(3), np.diag([1.0, 2.0, 3.0]), np.diag([3.0, 1e-3, 2.0])]
    for m in (a, -a):
        out.append(Query(m, RHP, classes.explicit_list(members), MUL, budget=256, seed=12))
    return out


def _restricted(v) -> bool:
    return any("restricted from the full matrix" in p for p in v.provenance)


def _text(rep: TotalStabilityReport) -> str:
    """The report's dict view as canonical JSON: the reference for the
    text ``serialize.dumps`` writes for it, which ``dgstab total`` prints."""
    return serialize.dumps({
        "overall": rep.overall.value,
        "subsets": {",".join(str(i + 1) for i in idx): serialize.verdict_to_json(v)
                    for idx, v in rep.results.items()}})


def _json(v) -> str:
    return serialize.dumps(serialize.verdict_to_json(v))


def _first_difference(text: str, ref: str):
    """None for equal texts, else the offset of the first difference and
    both texts around it; pytest's own diff of texts of megabytes takes
    minutes."""
    if text == ref:
        return None
    i = next((i for i, (x, y) in enumerate(zip(text, ref)) if x != y), min(len(text), len(ref)))
    return i, text[i - 60:i + 60], ref[i - 60:i + 60]


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
    # every restriction the stacked check proves is rejected on its way
    # back to total_stability, which must then decide that subset
    restrict = certify.restrict_certificate
    rejected = []

    def reject_every_restriction(*args):
        proofs = restrict(*args)
        rejected.extend(rc for rc in proofs if rc is not None)
        return [None] * len(proofs)

    monkeypatch.setattr(certify, "restrict_certificate", reject_every_restriction)
    for q in _queries():
        assert _text(total_stability(q)) == _text(_old_total_stability(q))
    assert rejected


# --- the stacked identity check, branch by branch ----------------------------


def _branch_queries():
    """(query, the provenance notes its subsets must show between them):
    one query per branch of the stacked identity check and the stages
    around it."""
    r = np.random.default_rng(93)
    out = []
    # negated matrices with a positive definite symmetric part, as the
    # total benchmark builds them: the identity refutes every subset
    for n in (1, 2, 5):
        a = -_certified(r, Partition.from_sizes([n]), "identity")
        out.append((Query(a, RHP, classes.pos_diag(n), MUL, budget=64, seed=n),
                    ["identity-element necessary check refutes"]))
    # one stack with real and complex spectra, every subset refuted
    a = -np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 2.0], [0.0, -2.0, 1.0]])
    out.append((Query(a, RHP, classes.pos_diag(3), MUL, budget=64, seed=3),
                ["identity-element necessary check refutes"]))
    # the unit disk under positive diagonals: the escape refutes first,
    # except on the singular subsets, which reach the identity check
    a = np.array([[0.0, 0.3, 0.0], [0.2, 0.5, 0.1], [0.0, 0.4, 3.0]])
    out.append((Query(a, regions.unit_disk(), classes.pos_diag(3), MUL, budget=64, seed=4),
                ["bounded region with unbounded class", "identity-element check passed",
                 "identity-element necessary check refutes"]))
    # a box that holds the identity on the first and last index only
    a = np.array([[1.0, 0.2, 0.0, 0.1], [0.3, -1.0, 0.1, 0.0],
                  [0.0, 0.2, 2.0, -0.4], [0.1, 0.0, 0.3, -0.5]])
    box = classes.box_diag([0.5, 2.0, 2.0, 0.5], [1.5, 3.0, 3.0, 1.5])
    out.append((Query(a, RHP, box, MUL, budget=64, seed=5),
                ["class has no identity element for the operation",
                 "identity-element check passed",
                 "identity-element necessary check refutes"]))
    # rank-one positive members under the entrywise product: the all-ones
    # identity, then the principal-minor stage on the rows it passes
    a = np.array([[-1e-3, 1.0, 0.0], [-1.0, 1.0, 0.5], [0.3, 0.0, -1.0]])
    out.append((Query(a, RHP, classes.rank_k_positive(3, 1), HADAMARD, budget=64, seed=6),
                ["identity-element necessary check refutes", "identity-element check passed",
                 "principal minor"]))
    # positive stable 2x2 blocks with a negative diagonal entry: the
    # identity passes and the principal-minor stage refutes; a zero
    # diagonal entry leaves a boundary eigenvalue
    a = np.array([[-1e-3, 1.0, 0.0, 0.2], [-1.0, 1.0, 0.1, 0.0],
                  [0.0, 0.0, 2.0, 0.3], [0.1, 0.0, -0.3, 0.0]])
    out.append((Query(a, RHP, classes.pos_diag(4), MUL, budget=64, seed=7),
                ["identity-element check passed", "principal minor",
                 "identity element leaves a boundary eigenvalue (inconclusive)",
                 "identity-element necessary check refutes"]))
    return out


def test_stacked_identity_check_equals_the_old_loop_on_every_branch(monkeypatch):
    monkeypatch.setattr(certify, "restrict_certificate",
                        lambda cert, idx, *args: [None] * len(idx))
    for q, notes in _branch_queries():
        new = total_stability(q)
        assert _text(new) == _text(_old_total_stability(q)), q.a
        seen = [p for v in new.results.values() for p in v.provenance]
        for note in notes:
            assert any(p.startswith(note) for p in seen), (note, q.a)


# --- one restricted class per order, queries only for open rows -------------


def test_stacked_restriction_equals_restricting_each_subset():
    n = 4
    for cls in factory_classes(n):
        shared = all(getattr(cls, name) is None for name in engine._PER_INDEX)
        for k in range(1, n + 1):
            subsets = list(itertools.combinations(range(n), k))
            stacked = restrict_classes(cls, np.array(subsets))
            one_by_one = [restrict_class(cls, s) for s in subsets]
            assert stacked == one_by_one, cls
            assert [repr(c) for c in stacked] == [repr(c) for c in one_by_one], cls
            # one object per distinct class: one per order without per-index data
            assert len({id(c) for c in stacked}) == len(set(one_by_one)), cls
            assert len(set(one_by_one)) == 1 or not shared, cls
    assert {cls.kind for cls in factory_classes(n)} == set(classes.ClassKind)


def _counting(monkeypatch):
    """Counters, from now on, of the ``Query``s built, the calls of
    ``as_square_matrix`` from every module that validates a matrix, and
    the classes ``engine`` builds."""
    counts = {"Query": 0, "as_square_matrix": 0, "MatrixClass": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    post_init = Query.__post_init__
    monkeypatch.setattr(Query, "__post_init__", counted("Query", post_init))
    validate = counted("as_square_matrix", linalg.as_square_matrix)
    for module in (algebra, certify, classes, engine, linalg):
        monkeypatch.setattr(module, "as_square_matrix", validate)
    monkeypatch.setattr(engine, "MatrixClass", counted("MatrixClass", engine.MatrixClass))
    return counts


def test_total_stability_builds_nothing_per_subset(monkeypatch):
    r = np.random.default_rng(95)
    n = 8
    a = _certified(r, Partition.from_sizes([n]), "identity")
    stable = Query(a, RHP, classes.pos_diag(n), MUL, budget=64, seed=1)
    negated = Query(-a, RHP, classes.pos_diag(n), MUL, budget=64, seed=1)
    counts = _counting(monkeypatch)
    # every subset of the negation is refuted by the stacked identity check
    rep = total_stability(negated)
    assert rep.overall is VerdictStatus.REFUTED and len(rep.results) == 2 ** n - 1
    assert counts["Query"] == 0
    # one membership test of the identity per order, the full set's included
    assert counts["as_square_matrix"] == n
    for key in counts:
        counts[key] = 0
    # every subset of the stable matrix is proved by a restriction
    rep = total_stability(stable)
    assert rep.overall is VerdictStatus.CERTIFIED
    assert counts["Query"] == 0
    assert counts["MatrixClass"] == n - 1  # one restricted class per order


# --- the report's canonical text ---------------------------------------------


def _hand_built_verdicts():
    """Verdicts built by hand: a Hill certificate (the ``coefficients``
    field, which no search finds) and floats at json's edges, -0.0, a
    subnormal, a huge value, NaN and the infinities."""
    m = np.array([[-0.0, 1e-320], [2e300, 1.0]])
    hill = certify.Certificate(certify.CertKind.HILL, m, -0.0,
                               coeffs=((0.0, 1.0), (1.0, 0.0)))
    diagonal = certify.Certificate(certify.CertKind.DIAGONAL_LYAPUNOV, -m, np.nan)
    return [
        engine.Verdict(VerdictStatus.CERTIFIED, certificate=hill, provenance=("by hand",)),
        engine.Verdict(VerdictStatus.CERTIFIED, certificate=diagonal),
        engine.Verdict(VerdictStatus.REFUTED, witness=m, margin=1e-320, trials_used=3,
                       offending_eigenvalue=complex(2e300, -0.0), provenance=("a", "b")),
        engine.Verdict(VerdictStatus.UNKNOWN, margin=np.float64(np.inf),
                       offending_eigenvalue=np.complex128(complex(-np.inf, np.nan))),
    ]


def _every_subset(n, verdicts):
    """A report with the verdicts, in turn, on every subset of ``range(n)``."""
    subsets = [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]
    return TotalStabilityReport(VerdictStatus.UNKNOWN, {
        s: verdicts[i % len(verdicts)] for i, s in enumerate(subsets)})


def _unset_fields(verdicts) -> list:
    """The fields of Verdict and Certificate that none of the verdicts
    sets to something other than None and the field's default."""
    certificates = [v.certificate for v in verdicts if v.certificate is not None]
    unset = []
    for cls, objs in ((engine.Verdict, verdicts), (certify.Certificate, certificates)):
        for f in dataclasses.fields(cls):
            default = None if f.default is dataclasses.MISSING else f.default
            if not any(getattr(o, f.name) is not None
                       and (default is None or getattr(o, f.name) != default) for o in objs):
                unset.append(f"{cls.__name__}.{f.name}")
    return unset


def test_report_text_is_its_dict_views_bytes():
    decided = [total_stability(q) for q in _queries()]
    decided += [total_stability(q) for q, _ in _branch_queries()]
    # finite classes: exhaustive certificates carry the triple and the
    # members checked, and a Hill region its coefficients
    a = np.array([[0.3, 0.1, 0.0], [0.2, -0.4, 0.1], [0.0, 0.1, 0.2]])
    decided.append(total_stability(
        Query(a, regions.unit_disk(), classes.vertex_diag(3), MUL, budget=64, seed=2)))
    members = [np.eye(3), np.diag([1.0, 2.0, 3.0]), np.diag([3.0, 1e-3, 2.0])]
    b = _certified(np.random.default_rng(97), Partition.from_sizes([1] * 3), "diag")
    decided.append(total_stability(Query(
        b, regions.hill_region([[0.0, 1.0], [1.0, 0.0]]), classes.explicit_list(members),
        MUL, budget=64, seed=3)))
    for m in (np.array([[2.0]]), np.array([[-2.0]])):  # n = 1
        decided.append(total_stability(Query(m, RHP, classes.pos_diag(1), MUL, budget=64)))
    assert any(v.offending_eigenvalue is not None and v.offending_eigenvalue.imag != 0
               for rep in decided for v in rep.results.values())
    verdicts = _hand_built_verdicts()
    hand_built = [_every_subset(2, verdicts), _every_subset(3, verdicts)]
    # reports without every subset, keyed out of order
    hand_built += [TotalStabilityReport(VerdictStatus.REFUTED, dict(zip(keys, verdicts)))
                   for keys in ([(2,), (0, 2)], [(2,), (0, 2), (1,)])]
    # a field added to Verdict or Certificate fails here until some
    # verdict sets it, so that both encoders are compared on it
    assert _unset_fields([v for rep in decided + hand_built for v in rep.results.values()]) == []
    texts = []
    for rep in decided + hand_built:
        text = serialize.dumps(rep)
        assert _first_difference(text, _text(rep)) is None
        texts.append(text)
    for field in ('"partition":', '"triple":', '"members_checked":', '"hill":',
                  '"coefficients":', "-0.0", "1e-320", "2e+300", "NaN", "-Infinity"):
        assert any(field in text for text in texts), field
