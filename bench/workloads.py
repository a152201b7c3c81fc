"""Seeded workload inputs with known answers, and the per-call checks.

Every input is built so that its truth follows from the construction,
never from the program under test:

* diagonally stable ``A = P^-1 (W/2 + K)`` (``P`` positive diagonal,
  ``W`` positive definite, ``K`` skew) satisfies ``P A + A^T P = W``,
  so ``D A`` is positive stable for every positive diagonal ``D``;
* a block upper-triangular matrix with a 2x2 block ``B`` over a
  diagonally stable block, randomly permuted, is stable for every
  positive diagonal exactly when ``D B`` is.  ``REFUTED_BLOCK`` is
  destabilised by ``d1 > 3 d2``; ``UNKNOWN_BLOCK`` only by
  ``d1 / d2 > 1e9``, far outside the class sampler's range, and its
  negative diagonal entry rules out any diagonal certificate;
* unit-disk vertex instances take their truth from a direct loop over
  all ``2^n`` sign matrices;
* ``u v^T o A = D_u A D_v`` is similar to ``D_v D_u A``, so the
  positive rank-one Hadamard class has the positive-diagonal truth.

Workloads are built in two steps: ``generate`` makes the numpy inputs
from the seed, ``bind`` turns them into calls against an imported
``dgstab``.  A call's ``run`` is the timed user-facing call; ``check``
returns ``(ok, answered)`` for its output and ``digest`` the bytes
whose hash must repeat across passes, thread counts and tracing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

REFUTED_BLOCK = np.array([[-1.0, 2.0], [-4.0, 3.0]])
UNKNOWN_BLOCK = np.array([[-1e-9, 1.0], [-1.0, 1.0]])

#: Relative residual the solver outputs must meet.
SOLVER_RESIDUAL = 1e-8

#: Vertex instances whose worst spectral radius lies this close to 1 are
#: redrawn, so that the truth is not decided by rounding.
VERTEX_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# constructions


def diag_stable(rng: np.random.Generator, n: int, decades: float = 1.0):
    """``(A, p)`` with ``diag(p) A + A^T diag(p)`` positive definite; the
    entries of ``p`` spread over ``decades`` either side of 1."""
    b = rng.standard_normal((n, n))
    w = b @ b.T + 0.5 * np.eye(n)
    k = rng.standard_normal((n, n))
    k = k - k.T
    p = 10.0 ** rng.uniform(-decades, decades, n)
    return np.linalg.solve(np.diag(p), 0.5 * w + k), p


def block_instance(rng: np.random.Generator, n: int, block: np.ndarray):
    """``[[B, C], [0, S]]`` with diagonally stable ``S``, randomly
    permuted; returns ``(A, perm)`` where ``A = M[perm][:, perm]``."""
    m = np.zeros((n, n))
    m[:2, :2] = block
    if n > 2:
        m[2:, 2:] = diag_stable(rng, n - 2)[0]
        m[:2, 2:] = rng.standard_normal((2, n - 2))
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)], perm


def vertex_worst_radius(a: np.ndarray) -> float:
    """Largest spectral radius of ``S A`` over all sign matrices ``S``,
    by direct evaluation of every one of them."""
    n = a.shape[0]
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    worst = 0.0
    for lo in range(0, len(signs), 1024):
        stack = signs[lo:lo + 1024, :, None] * a[None, :, :]
        worst = max(worst, float(np.abs(np.linalg.eigvals(stack)).max()))
    return worst


def vertex_instance(rng: np.random.Generator, n: int, stable: bool):
    """Unit-disk vertex instance; an unstable one keeps ``rho(A) < 1`` so
    that only a sign pattern other than the identity destabilises it."""
    lo, hi = (0.15, 0.6) if stable else (0.6, 1.0)
    while True:
        a = rng.standard_normal((n, n)) * rng.uniform(lo, hi) / np.sqrt(n)
        worst = vertex_worst_radius(a)
        if abs(worst - 1.0) < VERTEX_MARGIN or (worst < 1.0) != stable:
            continue
        if stable or np.max(np.abs(np.linalg.eigvals(a))) < 1.0 - VERTEX_MARGIN:
            return a


def separated(rng: np.random.Generator, n: int, mode: str):
    """Random ``A`` whose equation operator is well conditioned: no two
    eigenvalues sum to (``lyap``) or multiply to (``stein``) within 0.05
    of the singular value."""
    while True:
        a = rng.standard_normal((n, n))
        w = np.linalg.eigvals(a)
        gaps = (np.abs(w[:, None] + w[None, :]) if mode == "lyap"
                else np.abs(w[:, None] * w[None, :] - 1.0))
        if gaps.min() > 0.05:
            return a, w


def singular_operator(rng: np.random.Generator, n: int, mode: str):
    """``A = S diag(lam) S^-1`` with ``lam_1 = -lam_0`` (``lyap``) or
    ``lam_1 = 1 / lam_0`` (``stein``), so the equation operator is
    singular."""
    lam = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    lam[1] = -lam[0] if mode == "lyap" else 1.0 / lam[0]
    while True:
        s = rng.standard_normal((n, n))
        if np.linalg.cond(s) < 1e3:
            return s @ np.diag(lam) @ np.linalg.inv(s)


# ---------------------------------------------------------------------------
# input generation (numpy only)


@dataclass
class Input:
    label: str
    kind: str            # decide | total | lyap | stein
    a: np.ndarray
    stable: bool = True  # decide/total: the property holds for every member
    triple: str = ""     # decide: rhp_pos_diag_mul | rhp_rank1_hadamard | disk_vertex_mul
    seed: int = 0
    budget: int = 10_000
    w: np.ndarray | None = None
    singular: bool = False
    plus: int = 0        # lyap: eigenvalues of A with positive real part
    certificates: bool = True  # decide: run the certificate stage


def _query_seed(rng) -> int:
    return int(rng.integers(1 << 30))


def _group(rng, n, group):
    if group == "certified":
        return diag_stable(rng, n)[0], True
    block = REFUTED_BLOCK if group == "refuted" else UNKNOWN_BLOCK
    return block_instance(rng, n, block)[0], False


def _decide_small(rng):
    out = []
    for _ in range(2):
        for n in (2, 3, 4, 6, 8):
            for group in ("certified", "refuted", "unknown"):
                a, stable = _group(rng, n, group)
                out.append(Input(f"pos_diag n={n} {group}", "decide", a, stable,
                                 "rhp_pos_diag_mul", _query_seed(rng)))
    for n in (8, 10, 12):
        for stable in (True, False):
            a = vertex_instance(rng, n, stable)
            group = "certified" if stable else "refuted"
            out.append(Input(f"vertex n={n} {group}", "decide", a, stable,
                             "disk_vertex_mul", _query_seed(rng)))
    return out


def _decide_large(rng):
    # Falsification only: the certificate stage is off, since n=32 ascents
    # (1-1.6 s, succeeding on a third of certified instances) would swamp
    # it; decide_small measures that stage.  n=32 gets twice the copies of
    # n=16, so the median and the tail fall among n=32 calls.
    out = []
    for n in (16, 16, 32, 32, 32, 32):
        for group in ("certified", "refuted", "unknown"):
            a, stable = _group(rng, n, group)
            for triple in ("rhp_pos_diag_mul", "rhp_rank1_hadamard"):
                out.append(Input(f"{triple} n={n} {group}", "decide", a, stable,
                                 triple, _query_seed(rng), budget=2_000,
                                 certificates=False))
    return out


def _total_cli(rng):
    # p = 1: every principal submatrix has a positive definite symmetric
    # part, so each subset certifies at the ascent's first iterate and the
    # calls measure per-sub-decide overhead, never a long search
    out = []
    for _ in range(8):
        for n in (6, 7, 8):
            a = diag_stable(rng, n, decades=0.0)[0]
            seed = _query_seed(rng)
            out.append(Input(f"total n={n} stable", "total", a, True, seed=seed))
            out.append(Input(f"total n={n} negated", "total", -a, False, seed=seed))
    return out


def _solvers(rng):
    out = []
    for n, reps in ((8, 8), (16, 4), (24, 4), (32, 3)):
        for _ in range(reps):
            a, w = separated(rng, n, "lyap")
            b = rng.standard_normal((n, n))
            out.append(Input(f"lyap n={n}", "lyap", a, w=b @ b.T / n + np.eye(n),
                             plus=int(np.sum(w.real > 0))))
            a, _ = separated(rng, n, "stein")
            b = rng.standard_normal((n, n))
            out.append(Input(f"stein n={n}", "stein", a, w=b + b.T))
    for n in (8, 16):
        for mode in ("lyap", "stein"):
            b = rng.standard_normal((n, n))
            out.append(Input(f"{mode} n={n} singular", mode,
                             singular_operator(rng, n, mode), w=b + b.T,
                             singular=True))
    return out


def _warm_solvers(rng):
    a, w = separated(rng, 8, "lyap")
    return Input("warm-up", "lyap", a, w=np.eye(8), plus=int(np.sum(w.real > 0)))


@dataclass(frozen=True)
class Spec:
    threads: int                  # DGSTAB_THREADS
    reference: str                # kind of machine-speed reference work
    make: Callable                # rng -> call inputs
    warm: Callable                # rng -> the set-up's warm-up input


WORKLOADS = {
    "decide_small": Spec(1, "interp", _decide_small, lambda rng: Input(
        "warm-up", "decide", diag_stable(rng, 2)[0], True, "rhp_pos_diag_mul",
        seed=1)),
    "decide_large": Spec(2, "threads", _decide_large, lambda rng: Input(
        "warm-up", "decide", block_instance(rng, 16, REFUTED_BLOCK)[0], False,
        "rhp_rank1_hadamard", seed=1, budget=2_000, certificates=False)),
    "total_cli": Spec(1, "interp", _total_cli, lambda rng: Input(
        "warm-up", "total", diag_stable(rng, 3, decades=0.0)[0], True, seed=1)),
    "solvers": Spec(1, "lapack", _solvers, _warm_solvers),
}


def generate(workload: str, seed: int):
    """``(warm-up input, call inputs)`` for the workload and seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x646773]))
    spec = WORKLOADS[workload]
    inputs = spec.make(rng)
    return spec.warm(rng), inputs


# ---------------------------------------------------------------------------
# binding to the program


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, bool]]
    digest: Callable[[object], bytes]
    #: untimed post-processing of ``run``'s output, before the next call
    collect: Callable[[object], object] = lambda out: out


def _exc_digest(out) -> bytes | None:
    if isinstance(out, BaseException):
        return f"{type(out).__name__}: {out}".encode()
    return None


class Binder:
    """Builds calls against one imported ``dgstab``; ``dg`` is a mapping
    from module name (``engine``, ``cli``, ...) to module object."""

    def __init__(self, dg: dict, out_dir: str):
        self.dg = dg
        self.out_dir = out_dir

    # -- decide ------------------------------------------------------------

    def _triple(self, inp: Input):
        dg = self.dg
        n = inp.a.shape[0]
        if inp.triple == "rhp_pos_diag_mul":
            return dg["regions"].right_half_plane(), dg["classes"].pos_diag(n), \
                dg["algebra"].MUL
        if inp.triple == "rhp_rank1_hadamard":
            return dg["regions"].right_half_plane(), \
                dg["classes"].rank_k_positive(n, 1), dg["algebra"].HADAMARD
        if inp.triple == "disk_vertex_mul":
            return dg["regions"].unit_disk(), dg["classes"].vertex_diag(n), \
                dg["algebra"].MUL
        raise ValueError(inp.triple)

    def _witness_ok(self, region, cls, op, g, a, tol) -> bool:
        dg = self.dg
        if g is None or not dg["classes"].contains(cls, g, 1e-7):
            return False
        lams = np.linalg.eigvals(dg["algebra"].apply(op, g, a))
        return float(np.max(dg["regions"].exterior_margins(region, lams))) > tol

    def _decide(self, inp: Input) -> Call:
        dg = self.dg
        region, cls, op = self._triple(inp)
        engine = dg["engine"]
        q = engine.Query(inp.a, region, cls, op, budget=inp.budget, seed=inp.seed)
        status = engine.VerdictStatus

        def run():
            return dg["engine"].decide(q, use_certificates=inp.certificates)

        def check(v):
            if isinstance(v, BaseException):
                return False, False
            if v.status is status.CERTIFIED:
                ok = inp.stable and v.certificate is not None and \
                    dg["certify"].verify_certificate(v.certificate, q.a)
                return ok, ok
            if v.status is status.REFUTED:
                ok = not inp.stable and self._witness_ok(
                    region, cls, op, v.witness, q.a, q.tol)
                return ok, ok
            return v.status is status.UNKNOWN, False

        def digest(v):
            ser = dg["serialize"]
            return _exc_digest(v) or ser.dumps(ser.verdict_to_json(v)).encode()

        return Call(inp.label, run, check, digest)

    # -- total via the command line -----------------------------------------

    def _total(self, inp: Input) -> Call:
        dg = self.dg
        n = inp.a.shape[0]
        path = os.path.join(self.out_dir, "total.json")
        matrix = json.dumps({"n": n, "data": inp.a.tolist()})
        argv = ["total", "--matrix", matrix, "--region", "rhp", "--class",
                "pos_diag", "--op", "mul", "--seed", str(inp.seed), "--out", path]

        def run():
            return dg["cli"].main(argv)

        def collect(code):
            if isinstance(code, BaseException):
                return code
            with open(path, encoding="utf-8") as fh:
                return code, fh.read()

        def check(out):
            if isinstance(out, BaseException):
                return False, False
            code, text = out
            report = json.loads(text)
            certify, classes, linalg = dg["certify"], dg["classes"], dg["linalg"]
            rhp = dg["regions"].right_half_plane()
            statuses = []
            for key, v in report["subsets"].items():
                idx = tuple(int(i) - 1 for i in key.split(","))
                sub = linalg.principal_submatrix(inp.a, idx)
                s = v["status"]
                statuses.append(s)
                if s == "certified":
                    c = v.get("certificate") or {}
                    if not inp.stable or "witness" not in c:
                        return False, False
                    cert = certify.Certificate(
                        certify.CertKind(c["kind"]),
                        np.asarray(c["witness"]["data"], dtype=float),
                        float(c["min_eig"]))
                    if not certify.verify_certificate(cert, sub):
                        return False, False
                elif s == "refuted":
                    g = np.asarray(v["witness"]["data"], dtype=float)
                    if inp.stable or not self._witness_ok(
                            rhp, classes.pos_diag(len(idx)), dg["algebra"].MUL,
                            g, sub, 1e-7):
                        return False, False
                elif s != "unknown":
                    return False, False
            if len(statuses) != 2 ** n - 1:
                return False, False
            overall = ("refuted" if "refuted" in statuses else
                       "certified" if set(statuses) == {"certified"} else "unknown")
            exits = {"certified": 0, "refuted": 1, "unknown": 2}
            if report["overall"] != overall or code != exits[overall]:
                return False, False
            return True, overall == ("certified" if inp.stable else "refuted")

        def digest(out):
            return _exc_digest(out) or f"{out[0]}\n{out[1]}".encode()

        return Call(inp.label, run, check, digest, collect)

    # -- equation solvers ----------------------------------------------------

    def _solve(self, inp: Input) -> Call:
        dg = self.dg
        a, w = inp.a, inp.w
        name = "solve_lyapunov" if inp.kind == "lyap" else "solve_stein"

        def run():
            return getattr(dg["linalg"], name)(a, w)

        def check(h):
            singular = isinstance(h, dg["errors"].SingularOperatorError)
            if inp.singular or isinstance(h, BaseException):
                return singular and inp.singular, singular and inp.singular
            res = h @ a + a.T @ h if inp.kind == "lyap" else h - a.T @ h @ a
            ok = np.linalg.norm(res - w) <= SOLVER_RESIDUAL * np.linalg.norm(w)
            if inp.kind == "lyap":
                rhp = dg["regions"].right_half_plane()
                inertia = dg["regions"].inertia_of(rhp, np.linalg.eigvalsh(h))
                n = a.shape[0]
                ok = ok and inertia.as_tuple() == (inp.plus, 0, n - inp.plus)
            return bool(ok), bool(ok)

        def digest(h):
            return _exc_digest(h) or np.ascontiguousarray(h).tobytes()

        return Call(inp.label, run, check, digest)

    def bind(self, inp: Input) -> Call:
        if inp.kind == "decide":
            return self._decide(inp)
        if inp.kind == "total":
            return self._total(inp)
        return self._solve(inp)
