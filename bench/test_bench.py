"""Tests for the benchmark itself: constructions, checks and tracer.

    python -m pytest -q bench
"""

import itertools
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

DG = run.import_dgstab()


def _spectrum_rhp(m) -> bool:
    return bool(np.all(np.linalg.eigvals(m).real > 0.0))


def _block_diagonal(perm, d_block):
    """Diagonal in the permuted coordinates of ``block_instance``: the
    2x2 block's rows get ``d_block``, all other rows 1."""
    d = np.ones(len(perm))
    for i, src in enumerate(perm):
        if src < 2:
            d[i] = d_block[src]
    return np.diag(d)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 32])
def test_constructed_witness_verifies(n):
    rng = np.random.default_rng(n)
    a, p = wl.diag_stable(rng, n)
    form = np.diag(p) @ a + a.T @ np.diag(p)
    cert = DG["certify"].Certificate(
        DG["certify"].CertKind.DIAGONAL_LYAPUNOV, np.diag(p),
        float(np.linalg.eigvalsh(form)[0]))
    assert DG["certify"].verify_certificate(cert, a)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_refuted_block_truth(n):
    a, perm = wl.block_instance(np.random.default_rng(n), n, wl.REFUTED_BLOCK)
    assert _spectrum_rhp(a)
    assert not _spectrum_rhp(_block_diagonal(perm, (10.0, 1.0)) @ a)


@pytest.mark.parametrize("n", [2, 5, 32])
def test_unknown_block_truth(n):
    a, perm = wl.block_instance(np.random.default_rng(n), n, wl.UNKNOWN_BLOCK)
    assert _spectrum_rhp(a)
    # the sampler's extreme ratio 1e6 keeps it stable, ratio 1e10 does not
    assert _spectrum_rhp(_block_diagonal(perm, (1e3, 1e-3)) @ a)
    assert not _spectrum_rhp(_block_diagonal(perm, (1e5, 1e-5)) @ a)
    # a negative diagonal entry rules out every diagonal certificate
    assert np.min(np.diag(a)) < 0.0


def test_rank_one_hadamard_is_diagonal_similarity():
    rng = np.random.default_rng(7)
    a = wl.diag_stable(rng, 6)[0]
    u, v = rng.uniform(0.1, 10.0, (2, 6))
    lhs = np.sort_complex(np.linalg.eigvals(np.outer(u, v) * a))
    rhs = np.sort_complex(np.linalg.eigvals(np.diag(v * u) @ a))
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("n", [3, 6])
def test_vertex_truth_loops_agree(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = rng.standard_normal((n, n)) * rng.uniform(0.2, 1.3) / np.sqrt(n)
        direct = max(
            float(np.max(np.abs(np.linalg.eigvals(np.diag(s) @ a))))
            for s in itertools.product((1.0, -1.0), repeat=n))
        assert wl.vertex_worst_radius(a) == pytest.approx(direct, rel=1e-12)
    for stable in (True, False):
        a = wl.vertex_instance(rng, n, stable)
        assert (wl.vertex_worst_radius(a) < 1.0) == stable


@pytest.mark.parametrize("mode", ["lyap", "stein"])
def test_singular_constructions_raise(mode):
    a = wl.singular_operator(np.random.default_rng(3), 8, mode)
    solve = DG["linalg"].solve_lyapunov if mode == "lyap" else DG["linalg"].solve_stein
    with pytest.raises(DG["errors"].SingularOperatorError):
        solve(a, np.eye(8))


def test_checks_reject_wrong_answers(tmp_path):
    binder = wl.Binder(DG, str(tmp_path))
    rng = np.random.default_rng(11)
    stable = wl.Input("s", "decide", wl.diag_stable(rng, 4)[0], True,
                      "rhp_pos_diag_mul", seed=1)
    call = binder.bind(stable)
    engine = DG["engine"]
    wrong = engine.Verdict(engine.VerdictStatus.REFUTED, witness=np.eye(4))
    assert call.check(wrong) == (False, False)
    bogus = DG["certify"].Certificate(
        DG["certify"].CertKind.DIAGONAL_LYAPUNOV, -np.eye(4), 1.0)
    assert call.check(engine.Verdict(engine.VerdictStatus.CERTIFIED,
                                     certificate=bogus)) == (False, False)
    assert call.check(engine.Verdict(engine.VerdictStatus.UNKNOWN)) == (True, False)
    assert call.check(ValueError("boom")) == (False, False)
    assert call.check(call.run()) == (True, True)


def _small_inputs(rng):
    a_ref = wl.block_instance(rng, 4, wl.REFUTED_BLOCK)[0]
    a_stable = wl.diag_stable(rng, 4)[0]
    b = rng.standard_normal((8, 8))
    return [
        wl.Input("cert", "decide", wl.diag_stable(rng, 3)[0], True,
                 "rhp_pos_diag_mul", seed=1),
        wl.Input("ref", "decide", a_ref, False, "rhp_pos_diag_mul", seed=2),
        wl.Input("unk", "decide", wl.block_instance(rng, 3, wl.UNKNOWN_BLOCK)[0],
                 False, "rhp_pos_diag_mul", seed=3, budget=1_500),
        wl.Input("had", "decide", a_stable, True, "rhp_rank1_hadamard", seed=4,
                 budget=1_500),
        wl.Input("vertex", "decide", wl.vertex_instance(rng, 6, True), True,
                 "disk_vertex_mul", seed=5),
        wl.Input("total", "total", a_stable, True, seed=6),
        wl.Input("total-", "total", -a_stable, False, seed=6),
        wl.Input("lyap", "lyap", wl.separated(rng, 8, "lyap")[0], w=np.eye(8),
                 plus=0),
        wl.Input("stein", "stein", wl.separated(rng, 8, "stein")[0], w=b + b.T),
        wl.Input("sing", "stein", wl.singular_operator(rng, 8, "stein"),
                 w=b + b.T, singular=True),
    ]


def test_wrappers_leave_digests_unchanged(tmp_path, monkeypatch):
    monkeypatch.setenv("DGSTAB_THREADS", "2")
    binder = wl.Binder(DG, str(tmp_path))
    calls = [binder.bind(inp) for inp in _small_inputs(np.random.default_rng(5))]
    ref = reference.Reference("interp")
    plain = run.run_pass(calls, "untraced", ref)
    tracer = spans.Tracer()
    originals = {attr: getattr(DG["classes"], attr)
                 for attr in ("sample_batch", "enumerate_members")}
    tracer.install(DG)
    try:
        traced = run.run_pass(calls, "traced", ref, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.digests == plain.digests
    for attr, fn in originals.items():
        assert getattr(DG["classes"], attr) is fn
    assert np.linalg.eigvals.__module__ == "numpy.linalg"
    names = {s.name for s in traced.spans}
    assert {"engine.decide", "certify.search", "classes.sample_batch",
            "classes.enumerate_members", "linalg.eigvals", "linalg.eigh",
            "cli.main", "serialize.dumps", "linalg.solve_stein"} <= names
    layers = spans.summarize(traced.spans, {i: 1.0 for i in traced.index})
    assert set(layers) == set(spans.LAYER_UNITS)
    assert layers["engine.decide.calls"] == 5 + 2 * 15
    assert layers["linalg.solve_stein.n8.ms"] > 0.0
    assert layers["engine.falsify.concurrency"] >= 1.0


def test_single_thread_digests_match(tmp_path, monkeypatch):
    binder = wl.Binder(DG, str(tmp_path))
    inputs = [inp for inp in _small_inputs(np.random.default_rng(9))
              if inp.kind == "decide"]
    calls = [binder.bind(inp) for inp in inputs]
    with reference.Reference("threads", 2) as ref:
        monkeypatch.setenv("DGSTAB_THREADS", "2")
        two = run.run_pass(calls, "threads=2", ref)
        monkeypatch.setenv("DGSTAB_THREADS", "1")
        one = run.run_pass(calls, "threads=1", ref)
    assert one.digests == two.digests


def test_self_time_subtracts_covered_children():
    s = spans.Span
    parent = s(1, "p", 0.0, 10.0, None, 1, 0, "x")
    kids = [s(2, "c", 1.0, 4.0, 1, 1, 0, "x"), s(3, "c", 3.0, 5.0, 1, 2, 0, "x"),
            s(4, "c", 9.0, 12.0, 1, 2, 0, "x")]
    assert spans.self_times([parent] + kids)[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_tail_percentile_keeps_ten_calls_beyond():
    for calls in (20, 36, 48, 1000):
        pct = run.tail_percentile(calls)
        assert calls * (1.0 - pct / 100.0) == pytest.approx(10.0)


def test_reference_scaling_uses_nearby_readings():
    ref = reference.Reference("interp")
    nominal = reference.NOMINAL["interp"]
    readings = [nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal, 2 * nominal]
    out = ref.scale([1.0] * 5, readings)
    assert out[0] == pytest.approx(1.0)
    assert out[-1] == pytest.approx(0.5)
    assert ref.time() > 0.0


def test_missing_sources_exit_nonzero(tmp_path):
    import shutil
    import subprocess

    bench = tmp_path / "bench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "solvers", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout == ""
