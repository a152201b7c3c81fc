"""dgstab benchmark: seeded workloads against the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``workloads.py`` builds their inputs, each with a known
truth): ``decide_small``, ``decide_large``, ``total_cli`` and
``solvers``.  Load is closed-loop: one caller, each call issued after
the previous one returns.  A run first times ``import dgstab`` plus a
warm-up call (``setup_s``), then times whole passes over the workload's
fixed call sequence until ``S`` seconds have passed, three at least.
Every answer of the first pass is checked against the construction's
truth; every later pass, the traced passes and, for ``decide_large``, a
single-thread pass must reproduce the first pass's verdict digests.

A call's latency is its median over the passes, scaled to a fixed
machine speed by ``reference.py``.  ``--trace 0`` reports the
end-to-end metrics (the tail is the highest percentile with ten calls
beyond it); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (``spans.py``) plus
``trace.overhead_frac``.  Human-readable lines start with ``#``; the
last line is the JSON result.  The exit status is 0 when every check
passed, 1 when one failed, and 2 on a usage error or when the package
sources are missing.
"""

import os

# One BLAS thread, pinned before numpy loads, so that DGSTAB_THREADS is
# the only parallelism.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import Reference  # noqa: E402
from spans import LAYER_UNITS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, Binder, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: dgstab modules the workloads and the tracer use.
MODULES = ("algebra", "certify", "classes", "engine", "errors", "linalg",
           "regions", "serialize", "cli")

#: Set-up (import plus warm-up call) is repeated this often; the median
#: is reported.
SETUP_REPEATS = 5

#: Timed passes per run at least; a call's latency is its median over them.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "answered_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def timed(fn):
    """``(result or exception, raw seconds)`` of one call of ``fn``."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a raising call is a failed call
        out = exc
    return out, time.perf_counter() - t0


def tail_percentile(calls: int) -> float:
    """Highest percentile with ten of the workload's calls beyond it."""
    return 100.0 * (1.0 - 10.0 / calls)


def import_dgstab() -> dict:
    return {name: importlib.import_module(f"dgstab.{name}") for name in MODULES}


def purge_dgstab() -> None:
    for name in [m for m in sys.modules if m == "dgstab" or m.startswith("dgstab.")]:
        del sys.modules[name]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict:
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = "not installed"
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "DGSTAB_THREADS": threads,
        **{var: os.environ[var] for var in BLAS_VARS},
    }


class Pass:
    """Timings and verdict digests of one pass over the calls ``index``."""

    def __init__(self, kind: str, index: list[int]):
        self.kind = kind
        self.index = index
        self.times: list[float] = []  # scaled to the reference speed
        self.raw: list[float] = []
        self.digests: list[bytes] = []
        self.outputs: list = []
        self.spans: list = []

    @property
    def busy(self) -> float:
        return sum(self.times)


def run_pass(calls, kind: str, ref: Reference, index=None, tracer=None,
             keep_outputs=False) -> Pass:
    p = Pass(kind, list(range(len(calls))) if index is None else index)
    refs = [ref.time()]
    for i in p.index:
        call = calls[i]
        if tracer is not None:
            tracer.spans = []
        out, raw = timed(
            (lambda: tracer.run_call(i, call.run)) if tracer else call.run)
        refs.append(ref.time())
        p.raw.append(raw)
        out = call.collect(out)
        p.digests.append(hashlib.sha256(call.digest(out)).digest())
        if keep_outputs:
            p.outputs.append(out)
        if tracer is not None:
            p.spans.extend(tracer.spans)
    p.times = ref.scale(p.raw, refs)
    return p


def setup(warm_input, ref: Reference):
    """Median scaled time of a fresh ``import dgstab`` plus one warm-up
    call."""

    def fresh():
        purge_dgstab()
        dg = import_dgstab()
        call = Binder(dg, str(OUT)).bind(warm_input)
        return dg, call, call.run()

    refs = [ref.time()]
    raw = []
    for _ in range(SETUP_REPEATS):
        (dg, call, out), t = timed(fresh)
        raw.append(t)
        refs.append(ref.time())
    ok, _ = call.check(call.collect(out))
    return dg, statistics.median(ref.scale(raw, refs)), ok


def measure(calls, dg, ref: Reference, seconds: float, tracer) -> list[Pass]:
    """Whole passes until ``seconds`` have passed; with a tracer, every
    second pass is traced."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while (len(passes) < (2 if tracer else MIN_PASSES)
           or time.perf_counter() - start < seconds):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(dg)
        try:
            passes.append(run_pass(calls, "traced" if traced else "untraced", ref,
                                   tracer=tracer if traced else None,
                                   keep_outputs=not passes))
        finally:
            if traced:
                tracer.uninstall()
    return passes


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dgstab" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC / 'dgstab'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    os.environ["DGSTAB_THREADS"] = str(spec.threads)
    OUT.mkdir(exist_ok=True)

    warm, inputs = generate(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    with Reference(spec.reference, spec.threads) as ref:
        dg, setup_s, warm_ok = setup(warm, ref)
        binder = Binder(dg, str(OUT))
        calls = [binder.bind(inp) for inp in inputs]
        passes = measure(calls, dg, ref, args.seconds, tracer)
        extra = []
        if spec.threads > 1:
            # thread-count determinism: an untimed single-thread pass over
            # one call of each label (triple, order and construction)
            first_of = {}
            for i, call in enumerate(calls):
                first_of.setdefault(call.label, i)
            os.environ["DGSTAB_THREADS"] = "1"
            extra.append(run_pass(calls, "threads=1", ref,
                                  index=sorted(first_of.values())))
            os.environ["DGSTAB_THREADS"] = str(spec.threads)

    first = passes[0]
    verdicts = [call.check(out) for call, out in zip(calls, first.outputs)]
    first.outputs = []
    ok = [v[0] for v in verdicts]
    answered = sum(1 for v in verdicts if v[1])
    mismatched = [0] * len(calls)
    for p in passes[1:] + extra:
        for i, d in zip(p.index, p.digests):
            mismatched[i] += d != first.digests[i]
    attempted = sum(len(p.index) for p in passes + extra) + 1
    failed = sum(not ok[i] for p in passes + extra for i in p.index) \
        + sum(mismatched) + (not warm_ok)
    correct = failed == 0

    untraced = [p for p in passes if p.kind == "untraced"]
    latency = np.median([p.times for p in untraced], axis=0)
    pct = tail_percentile(len(calls))
    digest = hashlib.sha256(b"".join(first.digests)).hexdigest()

    print("# env " + json.dumps(environment(spec.threads), sort_keys=True))
    print(f"# workload {args.workload} seed={args.seed}; calls/pass={len(calls)}; "
          f"digest={digest}")
    print("# passes (scaled/raw busy s) " + ", ".join(
        f"{p.kind} {p.busy:.3f}/{sum(p.raw):.3f}" for p in passes + extra))
    print(f"# fail_frac={failed / attempted:.6f} ({failed}/{attempted}); "
          f"answered_frac={answered / len(calls):.6f} ({answered}/{len(calls)})")
    for i, call in enumerate(calls):
        if not ok[i] or mismatched[i]:
            print(f"# FAILED call {i} ({call.label}): check={'ok' if ok[i] else 'failed'} "
                  f"digest mismatches={mismatched[i]}")
    if not warm_ok:
        print("# FAILED warm-up call")

    if tracer is None:
        print(f"# latency of {len(calls)} calls, each the median of {len(untraced)} "
              f"passes; tail percentile p{pct:.4g} (10 calls beyond it)")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "calls_per_s": len(latency) / float(np.sum(latency)),
            "call_ms_p50": 1e3 * float(np.percentile(latency, 50.0)),
            "call_ms_tail": 1e3 * float(np.percentile(latency, pct)),
            "answered_frac": answered / len(calls),
            "setup_s": setup_s,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    else:
        traced = [p for p in passes if p.kind == "traced"]
        layers = [summarize(p.spans, {i: t / r for i, t, r in zip(p.index, p.times, p.raw)})
                  for p in traced]
        metrics = {k: metric(statistics.median(m[k] for m in layers), unit)
                   for k, unit in LAYER_UNITS.items()}
        overhead = (statistics.median(p.busy for p in traced)
                    / statistics.median(p.busy for p in untraced))
        metrics["trace.overhead_frac"] = metric(overhead, "ratio")
        path = OUT / f"spans-{args.workload}-{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.sid, s.name, s.start, s.end, s.parent, s.thread, s.call,
                        s.site, s.count] for s in traced[-1].spans], fh)
        for k, m in metrics.items():
            print(f"# {k} = {m['value']:.6g} {m['unit']}")
        print(f"# spans of the last traced pass written to {path.relative_to(ROOT)}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
