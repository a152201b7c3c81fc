"""Planted faults: each weakens one check that a verdict rests on, and
some test must fail with it in place.

For each fault in ``FAULTS`` the script copies ``src`` into a temporary
directory, replaces the fault's old text, which must occur exactly once
in its file, by the new text there, and runs
``python -X dev -W error -m pytest -q -x`` on the fault's test files
against that copy.  The fault is caught when a test fails; the test that
failed is then run once more against an unchanged copy, where it must
pass, so that a test broken for another reason catches nothing.  A
fault that no test catches, because it is judged equivalent or no input
was found that tells it apart, is listed in ``EXEMPT`` with its reason:
its old text is checked, but no test runs.  The checkout itself is never
changed.

Run from anywhere, after the unit tests pass::

    python tests/planted_faults.py

It prints one line per fault and exits 0 when every fault is caught and
every old text occurs once, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Fault(NamedTuple):
    name: str
    file: str  # relative to src/dgstab
    old: str
    new: str
    tests: tuple[str, ...]  # relative to tests


FAULTS = (
    Fault("a certificate's witness is not checked for class membership",
          "certify.py",
          "    ok = classes.are_members([_at(cert.kind, k, part)[0] for part in partitions], p)\n",
          "    ok = np.ones(len(p), dtype=bool)\n",
          ("test_certify.py",)),
    Fault("the exit rule counts a margin above -tol as an exit",
          "regions.py",
          "    return margins, margins.max(axis=1) > tol\n",
          "    return margins, margins.max(axis=1) > -tol\n",
          ("test_regions.py",)),
    Fault("the positive-definiteness test accepts a pivot down to -100 tol",
          "linalg.py",
          "    thr = tol * np.abs(np.diagonal(sym, axis1=1, axis2=2)).max(axis=1)\n",
          "    thr = -100 * tol * np.abs(np.diagonal(sym, axis1=1, axis2=2)).max(axis=1)\n",
          ("test_linalg.py",)),
    Fault("the Stein pairing claims the diagonal box [-2, 2]",
          "certify.py",
          "classes.vertex_diag(n), classes.box_diag([-1.0] * n, [1.0] * n))))),\n",
          "classes.vertex_diag(n), classes.box_diag([-2.0] * n, [2.0] * n))))),\n",
          ("test_certify.py",)),
    Fault("the spectral radius bound takes one square root too many",
          "linalg.py",
          "    for _ in range(GELFAND_SQUARINGS):\n        r = np.sqrt(r)\n",
          "    for _ in range(GELFAND_SQUARINGS + 1):\n        r = np.sqrt(r)\n",
          ("test_linalg.py",)),
    Fault("enumeration skips members up to 1.001 times the solve floor",
          "certify.py",
          "floor = min(radius, 1.0 - region.boundary_tol) * (1.0 - 1e-9)\n",
          "floor = min(radius, 1.0 - region.boundary_tol) * (1.0 + 1e-3)\n",
          ("test_enumeration_oracle.py",)),
    Fault("a positive diagonal may hold a zero entry",
          "classes.py",
          "        return _offdiag_within(absm, thr) & (d > 0.0).all(axis=1)\n",
          "        return _offdiag_within(absm, thr) & (d >= 0.0).all(axis=1)\n",
          ("test_classes.py",)),
    Fault("the identity check composes the first rows of a stack, not its own",
          "engine.py",
          "algebra.apply(op, ident, a if len(rows) == len(a) else a[rows])",
          "algebra.apply(op, ident, a if len(rows) == len(a) else a[:len(rows)])",
          ("test_engine.py", "test_total_oracle.py")),
    Fault("a band region's exterior starts at depth t instead of -t",
          "regions.py",
          "np.where(s > t, 1, np.where(s < -t, -1, 0))",
          "np.where(s > t, 1, np.where(s < t, -1, 0))",
          ("test_region_oracle.py",)),
    Fault("a Hill region's -z image has the wrong sign",
          "regions.py",
          "    return hill_region(c * signs, region.sense, region.boundary_tol)\n",
          "    return hill_region(-c * signs, region.sense, region.boundary_tol)\n",
          ("test_region_oracle.py",)),
    Fault("the finite-class stage accepts a search report without certify.proves",
          "engine.py",
          "    cert = certify.proves(report.certificate, q.a, q.region, q.cls, q.op)\n",
          "    cert = report.certificate\n",
          ("test_enumeration_oracle.py",)),
    Fault("the member scan keeps only the last chunk's overflow count",
          "engine.py",
          "                overflowed += skipped\n",
          "                overflowed = skipped\n",
          ("test_search_oracle.py",)),
    Fault("the row-scaled search keeps an entry that D0 A turns subnormal",
          "certify.py",
          "    if not np.isfinite(b).all() or (np.abs(b[a != 0.0]) < _TINY).any():\n",
          "    if not np.isfinite(b).all():\n",
          ("test_certify.py",)),
    Fault("a row-scaled witness maps back without D0",
          "certify.py",
          "        w = np.ldexp(p, rows.min() - rows)  # P' D0 / max(D0), by columns\n",
          "        w = p.copy()\n",
          ("test_certify.py",)),
    Fault("the list scan counts a found member's evaluations from its stack's start",
          "engine.py",
          "                                               done + i + 1)\n",
          "                                               done + 1)\n",
          ("test_search_oracle.py",)),
)

EXEMPT = (
    (Fault("the spectral radius bound drops its rounding term",
           "linalg.py", "    r = norm + d\n", "    r = norm\n", ()),
     "the bound stays above the radius on every input tried: 300,000 matrices of "
     "order 1, the same as diag(x, 0), and 100,000 scaled rotations (bound / "
     "radius >= 1.044). Each squaring's norm bound already carries a factor "
     "1 + (n^2 + 8) 2u, above the relative error gamma_n of a product whose "
     "Frobenius norm is near its bound; d outgrows it only under cancellation, "
     "where the Gelfand bound itself is far above the radius."),
    (Fault("the principal-minor refutation also tries t where the exact sum is 0",
           "engine.py",
           "        if sum(c << (e * m) for m, c in enumerate(coeffs)) >= 0:\n",
           "        if sum(c << (e * m) for m, c in enumerate(coeffs)) > 0:\n", ()),
     "judged equivalent: where the exact sum of principal minors is 0, the fault "
     "only lets regions.first_exit test that t as well; no input was found where "
     "it exits there, and an exit it found would be a witness beyond tol all the "
     "same, so the loop goes on to the next t as it does without the fault."),
)


def _copy_src(dest: Path, fault: Fault | None = None) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if fault is not None:
        path = src / "dgstab" / fault.file
        text = path.read_text()
        path.write_text(text.replace(fault.old, fault.new))
    return src


def _pytest(src: Path, args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q", "-x",
         "-p", "no:cacheprovider", *args],
        cwd=ROOT, env=env, capture_output=True, text=True)


def _failed_test(out: str) -> str | None:
    """The id of the first test that the summary reports as failed."""
    for line in out.splitlines():
        if line.startswith("FAILED "):
            return line[len("FAILED "):].split(" - ")[0]
    return None


def _occurs_once(fault: Fault) -> bool:
    return (ROOT / "src" / "dgstab" / fault.file).read_text().count(fault.old) == 1


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy_src(Path(tmp) / "clean")
        for fault in FAULTS:
            if not _occurs_once(fault):
                print(f"MISSING   {fault.name}: its old text does not occur once in {fault.file}")
                ok = False
                continue
            start = time.perf_counter()
            with tempfile.TemporaryDirectory(dir=tmp) as work:
                src = _copy_src(Path(work), fault)
                run = _pytest(src, [f"tests/{t}" for t in fault.tests])
            test = _failed_test(run.stdout) if run.returncode == 1 else None
            secs = time.perf_counter() - start
            if test is None:
                print(f"SURVIVED  {fault.name} ({fault.file}; pytest exit "
                      f"{run.returncode}, {secs:.1f} s)")
                print(run.stdout[-2000:] + run.stderr[-2000:])
                ok = False
            elif _pytest(clean, [test]).returncode != 0:
                print(f"BROKEN    {fault.name}: {test} fails without the fault too")
                ok = False
            else:
                print(f"caught    {fault.name} ({fault.file}) by {test}, {secs:.1f} s")
        for fault, reason in EXEMPT:
            if not _occurs_once(fault):
                print(f"MISSING   {fault.name}: its old text does not occur once in {fault.file}")
                ok = False
                continue
            print(f"exempt    {fault.name} ({fault.file}): {reason}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
