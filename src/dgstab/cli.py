"""Command-line front end.

Subcommands wrap the library one-to-one: ``check`` runs the full
decision pipeline, ``certify``/``falsify``/``stabilize``/``inertia``/
``total``/``laws`` call the corresponding operations, and ``plot``
renders an SVG eigenvalue cloud.  Output is canonical JSON on stdout
(byte-identical across runs for equal inputs and seed).

Exit codes: 0 certified / found, 1 refuted, 2 unknown / not found,
64 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import algebra, certify, classes, engine, linalg, regions, serialize

__all__ = ["main"]

EXIT_CERTIFIED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64

_STATUS_EXIT = {
    engine.VerdictStatus.CERTIFIED: EXIT_CERTIFIED,
    engine.VerdictStatus.REFUTED: EXIT_REFUTED,
    engine.VerdictStatus.UNKNOWN: EXIT_UNKNOWN,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_matrix(spec: str) -> np.ndarray:
    if spec.lstrip().startswith(("{", "[")):
        return serialize.load_matrix_text(spec)
    with open(spec, "r", encoding="utf-8") as fh:
        return serialize.load_matrix_text(fh.read())


def _spec(spec: str):
    """A region or class spec: a JSON object parsed, a name as given."""
    return json.loads(spec) if spec.lstrip().startswith("{") else spec


def _emit(args, payload) -> None:
    """Write a payload, verdict or report as canonical JSON
    (``serialize.dumps``), or text as given, to ``--out`` or stdout."""
    text = payload if isinstance(payload, str) else serialize.dumps(payload)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_query_flags(p: _Parser) -> None:
    p.add_argument("--matrix", required=True,
                   help="matrix file (JSON or CSV) or inline JSON")
    p.add_argument("--region", required=True,
                   help="region name or JSON spec")
    p.add_argument("--class", dest="cls", required=True,
                   help="class name or JSON spec")
    p.add_argument("--op", choices=["add", "mul", "hadamard"], required=True)
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--out", default=None, help="write output to a file")


def _build_query(args) -> engine.Query:
    """The query of the query flags; ``engine.Query`` validates it, for
    every subcommand that takes them."""
    a = _load_matrix(args.matrix)
    region = serialize.region_from_json(_spec(args.region))
    cls = serialize.class_from_json(_spec(args.cls), a.shape[0])
    op = algebra.BinaryOp(algebra.OpKind(args.op), algebra.Side(args.side))
    return engine.Query(a, region, cls, op,
                        budget=args.budget, seed=args.seed, tol=args.tol)


def _cmd_check(args) -> int:
    v = engine.decide(_build_query(args), use_certificates=not args.no_certificates)
    _emit(args, v)
    return _STATUS_EXIT[v.status]


#: The certificate kinds ``certify --kind`` searches, by name.
_CERT_KINDS = {
    "diagonal": certify.CertKind.DIAGONAL_LYAPUNOV,
    "stein": certify.CertKind.STEIN_DIAGONAL,
    "alpha_scalar": certify.CertKind.ALPHA_SCALAR_LYAPUNOV,
    "block": certify.CertKind.BLOCK_LYAPUNOV,
    "identity": certify.CertKind.IDENTITY_LYAPUNOV,
}


def _cmd_certify(args) -> int:
    a = _load_matrix(args.matrix)
    part = None
    if args.kind in ("alpha_scalar", "block"):
        if not args.partition:
            raise UsageError(f"--kind {args.kind} requires --partition")
        part = serialize._partition_from_wire(json.loads(args.partition))
    report = certify._search(_CERT_KINDS[args.kind], a, part)
    if not math.isfinite(report.best_min_eig):  # JSON has no infinity
        raise UsageError("the certified form overflowed; rescale the inputs")
    payload: dict = {"found": report.found,
                     "best_min_eig": float(report.best_min_eig),
                     "iterations": report.iterations}
    if report.found:
        payload["certificate"] = serialize.certificate_to_json(report.certificate)
        payload["implied_triples"] = [serialize._triple_to_json(t) for t in
                                      certify.implied_stabilities(report.certificate)]
    _emit(args, payload)
    return EXIT_CERTIFIED if report.found else EXIT_UNKNOWN


def _cmd_falsify(args) -> int:
    v = engine.falsify(_build_query(args))
    _emit(args, v)
    return _STATUS_EXIT[v.status]


def _cmd_stabilize(args) -> int:
    q = _build_query(args)
    report = engine.stabilize(q.a, q.region, q.cls, q.op, budget=q.budget, seed=q.seed)
    payload: dict = {"found": report.found, "evaluations": report.evaluations}
    if report.found:
        payload["witness"] = serialize.matrix_to_json(report.witness)
    _emit(args, payload)
    return EXIT_CERTIFIED if report.found else EXIT_UNKNOWN


def _cmd_inertia(args) -> int:
    a = linalg.as_square_matrix(_load_matrix(args.matrix))
    region = serialize.region_from_json(_spec(args.region))
    inertia = regions.inertia_of(region, np.linalg.eigvals(a))
    _emit(args, {"i_plus": inertia.i_plus, "i_zero": inertia.i_zero,
                 "i_minus": inertia.i_minus})
    return EXIT_CERTIFIED


def _cmd_total(args) -> int:
    report = engine.total_stability(_build_query(args))
    _emit(args, report)
    return _STATUS_EXIT[report.overall]


def _cmd_laws(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    table = algebra.law_table(args.trials, args.n, rng)
    payload = {}
    for kind, row in table.items():
        payload[kind.value] = {
            law: {
                "max_deviation": rep.max_deviation,
                "expected": algebra.EXPECTED_LAWS[law][kind],
                "holds": rep.holds(algebra.law_gate(law, kind)),
                "has_witness": rep.witness is not None,
            }
            for law, rep in row.items()
        }
    _emit(args, payload)
    return EXIT_CERTIFIED


def _svg_circle(x: float, y: float, r: float, fill: str) -> str:
    return f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r}" fill="{fill}"/>'


def _region_overlay(region: regions.Region, to_px, lo, hi) -> list[str]:
    """Boundary overlay for the plot; best effort per kind."""
    parts = []
    k = region.kind
    stroke = 'stroke="#c33" stroke-width="1.5" fill="none"'
    if k in (regions.RegionKind.RIGHT_HALF_PLANE,
             regions.RegionKind.LEFT_HALF_PLANE,
             regions.RegionKind.NONZERO_REAL_PART):
        x0, y0 = to_px(0.0, lo)
        x1, y1 = to_px(0.0, hi)
        parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" '
                     f'y2="{y1:.2f}" {stroke}/>')
    elif k is regions.RegionKind.UNIT_DISK:
        cx, cy = to_px(0.0, 0.0)
        rx, _ = to_px(1.0, 0.0)
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{rx - cx:.2f}" '
                     f'{stroke}/>')
    elif k in (regions.RegionKind.REAL_AXIS, regions.RegionKind.POSITIVE_RAY):
        start = 0.0 if k is regions.RegionKind.POSITIVE_RAY else lo
        x0, y0 = to_px(start, 0.0)
        x1, y1 = to_px(hi, 0.0)
        parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" '
                     f'y2="{y1:.2f}" {stroke}/>')
    elif k is regions.RegionKind.PUNCTURED_PLANE:
        cx, cy = to_px(0.0, 0.0)
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" {stroke}/>')
    elif k is regions.RegionKind.SECTOR:
        span = max(abs(lo), abs(hi)) * 2.0
        for sign in (1.0, -1.0):
            ex = span * math.cos(sign * region.half_angle)
            ey = span * math.sin(sign * region.half_angle)
            x0, y0 = to_px(0.0, 0.0)
            x1, y1 = to_px(ex, ey)
            parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" '
                         f'y2="{y1:.2f}" {stroke}/>')
    return parts


def _cmd_plot(args) -> int:
    if args.samples < 0:
        raise UsageError("samples must be >= 0")
    q = _build_query(args)
    rng = np.random.default_rng(np.random.SeedSequence(q.seed))
    pts = np.zeros(0, dtype=complex)
    if args.samples > 0:
        gs = classes.sample_batch(q.cls, rng, args.samples)
        rows, w = algebra.finite_spectra(q.op, gs, q.a)  # an overflowed composition has none
        if rows.size:
            pts = w.ravel()

    size = 480.0
    pad = 40.0
    if pts.size:
        lo = float(min(np.min(pts.real), np.min(pts.imag), -1.0))
        hi = float(max(np.max(pts.real), np.max(pts.imag), 1.0))
    else:
        lo, hi = -1.0, 1.0
    span = max(hi - lo, 1e-9)

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = pad + (x - lo) / span * (size - 2 * pad)
        py = size - (pad + (y - lo) / span * (size - 2 * pad))
        return px, py

    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    ax = 'stroke="#999" stroke-width="0.5"'
    x0, y0 = to_px(lo, 0.0)
    x1, y1 = to_px(hi, 0.0)
    body.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" {ax}/>')
    x0, y0 = to_px(0.0, lo)
    x1, y1 = to_px(0.0, hi)
    body.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" {ax}/>')
    body.extend(_region_overlay(q.region, to_px, lo, hi))
    for z in pts:
        px, py = to_px(z.real, z.imag)
        body.append(_svg_circle(px, py, 2.0, "#1a5fb4"))
    body.append("</svg>")
    _emit(args, "\n".join(body) + "\n")
    return EXIT_CERTIFIED


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of every call: it keeps no state between parses."""
    parser = _Parser(prog="dgstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a stability query")
    _add_query_flags(p)
    p.add_argument("--no-certificates", action="store_true",
                   help="skip the certificate stage")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("certify", help="search for a stability certificate")
    p.add_argument("--matrix", required=True)
    p.add_argument("--kind", required=True, choices=list(_CERT_KINDS))
    p.add_argument("--partition", default=None,
                   help="JSON blocks, 1-based, e.g. [[1,2],[3]]")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("falsify", help="randomized counterexample search")
    _add_query_flags(p)
    p.set_defaults(fn=_cmd_falsify)

    p = sub.add_parser("stabilize", help="search the class for a stabilizer")
    _add_query_flags(p)
    p.set_defaults(fn=_cmd_stabilize)

    p = sub.add_parser("inertia", help="eigenvalue counts for a region")
    p.add_argument("--matrix", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_inertia)

    p = sub.add_parser("total", help="decide on every principal submatrix")
    _add_query_flags(p)
    p.set_defaults(fn=_cmd_total)

    p = sub.add_parser("laws", help="operation-law deviation table")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_laws)

    p = sub.add_parser("plot", help="SVG eigenvalue cloud")
    _add_query_flags(p)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=_cmd_plot)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (UsageError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
