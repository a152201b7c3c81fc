"""JSON codecs for the external interfaces.

Matrices travel as ``{"n": int, "data": [[row-major reals]]}`` (plain
CSV, one row per line, is also accepted on input).  Partitions and
permutations use 1-based indices on the wire; everything is 0-based
inside the library.  Serialization is deterministic: fixed key order,
no timestamps.  ``dumps`` writes all wire text.  ``_Writer`` is the one
definition of the verdict and certificate layout: ``verdict_to_json``
and ``certificate_to_json`` are its text, parsed back by ``json.loads``.
"""

from __future__ import annotations

import json
import math
import operator
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from . import algebra, certify, classes, engine, regions
from .classes import MatrixClass, Partition
from .regions import Region, RegionKind

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "load_matrix_text",
    "region_to_json",
    "region_from_json",
    "class_to_json",
    "class_from_json",
    "op_to_json",
    "op_from_json",
    "certificate_to_json",
    "verdict_to_json",
    "dumps",
]

_REGION_ALIASES = {
    "rhp": "right_half_plane",
    "lhp": "left_half_plane",
    "disk": "unit_disk",
    "ray": "positive_ray",
}


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, fixed separators, newline.

    A ``TotalStabilityReport`` is written as ``{"overall", "subsets"}``,
    each subset keyed by its 1-based index list (``"1,3"``) and valued by
    its verdict's text; a ``Verdict`` as ``_Writer.verdict``.  The dict
    view ``verdict_to_json`` is that text parsed, and the writer spells
    floats as json does, so ``dumps`` gives the dict view the same bytes."""
    if isinstance(obj, engine.TotalStabilityReport):
        return _report_text(obj) + "\n"
    if isinstance(obj, engine.Verdict):
        return _Writer().verdict(obj) + "\n"
    return _json(obj) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _float(x) -> str:
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    x = float(x)
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


class _Writer:
    """Writes verdicts and certificates as canonical text, each field in
    json's sorted-key order: the only place their fields are listed.
    Within one writer, each matrix's text is cached by its shape and
    bytes, and each provenance's text by the tuple: the subsets of a
    total-stability report repeat both row after row."""

    def __init__(self):
        self._matrices: dict = {}
        self._provenance: dict = {}

    def matrix(self, m) -> str:
        m = np.asarray(m, dtype=float)
        key = (m.shape, m.tobytes())
        text = self._matrices.get(key)
        if text is None:
            text = self._matrices[key] = (
                f'{{"data":{_json(m.tolist())},"n":{m.shape[0]}}}')
        return text

    def provenance(self, notes) -> str:
        notes = tuple(notes)
        text = self._provenance.get(notes)
        if text is None:
            text = self._provenance[notes] = "[" + ",".join(map(_string, notes)) + "]"
        return text

    def certificate(self, cert: certify.Certificate) -> str:
        out = []
        if cert.coeffs is not None:
            out.append('"coefficients":' + _json([list(row) for row in cert.coeffs]))
        out.append('"kind":' + _string(cert.kind.value))
        if cert.members_checked is not None:
            out.append('"members_checked":' + _json(cert.members_checked))
        out.append('"min_eig":' + _float(cert.min_eig))
        if cert.partition is not None:
            out.append('"partition":' + _json(_partition_to_wire(cert.partition)))
        if cert.triple is not None:
            out.append('"triple":' + _json(_triple_to_json(cert.triple)))
        if cert.witness is not None:
            out.append('"witness":' + self.matrix(cert.witness))
        return "{" + ",".join(out) + "}"

    def verdict(self, v: engine.Verdict) -> str:
        out = []
        if v.certificate is not None:
            out.append('"certificate":' + self.certificate(v.certificate))
        if v.margin is not None:
            out.append('"margin":' + _float(v.margin))
        if v.offending_eigenvalue is not None:
            lam = complex(v.offending_eigenvalue)
            out.append(f'"offending_eigenvalue":[{_float(lam.real)},{_float(lam.imag)}]')
        out.append('"provenance":' + self.provenance(v.provenance))
        out.append('"status":' + _string(v.status.value))
        out.append(f'"trials_used":{int(v.trials_used)}')
        if v.witness is not None:
            out.append('"witness":' + self.matrix(v.witness))
        return "{" + ",".join(out) + "}"


def _subset_key(idx) -> str:
    """The 1-based wire key of a subset: ``"1,3"`` for ``(0, 2)``."""
    return ",".join([str(i + 1) for i in idx])


def _report_text(rep: engine.TotalStabilityReport) -> str:
    w = _Writer()
    verdicts = {_subset_key(idx): v for idx, v in rep.results.items()}
    # json's key order is string order: "1,10" precedes "1,2"
    subsets = ",".join(_string(key) + ":" + w.verdict(verdicts[key]) for key in sorted(verdicts))
    return f'{{"overall":{_string(rep.overall.value)},"subsets":{{{subsets}}}}}'


def _listify(m) -> list:
    """The matrix as nested lists of Python floats, which ``dumps``
    writes by their shortest round-tripping repr."""
    return np.asarray(m, dtype=float).tolist()


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=float)
    return {"n": int(m.shape[0]), "data": _listify(m)}


def matrix_from_json(obj) -> np.ndarray:
    if isinstance(obj, list):
        return np.asarray(obj, dtype=float)
    data = np.asarray(obj["data"], dtype=float)
    if "n" in obj and data.shape != (obj["n"], obj["n"]):
        raise ValueError("matrix data does not match declared order")
    return data


def load_matrix_text(text: str) -> np.ndarray:
    """Parse a matrix from JSON or CSV text."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return matrix_from_json(json.loads(stripped))
    rows = [
        [float(v) for v in line.replace(",", " ").split()]
        for line in stripped.splitlines()
        if line.strip()
    ]
    return np.asarray(rows, dtype=float)


def region_to_json(region: Region) -> dict:
    kind = region.kind
    if kind is RegionKind.SECTOR:
        spec: object = {"sector": region.half_angle}
    elif kind is RegionKind.HILL:
        spec = {
            "hill": {
                "c": [list(row) for row in region.coeffs],
                "sense": region.sense,
            }
        }
    else:
        spec = kind.value
    return {"kind": spec, "boundary_tol": region.boundary_tol}


@contextmanager
def _malformed(what: str, obj):
    """Turn the TypeError or IndexError that decoding a payload of the
    wrong shape raises into a ValueError that names the spec."""
    try:
        yield
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed {what} spec {obj!r}: {exc}") from None


def region_from_json(obj) -> Region:
    if isinstance(obj, str):
        obj = {"kind": obj}
    with _malformed("region", obj):
        tol = float(obj.get("boundary_tol", regions.DEFAULT_BOUNDARY_TOL))
        spec = obj["kind"]
        if isinstance(spec, str):
            name = _REGION_ALIASES.get(spec, spec)
            return Region(RegionKind(name), tol)
        if "sector" in spec:
            return regions.sector(float(spec["sector"]), tol)
        if "hill" in spec:
            payload = spec["hill"]
            return regions.hill_region(
                payload["c"], payload.get("sense", "positive"), tol
            )
    raise ValueError(f"unrecognized region spec {obj!r}")


def _partition_to_wire(p: Partition):
    return [[i + 1 for i in block] for block in p.blocks]


def _integer(x) -> int:
    """``x`` as an int: a number that is not an integer, 2.0 or 1.5,
    raises ``TypeError`` rather than truncating, and so does a JSON
    ``true``, which Python would read as 1."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    return operator.index(x)


def _sign(x):
    """``x`` as a sign: a number other than -1, 0 and 1, such as 0.5,
    raises ``TypeError`` rather than being read as its sign, and so
    does a JSON ``true``."""
    if isinstance(x, bool) or x not in (-1, 0, 1):
        raise TypeError(f"{x!r} is not a sign (-1, 0 or 1)")
    return x


def _partition_from_wire(blocks) -> Partition:
    with _malformed("partition", blocks):
        return Partition(tuple(tuple(_integer(i) - 1 for i in block)
                               for block in blocks))


def _partitioned(factory):
    return (lambda c: _partition_to_wire(c.partition),
            lambda p, n: factory(_partition_from_wire(p)))


def _ranked(factory):
    def decode(rank, n):
        if n is None:
            raise ValueError(f"{factory.__name__} needs a matrix order")
        return factory(_integer(n), _integer(rank))

    return lambda c: c.rank, decode


#: Classes named by their kind alone; they take the order from ``n``.
_NAMED = {f.__name__: f for f in (classes.symmetric, classes.spd, classes.diag,
                                  classes.pos_diag, classes.vertex_diag)}

#: The other kinds, as ``{"kind": {name: payload}}``: per name, the
#: payload encoder (class -> payload) and decoder (payload, order ->
#: class).  Decoding tries the names in this order.
_PAYLOADS = {
    "sign_diag": (lambda c: list(c.signs),
                  lambda p, n: classes.sign_diag([_sign(s) for s in p])),
    "alpha_scalar": _partitioned(classes.alpha_scalar),
    "pos_alpha_scalar": _partitioned(classes.pos_alpha_scalar),
    "alpha_block_spd": _partitioned(classes.alpha_block_spd),
    "theta_ordered": (lambda c: [t + 1 for t in c.theta],
                      lambda p, n: classes.theta_ordered([_integer(t) - 1 for t in p])),
    "box_diag": (lambda c: {"lo": list(c.lo), "hi": list(c.hi)},
                 lambda p, n: classes.box_diag(p["lo"], p["hi"])),
    "rank_k_positive": _ranked(classes.rank_k_positive),
    "sum_rank_one_positive": _ranked(classes.sum_rank_one_positive),
    "parametric_rank_one": (
        lambda c: {"x": list(c.x), "y": list(c.y), "tau": [c.tau[0], c.tau[1]]},
        lambda p, n: classes.parametric_rank_one(p["x"], p["y"], tuple(p["tau"]))),
    "explicit_list": (
        lambda c: [_listify(m) for m in c.members],
        lambda p, n: classes.explicit_list(p)),
}


def class_to_json(cls: MatrixClass):
    name = cls.kind.value
    if name in _NAMED:
        return {"kind": name, "n": cls.order}
    out = {"kind": {name: _PAYLOADS[name][0](cls)}}
    if cls.rank is not None:  # the rank payload leaves the order open
        out["n"] = cls.order
    return out


def class_from_json(obj, n: int | None = None) -> MatrixClass:
    """Parse a class spec.  Bare-name kinds need the order ``n`` (taken
    from the query matrix)."""
    if isinstance(obj, str):
        obj = {"kind": obj}
    with _malformed("class", obj):
        spec = obj["kind"]
        n = obj.get("n", n)
        if isinstance(spec, str):
            if n is None:
                raise ValueError("class spec needs a matrix order")
            if spec not in _NAMED:
                raise ValueError(f"unrecognized class name {spec!r}")
            return _NAMED[spec](_integer(n))
        for name, (_, decode) in _PAYLOADS.items():
            if name in spec:
                return decode(spec[name], n)
    raise ValueError(f"unrecognized class spec {obj!r}")


def op_to_json(op: algebra.BinaryOp) -> dict:
    return {"op": op.kind.value, "side": op.side.value}


def op_from_json(obj) -> algebra.BinaryOp:
    if isinstance(obj, str):
        obj = {"op": obj}
    return algebra.BinaryOp(
        algebra.OpKind(obj["op"]), algebra.Side(obj.get("side", "left"))
    )


def certificate_to_json(cert: certify.Certificate) -> dict:
    return json.loads(_Writer().certificate(cert))


def _triple_to_json(triple) -> dict:
    region, cls, op = triple
    return {"region": region_to_json(region), "class": class_to_json(cls),
            "op": op_to_json(op)}


def verdict_to_json(v: engine.Verdict) -> dict:
    return json.loads(_Writer().verdict(v))
