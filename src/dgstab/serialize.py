"""JSON codecs for the external interfaces.

Matrices travel as ``{"n": int, "data": [[row-major reals]]}`` (plain
CSV, one row per line, is also accepted on input).  Partitions and
permutations use 1-based indices on the wire; everything is 0-based
inside the library.  Serialization is deterministic: fixed key order,
no timestamps.
"""

from __future__ import annotations

import json

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
    """Canonical JSON text: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


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


def region_from_json(obj) -> Region:
    if isinstance(obj, str):
        obj = {"kind": obj}
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


def _partition_from_wire(blocks) -> Partition:
    return Partition(tuple(tuple(i - 1 for i in block) for block in blocks))


def _partitioned(factory):
    return (lambda c: _partition_to_wire(c.partition),
            lambda p, n: factory(_partition_from_wire(p)))


def _ranked(factory):
    def decode(rank, n):
        if n is None:
            raise ValueError(f"{factory.__name__} needs a matrix order")
        return factory(int(n), int(rank))

    return lambda c: c.rank, decode


#: Classes named by their kind alone; they take the order from ``n``.
_NAMED = {f.__name__: f for f in (classes.symmetric, classes.spd, classes.diag,
                                  classes.pos_diag, classes.vertex_diag)}

#: The other kinds, as ``{"kind": {name: payload}}``: per name, the
#: payload encoder (class -> payload) and decoder (payload, order ->
#: class).  Decoding tries the names in this order.
_PAYLOADS = {
    "sign_diag": (lambda c: list(c.signs), lambda p, n: classes.sign_diag(p)),
    "alpha_scalar": _partitioned(classes.alpha_scalar),
    "pos_alpha_scalar": _partitioned(classes.pos_alpha_scalar),
    "alpha_block_spd": _partitioned(classes.alpha_block_spd),
    "theta_ordered": (lambda c: [t + 1 for t in c.theta],
                      lambda p, n: classes.theta_ordered([t - 1 for t in p])),
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
    spec = obj["kind"]
    n = obj.get("n", n)
    if isinstance(spec, str):
        if n is None:
            raise ValueError("class spec needs a matrix order")
        if spec not in _NAMED:
            raise ValueError(f"unrecognized class name {spec!r}")
        return _NAMED[spec](int(n))
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
    out: dict = {"kind": cert.kind.value, "min_eig": float(cert.min_eig)}
    if cert.witness is not None:
        out["witness"] = matrix_to_json(cert.witness)
    if cert.partition is not None:
        out["partition"] = _partition_to_wire(cert.partition)
    if cert.coeffs is not None:
        out["coefficients"] = [list(row) for row in cert.coeffs]
    if cert.members_checked is not None:
        out["members_checked"] = cert.members_checked
    if cert.triple is not None:
        region, cls, op = cert.triple
        out["triple"] = {
            "region": region_to_json(region),
            "class": class_to_json(cls),
            "op": op_to_json(op),
        }
    return out


def verdict_to_json(v: engine.Verdict) -> dict:
    out: dict = {
        "status": v.status.value,
        "trials_used": int(v.trials_used),
        "provenance": list(v.provenance),
    }
    if v.certificate is not None:
        out["certificate"] = certificate_to_json(v.certificate)
    if v.witness is not None:
        out["witness"] = matrix_to_json(v.witness)
    if v.offending_eigenvalue is not None:
        lam = complex(v.offending_eigenvalue)
        out["offending_eigenvalue"] = [lam.real, lam.imag]
    if v.margin is not None:
        out["margin"] = float(v.margin)
    return out
