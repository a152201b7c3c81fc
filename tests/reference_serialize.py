"""A reference for the verdict and certificate layout: the dict views
``serialize.verdict_to_json`` and ``serialize.certificate_to_json`` as
they were built field by field, before both became ``serialize._Writer``'s
text parsed back.

The writer's text must be these dicts under ``serialize.dumps``, byte
for byte.  These bodies list the verdict and certificate fields
themselves; the nested specs of a triple and a partition come from the
helpers the writer also uses.
"""

from dgstab import certify, engine
from dgstab.serialize import _partition_to_wire, _triple_to_json, matrix_to_json


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
        out["triple"] = _triple_to_json(cert.triple)
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
