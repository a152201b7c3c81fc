#!/usr/bin/env python3
"""The verdict engine: certified / refuted / unknown.

The stability property quantifies over an infinite class, so the
engine layers cheap necessary checks (the identity element, negative
principal minors), certificate search, exact enumeration of finite
classes, and randomized falsification - and says "unknown" when none of
them resolves the query.
"""

import numpy as np

import dgstab as dg
from dgstab.engine import Query, decide

RHP = dg.right_half_plane()


def show(title, q, **kw):
    v = decide(q, **kw)
    print(f"{title}: {v.status.value}")
    for step in v.provenance:
        print("   -", step)
    if v.witness is not None:
        print("   witness:", np.round(v.witness, 4).tolist(),
              " offending eigenvalue:", v.offending_eigenvalue,
              " margin:", round(v.margin, 6))
    print()


# certified through a diagonal witness
show("identity over positive diagonals",
     Query(np.eye(2), RHP, dg.pos_diag(2), dg.MUL, budget=1000, seed=1))

# positive stable (eigenvalues 1 +- 2i) but refutable: a_11 < 0, so a
# heavy first diagonal weight drives the trace of D A negative, which
# the principal-minor stage proves in exact arithmetic
a = np.array([[-1.0, 2.0], [-4.0, 3.0]])
show("stable but not robust to diagonal scaling",
     Query(a, RHP, dg.pos_diag(2), dg.MUL, budget=100_000, seed=1))

# finite class: a short Stein search ahead of the enumeration finds a
# positive diagonal P with P - A^T P A positive definite, which proves
# rho(D A) < 1 for every sign diagonal D at once
sign_flips = Query(0.4 * np.eye(2), dg.unit_disk(), dg.vertex_diag(2), dg.MUL,
                   budget=10, seed=1)
show("contraction against all sign flips (Stein diagonal certificate)", sign_flips)

# with certificates off: exact enumeration of all 4 members, no sampling
show("contraction against all sign flips (enumerated)", sign_flips,
     use_certificates=False)

# bounded region + unbounded class: scaling escape
show("unit disk against unbounded positive diagonals",
     Query(0.4 * np.eye(2), dg.unit_disk(), dg.pos_diag(2), dg.MUL,
           budget=10, seed=1))

# honest unknown: stable for the whole class, but no certificate kind
# exists and no counterexample can be found
tricky = np.array([[0.0, 1.0], [-1.0, 1.0]])
show("stable for every member, yet not certifiable",
     Query(tricky, RHP, dg.pos_diag(2), dg.MUL, budget=3000, seed=1))

# the same query with certificates disabled stays unknown (honesty)
show("certificate stage disabled",
     Query(np.eye(2), RHP, dg.pos_diag(2), dg.MUL, budget=1000, seed=1),
     use_certificates=False)
