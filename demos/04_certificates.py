#!/usr/bin/env python3
"""Stability certificates: search, verification, implied triples.

A structured positive definite witness P with P A + A^T P positive
definite proves stability for whole families of queries at once.  The
search maximizes the smallest eigenvalue of the form by a deterministic
barrier Newton method; a failed search proves nothing.
"""

import numpy as np

import dgstab as dg

a = np.array([[1.0, 3.0], [0.0, 1.0]])
rep = dg.find_diagonal_lyapunov(a)
print("A = [[1,3],[0,1]] (stable Jordan-ish block)")
print("  diagonal witness found:", rep.found)
print("  D =", np.diag(rep.certificate.witness).round(4))
print("  smallest eigenvalue of D A + A^T D:",
      round(rep.certificate.min_eig, 6))
print("  independent re-verification:",
      dg.verify_certificate(rep.certificate, a))
print("  triples this proves:")
for region, cls, op in dg.implied_stabilities(rep.certificate):
    print(f"    ({region.kind.value}, {cls.kind.value}, {op.kind.value})")

print()
rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
rep = dg.find_diagonal_lyapunov(rot)
print("rotation matrix: found =", rep.found,
      " best smallest eigenvalue =", round(rep.best_min_eig, 6))
print("  (the form has a zero diagonal for every D - no witness exists)")

print()
print("a failed search is inconclusive, not a refutation:")
tricky = np.array([[0.0, 1.0], [-1.0, 1.0]])
rep = dg.find_diagonal_lyapunov(tricky)
print("  A = [[0,1],[-1,1]]: found =", rep.found)
print("  yet every positive diagonal scaling of A stays stable")
print("  (trace d2 > 0 and determinant d1*d2 > 0 for all d > 0)")

print()
print("discrete-time witness for unit-disk stability:")
a2 = np.array([[0.0, 2.0], [0.0, 0.0]])
rep = dg.find_stein_diagonal(a2)
print("  A = [[0,2],[0,0]]: found =", rep.found,
      " D =", np.diag(rep.certificate.witness).round(4))

print()
print("structured witnesses over block parametrizations:")
part = dg.Partition.from_sizes([2])
rep = dg.find_structured_lyapunov(np.eye(2), dg.pos_alpha_scalar(part))
print("  block-scalar witness for the identity: found =", rep.found)

from dgstab.certify import identity_witness_class

rep = dg.find_structured_lyapunov(np.array([[2.0, 1.0], [-1.0, 2.0]]),
                                  identity_witness_class(2))
print("  identity witness (tests A + A^T directly): found =", rep.found,
      " min_eig =", round(rep.best_min_eig, 4))
