#!/usr/bin/env python3
"""The two matrix-equation solvers behind the certificates, and the
evaluator of the generalized form that both forms are cases of.

Continuous form   H A + A^T H = W      (half-plane stability, solved)
Discrete form     H - A^T H A = W      (unit-disk stability, solved)
Generalized form  sum c[i,j] (A^T)^i H A^j
                  (evaluated; any region cut out by such a scalar polynomial)
"""

import numpy as np

import dgstab as dg

a = np.array([[1.0, 1.0], [0.0, 1.0]])
w = np.eye(2)
h = dg.solve_lyapunov(a, w)
print("solve  H A + A^T H = I  for A = [[1,1],[0,1]]:")
print(h)
print("residual:", np.linalg.norm(h @ a + a.T @ h - w))

a2 = 0.5 * np.eye(2)
h2 = dg.solve_stein(a2, w)
print()
print("solve  H - A^T H A = I  for A = I/2:")
print(h2)

print()
print("the generalized form reproduces both special cases exactly:")
h3 = np.array([[2.0, 0.5], [0.5, 1.0]])
lyap = dg.hill_form(dg.case_i_coefficients(), h3, a)
print("  continuous case deviation:",
      np.max(np.abs(lyap - (h3 @ a + a.T @ h3))))
stein = dg.hill_form(dg.case_iii_coefficients(), h3, a2)
print("  discrete case deviation:",
      np.max(np.abs(stein - (h3 - a2.T @ h3 @ a2))))

print()
print("solvability check: eigenvalue pair sums must avoid zero")
try:
    dg.solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), w)
except Exception as exc:
    print("  rotation matrix ->", type(exc).__name__, "-", exc)

print()
print("inertia via the symmetric solution: solving with W = I links the")
print("eigenvalue signs of H to the half-plane split of A")
rng = np.random.default_rng(5)
s = rng.standard_normal((3, 3))
a3 = s @ np.diag([1.0, -2.0, 3.0]) @ np.linalg.inv(s)
h4 = dg.solve_lyapunov(a3, np.eye(3))
print("  inertia of A:", dg.inertia_of(dg.right_half_plane(),
                                       dg.eigenvalues(a3)).as_tuple())
print("  inertia of H:", dg.inertia_of(dg.right_half_plane(),
                                       np.linalg.eigvalsh(h4)).as_tuple())
