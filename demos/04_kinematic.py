"""Monte-Carlo verification of the kinematic formula for moving bodies.

Averages a tensorial curvature measure of P cap gP' over random rigid motions
g and compares against the bilinear expansion in measures of P and P'.
"""

import numpy as np

from tensorgeo import cube, kinematic_verify, random_rotation, simplex, stream

P = cube(2)
P2 = cube(2).transformed(random_rotation(stream(5, 0), 2), np.array([0.3, -0.1]))

print("Scalar case (j=0, r=s=0): the classical principal kinematic formula.")
rep = kinematic_verify(P, P2, j=0, samples=100000, seed=1)
print(f"  LHS = {rep.lhs.value():.6f}  RHS = {rep.rhs.value():.6f}"
      f"  passed = {rep.passed}")

print("\nVector and matrix cases at the vertices of two squares:")
for (r, s) in [(0, 1), (0, 2), (1, 1)]:
    rep = kinematic_verify(P, P2, j=0, r=r, s=s, samples=100000, seed=2 + r + s)
    print(f"  (r={r}, s={s}): max excess = {rep.max_excess:.2f}, passed = {rep.passed}")

print("\nDifferent body pair (square against a rotated triangle):")
P3 = simplex(2).transformed(random_rotation(stream(6, 0), 2))
rep = kinematic_verify(P, P3, j=0, r=0, s=1, samples=50000, seed=9)
print(f"  max excess = {rep.max_excess:.2f}, passed = {rep.passed}")

print("\nTwo cubes in space (j=2): the 2-faces of P cap gP' from one clip per pair of facets.")
Q = cube(3)
Q2 = cube(3).transformed(random_rotation(stream(7, 0), 3), np.array([0.2, -0.1, 0.3]))
rep = kinematic_verify(Q, Q2, j=2, samples=10000, seed=11)
print(f"  LHS = {rep.lhs.value():.4f} +- {rep.stderr.value():.4f}  RHS = {rep.rhs.value():.4f}"
      f"  passed = {rep.passed}")
