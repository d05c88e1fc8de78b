"""Computing generalized tensorial curvature measures of polytopes.

Walks through the basic evaluation API: scalar intrinsic volumes, tensor-valued
measures, and local evaluation on a window.
"""

import numpy as np

from tensorgeo import Region, cube, intrinsic_volume, simplex, tcm

P = cube(3)
print("Intrinsic volumes of the unit cube in R^3:")
for q in range(4):
    print(f"  V_{q} = {intrinsic_volume(P, q):.6f}")

print("\nSurface normal-distribution tensor of the unit square (j=1, s=2):")
m = tcm(cube(2), j=1, s=2)
for beta, value in sorted(m.tensor.coeffs.items()):
    print(f"  coordinate {beta}: {value:.8f}")
print("  (diagonal 1/(4 pi): two unit edges per axis direction)")

print("\nPosition-weighted volume tensor of the triangle (j=2, r=2):")
m = tcm(simplex(2), j=2, r=2)
for beta, value in sorted(m.tensor.coeffs.items()):
    print(f"  coordinate {beta}: {value:.8f}")

print("\nLocal evaluation: vertex measure of the square in a corner window")
corner = Region.box([-0.1, -0.1], [0.1, 0.1])
m = tcm(cube(2), j=0, region=corner)
print(f"  external-angle mass at one corner = {m.tensor.value():.6f} (= 1/4)")

print("\nMeasures vanish on windows missing the relevant skeleton:")
inner = Region.box([0.25, 0.25], [0.75, 0.75])
print(f"  edge measure on an interior window: {dict(tcm(cube(2), 1, region=inner).tensor.coeffs)}")

print("\nLower-dimensional bodies work too (a segment in R^3):")
from tensorgeo import Polytope

seg = Polytope.from_vertices(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
print(f"  V_1(segment) = {intrinsic_volume(seg, 1):.6f}")
