"""Linear independence of the valuation family.

Enumerates the tensor valuations of a fixed rank p in R^n, evaluates each on
localized windows of random heptagons (n = 2) or rotated boxes (n >= 3), and
computes the numerical rank of the resulting evaluation matrix.  Full rank
means no nontrivial linear relation holds among the valuations.
"""

from tensorgeo import independence_indices, independence_rank

for (n, p) in [(2, 2), (3, 2), (2, 3)]:
    indices = independence_indices(n, p)
    rank, count, sv = independence_rank(n, p, trials=8, seed=0)
    print(f"n={n}, rank-{p} family: {count} valuations, numerical rank {rank}")
    print(f"  singular value range: {sv[0]:.3e} .. {sv[-1]:.3e}")
    print(f"  independent: {rank == count}")

print("\nIndex tuples (j, m, r, s, l) for n=2, p=2:")
for idx in independence_indices(2, 2):
    print(f"  j={idx.j} m={idx.m} r={idx.r} s={idx.s} l={idx.l}")
