"""Symmetric tensors over R^n, stored as homogeneous polynomial coefficients.

A symmetric rank-p tensor T is identified with the degree-p polynomial
y -> T(y, ..., y) = sum_beta c_beta * y^beta, where beta runs over
multi-degrees of total degree p in n variables.  The symmetric tensor
product is then plain polynomial multiplication, and the tensor coordinate
T(e^beta) (T applied to basis vectors with multiplicities beta) is
c_beta / multinomial(p; beta).

A `SymTensor` holds the coefficients as one dense float array `data` of
shape batch + (len(multi_degrees(n, p)),), in `multi_degrees` order.  The
leading batch axes hold many tensors of one dim and rank (one per sample,
per face, ...); every operation broadcasts over them, so a face sum over
many sections is a handful of array operations.  Products use index
tables cached per (n, ranks); rotations substitute into the polynomial.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType, SimpleNamespace

import numpy as np

__all__ = [
    "SymTensor",
    "metric_tensor",
    "subspace_metric_tensor",
    "vector_power",
    "multi_degrees",
    "multinomial",
    "DIRECTION_TOL",
]

# The tolerance of every test on unit vectors, in this module and in the
# geometry above it (see the Tolerances paragraph of `polytope`).
DIRECTION_TOL = 1e-10


def multinomial(p, beta):
    """p! / prod(beta_i!) for a multi-degree beta with |beta| = p."""
    out = math.factorial(p)
    for b in beta:
        out //= math.factorial(b)
    return out


def multi_degrees(dim, rank):
    """All multi-degrees beta over `dim` variables with |beta| = rank,
    in lexicographic order."""
    return list(_basis(dim, rank).degrees)


@functools.lru_cache(maxsize=None)
def _basis(dim, rank):
    """Tables of the degree-`rank` monomials in `dim` variables: their
    multi-degrees, the position of each, exponents and multinomials."""
    if dim == 0:
        degrees = ((),) if rank == 0 else ()
    else:
        degrees = tuple((head,) + tail for head in range(rank, -1, -1)
                        for tail in _basis(dim - 1, rank - head).degrees)
    return SimpleNamespace(degrees=degrees, index={b: i for i, b in enumerate(degrees)},
                           exps=np.array(degrees, dtype=int).reshape(len(degrees), dim),
                           multinom=np.array([float(multinomial(rank, b)) for b in degrees]))


@functools.lru_cache(maxsize=None)
def _product_table(dim, r1, r2):
    """0/1 matrix S with (a (x) b).ravel() @ S the coefficients of the
    product of coefficient vectors a (rank r1) and b (rank r2)."""
    b1, b2, out = _basis(dim, r1), _basis(dim, r2), _basis(dim, r1 + r2)
    table = np.zeros((len(b1.degrees) * len(b2.degrees), len(out.degrees)))
    for i, x in enumerate(b1.degrees):
        for j, y in enumerate(b2.degrees):
            table[i * len(b2.degrees) + j, out.index[tuple(p + q for p, q in zip(x, y))]] = 1.0
    return table


def _float(x):
    """A 0-d result as a Python float; batched results stay arrays."""
    return float(x) if np.ndim(x) == 0 else x


class SymTensor:
    """Symmetric tensor(s) of one dim and rank; `data[..., i]` is the
    polynomial coefficient of the i-th multi-degree of `multi_degrees`.

    `SymTensor(dim, rank, coeffs)` takes either a dict multi-degree ->
    coefficient (absent degrees are zero) or the coefficient array.
    Treat instances as immutable."""

    __array_ufunc__ = None   # ndarray * SymTensor defers to __rmul__

    def __init__(self, dim, rank, coeffs=None):
        basis = _basis(dim, rank)
        if coeffs is None or isinstance(coeffs, dict):
            data = np.zeros(len(basis.degrees))
            for beta, c in (coeffs or {}).items():
                if tuple(beta) not in basis.index:
                    raise ValueError(f"bad multi-degree {beta} for dim={dim} rank={rank}")
                data[basis.index[tuple(beta)]] = c
        else:
            data = np.asarray(coeffs, dtype=float)
            if data.ndim == 0 or data.shape[-1] != len(basis.degrees):
                raise ValueError(f"coefficient array of shape {data.shape} for dim={dim} rank={rank}")
        self.dim, self.rank, self.data = dim, rank, data

    @property
    def batch(self):
        return self.data.shape[:-1]

    @property
    def coeffs(self):
        """Read-only map multi-degree -> nonzero coefficient (unbatched only)."""
        if self.batch:
            raise ValueError("coeffs of a batched tensor")
        return MappingProxyType({b: float(c) for b, c in zip(_basis(self.dim, self.rank).degrees, self.data)
                                 if c != 0.0})

    def __repr__(self):
        if self.batch:
            return f"SymTensor(dim={self.dim}, rank={self.rank}, batch={self.batch})"
        return f"SymTensor({self.dim}, {self.rank}, {dict(self.coeffs)})"

    @staticmethod
    def zero(dim, rank):
        return SymTensor(dim, rank)

    @staticmethod
    def scalar(dim, value):
        return SymTensor(dim, 0, [float(value)])

    @staticmethod
    def from_coordinates(dim, rank, coords):
        """Build a tensor from tensor coordinates: a dict multi-degree ->
        coordinate, or an array (..., n_coords) in `multi_degrees` order."""
        if isinstance(coords, dict):
            coords = SymTensor(dim, rank, coords).data
        return SymTensor(dim, rank, np.asarray(coords, dtype=float) * _basis(dim, rank).multinom)

    def coordinate(self, beta):
        """Tensor coordinate T(e^beta) = coefficient / multinomial."""
        basis = _basis(self.dim, self.rank)
        i = basis.index.get(tuple(beta))
        if i is None:
            raise ValueError(f"bad multi-degree {beta}")
        return _float(self.data[..., i] / basis.multinom[i])

    def coordinates_array(self):
        """Tensor coordinates over all multi-degrees, in lexicographic order."""
        return self.data / _basis(self.dim, self.rank).multinom

    def value(self):
        """Scalar value of a rank-0 tensor."""
        if self.rank != 0:
            raise ValueError("value() requires rank 0")
        return _float(self.data[..., 0])

    def __call__(self, y):
        """Evaluate the polynomial at y, i.e. T(y, ..., y); y is (..., n)."""
        monomials = vector_power(y, self.rank).coordinates_array()
        return _float(np.sum(self.data * monomials, axis=-1))

    # -- algebra ---------------------------------------------------------

    def add_scaled(self, other, a=1.0):
        """self + a * other (equal dim and rank required; batches broadcast)."""
        return self + other.scale(a)

    def __add__(self, other):
        if other.dim != self.dim or other.rank != self.rank:
            raise ValueError("dim/rank mismatch in add")
        return SymTensor(self.dim, self.rank, self.data + other.data)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __abs__(self):
        """Coefficient-wise absolute value."""
        return SymTensor(self.dim, self.rank, np.abs(self.data))

    def scale(self, a):
        """a * self; an array `a` broadcasts over the batch axes."""
        return SymTensor(self.dim, self.rank, np.asarray(a, dtype=float)[..., None] * self.data)

    def sum(self, axis=None):
        """Sum over all batch axes, or over the given ones (counted from the
        front)."""
        axes = tuple(range(len(self.batch))) if axis is None else axis
        return SymTensor(self.dim, self.rank, self.data.sum(axis=axes))

    def __mul__(self, other):
        """Symmetric tensor product = polynomial product; a number or an
        array multiplies as `scale`."""
        if not isinstance(other, SymTensor):
            return self.scale(other)
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in sym_product")
        outer = self.data[..., :, None] * other.data[..., None, :]
        outer = outer.reshape(outer.shape[:-2] + (outer.shape[-2] * outer.shape[-1],))
        return SymTensor(self.dim, self.rank + other.rank,
                         outer @ _product_table(self.dim, self.rank, other.rank))

    def __rmul__(self, other):
        return self.__mul__(other)

    def power(self, q):
        """q-fold symmetric tensor product of self."""
        if q < 0 or int(q) != q:
            raise ValueError("power requires a nonnegative integer")
        out = SymTensor(self.dim, 0, np.ones(self.batch + (1,)))
        for _ in range(int(q)):
            out = out * self
        return out

    def rotate(self, rho):
        """Push forward by a rotation rho: the polynomial y -> T(rho^T y),
        matching coordinate-wise rotation of the tensor.  Substitution makes
        y^beta the product of beta_i linear forms <rho[:, i], y> for each i."""
        exps = _basis(self.dim, self.rank).exps
        forms = np.repeat(np.tile(np.asarray(rho, dtype=float).T, (len(exps), 1)), exps.ravel(), axis=0)
        images = SymTensor(self.dim, 0, np.ones((len(exps), 1)))     # the monomials' images
        for form in forms.reshape(len(exps), self.rank, self.dim).swapaxes(0, 1):
            images = images * SymTensor(self.dim, 1, form)
        return SymTensor(self.dim, self.rank, self.data @ images.data)

    def max_abs_coordinate_diff(self, other):
        """Infinity norm of self - other over tensor coordinates (and batches)."""
        if other.dim != self.dim or other.rank != self.rank:
            raise ValueError("dim/rank mismatch")
        return float(np.max(np.abs(self.coordinates_array() - other.coordinates_array())))

    # -- serialization ---------------------------------------------------

    def to_json(self):
        entries = sorted((list(b), c) for b, c in self.coeffs.items())
        return {"dim": self.dim, "rank": self.rank, "entries": [[b, c] for b, c in entries]}

    @staticmethod
    def from_json(obj):
        return SymTensor(
            int(obj["dim"]), int(obj["rank"]),
            {tuple(int(x) for x in b): float(c) for b, c in obj["entries"]},
        )


def metric_tensor(n):
    """The metric tensor Q of R^n, polynomial |y|^2."""
    return SymTensor(n, 2, {tuple(2 if i == j else 0 for j in range(n)): 1.0 for i in range(n)})


def subspace_metric_tensor(basis):
    """Q(L) for the subspace L spanned by the orthonormal columns of `basis`:
    polynomial |p_L y|^2 = sum_i <b_i, y>^2.  Empty basis gives the zero
    rank-2 tensor."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2:
        raise ValueError("basis must be an n x d matrix")
    n, d = basis.shape
    if d and np.max(np.abs(basis.T @ basis - np.eye(d))) > DIRECTION_TOL:
        raise ValueError("basis columns are not orthonormal")
    return vector_power(basis.T, 2).sum()


def vector_power(x, r):
    """The rank-r tensor x^r, polynomial <x, y>^r; x is (..., n) and the
    leading axes of x become the batch."""
    x = np.asarray(x, dtype=float)
    if r < 0 or int(r) != r:
        raise ValueError("r must be a nonnegative integer")
    r = int(r)
    basis = _basis(x.shape[-1], r)
    powers = np.empty((r + 1,) + x.shape)     # x^0, ..., x^r by repeated products
    powers[0] = 1.0
    for k in range(r):
        np.multiply(powers[k], x, out=powers[k + 1])
    monomials = 1.0
    for i, e in enumerate(basis.exps.T):
        monomials = monomials * powers[e, ..., i]
    return SymTensor(x.shape[-1], r, np.moveaxis(monomials, 0, -1) * basis.multinom)
