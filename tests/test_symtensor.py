import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgeo.symtensor import (
    SymTensor,
    metric_tensor,
    multi_degrees,
    multinomial,
    subspace_metric_tensor,
    vector_power,
)

finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def vectors(dim):
    return st.lists(finite, min_size=dim, max_size=dim).map(np.array)


class TestBasics:
    def test_multi_degrees_count(self):
        # stars and bars: C(rank + dim - 1, dim - 1)
        from math import comb
        for dim in range(1, 4):
            for rank in range(5):
                assert len(multi_degrees(dim, rank)) == comb(rank + dim - 1, dim - 1)

    def test_multinomial(self):
        assert multinomial(4, (2, 2)) == 6
        assert multinomial(3, (3, 0)) == 1

    def test_coordinate_roundtrip(self):
        t = SymTensor.from_coordinates(2, 2, {(2, 0): 1.0, (1, 1): 0.5, (0, 2): -2.0})
        assert t.coordinate((1, 1)) == 0.5
        assert t.coordinate((2, 0)) == 1.0

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            SymTensor(2, 2, {(1, 0): 1.0})

    @pytest.mark.parametrize("call", [
        lambda: SymTensor(2, 2, np.zeros(4)),
        lambda: SymTensor(2, 2, 1.0),
        lambda: SymTensor(2, 2).coordinate((1, 0)),
        lambda: SymTensor(2, 2).value(),
        lambda: SymTensor(2, 1).power(-1),
        lambda: SymTensor(2, 1).power(1.5),
        lambda: vector_power(np.ones(2), -1),
        lambda: SymTensor(2, 1) + SymTensor(3, 1),
        lambda: SymTensor(2, 1) + SymTensor(2, 2),
        lambda: SymTensor(2, 1) * SymTensor(3, 1),
        lambda: SymTensor(2, 1).max_abs_coordinate_diff(SymTensor(2, 2)),
        lambda: SymTensor(2, 1, np.zeros((3, 2))).coeffs,
        lambda: subspace_metric_tensor(np.ones(2))],
        ids=["shape", "scalar-array", "coordinate-degree", "value-rank", "power-negative",
             "power-fraction", "vector-power-negative", "add-dim", "add-rank", "mul-dim",
             "diff-rank", "coeffs-batched", "subspace-basis-shape"])
    def test_shape_rank_and_dimension_errors(self, call):
        with pytest.raises(ValueError):
            call()

    def test_batched_repr(self):
        assert repr(SymTensor(3, 2, np.zeros((4, 6)))) == "SymTensor(dim=3, rank=2, batch=(4,))"


class TestAlgebra:
    @given(x=vectors(3), y=vectors(3))
    @settings(max_examples=50, deadline=None)
    def test_vector_power_evaluates_to_inner_power(self, x, y):
        for r in (0, 1, 2, 3):
            assert vector_power(x, r)(y) == pytest.approx(float(x @ y) ** r, rel=1e-9, abs=1e-9)

    @given(x=vectors(2), z=vectors(2), y=vectors(2))
    @settings(max_examples=50, deadline=None)
    def test_product_is_pointwise_polynomial_product(self, x, z, y):
        a = vector_power(x, 2)
        b = vector_power(z, 1)
        assert (a * b)(y) == pytest.approx(a(y) * b(y), rel=1e-9, abs=1e-9)

    @given(y=vectors(3))
    @settings(max_examples=50, deadline=None)
    def test_metric_tensor_is_norm_squared(self, y):
        assert metric_tensor(3)(y) == pytest.approx(float(y @ y), rel=1e-12, abs=1e-12)

    @given(y=vectors(2))
    @settings(max_examples=30, deadline=None)
    def test_addition_pointwise(self, y):
        a = vector_power(np.array([1.0, 2.0]), 2)
        b = vector_power(np.array([-1.0, 0.5]), 2)
        assert (a + b)(y) == pytest.approx(a(y) + b(y), rel=1e-12, abs=1e-12)

    def test_power(self):
        q = metric_tensor(2)
        y = np.array([1.0, 2.0])
        assert q.power(3)(y) == pytest.approx((y @ y) ** 3)

    def test_full_subspace_metric_equals_metric(self):
        q = subspace_metric_tensor(np.eye(3))
        assert q.max_abs_coordinate_diff(metric_tensor(3)) == 0.0

    def test_subspace_metric_projects(self):
        basis = np.array([[1.0], [0.0]])
        q = subspace_metric_tensor(basis)
        assert q(np.array([3.0, 4.0])) == pytest.approx(9.0)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            subspace_metric_tensor(np.array([[1.0], [1.0]]))


class TestRotation:
    def test_rotate_matches_pointwise(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            t = vector_power(x, 3)
            # (rho . T)(y) = T(rho^T y)
            assert t.rotate(q)(y) == pytest.approx(t(q.T @ y), rel=1e-9, abs=1e-9)

    def test_rotate_vector_power_is_power_of_rotated(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        x = np.array([1.0, -2.0])
        lhs = vector_power(x, 2).rotate(q)
        rhs = vector_power(q @ x, 2)
        assert lhs.max_abs_coordinate_diff(rhs) < 1e-12

    def test_metric_is_rotation_invariant(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert metric_tensor(3).rotate(q).max_abs_coordinate_diff(metric_tensor(3)) < 1e-12

    @pytest.mark.parametrize("rank", range(9))
    def test_batched_rotation_in_r4(self, rank):
        # (rho . T)(y) = T(rho^T y) for each tensor of a batch, and rotating
        # twice is rotating by the product
        rng = np.random.default_rng(rank)
        (q1, _), (q2, _) = (np.linalg.qr(rng.standard_normal((4, 4))) for _ in range(2))
        t = SymTensor(4, rank, rng.standard_normal((6, len(multi_degrees(4, rank)))))
        y = rng.standard_normal((6, 4))
        scale = np.abs(t.data).sum(axis=1) * np.linalg.norm(y, axis=1) ** rank
        assert np.all(np.abs(t.rotate(q1)(y) - t(y @ q1)) <= 1e-13 * scale)
        twice, once = t.rotate(q2).rotate(q1), t.rotate(q1 @ q2)
        assert np.abs(twice.data - once.data).max() <= 1e-13 * np.abs(once.data).max()


class TestBatched:
    """Each operation on a batch equals the same operation applied sample by
    sample, and batched products are pointwise polynomial products."""

    @given(dim=st.integers(1, 3), r1=st.integers(0, 3), r2=st.integers(0, 3),
           batch=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batched_matches_per_sample(self, dim, r1, r2, batch, seed):
        rng = np.random.default_rng(seed)

        def random_tensor(rank):
            return SymTensor(dim, rank, rng.standard_normal((batch, len(multi_degrees(dim, rank)))))

        a, b, c = random_tensor(r1), random_tensor(r2), random_tensor(r1)
        x = rng.standard_normal((batch, dim))
        w = rng.standard_normal(batch)
        rho, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        batched = [a * b, a.power(2), vector_power(x, r2), a.rotate(rho), a.add_scaled(c, w), a.scale(w)]
        for i in range(batch):
            ai, bi, ci = (SymTensor(dim, t.rank, t.data[i]) for t in (a, b, c))
            single = [ai * bi, ai.power(2), vector_power(x[i], r2), ai.rotate(rho),
                      ai.add_scaled(ci, w[i]), ai.scale(w[i])]
            for got, want in zip(batched, single):
                assert got.batch == (batch,) and want.batch == ()
                assert got.data[i] == pytest.approx(want.data, rel=1e-12, abs=1e-12)
        total = sum((SymTensor(dim, r1, a.data[i]) for i in range(1, batch)), SymTensor(dim, r1, a.data[0]))
        assert a.sum().data == pytest.approx(total.data, rel=1e-12, abs=1e-12)
        y = rng.standard_normal((batch, dim))
        assert (a * b)(y) == pytest.approx(a(y) * b(y), rel=1e-9, abs=1e-9)
        assert (a * b)(y[0]) == pytest.approx(a(y[0]) * b(y[0]), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("batch", [(0,), (3, 0)])
    def test_empty_batch(self, batch):
        """A batch with no tensors (a block of sections without a face)
        goes through every operation and sums to zero."""
        x = np.ones(batch + (3,))
        a, b = vector_power(x, 2), vector_power(x, 1)
        assert a.batch == batch and a.data.shape == batch + (6,)
        for t in (a * b, b * a, a * metric_tensor(3), metric_tensor(3) * b, a.power(2),
                  b.power(0), a.scale(np.ones(batch)), a * np.ones(batch)):
            assert t.batch == batch
        assert (a * b).rank == 3 and a.power(2).rank == 4
        assert np.array_equal(a.sum().data, np.zeros(6))
        assert a.sum(axis=(len(batch) - 1,)).batch == batch[:-1]

    def test_coeffs_view_omits_zeros_and_is_read_only(self):
        t = SymTensor(2, 2, {(2, 0): 1.5, (1, 1): 0.0})
        assert t.coeffs == {(2, 0): 1.5}
        with pytest.raises(TypeError):
            t.coeffs[(0, 2)] = 1.0
        assert SymTensor.zero(3, 4).coeffs == {}


class TestSerialization:
    def test_json_roundtrip(self):
        t = SymTensor.from_coordinates(3, 2, {(2, 0, 0): 1.5, (0, 1, 1): -0.25})
        t2 = SymTensor.from_json(t.to_json())
        assert t.max_abs_coordinate_diff(t2) == 0.0
        assert t2.dim == 3 and t2.rank == 2
