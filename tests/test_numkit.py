"""Unit tests for the numeric kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainboost.numkit import (
    ShapeError,
    layer_norm,
    softmax,
    softmax_jacobian,
    vector_norm,
)
from oracles import finite_diff_grad


class TestSoftmax:
    def test_symmetric_pair(self):
        assert np.allclose(softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)

    def test_constant_vector(self):
        assert np.allclose(softmax(np.full(4, 7.3)), 0.25, atol=1e-15)

    def test_analytic_two_point(self):
        p = softmax(np.array([0.0, np.log(2.0)]))
        assert np.allclose(p, [1 / 3, 2 / 3], atol=1e-14)

    def test_rejects_matrix(self):
        with pytest.raises(ShapeError):
            softmax(np.zeros((2, 2)))

    def test_large_logits_stable(self):
        p = softmax(np.array([50.0, -50.0, 0.0]))
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=12),
           st.floats(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, vals, c):
        z = np.array(vals)
        assert np.allclose(softmax(z + c), softmax(z), atol=1e-12)

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_simplex(self, vals):
        p = softmax(np.array(vals))
        assert (p >= 0).all() and abs(p.sum() - 1.0) < 1e-12


class TestSoftmaxJacobian:
    def test_two_point_formula(self):
        j = softmax_jacobian(np.zeros(2))
        assert np.allclose(j, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_rows_sum_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            j = softmax_jacobian(rng.normal(0, 5, 7))
            assert np.abs(j.sum(axis=1)).max() < 1e-12

    def test_symmetric(self):
        j = softmax_jacobian(np.random.default_rng(1).normal(0, 2, 6))
        assert np.allclose(j, j.T, atol=1e-15)

    def test_matches_finite_differences(self):
        z = np.random.default_rng(2).normal(0, 1.5, 5)
        j = softmax_jacobian(z)
        for i in range(5):
            fd = finite_diff_grad(lambda x, i=i: softmax(x)[i], z, eps=1e-6)
            assert np.abs(j[i] - fd).max() < 1e-8


class TestLayerNorm:
    def test_constant_input_zeroed(self):
        out = layer_norm(np.full(5, 3.0), 1.0, 0.0, 1e-5)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_already_normalized(self):
        out = layer_norm(np.array([1.0, -1.0]), 1.0, 0.0, 0.0)
        assert np.allclose(out, [1.0, -1.0], atol=1e-14)

    def test_output_statistics(self):
        h = np.random.default_rng(3).normal(2.0, 3.0, 8)
        out = layer_norm(h, 1.0, 0.0, 1e-5)
        assert abs(out.mean()) < 1e-12
        assert abs(out.var() - 1.0) < 1e-4  # eps=1e-5 pulls variance slightly under 1

    @given(st.floats(-10, 10), st.floats(0.1, 10))
    @settings(max_examples=30, deadline=None)
    def test_shift_and_scale_invariance_eps0(self, c, a):
        h = np.array([0.3, -1.2, 2.5, 0.0])
        base = layer_norm(h, 1.0, 0.0, 0.0)
        assert np.allclose(layer_norm(h + c, 1.0, 0.0, 0.0), base, atol=1e-9)
        assert np.allclose(layer_norm(a * h, 1.0, 0.0, 0.0), base, atol=1e-9)

    def test_gain_bias(self):
        h = np.array([1.0, -1.0])
        out = layer_norm(h, np.array([2.0, 3.0]), np.array([1.0, -1.0]), 0.0)
        assert np.allclose(out, [3.0, -4.0], atol=1e-12)


class TestVectorNorm:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 33, 4960, 100_003])
    def test_bits_of_linalg_norm(self, n):
        # descent_probe's and estimate_alignment's norms keep the bits of
        # np.linalg.norm only while it sums in this order: a numpy whose norm
        # changes shows up here
        rng = np.random.default_rng(n)
        for v in (rng.normal(0.0, 1.0, n), rng.normal(0.0, 1e-150, n), rng.normal(0.0, 1e150, n),
                  np.zeros(n), np.arange(n, dtype=float)[::-1]):
            got, want = vector_norm(v), np.linalg.norm(v)
            assert type(got) is float and got.hex() == float(want).hex()


class TestFiniteDiff:
    def test_sum(self):
        g = finite_diff_grad(np.sum, np.array([1.0, 2.0, -3.0]), eps=1e-6)
        assert np.allclose(g, 1.0, atol=1e-9)

    def test_half_norm_squared(self):
        x = np.array([3.0, -1.0])
        g = finite_diff_grad(lambda v: 0.5 * float(v @ v), x, eps=1e-6)
        assert np.abs(g - x).max() < 1e-8

    def test_softmax_cross_entropy_identity(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 2, 6)
        gold = 2
        g = finite_diff_grad(lambda v: -np.log(softmax(v)[gold]), z, eps=1e-6)
        expect = softmax(z).copy()
        expect[gold] -= 1.0
        assert np.abs(g - expect).max() < 1e-6

    def test_nan_propagates_as_failure(self):
        with pytest.raises(FloatingPointError):
            finite_diff_grad(lambda v: float("nan"), np.zeros(2), eps=1e-6)
