"""Tests for the from-scratch network and optimizer.

Oracles: direct (non-im2col) convolution loops, central finite
differences in float64, hand-counted parameter totals for the two
full-scale configurations (4,855,474 and 726,898), reference kernels
(slice-concatenate im2col, argmax pooling, a full image backward pass
through the whole dcols product) and the conv / relu / pool stage order,
which the layers and networks must match bit for bit, and a pinned
weight file.
"""

import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import firescout
from firescout import nn
from firescout.dqn import ReplayBuffer, Trainer, TrainingConfig
from firescout.nn import (
    _TAP_MIN_BYTES,
    AdaMax,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2,
    NetworkConfig,
    QNetwork,
    Relu,
    copy_weights,
    load_weights,
    save_weights,
)

SMALL = NetworkConfig(
    image_shape=(8, 6, 1),
    conv_stages=2,
    conv_filters=4,
    image_dense=(10,),
    continuous_dense=(6, 6),
    merge_dense=(8,),
)


def forward_one(net, image, cont):
    """Action values of one (image, continuous) sample, shape (n_actions,):
    the one row of a forward_batch call."""
    return net.forward_batch(np.asarray(image)[None, ...], np.asarray(cont)[None, :])[0]


def vector_views(*arrays):
    """Copies of arrays as consecutive views of one new vector, the form of
    a network's parameters() and gradients that AdaMax steps."""
    vector = np.concatenate([np.ravel(a) for a in arrays])
    return nn._VectorViews(vector, nn._views(vector, [np.shape(a) for a in arrays]))


def numeric_gradient(f, arr, h=1e-6):
    """Central finite differences of scalar f with respect to arr, in place."""
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + h
        hi = f()
        arr[idx] = keep - h
        lo = f()
        arr[idx] = keep
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


def assert_close_gradients(analytic, numeric, tol=1e-4):
    """Relative error with an absolute floor for near-zero coordinates."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    worst = float(np.max(np.abs(analytic - numeric) / denom))
    assert worst < tol, f"worst relative gradient error {worst:.3e}"


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# -- reference kernels ------------------------------------------------------
#
# The straightforward im2col, pooling and backward code: each layer's
# faster kernel must give exactly the same bits.

class OracleConv2D(Conv2D):
    """im2col by k*k slice copies; backward always computes dx by col2im."""

    def forward(self, x):
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        n, h, w, c = x.shape
        k = self.kernel
        pad = (k - 1) // 2
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        xp[:, pad:pad + h, pad:pad + w, :] = x
        patches = [xp[:, di:di + h, dj:dj + w, :] for di in range(k) for dj in range(k)]
        cols = np.concatenate(patches, axis=3)
        y = cols.reshape(-1, k * k * c) @ self.weight.reshape(k * k * c, -1) + self.bias
        return y.reshape(n, h, w, -1), (cols, x.shape)

    def backward(self, cache, dout, input_grad=True):
        cols, x_shape = cache
        n, h, w, c = x_shape
        k = self.kernel
        pad = (k - 1) // 2
        kkc = k * k * c
        n_out = dout.shape[-1]
        dflat = dout.reshape(-1, n_out)
        dw = (cols.reshape(-1, kkc).T @ dflat).reshape(self.weight.shape)
        db = dflat.sum(axis=0)
        dcols = (dflat @ self.weight.reshape(kkc, n_out).T).reshape(n, h, w, k, k, c)
        dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=dout.dtype)
        for di in range(k):
            for dj in range(k):
                dxp[:, di:di + h, dj:dj + w, :] += dcols[:, :, :, di, dj, :]
        return dxp[:, pad:pad + h, pad:pad + w, :], [dw, db]


class OracleMaxPool2(MaxPool2):
    """argmax over a transposed window copy; backward by put_along_axis."""

    @staticmethod
    def _windows(x):
        n, h, w, c = x.shape
        oh, ow = h // 2, w // 2
        win = x[:, :2 * oh, :2 * ow, :].reshape(n, oh, 2, ow, 2, c)
        return win.transpose(0, 1, 3, 2, 4, 5).reshape(n, oh, ow, 4, c)

    def forward(self, x):
        return self._windows(x).max(axis=3)

    def forward_cached(self, x):
        win = self._windows(x)
        idx = win.argmax(axis=3)  # ties resolve to the first element
        y = np.take_along_axis(win, idx[:, :, :, None, :], axis=3).squeeze(3)
        return y, (idx, x.shape)

    def backward(self, cache, dout):
        idx, x_shape = cache
        n, h, w, c = x_shape
        oh, ow = h // 2, w // 2
        dwin = np.zeros((n, oh, ow, 4, c), dtype=dout.dtype)
        np.put_along_axis(dwin, idx[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
        dwin = dwin.reshape(n, oh, ow, 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
        dx = np.zeros(x_shape, dtype=dout.dtype)
        dx[:, :2 * oh, :2 * ow, :] = dwin.reshape(n, 2 * oh, 2 * ow, c)
        return dx, []


def oracle_network(config, seed, dtype=np.float32):
    """The network QNetwork(config, default_rng(seed)) builds, on the
    reference kernels and in the stage order conv / relu / pool: ReLU runs
    on the full-resolution map, dx comes from the whole dcols product, and
    the first conv layer also computes the unused dx."""
    net = QNetwork(config, np.random.default_rng(seed), dtype=dtype)
    layers = net.image_layers
    for i, layer in enumerate(layers):
        if type(layer) is Conv2D:
            pool, relu = layers[i + 1:i + 3]
            assert type(pool) is MaxPool2 and type(relu) is Relu
            layer.__class__, pool.__class__ = OracleConv2D, OracleMaxPool2
            layers[i + 1:i + 3] = [relu, pool]
    return net


@st.composite
def tie_heavy_images(draw):
    """(n, h, w, c) images of values in {-1, 0, 1} or of ReLU outputs, and
    a generator seeded from the draw."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.integers(1, 9)),
             draw(st.sampled_from([1, 2, 3, 8])))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(-1, 2, size=shape).astype(dtype)
    else:
        x = Relu().forward(rng.normal(size=shape).astype(dtype))
    return x, rng


def upstream_gradient(rng, shape, dtype):
    """Normal values with a fifth of them negative zero."""
    d = rng.normal(size=shape).astype(dtype)
    d[rng.random(shape) < 0.2] = -0.0
    return d


class TestConv2D:
    def direct_convolution(self, x, weight, bias):
        """Quadruple-loop same-padding convolution, the slow way."""
        n, h, w, c = x.shape
        k = weight.shape[0]
        f = weight.shape[3]
        pad = (k - 1) // 2
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
        xp[:, pad:pad + h, pad:pad + w, :] = x
        out = np.zeros((n, h, w, f))
        for b in range(n):
            for i in range(h):
                for j in range(w):
                    patch = xp[b, i:i + k, j:j + k, :]
                    for m in range(f):
                        out[b, i, j, m] = (patch * weight[:, :, :, m]).sum() + bias[m]
        return out

    def test_forward_matches_direct_loops(self):
        rng = np.random.default_rng(3)
        layer = Conv2D(2, 3, rng, np.float64)
        x = rng.normal(size=(2, 4, 5, 2))
        got = layer.forward(x)
        want = self.direct_convolution(x, layer.weight, layer.bias)
        assert got.shape == (2, 4, 5, 3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        layer = Conv2D(2, 3, rng, np.float64)
        x = rng.normal(size=(2, 4, 5, 2))
        probe = rng.normal(size=(2, 4, 5, 3))

        def objective():
            return float((layer.forward(x) * probe).sum())

        y, cache = layer.forward_cached(x)
        dx, (dw, db) = layer.backward(cache, probe)
        assert_close_gradients(dx, numeric_gradient(objective, x), 1e-6)
        assert_close_gradients(dw, numeric_gradient(objective, layer.weight), 1e-6)
        assert_close_gradients(db, numeric_gradient(objective, layer.bias), 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(images=tie_heavy_images(), k=st.sampled_from([1, 3, 5]), n_out=st.integers(1, 4))
    def test_bit_identical_to_oracle(self, images, k, n_out):
        x, rng = images
        c = x.shape[-1]
        seed = int(rng.integers(2**32))
        layer = Conv2D(c, n_out, np.random.default_rng(seed), x.dtype, k)
        oracle = OracleConv2D(c, n_out, np.random.default_rng(seed), x.dtype, k)
        layer.bias[...] = oracle.bias[...] = rng.normal(size=n_out)
        y, cache = layer.forward_cached(x)
        want_y, want_cache = oracle.forward_cached(x)
        assert_same_bits(y, want_y)
        dout = upstream_gradient(rng, y.shape, x.dtype)
        dx, grads = layer.backward(cache, dout)
        want_dx, want_grads = oracle.backward(want_cache, dout)
        assert_same_bits(dx, want_dx)
        no_dx, param_grads = layer.backward(cache, dout, input_grad=False)
        assert no_dx is None
        for got, also, want in zip(grads, param_grads, want_grads):
            assert_same_bits(got, want)
            assert_same_bits(also, want)

    @settings(max_examples=40, deadline=None)
    @given(c=st.sampled_from([1, 2, 8, 45, 50, 64, 65]), k=st.sampled_from([3, 5]),
           n_out=st.sampled_from([1, 7, 8, 32, 64]), dtype=st.sampled_from([np.float32, np.float64]),
           h=st.integers(3, 12), w=st.integers(3, 12), extra=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    # float64 per-tap dx lost bits here, so float64 layers keep the whole product
    @example(c=45, k=3, n_out=7, dtype=np.float64, h=3, w=3, extra=0, seed=0)
    def test_large_batches_bit_identical_to_oracle(self, c, k, n_out, dtype, h, w, extra, seed):
        """Batches whose per-tap products are past the size from which dx
        is built one kernel tap at a time (for c > 1)."""
        itemsize = np.dtype(dtype).itemsize
        n = _TAP_MIN_BYTES // (h * w * c * itemsize) + 1 + extra
        assert n * h * w * c * itemsize > _TAP_MIN_BYTES
        rng = np.random.default_rng(seed)
        x = rng.integers(-1, 2, size=(n, h, w, c)).astype(dtype)
        layer = Conv2D(c, n_out, np.random.default_rng(seed), dtype, k)
        oracle = OracleConv2D(c, n_out, np.random.default_rng(seed), dtype, k)
        y, cache = layer.forward_cached(x)
        want_y, want_cache = oracle.forward_cached(x)
        assert_same_bits(y, want_y)
        dout = upstream_gradient(rng, y.shape, dtype)
        (dx, grads), (want_dx, want_grads) = (layer.backward(cache, dout),
                                              oracle.backward(want_cache, dout))
        for got, want in zip([dx, *grads], [want_dx, *want_grads]):
            assert_same_bits(got, want)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv2D(1, 1, np.random.default_rng(0), np.float64, kernel=4)


class TestMaxPool2:
    def test_forward_matches_loops(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 5, 7, 3))
        got = MaxPool2().forward(x)
        assert got.shape == (2, 2, 3, 3)
        for n in range(2):
            for i in range(2):
                for j in range(3):
                    for c in range(3):
                        window = x[n, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c]
                        assert got[n, i, j, c] == window.max()

    def test_odd_edges_dropped(self):
        x = np.zeros((1, 5, 5, 1))
        x[0, 4, 4, 0] = 99.0  # lives in the dropped row/column
        out = MaxPool2().forward(x)
        assert out.shape == (1, 2, 2, 1)
        assert out.max() == 0.0

    def test_backward_routes_to_argmax(self):
        x = np.zeros((1, 2, 2, 1))
        x[0, 1, 0, 0] = 3.0
        pool = MaxPool2()
        _, cache = pool.forward_cached(x)
        dx, _ = pool.backward(cache, np.full((1, 1, 1, 1), 7.0))
        assert dx[0, 1, 0, 0] == 7.0
        assert dx.sum() == 7.0

    def test_tie_routes_to_first_element(self):
        x = np.ones((1, 2, 2, 1))
        pool = MaxPool2()
        _, cache = pool.forward_cached(x)
        dx, _ = pool.backward(cache, np.full((1, 1, 1, 1), 5.0))
        assert dx[0, 0, 0, 0] == 5.0
        assert dx.sum() == 5.0

    @settings(max_examples=200, deadline=None)
    @given(images=tie_heavy_images())
    def test_bit_identical_to_oracle(self, images):
        x, rng = images
        pool, oracle = MaxPool2(), OracleMaxPool2()
        y, cache = pool.forward_cached(x)
        want_y, want_cache = oracle.forward_cached(x)
        assert_same_bits(y, want_y)
        assert_same_bits(pool.forward(x), want_y)
        dout = upstream_gradient(rng, y.shape, x.dtype)
        assert_same_bits(pool.backward(cache, dout)[0], oracle.backward(want_cache, dout)[0])

    @pytest.mark.parametrize("window, winner", [
        ([[2.0, 2.0], [2.0, 2.0]], 0),    # all four tie: the first wins
        ([[0.0, 0.0], [0.0, 1.0]], 3),    # the maximum only in the last position
        ([[-1.0, 5.0], [0.0, 5.0]], 1),   # a tie between the second and the last
    ])
    def test_window_position_cache(self, window, winner):
        # a 2x4 image: the window under test, then a window of zeros
        x = np.zeros((1, 2, 4, 1))
        x[0, :, :2, 0] = window
        pool = MaxPool2()
        y, (pos, _) = pool.forward_cached(x)
        assert pos.dtype == np.uint8 and pos.shape == y.shape
        assert pos[0, 0, 0, 0] == winner and pos[0, 0, 1, 0] == 0
        dout = np.array([[[[7.0], [-3.0]]]])
        dx, _ = pool.backward((pos, x.shape), dout)
        assert dx[0, winner // 2, winner % 2, 0] == 7.0 and dx[0, 0, 2, 0] == -3.0
        assert np.count_nonzero(dx) == 2
        want_dx, _ = OracleMaxPool2().backward(OracleMaxPool2().forward_cached(x)[1], dout)
        assert_same_bits(dx, want_dx)

    def test_gradient_matches_finite_differences(self):
        # away from ties the pooled output is locally linear
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 4, 4, 2))
        probe = rng.normal(size=(1, 2, 2, 2))
        pool = MaxPool2()

        def objective():
            return float((pool.forward(x) * probe).sum())

        _, cache = pool.forward_cached(x)
        dx, _ = pool.backward(cache, probe)
        assert_close_gradients(dx, numeric_gradient(objective, x), 1e-6)


class TestDense:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        layer = Dense(5, 4, rng, np.float64)
        x = rng.normal(size=(3, 5))
        probe = rng.normal(size=(3, 4))

        def objective():
            return float((layer.forward(x) * probe).sum())

        _, cache = layer.forward_cached(x)
        dx, (dw, db) = layer.backward(cache, probe)
        assert_close_gradients(dx, numeric_gradient(objective, x), 1e-6)
        assert_close_gradients(dw, numeric_gradient(objective, layer.weight), 1e-6)
        assert_close_gradients(db, numeric_gradient(objective, layer.bias), 1e-6)

    def test_glorot_bounds_and_zero_bias(self):
        layer = Dense(100, 50, np.random.default_rng(8), np.float64)
        limit = math.sqrt(6.0 / 150.0)
        assert (np.abs(layer.weight) <= limit).all()
        assert (layer.bias == 0.0).all()
        # a sane spread, not degenerate
        assert layer.weight.std() > limit / 4


class TestRelu:
    def test_forward_and_backward(self):
        r = Relu()
        x = np.array([[-2.0, 0.0, 3.0]])
        assert np.array_equal(r.forward(x), [[0.0, 0.0, 3.0]])
        _, cache = r.forward_cached(x)
        dx, _ = r.backward(cache, np.array([[5.0, 5.0, 5.0]]))
        assert np.array_equal(dx, [[0.0, 0.0, 5.0]])


class TestQNetworkStructure:
    def test_full_scale_parameter_counts(self):
        belief = QNetwork(NetworkConfig(image_shape=(100, 100, 2)),
                          np.random.default_rng(0))
        assert sum(p.size for p in belief.parameters()) == 4_855_474
        obs = QNetwork(NetworkConfig(image_shape=(40, 30, 1)),
                       np.random.default_rng(0))
        assert sum(p.size for p in obs.parameters()) == 726_898

    def test_flatten_width_after_three_pools(self):
        net = QNetwork(NetworkConfig(image_shape=(100, 100, 2)),
                       np.random.default_rng(0))
        # 100 -> 50 -> 25 -> 12 spatial, 64 channels
        first_dense = net.image_layers[10]
        assert isinstance(first_dense, Dense)
        assert first_dense.weight.shape == (12 * 12 * 64, 500)

    def test_image_too_small_rejected(self):
        with pytest.raises(ValueError):
            QNetwork(NetworkConfig(image_shape=(4, 4, 1)), np.random.default_rng(0))

    def test_forward_shapes(self):
        net = QNetwork(SMALL, np.random.default_rng(1))
        images = np.zeros((5, 8, 6, 1), dtype=np.float32)
        conts = np.zeros((5, 5), dtype=np.float32)
        q = net.forward_batch(images, conts)
        assert q.shape == (5, 2)
        single = forward_one(net, images[0], conts[0])
        assert single.shape == (2,)

    def test_shape_validation(self):
        net = QNetwork(SMALL, np.random.default_rng(1))
        with pytest.raises(ValueError):
            net.forward_batch(np.zeros((1, 9, 6, 1)), np.zeros((1, 5)))
        with pytest.raises(ValueError):
            net.forward_batch(np.zeros((1, 8, 6, 1)), np.zeros((1, 4)))

    def test_forward_deterministic(self):
        net = QNetwork(SMALL, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        images = rng.normal(size=(4, 8, 6, 1))
        conts = rng.normal(size=(4, 5))
        a = net.forward_batch(images, conts)
        b = net.forward_batch(images, conts)
        assert np.array_equal(a, b)

    def test_seeded_init_reproducible(self):
        a = QNetwork(SMALL, np.random.default_rng(11))
        b = QNetwork(SMALL, np.random.default_rng(11))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_clone_is_independent(self):
        net = QNetwork(SMALL, np.random.default_rng(4))
        twin = net.clone()
        x = np.random.default_rng(5).normal(size=(1, 8, 6, 1))
        c = np.zeros((1, 5))
        assert np.array_equal(net.forward_batch(x, c), twin.forward_batch(x, c))
        before = net.forward_batch(x, c).copy()
        twin.parameters()[0][...] += 1.0
        assert np.array_equal(net.forward_batch(x, c), before)

    def test_copy_weights_syncs(self):
        a = QNetwork(SMALL, np.random.default_rng(6))
        b = QNetwork(SMALL, np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(2, 8, 6, 1))
        c = np.random.default_rng(9).normal(size=(2, 5))
        assert not np.array_equal(a.forward_batch(x, c), b.forward_batch(x, c))
        copy_weights(a, b)
        assert np.array_equal(a.forward_batch(x, c), b.forward_batch(x, c))

    def test_copy_weights_shape_mismatch(self):
        a = QNetwork(SMALL, np.random.default_rng(0))
        other = NetworkConfig(image_shape=(8, 6, 1), conv_stages=2, conv_filters=4,
                              image_dense=(12,), continuous_dense=(6, 6),
                              merge_dense=(8,))
        b = QNetwork(other, np.random.default_rng(0))
        with pytest.raises(ValueError):
            copy_weights(a, b)


class TestParameterStore:
    """Every weight and bias is a view into one vector per network."""

    def test_parameters_are_consecutive_views_of_one_vector(self):
        net = QNetwork(NetworkConfig(image_shape=(10, 8, 1), **DESK), np.random.default_rng(12))
        params = net.parameters()
        assert net.vector.ndim == 1 and net.vector.dtype == np.float32
        assert net.vector.size == sum(p.size for p in params)
        at = 0
        for p in params:
            assert p.base is net.vector and np.shares_memory(p, net.vector)
            assert np.shares_memory(p, net.vector[at:at + p.size])
            assert not np.shares_memory(p, net.vector[:at])
            at += p.size
        assert np.array_equal(net.vector, np.concatenate([p.reshape(-1) for p in params]))
        layers = [layer for layer in net.layers if hasattr(layer, "weight")]
        assert [id(p) for p in params] == [id(p) for layer in layers
                                          for p in (layer.weight, layer.bias)]

    def test_clone_and_copy_target_stay_independent(self):
        config = NetworkConfig(image_shape=(10, 8, 1), **DESK)
        net = QNetwork(config, np.random.default_rng(13))
        twin, target = net.clone(), QNetwork(config, np.random.default_rng(14))
        copy_weights(net, target)
        for other in (twin, target):
            assert not np.shares_memory(other.vector, net.vector)
            assert other.vector.tobytes() == net.vector.tobytes()
        before = net.vector.copy()
        twin.vector += 1.0
        target.parameters()[0][...] = 0.0
        assert net.vector.tobytes() == before.tobytes()
        net.vector -= 1.0
        assert twin.vector.tobytes() == (before + 1.0).tobytes()
        assert not target.parameters()[0].any()

    def test_clone_and_load_draw_no_init_weights(self, tmp_path, monkeypatch):
        net = QNetwork(SMALL, np.random.default_rng(15))
        path = tmp_path / "w.bin"
        save_weights(net, path)
        draws = []
        glorot = nn._glorot

        def spy(rng, *args):
            draws.append(rng)
            return glorot(rng, *args)

        monkeypatch.setattr(nn, "_glorot", spy)
        for copy in (net.clone(), load_weights(path)):
            assert copy.vector.tobytes() == net.vector.tobytes()
        assert draws and all(rng is nn._NO_DRAWS for rng in draws)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adamax_on_network_views_follows_the_docstring_formula(self, dtype):
        """A step over a network's views updates its vector in one pass, with
        the bits of the per-array update."""
        config = NetworkConfig(image_shape=(10, 8, 1), **DESK)
        net = QNetwork(config, np.random.default_rng(16), dtype=dtype)
        want = [p.copy() for p in net.parameters()]
        m = [np.zeros_like(p) for p in want]
        u = [np.zeros_like(p) for p in want]
        alpha, b1, b2 = 0.01, 0.9, 0.999
        opt = AdaMax(net.parameters(), alpha=alpha, beta1=b1, beta2=b2)
        assert net.parameters().vector is net.vector
        assert all(a.base is opt.m[0].base for a in opt.m)
        for t in range(1, 6):
            _, grads = net.loss_and_gradients(*training_batch(config, 16, 16 + t))
            assert all(g.base is grads.vector for g in grads)
            grads[-1][0] = 0.0  # a coordinate whose u may stay 0, floored at 1e-8
            opt.step(net.parameters(), grads)
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1 - b1) * g
                u[i] = np.maximum(b2 * u[i], np.abs(g))
                want[i] = want[i] - (alpha / (1 - b1 ** t)) * m[i] / np.maximum(u[i], 1e-8)
            for got, expected in zip(net.parameters(), want):
                assert_same_bits(got, expected)
            for got, expected in zip(opt.m + opt.u, m + u):
                assert_same_bits(got, expected)


class TestLossAndGradients:
    def test_loss_value_matches_manual(self):
        net = QNetwork(SMALL, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        images = rng.normal(size=(6, 8, 6, 1)).astype(np.float32)
        conts = rng.normal(size=(6, 5)).astype(np.float32)
        actions = rng.integers(0, 2, 6)
        targets = rng.normal(size=6).astype(np.float32)
        loss, grads = net.loss_and_gradients(images, conts, actions, targets)
        q = net.forward_batch(images, conts)
        err = q[np.arange(6), actions] - targets
        assert loss == float(np.mean(err.astype(np.float64) ** 2))
        assert len(grads) == len(net.parameters())

    def test_empty_batch_rejected(self):
        net = QNetwork(SMALL, np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.loss_and_gradients(np.zeros((0, 8, 6, 1)), np.zeros((0, 5)),
                                   np.zeros(0, dtype=int), np.zeros(0))

    def test_untaken_action_gets_no_gradient(self):
        # final bias column for the never-taken action must have zero grad
        net = QNetwork(SMALL, np.random.default_rng(12))
        rng = np.random.default_rng(13)
        images = rng.normal(size=(4, 8, 6, 1)).astype(np.float32)
        conts = rng.normal(size=(4, 5)).astype(np.float32)
        actions = np.zeros(4, dtype=int)
        _, grads = net.loss_and_gradients(images, conts, actions, np.zeros(4))
        final_bias_grad = grads[-1]
        assert final_bias_grad.shape == (2,)
        assert final_bias_grad[1] == 0.0
        assert final_bias_grad[0] != 0.0

    def test_whole_network_gradcheck(self):
        """Central finite differences across every parameter of a small
        dual-branch network, float64."""
        net = QNetwork(SMALL, np.random.default_rng(14), dtype=np.float64)
        rng = np.random.default_rng(15)
        images = rng.normal(size=(4, 8, 6, 1))
        conts = rng.normal(size=(4, 5))
        actions = rng.integers(0, 2, 4)
        targets = rng.normal(size=4)

        def objective():
            loss, _ = net.loss_and_gradients(images, conts, actions, targets)
            return loss

        _, analytic = net.loss_and_gradients(images, conts, actions, targets)
        for param, grad in zip(net.parameters(), analytic):
            assert_close_gradients(grad, numeric_gradient(objective, param), 1e-4)


DESK = dict(conv_stages=2, conv_filters=8, image_dense=(64, 32),
            continuous_dense=(32, 32), merge_dense=(64,))


def conv_network_case(c, stages, h, w, filters, n, seed):
    """A small conv network config, its conv biases and a training batch.

    Image values are -1, -0.0, 0 and 1, so windows tie exactly and hold
    negative zeros; each filter's bias is -2, 0 or 0.5, so whole pooling
    windows are negative, or tie at 0 where the image is blank.
    """
    config = NetworkConfig(image_shape=(h, w, c), conv_stages=stages, conv_filters=filters,
                           image_dense=(16,), continuous_dense=(8,), merge_dense=(8,))
    rng = np.random.default_rng(seed)
    images = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], np.float32), size=(n, h, w, c))
    biases = [rng.choice(np.array([-2.0, 0.0, 0.5], np.float32), size=filters)
              for _ in range(stages)]
    batch = (images, rng.normal(size=(n, 5)).astype(np.float32), rng.integers(0, 2, n),
             rng.normal(size=n).astype(np.float32))
    return config, biases, batch


@st.composite
def conv_networks(draw):
    c = draw(st.sampled_from([1, 2, 8, 64]))
    stages = draw(st.integers(1, 2))
    h, w = draw(st.integers(2 ** stages, 21)), draw(st.integers(2 ** stages, 21))
    return conv_network_case(c, stages, h, w, draw(st.sampled_from([2, 8, 32])),
                             draw(st.sampled_from([1, 3, 16])), draw(st.integers(0, 2**32 - 1)))


class ConvPaths:
    """Spies on Conv2D: per forward call of a layer, the image count of each
    im2col matrix it builds, and (layer, input_grad, dw tap by tap) of each
    backward call. A backward pass whose cache holds the layer input (4-d)
    rather than an im2col matrix (2-d) computes dw one kernel tap at a
    time. The network may itself pass a layer a chunk of images at a time,
    one forward call each."""

    def __init__(self, monkeypatch):
        self.columns, self.backward = [], []
        conv, columns, backward = Conv2D._conv, Conv2D._columns, Conv2D.backward

        def spy_conv(layer, x):
            self.columns.append((layer, []))
            return conv(layer, x)

        def spy_columns(layer, xp, h, w):
            self.columns[-1][1].append(len(xp))
            return columns(layer, xp, h, w)

        def spy_backward(layer, cache, dout, input_grad=True):
            self.backward.append((layer, input_grad, cache[0].ndim == 4))
            return backward(layer, cache, dout, input_grad)

        monkeypatch.setattr(Conv2D, "_conv", spy_conv)
        monkeypatch.setattr(Conv2D, "_columns", spy_columns)
        monkeypatch.setattr(Conv2D, "backward", spy_backward)

    def chunks(self, layer):
        """Per forward call of layer, the image counts of its im2col matrices."""
        return [sizes for other, sizes in self.columns if other is layer]

    def images(self, layer):
        return sum(map(sum, self.chunks(layer)))

    def splits(self, layer):
        """Whether a forward call of layer built im2col a chunk of images at a time."""
        return any(len(sizes) > 1 for sizes in self.chunks(layer))


def assert_network_matches_oracle(net, oracle, batch, forward_rows):
    loss, grads = net.loss_and_gradients(*batch)
    want_loss, want_grads = oracle.loss_and_gradients(*batch)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert_same_bits(got, want)
    images, conts = batch[:2]
    for rows in forward_rows:
        assert_same_bits(net.forward_batch(images[:rows], conts[:rows]),
                         oracle.forward_batch(images[:rows], conts[:rows]))


class TestNetworkBitIdentity:
    """Whole networks on the layer kernels against the same networks on
    the reference kernels: the same bits, batch by batch."""

    @pytest.mark.parametrize("config, batch, splits", [
        (NetworkConfig(image_shape=(10, 8, 1), **DESK), 64, [False] * 2),   # desk observation
        (NetworkConfig(image_shape=(20, 20, 2), **DESK), 64, [False] * 2),  # desk belief
        (NetworkConfig(image_shape=(40, 30, 1)), 64, [False, True, True]),  # paper observation
        (NetworkConfig(image_shape=(100, 100, 2)), 8, [False, True, True]),  # paper belief
    ], ids=["desk-observation", "desk-belief", "paper-observation", "paper-belief"])
    def test_losses_gradients_and_values(self, config, batch, splits, monkeypatch):
        net, oracle = QNetwork(config, np.random.default_rng(40)), oracle_network(config, 40)
        paths = ConvPaths(monkeypatch)
        rng = np.random.default_rng(41)
        # 0/1 images: pooling windows full of exact ties
        images = rng.integers(0, 2, size=(batch,) + config.image_shape).astype(np.float32)
        conts = rng.normal(size=(batch, 5)).astype(np.float32)
        actions = rng.integers(0, 2, batch)
        targets = rng.normal(size=batch).astype(np.float32)
        net.loss_and_gradients(images, conts, actions, targets)
        convs = [layer for layer in net.image_layers if isinstance(layer, Conv2D)]
        # a split layer builds im2col a chunk of images at a time and dw tap by
        # tap; only the first conv layer, whose input is the image, skips dx
        assert [paths.images(layer) for layer in convs] == [batch] * len(convs)
        assert [paths.splits(layer) for layer in convs] == splits
        assert paths.backward == [(layer, layer is not convs[0], split)
                                  for layer, split in reversed(list(zip(convs, splits)))]
        assert_network_matches_oracle(net, oracle, (images, conts, actions, targets), (1, 3, 64))

    # (c, stages, h, w, filters, training rows, budget, which conv layers split
    # at that batch): on each side of each limit of Conv2D._splits
    @pytest.mark.parametrize("c, stages, h, w, filters, n, budget, splits", [
        (64, 2, 12, 10, 64, 64, 1 << 18, [True, True]),  # two c = 64 layers
        (64, 1, 12, 10, 18, 64, 1 << 18, [False]),  # one tap's dw: 64 * 18 = 1,152 entries
        (64, 1, 12, 10, 19, 64, 1 << 18, [True]),   # 64 * 19 = 1,216 entries
        (64, 1, 9, 6, 32, 64, 1 << 18, [False]),    # one image: 54 * 576 * 32 = 995,328 MACs
        (64, 1, 11, 5, 32, 64, 1 << 18, [True]),    # 55 * 576 * 32 = 1,013,760 MACs
        (64, 1, 7, 7, 64, 4, 1 << 18, [False]),     # one tap's dw: 4 * 49 * 64 * 64 = 802,816 MACs
        (64, 1, 7, 7, 64, 5, 1 << 18, [True]),      # 5 * 49 * 64 * 64 = 1,003,520 MACs
        (64, 1, 7, 7, 64, 5, 564_480, [False]),     # im2col exactly at the budget
        (64, 1, 7, 7, 64, 5, 564_479, [True]),      # one byte over it
        (2, 1, 12, 10, 64, 64, 1 << 10, [False]),   # 2 * 64 = 128 entries, as paper belief layer 1
    ], ids=["two-layers", "tap-entries-below", "tap-entries-above", "image-macs-below",
            "image-macs-above", "tap-macs-below", "tap-macs-above", "at-budget", "over-budget",
            "two-channels"])
    def test_smaller_budget_matches_oracle(self, c, stages, h, w, filters, n, budget, splits,
                                           monkeypatch):
        """A patched im2col budget puts the chunked forward and the tap-by-tap
        dw on small c = 64 layers; each one that splits keeps every bit."""
        monkeypatch.setattr(nn, "_COLUMNS_MAX_BYTES", budget)
        config, biases, batch = conv_network_case(c, stages, h, w, filters, 64, 60)
        net, oracle = QNetwork(config, np.random.default_rng(61)), oracle_network(config, 61)
        for model in (net, oracle):
            convs = [layer for layer in model.image_layers if isinstance(layer, Conv2D)]
            for layer, bias in zip(convs, biases):
                layer.bias[...] = bias
        paths = ConvPaths(monkeypatch)
        batch = tuple(a[:n] for a in batch)
        net.loss_and_gradients(*batch)
        convs = [layer for layer in net.image_layers if isinstance(layer, Conv2D)]
        assert [paths.images(layer) for layer in convs] == [n] * len(convs)
        assert [paths.splits(layer) for layer in convs] == splits
        assert [tapped for _, _, tapped in reversed(paths.backward)] == splits
        assert_network_matches_oracle(net, oracle, batch, (1, 3, 64))

    @pytest.mark.parametrize("c, n_out, hw, dtype", [
        (64, 64, (50, 50), np.float64),    # float64 products lost bits when split
        (1, 2000, (50, 50), np.float32),   # one tap's dw product is a gemv
        (2000, 1, (50, 50), np.float32),   # every product is a gemv
        (64, 64, (1, 1), np.float32),      # one image's product is a gemv
    ], ids=["float64", "one-channel", "one-filter", "one-pixel"])
    def test_split_rule_refuses_other_kernels(self, c, n_out, hw, dtype):
        layer = Conv2D(c, n_out, np.random.default_rng(0), dtype)
        shape = (100_000, *hw, c)
        assert shape[0] * hw[0] * hw[1] * 9 * c * 4 > nn._COLUMNS_MAX_BYTES
        assert not layer._splits(shape, dtype)
        assert Conv2D(64, 64, np.random.default_rng(0), np.float32)._splits(
            (64, 50, 50, 64), np.float32)

    @settings(max_examples=60, deadline=None)
    @given(case=conv_networks(), seed=st.integers(0, 2**32 - 1))
    # the second stage's per-tap products pass _TAP_MIN_BYTES: dx tap by tap
    @example(case=conv_network_case(64, 2, 21, 19, 32, 16, 0), seed=0)
    @example(case=conv_network_case(1, 2, 19, 21, 32, 16, 1), seed=1)
    def test_random_networks_match_oracle(self, case, seed):
        config, biases, batch = case
        net, oracle = QNetwork(config, np.random.default_rng(seed)), oracle_network(config, seed)
        for model in (net, oracle):
            convs = [layer for layer in model.image_layers if isinstance(layer, Conv2D)]
            for layer, bias in zip(convs, biases):
                layer.bias[...] = bias
        assert (net.forward_batch(*batch[:2]).tobytes()
                == oracle.forward_batch(*batch[:2]).tobytes())
        loss, grads = net.loss_and_gradients(*batch)
        want_loss, want_grads = oracle.loss_and_gradients(*batch)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        for got, want in zip(grads, want_grads, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_relu_runs_on_pooled_maps(self):
        net = QNetwork(NetworkConfig(image_shape=(20, 20, 2), **DESK), np.random.default_rng(46))
        assert [type(layer) for layer in net.image_layers[:6]] == [Conv2D, MaxPool2, Relu] * 2
        a = np.random.default_rng(47).random((4, 20, 20, 2)).astype(np.float32)
        masks = []
        for layer in net.image_layers[:6]:
            a, cache = layer.forward_cached(a)
            if isinstance(layer, Relu):
                masks.append(cache.shape)
        assert masks == [(4, 10, 10, 8), (4, 5, 5, 8)]

    def test_pool_cache_is_one_byte_per_output(self):
        net = QNetwork(NetworkConfig(image_shape=(20, 20, 2), **DESK), np.random.default_rng(42))
        a = np.random.default_rng(43).random((4, 20, 20, 2)).astype(np.float32)
        pools = 0
        for layer in net.image_layers:
            a, cache = layer.forward_cached(a)
            if isinstance(layer, MaxPool2):
                pos, _ = cache
                assert pos.dtype == np.uint8 and pos.shape == a.shape and pos.nbytes == a.size
                assert not any(isinstance(v, np.ndarray) and v.dtype.kind == "f" for v in cache)
                pools += 1
        assert pools == 2

    def test_network_without_conv_stages_trains_a_step(self):
        config = NetworkConfig(image_shape=(3, 2, 1), conv_stages=0, image_dense=(4,),
                               continuous_dense=(4,), merge_dense=(4,))
        net, oracle = QNetwork(config, np.random.default_rng(44)), oracle_network(config, 44)
        assert isinstance(net.image_layers[0], Flatten)
        rng = np.random.default_rng(45)
        batch = (rng.normal(size=(8, 3, 2, 1)), rng.normal(size=(8, 5)),
                 rng.integers(0, 2, 8), rng.normal(size=8))
        loss, grads = net.loss_and_gradients(*batch)
        want_loss, want_grads = oracle.loss_and_gradients(*batch)
        assert loss == want_loss
        for got, want in zip(grads, want_grads):
            assert_same_bits(got, want)
        before = net.parameters()[0].copy()
        AdaMax(net.parameters()).step(net.parameters(), grads)
        assert not np.array_equal(net.parameters()[0], before)
        assert np.isfinite(net.loss_and_gradients(*batch)[0])


# (n, h, w) of the small-shape kernel tests: the desk batch, and odd sides
KERNEL_SIZES = [(64, 10, 8), (3, 7, 5), (1, 9, 3), (5, 4, 11)]


def kernel_input(rng, shape, dtype):
    """Values in {-1, -0.0, 0, 1}: exact ties and negative zeros."""
    return rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), size=shape).astype(dtype)


class TestSmallShapeKernels:
    """The small-shape kernels against the reference kernels, bit for bit, at
    c in {1, 2, 8} and odd sides: the one-channel im2col, the bias added a
    whole image at a time, the einsum column sums, col2im through the flat
    buffer from the whole dcols product and tap by tap, the row-pair
    max-pool and the pool scatter a chunk of images at a time."""

    @pytest.mark.parametrize("n, h, w", KERNEL_SIZES)
    @pytest.mark.parametrize("c, dtype, per_tap", [
        (1, np.float32, False), (2, np.float32, False), (8, np.float32, False),
        (2, np.float32, True), (8, np.float32, True),
        (1, np.float64, False), (8, np.float64, False),
    ])
    def test_conv_layer(self, n, h, w, c, dtype, per_tap, monkeypatch):
        # per_tap: every float32 layer with c > 1 builds dx one tap at a time
        monkeypatch.setattr(nn, "_TAP_MIN_BYTES", 0 if per_tap else 1 << 40)
        rng = np.random.default_rng(n * 1000 + h * 100 + w * 10 + c)
        layer = Conv2D(c, 8, np.random.default_rng(c), dtype)
        oracle = OracleConv2D(c, 8, np.random.default_rng(c), dtype)
        layer.bias[...] = oracle.bias[...] = rng.choice([-2.0, 0.0, 0.5], size=8)
        x = kernel_input(rng, (n, h, w, c), dtype)
        y, cache = layer.forward_cached(x)
        want_y, want_cache = oracle.forward_cached(x)
        assert_same_bits(y, want_y)
        dout = upstream_gradient(rng, y.shape, dtype)
        (dx, grads), (want_dx, want_grads) = (layer.backward(cache, dout),
                                              oracle.backward(want_cache, dout))
        for got, want in zip([dx, *grads], [want_dx, *want_grads]):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("n, h, w", KERNEL_SIZES)
    @pytest.mark.parametrize("c", [1, 2, 8])
    @pytest.mark.parametrize("budget", [None, 1], ids=["one-chunk", "image-chunks"])
    def test_max_pool(self, n, h, w, c, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(nn, "_COLUMNS_MAX_BYTES", budget)
        rng = np.random.default_rng(n * 1000 + h * 100 + w * 10 + c)
        for x in (rng.integers(-1, 2, size=(n, h, w, c)).astype(np.float32),
                  Relu().forward(rng.normal(size=(n, h, w, c))).astype(np.float32)):
            y, (pos, _) = MaxPool2().forward_cached(x)
            want_y, (want_idx, _) = OracleMaxPool2().forward_cached(x)
            assert_same_bits(y, want_y)
            assert np.array_equal(pos, want_idx)
            dout = upstream_gradient(rng, y.shape, np.float32)
            assert_same_bits(MaxPool2().backward((pos, x.shape), dout)[0],
                             OracleMaxPool2().backward((want_idx, x.shape), dout)[0])

    @pytest.mark.parametrize("rows", [1, 7, 1280, 5120])
    @pytest.mark.parametrize("cols", [1, 2, 8, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_column_sums(self, rows, cols, dtype):
        rng = np.random.default_rng(rows + cols)
        a = upstream_gradient(rng, (rows, cols + 3), dtype)
        a[:, 0] = -0.0  # a column of negative zeros sums to +0.0
        for view in (a[:, :cols], a[:, 3:]):
            assert_same_bits(nn._column_sums(view), view.sum(axis=0))


class TestAdaMax:
    def test_first_step_exact(self):
        # beta1=0.5, alpha=0.25: scale = 0.5, m = 5, u = 10, delta = 0.25
        p = vector_views(np.array([5.0]))
        opt = AdaMax(p, alpha=0.25, beta1=0.5)
        opt.step(p, vector_views(np.array([10.0])))
        assert p[0][0] == 4.75

    def test_quadratic_oracle_at_published_text_rate(self):
        # the optimizer run as its own oracle: alpha=0.01 lands at
        # 0.14143760623649654 after 1000 steps and crosses 1e-3 at 1610
        p = vector_views(np.array([5.0]))
        opt = AdaMax(p, alpha=0.01)
        for _ in range(1000):
            opt.step(p, vector_views(2.0 * p[0]))
        assert abs(p[0][0]) == pytest.approx(0.14143760623649654, rel=1e-12)
        for _ in range(610):
            opt.step(p, vector_views(2.0 * p[0]))
        assert abs(p[0][0]) < 1e-3

    def test_quadratic_converges_within_1000_steps(self):
        p = vector_views(np.array([5.0]))
        opt = AdaMax(p, alpha=0.03)
        for _ in range(1000):
            opt.step(p, vector_views(2.0 * p[0]))
        assert abs(p[0][0]) < 1e-3

    def test_zero_gradient_is_a_fixed_point(self):
        p = vector_views(np.full(3, 2.0))
        opt = AdaMax(p)
        opt.step(p, vector_views(np.zeros(3)))
        assert np.array_equal(p[0], np.full(3, 2.0))

    def test_multi_array_state(self):
        p = vector_views(np.array([1.0, -1.0]), np.array([[2.0]]))
        opt = AdaMax(p, alpha=0.1)
        opt.step(p, vector_views(np.array([1.0, -1.0]), np.array([[1.0]])))
        assert p[0][0] < 1.0 and p[0][1] > -1.0 and p[1][0, 0] < 2.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_five_steps_follow_the_docstring_formula(self, dtype):
        rng = np.random.default_rng(31)
        params = vector_views(rng.normal(size=(3, 4)).astype(dtype),
                              rng.normal(size=5).astype(dtype))
        want = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        u = [np.zeros_like(p) for p in params]
        alpha, b1, b2 = 0.01, 0.9, 0.999
        opt = AdaMax(params, alpha=alpha, beta1=b1, beta2=b2)
        for t in range(1, 6):
            grads = vector_views(*(rng.normal(size=p.shape).astype(dtype) for p in params))
            grads[1][0] = 0.0  # a coordinate whose u stays 0, floored at 1e-8
            opt.step(params, grads)
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1 - b1) * g
                u[i] = np.maximum(b2 * u[i], np.abs(g))
                want[i] = want[i] - (alpha / (1 - b1 ** t)) * m[i] / np.maximum(u[i], 1e-8)
            for got, expected in zip(params, want):
                assert_same_bits(got, expected)

    def test_mismatched_state_rejected(self):
        opt = AdaMax(vector_views(np.zeros(3)))
        with pytest.raises(ValueError):
            opt.step(vector_views(np.zeros(3), np.zeros(2)),
                     vector_views(np.zeros(3), np.zeros(2)))
        with pytest.raises(ValueError):
            opt.step(vector_views(np.zeros(4)), vector_views(np.zeros(4)))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = QNetwork(SMALL, np.random.default_rng(20))
        path = tmp_path / "weights.bin"
        save_weights(net, path)
        loaded = load_weights(path)
        assert loaded.config == net.config
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)
        x = np.random.default_rng(21).normal(size=(3, 8, 6, 1))
        c = np.random.default_rng(22).normal(size=(3, 5))
        assert np.array_equal(net.forward_batch(x, c), loaded.forward_batch(x, c))

    def test_save_is_deterministic(self, tmp_path):
        net = QNetwork(SMALL, np.random.default_rng(23))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_weights(net, a)
        save_weights(net, b)
        assert a.read_bytes() == b.read_bytes()

    def test_pinned_weight_file(self, tmp_path):
        """A seeded network writes the same bytes as earlier versions, and
        loaded back it scores the same: old weight files keep working."""
        path = tmp_path / "w.bin"
        save_weights(QNetwork(SMALL, np.random.default_rng(28)), path)
        blob = path.read_bytes()
        assert len(blob) == 2397
        assert (hashlib.sha256(blob).hexdigest()
                == "4c6144e34853462a3a09dce5a8b714e8aaad98dda65f28ed07e617316bc18339")
        rng = np.random.default_rng(29)
        images = rng.integers(0, 2, size=(3, 8, 6, 1)).astype(np.float32)
        conts = rng.normal(size=(3, 5)).astype(np.float32)
        np.testing.assert_allclose(load_weights(path).forward_batch(images, conts),
                                   [[0.5527220368, 0.364831984],
                                    [-0.3017809391, 0.3869483769],
                                    [-0.2979581654, 0.2995770276]], rtol=1e-6)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_weights(path)

    def test_unsupported_version_rejected(self, tmp_path):
        net = QNetwork(SMALL, np.random.default_rng(24))
        path = tmp_path / "w.bin"
        save_weights(net, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            load_weights(path)

    def test_every_truncation_names_the_file(self, tmp_path):
        tiny = NetworkConfig(image_shape=(2, 2, 1), conv_stages=1, conv_filters=1,
                             image_dense=(2,), continuous_dense=(2,), merge_dense=(2,))
        full = tmp_path / "full.bin"
        save_weights(QNetwork(tiny, np.random.default_rng(25)), full)
        blob = full.read_bytes()
        path = tmp_path / "cut.bin"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(ValueError) as err:
                load_weights(path)
            assert str(path) in str(err.value), n
        path.write_bytes(blob + b"\0")
        with pytest.raises(ValueError, match="after the last parameter"):
            load_weights(path)

    @pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe", b"[1, 2]", b"{}",
                                        b'{"image_shape": [0, 0, 1]}', b'{"bogus": 1}'])
    def test_junk_header_names_the_file(self, tmp_path, header):
        net = QNetwork(SMALL, np.random.default_rng(26))
        path = tmp_path / "w.bin"
        save_weights(net, path)
        blob = path.read_bytes()
        old_len = int.from_bytes(blob[8:12], "little")
        path.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header
                         + blob[12 + old_len:])
        with pytest.raises(ValueError, match="bad architecture header") as err:
            load_weights(path)
        assert str(path) in str(err.value)


def training_batch(config, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=(n,) + config.image_shape).astype(np.float32),
            rng.normal(size=(n, 5)).astype(np.float32), rng.integers(0, 2, n),
            rng.normal(size=n).astype(np.float32))


class TestStepMemoryAndDtype:
    @staticmethod
    def paper_observation_peak(run):
        """The most bytes of arrays alive at once while run(net, batch) runs
        at paper observation size, batch 64."""
        config = NetworkConfig(image_shape=(40, 30, 1))
        net = QNetwork(config, np.random.default_rng(50))
        batch = training_batch(config, 64, 51)
        tracemalloc.start()
        try:
            run(net, batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_paper_observation_gradient_peak(self):
        """One loss_and_gradients keeps at most 50 MB of arrays alive at
        once; a whole layer-2 im2col matrix alone would take 44 MB."""
        peak = self.paper_observation_peak(lambda net, batch: net.loss_and_gradients(*batch))
        assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"

    def test_paper_observation_gradient_peak_without_whole_pool_index(self):
        """The pool scatter builds its int64 index a chunk of images at a
        time: the step peaks below the 41.7 MB that two whole int64 index
        arrays of the layer-1 map (2 x 9.8 MB) and its dx (19.7 MB) set."""
        peak = self.paper_observation_peak(lambda net, batch: net.loss_and_gradients(*batch))
        assert peak < 41.7e6, f"peak {peak / 1e6:.1f} MB"

    def test_paper_observation_forward_peak(self):
        peak = self.paper_observation_peak(lambda net, batch: net.forward_batch(*batch[:2]))
        assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"

    def test_paper_belief_step_peak_rss(self):
        """A paper belief gradient step at batch 64 (target forward,
        loss_and_gradients, AdaMax) peaks under 600 MB in a fresh process,
        also once the process keeps its freed heap, as training does."""
        for setup in ("", "from firescout.dqn import keep_freed_heap\nkeep_freed_heap()\n"):
            code = (setup +
                    "import resource\n"
                    "import numpy as np\n"
                    "from firescout.nn import AdaMax, NetworkConfig, QNetwork\n"
                    "rng = np.random.default_rng(52)\n"
                    "net = QNetwork(NetworkConfig(image_shape=(100, 100, 2)), rng)\n"
                    "target, opt = net.clone(), AdaMax(net.parameters())\n"
                    "images = rng.integers(0, 2, size=(64, 100, 100, 2)).astype(np.float32)\n"
                    "conts = rng.normal(size=(64, 5)).astype(np.float32)\n"
                    "targets = target.forward_batch(images, conts).max(axis=1)\n"
                    "_, grads = net.loss_and_gradients(images, conts, rng.integers(0, 2, 64), targets)\n"
                    "opt.step(net.parameters(), grads)\n"
                    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
            proc = subprocess.run([sys.executable, "-c", code], env=blas_thread_env(1),
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert int(proc.stdout) < 600 * 1024, \
                f"ru_maxrss {int(proc.stdout) / 1024:.0f} MB after {setup!r}"

    def test_gradients_and_updates_stay_float32(self):
        config = NetworkConfig(image_shape=(20, 20, 2), **DESK)
        net = QNetwork(config, np.random.default_rng(53))
        opt = AdaMax(net.parameters())
        for seed in (54, 55):
            _, grads = net.loss_and_gradients(*training_batch(config, 16, seed))
            assert [g.dtype for g in grads] == [np.float32] * len(net.parameters())
            opt.step(net.parameters(), grads)
            for arrays in (net.parameters(), opt.m, opt.u):
                assert [a.dtype for a in arrays] == [np.float32] * len(grads)


def blas_thread_env(threads):
    """os.environ for a child process that imports this firescout package and
    runs OpenBLAS on the given number of threads (benchmark/bootstrap.py pins
    one)."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(firescout.__file__)))
    count = str(threads)
    return {**os.environ, "OPENBLAS_NUM_THREADS": count, "OMP_NUM_THREADS": count,
            "MKL_NUM_THREADS": count, "PYTHONPATH": os.pathsep.join(
                p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}


def run_tests_in_child(tests, env):
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *tests], env=env, capture_output=True, text=True,
                          timeout=600, cwd=os.path.dirname(os.path.dirname(__file__)))
    assert proc.returncode == 0, proc.stdout[-4000:]


def test_bit_identity_holds_on_one_blas_thread():
    """Split GEMMs can keep their bits at one thread count and lose them at
    another, and this process runs at the default count: rerun the network
    and large-batch conv bit-identity tests in a child on one thread."""
    run_tests_in_child([f"{__file__}::TestNetworkBitIdentity",
                        f"{__file__}::TestConv2D::test_large_batches_bit_identical_to_oracle"],
                       blas_thread_env(1))


@pytest.mark.parametrize("threads", [1, 2])
def test_small_shape_kernels_hold_at_each_blas_thread_count(threads):
    """The small-shape kernel tests in a child on one and on two OpenBLAS
    threads, whatever count this process runs at."""
    run_tests_in_child([f"{__file__}::TestSmallShapeKernels"], blas_thread_env(threads))


# -- a gradient step on two threads ---------------------------------------------

SERIAL = float("inf")  # as _THREAD_MIN_MACS: one thread and whole-batch passes
STEP_PROFILES = {
    "desk-observation": (NetworkConfig(image_shape=(10, 8, 1), **DESK), 6),
    "desk-belief": (NetworkConfig(image_shape=(20, 20, 2), **DESK), 6),
    "paper-observation": (NetworkConfig(image_shape=(40, 30, 1)), 1),
}


def step_trainer(config, seed=70, target_config=None):
    """A Trainer at batch 64 whose replay holds 128 random pair rows; the
    target is the online network's clone, or a fresh network of
    target_config."""
    rng = np.random.default_rng(seed)
    buffer = ReplayBuffer(256, config.image_shape)
    for _ in range(64):
        images = rng.integers(0, 2, size=(2, *config.image_shape)).astype(np.float32)
        conts = rng.normal(size=(2, 1, 5)).astype(np.float32)
        buffer.push(images, conts, rng.integers(0, 2, 2), rng.normal(size=2).astype(np.float32),
                    images[::-1], conts[::-1])
    online = QNetwork(config, rng)
    target = online.clone() if target_config is None else QNetwork(target_config, rng)
    cfg = TrainingConfig(total_iterations=10, batch_size=64, replay_capacity=256, prefill=0,
                         target_update_period=4)
    return Trainer(online, target, buffer, AdaMax(online.parameters()), cfg)


def run_steps(config, steps, monkeypatch, min_macs):
    monkeypatch.setattr(nn, "_THREAD_MIN_MACS", min_macs)
    trainer, rng = step_trainer(config), np.random.default_rng(71)
    losses = [trainer.train_step(rng) for _ in range(steps)]
    return np.array(losses), trainer.online.vector.copy(), trainer.target.vector.copy()


class CountThreads:
    """Counts the threads nn starts."""

    def __init__(self, monkeypatch):
        self.started = 0
        counter = self

        class Counted(threading.Thread):
            def start(self):
                counter.started += 1
                super().start()

        monkeypatch.setattr(nn.threading, "Thread", Counted)


class TestTwoThreadStep:
    """With every piece on a second thread (the size rule patched to 0),
    train_step gives the bits of the one-thread, whole-batch step."""

    @pytest.mark.parametrize("profile", STEP_PROFILES)
    def test_weights_and_losses_match_one_thread(self, profile, monkeypatch):
        config, steps = STEP_PROFILES[profile]
        threads = CountThreads(monkeypatch)
        serial = run_steps(config, steps, monkeypatch, SERIAL)
        assert threads.started == 0
        two = run_steps(config, steps, monkeypatch, 0)
        # per step: the target pass, and dw beside dx in every conv layer but the first
        assert threads.started == steps * config.conv_stages
        for got, want in zip(two, serial):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("profile, threads", [("desk-observation", 0), ("desk-belief", 0),
                                                  ("paper-observation", 3)])
    def test_size_rule_keeps_desk_steps_on_one_thread(self, profile, threads, monkeypatch):
        counted = CountThreads(monkeypatch)
        step_trainer(STEP_PROFILES[profile][0]).train_step(np.random.default_rng(72))
        assert counted.started == threads

    def test_no_thread_outlives_the_step(self, monkeypatch):
        monkeypatch.setattr(nn, "_THREAD_MIN_MACS", 0)
        trainer, rng = step_trainer(STEP_PROFILES["desk-belief"][0]), np.random.default_rng(73)
        before = threading.active_count()
        for _ in range(3):
            trainer.train_step(rng)
            assert threading.active_count() == before

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        """A target network of another image shape fails its pass on the
        second thread; train_step raises that error, and no thread is left."""
        monkeypatch.setattr(nn, "_THREAD_MIN_MACS", 0)
        config = STEP_PROFILES["desk-belief"][0]
        trainer = step_trainer(config, target_config=NetworkConfig(image_shape=(20, 20, 1),
                                                                  **DESK))
        before = threading.active_count()
        with pytest.raises(ValueError, match="image shape"):
            trainer.train_step(np.random.default_rng(74))
        assert threading.active_count() == before

    def test_second_thread_calls_no_public_method(self, monkeypatch):
        """Benchmark tracing wraps these methods with one span stack per
        process: the second thread must not call them."""
        monkeypatch.setattr(nn, "_THREAD_MIN_MACS", 0)
        trainer = step_trainer(STEP_PROFILES["desk-belief"][0])
        callers = set()
        for owner, name in [(QNetwork, "forward_batch"), (QNetwork, "forward_team"),
                            (QNetwork, "loss_and_gradients"), (Conv2D, "forward_cached"),
                            (Conv2D, "backward"), (MaxPool2, "backward"), (AdaMax, "step")]:
            def spy(*args, _fn=getattr(owner, name), **kwargs):
                callers.add(threading.current_thread())
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        trainer.train_step(np.random.default_rng(75))
        assert callers == {threading.main_thread()}


def chunk_case():
    """A network whose every conv layer's product for one image passes the
    small-GEMM limits (so chunks of one image keep the batch's kernel), and
    a batch of 7 images."""
    config = NetworkConfig(image_shape=(24, 20, 4), conv_stages=3, conv_filters=64,
                           image_dense=(16,), continuous_dense=(8,), merge_dense=(8,))
    return config, training_batch(config, 7, 76)


class TestChunkedConvStages:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_pure_and_cached_passes_match_whole_batch(self, chunk, monkeypatch):
        config, batch = chunk_case()
        net = QNetwork(config, np.random.default_rng(77))
        assert net._chunk == 1
        monkeypatch.setattr(nn, "_THREAD_MIN_MACS", SERIAL)
        assert net._chunks(7) == [(0, 7)]
        whole = net.forward_batch(*batch[:2]), *net.loss_and_gradients(*batch)
        monkeypatch.setattr(nn, "_THREAD_MIN_MACS", 0)
        net._chunk = chunk
        bounds = net._chunks(7)
        assert bounds[0][0] == 0 and bounds[-1][1] == 7
        assert all(j - i == chunk for i, j in bounds[:-1]) and chunk <= 7 - bounds[-1][0] < 2 * chunk
        chunked = net.forward_batch(*batch[:2]), *net.loss_and_gradients(*batch)
        assert_same_bits(chunked[0], whole[0])
        assert np.float64(chunked[1]).tobytes() == np.float64(whole[1]).tobytes()
        assert_same_bits(chunked[2].vector, whole[2].vector)

    def test_paper_observation_chunks_keep_the_large_gemm_kernel(self, monkeypatch):
        """Paper observation runs two images a chunk: conv-1's product for
        one image (1,200 x 9 x 64 = 691,200 multiply-adds) is under
        _SMALL_GEMM_MNK."""
        config = NetworkConfig(image_shape=(40, 30, 1))
        net = QNetwork(config, np.random.default_rng(78))
        assert net._chunk == 2
        batch = training_batch(config, 9, 79)
        assert net._chunks(9) == [(0, 2), (2, 4), (4, 6), (6, 9)]
        chunked = net.forward_batch(*batch[:2]), *net.loss_and_gradients(*batch)
        monkeypatch.setattr(nn, "_THREAD_MIN_MACS", SERIAL)
        whole = net.forward_batch(*batch[:2]), *net.loss_and_gradients(*batch)
        assert_same_bits(chunked[0], whole[0])
        assert np.float64(chunked[1]).tobytes() == np.float64(whole[1]).tobytes()
        assert_same_bits(chunked[2].vector, whole[2].vector)


@pytest.mark.parametrize("threads", [1, 2])
def test_two_thread_step_holds_at_each_blas_thread_count(threads):
    """The two-thread step and chunked-pass tests in a child on one and on
    two OpenBLAS threads."""
    run_tests_in_child([f"{__file__}::TestTwoThreadStep", f"{__file__}::TestChunkedConvStages"],
                       blas_thread_env(threads))
