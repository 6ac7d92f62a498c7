"""Tests for the from-scratch network and optimizer.

Oracles: direct (non-im2col) convolution loops, central finite
differences in float64, and hand-counted parameter totals for the two
full-scale configurations (4,855,474 and 726,898).
"""

import math

import numpy as np
import pytest

from firescout.nn import (
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
        assert belief.n_parameters == 4_855_474
        obs = QNetwork(NetworkConfig(image_shape=(40, 30, 1)),
                       np.random.default_rng(0))
        assert obs.n_parameters == 726_898

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
        single = net.forward(images[0], conts[0])
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


class TestAdaMax:
    def test_first_step_exact(self):
        # beta1=0.5, alpha=0.25: scale = 0.5, m = 5, u = 10, delta = 0.25
        p = [np.array([5.0])]
        opt = AdaMax(p, alpha=0.25, beta1=0.5)
        opt.step(p, [np.array([10.0])])
        assert p[0][0] == 4.75

    def test_quadratic_oracle_at_published_text_rate(self):
        # the optimizer run as its own oracle: alpha=0.01 lands at
        # 0.14143760623649654 after 1000 steps and crosses 1e-3 at 1610
        p = [np.array([5.0])]
        opt = AdaMax(p, alpha=0.01)
        for _ in range(1000):
            opt.step(p, [2.0 * p[0]])
        assert abs(p[0][0]) == pytest.approx(0.14143760623649654, rel=1e-12)
        for _ in range(610):
            opt.step(p, [2.0 * p[0]])
        assert abs(p[0][0]) < 1e-3

    def test_quadratic_converges_within_1000_steps(self):
        p = [np.array([5.0])]
        opt = AdaMax(p, alpha=0.03)
        for _ in range(1000):
            opt.step(p, [2.0 * p[0]])
        assert abs(p[0][0]) < 1e-3

    def test_zero_gradient_is_a_fixed_point(self):
        p = [np.full(3, 2.0)]
        opt = AdaMax(p)
        opt.step(p, [np.zeros(3)])
        assert np.array_equal(p[0], np.full(3, 2.0))

    def test_multi_array_state(self):
        p = [np.array([1.0, -1.0]), np.array([[2.0]])]
        opt = AdaMax(p, alpha=0.1)
        opt.step(p, [np.array([1.0, -1.0]), np.array([[1.0]])])
        assert p[0][0] < 1.0 and p[0][1] > -1.0 and p[1][0, 0] < 2.0

    def test_mismatched_state_rejected(self):
        opt = AdaMax([np.zeros(3)])
        with pytest.raises(ValueError):
            opt.step([np.zeros(3), np.zeros(2)], [np.zeros(3), np.zeros(2)])
        with pytest.raises(ValueError):
            opt.step([np.zeros(4)], [np.zeros(4)])


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
