"""Dual-branch action-value network with hand-rolled backprop and AdaMax.

The network scores the two bank actions from an image plus five continuous
inputs. A convolutional branch (conv / relu / 2x2 max-pool stages, then
dense layers) digests the image; a stack of dense layers digests the
continuous variables; the branches are concatenated and finished by dense
layers down to one output per action. All hidden activations are
rectified linear, the output is linear.

Everything is plain numpy. Plain ``forward`` calls are pure and safe to
run concurrently; training uses an explicit cache-passing path so no
layer mutates shared state.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict

import numpy as np


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype):
        self.weight = _glorot(rng, (n_in, n_out), n_in, n_out, dtype)
        self.bias = np.zeros(n_out, dtype=dtype)

    @property
    def params(self):
        return [self.weight, self.bias]

    def forward(self, x):
        return x @ self.weight + self.bias

    def forward_cached(self, x):
        return x @ self.weight + self.bias, x

    def backward(self, cache, dout):
        x = cache
        dw = x.T @ dout
        db = dout.sum(axis=0)
        return dout @ self.weight.T, [dw, db]


class Relu:
    params: list = []

    def forward(self, x):
        return np.maximum(x, 0)

    def forward_cached(self, x):
        return np.maximum(x, 0), x

    def backward(self, cache, dout):
        return dout * (cache > 0), []


class Conv2D:
    """3x3-style convolution, stride 1, zero padding preserving spatial size.

    Data layout is channels-last: (batch, height, width, channels).
    """

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype,
                 kernel: int = 3):
        if kernel % 2 != 1:
            raise ValueError("kernel size must be odd for same padding")
        self.kernel = kernel
        fan_in = kernel * kernel * n_in
        fan_out = kernel * kernel * n_out
        self.weight = _glorot(rng, (kernel, kernel, n_in, n_out), fan_in, fan_out, dtype)
        self.bias = np.zeros(n_out, dtype=dtype)

    @property
    def params(self):
        return [self.weight, self.bias]

    def _columns(self, x):
        n, h, w, c = x.shape
        k = self.kernel
        pad = (k - 1) // 2
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        xp[:, pad:pad + h, pad:pad + w, :] = x
        s0, s1, s2, s3 = xp.strides  # window view (n, h, w, k, k, c), checked to fit in xp
        windows = np.ndarray((n, h, w, k, k, c), xp.dtype, xp, 0, (s0, s1, s2, s1, s2, s3))
        return np.ascontiguousarray(windows).reshape(n, h, w, k * k * c)

    def forward(self, x):
        y, _ = self.forward_cached(x)
        return y

    def forward_cached(self, x):
        n, h, w, c = x.shape
        k = self.kernel
        cols = self._columns(x)
        w2 = self.weight.reshape(k * k * c, -1)
        y = cols.reshape(-1, k * k * c) @ w2 + self.bias
        return y.reshape(n, h, w, -1), (cols, x.shape)

    def backward(self, cache, dout, input_grad=True):
        """(dx, [dw, db]); dx is None when input_grad is false."""
        cols, x_shape = cache
        n, h, w, c = x_shape
        k = self.kernel
        pad = (k - 1) // 2
        kkc = k * k * c
        n_out = dout.shape[-1]
        dflat = dout.reshape(-1, n_out)
        dw = (cols.reshape(-1, kkc).T @ dflat).reshape(self.weight.shape)
        db = dflat.sum(axis=0)
        if not input_grad:
            return None, [dw, db]
        dcols = (dflat @ self.weight.reshape(kkc, n_out).T).reshape(n, h, w, k, k, c)
        dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=dout.dtype)
        for di in range(k):
            for dj in range(k):
                dxp[:, di:di + h, dj:dj + w, :] += dcols[:, :, :, di, dj, :]
        return dxp[:, pad:pad + h, pad:pad + w, :], [dw, db]


class MaxPool2:
    """Non-overlapping 2x2 max pooling; odd trailing rows/columns are dropped."""

    params: list = []

    @staticmethod
    def _quadrants(x):
        """Strided views x[:, i::2, j::2] of the full windows, in window order."""
        oh, ow = x.shape[1] // 2, x.shape[2] // 2
        return [x[:, i:2 * oh:2, j:2 * ow:2] for i in (0, 1) for j in (0, 1)]

    def forward(self, x):
        q00, q01, q10, q11 = self._quadrants(x)
        return np.maximum(np.maximum(q00, q01), np.maximum(q10, q11))

    def forward_cached(self, x):
        y = self.forward(x)
        q00, q01, q10, _ = self._quadrants(x)
        # cache each maximum's row-major window position, as uint8: the number of
        # leading positions that miss it, so that a tie goes to the first
        miss = q00 != y
        pos = miss.astype(np.uint8)
        for q in (q01, q10):
            miss &= q != y
            pos += miss
        return y, (pos, x.shape)

    def backward(self, cache, dout):
        pos, (n, h, w, c) = cache
        # flat index into dx of each window's top-left element, plus the winner's offset
        idx = (np.arange(n)[:, None, None, None] * (h * w * c) + np.arange(c)
               + np.arange(pos.shape[1])[:, None, None] * (2 * w * c)
               + np.arange(pos.shape[2])[:, None] * (2 * c))
        idx += np.array([0, c, w * c, (w + 1) * c])[pos]
        dx = np.zeros((n, h, w, c), dtype=dout.dtype)
        dx.reshape(-1)[idx.reshape(-1)] = dout.reshape(-1)
        return dx, []


class Flatten:
    params: list = []

    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def forward_cached(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache, dout):
        return dout.reshape(cache), []


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters.

    The defaults are the full-scale network; reduced profiles shrink the
    filter counts and layer widths but keep the same wiring.
    """

    image_shape: tuple[int, int, int]            # (h, w, channels)
    n_continuous: int = 5
    conv_stages: int = 3
    conv_filters: int = 64
    kernel_size: int = 3
    image_dense: tuple[int, ...] = (500, 100)
    continuous_dense: tuple[int, ...] = (100, 100, 100, 100, 100)
    merge_dense: tuple[int, ...] = (200, 200)
    n_actions: int = 2

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        d = dict(d)
        d["image_shape"] = tuple(d["image_shape"])
        for key in ("image_dense", "continuous_dense", "merge_dense"):
            d[key] = tuple(d[key])
        return cls(**d)


class QNetwork:
    """Action-value approximator: forward maps (image, continuous) to one
    value per action.
    """

    def __init__(self, config: NetworkConfig, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        if rng is None:
            rng = np.random.default_rng()
        self.config = config
        self.dtype = dtype

        h, w, c = config.image_shape
        self.image_layers = []
        channels = c
        for _ in range(config.conv_stages):
            self.image_layers += [
                Conv2D(channels, config.conv_filters, rng, dtype, config.kernel_size),
                Relu(),
                MaxPool2(),
            ]
            channels = config.conv_filters
            h, w = h // 2, w // 2
        if h < 1 or w < 1:
            raise ValueError("image too small for the configured number of pool stages")
        self.image_layers.append(Flatten())
        width = h * w * channels
        for n in config.image_dense:
            self.image_layers += [Dense(width, n, rng, dtype), Relu()]
            width = n
        image_out = width

        self.continuous_layers = []
        width = config.n_continuous
        for n in config.continuous_dense:
            self.continuous_layers += [Dense(width, n, rng, dtype), Relu()]
            width = n
        cont_out = width

        self.merge_layers = []
        width = image_out + cont_out
        for n in config.merge_dense:
            self.merge_layers += [Dense(width, n, rng, dtype), Relu()]
            width = n
        self.merge_layers.append(Dense(width, config.n_actions, rng, dtype))
        self._image_out = image_out

    # -- parameter access ---------------------------------------------------

    @property
    def layers(self):
        return self.image_layers + self.continuous_layers + self.merge_layers

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def clone(self) -> "QNetwork":
        """Deep copy: training either network never touches the other."""
        twin = QNetwork(self.config, rng=np.random.default_rng(0), dtype=self.dtype)
        for mine, theirs in zip(self.parameters(), twin.parameters()):
            theirs[...] = mine
        return twin

    # -- inference ----------------------------------------------------------

    def _check_shapes(self, images, conts):
        if images.shape[1:] != self.config.image_shape:
            raise ValueError(
                f"image shape {images.shape[1:]} does not match network input "
                f"{self.config.image_shape}")
        if conts.shape[1] != self.config.n_continuous:
            raise ValueError(
                f"expected {self.config.n_continuous} continuous inputs, got {conts.shape[1]}")

    def forward_batch(self, images: np.ndarray, conts: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=self.dtype)
        conts = np.asarray(conts, dtype=self.dtype)
        self._check_shapes(images, conts)
        a = images
        for layer in self.image_layers:
            a = layer.forward(a)
        b = conts
        for layer in self.continuous_layers:
            b = layer.forward(b)
        z = np.concatenate([a, b], axis=1)
        for layer in self.merge_layers:
            z = layer.forward(z)
        return z

    def forward(self, image: np.ndarray, cont: np.ndarray) -> np.ndarray:
        """Single-sample action values, shape (n_actions,)."""
        q = self.forward_batch(np.asarray(image)[None, ...], np.asarray(cont)[None, :])
        return q[0]

    # -- training -----------------------------------------------------------

    def _forward_cached(self, images, conts):
        caches = []
        a = images
        for layer in self.image_layers:
            a, cache = layer.forward_cached(a)
            caches.append(cache)
        b = conts
        for layer in self.continuous_layers:
            b, cache = layer.forward_cached(b)
            caches.append(cache)
        z = np.concatenate([a, b], axis=1)
        for layer in self.merge_layers:
            z, cache = layer.forward_cached(z)
            caches.append(cache)
        return z, caches

    def loss_and_gradients(self, images, conts, actions, targets):
        """Mean squared error of the taken actions' values against targets.

        Returns (loss, gradients) with gradients ordered like parameters().
        Only the taken action's output contributes for each sample.
        """
        images = np.asarray(images, dtype=self.dtype)
        conts = np.asarray(conts, dtype=self.dtype)
        self._check_shapes(images, conts)
        actions = np.asarray(actions, dtype=np.int64)
        targets = np.asarray(targets, dtype=self.dtype)
        if len(actions) == 0:
            raise ValueError("batch must be non-empty")

        q, caches = self._forward_cached(images, conts)
        n = q.shape[0]
        rows = np.arange(n)
        err = q[rows, actions] - targets
        loss = float(np.mean(err.astype(np.float64) ** 2))

        dq = np.zeros_like(q)
        dq[rows, actions] = (2.0 / n) * err

        n_img, n_cont = len(self.image_layers), len(self.continuous_layers)
        grads_rev = []
        d = dq
        for i in range(len(self.merge_layers) - 1, -1, -1):
            d, g = self.merge_layers[i].backward(caches[n_img + n_cont + i], d)
            grads_rev.append(g)
        d_img, d_cont = d[:, :self._image_out], d[:, self._image_out:]
        for i in range(n_cont - 1, -1, -1):
            d_cont, g = self.continuous_layers[i].backward(caches[n_img + i], d_cont)
            grads_rev.append(g)
        for i in range(n_img - 1, -1, -1):
            if i == 0 and isinstance(self.image_layers[0], Conv2D):
                # the images themselves need no gradient
                d_img, g = self.image_layers[0].backward(caches[0], d_img, input_grad=False)
            else:
                d_img, g = self.image_layers[i].backward(caches[i], d_img)
            grads_rev.append(g)

        grads = [g for layer_grads in reversed(grads_rev) for g in layer_grads]
        return loss, grads


class AdaMax:
    """Adaptive gradient descent scaled by an infinity-norm moment.

    Per step: m <- b1*m + (1-b1)*g, u <- max(b2*u, |g|), and each
    parameter moves by -(alpha / (1 - b1^t)) * m / u with u floored at
    1e-8 to avoid division by zero.
    """

    def __init__(self, params: list[np.ndarray], alpha: float = 0.002,
                 beta1: float = 0.9, beta2: float = 0.999):
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.u = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Update params in place from one batch of gradients."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient count does not match optimizer state")
        self.t += 1
        scale = self.alpha / (1.0 - self.beta1 ** self.t)
        for p, g, m, u in zip(params, grads, self.m, self.u):
            if p.shape != m.shape or g.shape != m.shape:
                raise ValueError("parameter/gradient shape does not match optimizer state")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            u *= self.beta2
            np.maximum(u, np.abs(g), out=u)
            p -= scale * m / np.maximum(u, 1e-8)


def copy_weights(src: QNetwork, dst: QNetwork) -> None:
    """Overwrite dst's parameters with src's values, in place."""
    src_params = src.parameters()
    dst_params = dst.parameters()
    if len(src_params) != len(dst_params):
        raise ValueError("networks have different architectures")
    for a, b in zip(src_params, dst_params):
        if a.shape != b.shape:
            raise ValueError("networks have different architectures")
        b[...] = a


# -- weight serialization ---------------------------------------------------

_MAGIC = b"FSQN"
_VERSION = 1


def save_weights(net: QNetwork, path) -> None:
    """Versioned binary dump: magic, architecture header, then each
    parameter as a shape-prefixed little-endian float32 array.
    """
    header = json.dumps(net.config.to_dict(), sort_keys=True).encode()
    params = net.parameters()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(struct.pack("<I", len(params)))
        for p in params:
            f.write(struct.pack("<I", p.ndim))
            f.write(struct.pack(f"<{p.ndim}I", *p.shape))
            f.write(np.ascontiguousarray(p, dtype="<f4").tobytes())


def load_weights(path) -> QNetwork:
    """Rebuild a network from save_weights output; round-trips bit-exactly.

    A short, overlong or garbled file raises ValueError naming path.
    """
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(blob):
            raise ValueError(f"{path}: weight file ends after {len(blob)} bytes")
        pos += n
        return blob[pos - n:pos]

    def u32s(n: int = 1) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", take(4 * n))

    if take(4) != _MAGIC:
        raise ValueError(f"{path}: not a weight file")
    (version,) = u32s()
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported weight format version {version}")
    header = take(*u32s())
    try:
        config = NetworkConfig.from_dict(json.loads(bytes(header).decode()))
        net = QNetwork(config, rng=np.random.default_rng(0), dtype=np.float32)
    except (ValueError, TypeError, KeyError) as e:
        raise ValueError(f"{path}: bad architecture header ({e})") from e
    params = net.parameters()
    (count,) = u32s()
    if count != len(params):
        raise ValueError(f"{path}: expected {len(params)} parameter arrays, found {count}")
    for p in params:
        shape = u32s(*u32s())
        if shape != p.shape:
            raise ValueError(f"{path}: parameter shape {shape} does not match {p.shape}")
        p[...] = np.frombuffer(take(4 * p.size), dtype="<f4").reshape(shape)
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} bytes after the last parameter")
    return net
