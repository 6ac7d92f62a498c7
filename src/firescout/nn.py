"""Dual-branch action-value network with hand-rolled backprop and AdaMax.

The network scores the two bank actions from an image plus five continuous
inputs. A convolutional branch (conv / 2x2 max-pool / relu stages, then
dense layers) digests the image; a stack of dense layers digests the
continuous variables; the branches are concatenated and finished by dense
layers down to one output per action. All hidden activations are
rectified linear, the output is linear.

Each stage pools before it rectifies, so the ReLU and its mask work on a
map a quarter the size of the conv output. The order changes no bit:
ReLU is monotone, so relu(max(a, b)) == max(relu(a), relu(b)) exactly
(numpy's relu never returns -0.0). A window whose maximum is positive
sends its gradient to the same position either way; in a window of values
<= 0 the gradient is a zero, which may land on another position but adds
nothing to the sums that follow.

A network's parameters and each batch's gradients are views of one vector
each (``QNetwork.vector``, in parameters() order): copying a network copies
its vector, and an AdaMax step is one elementwise pass over the vectors.

Everything is plain numpy. Plain ``forward`` calls are pure and safe to
run concurrently; training uses an explicit cache-passing path so no
layer mutates shared state.

The conv stages of a pure pass run a few whole images at a time (and so do
conv-1 and pool-1 of the cached training pass), so the conv-1 output never
exists whole. Each image's values are those of the whole batch: a GEMM's
rows do not depend on one another, and a chunk holds enough images that
each conv layer's product takes the GEMM kernel the whole batch's takes.

Two pieces of a gradient step run on a second thread, beside the calling
thread's work, when they take over _THREAD_MIN_MACS multiply-adds (the
paper-size networks at batch 64; a desk step stays on one thread):

- the target network's pure pass, beside the online network's forward
  pass (``QNetwork.forward_beside``); ``loss_and_gradients`` takes its
  targets as a function it calls once its forward pass is done;
- a conv layer's weight gradient, beside its input gradient
  (``Conv2D.backward``).

Each piece reads only what nothing writes until it is joined, and
computes with the same calls in the same order as on one thread, so no
bit depends on the thread it ran on. Its buffers are made on the calling
thread, so their memory comes from that thread's heap, and it is joined
before the call that started it returns, whatever either thread raises.
The second thread calls no public layer method: benchmark/tracer.py
wraps those with one span stack per process.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import threading
from dataclasses import dataclass, asdict

import numpy as np


_NO_DRAWS = object()  # as rng: build a network whose vector the caller fills


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype):
    if rng is _NO_DRAWS:
        return np.empty(shape, dtype)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _views(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of a 1-d vector, one of each shape, in order."""
    ends = itertools.accumulate(math.prod(shape) for shape in shapes)
    return [vector[end - math.prod(shape):end].reshape(shape) for shape, end in zip(shapes, ends)]


class _VectorViews(list):
    """Arrays that are the consecutive whole views of vector, in order."""

    def __init__(self, vector: np.ndarray, views: list[np.ndarray]):
        super().__init__(views)
        self.vector = vector


def _column_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0): einsum adds the rows into zeros in the same order, faster;
    a one-column sum is pairwise, so numpy keeps it."""
    return np.einsum("ij->j", a) if a.shape[1] > 1 else a.sum(axis=0)


def _outside(d: int, pad: int, size: int) -> slice:
    """The output rows (or columns) that kernel offset d maps into the padding."""
    return slice(None, pad - d) if d < pad else slice(max(size + pad - d, 0), None)


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype):
        self.weight = _glorot(rng, (n_in, n_out), n_in, n_out, dtype)
        self.bias = np.zeros(n_out, dtype=dtype)

    def forward(self, x):
        return x @ self.weight + self.bias

    def forward_cached(self, x):
        return x @ self.weight + self.bias, x

    def backward(self, cache, dout):
        return dout @ self.weight.T, [cache.T @ dout, _column_sums(dout)]


class Relu:
    def forward(self, x):
        return np.maximum(x, 0)

    def forward_cached(self, x):
        return np.maximum(x, 0), x > 0

    def backward(self, cache, dout):
        return dout * cache, []


# A split GEMM keeps the bits of the whole product only on the kernels the
# whole one uses: numpy sends a one-column product to gemv, OpenBLAS sends
# products of at most 10**6 multiply-adds (or 1,200 entries with 32 or more
# terms) to a small-matrix kernel, and split float64 products lost bits.
#
# Conv2D.backward builds a float32 layer's dx one kernel tap at a time when
# c > 1 and each tap's (n*h*w, c) block of the dcols product takes more than
# _TAP_MIN_BYTES, else from the whole (n*h*w, k*k*c) product.
_TAP_MIN_BYTES = 1 << 17

# A float32 layer whose whole im2col matrix would take more than
# _COLUMNS_MAX_BYTES multiplies it one chunk of whole images at a time and
# caches its input; backward then computes dw one tap at a time, as
# (c, n*h*w) @ (n*h*w, n_out) products. _splits takes it only where one image's
# and one tap's product have no dimension of 1 and over _SMALL_GEMM_MNK
# multiply-adds, and a tap over _SMALL_GEMM_ENTRIES (smaller ones lost bits).
_COLUMNS_MAX_BYTES = 8 << 20
_SMALL_GEMM_MNK = 10 ** 6
_SMALL_GEMM_ENTRIES = 1200

# A second thread pays for work of over _THREAD_MIN_MACS multiply-adds run
# beside the calling thread's (a target pass's conv stages, or a conv layer's
# weight gradient); below it, starting and joining the thread and sharing the
# interpreter lock cost more than the overlap saves.
_THREAD_MIN_MACS = 3 * 10 ** 7


class _Beside:
    """fn(*args), started at once: on a second thread if thread is true, else
    here. result() waits for it and returns its value or raises its
    exception; leaving the with block waits for it too, so the thread ends
    before the block does even when the block raises."""

    def __init__(self, thread: bool, fn, *args):
        self._error = self._thread = None
        if thread:
            self._thread = threading.Thread(target=self._run, args=(fn, *args))
            self._thread.start()
        else:
            self._value = fn(*args)

    def _run(self, fn, *args):
        try:
            self._value = fn(*args)
        except BaseException as e:  # raised again on the calling thread, by result()
            self._error = e

    def result(self):
        self.__exit__()
        if self._error is not None:
            raise self._error
        return self._value

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._thread is not None:
            self._thread.join()


class Conv2D:
    """3x3-style convolution, stride 1, zero padding preserving spatial size.

    Data layout is channels-last: (batch, height, width, channels).
    """

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype,
                 kernel: int = 3):
        if kernel % 2 != 1:
            raise ValueError("kernel size must be odd for same padding")
        self.kernel = kernel
        self.weight = _glorot(rng, (kernel, kernel, n_in, n_out), kernel * kernel * n_in,
                              kernel * kernel * n_out, dtype)
        self.bias = np.zeros(n_out, dtype=dtype)

    def _splits(self, x_shape, dtype) -> bool:
        """Whether a (n, h, w, c) input of dtype skips the whole im2col matrix."""
        n, h, w, c = x_shape
        n_out = self.weight.shape[-1]
        kkc = self.kernel ** 2 * c
        return (n * h * w * kkc * 4 > _COLUMNS_MAX_BYTES
                and np.result_type(dtype, self.weight) == np.float32
                and min(h * w, c, n_out) > 1 and c * n_out > _SMALL_GEMM_ENTRIES
                and min(h * w * kkc, n * h * w * c) * n_out > _SMALL_GEMM_MNK)

    def _padded(self, x):
        n, h, w, c = x.shape
        pad = (self.kernel - 1) // 2
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        xp[:, pad:pad + h, pad:pad + w, :] = x
        return xp

    def _columns(self, xp, h, w):
        """The (n*h*w, k*k*c) im2col matrix of a padded input."""
        n, c = xp.shape[0], xp.shape[3]
        k = self.kernel
        if c == 1:  # k*k strided copies; a window copy would move one float at a time
            cols = np.empty((n, h, w, k * k), xp.dtype)
            for t in range(k * k):
                cols[..., t] = xp[:, t // k:t // k + h, t % k:t % k + w, 0]
            return cols.reshape(n * h * w, k * k)
        s0, s1, s2, s3 = xp.strides  # window view (n, h, w, k, k, c), checked to fit in xp
        windows = np.ndarray((n, h, w, k, k, c), xp.dtype, xp, 0, (s0, s1, s2, s1, s2, s3))
        return np.ascontiguousarray(windows).reshape(n * h * w, k * k * c)

    def forward(self, x):
        return self._conv(x)[0]

    def forward_cached(self, x):
        """(y, cache); the cache holds the im2col matrix, or x itself
        when _splits() holds."""
        y, cache = self._conv(x)
        return y, (cache, x.shape)

    def _conv(self, x):
        """(y, the im2col matrix or, when _splits() holds, x)."""
        n, h, w, c = x.shape
        w2 = self.weight.reshape(-1, self.weight.shape[-1])
        xp = self._padded(x)
        if not self._splits(x.shape, x.dtype):
            cache = self._columns(xp, h, w)
            y = cache @ w2
        else:
            step = max(1, _COLUMNS_MAX_BYTES // (h * w * w2.shape[0] * x.itemsize))
            y = np.empty((n * h * w, w2.shape[1]), np.result_type(x, w2))
            for i in range(0, n, step):
                np.matmul(self._columns(xp[i:i + step], h, w), w2,
                          out=y[i * h * w:min(i + step, n) * h * w])
            cache = x
        # the bias repeated over an image's pixels: one add loop per image, not per pixel
        per_image = y.reshape(n, h * w * w2.shape[1])
        per_image += self.bias[None, :].repeat(h * w, axis=0).reshape(-1)
        return y.reshape(n, h, w, -1), cache

    @staticmethod
    def _columns_weight_grad(cols, dflat, dw):
        np.matmul(cols.T, dflat, out=dw.reshape(-1, dw.shape[-1]))

    def _taps_weight_grad(self, xp, shifted, dflat, dw):
        """dw one tap at a time, each tap of the padded input xp copied into shifted."""
        k, c = self.kernel, shifted.shape[-1]
        h, w = shifted.shape[1:3]
        for t in range(k * k):
            di, dj = divmod(t, k)
            np.copyto(shifted, xp[:, di:di + h, dj:dj + w, :])
            np.matmul(shifted.reshape(-1, c).T, dflat, out=dw[di, dj])

    def backward(self, cache, dout, input_grad=True):
        """(dx, [dw, db]); dx is None when input_grad is false. dw is made on
        a second thread while dx is made here when both are wanted and dw
        takes over _THREAD_MIN_MACS multiply-adds."""
        a, x_shape = cache
        del cache
        dflat = dout.reshape(-1, dout.shape[-1])
        dw = np.empty(self.weight.shape, np.result_type(a, dflat))
        if a.ndim == 2:
            weight_grad, args = self._columns_weight_grad, (a,)
        else:  # a is the layer input: dw one tap at a time
            weight_grad, args = self._taps_weight_grad, (self._padded(a), np.empty_like(a))
        del a
        thread = input_grad and dflat.shape[0] * dw.size > _THREAD_MIN_MACS
        with _Beside(thread, weight_grad, *args, dflat, dw) as dw_made:
            # now only weight_grad holds dw's inputs (the im2col matrix, or the
            # padded input and tap buffer), so they are freed once dw is made
            del args
            db = _column_sums(dflat)
            dx = self._input_grad(dflat, x_shape, dout.dtype) if input_grad else None
            dw_made.result()
        return dx, [dw, db]

    def _input_grad(self, dflat, shape, dtype):
        n, h, w, c = shape
        k = self.kernel
        pad = (k - 1) // 2
        # col2im into a flat buffer, the padded input without its column padding:
        # tap (di, dj) adds into one contiguous run, in the oracle's tap order.
        # What would fall in the padding lands on other pixels here, so it is
        # zeroed first; +0.0 changes no sum (each starts at +0.0, so none is -0.0).
        size = n * h * w * c
        dx = np.zeros(size + 2 * (pad * w + pad) * c, dtype)
        per_tap = (c > 1 and np.result_type(dflat, self.weight) == np.float32
                   and dflat.shape[0] * c * dflat.itemsize > _TAP_MIN_BYTES)
        if not per_tap:
            dcols = dflat @ self.weight.reshape(-1, dflat.shape[1]).T
        for t in range(k * k):
            di, dj = divmod(t, k)
            tap = dflat @ self.weight[di, dj].T if per_tap else dcols[:, t * c:(t + 1) * c]
            tap = tap.reshape(n, h, w, c)
            tap[:, _outside(di, pad, h)] = 0
            tap[:, :, _outside(dj, pad, w)] = 0
            run = dx[(di * w + dj) * c:][:size].reshape(n, h, w, c)
            run += tap
        return dx[(pad * w + pad) * c:][:size].reshape(n, h, w, c)


class MaxPool2:
    """Non-overlapping 2x2 max pooling; odd trailing rows/columns are dropped."""

    def forward(self, x):
        # row pairs first, on whole rows; the order could only pick between -0.0
        # and +0.0, which ReLU, the next layer, maps to +0.0 either way
        oh, ow = x.shape[1] // 2, x.shape[2] // 2
        rows = np.maximum(x[:, 0:2 * oh:2], x[:, 1:2 * oh:2])
        return np.maximum(rows[:, :, 0:2 * ow:2], rows[:, :, 1:2 * ow:2])

    def forward_cached(self, x):
        y = self.forward(x)
        oh, ow = y.shape[1:3]
        # cache each maximum's row-major window position, as uint8: the number of
        # leading positions that miss it, so that a tie goes to the first
        miss = x[:, 0:2 * oh:2, 0:2 * ow:2] != y
        pos = miss.astype(np.uint8)
        for i, j in ((0, 1), (1, 0)):
            miss &= x[:, i:2 * oh:2, j:2 * ow:2] != y
            pos += miss
        return y, (pos, x.shape)

    def backward(self, cache, dout):
        pos, (n, h, w, c) = cache
        oh, ow = pos.shape[1:3]
        # index into an image of dx of each window's top-left element, and the
        # offset from it of each window position
        rows = np.arange(oh)[:, None, None] * (2 * w * c)
        corner = rows + np.arange(ow)[:, None] * (2 * c) + np.arange(c)
        offsets = np.array([0, c, w * c, (w + 1) * c])
        dx = np.zeros((n, h, w, c), dtype=dout.dtype)
        # each winner's index into dx, a chunk of images at a time; np.take
        # makes an int64 copy of the positions, then the int64 index
        step = max(1, _COLUMNS_MAX_BYTES // (16 * corner.size or 1))
        for i in range(0, n, step):
            idx = np.take(offsets, pos[i:i + step])
            idx += corner + np.arange(i, i + len(idx))[:, None, None, None] * (h * w * c)
            dx.reshape(-1)[idx.reshape(-1)] = dout[i:i + step].reshape(-1)
            del idx  # before the next chunk's index is made
        return dx, []


class Flatten:
    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def forward_cached(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache, dout):
        return dout.reshape(cache), []


def _dense_stack(width: int, sizes, rng, dtype) -> tuple[list, int]:
    """Dense + ReLU layers of the given sizes on width inputs, and their output width."""
    layers = []
    for n in sizes:
        layers += [Dense(width, n, rng, dtype), Relu()]
        width = n
    return layers, width


def _forward(layers, x, caches=None):
    """x through layers; with a caches list, each layer's forward cache is appended."""
    for layer in layers:
        if caches is None:
            x = layer.forward(x)
        else:
            x, cache = layer.forward_cached(x)
            caches.append(cache)
    return x


def _forward_chunks(layers, x, bounds, caches=None):
    """_forward(layers, x, caches) one chunk of images, x[i:j] for (i, j) in
    bounds, at a time, so that only the last layer's output is ever whole.
    Each layer's cache must be an image-major array or an (array, input
    shape) pair; the chunks' caches are joined into the whole batch's."""
    if len(bounds) == 1 or not layers:
        return _forward(layers, x, caches)
    out, parts = None, []
    for i, j in bounds:
        part = None if caches is None else []
        y = _forward(layers, x[i:j], part)
        if out is None:
            out = np.empty((len(x), *y.shape[1:]), y.dtype)
        out[i:j] = y
        parts.append(part)
    if caches is not None:
        caches += [_joined(layer, len(x)) for layer in zip(*parts)]
    return out


def _joined(caches, n: int):
    """One layer's cache of n images from its caches of consecutive chunks."""
    if isinstance(caches[0], tuple):
        return _joined([c[0] for c in caches], n), (n, *caches[0][1][1:])
    return np.concatenate(caches)


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


class QNetwork:
    """Action-value approximator: forward maps (image, continuous) to one
    value per action.
    """

    def __init__(self, config: NetworkConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = dtype

        h, w, channels = config.image_shape
        self.image_layers = []
        # _conv_macs: the conv stages' multiply-adds per image. _chunk: the
        # fewest images whose product in every conv layer has over
        # _SMALL_GEMM_MNK multiply-adds, _SMALL_GEMM_ENTRIES entries and more
        # than one row, so that it takes the whole batch's GEMM kernel.
        self._conv_macs, self._chunk = 0, 1
        for _ in range(config.conv_stages):
            self.image_layers += [Conv2D(channels, config.conv_filters, rng, dtype,
                                         config.kernel_size), MaxPool2(), Relu()]
            entries = h * w * config.conv_filters
            macs = entries * config.kernel_size ** 2 * channels
            self._conv_macs += macs
            self._chunk = max(self._chunk, _SMALL_GEMM_MNK // max(macs, 1) + 1,
                              _SMALL_GEMM_ENTRIES // max(entries, 1) + 1, 2 // max(h * w, 1))
            channels, h, w = config.conv_filters, h // 2, w // 2
        self._stages = 3 * config.conv_stages
        if h < 1 or w < 1:
            raise ValueError("image too small for the configured number of pool stages")
        dense, self._image_out = _dense_stack(h * w * channels, config.image_dense, rng, dtype)
        self.image_layers += [Flatten(), *dense]
        self.continuous_layers, cont_out = _dense_stack(config.n_continuous,
                                                        config.continuous_dense, rng, dtype)
        self.merge_layers, width = _dense_stack(self._image_out + cont_out, config.merge_dense,
                                                rng, dtype)
        self.merge_layers.append(Dense(width, config.n_actions, rng, dtype))

        # one vector holds every weight and bias; the layers keep views of it
        weighted = [layer for layer in self.layers if hasattr(layer, "weight")]
        params = [p for layer in weighted for p in (layer.weight, layer.bias)]
        self.vector = np.concatenate([p.reshape(-1) for p in params])
        views = _views(self.vector, [p.shape for p in params])
        for layer, weight, bias in zip(weighted, views[::2], views[1::2]):
            layer.weight, layer.bias = weight, bias

    # -- parameter access ---------------------------------------------------

    @property
    def layers(self):
        return self.image_layers + self.continuous_layers + self.merge_layers

    def parameters(self) -> list[np.ndarray]:
        """Every weight and bias, layer by layer: consecutive views of self.vector."""
        return _VectorViews(self.vector, [p for layer in self.layers if hasattr(layer, "weight")
                                          for p in (layer.weight, layer.bias)])

    def clone(self) -> "QNetwork":
        """Deep copy: training either network never touches the other."""
        twin = QNetwork(self.config, rng=_NO_DRAWS, dtype=self.dtype)
        twin.vector[...] = self.vector
        return twin

    # -- inference ----------------------------------------------------------

    def _check_shapes(self, images, conts):
        if images.shape[1:] != self.config.image_shape:
            raise ValueError(f"image shape {images.shape[1:]} does not match network input "
                             f"{self.config.image_shape}")
        if conts.shape[1] != self.config.n_continuous:
            raise ValueError(f"expected {self.config.n_continuous} continuous inputs, "
                             f"got {conts.shape[1]}")

    def _big(self, n: int) -> bool:
        """Whether a pass on n images takes over _THREAD_MIN_MACS multiply-adds
        in its conv stages: it then runs them in chunks, and a target pass
        runs on a second thread."""
        return n * self._conv_macs > _THREAD_MIN_MACS

    def _chunks(self, n: int) -> list[tuple[int, int]]:
        """(start, end) of each chunk of a pass on n images: _chunk images each
        and the remainder, if any, in the last chunk; one chunk unless _big(n)."""
        if not self._big(n):
            return [(0, n)]
        starts = list(range(0, n - self._chunk + 1, self._chunk)) or [0]
        return list(zip(starts, starts[1:] + [n]))

    def forward_batch(self, images: np.ndarray, conts: np.ndarray) -> np.ndarray:
        """Action values of each (image, continuous) row, shape (n, n_actions)."""
        return self._pair_rows(images, np.asarray(conts)[:, None, :])

    def forward_beside(self, images: np.ndarray, conts: np.ndarray) -> _Beside:
        """forward_batch(images, conts), started beside the caller's work: on a
        second thread when its conv stages take over _THREAD_MIN_MACS
        multiply-adds, else at once. Use it in a with block and read the rows
        with result(). The pass calls no public method."""
        return _Beside(self._big(len(images)), self._pair_rows, images,
                       np.asarray(conts)[:, None, :])

    def forward_team(self, images: np.ndarray, pair_conts: np.ndarray) -> np.ndarray:
        """Summed pairwise action values of a team, shape (n, n_actions).

        images is (n, h, w, c), one per aircraft; pair_conts is (n, p,
        n_continuous), one row per (aircraft, peer) pair. The image branch
        runs once per aircraft, the continuous branch once per pair; each
        owner's p pair rows, made from its image features, are summed.
        """
        n, p = np.shape(pair_conts)[:2]
        return self._pair_rows(images, pair_conts).reshape(n, p, -1).sum(axis=1)

    def _pair_rows(self, images, pair_conts):
        """(n * p, n_actions) Q-rows, owner-major, for forward_team's inputs."""
        images = np.asarray(images, dtype=self.dtype)
        pair_conts = np.asarray(pair_conts, dtype=self.dtype)
        n, p, k = pair_conts.shape
        conts = pair_conts.reshape(n * p, k)
        self._check_shapes(images, conts)
        if len(images) != n:
            raise ValueError(f"{len(images)} images for {n} rows of pair inputs")
        a = _forward_chunks(self.image_layers[:self._stages], images, self._chunks(len(images)))
        a = _forward(self.image_layers[self._stages:], a)
        b = _forward(self.continuous_layers, conts)
        return _forward(self.merge_layers, np.concatenate([np.repeat(a, p, axis=0), b], axis=1))

    # -- training -----------------------------------------------------------

    def loss_and_gradients(self, images, conts, actions, targets):
        """Mean squared error of the taken actions' values against targets.

        Returns (loss, gradients): views of one vector, ordered like parameters().
        targets is an array, or a function of no arguments that returns one;
        it is called once the forward pass is done. Only the taken action's
        output contributes for each sample. Each layer's forward cache is
        dropped once its backward pass has used it, so the activations are
        freed as the pass goes.
        """
        images = np.asarray(images, dtype=self.dtype)
        conts = np.asarray(conts, dtype=self.dtype)
        self._check_shapes(images, conts)
        actions = np.asarray(actions, dtype=np.int64)
        if len(actions) == 0:
            raise ValueError("batch must be non-empty")

        caches = []
        # conv-1 and pool-1 a chunk at a time, unless conv-1 caches its input
        # for the whole batch (a chunk would cache its im2col matrix)
        head = 2 if self._stages and not self.image_layers[0]._splits(images.shape,
                                                                      images.dtype) else 0
        a = _forward_chunks(self.image_layers[:head], images, self._chunks(len(images)), caches)
        a = _forward(self.image_layers[head:], a, caches)
        b = _forward(self.continuous_layers, conts, caches)
        q = _forward(self.merge_layers, np.concatenate([a, b], axis=1), caches)
        targets = np.asarray(targets() if callable(targets) else targets, dtype=self.dtype)
        n = q.shape[0]
        rows = np.arange(n)
        err = q[rows, actions] - targets
        loss = float(np.mean(err.astype(np.float64) ** 2))

        dq = np.zeros_like(q)
        dq[rows, actions] = (2.0 / n) * err

        grads_rev = []

        def backward(layers, d):
            for layer in reversed(layers):  # pop: the layer holds its cache's last reference
                d, g = layer.backward(caches.pop(), d)
                grads_rev.append(g)
            return d

        d = backward(self.merge_layers, dq)
        backward(self.continuous_layers, d[:, self._image_out:])
        first, *rest = self.image_layers
        d = backward(rest, d[:, :self._image_out])
        if isinstance(first, Conv2D):  # the images themselves need no gradient
            grads_rev.append(first.backward(caches.pop(), d, input_grad=False)[1])
        else:
            backward([first], d)

        vector = np.concatenate([g.reshape(-1) for gs in reversed(grads_rev) for g in gs])
        return loss, _VectorViews(vector, _views(vector, [p.shape for p in self.parameters()]))


class AdaMax:
    """Adaptive gradient descent scaled by an infinity-norm moment.

    Per step: m <- b1*m + (1-b1)*g, u <- max(b2*u, |g|), and each
    parameter moves by -(alpha / (1 - b1^t)) * m / u with u floored at
    1e-8 to avoid division by zero.

    m and u are one vector each (self.m, self.u: per-parameter views). A step
    takes a network's parameters() and gradients, views of one vector each,
    and is one elementwise pass over the vectors; its bits equal those of the
    same update applied array by array.
    """

    def __init__(self, params: _VectorViews, alpha: float = 0.002,
                 beta1: float = 0.9, beta2: float = 0.999):
        self.alpha, self.beta1, self.beta2 = alpha, beta1, beta2
        self.t = 0
        shapes = [p.shape for p in params]
        self._m = np.zeros_like(params.vector)
        self._u = np.zeros_like(self._m)
        self.m, self.u = _views(self._m, shapes), _views(self._u, shapes)

    def step(self, params: _VectorViews, grads: _VectorViews) -> None:
        """Update params in place from one batch of gradients."""
        shapes = [m.shape for m in self.m]
        if [p.shape for p in params] != shapes or [g.shape for g in grads] != shapes:
            raise ValueError("parameter/gradient shapes do not match optimizer state")
        self.t += 1
        scale = self.alpha / (1.0 - self.beta1 ** self.t)
        p, g, m, u = params.vector, grads.vector, self._m, self._u
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        u *= self.beta2
        np.maximum(u, np.abs(g), out=u)
        p -= scale * m / np.maximum(u, 1e-8)


def copy_weights(src: QNetwork, dst: QNetwork) -> None:
    """Overwrite dst's parameters with src's values, in place."""
    if [p.shape for p in src.parameters()] != [p.shape for p in dst.parameters()]:
        raise ValueError("networks have different architectures")
    dst.vector[...] = src.vector


# -- weight serialization ---------------------------------------------------

_MAGIC = b"FSQN"
_VERSION = 1


def save_weights(net: QNetwork, path) -> None:
    """Versioned binary dump: magic, architecture header, then each
    parameter as a shape-prefixed little-endian float32 array.
    """
    header = json.dumps(asdict(net.config), sort_keys=True).encode()
    params = net.parameters()
    with open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<II", _VERSION, len(header)) + header
                + struct.pack("<I", len(params)))
        for p in params:
            f.write(struct.pack(f"<{p.ndim + 1}I", p.ndim, *p.shape))
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
        fields = dict(json.loads(bytes(header).decode())).items()
        config = NetworkConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields})
        net = QNetwork(config, rng=_NO_DRAWS, dtype=np.float32)
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
