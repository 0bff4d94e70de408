"""Tiny from-scratch 1-D convolutional classifiers with exact parameter counts.

Two fixed architectures are provided, with 51 and 113 trainable parameters,
both consuming the same 4-dimensional feature vector as the matched 4-qubit
circuit model (angles rescaled to [0, 1]).  Forward and backward passes are
plain numpy with analytic reverse-mode gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# Shape shared by both architectures: 4 input features (the PCA width of the
# matched 4-qubit models), one convolution of 2 channels with kernel 3.
INPUT_DIM = 4
CONV_CHANNELS = 2
CONV_KERNEL = 3
CONV_OUT_LEN = INPUT_DIM - CONV_KERNEL + 1


class CnnError(ValueError):
    pass


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class CnnModel:
    """1-D conv + dense binary classifier over a flat parameter vector.

    The single convolution layer has CONV_CHANNELS channels of kernel
    CONV_KERNEL over INPUT_DIM features; the hidden tuple lists dense layer
    widths before the sigmoid output unit.
    """

    hidden: tuple
    params: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.params is None:
            self.params = np.zeros(self.n_parameters)
        self.params = np.asarray(self.params, dtype=float)
        if self.params.shape != (self.n_parameters,):
            raise CnnError(
                f"expected {self.n_parameters} parameters, got {self.params.shape}"
            )

    @property
    def layer_dims(self):
        """Dense layer (out, in) shapes, ending in the single output unit."""
        dims = []
        fan_in = CONV_CHANNELS * CONV_OUT_LEN
        for width in self.hidden:
            dims.append((width, fan_in))
            fan_in = width
        dims.append((1, fan_in))
        return dims

    @property
    def n_parameters(self) -> int:
        count = CONV_CHANNELS * (CONV_KERNEL + 1)
        for out, fan_in in self.layer_dims:
            count += out * (fan_in + 1)
        return count

    def _unpack(self):
        p = self.params
        k = CONV_CHANNELS * CONV_KERNEL
        w_conv = p[:k].reshape(CONV_CHANNELS, CONV_KERNEL)
        b_conv = p[k : k + CONV_CHANNELS]
        offset = k + CONV_CHANNELS
        dense = []
        for out, fan_in in self.layer_dims:
            W = p[offset : offset + out * fan_in].reshape(out, fan_in)
            offset += out * fan_in
            b = p[offset : offset + out]
            offset += out
            dense.append((W, b))
        return w_conv, b_conv, dense

    @staticmethod
    def random(template: "CnnModel", seed: int) -> "CnnModel":
        rng = np.random.default_rng(seed)
        params = rng.normal(0.0, 1.0 / np.sqrt(INPUT_DIM), size=template.n_parameters)
        return replace(template, params=params)


def cnn51() -> CnnModel:
    """Small baseline: conv(2ch, k=3) -> dense 7 -> 1; 51 parameters."""
    return CnnModel(hidden=(7,))


def cnn113() -> CnnModel:
    """Large baseline: conv(2ch, k=3) -> dense 4 -> 14 -> 1; 113 parameters."""
    return CnnModel(hidden=(4, 14))


def _forward_pass(model: CnnModel, X: np.ndarray):
    """Forward pass with cached intermediates for backprop."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != INPUT_DIM:
        raise CnnError(f"expected {INPUT_DIM} features, got {X.shape[1]}")
    w_conv, b_conv, dense = model._unpack()
    # windows[b, i, j] = X[b, i + j]
    windows = np.stack([X[:, i : i + CONV_KERNEL] for i in range(CONV_OUT_LEN)], axis=1)
    z_conv = np.einsum("bij,cj->bci", windows, w_conv) + b_conv[None, :, None]
    a_conv = np.maximum(z_conv, 0.0)
    acts = [a_conv.reshape(X.shape[0], -1)]
    zs = []
    for i, (W, b) in enumerate(dense):
        z = acts[-1] @ W.T + b
        zs.append(z)
        if i < len(dense) - 1:
            acts.append(np.maximum(z, 0.0))
    p = sigmoid(zs[-1][:, 0])
    cache = (X, windows, z_conv, acts, zs, p)
    return p, cache


def cnn_forward(model: CnnModel, X: np.ndarray) -> np.ndarray:
    """Class-1 probability per input row."""
    p, _ = _forward_pass(model, X)
    return p


def cnn_backward(model: CnnModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the batch-mean squared error with respect to all parameters."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    p, cache = _forward_pass(model, X)
    X2, windows, z_conv, acts, zs, _ = cache
    w_conv, b_conv, dense = model._unpack()
    B = X2.shape[0]

    # d loss / d z_out through the sigmoid head
    delta = (2.0 * (p - y) / y.size * p * (1.0 - p))[:, None]

    grads_dense = []
    for i in range(len(dense) - 1, -1, -1):
        W, _ = dense[i]
        gW = delta.T @ acts[i]
        gb = delta.sum(axis=0)
        grads_dense.append((gW, gb))
        if i > 0:
            delta = (delta @ W) * (zs[i - 1] > 0)
        else:
            delta = delta @ W
    grads_dense.reverse()

    d_aconv = delta.reshape(B, CONV_CHANNELS, CONV_OUT_LEN)
    d_zconv = d_aconv * (z_conv > 0)
    g_wconv = np.einsum("bci,bij->cj", d_zconv, windows)
    g_bconv = d_zconv.sum(axis=(0, 2))

    pieces = [g_wconv.ravel(), g_bconv]
    for gW, gb in grads_dense:
        pieces.append(gW.ravel())
        pieces.append(gb)
    return np.concatenate(pieces)
