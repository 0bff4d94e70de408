"""Tiny from-scratch 1-D convolutional classifiers with exact parameter counts.

Two fixed architectures are provided, with 51 and 113 trainable parameters,
both consuming the same 4-dimensional feature vector as the matched 4-qubit
circuit model (angles rescaled to [0, 1]).  Forward and backward passes are
plain numpy with analytic reverse-mode gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class CnnError(ValueError):
    pass


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class CnnModel:
    """1-D conv + dense binary classifier over a flat parameter vector.

    conv_channels/conv_kernel describe the single convolution layer; the
    hidden tuple lists dense layer widths before the sigmoid output unit.
    """

    input_dim: int
    conv_channels: int
    conv_kernel: int
    hidden: tuple
    declared_count: int
    params: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.conv_kernel > self.input_dim:
            raise CnnError("kernel longer than the input")
        if self.params is None:
            self.params = np.zeros(self.n_parameters)
        self.params = np.asarray(self.params, dtype=float)
        if self.params.shape != (self.n_parameters,):
            raise CnnError(
                f"expected {self.n_parameters} parameters, got {self.params.shape}"
            )
        if self.n_parameters != self.declared_count:
            raise CnnError(
                f"architecture has {self.n_parameters} parameters, "
                f"declared {self.declared_count}"
            )

    @property
    def conv_out_len(self) -> int:
        return self.input_dim - self.conv_kernel + 1

    @property
    def layer_dims(self):
        """Dense layer (out, in) shapes, ending in the single output unit."""
        dims = []
        fan_in = self.conv_channels * self.conv_out_len
        for width in self.hidden:
            dims.append((width, fan_in))
            fan_in = width
        dims.append((1, fan_in))
        return dims

    @property
    def n_parameters(self) -> int:
        count = self.conv_channels * (self.conv_kernel + 1)
        for out, fan_in in self.layer_dims:
            count += out * (fan_in + 1)
        return count

    def _unpack(self):
        p = self.params
        k = self.conv_channels * self.conv_kernel
        w_conv = p[:k].reshape(self.conv_channels, self.conv_kernel)
        b_conv = p[k : k + self.conv_channels]
        offset = k + self.conv_channels
        dense = []
        for out, fan_in in self.layer_dims:
            W = p[offset : offset + out * fan_in].reshape(out, fan_in)
            offset += out * fan_in
            b = p[offset : offset + out]
            offset += out
            dense.append((W, b))
        return w_conv, b_conv, dense

    @classmethod
    def random(cls, template: "CnnModel", seed: int = 0) -> "CnnModel":
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(template.input_dim)
        params = rng.normal(0.0, scale, size=template.n_parameters)
        return cls(
            input_dim=template.input_dim,
            conv_channels=template.conv_channels,
            conv_kernel=template.conv_kernel,
            hidden=template.hidden,
            declared_count=template.declared_count,
            params=params,
        )


def cnn51(params=None) -> CnnModel:
    """Small baseline: conv(2ch, k=3) -> dense 7 -> 1; 51 parameters."""
    return CnnModel(
        input_dim=4, conv_channels=2, conv_kernel=3, hidden=(7,), declared_count=51,
        params=params,
    )


def cnn113(params=None) -> CnnModel:
    """Large baseline: conv(2ch, k=3) -> dense 4 -> 14 -> 1; 113 parameters."""
    return CnnModel(
        input_dim=4, conv_channels=2, conv_kernel=3, hidden=(4, 14),
        declared_count=113, params=params,
    )


def _forward_pass(model: CnnModel, X: np.ndarray):
    """Forward pass with cached intermediates for backprop."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.input_dim:
        raise CnnError(f"expected {model.input_dim} features, got {X.shape[1]}")
    w_conv, b_conv, dense = model._unpack()
    L = model.conv_out_len
    # windows[b, i, j] = X[b, i + j]
    windows = np.stack([X[:, i : i + model.conv_kernel] for i in range(L)], axis=1)
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

    d_aconv = delta.reshape(B, model.conv_channels, model.conv_out_len)
    d_zconv = d_aconv * (z_conv > 0)
    g_wconv = np.einsum("bci,bij->cj", d_zconv, windows)
    g_bconv = d_zconv.sum(axis=(0, 2))

    pieces = [g_wconv.ravel(), g_bconv]
    for gW, gb in grads_dense:
        pieces.append(gW.ravel())
        pieces.append(gb)
    return np.concatenate(pieces)
