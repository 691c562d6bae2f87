"""Minimal dense networks with hand-rolled backprop.

Two-hidden-layer tanh MLPs are all the policy needs, so this stays a few
dozen lines of numpy instead of pulling in a deep-learning framework.
Backward passes return gradients in the same (weights, biases) layout the
optimizer consumes; correctness is pinned by finite-difference tests.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

HEADS = ("linear", "scaled_tanh")


@dataclass
class Mlp:
    """Fully connected net: tanh hidden layers, configurable head."""

    weights: list    # W_k of shape (n_in_k, n_out_k)
    biases: list     # b_k of shape (n_out_k,)
    head: str = "linear"
    scale: float = 1.0

    def __post_init__(self):
        if self.head not in HEADS:
            raise DomainError(f"unknown head {self.head!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise DomainError("weights/biases layer count mismatch")

    @property
    def sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def parameters(self) -> list:
        """Flat list of parameter arrays (shared references, not copies)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "Mlp":
        return Mlp(weights=[w.copy() for w in self.weights],
                   biases=[b.copy() for b in self.biases],
                   head=self.head, scale=self.scale)

    def buffers(self, rows: int) -> "Buffers":
        """Work buffers for batched passes over `rows` inputs."""
        widths = self.sizes[1:-1]
        return Buffers([np.empty((rows, w)) for w in widths],
                       np.empty(rows * max(widths, default=0)))

    def forward(self, x: np.ndarray, buffers: "Buffers | None" = None):
        """Returns (output, cache), the cache being the (B, width) layer
        activations, input first; accepts (D,) or (B, D) inputs, or an
        (E, 1, D) stack of E one-row inputs, whose layers run as one
        matmul over the stack with the bits of E one-row passes.  With
        `buffers` (not for a stack) the hidden activations are written
        there, so the cache holds only until the next pass with the same
        buffers; the output is always a fresh array."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = x.reshape(1, -1) if squeeze else x
        if h.shape[-1] != self.weights[0].shape[0]:
            raise DomainError(
                f"input dimension {h.shape[-1]} != expected "
                f"{self.weights[0].shape[0]}")
        acts = [h]
        last = len(self.weights) - 1
        outs = [None] * last if buffers is None else buffers.acts
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(h, w, out=outs[k] if k < last else None)
            h += b
            if k < last:
                np.tanh(h, out=h)
            elif self.head == "scaled_tanh":
                np.tanh(h, out=h)
                h *= self.scale
            acts.append(h)
        out = h[0] if squeeze else h
        return out, acts

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache, dout: np.ndarray,
                 buffers: "Buffers | None" = None) -> list:
        """Gradients of sum(dout * output) w.r.t. every parameter, ordered
        like parameters(), for a (B, n_out) dout and a batched forward's
        cache.  No input gradient is computed.  With `buffers` the pass
        consumes the cache: each hidden activation is overwritten, once
        spent, by the gradient at that layer, and the gradients flowing
        into the layers go through the scratch buffer."""
        g = np.asarray(dout, dtype=np.float64)
        grads = [None] * (2 * len(self.weights))
        last = len(self.weights) - 1
        for k in range(last, -1, -1):
            h_out = cache[k + 1]
            if k < last:
                # d tanh(z) = 1 - tanh^2
                t = np.square(h_out, out=None if buffers is None else h_out)
                np.subtract(1.0, t, out=t)
                g = np.multiply(g, t, out=t)
            elif self.head == "scaled_tanh":
                t = h_out / self.scale
                g = g * self.scale * (1.0 - t**2)
            grads[2 * k] = cache[k].T @ g
            grads[2 * k + 1] = g.sum(axis=0)
            if k:
                rows, width = len(g), self.weights[k].shape[0]
                out = (None if buffers is None else
                       buffers.scratch[:rows * width].reshape(rows, width))
                g = np.matmul(g, self.weights[k].T, out=out)
        return grads


class Buffers(NamedTuple):
    """Arrays that a loop of batched passes reuses instead of asking the
    allocator for fresh ones each time: one (rows, width) activation per
    hidden layer, and one flat scratch of rows x the widest hidden layer
    for the gradients a backward pass sends down."""

    acts: list
    scratch: np.ndarray


def init_mlp(sizes, head: str, scale: float, rng) -> Mlp:
    """Glorot-uniform weights, zero biases."""
    if len(sizes) < 2:
        raise DomainError("need at least input and output sizes")
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return Mlp(weights=weights, biases=biases, head=head, scale=scale)


class Adam:
    """Adaptive moment estimation over a list of parameter arrays."""

    def __init__(self, params: list, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list) -> None:
        if len(grads) != len(self.params):
            raise DomainError("gradient list does not match parameter list")
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
