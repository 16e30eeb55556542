"""AdamW with decoupled weight decay (Loshchilov & Hutter, arXiv 1711.05101).

The decay ``w <- w - lr * wd * w`` is applied separately from the
bias-corrected moment update, so a parameter with zero gradient still decays.
Frozen parameters are skipped entirely and stay bit-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingGrad, NonFinite
from .tensor import Parameter


class AdamW:
    """Optimizer state and update for one dict of named parameters."""

    def __init__(self, params: dict[str, Parameter], lr: float = 1e-4,
                 weight_decay: float = 1e-5, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self) -> None:
        """Apply one update to every trainable parameter.

        Raises MissingGrad if a trainable parameter has no gradient, and
        NonFinite if a gradient holds NaN or inf.  Both are checked before
        anything is updated, so a failed step leaves the optimizer as it was.
        """
        trainable = [(name, p) for name, p in self.params.items() if p.trainable]
        for name, p in trainable:
            g = p.tensor.grad
            if g is None:
                raise MissingGrad(f"trainable parameter {name!r} has no gradient")
            if not np.isfinite(g).all():
                raise NonFinite(f"trainable parameter {name!r} has a non-finite gradient")
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for name, p in trainable:
            g = p.tensor.grad
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            # decoupled decay, then the moment update
            w = p.tensor.data
            w *= 1.0 - self.lr * self.weight_decay
            w -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.epsilon)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.tensor.grad = None
