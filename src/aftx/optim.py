"""AdamW with decoupled weight decay (Loshchilov & Hutter, arXiv 1711.05101).

The decay ``w <- w - lr * wd * w`` is applied separately from the
bias-corrected moment update, so a parameter with zero gradient still decays.
Frozen parameters are skipped entirely and stay bit-identical.  Only the
learning rate varies; the decay ``WEIGHT_DECAY`` = 1e-5, the moment rates
``BETA1`` = 0.9 and ``BETA2`` = 0.999 and the denominator's ``EPSILON`` =
1e-8 are constants.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingGrad, OutOfRange, finite, finite_number
from .tensor import Parameter

WEIGHT_DECAY = 1e-5
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class AdamW:
    """Optimizer state and update for one dict of named parameters."""

    def __init__(self, params: dict[str, Parameter], lr: float):
        """A learning rate that is not one real number raises ShapeError or
        NotReal, a NaN or infinite one NonFinite, and a negative one
        OutOfRange."""
        self.params = params
        self.lr = finite_number(lr, "learning rate")
        if self.lr < 0:
            raise OutOfRange(f"learning rate {self.lr} is negative")
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
            finite(g, f"gradient of trainable parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - BETA1 ** t
        bias2 = 1.0 - BETA2 ** t
        for name, p in trainable:
            g = p.tensor.grad
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            # decoupled decay, then the moment update
            w = p.tensor.data
            w *= 1.0 - self.lr * WEIGHT_DECAY
            w -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPSILON)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.tensor.grad = None
