"""Adam optimizer with bias correction, applied in place to float32 tensors.

Dense Adam (Kingma & Ba, arXiv 1412.6980): every step decays the moments of
every element, including rows of the embedding table whose gradient is zero.
One ``Adam`` holds the parameters and their first and second moments, keyed
by parameter name, and a single step count: a step updates every parameter
or, when one lacks a gradient of its own shape, none of them. The numpy
kernel computes the update in float32, in place; tests check it against the
float64 oracle ``tests/oracles.py::adam_update64``.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ContractError
from .tensor import Tensor

# Adam's decay rates and denominator term; checkpoints do not store them.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Moment buffers of every named parameter plus the step count they share."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = dict(params)
        self.first_moment = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.second_moment = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.step_count = 0

    def step(self, lr: float):
        """One bias-corrected update of every parameter; increments ``step_count``."""
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"Adam step: parameter {name} has no gradient")
            if p.grad.shape != p.data.shape:
                raise ContractError(f"gradient shape {p.grad.shape} does not match "
                                    f"parameter {name} shape {p.data.shape}")
        self.step_count += 1
        for name, p in self.params.items():
            kernels.adam_update(
                p.data, p.grad, self.first_moment[name], self.second_moment[name],
                self.step_count, float(lr), BETA1, BETA2, EPS,
            )
