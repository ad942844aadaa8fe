"""Adam optimizer with bias correction, applied in place to float32 tensors.

Dense Adam (Kingma & Ba, arXiv 1412.6980): every step decays the moments of
every element, including rows of the embedding table whose gradient is zero.
The numpy kernel computes the update in float32, in place; tests check it
against the float64 oracle ``tests/oracles.py::adam_update64``.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ContractError
from .tensor import Tensor


class AdamState:
    """First/second moment buffers plus step counter for one parameter."""

    def __init__(self, param: Tensor):
        self.first_moment = np.zeros_like(param.data)
        self.second_moment = np.zeros_like(param.data)
        self.step_count = 0


def adam_step(
    param: Tensor,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One bias-corrected Adam update; increments ``state.step_count``."""
    if param.grad is None:
        raise ContractError("adam_step requires param.grad to be populated")
    if param.grad.shape != param.data.shape:
        raise ContractError(
            f"gradient shape {param.grad.shape} does not match "
            f"parameter shape {param.data.shape}"
        )
    if state.first_moment.shape != param.data.shape:
        raise ContractError(
            f"optimizer state shape {state.first_moment.shape} does not match "
            f"parameter shape {param.data.shape}"
        )
    state.step_count += 1
    kernels.adam_update(
        param.data,
        param.grad,
        state.first_moment,
        state.second_moment,
        state.step_count,
        float(lr),
        float(beta1),
        float(beta2),
        float(eps),
    )


class Adam:
    """Convenience wrapper owning one AdamState per named parameter."""

    def __init__(self, params: dict[str, Tensor], beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.states = {name: AdamState(p) for name, p in self.params.items()}

    def step(self, lr: float):
        for name, p in self.params.items():
            if p.grad is not None:
                adam_step(p, self.states[name], lr, self.beta1, self.beta2, self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()
