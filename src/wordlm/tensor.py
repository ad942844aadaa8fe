"""Float32 parameters, the training loss, and the MLM head's two matrix ops.

wordlm writes its backward out by hand. ``WordBertModel.encode_batch``,
``WordBertModel.mlm_logits`` and ``training.mlm_loss`` each return their output
with a function that takes the output's gradient and passes it on, and the
loss is a ``Tensor`` whose ``backward()`` runs that chain once. Only a
training call, one given a dropout rng, keeps a backward; the loss of an
inference call refuses ``backward()``. Every other ``Tensor`` is a
parameter: its gradient accumulates across backward passes and must be
zeroed explicitly between optimizer steps. Which parameters train is the
model's to say (``WordBertModel.trainable_parameters``), not the tensor's.

``matmul`` and ``transpose`` are the shape-checked 2-D product and the
C-contiguous transposed copy that the projection and the tied head call as
``tensor.matmul``/``tensor.transpose``, so a tracer can wrap them by name.
``transpose`` copies in blocks of rows, so the rows it reads and the columns
it writes stay in cache; the bytes are those of ``np.ascontiguousarray(x.T)``.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ContractError


class Tensor:
    """A float32 array with a gradient slot: a parameter, or a scalar loss
    that carries its backward."""

    __slots__ = ("data", "grad", "_backward_fn")

    def __init__(self, data, backward_fn=None):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self._backward_fn = backward_fn

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray, ids: np.ndarray | None = None):
        """Add g to the gradient, or, given ``ids``, g's rows (elements, for a
        vector) at those rows, repeated ids summing. The first gradient after
        ``zero_grad`` is a new array of zeros that g is added to: -0.0 becomes
        +0.0, and no two parameters share one."""
        shape = self.data.shape if ids is None else (len(ids),) + self.data.shape[1:]
        if g.shape != shape:
            raise ContractError(f"gradient shape {g.shape} does not match {shape}")
        if self.grad is None:
            self.grad = np.zeros(self.data.shape, np.float32)
        if ids is None:
            self.grad += g
        elif self.data.ndim == 1:
            kernels.scatter_add_vec(self.grad, ids, g)
        else:
            kernels.scatter_add_rows(self.grad, ids, g)

    def backward(self):
        """Pass this scalar loss's gradient, one, through its backward into
        the gradient of every parameter it depends on."""
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if self._backward_fn is None:
            raise ContractError("backward requires a loss computed with a dropout rng "
                                "(a training call)")
        self._backward_fn(np.ones_like(self.data))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product [m, k] @ [k, n]."""
    sa, sb = a.shape, b.shape
    if not (len(sa) == len(sb) == 2 and sa[1] == sb[0]):
        raise ContractError(f"matmul shape mismatch: {sa} @ {sb}")
    return np.matmul(a, b)


_TRANSPOSE_BLOCK = 256  # rows of x per copied block


def transpose(x: np.ndarray) -> np.ndarray:
    """The transpose of a matrix, as a new C-contiguous array, copied
    ``_TRANSPOSE_BLOCK`` rows of x (columns of the result) at a time: the
    same bytes as ``np.ascontiguousarray(x.T)``, several times faster on a
    table of thousands of rows."""
    if x.ndim != 2:
        raise ContractError(f"transpose needs a matrix, got shape {x.shape}")
    out = np.empty(x.shape[::-1], x.dtype)
    for i in range(0, x.shape[0], _TRANSPOSE_BLOCK):
        out[:, i:i + _TRANSPOSE_BLOCK] = x[i:i + _TRANSPOSE_BLOCK].T
    return out
