"""Float32 tensors with reverse-mode automatic differentiation.

Every differentiable operation records its parents and a backward closure on
the output tensor through ``make``; ``Tensor.backward()`` on a scalar loss
topologically sorts the graph and accumulates gradients into every reachable
tensor that requires them. Leaves (parameters and inputs) accumulate
additively across calls and must be zeroed explicitly between optimizer
steps; an interior tensor's gradient is released as soon as its backward
closure has passed it on.

The ops here are the ones the model uses outside its encoder: the embedding
gathers, the projection and the tied MLM head with its loss, so 2-D matmul and
transpose, broadcast add, row gather, row-wise cross-entropy and the mean.
The encoder is a single node that ``WordBertModel.encode_batch`` builds with
``make``, so GELU, layer norm, attention softmax and dropout have no op of
their own; their math is in :mod:`wordlm.kernels`. Matrix products stay on
BLAS via ``np.matmul``.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ContractError, ShapeError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (evaluation paths)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def grad_enabled() -> bool:
    """Whether new nodes record their parents and backward (not inside ``no_grad``)."""
    return _GRAD_ENABLED


class Tensor:
    """Shape-carrying float32 array participating in a gradient graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward_fn = None

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match tensor {self.data.shape}")
        if self.grad is None:
            # A new array in one pass, with the bits of 0 + g (-0.0 becomes
            # +0.0); never g itself, which a backward may hand to two parents.
            self.grad = np.add(g, np.float32(0), dtype=np.float32)
        else:
            self.grad += g

    def backward(self):
        """Populate ``grad`` on every reachable tensor that requires it."""
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def make(data, parents, backward_fn) -> Tensor:
    """A graph node holding ``data``. It records ``parents`` and
    ``backward_fn(g)``, which passes the node's gradient ``g`` on to them, only
    while gradients are recorded and some parent requires one."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the leading axes its operand was broadcast along."""
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra))) if extra else g


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, either operand broadcast along leading axes only (a bias row, say)."""
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return make(data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [m, k] @ [k, n]."""
    sa, sb = a.data.shape, b.data.shape
    if not (len(sa) == len(sb) == 2 and sa[1] == sb[0]):
        raise ShapeError(f"matmul shape mismatch: {sa} @ {sb}")
    data = np.matmul(a.data, b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.matmul(g, b.data.T))
        if b.requires_grad:
            b.accumulate_grad(np.matmul(a.data.T, g))

    return make(data, (a, b), bw)


def cross_entropy_rows(logits: Tensor, targets) -> Tensor:
    """Per-row -log softmax(logits)[target] for logits [M,V], targets [M]."""
    targets = np.asarray(targets, dtype=np.int64)
    m, v = logits.data.shape
    if targets.shape != (m,):
        raise ShapeError(f"targets shape {targets.shape} does not match {m} rows")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError(f"target id outside [0, {v})")
    losses = kernels.cross_entropy_rows_fwd(logits.data, targets)

    def bw(g):
        if logits.requires_grad:
            grad = kernels.cross_entropy_rows_bwd(logits.data, targets, g)
            logits.accumulate_grad(grad)

    return make(losses, (logits,), bw)


def mean(x: Tensor) -> Tensor:
    n = x.data.size
    data = np.float32(x.data.sum(dtype=np.float64) / n)

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, np.float32(g / n)))

    return make(data, (x,), bw)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Rows (2-D table) or elements (1-D table) selected by integer ids."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"ids must be 1-D, got shape {ids.shape}")
    v = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise IndexError(f"id outside [0, {v})")
    data = table.data[ids]

    def bw(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros(table.data.shape, np.float32)
            if table.data.ndim == 1:
                kernels.scatter_add_vec(table.grad, ids, g)
            else:
                kernels.scatter_add_rows(table.grad, ids, g)

    return make(data, (table,), bw)


def transpose(x: Tensor) -> Tensor:
    """The transpose of a matrix, as a new C-contiguous array."""
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a matrix, got shape {x.data.shape}")
    data = np.ascontiguousarray(x.data.T)

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.ascontiguousarray(g.T))

    return make(data, (x,), bw)

