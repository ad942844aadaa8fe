"""Float32 tensors with reverse-mode automatic differentiation.

Every differentiable operation records its parents and a backward closure on
the output tensor; ``Tensor.backward()`` on a scalar loss topologically sorts
the graph and accumulates gradients into every reachable tensor that requires
them. Leaves (parameters and inputs) accumulate additively across calls and
must be zeroed explicitly between optimizer steps; an interior tensor's
gradient is released as soon as its backward closure has passed it on. Hot
elementwise/row-wise math is delegated to :mod:`wordlm.kernels`; matrix
products stay on BLAS via ``np.matmul``.
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


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b)
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float, np.floating)):
        s = np.float32(b)
        data = a.data * s

        def bw_scalar(g):
            if a.requires_grad:
                a.accumulate_grad(g * s)

        return _make(data, (a,), bw_scalar)

    b = _coerce(b)
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [..., m, k] @ [..., k, n] over equal leading axes."""
    sa, sb = a.data.shape, b.data.shape
    if not (len(sa) == len(sb) >= 2 and sa[:-2] == sb[:-2] and sa[-1] == sb[-2]):
        raise ShapeError(f"matmul shape mismatch: {sa} @ {sb}")
    data = np.matmul(a.data, b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            b.accumulate_grad(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _make(data, (a, b), bw)


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the exact (erf) Gaussian CDF, the encoder's only activation."""
    data, erf1 = kernels.gelu_erf_fwd(x.data)

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(kernels.gelu_erf_bwd(x.data, erf1, g))

    return _make(data, (x,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the last axis, scaled and shifted."""
    h = x.data.shape[-1]
    if gamma.data.shape != (h,) or beta.data.shape != (h,):
        raise ShapeError(
            f"layer_norm expects gamma/beta of shape ({h},), "
            f"got {gamma.data.shape} and {beta.data.shape}"
        )
    rows = x.data.reshape(-1, h)
    y, mean, inv_std = kernels.layer_norm_fwd(rows, gamma.data, beta.data, np.float32(eps))

    def bw(g):
        gin, dgamma, dbeta = kernels.layer_norm_bwd(
            rows, gamma.data, mean, inv_std, g.reshape(-1, h)
        )
        if x.requires_grad:
            x.accumulate_grad(gin.reshape(x.data.shape))
        if gamma.requires_grad:
            gamma.accumulate_grad(dgamma)
        if beta.requires_grad:
            beta.accumulate_grad(dbeta)

    return _make(y.reshape(x.data.shape), (x, gamma, beta), bw)


def softmax(x: Tensor) -> Tensor:
    """Stable softmax over the last axis."""
    h = x.data.shape[-1]
    rows = x.data.reshape(-1, h)
    probs = kernels.softmax_rows(rows)

    def bw(g):
        if x.requires_grad:
            gin = kernels.softmax_rows_bwd(probs, g.reshape(-1, h))
            x.accumulate_grad(gin.reshape(x.data.shape))

    return _make(probs.reshape(x.data.shape), (x,), bw)


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

    return _make(losses, (logits,), bw)


# ---------------------------------------------------------------------------
# reductions, indexing, shape ops
# ---------------------------------------------------------------------------


def mean(x: Tensor) -> Tensor:
    n = x.data.size
    data = np.float32(x.data.sum(dtype=np.float64) / n)

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, np.float32(g / n)))

    return _make(data, (x,), bw)


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

    return _make(data, (table,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.data.shape))

    return _make(data, (x,), bw)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = np.ascontiguousarray(x.data.transpose(axes))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.ascontiguousarray(g.transpose(inverse)))

    return _make(data, (x,), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when p == 0 or there is no ``rng``."""
    if rng is None or p <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(np.float32) / np.float32(1.0 - p)
    return mul(x, Tensor(keep))
