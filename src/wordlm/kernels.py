"""Hot numeric kernels in numpy, called by the model, training and optim modules.

All kernels take and return float32 arrays, save the float64 softmax the
cross-entropy forward hands its backward; 2-D inputs are rows, and callers
flatten leading dimensions. The elementwise kernels (GELU, Adam) compute in
float32; the GELU is the exact one, x * Phi(x) with the erf Gaussian CDF. Its
forward also returns erf(x / sqrt 2) + 1, which the backward takes instead of
computing erf again; the cross-entropy forward likewise returns its rows'
softmax, which the backward takes instead of the logits. Adam updates param, m
and v in place, chunk by chunk, through one scratch buffer per call. The
reductions (layer norm, softmax, cross-entropy) accumulate in float64. The row
scatter adds each id's first row in one buffered step and the repeats after
it, so every table row gets its additions in the order ``np.add.at`` gives
them, with the same bits.
"""

import math

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError

BACKEND = "numpy"  # the only implementation; run reports name it

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327
# Floats per Adam chunk: the chunk's slices of param, grad, m, v and the
# scratch buffer (5 x 64 KiB) stay in L2 while it is updated.
_ADAM_CHUNK = 1 << 14


def gelu_erf_fwd(x):
    """(y, erf1): the GELU of x, and erf(x / sqrt 2) + 1 for the backward."""
    erf1 = _erf(x * np.float32(_INV_SQRT2))
    erf1 += 1.0
    y = erf1 * x
    y *= 0.5
    return y, erf1


def gelu_erf_bwd(x, erf1, gout):
    cdf = erf1 * 0.5
    xpdf = x * x
    xpdf *= -0.5
    np.exp(xpdf, out=xpdf)
    xpdf *= _INV_SQRT_2PI
    xpdf *= x
    cdf += xpdf
    cdf *= gout
    return cdf


def layer_norm_fwd(x, gamma, beta, eps):
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=1)
    var = ((x64 - mu[:, None]) ** 2).mean(axis=1)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x64 - mu[:, None]) * inv[:, None]
    y = xhat * gamma.astype(np.float64) + beta.astype(np.float64)
    return y.astype(np.float32), mu.astype(np.float32), inv.astype(np.float32)


def layer_norm_bwd(x, gamma, mean, inv_std, gout):
    x64 = x.astype(np.float64)
    g64 = gout.astype(np.float64)
    inv = inv_std.astype(np.float64)[:, None]
    xhat = (x64 - mean.astype(np.float64)[:, None]) * inv
    dgamma = (g64 * xhat).sum(axis=0).astype(np.float32)
    dbeta = g64.sum(axis=0).astype(np.float32)
    dxhat = g64 * gamma.astype(np.float64)
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    gin = (inv * (dxhat - m1 - xhat * m2)).astype(np.float32)
    return gin, dgamma, dbeta


def softmax_rows(x):
    x64 = x.astype(np.float64)
    m = x64.max(axis=1, keepdims=True)
    e = np.exp(x64 - m)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def softmax_rows_bwd(probs, gout):
    p64 = probs.astype(np.float64)
    g64 = gout.astype(np.float64)
    inner = (p64 * g64).sum(axis=1, keepdims=True)
    return (p64 * (g64 - inner)).astype(np.float32)


def cross_entropy_rows_fwd(logits, targets):
    """(losses, probs): each row's cross-entropy, and its float64 softmax for the backward."""
    x64 = logits.astype(np.float64)
    m = x64.max(axis=1, keepdims=True)
    e = np.exp(x64 - m)
    total = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(total[:, 0])
    picked = x64[np.arange(x64.shape[0]), targets]
    return (lse - picked).astype(np.float32), e / total


def cross_entropy_rows_bwd(probs, targets, gout):
    g64 = gout.astype(np.float64)
    grad = probs * g64[:, None]
    grad[np.arange(probs.shape[0]), targets] -= g64
    return grad.astype(np.float32)


def adam_update(param, grad, m, v, t, lr, beta1, beta2, eps):
    # In place on flat views; reshape(-1) of a non-C-contiguous array is a copy
    # and the update would be lost.
    if not (param.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
        raise ContractError("adam_update needs C-contiguous param, m and v")
    pf, gf, mf, vf = param.reshape(-1), grad.reshape(-1), m.reshape(-1), v.reshape(-1)
    # lr * mhat / (sqrt(vhat) + eps) == step * m / (sqrt(v) * inv_sqrt_bc2 + eps)
    step = lr / (1.0 - beta1**t)
    inv_sqrt_bc2 = 1.0 / math.sqrt(1.0 - beta2**t)
    scratch = np.empty(min(pf.size, _ADAM_CHUNK), np.float32)
    for lo in range(0, pf.size, _ADAM_CHUNK):
        hi = min(lo + _ADAM_CHUNK, pf.size)
        p, g, mc, vc, s = pf[lo:hi], gf[lo:hi], mf[lo:hi], vf[lo:hi], scratch[: hi - lo]
        mc *= beta1
        np.multiply(g, 1.0 - beta1, out=s)
        mc += s
        vc *= beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - beta2
        vc += s
        np.sqrt(vc, out=s)
        s *= inv_sqrt_bc2
        s += eps
        np.divide(mc, s, out=s)
        s *= step
        p -= s


def scatter_add_rows(out, ids, rows):
    # First occurrences through one buffered fancy-index add (unique ids, no
    # collisions), then the repeats in their original order.
    unique, first = np.unique(ids, return_index=True)
    out[unique] += rows[first]
    if first.size < ids.size:
        rest = np.ones(ids.size, bool)
        rest[first] = False
        np.add.at(out, ids[rest], rows[rest])


def scatter_add_vec(out, ids, vals):
    np.add.at(out, ids, vals)

