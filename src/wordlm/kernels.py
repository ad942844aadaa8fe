"""Hot numeric kernels with a pure-numpy implementation and an optional numba one.

Backend selection is driven by the WORDLM_KERNELS environment variable:

  auto   (default)  use numba when importable, numpy otherwise
  numba             require numba, raise if unavailable
  numpy             force the pure-numpy implementations

``_np_<name>`` is the numpy implementation of kernel ``<name>`` and
``_nb_<name>`` its numba twin. ``REGISTRY`` maps each kernel name to its
implementations by backend ("numpy" always, "numba" when compiled), and the
chosen one is bound as the module global ``<name>`` that callers use. Both
backends implement the same math: float32 arrays in and out, float64
accumulation inside reductions; ``tests/test_kernels.py`` checks their parity
when numba is importable. All 2-D inputs are treated as rows; callers flatten
leading dimensions.
"""

import math
import os

import numpy as np
from scipy.special import erf as _erf

_INV_SQRT2 = 0.7071067811865476
_SQRT_2_OVER_PI = 0.7978845608028654
_INV_SQRT_2PI = 0.3989422804014327
_TANH_COEFF = 0.044715


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------


def _np_gelu_erf_fwd(x):
    x64 = x.astype(np.float64)
    return (x64 * 0.5 * (1.0 + _erf(x64 * _INV_SQRT2))).astype(np.float32)


def _np_gelu_erf_bwd(x, gout):
    x64 = x.astype(np.float64)
    cdf = 0.5 * (1.0 + _erf(x64 * _INV_SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x64 * x64)
    return (gout.astype(np.float64) * (cdf + x64 * pdf)).astype(np.float32)


def _np_gelu_tanh_fwd(x):
    x64 = x.astype(np.float64)
    inner = _SQRT_2_OVER_PI * (x64 + _TANH_COEFF * x64**3)
    return (0.5 * x64 * (1.0 + np.tanh(inner))).astype(np.float32)


def _np_gelu_tanh_bwd(x, gout):
    x64 = x.astype(np.float64)
    inner = _SQRT_2_OVER_PI * (x64 + _TANH_COEFF * x64**3)
    t = np.tanh(inner)
    dinner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _TANH_COEFF * x64 * x64)
    local = 0.5 * (1.0 + t) + 0.5 * x64 * (1.0 - t * t) * dinner
    return (gout.astype(np.float64) * local).astype(np.float32)


def _np_layer_norm_fwd(x, gamma, beta, eps):
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=1)
    var = ((x64 - mu[:, None]) ** 2).mean(axis=1)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x64 - mu[:, None]) * inv[:, None]
    y = xhat * gamma.astype(np.float64) + beta.astype(np.float64)
    return y.astype(np.float32), mu.astype(np.float32), inv.astype(np.float32)


def _np_layer_norm_bwd(x, gamma, mean, inv_std, gout):
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


def _np_softmax_rows(x):
    x64 = x.astype(np.float64)
    m = x64.max(axis=1, keepdims=True)
    e = np.exp(x64 - m)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def _np_softmax_rows_bwd(probs, gout):
    p64 = probs.astype(np.float64)
    g64 = gout.astype(np.float64)
    inner = (p64 * g64).sum(axis=1, keepdims=True)
    return (p64 * (g64 - inner)).astype(np.float32)


def _np_cross_entropy_rows_fwd(logits, targets):
    x64 = logits.astype(np.float64)
    m = x64.max(axis=1)
    lse = m + np.log(np.exp(x64 - m[:, None]).sum(axis=1))
    picked = x64[np.arange(x64.shape[0]), targets]
    return (lse - picked).astype(np.float32)


def _np_cross_entropy_rows_bwd(logits, targets, gout):
    x64 = logits.astype(np.float64)
    m = x64.max(axis=1, keepdims=True)
    e = np.exp(x64 - m)
    p = e / e.sum(axis=1, keepdims=True)
    grad = p * gout.astype(np.float64)[:, None]
    grad[np.arange(x64.shape[0]), targets] -= gout.astype(np.float64)
    return grad.astype(np.float32)


def _np_adam_update(param, grad, m, v, t, lr, beta1, beta2, eps):
    g64 = grad.astype(np.float64)
    m64 = beta1 * m.astype(np.float64) + (1.0 - beta1) * g64
    v64 = beta2 * v.astype(np.float64) + (1.0 - beta2) * g64 * g64
    m[...] = m64.astype(np.float32)
    v[...] = v64.astype(np.float32)
    mhat = m.astype(np.float64) / (1.0 - beta1**t)
    vhat = v.astype(np.float64) / (1.0 - beta2**t)
    param[...] = (param.astype(np.float64) - lr * mhat / (np.sqrt(vhat) + eps)).astype(
        np.float32
    )


def _np_scatter_add_rows(out, ids, rows):
    np.add.at(out, ids, rows)


def _np_scatter_add_vec(out, ids, vals):
    np.add.at(out, ids, vals)


# ---------------------------------------------------------------------------
# numba implementations (same math, explicit loops)
# ---------------------------------------------------------------------------

_REQUESTED = os.environ.get("WORDLM_KERNELS", "auto").lower()
if _REQUESTED not in ("auto", "numba", "numpy"):
    raise ValueError(f"WORDLM_KERNELS must be auto|numba|numpy, got {_REQUESTED!r}")

_HAS_NUMBA = False
if _REQUESTED != "numpy":
    try:
        from numba import njit

        _HAS_NUMBA = True
    except ImportError:
        _HAS_NUMBA = False

if _REQUESTED == "numba" and not _HAS_NUMBA:
    raise ImportError("WORDLM_KERNELS=numba but numba is not importable")

if _HAS_NUMBA:

    @njit(cache=True)
    def _nb_gelu_erf_fwd(x):
        out = np.empty(x.size, dtype=np.float32)
        flat = x.ravel()
        for i in range(flat.size):
            xi = float(flat[i])
            out[i] = xi * 0.5 * (1.0 + math.erf(xi * _INV_SQRT2))
        return out.reshape(x.shape)

    @njit(cache=True)
    def _nb_gelu_erf_bwd(x, gout):
        out = np.empty(x.size, dtype=np.float32)
        xf = x.ravel()
        gf = gout.ravel()
        for i in range(xf.size):
            xi = float(xf[i])
            cdf = 0.5 * (1.0 + math.erf(xi * _INV_SQRT2))
            pdf = _INV_SQRT_2PI * math.exp(-0.5 * xi * xi)
            out[i] = float(gf[i]) * (cdf + xi * pdf)
        return out.reshape(x.shape)

    @njit(cache=True)
    def _nb_gelu_tanh_fwd(x):
        out = np.empty(x.size, dtype=np.float32)
        flat = x.ravel()
        for i in range(flat.size):
            xi = float(flat[i])
            inner = _SQRT_2_OVER_PI * (xi + _TANH_COEFF * xi * xi * xi)
            out[i] = 0.5 * xi * (1.0 + math.tanh(inner))
        return out.reshape(x.shape)

    @njit(cache=True)
    def _nb_gelu_tanh_bwd(x, gout):
        out = np.empty(x.size, dtype=np.float32)
        xf = x.ravel()
        gf = gout.ravel()
        for i in range(xf.size):
            xi = float(xf[i])
            inner = _SQRT_2_OVER_PI * (xi + _TANH_COEFF * xi * xi * xi)
            t = math.tanh(inner)
            dinner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _TANH_COEFF * xi * xi)
            out[i] = float(gf[i]) * (0.5 * (1.0 + t) + 0.5 * xi * (1.0 - t * t) * dinner)
        return out.reshape(x.shape)

    @njit(cache=True)
    def _nb_layer_norm_fwd(x, gamma, beta, eps):
        rows, cols = x.shape
        y = np.empty((rows, cols), dtype=np.float32)
        mean = np.empty(rows, dtype=np.float32)
        inv_std = np.empty(rows, dtype=np.float32)
        for r in range(rows):
            s = 0.0
            for c in range(cols):
                s += float(x[r, c])
            mu = s / cols
            sq = 0.0
            for c in range(cols):
                d = float(x[r, c]) - mu
                sq += d * d
            inv = 1.0 / math.sqrt(sq / cols + eps)
            mean[r] = mu
            inv_std[r] = inv
            for c in range(cols):
                xhat = (float(x[r, c]) - mu) * inv
                y[r, c] = xhat * float(gamma[c]) + float(beta[c])
        return y, mean, inv_std

    @njit(cache=True)
    def _nb_layer_norm_bwd(x, gamma, mean, inv_std, gout):
        rows, cols = x.shape
        gin = np.empty((rows, cols), dtype=np.float32)
        dgamma64 = np.zeros(cols, dtype=np.float64)
        dbeta64 = np.zeros(cols, dtype=np.float64)
        for r in range(rows):
            mu = float(mean[r])
            inv = float(inv_std[r])
            m1 = 0.0
            m2 = 0.0
            for c in range(cols):
                xhat = (float(x[r, c]) - mu) * inv
                g = float(gout[r, c])
                dgamma64[c] += g * xhat
                dbeta64[c] += g
                dxhat = g * float(gamma[c])
                m1 += dxhat
                m2 += dxhat * xhat
            m1 /= cols
            m2 /= cols
            for c in range(cols):
                xhat = (float(x[r, c]) - mu) * inv
                dxhat = float(gout[r, c]) * float(gamma[c])
                gin[r, c] = inv * (dxhat - m1 - xhat * m2)
        return gin, dgamma64.astype(np.float32), dbeta64.astype(np.float32)

    @njit(cache=True)
    def _nb_softmax_rows(x):
        rows, cols = x.shape
        out = np.empty((rows, cols), dtype=np.float32)
        for r in range(rows):
            m = float(x[r, 0])
            for c in range(1, cols):
                if float(x[r, c]) > m:
                    m = float(x[r, c])
            s = 0.0
            for c in range(cols):
                e = math.exp(float(x[r, c]) - m)
                out[r, c] = e
                s += e
            for c in range(cols):
                out[r, c] = float(out[r, c]) / s
        return out

    @njit(cache=True)
    def _nb_softmax_rows_bwd(probs, gout):
        rows, cols = probs.shape
        gin = np.empty((rows, cols), dtype=np.float32)
        for r in range(rows):
            inner = 0.0
            for c in range(cols):
                inner += float(probs[r, c]) * float(gout[r, c])
            for c in range(cols):
                gin[r, c] = float(probs[r, c]) * (float(gout[r, c]) - inner)
        return gin

    @njit(cache=True)
    def _nb_cross_entropy_rows_fwd(logits, targets):
        rows, cols = logits.shape
        out = np.empty(rows, dtype=np.float32)
        for r in range(rows):
            m = float(logits[r, 0])
            for c in range(1, cols):
                if float(logits[r, c]) > m:
                    m = float(logits[r, c])
            s = 0.0
            for c in range(cols):
                s += math.exp(float(logits[r, c]) - m)
            out[r] = m + math.log(s) - float(logits[r, targets[r]])
        return out

    @njit(cache=True)
    def _nb_cross_entropy_rows_bwd(logits, targets, gout):
        rows, cols = logits.shape
        grad = np.empty((rows, cols), dtype=np.float32)
        for r in range(rows):
            m = float(logits[r, 0])
            for c in range(1, cols):
                if float(logits[r, c]) > m:
                    m = float(logits[r, c])
            s = 0.0
            for c in range(cols):
                s += math.exp(float(logits[r, c]) - m)
            g = float(gout[r])
            for c in range(cols):
                p = math.exp(float(logits[r, c]) - m) / s
                grad[r, c] = p * g
            grad[r, targets[r]] -= g
        return grad

    @njit(cache=True)
    def _nb_adam_update(param, grad, m, v, t, lr, beta1, beta2, eps):
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        pf = param.ravel()
        gf = grad.ravel()
        mf = m.ravel()
        vf = v.ravel()
        for i in range(pf.size):
            g = float(gf[i])
            mi = beta1 * float(mf[i]) + (1.0 - beta1) * g
            vi = beta2 * float(vf[i]) + (1.0 - beta2) * g * g
            mf[i] = mi
            vf[i] = vi
            mhat = float(mf[i]) / bc1
            vhat = float(vf[i]) / bc2
            pf[i] = float(pf[i]) - lr * mhat / (math.sqrt(vhat) + eps)

    @njit(cache=True)
    def _nb_scatter_add_rows(out, ids, rows):
        n, cols = rows.shape
        for i in range(n):
            r = ids[i]
            for c in range(cols):
                out[r, c] += rows[i, c]

    @njit(cache=True)
    def _nb_scatter_add_vec(out, ids, vals):
        for i in range(ids.size):
            out[ids[i]] += vals[i]



def _registry() -> dict:
    """{kernel name: {backend: implementation}} from the _np_/_nb_ prefixes."""
    registry = {}
    for backend, prefix in (("numpy", "_np_"), ("numba", "_nb_")):
        for key, fn in globals().items():
            if key.startswith(prefix):
                registry.setdefault(key[len(prefix):], {})[backend] = fn
    return registry


REGISTRY = _registry()
BACKEND = "numba" if _HAS_NUMBA else "numpy"
globals().update({name: impls.get(BACKEND, impls["numpy"]) for name, impls in REGISTRY.items()})
