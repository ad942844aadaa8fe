"""Hot numeric kernels with a pure-numpy implementation and an optional numba one.

Backend selection is driven by the WORDLM_KERNELS environment variable:

  auto   (default)  use numba when importable, numpy otherwise
  numba             require numba, raise if unavailable
  numpy             force the pure-numpy implementations

``_np_<name>`` is the numpy implementation of kernel ``<name>`` and
``_nb_<name>`` its numba twin. ``REGISTRY`` maps each kernel name to its
implementations by backend ("numpy" always, "numba" when compiled), and the
chosen one is bound as the module global ``<name>`` that callers use. Both
backends implement the same math on float32 arrays in and out. The numpy
elementwise kernels (GELU, Adam) compute in float32 on their float32 inputs;
Adam updates param, m and v in place, chunk by chunk, through one scratch
buffer per call. The reductions (layer norm, softmax, cross-entropy) accumulate
in float64. The numba twins compute in float64 scalars and match the numpy
kernels within the parity tolerances of ``tests/test_kernels.py``, which runs
when numba is importable. All 2-D inputs are treated as rows; callers flatten
leading dimensions.
"""

import math
import os

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError

_INV_SQRT2 = 0.7071067811865476
_SQRT_2_OVER_PI = 0.7978845608028654
_INV_SQRT_2PI = 0.3989422804014327
_TANH_COEFF = 0.044715
# Floats per Adam chunk: the chunk's slices of param, grad, m, v and the
# scratch buffer (5 x 64 KiB) stay in L2 while it is updated.
_ADAM_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------


def _np_gelu_erf_fwd(x):
    y = _erf(x * np.float32(_INV_SQRT2))
    y += 1.0
    y *= x
    y *= 0.5
    return y


def _np_gelu_erf_bwd(x, gout):
    cdf = _erf(x * np.float32(_INV_SQRT2))
    cdf += 1.0
    cdf *= 0.5
    xpdf = x * x
    xpdf *= -0.5
    np.exp(xpdf, out=xpdf)
    xpdf *= _INV_SQRT_2PI
    xpdf *= x
    cdf += xpdf
    cdf *= gout
    return cdf


def _tanh_arg(x, x2):
    """sqrt(2/pi) * (x + c x^3), written x (1 + c x^2) so that x^3 cannot overflow."""
    u = x2 * np.float32(_TANH_COEFF)
    u += 1.0
    u *= x
    u *= _SQRT_2_OVER_PI
    return u


def _np_gelu_tanh_fwd(x):
    y = np.tanh(_tanh_arg(x, x * x))
    y += 1.0
    y *= x
    y *= 0.5
    return y


def _np_gelu_tanh_bwd(x, gout):
    # 0.5 * (1 + tanh(u) + x sech(u)^2 du/dx), du/dx = sqrt(2/pi) (1 + 3c x^2).
    # sech^2 = 4e / (1 + e)^2 with e = exp(-2|u|) in (0, 1]: no overflow, and no
    # cancellation as in 1 - tanh^2 where tanh(u) is near +-1.
    dudx = x * x
    u = _tanh_arg(x, dudx)
    dudx *= 3.0 * _TANH_COEFF * _SQRT_2_OVER_PI
    dudx += _SQRT_2_OVER_PI
    e = np.abs(u)
    e *= -2.0
    np.exp(e, out=e)
    local = e + 1.0
    local *= local
    np.divide(e, local, out=local)
    local *= 4.0
    local *= dudx
    local *= x
    local += np.tanh(u, out=u)
    local += 1.0
    local *= 0.5
    local *= gout
    return local


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
