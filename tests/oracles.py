"""Independent float64 oracles used to check the float32 library.

Everything here is deliberately written against numpy/scipy directly (or as
naive loops), never through the package's own code paths.
"""

import numpy as np
from scipy.special import erf


def matmul_triple_loop(a, b):
    """Naive O(mkn) matrix product in float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def gelu64(x):
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def adam_update64(param, grad, m, v, t, lr, beta1, beta2, eps):
    """Bias-corrected Adam in float64 math, float32 storage, in place.

    Reference for the float32 chunked numpy ``adam_update`` kernel.
    """
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


def layer_norm_two_pass(x, gamma, beta, eps):
    """Reference normalization with explicit two-pass mean/variance."""
    x = np.asarray(x, dtype=np.float64)
    rows = x.reshape(-1, x.shape[-1])
    out = np.zeros_like(rows)
    for r in range(rows.shape[0]):
        mu = rows[r].sum() / rows.shape[1]
        var = ((rows[r] - mu) ** 2).sum() / rows.shape[1]
        out[r] = (rows[r] - mu) / np.sqrt(var + eps) * gamma + beta
    return out.reshape(x.shape)


def cross_entropy_direct(logits, target):
    """-log softmax by direct exponentiation (small logits only)."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits)
    return float(-np.log(e[target] / e.sum()))


def softmax64(x):
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def central_diff_grad(f, x, h=1e-3):
    """Central finite differences of scalar f at x, one component at a time."""
    x = np.asarray(x, dtype=np.float64).copy()
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def brute_force_topk(embeddings, k):
    """Full similarity matrix + explicit per-row sort, ties by id ascending."""
    emb = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1)
    unit = emb / np.where(norms == 0.0, 1.0, norms)[:, None]
    sims = unit @ unit.T
    sims[norms == 0.0, :] = -np.inf
    sims[:, norms == 0.0] = -np.inf
    np.fill_diagonal(sims, -np.inf)
    out = []
    for i in range(emb.shape[0]):
        row = sims[i]
        order = sorted(range(emb.shape[0]), key=lambda j: (-row[j], j))
        out.append(order[:k])
    return out


def rel_error(a, b):
    """Norm-wise relative error between two arrays."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def cosine_distance(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    return float(1.0 - np.dot(a, b) / (na * nb))


def projection_mse(w, v_in, v_out):
    """Elementwise-mean squared error of the map w [E, H] from v_in [N, E] to v_out [N, H], in float64."""
    x = np.asarray(v_in, dtype=np.float64)
    y = np.asarray(v_out, dtype=np.float64)
    return float(((x @ np.asarray(w, dtype=np.float64) - y) ** 2).mean())
