"""Kernel accuracy tests against float64 oracles (values and finite-difference
gradients of each forward/backward pair), and bit-for-bit tests of each kernel
against the plainer formula it replaced."""

import mpmath
import numpy as np
import pytest
from scipy.special import erf

from oracles import central_diff_grad, gelu64, layer_norm_two_pass, rel_error, softmax64
from wordlm import kernels

RNG = np.random.default_rng


def weights(r):
    """The gradient of mean(y * r) with respect to y, in float32."""
    return r * np.float32(1.0 / r.size)


class TestGelu:
    @staticmethod
    def gelu(x):
        return kernels.gelu_erf_fwd(np.asarray(x, np.float32))[0]

    def test_zero(self):
        assert self.gelu([0.0])[0] == 0.0

    def test_saturated(self):
        assert abs(self.gelu([10.0])[0] - 10.0) <= 1e-5

    def test_value_at_one_vs_high_precision(self):
        mpmath.mp.dps = 40
        expected = float(mpmath.mpf(1) * mpmath.ncdf(1))
        assert abs(float(self.gelu([1.0])[0]) - expected) <= 1e-5

    def test_random_matches_erf_oracle(self):
        x = RNG(7).standard_normal((4, 9)).astype(np.float32) * 3
        np.testing.assert_allclose(self.gelu(x), gelu64(x), atol=1e-5)

    def test_grad_vs_finite_differences(self):
        rng = RNG(8)
        x = rng.standard_normal(20).astype(np.float32)
        r = rng.standard_normal(20).astype(np.float32)
        _, erf1 = kernels.gelu_erf_fwd(x)
        grad = kernels.gelu_erf_bwd(x, erf1, weights(r))
        fd = central_diff_grad(lambda v: float((gelu64(v) * r).mean()), x)
        assert rel_error(grad, fd) <= 1e-3


class TestLayerNorm:
    def test_constant_row_gives_zeros(self):
        x = np.full((2, 8), 3.5, dtype=np.float32)
        out = kernels.layer_norm_fwd(x, np.ones(8, np.float32), np.zeros(8, np.float32),
                                     np.float32(1e-5))[0]
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_gamma_zero_broadcasts_beta(self):
        rng = RNG(10)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        beta = rng.standard_normal(6).astype(np.float32)
        out = kernels.layer_norm_fwd(x, np.zeros(6, np.float32), beta, np.float32(1e-5))[0]
        np.testing.assert_allclose(out, np.tile(beta, (3, 1)), atol=1e-6)

    def test_matches_two_pass_oracle(self):
        rng = RNG(11)
        x = rng.standard_normal((5, 16)).astype(np.float32) * 2
        gamma = rng.standard_normal(16).astype(np.float32)
        beta = rng.standard_normal(16).astype(np.float32)
        out = kernels.layer_norm_fwd(x, gamma, beta, np.float32(1e-5))[0]
        expected = layer_norm_two_pass(x, gamma, beta, 1e-5)
        assert np.abs(out - expected).max() <= 1e-5

    def test_grads_vs_finite_differences(self):
        rng = RNG(12)
        x = rng.standard_normal((3, 8)).astype(np.float32)
        gamma = rng.standard_normal(8).astype(np.float32)
        beta = rng.standard_normal(8).astype(np.float32)
        r = rng.standard_normal((3, 8)).astype(np.float32)
        _, mean, inv_std = kernels.layer_norm_fwd(x, gamma, beta, np.float32(1e-5))
        gx, dgamma, dbeta = kernels.layer_norm_bwd(x, gamma, mean, inv_std, weights(r))
        fd_x = central_diff_grad(
            lambda v: float((layer_norm_two_pass(v, gamma, beta, 1e-5) * r).mean()), x
        )
        fd_g = central_diff_grad(
            lambda v: float((layer_norm_two_pass(x, v, beta, 1e-5) * r).mean()), gamma
        )
        fd_b = central_diff_grad(
            lambda v: float((layer_norm_two_pass(x, gamma, v, 1e-5) * r).mean()), beta
        )
        assert rel_error(gx, fd_x) <= 1e-3
        assert rel_error(dgamma, fd_g) <= 1e-3
        assert rel_error(dbeta, fd_b) <= 1e-3


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = RNG(18).standard_normal((4, 3, 7)).astype(np.float32) * 4
        probs = kernels.softmax_rows(x.reshape(-1, 7)).reshape(x.shape)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(probs, softmax64(x), atol=1e-6)

    def test_grad_vs_finite_differences(self):
        rng = RNG(19)
        x = rng.standard_normal((2, 6)).astype(np.float32)
        r = rng.standard_normal((2, 6)).astype(np.float32)
        grad = kernels.softmax_rows_bwd(kernels.softmax_rows(x), weights(r))
        fd = central_diff_grad(lambda v: float((softmax64(v) * r).mean()), x)
        assert rel_error(grad, fd) <= 1e-3


class TestGeluRange:
    """The GELU kernels against the float64 oracle over [-40, 40]."""

    # Max |difference|: the float32 kernels reach 4.6e-7, float64 math rounded
    # to float32 2.4e-7 (half an ulp of outputs up to ~6).
    ATOL = 1e-6
    x = np.concatenate([np.linspace(-40.0, 40.0, 16001), [0.0, 1e-30, -1e-30]]).astype(
        np.float32
    )

    @pytest.mark.parametrize("name,oracle", [("gelu_erf", gelu64)])
    def test_forward_and_backward(self, name, oracle):
        fwd, bwd = getattr(kernels, f"{name}_fwd"), getattr(kernels, f"{name}_bwd")
        x64 = self.x.astype(np.float64)
        h = 1e-5  # central difference of the float64 oracle: error ~1e-10
        dref = (oracle(x64 + h) - oracle(x64 - h)) / (2 * h)
        gout = np.full_like(self.x, 2.0)
        y, erf1 = fwd(self.x)
        d = bwd(self.x, erf1, gout)
        assert y.dtype == d.dtype == np.float32
        assert np.isfinite(y).all() and np.isfinite(d).all()
        assert np.abs(y - oracle(x64)).max() <= self.ATOL
        assert np.abs(d - 2.0 * dref).max() <= self.ATOL


class TestGeluSameBitsAsRecomputedErf:
    """The forward keeps erf + 1 for the backward; both give the bits of the
    formulas that computed erf in each pass."""

    x = TestGeluRange.x

    @staticmethod
    def forward(x):
        y = erf(x * np.float32(0.7071067811865476))
        y += 1.0
        y *= x
        y *= 0.5
        return y

    @staticmethod
    def backward(x, gout):
        cdf = erf(x * np.float32(0.7071067811865476))
        cdf += 1.0
        cdf *= 0.5
        xpdf = x * x
        xpdf *= -0.5
        np.exp(xpdf, out=xpdf)
        xpdf *= 0.3989422804014327
        xpdf *= x
        cdf += xpdf
        cdf *= gout
        return cdf

    def test_forward_and_backward(self):
        gout = np.random.default_rng(0).standard_normal(self.x.shape).astype(np.float32)
        y, erf1 = kernels.gelu_erf_fwd(self.x)
        assert y.tobytes() == self.forward(self.x).tobytes()
        d = kernels.gelu_erf_bwd(self.x, erf1, gout)
        assert d.tobytes() == self.backward(self.x, gout).tobytes()


class TestCrossEntropySameBitsAsTwoPasses:
    """The forward hands its float64 softmax to the backward; the losses and
    the gradient keep the bits of the formulas that computed the softmax in
    each pass."""

    @staticmethod
    def forward(logits, targets):
        x64 = logits.astype(np.float64)
        m = x64.max(axis=1)
        lse = m + np.log(np.exp(x64 - m[:, None]).sum(axis=1))
        return (lse - x64[np.arange(x64.shape[0]), targets]).astype(np.float32)

    @staticmethod
    def backward(logits, targets, gout):
        x64 = logits.astype(np.float64)
        m = x64.max(axis=1, keepdims=True)
        e = np.exp(x64 - m)
        p = e / e.sum(axis=1, keepdims=True)
        grad = p * gout.astype(np.float64)[:, None]
        grad[np.arange(x64.shape[0]), targets] -= gout.astype(np.float64)
        return grad.astype(np.float32)

    @staticmethod
    def logits(name):
        rng = np.random.default_rng(3)
        if name == "batch-vocabulary":  # masked targets against a sampled batch vocabulary
            return rng.standard_normal((100, 5478)).astype(np.float32) * np.float32(4)
        if name == "large":
            return (rng.choice([-1e4, 1e4], size=(25, 345))
                    + rng.standard_normal((25, 345))).astype(np.float32)
        x = rng.integers(-3, 4, size=(25, 345)).astype(np.float32)  # many maxima per row
        x[:, :7] = x.max(axis=1, keepdims=True)
        return x

    @pytest.mark.parametrize("name", ["batch-vocabulary", "large", "tied-maxima"])
    def test_forward_and_backward(self, name):
        logits = self.logits(name)
        rng = np.random.default_rng(4)
        targets = rng.integers(0, logits.shape[1], size=logits.shape[0])
        gout = rng.random(logits.shape[0]).astype(np.float32)
        losses, probs = kernels.cross_entropy_rows_fwd(logits, targets)
        assert np.array_equal(losses.view(np.uint32),
                              self.forward(logits, targets).view(np.uint32))
        grad = kernels.cross_entropy_rows_bwd(probs, targets, gout)
        assert np.array_equal(grad.view(np.uint32),
                              self.backward(logits, targets, gout).view(np.uint32))


def _scatter_case(name):
    rng = np.random.default_rng(1)
    if name == "many-duplicates":
        ids = rng.integers(0, 8, 300)
        rows = rng.standard_normal((300, 5)).astype(np.float32)
        out = rng.standard_normal((10, 5)).astype(np.float32)
    elif name == "order-sensitive":  # 1e8 + 1 rounds to 1e8 in float32
        ids = np.array([2, 0, 2, 2])
        rows = np.array([[1e8], [3.0], [1.0], [-1e8]], np.float32)
        out = np.zeros((4, 1), np.float32)
    elif name == "negative-zero":
        ids = np.array([1, 3, 1])
        rows = np.full((3, 2), -0.0, np.float32)
        out = np.full((4, 2), -0.0, np.float32)
        out[3] = 0.0
    elif name == "empty":
        ids = np.zeros(0, np.int64)
        rows = np.zeros((0, 3), np.float32)
        out = rng.standard_normal((5, 3)).astype(np.float32)
    else:  # sorted-unique, as the batch-vocabulary rows arrive
        ids = np.sort(rng.choice(1000, 300, replace=False))
        rows = rng.standard_normal((300, 4)).astype(np.float32)
        out = np.zeros((1000, 4), np.float32)
    return out, np.asarray(ids, np.int64), rows


@pytest.mark.parametrize(
    "case", ["many-duplicates", "order-sensitive", "negative-zero", "empty", "sorted-unique"]
)
def test_scatter_add_rows_same_bits_as_add_at(case):
    out, ids, rows = _scatter_case(case)
    expected = out.copy()
    np.add.at(expected, ids, rows)
    kernels.scatter_add_rows(out, ids, rows)
    assert out.tobytes() == expected.tobytes()
