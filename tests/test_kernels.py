"""Kernel accuracy tests against float64 oracles, and bit-for-bit tests of
each kernel against the plainer formula it replaced."""

import numpy as np
import pytest
from scipy.special import erf

from oracles import gelu64
from wordlm import kernels


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
