"""Kernel accuracy tests against float64 oracles."""

import numpy as np
import pytest

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
        y = fwd(self.x)
        d = bwd(self.x, gout)
        assert y.dtype == d.dtype == np.float32
        assert np.isfinite(y).all() and np.isfinite(d).all()
        assert np.abs(y - oracle(x64)).max() <= self.ATOL
        assert np.abs(d - 2.0 * dref).max() <= self.ATOL
