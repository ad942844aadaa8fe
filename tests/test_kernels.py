"""Kernel registry, backend selection, and numba/numpy parity tests."""

import os
import subprocess
import sys

import numpy as np
import pytest

from wordlm import kernels

RNG = np.random.default_rng(99)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))


def _rel(a, b):
    a = np.asarray(a, np.float64).ravel()
    b = np.asarray(b, np.float64).ravel()
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)


needs_numba = pytest.mark.skipif(
    kernels.BACKEND != "numba", reason="active backend is numpy; parity is trivial"
)

KERNEL_NAMES = {
    "gelu_erf_fwd", "gelu_erf_bwd", "gelu_tanh_fwd", "gelu_tanh_bwd",
    "layer_norm_fwd", "layer_norm_bwd", "softmax_rows", "softmax_rows_bwd",
    "cross_entropy_rows_fwd", "cross_entropy_rows_bwd", "adam_update",
    "scatter_add_rows", "scatter_add_vec",
}


def _nb(name):
    return kernels.REGISTRY[name]["numba"]


def _np(name):
    return kernels.REGISTRY[name]["numpy"]


def _numba_importable():
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


class TestRegistry:
    def test_every_kernel_is_a_global_bound_to_the_active_impl(self):
        assert set(kernels.REGISTRY) == KERNEL_NAMES
        for name, impls in kernels.REGISTRY.items():
            assert set(impls) <= {"numpy", "numba"}
            assert "numpy" in impls
            assert kernels.__dict__[name] is impls.get(kernels.BACKEND, impls["numpy"])


@needs_numba
class TestBackendParity:
    x = RNG.standard_normal((7, 13)).astype(np.float32) * 2
    gamma = RNG.standard_normal(13).astype(np.float32)
    beta = RNG.standard_normal(13).astype(np.float32)
    gout = RNG.standard_normal((7, 13)).astype(np.float32)
    targets = RNG.integers(0, 13, size=7)

    def test_gelu_parity(self):
        for fwd, bwd in (
            ("gelu_erf_fwd", "gelu_erf_bwd"),
            ("gelu_tanh_fwd", "gelu_tanh_bwd"),
        ):
            assert _rel(_nb(fwd)(self.x), _np(fwd)(self.x)) <= 1e-6
            assert (
                _rel(
                    _nb(bwd)(self.x, self.gout),
                    _np(bwd)(self.x, self.gout),
                )
                <= 1e-6
            )

    def test_layer_norm_parity(self):
        eps = np.float32(1e-5)
        y1, m1, i1 = _nb("layer_norm_fwd")(self.x, self.gamma, self.beta, eps)
        y2, m2, i2 = _np("layer_norm_fwd")(self.x, self.gamma, self.beta, eps)
        assert _rel(y1, y2) <= 1e-6
        g1 = _nb("layer_norm_bwd")(self.x, self.gamma, m1, i1, self.gout)
        g2 = _np("layer_norm_bwd")(self.x, self.gamma, m2, i2, self.gout)
        for a, b in zip(g1, g2):
            assert _rel(a, b) <= 1e-5

    def test_softmax_and_cross_entropy_parity(self):
        p1 = _nb("softmax_rows")(self.x)
        p2 = _np("softmax_rows")(self.x)
        assert _rel(p1, p2) <= 1e-6
        assert (
            _rel(
                _nb("softmax_rows_bwd")(p1, self.gout),
                _np("softmax_rows_bwd")(p2, self.gout),
            )
            <= 1e-6
        )
        l1 = _nb("cross_entropy_rows_fwd")(self.x, self.targets)
        l2 = _np("cross_entropy_rows_fwd")(self.x, self.targets)
        assert _rel(l1, l2) <= 1e-6
        gvec = RNG.standard_normal(7).astype(np.float32)
        assert (
            _rel(
                _nb("cross_entropy_rows_bwd")(self.x, self.targets, gvec),
                _np("cross_entropy_rows_bwd")(self.x, self.targets, gvec),
            )
            <= 1e-6
        )

    def test_adam_parity(self):
        shape = (31,)
        p1 = RNG.standard_normal(shape).astype(np.float32)
        g = RNG.standard_normal(shape).astype(np.float32)
        p2, m1, v1 = p1.copy(), np.zeros(shape, np.float32), np.zeros(shape, np.float32)
        m2, v2 = m1.copy(), v1.copy()
        for t in range(1, 4):
            _nb("adam_update")(p1, g, m1, v1, t, 0.01, 0.9, 0.999, 1e-8)
            _np("adam_update")(p2, g, m2, v2, t, 0.01, 0.9, 0.999, 1e-8)
        assert _rel(p1, p2) <= 1e-6
        assert _rel(m1, m2) <= 1e-6
        assert _rel(v1, v2) <= 1e-6

    def test_scatter_add_parity_with_duplicates(self):
        ids = np.array([0, 2, 2, 4, 0], dtype=np.int64)
        rows = RNG.standard_normal((5, 3)).astype(np.float32)
        out1 = np.zeros((6, 3), np.float32)
        out2 = np.zeros((6, 3), np.float32)
        _nb("scatter_add_rows")(out1, ids, rows)
        _np("scatter_add_rows")(out2, ids, rows)
        np.testing.assert_allclose(out1, out2, atol=1e-7)
        vals = rows[:, 0].copy()
        v1 = np.zeros(6, np.float32)
        v2 = np.zeros(6, np.float32)
        _nb("scatter_add_vec")(v1, ids, vals)
        _np("scatter_add_vec")(v2, ids, vals)
        np.testing.assert_allclose(v1, v2, atol=1e-7)


class TestBackendSelection:
    def _probe(self, env_value):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        if env_value is None:
            env.pop("WORDLM_KERNELS", None)
        else:
            env["WORDLM_KERNELS"] = env_value
        return subprocess.run(
            [sys.executable, "-c", "from wordlm import kernels; print(kernels.BACKEND)"],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_numpy_flag_forces_numpy(self):
        out = self._probe("numpy")
        assert out.returncode == 0
        assert out.stdout.strip() == "numpy"

    def test_numba_flag_selects_numba(self):
        out = self._probe("numba")
        if out.returncode == 0:
            assert out.stdout.strip() == "numba"
        else:
            assert "numba" in out.stderr

    @pytest.mark.parametrize("env_value", [None, "auto"])
    def test_auto_uses_numba_when_importable_else_numpy(self, env_value):
        out = self._probe(env_value)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == ("numba" if _numba_importable() else "numpy")

    def test_invalid_flag_rejected(self):
        out = self._probe("gpu")
        assert out.returncode != 0
