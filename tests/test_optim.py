"""Adam optimizer tests, including a reference-implementation trajectory oracle."""

import numpy as np
import pytest

from oracles import adam_update64
from wordlm import kernels
from wordlm.errors import ContractError
from wordlm.optim import Adam, AdamState, adam_step
from wordlm.tensor import Tensor
from wordlm.training import TrainConfig, lr_at

np_adam_update = kernels.REGISTRY["adam_update"]["numpy"]
CHUNK = kernels._ADAM_CHUNK


def reference_adam_trajectory(x0, grad_fn, lr, beta1, beta2, eps, steps):
    """Independently coded Adam: float64 math, float32 storage per step."""
    x = np.float32(x0)
    m = np.float32(0.0)
    v = np.float32(0.0)
    history = []
    for t in range(1, steps + 1):
        g = float(grad_fn(float(x)))
        m = np.float32(beta1 * float(m) + (1 - beta1) * g)
        v = np.float32(beta2 * float(v) + (1 - beta2) * g * g)
        mhat = float(m) / (1 - beta1**t)
        vhat = float(v) / (1 - beta2**t)
        x = np.float32(float(x) - lr * mhat / (np.sqrt(vhat) + eps))
        history.append(float(x))
    return history


class TestAdamStep:
    def test_zero_gradient_is_fixed_point(self):
        p = Tensor(np.array([1.0, -2.0, 3.0], np.float32), requires_grad=True)
        p.grad = np.zeros(3, np.float32)
        state = AdamState(p)
        before = p.data.copy()
        adam_step(p, state, lr=0.1)
        np.testing.assert_array_equal(p.data, before)
        assert state.step_count == 1

    def test_first_step_moves_by_lr_against_gradient_sign(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(50).astype(np.float32)
        g[np.abs(g) < 0.1] = 0.5
        p = Tensor(np.zeros(50, np.float32), requires_grad=True)
        p.grad = g.copy()
        adam_step(p, AdamState(p), lr=0.01, eps=1e-8)
        np.testing.assert_allclose(p.data, -0.01 * np.sign(g), rtol=1e-3)

    def test_ten_step_quadratic_matches_reference(self):
        # minimize (x - 3)^2 from x0 = 0
        grad_fn = lambda x: 2.0 * (x - 3.0)
        expected = reference_adam_trajectory(
            0.0, grad_fn, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, steps=10
        )
        p = Tensor(np.array([0.0], np.float32), requires_grad=True)
        state = AdamState(p)
        got = []
        for _ in range(10):
            p.grad = np.array([grad_fn(float(p.data[0]))], np.float32)
            adam_step(p, state, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
            got.append(float(p.data[0]))
        np.testing.assert_allclose(got, expected, atol=1e-6)
        assert state.step_count == 10

    def test_missing_grad_raises(self):
        p = Tensor(np.zeros(3, np.float32), requires_grad=True)
        with pytest.raises(ContractError):
            adam_step(p, AdamState(p), lr=0.1)

    def test_state_shape_mismatch_raises(self):
        p = Tensor(np.zeros(3, np.float32), requires_grad=True)
        q = Tensor(np.zeros(4, np.float32), requires_grad=True)
        p.grad = np.ones(3, np.float32)
        with pytest.raises(ContractError):
            adam_step(p, AdamState(q), lr=0.1)

    def test_grad_shape_mismatch_raises(self):
        # (3,) broadcasts against (2, 3); the update must not silently accept it
        p = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
        p.grad = np.ones(3, np.float32)
        with pytest.raises(ContractError, match="gradient shape"):
            adam_step(p, AdamState(p), lr=0.1)

    @pytest.mark.parametrize("which", ["param", "m", "v"])
    def test_numpy_kernel_refuses_non_contiguous_buffers(self, which):
        arrays = {k: np.zeros((4, 6), np.float32) for k in ("param", "m", "v")}
        arrays[which] = np.zeros((6, 4), np.float32).T
        with pytest.raises(ContractError, match="C-contiguous"):
            np_adam_update(
                arrays["param"], np.ones((4, 6), np.float32), arrays["m"], arrays["v"],
                1, 0.1, 0.9, 0.999, 1e-8,
            )


class TestAdamAgainstFloat64Oracle:
    """The float32 numpy kernel against the float64 oracle."""

    TOL = 1e-6  # max |param difference|, float32 storage on both sides

    @staticmethod
    def _run_both(p0, grads, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
        p32, p64 = p0.copy(), p0.copy()
        m32, v32 = np.zeros_like(p0), np.zeros_like(p0)
        m64, v64 = np.zeros_like(p0), np.zeros_like(p0)
        for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
            np_adam_update(p32, g, m32, v32, t, lr, beta1, beta2, eps)
            adam_update64(p64, g, m64, v64, t, lr, beta1, beta2, eps)
        return (p32, m32, v32), (p64, m64, v64)

    def test_200_step_sparse_trajectory_with_warmup(self):
        rng = np.random.default_rng(5)
        rows, cols, steps = 400, 24, 200
        cfg = TrainConfig(peak_lr=1e-3, warmup_steps=20, total_steps=steps)
        p0 = (0.02 * rng.standard_normal((rows, cols))).astype(np.float32)
        grads = []
        for _ in range(steps):
            # like the embedding table: only the rows in the batch get a gradient
            g = np.zeros((rows, cols), np.float32)
            hit = rng.choice(rows, size=rows // 20, replace=False)
            g[hit] = rng.standard_normal((hit.size, cols)).astype(np.float32)
            grads.append(g)
        lrs = [lr_at(t, cfg) for t in range(1, steps + 1)]
        ours, ref = self._run_both(p0, grads, lrs)
        assert np.abs(ours[0] - p0).max() > 100 * self.TOL  # the parameters did move
        for a, b in zip(ours, ref):  # param, m, v
            assert np.abs(a - b).max() <= self.TOL

    @pytest.mark.parametrize(
        "size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7],
        ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+7"],
    )
    def test_every_element_updated_once_at_chunk_boundaries(self, size):
        rng = np.random.default_rng(size)
        p0 = rng.standard_normal(size).astype(np.float32)
        grads = [rng.standard_normal(size).astype(np.float32) for _ in range(3)]
        # each step moves every element by about lr >> TOL, so a skipped or
        # doubled element shows
        (p32, _, _), (p64, _, _) = self._run_both(p0, grads, [1e-2] * 3)
        assert np.abs(p32 - p64).max() <= self.TOL


class TestAdamWrapper:
    def test_steps_all_params_and_zeroes(self):
        params = {
            "a": Tensor(np.ones(4, np.float32), requires_grad=True),
            "b": Tensor(np.ones((2, 2), np.float32), requires_grad=True),
        }
        opt = Adam(params)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        opt.step(lr=0.5)
        for name, p in params.items():
            assert opt.states[name].step_count == 1
            assert np.all(p.data < 1.0)
        opt.zero_grad()
        assert all(p.grad is None for p in params.values())

    def test_interleaved_instances_match_sequential(self):
        """No state leaks between calls: stepping two optimizers in alternation
        gives the same bits as stepping them one after the other."""

        def make(seed):
            rng = np.random.default_rng(seed)
            shapes = {"table": (CHUNK // 8 + 3, 16), "bias": (5,)}
            params = {k: Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                      for k, s in shapes.items()}
            grads = [{k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
                     for _ in range(4)]
            return Adam(params), grads

        def step(opt, grads, i):
            for k, p in opt.params.items():
                p.grad = grads[i][k]
            opt.step(lr=1e-2)

        seq = [make(1), make(2)]
        for opt, grads in seq:
            for i in range(4):
                step(opt, grads, i)
        alt = [make(1), make(2)]
        for i in range(4):
            for opt, grads in alt:
                step(opt, grads, i)
        def state_bytes(opt):
            return [
                a.tobytes()
                for name, p in opt.params.items()
                for a in (p.data, opt.states[name].first_moment, opt.states[name].second_moment)
            ]

        for (a, _), (b, _) in zip(seq, alt):
            assert state_bytes(a) == state_bytes(b)
