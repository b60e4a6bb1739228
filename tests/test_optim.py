"""Optimizer updates and gradient clipping against closed-form references."""

import numpy as np
import pytest

from voclab.models import ParameterSet
from voclab.optim import (
    OptimState,
    adam_step,
    clip_global_norm,
    optimizer_step,
    radam_step,
)


def _ps(**arrays):
    ps = ParameterSet()
    for name, arr in arrays.items():
        ps.add(name, np.asarray(arr, dtype=np.float64))
    return ps


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # after bias correction the first Adam update is lr * g / (|g| + eps)
        ps = _ps(w=[1.0, -2.0])
        g = np.array([0.5, -3.0])
        adam_step(ps, {"w": g}, OptimState("adam"), lr=0.1)
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(ps["w"].data, expected, atol=1e-12)

    def test_matches_reference_over_steps(self):
        rng = np.random.default_rng(0)
        ps = _ps(w=rng.normal(size=5))
        state = OptimState("adam")
        lr, (b1, b2), eps = 1e-2, (0.9, 0.999), 1e-8
        ref = ps["w"].data.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t in range(1, 8):
            g = rng.normal(size=5)
            adam_step(ps, {"w": g}, state, lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert np.allclose(ps["w"].data, ref, atol=1e-14)

    def test_skips_parameters_without_gradients(self):
        ps = _ps(w=[1.0], frozen=[5.0])
        adam_step(ps, {"w": np.array([1.0])}, OptimState("adam"), lr=0.1)
        assert ps["frozen"].data[0] == 5.0


class TestRadam:
    def test_early_steps_are_unrectified_momentum(self):
        # with beta2=0.999, rho_t stays <= 4 for the first few steps, so the
        # update is plain bias-corrected momentum: lr * m_hat = lr * g at t=1
        ps = _ps(w=[0.0])
        g = np.array([2.0])
        radam_step(ps, {"w": g}, OptimState("radam"), lr=0.1)
        assert np.allclose(ps["w"].data, -0.1 * 2.0, atol=1e-14)

    def test_rectification_activates_later(self):
        b2 = 0.999
        rho_inf = 2 / (1 - b2) - 1
        state = OptimState("radam")
        ps = _ps(w=[0.0])
        rng = np.random.default_rng(1)
        updates = []
        for t in range(1, 7):
            before = ps["w"].data.copy()
            radam_step(ps, {"w": rng.normal(size=1)}, state, lr=0.1)
            updates.append(ps["w"].data - before)
            b2t = b2**t
            rho_t = rho_inf - 2 * t * b2t / (1 - b2t)
            if t <= 4:
                assert rho_t <= 4.0
            else:
                assert rho_t > 4.0
        assert state.step == 6

    def test_matches_reference_with_rectification(self):
        rng = np.random.default_rng(2)
        ps = _ps(w=rng.normal(size=4))
        state = OptimState("radam")
        lr, (b1, b2), eps = 5e-3, (0.9, 0.999), 1e-8
        ref = ps["w"].data.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        rho_inf = 2 / (1 - b2) - 1
        for t in range(1, 12):
            g = rng.normal(size=4)
            radam_step(ps, {"w": g}, state, lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            b2t = b2**t
            rho_t = rho_inf - 2 * t * b2t / (1 - b2t)
            if rho_t > 4:
                r = np.sqrt(
                    (rho_t - 4) * (rho_t - 2) * rho_inf / ((rho_inf - 4) * (rho_inf - 2) * rho_t)
                )
                ref -= lr * r * m_hat / (np.sqrt(v / (1 - b2t)) + eps)
            else:
                ref -= lr * m_hat
            assert np.allclose(ps["w"].data, ref, atol=1e-14)


class TestFloat32:
    @pytest.mark.parametrize("step,kind", [(adam_step, "adam"), (radam_step, "radam")])
    def test_updates_keep_float32(self, step, kind):
        # 8 steps: RAdam's rectification starts at t=5, so both of its
        # update forms run
        rng = np.random.default_rng(3)
        ps = ParameterSet()
        ps.add("w", rng.normal(size=(3, 4)).astype(np.float32))
        state = OptimState(kind)
        for _ in range(8):
            g = rng.normal(size=(3, 4)).astype(np.float32)
            step(ps, {"w": g}, state, lr=1e-3)
        assert ps["w"].dtype == np.float32
        assert state.m["w"].dtype == np.float32
        assert state.v["w"].dtype == np.float32


class TestDispatchAndState:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OptimState("sgd")
        with pytest.raises(ValueError):
            optimizer_step("sgd", _ps(w=[0.0]), {}, OptimState("adam"), 0.1)

    def test_dispatch_matches_direct_call(self):
        a, b = _ps(w=[1.0, 2.0]), _ps(w=[1.0, 2.0])
        g = {"w": np.array([0.3, -0.7])}
        optimizer_step("adam", a, dict(g), OptimState("adam"), 0.05)
        adam_step(b, dict(g), OptimState("adam"), 0.05)
        assert np.array_equal(a["w"].data, b["w"].data)


class TestClipping:
    def test_reports_pre_clip_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        _, norm = clip_global_norm(grads, None)
        assert norm == pytest.approx(5.0)

    def test_scales_jointly_to_max_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped, norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
        assert total == pytest.approx(1.0)
        # direction is preserved
        assert clipped["a"][0] / clipped["b"][0] == pytest.approx(3.0 / 4.0)

    def test_below_threshold_untouched(self):
        grads = {"a": np.array([0.3])}
        clipped, _ = clip_global_norm(grads, 1.0)
        assert clipped["a"] is grads["a"]

    def test_none_disables(self):
        grads = {"a": np.array([100.0])}
        clipped, norm = clip_global_norm(grads, None)
        assert clipped["a"] is grads["a"]
        assert norm == pytest.approx(100.0)
