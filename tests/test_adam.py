"""Adam optimizer against hand-worked and scripted reference values."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hivewatch.errors import ShapeMismatch
from hivewatch.nn import TrainConfig, adam_step, init_adam


def reference_adam(grad_fn, theta, lr, steps, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam recurrence on a scalar, written independently of the
    implementation under test."""
    m = v = 0.0
    trajectory = []
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        trajectory.append(theta)
    return theta, trajectory


class TestAdamStep:
    def params(self, value=0.0):
        return {"p": np.array([value])}

    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"a": np.array([1.5, -2.0]), "b": np.ones((2, 2))}
        before = {k: p.copy() for k, p in params.items()}
        state = init_adam(params)
        adam_step(params, {k: np.zeros_like(p) for k, p in params.items()}, state, TrainConfig())
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])
        assert state.step == 1

    def test_first_step_hand_value(self):
        """One step from 0 with gradient 1: m̂ = 1, v̂ = 1, so the update
        is −lr/(1+ε) ≈ −0.001."""
        params = self.params(0.0)
        state = init_adam(params)
        adam_step(params, {"p": np.array([1.0])}, state, TrainConfig())
        assert params["p"][0] == pytest.approx(-0.001, rel=1e-6)
        assert state.step == 1
        assert state.m["p"][0] == pytest.approx(0.1)
        assert state.v["p"][0] == pytest.approx(0.001)

    def test_hundred_steps_on_quadratic(self):
        """Minimizing θ² from θ=1 with lr 0.1 lands near the optimum, and
        the whole trajectory matches the scripted reference recurrence."""
        config = TrainConfig(learning_rate=0.1)
        params = self.params(1.0)
        state = init_adam(params)
        trajectory = []
        for _ in range(100):
            grads = {"p": 2.0 * params["p"]}
            adam_step(params, grads, state, config)
            trajectory.append(float(params["p"][0]))
        ref_theta, ref_traj = reference_adam(lambda t: 2.0 * t, 1.0, 0.1, 100)
        assert abs(params["p"][0]) < 0.1
        np.testing.assert_allclose(trajectory, ref_traj, rtol=1e-12)
        assert params["p"][0] == pytest.approx(ref_theta, rel=1e-12)

    def test_updates_in_place(self):
        """The update lands in the arrays it was given, so a model's own
        parameter views (`model_parameters`) train the model directly."""
        params = {"p": np.array([1.0])}
        array = params["p"]
        state = init_adam(params)
        m, v = state.m["p"], state.v["p"]
        assert adam_step(params, {"p": np.array([0.5])}, state, TrainConfig()) is None
        assert params["p"] is array and state.m["p"] is m and state.v["p"] is v
        assert array[0] < 1.0
        assert m[0] == pytest.approx(0.05) and v[0] == pytest.approx(0.00025)
        assert state.step == 1

    @pytest.mark.parametrize(
        "grads",
        [{"a": np.ones(3), "b": np.ones(4)}, {"a": np.ones(3), "c": np.ones(2)}],
        ids=["shape", "key"],
    )
    def test_mismatch_changes_nothing(self, grads):
        """Keys and shapes are all checked before the first write: a bad
        entry after a good one still leaves every array and the step as
        they were."""
        params = {"a": np.ones(3), "b": np.ones(2)}
        state = init_adam(params)
        state.m["a"][:] = 0.5
        before = {
            name: {k: a.copy() for k, a in d.items()}
            for name, d in (("params", params), ("m", state.m), ("v", state.v))
        }
        with pytest.raises(ShapeMismatch):
            adam_step(params, grads, state, TrainConfig())
        for name, d in (("params", params), ("m", state.m), ("v", state.v)):
            for k, a in d.items():
                np.testing.assert_array_equal(a, before[name][k])
        assert state.step == 0

    def test_shape_mismatch(self):
        params = {"p": np.ones(3)}
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"p": np.ones(4)}, init_adam(params), TrainConfig())

    def test_key_mismatch(self):
        params = {"p": np.ones(3)}
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"q": np.ones(3)}, init_adam(params), TrainConfig())


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == pytest.approx(1e-3)
        assert config.patience == 5
        assert config.batch_size == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
