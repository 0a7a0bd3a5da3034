"""Backpropagation against the central finite-difference oracle.

The numerical gradient is the ground truth here: every analytic gradient
component must agree with (L(θ+h) − L(θ−h)) / 2h to a relative error
below 1e-4 at h = 1e-5, float64 throughout.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import IDENT_NORM
from hivewatch.nn import (
    backward,
    forward,
    init_layer,
    init_model,
    lstm_backward,
    lstm_forward,
    model_parameters,
    reconstruction_loss,
)

FD_STEP = 1e-5
REL_TOL = 1e-4


def numerical_gradient(model, x, name: str, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the reconstruction loss wrt one array."""
    arr = model_parameters(model)[name]  # live reference into the model
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        plus = reconstruction_loss(x, forward(model, x))
        flat[j] = orig - h
        minus = reconstruction_loss(x, forward(model, x))
        flat[j] = orig
        gflat[j] = (plus - minus) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(1e-6, np.maximum(np.abs(a), np.abs(b)))
    return float((np.abs(a - b) / scale).max())


def roughened_model(hs, n, w, seed):
    """Init model with weights nudged off the tame starting point so gate
    activations cover their ranges instead of hovering near 0.5."""
    model = init_model(hs, n, w, seed=seed, norm=IDENT_NORM)
    rng = np.random.default_rng(seed + 1)
    for p in model_parameters(model).values():
        p += rng.normal(0.0, 0.3, size=p.shape)
    return model


class TestGradientCheck:
    @pytest.mark.parametrize("hs", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("w", [4, 8])
    def test_backward_matches_finite_differences(self, hs, n, w):
        model = roughened_model(hs, n, w, seed=100 * hs + 10 * n + w)
        x = np.random.default_rng(42 + hs + n + w).normal(0.0, 1.0, size=w)
        grads = backward(model, x)
        assert set(grads) == set(model_parameters(model))
        for name, analytic in grads.items():
            numeric = numerical_gradient(model, x, name)
            err = relative_error(analytic, numeric)
            assert err < REL_TOL, f"{name}: relative error {err:.3e}"

    def test_gradients_deterministic(self):
        model = roughened_model(3, 2, 8, seed=5)
        x = np.random.default_rng(1).normal(size=8)
        a, b = backward(model, x), backward(model, x)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


class TestTimeInvariantInput:
    def test_shared_input_matches_tiled_copy(self):
        """A stride-0 input (one array read at every step) must agree
        with a materialized copy, forward and backward, and its dX is the
        gradient of the one shared array."""
        rng = np.random.default_rng(7)
        layer = init_layer(3, 4, rng)
        code = rng.normal(size=(5, 3))
        tiled = np.broadcast_to(code, (6, 5, 3))
        dH = rng.normal(size=(6, 5, 4))
        H_view, _, cache_view = lstm_forward(layer, tiled)
        H_copy, _, cache_copy = lstm_forward(layer, tiled.copy())
        np.testing.assert_allclose(H_view, H_copy, rtol=1e-13, atol=1e-15)
        dX_view, dh0_view, g_view = lstm_backward(layer, cache_view, dH)
        dX_copy, dh0_copy, g_copy = lstm_backward(layer, cache_copy, dH)
        assert dX_view.shape == (1, 5, 3)
        np.testing.assert_allclose(dX_view[0], dX_copy.sum(axis=0), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(dh0_view, dh0_copy, rtol=1e-12, atol=1e-14)
        for name in ("W", "U", "b"):
            np.testing.assert_allclose(g_view[name], g_copy[name], rtol=1e-12, atol=1e-14)


class TestGradientStructure:
    def test_zero_residual_zeroes_output_bias_gradient(self):
        """All-zero weights on a zero window reconstruct exactly, so the
        output-bias gradient (the summed residual) is zero."""
        model = init_model(4, 1, 12, seed=0, norm=IDENT_NORM)
        for p in model_parameters(model).values():
            p[...] = 0.0
        grads = backward(model, np.zeros(12))
        assert grads["output.b"][0] == 0.0
        for arr in grads.values():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_output_gradients_scale_with_residual(self):
        """With the encoder blinded to its input (zero input weights) the
        reconstruction is fixed, so doubling the residual must exactly
        double the output-layer gradients: the loss is quadratic and its
        gradient linear in the residual."""
        model = roughened_model(3, 1, 6, seed=9)
        model.encoder_layers[0].W[:] = 0.0
        y = forward(model, np.zeros(6))
        np.testing.assert_array_equal(forward(model, np.ones(6)), y)
        g1 = backward(model, y + 0.5)
        g2 = backward(model, y + 1.0)
        np.testing.assert_allclose(g2["output.b"], 2.0 * g1["output.b"], rtol=1e-9)
        np.testing.assert_allclose(g2["output.W"], 2.0 * g1["output.W"], rtol=1e-9)

    def test_gradient_shapes_mirror_parameters(self):
        model = init_model(5, 2, 7, seed=2, norm=IDENT_NORM)
        grads = backward(model, np.ones(7))
        for name, p in model_parameters(model).items():
            assert grads[name].shape == p.shape
