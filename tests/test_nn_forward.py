"""Forward pass, initialization, and loss semantics of the autoencoder."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from hivewatch.data import Window
from hivewatch.errors import InvalidHyperparameter, LengthMismatch
from hivewatch.nn import (
    forward,
    init_layer,
    init_model,
    lstm_forward,
    model_parameters,
    reconstruction_loss,
    set_model_parameters,
)
from hivewatch.nn.model import SCORE_BATCH, _forward_batch, reconstruction_errors

# Reconstruction of np.linspace(-1, 1, 60) by the seed-7 (hs=4, n=1, w=60)
# model, recorded once from the verified implementation and locked.
RAMP_GOLDEN_HEAD = [
    -0.011798123633633643,
    -0.016488353765787694,
    -0.019897817739979659,
    -0.022670363237141885,
]
RAMP_GOLDEN_TAIL = [-0.022259996433492024, -0.022255335756094223]


class TestInit:
    def test_deterministic_for_equal_seeds(self):
        a = init_model(2, 1, 60, seed=7)
        b = init_model(2, 1, 60, seed=7)
        for name, arr in model_parameters(a).items():
            np.testing.assert_array_equal(arr, model_parameters(b)[name])

    def test_different_seeds_differ(self):
        a = init_model(4, 1, 8, seed=0)
        b = init_model(4, 1, 8, seed=1)
        assert not np.array_equal(a.encoder_layers[0].W, b.encoder_layers[0].W)

    @pytest.mark.parametrize("hs", [1, 0, 65, 100])
    def test_hidden_size_bounds(self, hs):
        with pytest.raises(InvalidHyperparameter):
            init_model(hs, 1, 8, seed=0)

    @pytest.mark.parametrize("n", [0, 5])
    def test_layer_count_bounds(self, n):
        with pytest.raises(InvalidHyperparameter):
            init_model(8, n, 8, seed=0)

    def test_boundary_hyperparameters_accepted(self):
        init_model(2, 1, 2, seed=0)
        init_model(64, 4, 8, seed=0)

    def test_forget_gate_bias_starts_open(self):
        model = init_model(6, 2, 8, seed=3)
        for layer in (*model.encoder_layers, *model.decoder_layers):
            hs = layer.hidden_size
            np.testing.assert_array_equal(layer.b[hs : 2 * hs], np.ones(hs))
            np.testing.assert_array_equal(layer.b[:hs], np.zeros(hs))
            np.testing.assert_array_equal(layer.b[2 * hs :], np.zeros(2 * hs))

    def test_weight_range(self):
        model = init_model(16, 1, 8, seed=5)
        bound = 1.0 / 4.0
        for layer in (*model.encoder_layers, *model.decoder_layers):
            assert np.abs(layer.W).max() <= bound
            assert np.abs(layer.U).max() <= bound
        assert np.abs(model.w_out).max() <= bound

    def test_layer_shapes(self):
        model = init_model(8, 3, 20, seed=0)
        assert model.encoder_layers[0].W.shape == (32, 1)
        assert model.encoder_layers[1].W.shape == (32, 8)
        assert model.decoder_layers[0].W.shape == (32, 8)
        assert model.w_out.shape == (1, 8)


class TestForward:
    def test_output_length_matches_input(self):
        rng = np.random.default_rng(0)
        for hs, n, w in [(2, 1, 4), (8, 2, 16), (4, 4, 10)]:
            model = init_model(hs, n, w, seed=1)
            y = forward(model, rng.normal(size=w))
            assert y.shape == (w,)
            assert np.isfinite(y).all()

    def test_zero_weights_reconstruct_zero(self):
        """With every weight and bias zero the gate algebra collapses:
        the cell candidate tanh(0) kills the state, and the zero output
        projection kills whatever is left."""
        model = init_model(4, 2, 12, seed=9)
        set_model_parameters(
            model, {k: np.zeros_like(p) for k, p in model_parameters(model).items()}
        )
        y = forward(model, np.random.default_rng(3).normal(size=12))
        np.testing.assert_array_equal(y, np.zeros(12))

    def test_zero_input_golden_is_all_zeros(self):
        """Freshly initialized models leave the cell candidate bias at
        zero, so a zero window never excites the state: the seed-7
        reconstruction of 60 zeros is exactly 60 zeros."""
        model = init_model(4, 1, 60, seed=7)
        np.testing.assert_array_equal(forward(model, np.zeros(60)), np.zeros(60))

    def test_ramp_golden_snapshot(self):
        model = init_model(4, 1, 60, seed=7)
        y = forward(model, np.linspace(-1.0, 1.0, 60))
        np.testing.assert_allclose(y[:4], RAMP_GOLDEN_HEAD, rtol=1e-10)
        np.testing.assert_allclose(y[-2:], RAMP_GOLDEN_TAIL, rtol=1e-10)

    def test_accepts_window_objects(self):
        model = init_model(2, 1, 5, seed=0)
        win = Window(start_ts=0, values=np.ones(5), normalized=True)
        np.testing.assert_array_equal(forward(model, win), forward(model, np.ones(5)))

    def test_length_mismatch(self):
        model = init_model(2, 1, 8, seed=0)
        with pytest.raises(LengthMismatch):
            forward(model, np.zeros(7))

    def test_forward_is_pure(self):
        model = init_model(3, 1, 6, seed=4)
        before = {k: p.copy() for k, p in model_parameters(model).items()}
        forward(model, np.ones(6))
        for k, p in model_parameters(model).items():
            np.testing.assert_array_equal(p, before[k])


class TestForwardOnly:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cache_free_output_is_bit_identical(self, n):
        """Scoring skips the backward cache; it must not change a bit."""
        model = init_model(5, n, 12, seed=n)
        rng = np.random.default_rng(n)
        for p in model_parameters(model).values():
            p += rng.normal(0.0, 0.5, size=p.shape)
        X = rng.normal(size=(12, 33))
        plain = _forward_batch(model, X)
        cached = _forward_batch(model, X, keep_cache=True)
        assert all(c is None for c in (*plain.encoder, *plain.decoder))
        np.testing.assert_array_equal(plain.Y, cached.Y)

    def test_saturated_gates_are_exact_and_silent(self):
        """Biases of +-1000 push exp(-z) to inf or 0: the gates come out
        exactly 1 (input, output) and 0 (forget), with no overflow warning."""
        hs = 3
        layer = init_layer(2, hs, np.random.default_rng(0))
        layer.b[:hs] = 1000.0
        layer.b[hs : 2 * hs] = -1000.0
        layer.b[3 * hs :] = 1000.0
        X = np.random.default_rng(1).normal(size=(7, 4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H, _, c, cache = lstm_forward(layer, X)
            H_plain, _, c_plain, _ = lstm_forward(layer, X, keep_cache=False)
        i, f, o, g = np.split(cache.Z, 4, axis=1)  # rows [i, f, o, g]
        assert np.all(i == 1.0) and np.all(f == 0.0) and np.all(o == 1.0)
        # A closed forget gate and open input gate make c_t = g_t exactly.
        np.testing.assert_array_equal(cache.C, g)
        np.testing.assert_array_equal(H, np.tanh(g).transpose(0, 2, 1))
        np.testing.assert_array_equal(H_plain, H)
        np.testing.assert_array_equal(c_plain, c)


class TestReconstructionErrors:
    @pytest.mark.parametrize("n", [1, SCORE_BATCH - 1, SCORE_BATCH, SCORE_BATCH + 1, 1100])
    def test_matches_per_window_forward(self, n):
        """Each column's error equals the one-window forward's across chunk
        edges. A width-1 batch rounds differently in the last bit, so the
        comparison is at rtol 1e-12, not bit for bit."""
        model = init_model(4, 1, 6, seed=n)
        X = np.random.default_rng(n).normal(size=(6, n))
        want = [np.mean((forward(model, X[:, j]) - X[:, j]) ** 2) for j in range(n)]
        got = reconstruction_errors(model, X)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_no_windows_give_empty_result(self):
        got = reconstruction_errors(init_model(4, 1, 6, seed=0), np.empty((6, 0)))
        assert got.shape == (0,)


def unfused_lstm(layer, X, h0, c0):
    """Per-step reference in the checkpoint's [i, f, g, o] gate order:
    W x_t + U h + b, then the textbook gate algebra."""
    hs = layer.hidden_size

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    h, c, H = h0, c0, []
    for x in X:
        z = x @ layer.W.T + h @ layer.U.T + layer.b
        i, f = sigmoid(z[:, :hs]), sigmoid(z[:, hs : 2 * hs])
        g, o = np.tanh(z[:, 2 * hs : 3 * hs]), sigmoid(z[:, 3 * hs :])
        c = f * c + i * g
        h = o * np.tanh(c)
        H.append(h)
    return np.stack(H), h, c


class TestStackedStep:
    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("D", [1, 6])
    def test_matches_unfused_reference(self, D, keep_cache):
        hs = 6
        rng = np.random.default_rng(D)
        layer = init_layer(D, hs, rng)
        layer.b += rng.normal(0.0, 0.5, size=layer.b.shape)
        X = rng.normal(size=(9, 7, D))
        h0, c0 = rng.normal(0.0, 0.5, size=(7, hs)), rng.normal(size=(7, hs))
        H, h, c, cache = lstm_forward(layer, X, h0=h0, c0=c0, keep_cache=keep_cache)
        H_ref, h_ref, c_ref = unfused_lstm(layer, X, h0, c0)
        assert (cache is not None) == keep_cache
        np.testing.assert_allclose(H, H_ref, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(h, h_ref, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(c, c_ref, rtol=1e-12, atol=1e-15)

    def test_cache_free_pass_builds_no_sequence_sized_gate_block(self):
        """Scoring a 512-window chunk at hs 16 allocates less than one
        T x 4hs x B float64 block (15.7 MB): no input projection across
        time, and no per-step gate cache."""
        T, B, hs = 60, 512, 16
        layer = init_layer(1, hs, np.random.default_rng(0))
        X = np.random.default_rng(1).normal(size=(T, B, 1))
        tracemalloc.start()
        try:
            lstm_forward(layer, X, keep_cache=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T * 4 * hs * B * 8


class TestStability:
    def test_hidden_states_bounded_over_long_sequences(self):
        """Ten thousand steps of bounded input stay finite; the output
        gate times tanh(cell) keeps |h| < 1."""
        rng = np.random.default_rng(5)
        layer = init_layer(1, 8, rng)
        X = rng.uniform(-3.0, 3.0, size=(10_000, 1, 1))
        H, h, c, _ = lstm_forward(layer, X)
        assert np.isfinite(H).all()
        assert np.abs(H).max() < 1.0
        assert np.isfinite(c).all()


class TestReconstructionLoss:
    def test_identity_is_zero(self):
        x = np.random.default_rng(0).normal(size=10)
        assert reconstruction_loss(x, x) == 0.0

    def test_hand_values(self):
        assert reconstruction_loss([1.0, 1.0], [0.0, 0.0]) == pytest.approx(1.0)
        assert reconstruction_loss([1.0, 2.0, 3.0], [1.0, 2.0, 0.0]) == pytest.approx(3.0)

    def test_non_negative_and_zero_only_at_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.normal(size=6), rng.normal(size=6)
            loss = reconstruction_loss(a, b)
            assert loss >= 0.0
            assert (loss == 0.0) == bool(np.array_equal(a, b))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            reconstruction_loss([1.0, 2.0], [1.0])
