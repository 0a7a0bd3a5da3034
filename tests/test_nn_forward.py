"""Forward pass, initialization, and loss semantics of the autoencoder."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import IDENT_NORM, use_worker
import hivewatch.nn.model as nn_model
from hivewatch.detector import window_errors
from hivewatch.errors import CheckpointError, InvalidHyperparameter, LengthMismatch
from hivewatch.nn import (
    forward,
    init_layer,
    init_model,
    lstm_forward,
    model_parameters,
    reconstruction_loss,
)
from hivewatch.nn.model import SCORE_BATCH, _chunk_bounds, _forward_batch, reconstruction_errors

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
        a = init_model(2, 1, 60, seed=7, norm=IDENT_NORM)
        b = init_model(2, 1, 60, seed=7, norm=IDENT_NORM)
        for name, arr in model_parameters(a).items():
            np.testing.assert_array_equal(arr, model_parameters(b)[name])

    def test_different_seeds_differ(self):
        a = init_model(4, 1, 8, seed=0, norm=IDENT_NORM)
        b = init_model(4, 1, 8, seed=1, norm=IDENT_NORM)
        assert not np.array_equal(a.encoder_layers[0].W, b.encoder_layers[0].W)

    @pytest.mark.parametrize("hs", [1, 0, 65, 100])
    def test_hidden_size_bounds(self, hs):
        with pytest.raises(InvalidHyperparameter):
            init_model(hs, 1, 8, seed=0, norm=IDENT_NORM)

    @pytest.mark.parametrize("n", [0, 5])
    def test_layer_count_bounds(self, n):
        with pytest.raises(InvalidHyperparameter):
            init_model(8, n, 8, seed=0, norm=IDENT_NORM)

    def test_boundary_hyperparameters_accepted(self):
        init_model(2, 1, 2, seed=0, norm=IDENT_NORM)
        init_model(64, 4, 8, seed=0, norm=IDENT_NORM)

    def test_forget_gate_bias_starts_open(self):
        model = init_model(6, 2, 8, seed=3, norm=IDENT_NORM)
        for layer in (*model.encoder_layers, *model.decoder_layers):
            hs = layer.hidden_size
            np.testing.assert_array_equal(layer.b[hs : 2 * hs], np.ones(hs))
            np.testing.assert_array_equal(layer.b[:hs], np.zeros(hs))
            np.testing.assert_array_equal(layer.b[2 * hs :], np.zeros(2 * hs))

    def test_weight_range(self):
        model = init_model(16, 1, 8, seed=5, norm=IDENT_NORM)
        bound = 1.0 / 4.0
        for layer in (*model.encoder_layers, *model.decoder_layers):
            assert np.abs(layer.W).max() <= bound
            assert np.abs(layer.U).max() <= bound
        assert np.abs(model.w_out).max() <= bound

    def test_layer_shapes(self):
        model = init_model(8, 3, 20, seed=0, norm=IDENT_NORM)
        assert model.encoder_layers[0].W.shape == (32, 1)
        assert model.encoder_layers[1].W.shape == (32, 8)
        assert model.decoder_layers[0].W.shape == (32, 8)
        assert model.w_out.shape == (1, 8)


class TestForward:
    def test_output_length_matches_input(self):
        rng = np.random.default_rng(0)
        for hs, n, w in [(2, 1, 4), (8, 2, 16), (4, 4, 10)]:
            model = init_model(hs, n, w, seed=1, norm=IDENT_NORM)
            y = forward(model, rng.normal(size=w))
            assert y.shape == (w,)
            assert np.isfinite(y).all()

    def test_zero_weights_reconstruct_zero(self):
        """With every weight and bias zero the gate algebra collapses:
        the cell candidate tanh(0) kills the state, and the zero output
        projection kills whatever is left."""
        model = init_model(4, 2, 12, seed=9, norm=IDENT_NORM)
        for p in model_parameters(model).values():
            p[...] = 0.0
        y = forward(model, np.random.default_rng(3).normal(size=12))
        np.testing.assert_array_equal(y, np.zeros(12))

    def test_zero_input_golden_is_all_zeros(self):
        """Freshly initialized models leave the cell candidate bias at
        zero, so a zero window never excites the state: the seed-7
        reconstruction of 60 zeros is exactly 60 zeros."""
        model = init_model(4, 1, 60, seed=7, norm=IDENT_NORM)
        np.testing.assert_array_equal(forward(model, np.zeros(60)), np.zeros(60))

    def test_ramp_golden_snapshot(self):
        model = init_model(4, 1, 60, seed=7, norm=IDENT_NORM)
        y = forward(model, np.linspace(-1.0, 1.0, 60))
        np.testing.assert_allclose(y[:4], RAMP_GOLDEN_HEAD, rtol=1e-10)
        np.testing.assert_allclose(y[-2:], RAMP_GOLDEN_TAIL, rtol=1e-10)

    def test_length_mismatch(self):
        model = init_model(2, 1, 8, seed=0, norm=IDENT_NORM)
        with pytest.raises(LengthMismatch):
            forward(model, np.zeros(7))

    def test_forward_is_pure(self):
        model = init_model(3, 1, 6, seed=4, norm=IDENT_NORM)
        before = {k: p.copy() for k, p in model_parameters(model).items()}
        forward(model, np.ones(6))
        for k, p in model_parameters(model).items():
            np.testing.assert_array_equal(p, before[k])


class TestForwardOnly:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cache_free_output_is_bit_identical(self, n):
        """Scoring skips the backward cache; it must not change a bit."""
        model = init_model(5, n, 12, seed=n, norm=IDENT_NORM)
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
        exactly 1 (input, output) and 0 (forget), with no overflow warning,
        so the cached sigmoid factors and forget gates are exactly 0."""
        hs = 3
        layer = init_layer(2, hs, np.random.default_rng(0))
        layer.b[:hs] = 1000.0
        layer.b[hs : 2 * hs] = -1000.0
        layer.b[3 * hs :] = 1000.0
        X = np.random.default_rng(1).normal(size=(7, 4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H, h, cache = lstm_forward(layer, X)
            H_plain, h_plain, _ = lstm_forward(layer, X, keep_cache=False)
        di, df, do, _ = np.split(cache.dZ, 4, axis=1)  # rows [i, f, o, g]
        assert np.all(di == 0.0) and np.all(df == 0.0) and np.all(do == 0.0)
        assert np.all(cache.F == 0.0)
        # An open output gate makes h_t = tanh(c_t) exactly, so
        # dc/dh = o·(1 - tanh²c) is (1 - h)(1 + h).
        Hf = H.transpose(0, 2, 1)
        np.testing.assert_array_equal(cache.dc_dh, (1.0 + Hf) * (1.0 - Hf))
        np.testing.assert_array_equal(H_plain, H)
        np.testing.assert_array_equal(h_plain, h)


class TestReconstructionErrors:
    @pytest.mark.parametrize(
        "n", sorted({1, 511, 512, 513, 1100, SCORE_BATCH - 1, SCORE_BATCH, SCORE_BATCH + 1})
    )
    def test_matches_per_window_forward(self, n):
        """Each column's error equals the one-window forward's across chunk
        edges: both at the full batch and at half of it, the narrowest chunk
        the balanced split makes. A width-1 batch rounds differently in the last bit, so the
        comparison is at rtol 1e-12, not bit for bit."""
        model = init_model(4, 1, 6, seed=n, norm=IDENT_NORM)
        X = np.random.default_rng(n).normal(size=(6, n))
        want = [np.mean((forward(model, X[:, j]) - X[:, j]) ** 2) for j in range(n)]
        got = reconstruction_errors(model, X)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_no_windows_give_empty_result(self):
        got = reconstruction_errors(init_model(4, 1, 6, seed=0, norm=IDENT_NORM), np.empty((6, 0)))
        assert got.shape == (0,)


def serial_errors(model, X):
    """`reconstruction_errors` as one loop on one thread, same bounds."""
    out = np.empty(X.shape[1])
    for a, b in _chunk_bounds(X.shape[1]):
        Y = _forward_batch(model, X[:, a:b]).Y
        out[a:b] = np.mean((Y - X[:, a:b]) ** 2, axis=0)
    return out


PARALLEL_NS = [0, 1, 255, 256, 511, 512, 513, 1023, 1024, 1025, 1381, 2048, 2049, 2762]


class ChunkFailed(Exception):
    """Raised in the worker; module level, so that it pickles."""


class TestParallelScoring:
    """Chunks run on the calling thread and the worker process."""

    @staticmethod
    def case(n):
        model = init_model(16, 1, 60, seed=3, norm=IDENT_NORM)
        return model, np.random.default_rng(n).normal(size=(60, n))

    @pytest.mark.parametrize("n", PARALLEL_NS)
    def test_bounds_are_balanced_and_depend_on_n_alone(self, n):
        bounds = _chunk_bounds(n)
        starts, ends = [a for a, _ in bounds], [b for _, b in bounds]
        assert starts[1:] == ends[:-1]
        assert (starts[:1], ends[-1:]) == (([0], [n]) if n else ([], []))
        widths = [b - a for a, b in bounds]
        if n < SCORE_BATCH:
            assert widths == ([n] if n else [])
        else:
            assert len(bounds) % 2 == 0
            assert max(widths) - min(widths) <= 1
            assert SCORE_BATCH // 2 <= min(widths) and max(widths) <= SCORE_BATCH

    @pytest.mark.parametrize("n", PARALLEL_NS)
    def test_matches_serial_loop_bit_for_bit(self, worker_mode, n):
        model, X = self.case(n)
        np.testing.assert_array_equal(reconstruction_errors(model, X), serial_errors(model, X))

    def test_one_cpu_path_gives_the_same_bits(self, monkeypatch):
        model, X = self.case(1381)
        use_worker(monkeypatch, True)
        with_worker = reconstruction_errors(model, X)
        assert nn_model._worker is not None
        use_worker(monkeypatch, False)
        assert reconstruction_errors(model, X).tobytes() == with_worker.tobytes()
        assert nn_model._worker is None

    def test_reruns_give_identical_bytes(self):
        model, X = self.case(2762)
        assert reconstruction_errors(model, X).tobytes() == reconstruction_errors(model, X).tobytes()

    def test_worker_exception_reaches_caller(self, worker_mode, monkeypatch):
        """Chunk 1 is the worker's (the caller scores chunk 0); its
        exception is raised in the caller with its own type."""
        model, X = self.case(1381)
        start = _chunk_bounds(1381)[1][0]
        real = _forward_batch

        def fail_on_chunk_1(model, chunk):
            if np.array_equal(chunk[:, 0], X[:, start]):
                raise ChunkFailed(os.getpid())
            return real(model, chunk)

        monkeypatch.setattr(nn_model, "_forward_batch", fail_on_chunk_1)
        with pytest.raises(ChunkFailed) as failed:
            reconstruction_errors(model, X)
        assert (failed.value.args[0] != os.getpid()) == (worker_mode == "worker")

    def test_concurrent_callers_share_the_worker(self, worker_mode):
        """More callers than CPUs, switching threads every microsecond:
        one holds the worker at a time and the others score alone; each
        still gets its own matrix's errors, and none hangs."""
        model = init_model(4, 1, 12, seed=1, norm=IDENT_NORM)
        inputs = [np.random.default_rng(k).normal(size=(12, 1381 + k)) for k in range(6)]
        want = [serial_errors(model, X) for X in inputs]
        got = [None] * len(inputs)

        def call(k):
            got[k] = reconstruction_errors(model, inputs[k])

        reconstruction_errors(model, inputs[0])  # a worker starts only while one thread runs
        assert (nn_model._worker is not None) == (worker_mode == "worker")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(k,)) for k in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_leaves_the_worker_alone(self, monkeypatch):
        """A child forked after scoring drops its copy of the worker's
        pipes, scores the parent's bits on its own, and leaves the
        parent's worker running and in step."""
        use_worker(monkeypatch, True)
        model, X = self.case(1381)
        want = reconstruction_errors(model, X)
        worker = nn_model._worker
        assert worker is not None
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only on the parent's bits, never return
            code = 1
            try:
                dropped = nn_model._worker is None
                same = reconstruction_errors(model, X).tobytes() == want.tobytes()
                nn_model._stop_worker()  # its own worker, if it started one
                code = 0 if dropped and same else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish scoring")
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert reconstruction_errors(model, X).tobytes() == want.tobytes()
        assert nn_model._worker is worker
        nn_model._stop_worker()

    def test_caller_errstate_holds_in_worker(self, worker_mode):
        """Weights near 1e300 overflow in every chunk; `window_errors`
        silences that with `np.errstate`, in the worker too, and
        reports the non-finite errors as a CheckpointError. The worker
        starts outside that `np.errstate`, so it holds only by the
        request."""
        model, X = self.case(1381)
        reconstruction_errors(model, X)
        for p in model_parameters(model).values():
            p *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointError, match="1381 of 1381"):
                window_errors(model, X)

    def test_cache_free_forward_frees_encoder_sequence(self):
        """Neither top layer keeps a (T, hs, B) hidden-state sequence:
        the peak stays well under two such blocks."""
        T, B, hs = 60, 512, 16
        model = init_model(hs, 1, T, seed=0, norm=IDENT_NORM)
        X = np.random.default_rng(1).normal(size=(T, B))
        tracemalloc.start()
        try:
            _forward_batch(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * T * hs * B * 8


def unfused_lstm(layer, X, h0):
    """Per-step reference in the checkpoint's [i, f, g, o] gate order:
    W x_t + U h + b, then the textbook gate algebra, from a zero cell state.
    Returns the hidden states, the final one, and the backward's factors
    in the cache's feature-major layout: the gate-gradient factors (rows
    [i, f, o, g]), the forget gates and dc/dh."""
    hs = layer.hidden_size

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    h, c, H, dZ, F, dc_dh = h0, np.zeros_like(h0), [], [], [], []
    for x in X:
        z = x @ layer.W.T + h @ layer.U.T + layer.b
        i, f = sigmoid(z[:, :hs]), sigmoid(z[:, hs : 2 * hs])
        g, o = np.tanh(z[:, 2 * hs : 3 * hs]), sigmoid(z[:, 3 * hs :])
        c_prev, c = c, f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        H.append(h)
        factors = [i * (1 - i) * g, f * (1 - f) * c_prev, o * (1 - o) * tc, (1 - g**2) * i]
        dZ.append(np.concatenate(factors, axis=1).T)
        F.append(f.T)
        dc_dh.append((o * (1 - tc**2)).T)
    return np.stack(H), h, (np.stack(dZ), np.stack(F), np.stack(dc_dh))


class TestStackedStep:
    @pytest.mark.parametrize("keep_cache", [True, False])
    @pytest.mark.parametrize("D", [1, 6])
    def test_matches_unfused_reference(self, D, keep_cache):
        hs = 6
        rng = np.random.default_rng(D)
        layer = init_layer(D, hs, rng)
        layer.b += rng.normal(0.0, 0.5, size=layer.b.shape)
        X = rng.normal(size=(9, 7, D))
        h0 = rng.normal(0.0, 0.5, size=(7, hs))
        H, h, cache = lstm_forward(layer, X, h0=h0, keep_cache=keep_cache)
        H_ref, h_ref, factors_ref = unfused_lstm(layer, X, h0)
        assert (cache is not None) == keep_cache
        np.testing.assert_allclose(H, H_ref, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(h, h_ref, rtol=1e-12, atol=1e-15)
        if keep_cache:
            for got, want in zip((cache.dZ, cache.F, cache.dc_dh), factors_ref):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

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
        H, _, _ = lstm_forward(layer, X)
        assert np.isfinite(H).all()
        assert np.abs(H).max() < 1.0


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
