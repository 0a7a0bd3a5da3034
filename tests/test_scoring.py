"""Scoring keeps only what it reads.

`reconstruction_errors` runs the cache-free forward, in which the top
encoder layer keeps no hidden-state sequence and the top decoder layer
writes only its readout h_t · w_out. These tests hold it to a copy of
the forward that kept every layer's sequence and read the output
projection from it afterwards, and bound the memory scoring holds.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from conftest import IDENT_NORM
import hivewatch.nn.model as nn_model
from hivewatch.errors import ShapeMismatch
from hivewatch.nn import init_layer, init_model, lstm_forward, model_parameters
from hivewatch.nn.lstm import _gate_rows
from hivewatch.nn.model import SCORE_BATCH, _chunk_bounds, reconstruction_errors


def reference_layer(params, X, h0=None):
    """The sequence-keeping cache-free layer: x_t copied in at every
    step, every hidden state written to a (T, hs, B) sequence."""
    T, B, D = X.shape
    hs = params.hidden_size
    rows = _gate_rows(hs)
    A = np.concatenate([params.U[rows], params.W[rows], params.b[rows, None]], axis=1)
    np.negative(A[: 3 * hs], out=A[: 3 * hs])
    hx = np.empty((hs + D + 1, B))
    h, x = hx[:hs], hx[hs : hs + D]
    hx[hs + D] = 1.0
    h[...] = 0.0 if h0 is None else np.transpose(h0)
    c = np.zeros((hs, B))
    H = np.empty((T, hs, B))
    ig = np.empty((hs, B))
    z = np.empty((4 * hs, B))
    with np.errstate(over="ignore"):
        for t in range(T):
            x[...] = X[t].T
            np.matmul(A, hx, out=z)
            s = z[: 3 * hs]
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            i, f, o, g = z[:hs], z[hs : 2 * hs], z[2 * hs : 3 * hs], z[3 * hs :]
            np.tanh(g, out=g)
            np.multiply(i, g, out=ig)
            np.multiply(f, c, out=c)
            c += ig
            np.tanh(c, out=H[t])
            np.multiply(o, H[t], out=H[t])
            h[...] = H[t]
    return H.transpose(0, 2, 1), H[-1].T


def reference_reconstruction(model, X):
    """Every layer's sequence kept; the projection read from the top one."""
    T, B = X.shape
    seq = X[:, :, None]
    for layer in model.encoder_layers:
        seq, h_final = reference_layer(layer, seq)
    latent = h_final.copy(order="K")
    dec_seq = np.broadcast_to(latent, (T, B, model.hidden_size))
    for layer in model.decoder_layers:
        dec_seq, _ = reference_layer(layer, dec_seq, h0=latent)
    return dec_seq @ model.w_out[0] + model.b_out[0]


def rough_model(n, hs, T):
    model = init_model(hs, n, T, seed=100 * n + hs + T, norm=IDENT_NORM)
    rng = np.random.default_rng(n * hs * T)
    for p in model_parameters(model).values():
        p += rng.normal(0.0, 0.3, size=p.shape)
    return model


def windows(T, width):
    return np.random.default_rng(T + width).normal(size=(T, width))


@functools.cache
def reference_errors(n, hs, T, width):
    """Each window's error from the sequence-keeping forward, over the
    same chunk bounds, as bytes."""
    model, X = rough_model(n, hs, T), windows(T, width)
    out = np.empty(width)
    for a, b in _chunk_bounds(width):
        chunk = X[:, a:b]
        out[a:b] = np.mean((reference_reconstruction(model, chunk) - chunk) ** 2, axis=0)
    return out.tobytes()


# (n, hs, T): each layer count at both window lengths, each width twice.
SHAPES = [
    (1, 16, 60),
    (1, 2, 12),
    (2, 32, 60),
    (2, 5, 12),
    (3, 5, 60),
    (3, 32, 12),
    (4, 2, 60),
    (4, 16, 12),
]
WIDTHS = [1, 5, 511, 513, SCORE_BATCH - 1, SCORE_BATCH + 1, 1381, 2821]


class TestSameBitsAsSequenceKeepingForward:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("n,hs,T", SHAPES)
    def test_errors_bit_for_bit(self, worker_mode, n, hs, T, width):
        got = reconstruction_errors(rough_model(n, hs, T), windows(T, width))
        assert got.tobytes() == reference_errors(n, hs, T, width)


class TestScoringMemory:
    def test_peak_stays_under_half_a_sequence(self, worker_mode):
        """`SCORE_BATCH` windows at hs 16, T 60 are two chunks. Neither
        may hold a (T, hs, chunk) hidden-state sequence: the traced peak
        stays under half of one (T, hs, SCORE_BATCH) float64 sequence
        (3.9 MB), with the caller scoring both chunks, or one while it
        holds the request it sent the worker for the other."""
        T, hs = 60, 16
        model = init_model(hs, 1, T, seed=0, norm=IDENT_NORM)
        X = windows(T, SCORE_BATCH)
        reconstruction_errors(model, X)  # the worker starts untraced
        tracemalloc.start()
        try:
            reconstruction_errors(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < T * hs * SCORE_BATCH * 8 / 2


class TestEmit:
    def case(self, D=3):
        rng = np.random.default_rng(D)
        layer = init_layer(D, 6, rng)
        layer.b += rng.normal(0.0, 0.5, size=layer.b.shape)
        return layer, rng.normal(size=(11, 7, D)), rng.normal(0.0, 0.5, size=(7, 6))

    @pytest.mark.parametrize("keep_cache", [True, False])
    def test_final_and_readout_match_the_states(self, keep_cache):
        layer, X, h0 = self.case()
        w = np.random.default_rng(9).normal(size=6)
        H, h, _ = lstm_forward(layer, X, h0=h0, keep_cache=keep_cache)
        none, h_final, _ = lstm_forward(layer, X, h0=h0, keep_cache=keep_cache, emit="final")
        Y, h_read, cache = lstm_forward(layer, X, h0=h0, keep_cache=keep_cache, emit=w)
        assert none is None
        assert h_final.tobytes() == h.tobytes() and h_read.tobytes() == h.tobytes()
        assert Y.shape == (11, 7)
        assert Y.tobytes() == (H @ w).tobytes()
        if keep_cache:  # the backward still sees every hidden state
            assert cache.H.transpose(0, 2, 1).tobytes() == H.tobytes()

    def test_time_invariant_input_matches_a_copy(self):
        """A stride-0 input is copied into the state buffer once; the
        bits are those of the same input written out at every step."""
        layer, _, h0 = self.case(6)
        code = np.random.default_rng(4).normal(size=(7, 6))
        tiled = np.broadcast_to(code, (11, 7, 6))
        for emit in ("states", np.ones(6)):
            view, h_view, _ = lstm_forward(layer, tiled, h0=h0, keep_cache=False, emit=emit)
            copy, h_copy, _ = lstm_forward(layer, tiled.copy(), h0=h0, keep_cache=False, emit=emit)
            assert view.tobytes() == copy.tobytes() and h_view.tobytes() == h_copy.tobytes()

    def test_no_steps_return_the_initial_state(self):
        layer, X, h0 = self.case()
        Y, h, _ = lstm_forward(layer, X[:0], h0=h0, keep_cache=False, emit=np.ones(6))
        assert Y.shape == (0, 7)
        np.testing.assert_array_equal(h, h0)

    def test_bad_emit_raises(self):
        layer, X, _ = self.case()
        with pytest.raises(ValueError, match="emit"):
            lstm_forward(layer, X, emit="sequence")
        with pytest.raises(ShapeMismatch):
            lstm_forward(layer, X, emit=np.ones(5))
