"""The training step: the same bits as the serial step, in bounded memory.

`loss_and_gradients` splits a batch in two halves, runs each on a
forward cache that already holds the backward's factors, and adds their
gradients. These tests hold it to a copy of the serial forward and
backward run on the same halves, with the worker process taking the
second half and without it; and `train` to the same bytes with and
without the worker.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from conftest import IDENT_NORM, use_worker
import hivewatch.nn.model as nn_model
from hivewatch.cli import main
from hivewatch.errors import ShapeMismatch
from hivewatch.nn import (
    TrainConfig,
    init_layer,
    init_model,
    loss_and_gradients,
    lstm_backward,
    lstm_forward,
    model_parameters,
    train,
)
from hivewatch.nn.lstm import _gate_rows, _time_invariant


@dataclass
class RawCache:
    """The forward's raw activations, feature-major as in `nn.lstm`."""

    X: np.ndarray  # (T, B, D)
    Z: np.ndarray  # gate activations, rows [i, f, o, g], (T, 4*hs, B)
    C: np.ndarray  # cell states, (T, hs, B)
    TC: np.ndarray  # tanh of cell states, (T, hs, B)
    H: np.ndarray  # hidden states, (T, hs, B)
    h0: np.ndarray  # (hs, B)


def reference_lstm_forward(params, X, h0=None):
    """The cached forward loop before it wrote the backward's factors:
    one stacked matmul per step, every raw activation kept. Returns the
    raw cache and the final state as a (B, hs) view of the state buffer,
    the layout the program's latent code has."""
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
    h_init = h.copy()
    Z, C = np.empty((T, 4 * hs, B)), np.empty((T, hs, B))
    TC, H = np.empty((T, hs, B)), np.empty((T, hs, B))
    ig = np.empty((hs, B))
    with np.errstate(over="ignore"):
        for t in range(T):
            z, c_next, tc = Z[t], C[t], TC[t]
            s, i, f, o, g = z[: 3 * hs], z[:hs], z[hs : 2 * hs], z[2 * hs : 3 * hs], z[3 * hs :]
            x[...] = X[t].T
            np.matmul(A, hx, out=z)
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            np.tanh(g, out=g)
            np.multiply(i, g, out=ig)
            np.multiply(f, c, out=c_next)
            c_next += ig
            np.tanh(c_next, out=tc)
            np.multiply(o, tc, out=h)
            H[t] = h
            c = c_next
    return RawCache(X=X, Z=Z, C=C, TC=TC, H=H, h0=h_init), h.T


def reference_factors(cache):
    """The whole-sequence derivative pre-pass of a raw cache, into fresh
    arrays: the gate-gradient factors (rows [i, f, o, g]), the forget
    gates and dc/dh, as `LSTMCache` holds them."""
    Z, C, TC = cache.Z, cache.C, cache.TC
    hs = C.shape[1]
    I, F, O, G = Z[:, :hs], Z[:, hs : 2 * hs], Z[:, 2 * hs : 3 * hs], Z[:, 3 * hs :]
    dZ = 1.0 - Z
    dZ[:, : 3 * hs] *= Z[:, : 3 * hs]
    dZ[:, 3 * hs :] *= 1.0 + G
    dZ[:, :hs] *= G
    dZ[1:, hs : 2 * hs] *= C[:-1]
    dZ[0, hs : 2 * hs] = 0.0
    dZ[:, 2 * hs : 3 * hs] *= TC
    dZ[:, 3 * hs :] *= I
    dc_dh = O * ((1.0 - TC) * (1.0 + TC))
    return dZ, F, dc_dh


def reference_lstm_backward(params, cache, dH, dh_final=None):
    """The serial backward before the in-place prepare: a whole-sequence
    derivative pre-pass into fresh arrays, the recurrence, then the sums."""
    X, H = cache.X, cache.H
    T, B, _ = X.shape
    hs = params.hidden_size
    rows = _gate_rows(hs)
    U = params.U[rows]
    W = params.W[rows]

    dZ, F, dc_dh = reference_factors(cache)
    dH_steps = None if dH is None else np.asarray(dH, dtype=np.float64).transpose(0, 2, 1)

    dh = np.zeros((hs, B)) if dh_final is None else np.array(np.transpose(dh_final), np.float64)
    dc = np.zeros((hs, B))
    dc_step = np.empty((hs, B))
    for t in reversed(range(T)):
        if dH_steps is not None:
            dh += dH_steps[t]
        np.multiply(dh, dc_dh[t], out=dc_step)
        dc += dc_step
        dz = dZ[t]
        dz_if = dz[: 2 * hs].reshape(2, hs, B)
        dz_if *= dc
        dz[2 * hs : 3 * hs] *= dh
        dz[3 * hs :] *= dc
        dh = U.T @ dz
        dc *= F[t]

    dU = dZ[0] @ cache.h0.T
    if T > 1:
        dU += np.matmul(dZ[1:], H[:-1].transpose(0, 2, 1)).sum(axis=0)
    if _time_invariant(X):
        dZ_sum = dZ.sum(axis=0)
        dW = dZ_sum @ X[0]
        dX = (W.T @ dZ_sum).T[None]
    else:
        dW = np.matmul(dZ, X).sum(axis=0)
        dX = np.matmul(W.T, dZ).transpose(0, 2, 1)
    grads = {"W": dW[rows], "U": dU[rows], "b": dZ.sum(axis=(0, 2))[rows]}
    return dX, dh.T, grads


def reference_half_step(model, X, scale):
    """The serial training step, layer by layer, on raw forward caches:
    the sum of squared residuals and the gradients, dY = scale · residual."""
    T, B = X.shape
    n = model.n_layers
    seq, encoder = X[:, :, None], []
    for layer in model.encoder_layers:
        raw, latent = reference_lstm_forward(layer, seq)
        encoder.append(raw)
        seq = raw.H.transpose(0, 2, 1)
    seq, decoder = np.broadcast_to(latent, (T, B, model.hidden_size)), []
    for layer in model.decoder_layers:
        raw, _ = reference_lstm_forward(layer, seq, h0=latent)
        decoder.append(raw)
        seq = raw.H.transpose(0, 2, 1)
    Y = np.empty((T, B))
    for t in range(T):
        np.matmul(decoder[-1].H[t].T, model.w_out[0], out=Y[t])
    Y += model.b_out[0]
    R = Y - X
    squares = float(np.sum(R**2))
    dY = scale * R
    grads = {"output.W": np.tensordot(dY, seq, axes=2)[None, :],
             "output.b": np.array([dY.sum()])}
    dH = dY[:, :, None] * model.w_out[0]
    dlatent = np.zeros((B, model.hidden_size))
    for k in reversed(range(n)):
        dH_next, dh0, g = reference_lstm_backward(model.decoder_layers[k], decoder[k], dH)
        dlatent += dh0
        dH = dH_next
        grads.update({f"decoder.{k}.{name}": arr for name, arr in g.items()})
    dlatent += dH[0]
    dH_enc = None
    for k in reversed(range(n)):
        dH_enc, _, g = reference_lstm_backward(
            model.encoder_layers[k], encoder[k], dH_enc,
            dh_final=dlatent if k == n - 1 else None,
        )
        grads.update({f"encoder.{k}.{name}": arr for name, arr in g.items()})
    return squares, grads


def reference_loss_and_gradients(model, X):
    """The split step by the serial reference: a batch of two windows or
    more in two halves at B // 2, each copied to its own C-ordered array,
    each half's dY scaled by the whole batch's 2/(T·B), the gradients
    added first half first."""
    T, B = X.shape
    scale = 2.0 / (T * B)
    if B < 2:
        squares, grads = reference_half_step(model, X, scale)
        return squares / (T * B), grads
    h = B // 2
    squares, grads = reference_half_step(model, np.ascontiguousarray(X[:, :h]), scale)
    more, other = reference_half_step(model, np.ascontiguousarray(X[:, h:]), scale)
    return (squares + more) / (T * B), {name: g + other[name] for name, g in grads.items()}


def rough_model(hs, n, T, seed):
    model = init_model(hs, n, T, seed=seed, norm=IDENT_NORM)
    rng = np.random.default_rng(seed + 1)
    for p in model_parameters(model).values():
        p += rng.normal(0.0, 0.3, size=p.shape)
    return model


@pytest.fixture
def step_requests(worker_mode, monkeypatch):
    """The names of the functions the worker was asked to call during
    the test: with the worker, a step of two windows or more sends it its
    second half; without it, nothing is sent."""
    sent = []
    real_submit = nn_model._Worker.submit

    def submit(self, name, args):
        sent.append(name)
        return real_submit(self, name, args)

    monkeypatch.setattr(nn_model._Worker, "submit", submit)
    yield sent
    if worker_mode == "alone":
        assert sent == []


# (n, hs, T, B): every layer count, width, length and batch named in the
# step's contract at least once, the README shape among them.
SHAPES = [
    (1, 16, 60, 256),
    (2, 32, 60, 300),
    (3, 5, 12, 64),
    (4, 2, 2, 1),
    (1, 2, 12, 5),
    (2, 16, 2, 256),
    (4, 5, 60, 5),
    (3, 32, 12, 1),
    (1, 5, 2, 300),
    (2, 2, 60, 64),
]


class TestSameBitsAsSerial:
    @pytest.mark.parametrize("n,hs,T,B", SHAPES)
    def test_gradients_bit_for_bit(self, worker_mode, step_requests, n, hs, T, B):
        model = rough_model(hs, n, T, seed=1000 * n + 10 * hs + T)
        X = np.random.default_rng(T * B + hs).normal(size=(T, B))
        want_loss, want = reference_loss_and_gradients(model, X)
        loss, got = loss_and_gradients(model, X)
        assert loss == want_loss
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        if worker_mode == "worker":
            assert step_requests == ([] if B < 2 else ["_half_step"])
        # The split only reorders sums: the unsplit serial step agrees to
        # rounding, within 1e-12 of each array's largest entry.
        T = X.shape[0]
        squares, whole = reference_half_step(model, X, 2.0 / (T * B))
        assert loss == pytest.approx(squares / (T * B), rel=1e-12)
        for name, g in whole.items():
            np.testing.assert_allclose(got[name], g, rtol=1e-12, atol=1e-12 * np.abs(g).max(), err_msg=name)

    @pytest.mark.parametrize("B", [1, 2, 3, 255, 256, 257])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_same_bytes_with_and_without_the_worker(self, monkeypatch, n, B):
        model = rough_model(5, n, 12, seed=10 * n + B)
        X = np.random.default_rng(B).normal(size=(12, B))
        results = []
        for on in (True, False):
            use_worker(monkeypatch, on)
            loss, grads = loss_and_gradients(model, X)
            assert (nn_model._worker is not None) == (on and B >= 2)
            results.append((loss, [g.tobytes() for g in grads.values()]))
        assert results[0] == results[1]

    def test_train_writes_the_same_bytes(self, tmp_path, monkeypatch):
        """`train` through the CLI, with the worker taking half of every
        batch and every other validation chunk, and without it: the same
        model and history bytes."""
        assert main(["synth", "--days", "4", "--seed", "3", "--out-dir", str(tmp_path / "s")]) == 0
        outputs = {}
        for mode in ("worker", "alone"):
            use_worker(monkeypatch, mode == "worker")
            out = tmp_path / mode
            assert main(["train", "--input", str(tmp_path / "s" / "trace.csv"),
                         "--sensor", "temp_core", "--hs", "8", "--layers", "2",
                         "--max-epochs", "2", "--batch-size", "200",
                         "--out-dir", str(out)]) == 0
            assert (nn_model._worker is not None) == (mode == "worker")
            outputs[mode] = [(out / f).read_bytes() for f in ("model.bin", "history.csv")]
        nn_model._stop_worker()
        assert outputs["worker"] == outputs["alone"]


class TestStepMemory:
    def test_step_holds_little_beyond_its_caches(self, worker_mode):
        """At the README shape, one layer, the step's `tracemalloc` peak
        stays within 2 MiB of its two layers' caches, 7·T·hs·B float64
        each: beside them it builds no (T, B, hs) array, neither a
        gradient of the readout nor a copy of the top states for the
        output weights' gradient, each 1.9 MiB here. The step's other
        arrays come to about 1 MiB."""
        n, hs, T, B = 1, 16, 60, 256
        model = rough_model(hs, n, T, seed=4)
        X = np.random.default_rng(5).normal(size=(T, B))
        caches = 2 * n * 7 * T * hs * B * 8
        tracemalloc.start()
        try:
            loss_and_gradients(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < caches + (2 << 20)


#: A fresh interpreter that runs two warm-up epochs of three training
#: steps and one scoring call each, then `argv[2]` more, and prints the
#: minor page faults of the calling process over the later epochs.
#: `argv[1]` is "worker" to take the worker process, "alone" to run
#: without it.
EPOCHS = """
import resource, sys
import numpy as np
import hivewatch
import hivewatch.nn.model as nn_model
from hivewatch.data import NormalizationParams
from hivewatch.nn import init_model, loss_and_gradients

nn_model._may_fork = lambda: sys.argv[1] == "worker"
model = init_model(16, 2, 60, seed=1, norm=NormalizationParams(mean=0.0, std=1.0))
rng = np.random.default_rng(2)
X, V = rng.normal(size=(60, 256)), rng.normal(size=(60, 1100))

def epochs(k):
    for _ in range(k):
        for _ in range(3):
            loss_and_gradients(model, X)
        nn_model.reconstruction_errors(model, V)

epochs(2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
epochs(int(sys.argv[2]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestNoCachesOutliveTheStep:
    def test_the_step_keeps_no_training_cache(self, worker_mode):
        """Once `loss_and_gradients` returns, the calling thread holds
        none of the step's training caches, 7·T·hs·B float64 per layer
        and half: `tracemalloc` counts little beyond the gradients it
        returned, with the worker and alone."""
        n, hs, T, B = 2, 16, 60, 256
        model = rough_model(hs, n, T, seed=21)
        rng = np.random.default_rng(22)
        loss_and_gradients(model, rng.normal(size=(T, 3)))  # starts the worker
        X = rng.normal(size=(T, B))
        tracemalloc.start()
        try:
            _, grads = loss_and_gradients(model, X)
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(g.nbytes for g in grads.values())
        one_cache = 7 * T * hs * (B // 2) * 8  # one layer's, of one half
        assert left - returned < one_cache / 8

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    @pytest.mark.parametrize("mode", ["worker", "alone"])
    def test_epochs_fault_in_no_fresh_memory(self, mode):
        """In a fresh interpreter, after `import hivewatch` and two warm-up
        epochs, four more epochs add fewer than 500 minor page faults to
        the calling process: each step's caches land on heap pages an
        earlier step freed, even after scoring ends an epoch. A count,
        not a timing. With glibc's default malloc thresholds the same
        run took 80 000 to 95 000 on an x86-64 VM, with the worker and
        alone."""
        src = str(Path(nn_model.__file__).resolve().parents[2])
        env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", EPOCHS, mode, "4"], env=env, text=True,
                             capture_output=True, timeout=300, check=True).stdout
        assert int(out) < 500


class TestOneBackwardPerCache:
    def test_second_backward_raises(self):
        rng = np.random.default_rng(3)
        layer = init_layer(3, 4, rng)
        X, dH = rng.normal(size=(9, 5, 3)), rng.normal(size=(9, 5, 4))
        _, _, cache = lstm_forward(layer, X)
        lstm_backward(layer, cache, dH)
        with pytest.raises(ValueError, match="one backward"):
            lstm_backward(layer, cache, dH)


# (D, hs, T, B, h0, dH, dh_final, invariant, saturated): the roles a
# layer takes in the model (first encoder layer, the top encoder layer
# with no per-step gradient, decoder layers on a broadcast latent) and
# the edges: one step, width and batch of one, gates saturated to
# exactly 0 and 1, and the README shape.
LAYER_CASES = {
    "encoder-first": (1, 4, 9, 5, False, True, False, False, False),
    "encoder-top": (4, 4, 9, 5, False, False, True, False, False),
    "encoder-middle": (4, 4, 9, 5, False, True, True, False, False),
    "decoder-first": (4, 4, 9, 5, True, True, False, True, False),
    "decoder-upper": (4, 4, 9, 5, True, True, False, False, False),
    "one-step": (3, 4, 1, 5, True, True, True, False, False),
    "width-and-batch-one": (1, 1, 7, 1, False, True, False, False, False),
    "saturated": (2, 3, 6, 4, True, True, True, False, True),
    "readme-shape": (16, 16, 60, 256, True, True, False, True, False),
}


class TestCachedFactors:
    @pytest.mark.parametrize("case", list(LAYER_CASES))
    def test_factors_and_backward_bit_for_bit(self, case):
        """The cached forward's factors have the bits of the derivative
        pre-pass over the raw activations, and its backward the bits of
        the serial backward on those."""
        D, hs, T, B, with_h0, with_dH, with_final, invariant, saturated = LAYER_CASES[case]
        rng = np.random.default_rng(sum(map(ord, case)))
        layer = init_layer(D, hs, rng)
        layer.b += rng.normal(0.0, 0.5, size=4 * hs)
        if saturated:
            layer.b[:hs], layer.b[hs : 2 * hs] = 1000.0, -1000.0  # i open, f closed
        X = (np.broadcast_to(rng.normal(size=(B, D)), (T, B, D)) if invariant
             else rng.normal(size=(T, B, D)))
        h0 = rng.normal(0.0, 0.5, size=(B, hs)) if with_h0 else None
        dH = rng.normal(size=(T, B, hs)) if with_dH else None
        dh_final = rng.normal(size=(B, hs)) if with_final else None
        with np.errstate(over="ignore"):
            raw, h_want = reference_lstm_forward(layer, X, h0)
        H, h, cache = lstm_forward(layer, X, h0=h0)
        assert h.tobytes() == h_want.tobytes()
        assert H.tobytes() == raw.H.transpose(0, 2, 1).tobytes()
        assert cache.h0.tobytes() == raw.h0.tobytes()
        for got, want in zip((cache.dZ, cache.F, cache.dc_dh), reference_factors(raw)):
            assert got.tobytes() == want.tobytes()
        want = reference_lstm_backward(layer, raw, dH, dh_final)
        got = lstm_backward(layer, cache, dH, dh_final)
        assert got[0].shape == want[0].shape == ((1,) if invariant else (T,)) + (B, D)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        for name in want[2]:
            assert got[2][name].tobytes() == want[2][name].tobytes(), name


class TestReadoutBackward:
    @pytest.mark.parametrize("hs,T,B", [(16, 60, 256), (5, 12, 1), (2, 2, 7)])
    def test_matches_the_hidden_state_gradient(self, hs, T, B):
        """A layer that emitted its readout takes dY and forms each step's
        w ⊗ dY[t] itself: the bits of a backward given the (T, B, hs)
        hidden-state gradient dY[:, :, None] * w."""
        rng = np.random.default_rng(hs * T + B)
        layer = init_layer(3, hs, rng)
        X, w, dY = rng.normal(size=(T, B, 3)), rng.normal(size=hs), rng.normal(size=(T, B))
        _, _, states = lstm_forward(layer, X)
        _, _, readout = lstm_forward(layer, X, emit=w)
        want = lstm_backward(layer, states, dY[:, :, None] * w)
        got = lstm_backward(layer, readout, dY)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        for name in want[2]:
            assert got[2][name].tobytes() == want[2][name].tobytes()

    def test_gradient_must_match_what_was_emitted(self):
        """With B == hs a (T, B, hs) gradient would broadcast against the
        readout's w ⊗ dY[t] buffer; it raises instead, as a (T, B) one
        does for a layer that emitted its states."""
        rng = np.random.default_rng(8)
        T, B, hs = 6, 4, 4
        layer = init_layer(3, hs, rng)
        X, w = rng.normal(size=(T, B, 3)), rng.normal(size=hs)
        _, _, readout = lstm_forward(layer, X, emit=w)
        with pytest.raises(ShapeMismatch, match=r"\(6, 4, 4\), expected \(6, 4\)"):
            lstm_backward(layer, readout, rng.normal(size=(T, B, hs)))
        _, _, states = lstm_forward(layer, X)
        with pytest.raises(ShapeMismatch, match=r"\(6, 4\), expected \(6, 4, 4\)"):
            lstm_backward(layer, states, rng.normal(size=(T, B)))


class TaskFailed(Exception):
    """Raised in the worker; module level, so that it pickles."""


class TestWorkerTasks:
    def test_worker_exception_reaches_caller(self, monkeypatch):
        """Validation scoring that fails on the worker raises its own
        exception type in `train`'s caller, and leaves the worker idle
        and in use: the next call gets its reply, not this one's."""
        caller = os.getpid()
        real_chunk_errors = nn_model._chunk_errors

        def fail_in_worker(model, chunk):
            if os.getpid() != caller:
                raise TaskFailed(os.getpid())
            return real_chunk_errors(model, chunk)

        monkeypatch.setattr(nn_model, "_chunk_errors", fail_in_worker)
        use_worker(monkeypatch, True)  # forked after the patch, so the worker has it
        rng = np.random.default_rng(6)
        model = init_model(3, 1, 8, seed=6, norm=IDENT_NORM)
        X_train, X_val = rng.normal(size=(8, 48)), rng.normal(size=(8, 2 * nn_model.SCORE_BATCH))
        try:
            with pytest.raises(TaskFailed) as failed:
                train(model, X_train, X_val, TrainConfig(batch_size=24, max_epochs=1, seed=6))
            worker = nn_model._worker
            assert worker is not None and failed.value.args == (worker.pid,)
            want_loss, want = reference_loss_and_gradients(model, X_train)
            loss, got = loss_and_gradients(model, X_train)
            assert nn_model._worker is worker
            assert loss == want_loss
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        finally:
            nn_model._stop_worker()

    def test_worker_killed_during_a_step(self, monkeypatch):
        """A worker that dies with its half of the batch: the caller runs
        that half itself, returns the same bytes, and drops the worker
        for good, reaped."""
        caller = os.getpid()
        real_half_step = nn_model._half_step

        def die_in_worker(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_half_step(*args)

        model = rough_model(5, 2, 12, seed=3)
        X = np.random.default_rng(4).normal(size=(12, 65))
        want_loss, want = reference_loss_and_gradients(model, X)
        monkeypatch.setattr(nn_model, "_half_step", die_in_worker)
        use_worker(monkeypatch, True)
        requests = []
        real_submit = nn_model._Worker.submit

        def submit(self, task, args):
            requests.append(self.pid)
            return real_submit(self, task, args)

        monkeypatch.setattr(nn_model._Worker, "submit", submit)
        loss, got = loss_and_gradients(model, X)
        assert loss == want_loss
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        assert len(requests) == 1 and nn_model._worker is None and nn_model._worker_lost
        with pytest.raises(ChildProcessError):
            os.waitpid(requests[0], os.WNOHANG)  # reaped already
        loss_and_gradients(model, X)
        assert len(requests) == 1  # lost for good: no new worker

    def test_concurrent_trains_share_the_worker(self, monkeypatch):
        """More `train` callers than CPUs on one worker, switching threads
        every microsecond: one holds the worker at a time and the others
        work alone; each gets its result's bytes without the worker, and
        none hangs. Two callers train at an odd batch size, so halves of
        different widths run at once on the threads and on the worker."""
        cases = []
        for k in range(4):
            rng = np.random.default_rng(k)
            cases.append((init_model(3, 1 + k % 2, 8, seed=k, norm=IDENT_NORM),
                          rng.normal(size=(8, 48)), rng.normal(size=(8, 8)),
                          TrainConfig(batch_size=24 + k // 2, max_epochs=2, seed=5)))

        def weights(result):
            return [p.tobytes() for p in model_parameters(result.model).values()]

        use_worker(monkeypatch, False)
        want = [weights(train(*case)) for case in cases]
        got = [None] * len(cases)

        def call(k):
            got[k] = weights(train(*cases[k]))

        use_worker(monkeypatch, True)
        loss_and_gradients(*cases[0][:2])  # starts the worker before any thread does
        worker = nn_model._worker
        assert worker is not None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(k,)) for k in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            nn_model._stop_worker()
        assert not any(t.is_alive() for t in threads)
        assert got == want
