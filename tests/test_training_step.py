"""The training step on two threads: the same bits as the serial step.

`loss_and_gradients` prepares each layer's backward in place on the
scoring worker while the next layer runs forward. These tests hold it
to a copy of the serial backward it replaced, on a pool the test owns
(so they run the threaded path on any machine) and on one CPU.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import IDENT_NORM
import hivewatch.nn.model as nn_model
from hivewatch.cli import main
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
from hivewatch.nn.lstm import _gate_rows, _time_invariant, lstm_prepare, lstm_weight_grads


def reference_lstm_backward(params, cache, dH, dh_final=None):
    """The serial backward before the in-place prepare: a whole-sequence
    derivative pre-pass into fresh arrays, the recurrence, then the sums."""
    X, Z, C, TC, H = cache.X, cache.Z, cache.C, cache.TC, cache.H
    T, B, _ = X.shape
    hs = params.hidden_size
    rows = _gate_rows(hs)
    U = params.U[rows]
    W = params.W[rows]

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


def reference_loss_and_gradients(model, X):
    """The serial training step, layer by layer, on fresh forward caches."""
    T, B = X.shape
    n = model.n_layers
    cache = nn_model._forward_batch(model, X, on_cache=lambda layer_cache: None)
    R = cache.Y - X
    loss = float(np.mean(R**2))
    dY = (2.0 / (T * B)) * R
    grads = {"output.W": np.tensordot(dY, cache.top, axes=2)[None, :],
             "output.b": np.array([dY.sum()])}
    dH = dY[:, :, None] * model.w_out[0]
    dlatent = np.zeros((B, model.hidden_size))
    for k in reversed(range(n)):
        dH_next, dh0, g = reference_lstm_backward(model.decoder_layers[k], cache.decoder[k], dH)
        dlatent += dh0
        dH = dH_next
        grads.update({f"decoder.{k}.{name}": arr for name, arr in g.items()})
    dlatent += dH[0]
    dH_enc = None
    for k in reversed(range(n)):
        dH_enc, _, g = reference_lstm_backward(
            model.encoder_layers[k], cache.encoder[k], dH_enc,
            dh_final=dlatent if k == n - 1 else None,
        )
        grads.update({f"encoder.{k}.{name}": arr for name, arr in g.items()})
    return loss, grads


def rough_model(hs, n, T, seed):
    model = init_model(hs, n, T, seed=seed, norm=IDENT_NORM)
    rng = np.random.default_rng(seed + 1)
    for p in model_parameters(model).values():
        p += rng.normal(0.0, 0.3, size=p.shape)
    return model


@pytest.fixture(params=["two-threads", "one-cpu"])
def step_pool(request, monkeypatch):
    """The step's pool: a worker this test owns, used at every size, or
    none, as on one CPU."""
    if request.param == "one-cpu":
        monkeypatch.setattr(nn_model, "_score_pool", lambda: (None, 1))
        yield None
        return
    pool = ThreadPoolExecutor(1, thread_name_prefix="test-step")
    monkeypatch.setattr(nn_model, "_score_pool", lambda: (pool, 2))
    monkeypatch.setattr(nn_model, "STEP_OVERLAP_MIN", 0)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True)


# (n, hs, T, B): every layer count, width, length and batch named in the
# threaded step's contract at least once, the README shape among them.
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
    def test_gradients_bit_for_bit(self, step_pool, n, hs, T, B):
        model = rough_model(hs, n, T, seed=1000 * n + 10 * hs + T)
        X = np.random.default_rng(T * B + hs).normal(size=(T, B))
        want_loss, want = reference_loss_and_gradients(model, X)
        loss, got = loss_and_gradients(model, X)
        assert loss == want_loss
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_train_writes_the_same_bytes(self, tmp_path, monkeypatch):
        """`train` through the CLI, on a pool of one worker used at every
        step size and on one CPU: the same model and history bytes."""
        assert main(["synth", "--days", "4", "--seed", "3", "--out-dir", str(tmp_path / "s")]) == 0
        outputs = {}
        for mode, pool in (("threads", ThreadPoolExecutor(1)), ("one-cpu", None)):
            with monkeypatch.context() as patch:
                patch.setattr(nn_model, "_score_pool", lambda: (pool, 1 if pool is None else 2))
                patch.setattr(nn_model, "STEP_OVERLAP_MIN", 0)
                out = tmp_path / mode
                try:
                    assert main(["train", "--input", str(tmp_path / "s" / "trace.csv"),
                                 "--sensor", "temp_core", "--hs", "8", "--layers", "2",
                                 "--max-epochs", "2", "--batch-size", "200",
                                 "--out-dir", str(out)]) == 0
                finally:
                    if pool is not None:
                        pool.shutdown(wait=True)
            outputs[mode] = [(out / f).read_bytes() for f in ("model.bin", "history.csv")]
        assert outputs["threads"] == outputs["one-cpu"]


class TestOneBackwardPerCache:
    def case(self):
        rng = np.random.default_rng(3)
        layer = init_layer(3, 4, rng)
        return layer, rng.normal(size=(9, 5, 3)), rng.normal(size=(9, 5, 4))

    def test_second_backward_raises(self):
        layer, X, dH = self.case()
        _, _, cache = lstm_forward(layer, X)
        lstm_backward(layer, cache, dH)
        with pytest.raises(ValueError, match="one backward"):
            lstm_backward(layer, cache, dH)
        with pytest.raises(ValueError, match="one backward"):
            lstm_prepare(cache)

    def test_prepared_cache_raises_on_second_prepare(self):
        layer, X, _ = self.case()
        _, _, cache = lstm_forward(layer, X)
        lstm_prepare(cache)
        with pytest.raises(ValueError, match="one backward"):
            lstm_prepare(cache)
        with pytest.raises(ValueError, match="spent cache"):
            lstm_weight_grads(cache)

    @pytest.mark.parametrize("order", [1, -1])
    @pytest.mark.parametrize("parts", [1, 2, 3, 9, 20])
    def test_parts_in_any_order_match_a_fresh_backward(self, parts, order):
        """A cache prepared by `lstm_prepare`'s tasks, run first to last
        or last to first, gives the bits of the serial backward on a
        fresh cache."""
        layer, X, dH = self.case()
        want = reference_lstm_backward(layer, lstm_forward(layer, X)[2], dH)
        _, _, cache = lstm_forward(layer, X)
        tasks = lstm_prepare(cache, parts)
        assert len(tasks) == min(parts, len(X))
        for task in tasks[::order]:
            task()
        got = lstm_backward(layer, cache, dH)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        for name in want[2]:
            assert got[2][name].tobytes() == want[2][name].tobytes()


class TestWorkerTasks:
    @pytest.mark.parametrize("target", ["lstm_prepare", "lstm_weight_grads"])
    def test_worker_exception_reaches_caller(self, monkeypatch, target):
        """A task that fails on the worker raises its own exception in
        the caller, and no task of the step is left running."""

        class TaskFailed(Exception):
            pass

        pool = ThreadPoolExecutor(1, thread_name_prefix="test-step")
        futures = []
        real_submit = pool.submit

        def submit(*args):
            futures.append(real_submit(*args))
            return futures[-1]

        def fail_off_caller(*args):
            if threading.current_thread() is not caller:
                raise TaskFailed(target)

        real = getattr(nn_model, target)
        if target == "lstm_prepare":
            def patched(cache, parts=1):
                return [lambda task=task: (fail_off_caller(), task()) for task in real(cache, parts)]
        else:
            def patched(cache):
                fail_off_caller()
                return real(cache)

        caller = threading.current_thread()
        monkeypatch.setattr(pool, "submit", submit)
        monkeypatch.setattr(nn_model, "_score_pool", lambda: (pool, 2))
        monkeypatch.setattr(nn_model, "STEP_OVERLAP_MIN", 0)
        monkeypatch.setattr(nn_model, target, patched)
        model = rough_model(4, 2, 12, seed=1)
        try:
            with pytest.raises(TaskFailed):
                loss_and_gradients(model, np.ones((12, 16)))
            assert futures and all(f.done() for f in futures)
        finally:
            pool.shutdown(wait=True)

    def test_concurrent_trains_share_the_pool(self, monkeypatch):
        """More `train` callers than CPUs on one shared worker, switching
        threads every microsecond: each gets its own serial result's
        bytes, and none hangs."""
        monkeypatch.setattr(nn_model, "STEP_OVERLAP_MIN", 0)
        config = TrainConfig(batch_size=24, max_epochs=2, seed=5)
        cases = []
        for k in range(4):
            rng = np.random.default_rng(k)
            cases.append((init_model(3, 1 + k % 2, 8, seed=k, norm=IDENT_NORM),
                          rng.normal(size=(8, 48)), rng.normal(size=(8, 8))))

        def weights(result):
            return [p.tobytes() for p in model_parameters(result.model).values()]

        with monkeypatch.context() as patch:
            patch.setattr(nn_model, "_score_pool", lambda: (None, 1))
            want = [weights(train(*case, config)) for case in cases]
        got = [None] * len(cases)

        def call(k):
            got[k] = weights(train(*cases[k], config))

        pool = ThreadPoolExecutor(1, thread_name_prefix="test-step")
        monkeypatch.setattr(nn_model, "_score_pool", lambda: (pool, 2))
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
            pool.shutdown(wait=True)
        assert not any(t.is_alive() for t in threads)
        assert got == want
