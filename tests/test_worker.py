"""The worker process that scoring and the training step share work with.

It must give the caller's bytes whatever happens to it, write nothing,
and never outlive its caller.
"""

from __future__ import annotations

import contextlib
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import IDENT_NORM, use_worker
import hivewatch
import hivewatch.nn.model as nn_model
from hivewatch.nn import init_model, loss_and_gradients
from hivewatch.nn.model import reconstruction_errors

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def case():
    model = init_model(4, 1, 12, seed=1, norm=IDENT_NORM)
    return model, np.random.default_rng(0).normal(size=(12, 1381))


def alone(monkeypatch, fn, *args):
    """`fn(*args)` with no worker, leaving the test's worker settings as
    they were."""
    with monkeypatch.context() as patch:
        patch.setattr(nn_model, "_claimed_worker", contextlib.nullcontext)
        return fn(*args)


def step_bytes(result):
    loss, grads = result
    return loss, [g.tobytes() for g in grads.values()]


@pytest.fixture
def worker(monkeypatch):
    """A running worker, stopped after the test."""
    use_worker(monkeypatch, True)
    model, X = case()
    reconstruction_errors(model, X)
    assert nn_model._worker is not None
    yield nn_model._worker
    nn_model._stop_worker()


@pytest.fixture
def requests(monkeypatch):
    """The pids of the workers sent each request during the test."""
    sent = []
    real_submit = nn_model._Worker.submit

    def submit(self, task, args):
        sent.append(self.pid)
        return real_submit(self, task, args)

    monkeypatch.setattr(nn_model._Worker, "submit", submit)
    return sent


def gone(pid: int) -> bool:
    """True once `pid` has exited: reaped, or a zombie nobody reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def wait_gone(pid: int, seconds: float = 20.0) -> bool:
    deadline = time.monotonic() + seconds
    while not gone(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestLosingTheWorker:
    def test_killed_between_calls(self, monkeypatch, worker, requests):
        """SIGKILL while idle: the next call finds the pipe broken or
        closed, does the whole call itself with the same bytes, reaps
        the worker and starts no other."""
        model, X = case()
        pid = worker.pid
        want = alone(monkeypatch, reconstruction_errors, model, X)
        want_step = step_bytes(alone(monkeypatch, loss_and_gradients, model, X[:, :65]))
        os.kill(pid, signal.SIGKILL)
        assert reconstruction_errors(model, X).tobytes() == want.tobytes()
        assert nn_model._worker is None and nn_model._worker_lost
        assert step_bytes(loss_and_gradients(model, X[:, :65])) == want_step
        assert requests == [pid]
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_killed_during_scoring(self, monkeypatch, requests):
        """A worker that dies with its chunk: the caller scores that chunk
        and the rest itself, with the same bytes, and drops the worker."""
        model, X = case()
        want = alone(monkeypatch, reconstruction_errors, model, X)
        caller, real = os.getpid(), nn_model._chunk_errors

        def die_in_worker(model, chunk):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(model, chunk)

        monkeypatch.setattr(nn_model, "_chunk_errors", die_in_worker)
        use_worker(monkeypatch, True)
        assert reconstruction_errors(model, X).tobytes() == want.tobytes()
        assert len(requests) == 1 and nn_model._worker is None and nn_model._worker_lost
        with pytest.raises(ChildProcessError):
            os.waitpid(requests[0], os.WNOHANG)

    def test_interrupted_request_drops_the_worker(self, monkeypatch, worker):
        """Ctrl-C while a request is half written: the worker would read
        the next request as the rest of it, so it is dropped, and the
        next call works alone with the same bytes."""
        model, X = case()
        pid = worker.pid
        want = reconstruction_errors(model, X)

        def half_sent(obj):
            os.write(worker.requests.fileno(), struct.pack("!i", 1 << 20) + b"partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(worker.requests, "send", half_sent)
        with pytest.raises(KeyboardInterrupt):
            reconstruction_errors(model, X)
        assert nn_model._worker is None and nn_model._worker_lost
        assert reconstruction_errors(model, X).tobytes() == want.tobytes()
        assert nn_model._worker is None
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_ignores_sigint(self, worker, requests):
        """Ctrl-C reaches the whole process group; the worker stays and
        keeps answering."""
        model, X = case()
        want = reconstruction_errors(model, X)
        os.kill(worker.pid, signal.SIGINT)
        time.sleep(0.05)
        assert reconstruction_errors(model, X).tobytes() == want.tobytes()
        assert nn_model._worker is worker and requests == [worker.pid] * 2

    def test_eof_ends_the_worker(self, worker):
        """Closing the caller's end of the pipes alone ends the worker,
        with exit status 0."""
        pid = worker.pid
        worker.close(reap=False)
        deadline = time.monotonic() + 20
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            assert time.monotonic() < deadline, "worker outlived its pipe"
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0


class WorkerWarning(UserWarning):
    """Warned in the worker; module level, so that it pickles."""


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class TestWhatComesBack:
    def test_warning_is_issued_again_in_the_caller(self, monkeypatch):
        model, X = case()
        caller, real = os.getpid(), nn_model._chunk_errors

        def warn_in_worker(model, chunk):
            if os.getpid() != caller:
                warnings.warn("from the worker", WorkerWarning)
            return real(model, chunk)

        monkeypatch.setattr(nn_model, "_chunk_errors", warn_in_worker)
        use_worker(monkeypatch, True)
        try:
            with pytest.warns(WorkerWarning, match="from the worker") as caught:
                reconstruction_errors(model, X)
            assert len(caught) == 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(WorkerWarning):
                    reconstruction_errors(model, X)
            assert nn_model._worker is not None  # a raised warning keeps the pipe in step
        finally:
            nn_model._stop_worker()

    def test_caller_exception_leaves_the_pipe_in_step(self, monkeypatch, worker, requests):
        """The caller's own chunk fails while the worker scores the other:
        the caller's exception is raised, and the worker's reply is read
        and dropped, so the next call gets its own reply."""
        model, X = case()
        want = reconstruction_errors(model, X)
        real = nn_model._chunk_errors
        monkeypatch.setattr(nn_model, "_chunk_errors", lambda model, chunk: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            reconstruction_errors(model, X)
        monkeypatch.setattr(nn_model, "_chunk_errors", real)
        other = X[::-1].copy()
        assert reconstruction_errors(model, other).tobytes() == (
            alone(monkeypatch, reconstruction_errors, model, other).tobytes()
        )
        assert reconstruction_errors(model, X).tobytes() == want.tobytes()
        assert nn_model._worker is worker and requests == [worker.pid] * 4

    def test_unpicklable_exception_arrives_as_runtime_error(self, monkeypatch):
        model, X = case()
        caller, real = os.getpid(), nn_model._chunk_errors

        def fail_in_worker(model, chunk):
            if os.getpid() != caller:
                raise Unpicklable(1, 2)
            return real(model, chunk)

        monkeypatch.setattr(nn_model, "_chunk_errors", fail_in_worker)
        use_worker(monkeypatch, True)
        try:
            with pytest.raises(RuntimeError, match="Unpicklable: 1 and 2"):
                reconstruction_errors(model, X)
            assert nn_model._worker is not None
        finally:
            nn_model._stop_worker()


class TestWhenAWorkerRuns:
    def test_only_on_two_cpus_and_one_thread(self, monkeypatch):
        if threading.active_count() != 1:
            pytest.skip("the test runner runs threads of its own")
        nn_model._stop_worker()
        monkeypatch.setattr(nn_model, "_worker_lost", False)
        model, X = case()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        reconstruction_errors(model, X)
        assert nn_model._worker is None
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            reconstruction_errors(model, X)
            assert nn_model._worker is None
        finally:
            stop.set()
            other.join(timeout=10)
        try:
            reconstruction_errors(model, X)
            assert nn_model._worker is not None
        finally:
            nn_model._stop_worker()

    @pytest.mark.parametrize("on", [True, False])
    def test_caller_keeps_to_one_cpu_while_it_holds_the_worker(self, monkeypatch, on):
        """With the worker, the caller's thread runs its share on one CPU,
        so that the worker runs on another, and gets its own CPU set
        back after the call; without it, its CPU set is left alone."""
        use_worker(monkeypatch, on)
        model, X = case()
        caller, seen = os.getpid(), []

        def recorded(name):
            real = getattr(nn_model, name)

            def call(*args):
                if os.getpid() == caller:
                    seen.append(os.sched_getaffinity(0))
                return real(*args)

            monkeypatch.setattr(nn_model, name, call)

        recorded("_chunk_errors")
        recorded("_half_step")
        before = os.sched_getaffinity(0)
        try:
            reconstruction_errors(model, X)
            loss_and_gradients(model, X[:, :64])
            assert (nn_model._worker is not None) == on
        finally:
            nn_model._stop_worker()
        assert len(seen) == (2 if on else 4)  # with the worker, it takes the other half
        assert all(cpus == ({min(before)} if on else before) for cpus in seen)
        assert os.sched_getaffinity(0) == before

    @pytest.mark.parametrize("numpy_first", [True, False])
    @pytest.mark.parametrize("blas", [None, "1", "2"])
    def test_only_with_one_blas_thread(self, monkeypatch, numpy_first, blas):
        """Two processes whose BLAS threads spin on two CPUs score slower
        than one process alone, so no worker starts unless BLAS runs one
        thread: NumPy loads after `hivewatch` sets the variables, or they
        were 1 already."""
        src = str(Path(hivewatch.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if blas:
            env.update(OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
        code = ("import numpy\n" if numpy_first else "") + "import hivewatch\nprint(hivewatch.ONE_BLAS_THREAD)"
        out = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                             capture_output=True, timeout=120, check=True).stdout
        assert out.split() == [str(blas == "1" or (blas is None and not numpy_first))]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(nn_model, "ONE_BLAS_THREAD", False)
        assert not nn_model._may_fork()

    def test_a_held_worker_leaves_other_callers_alone(self, monkeypatch, worker, requests):
        """While one call holds the worker, another does all its work on
        its own thread, with the same bytes."""
        model, X = case()
        want = reconstruction_errors(model, X)
        want_step = step_bytes(loss_and_gradients(model, X[:, :65]))
        assert requests == [worker.pid] * 2
        with nn_model._worker_lock:
            assert reconstruction_errors(model, X).tobytes() == want.tobytes()
            assert step_bytes(loss_and_gradients(model, X[:, :65])) == want_step
        assert requests == [worker.pid] * 2
        assert nn_model._worker is worker


def run_python(code: str, **kwargs) -> subprocess.Popen:
    src = str(Path(hivewatch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


#: A fresh interpreter that starts a worker, scores and takes a step.
START = """
import os, sys, warnings
import numpy as np
import hivewatch.nn.model as m
from hivewatch.data import NormalizationParams
m._may_fork = lambda: True
model = m.init_model(4, 1, 12, seed=1, norm=NormalizationParams(0.0, 1.0))
X = np.random.default_rng(0).normal(size=(12, 1381))
m.reconstruction_errors(model, X)
m.loss_and_gradients(model, X[:, :64])
pid = m._worker.pid
"""


class TestNoTraces:
    def test_fresh_interpreter_leaves_no_child_and_writes_once(self):
        """Text buffered before the fork is written once, by the caller;
        the worker prints nothing; the caller's exit hook reaps it."""
        code = (
            "import atexit, os, sys\n"
            "def reaped():\n"  # registered first, so it runs after hivewatch's hook
            "    try:\n"
            "        os.waitpid(pid, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        sys.stdout.write(' reaped')\n"
            "atexit.register(reaped)\n"
            "sys.stdout.write('buffered')\n"
            + START
            + "sys.stdout.write(' ' + str(pid))\n"
        )
        proc = run_python(code)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert err == ""
        head, pid, tail = out.split()
        assert (head, tail) == ("buffered", "reaped")
        assert gone(int(pid))

    def test_worker_exits_after_its_caller_is_killed(self):
        proc = run_python(START + "print(pid, flush=True)\nsys.stdin.read()\n",
                          stdin=subprocess.PIPE)
        deadline = threading.Timer(120, proc.kill)  # if it never prints
        deadline.start()
        try:
            pid = int(proc.stdout.readline())
        finally:
            deadline.cancel()
            proc.kill()
            proc.communicate(timeout=60)
        assert wait_gone(pid), "worker outlived its caller"
