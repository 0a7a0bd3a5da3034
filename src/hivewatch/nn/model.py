"""Stacked LSTM autoencoder: model container, forward pass, loss, gradients.

The encoder reads the window one reading per step; its final top-layer
hidden state is the latent code. Every decoder layer starts from that code
as its initial hidden state, the bottom decoder layer also receives it as
input at every step, and a linear projection maps each top decoder hidden
state back to one reading, in forward time order.

Where the process may run on two CPUs, one forked worker process (see
`_Worker`) takes part of every call: scoring (`reconstruction_errors`)
sends it every other chunk of windows, and the training step
(`loss_and_gradients`) the second half of every batch. Without it the
caller does the same work in turn, so neither result depends on the
number of CPUs.
Scoring keeps no backward cache, and the top encoder and decoder
layers keep no hidden-state sequence: with one layer each, scoring a
chunk holds its (T, B) reconstruction and step buffers of (4*hs, B) or
less.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .. import ONE_BLAS_THREAD
from ..data import NormalizationParams
from ..errors import InvalidHyperparameter, LengthMismatch
from .lstm import (
    LSTMCache,
    LSTMLayerParams,
    init_layer,
    lstm_backward,
    lstm_forward,
)

#: Inclusive bounds the hyperparameter search ranges over.
HIDDEN_SIZE_RANGE = (2, 64)
NUM_LAYERS_RANGE = (1, 4)

#: Widest forward chunk in `reconstruction_errors`; see `_chunk_bounds`.
#: Each window is its own column, but a window's error can still move by
#: an ulp with the width of the chunk it is scored in, so only the same
#: bounds promise the same bits.
SCORE_BATCH = 1024


@dataclass
class AutoencoderModel:
    """All parameters of one autoencoder, plus the normalization it expects.

    `split` is the SHA-256 (hex) of the split file the model was trained
    on, when the command that trained it wrote one; `calibrate` checks
    its `--splits` against it.
    """

    window_size: int
    hidden_size: int
    n_layers: int
    encoder_layers: list[LSTMLayerParams]
    decoder_layers: list[LSTMLayerParams]
    w_out: np.ndarray  # (1, hs)
    b_out: np.ndarray  # (1,)
    norm: NormalizationParams
    seed: int = 0
    split: str | None = None

    def __post_init__(self) -> None:
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        self.b_out = np.asarray(self.b_out, dtype=np.float64)
        n, hs = self.n_layers, self.hidden_size
        if len(self.encoder_layers) != n or len(self.decoder_layers) != n:
            raise ValueError("encoder/decoder layer counts must equal n_layers")
        for layer in (*self.encoder_layers, *self.decoder_layers):
            if layer.hidden_size != hs:
                raise ValueError("all layers must share hidden_size")
        if self.w_out.shape != (1, hs) or self.b_out.shape != (1,):
            raise ValueError("output projection must be (1, hs) weights + (1,) bias")
        if not (np.isfinite(self.w_out).all() and np.isfinite(self.b_out).all()):
            raise ValueError("output projection contains non-finite entries")


def init_model(
    hs: int,
    n: int,
    window_size: int,
    seed: int,
    norm: NormalizationParams,
) -> AutoencoderModel:
    """Deterministically initialized model; same arguments, same bits.

    Layers draw in a fixed order (encoder bottom-up, then decoder, then
    the output projection) from one seeded generator.
    """
    if not HIDDEN_SIZE_RANGE[0] <= hs <= HIDDEN_SIZE_RANGE[1]:
        raise InvalidHyperparameter(
            f"hidden size {hs} outside {HIDDEN_SIZE_RANGE[0]}..{HIDDEN_SIZE_RANGE[1]}"
        )
    if not NUM_LAYERS_RANGE[0] <= n <= NUM_LAYERS_RANGE[1]:
        raise InvalidHyperparameter(
            f"layer count {n} outside {NUM_LAYERS_RANGE[0]}..{NUM_LAYERS_RANGE[1]}"
        )
    if window_size < 2:
        raise InvalidHyperparameter(f"window size {window_size} must be >= 2")
    rng = np.random.default_rng(seed)
    encoder = [init_layer(1 if k == 0 else hs, hs, rng) for k in range(n)]
    decoder = [init_layer(hs, hs, rng) for _ in range(n)]
    k = 1.0 / np.sqrt(hs)
    w_out = rng.uniform(-k, k, size=(1, hs))
    b_out = np.zeros(1)
    return AutoencoderModel(
        window_size=window_size,
        hidden_size=hs,
        n_layers=n,
        encoder_layers=encoder,
        decoder_layers=decoder,
        w_out=w_out,
        b_out=b_out,
        norm=norm,
        seed=seed,
    )


def model_parameters(model: AutoencoderModel) -> dict[str, np.ndarray]:
    """Live references to every parameter array, in a fixed order."""
    params: dict[str, np.ndarray] = {}
    for prefix, layers in (("encoder", model.encoder_layers), ("decoder", model.decoder_layers)):
        for k, layer in enumerate(layers):
            params[f"{prefix}.{k}.W"] = layer.W
            params[f"{prefix}.{k}.U"] = layer.U
            params[f"{prefix}.{k}.b"] = layer.b
    params["output.W"] = model.w_out
    params["output.b"] = model.b_out
    return params


@dataclass
class _ForwardCache:
    encoder: list[LSTMCache | None]
    decoder: list[LSTMCache | None]
    Y: np.ndarray  # (T, B)

    @property
    def top(self) -> np.ndarray:
        """Top decoder hidden states, (T, B, hs); only the backward cache
        keeps them."""
        return self.decoder[-1].H.transpose(0, 2, 1)


def _forward_batch(
    model: AutoencoderModel,
    X: np.ndarray,
    keep_cache: bool = False,
    reuse: list[tuple[np.ndarray, ...]] | None = None,
) -> _ForwardCache:
    """Forward pass over a (T, B) batch of z-scored windows.

    Each layer emits only what is read of it (see `lstm_forward`): a
    layer that feeds another its hidden-state sequence, the top encoder
    layer only its final state (the latent code), and the top decoder
    layer the readout h_t · w_out at each step. So without the backward
    caches no (T, hs, B) sequence outlives the layer above it, and the
    top layers keep none.

    The per-layer backward caches are built only with `keep_cache`;
    scoring and validation never build them. `reuse` holds arrays for
    them to write, one (dZ, F, dc_dh, H) per layer, encoder first.
    """
    T, B = X.shape
    hs = model.hidden_size
    top = model.n_layers - 1
    arrays = iter(reuse or ())

    seq = X[:, :, None]
    enc_caches = []
    for k, layer in enumerate(model.encoder_layers):
        emit = "final" if k == top else "states"
        seq, latent, cache = lstm_forward(
            layer, seq, keep_cache=keep_cache, emit=emit, reuse=next(arrays, None)
        )
        enc_caches.append(cache)

    # The latent code is a (B, hs) view of the top encoder layer's state
    # buffer, column-major; the backward's matmuls against it round by
    # that layout. Tiled over T as a stride-0 view, the bottom decoder
    # layer copies it into its own state buffer once, not once per step.
    seq = np.broadcast_to(latent, (T, B, hs))
    dec_caches = []
    for k, layer in enumerate(model.decoder_layers):
        emit = model.w_out[0] if k == top else "states"
        seq, _, cache = lstm_forward(
            layer, seq, h0=latent, keep_cache=keep_cache, emit=emit, reuse=next(arrays, None)
        )
        dec_caches.append(cache)

    seq += model.b_out[0]
    return _ForwardCache(encoder=enc_caches, decoder=dec_caches, Y=seq)


def _one_window(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """A 1-d window of the model's length as a (T, 1) batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) != model.window_size:
        raise LengthMismatch(
            f"window length {x.shape} does not match model window_size {model.window_size}"
        )
    return x[:, None]


def forward(model: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    """Reconstruction of one z-scored window (same length, forward order)."""
    return _forward_batch(model, _one_window(model, x)).Y[:, 0]


#: Per thread, the training cache arrays its last `_half_step` on each
#: half of a batch left, as its attributes {half: {shape: arrays}}. Half
#: 0 runs on the caller; half 1 on the worker, or on the caller when it
#: runs both. Scoring frees them.
_held = threading.local()


def _chunk_errors(model: AutoencoderModel, chunk: np.ndarray) -> np.ndarray:
    """Each column's mean squared error. The thread's training caches are
    freed first. The residual is formed and squared in the
    reconstruction's own array, which is freed on return, before the
    next chunk's forward allocates."""
    vars(_held).clear()
    R = _forward_batch(model, chunk).Y
    R -= chunk
    np.square(R, out=R)
    return np.mean(R, axis=0)


def _chunk_bounds(n: int) -> list[tuple[int, int]]:
    """Column ranges `reconstruction_errors` scores, one forward each.

    ceil(n / SCORE_BATCH) chunks of widths equal within one, their count
    rounded up to an even number once n reaches SCORE_BATCH, so that the
    caller and the worker get equal shares of SCORE_BATCH / 2 to
    SCORE_BATCH columns. Narrower chunks would spend more on requests
    and on the forward's per-step overhead: on a 2-vCPU x86-64 VM, one
    690-wide chunk at hs 16 took about 23 ms of CPU time, and two
    processes each scoring one at once took 26.5 and 28.5 ms of wall
    time, against 25.5 ms for one alone. Two threads of one process
    took 46.8 ms for both chunks, because the forward holds the GIL
    between its NumPy calls.
    The bounds depend on n alone, never on the CPU count.
    """
    k = -(-n // SCORE_BATCH)
    if n >= SCORE_BATCH:
        k += k % 2
    return [(j * n // k, (j + 1) * n // k) for j in range(k)]


# ---------------------------------------------------------------------------
# The worker process


def _serve(requests, replies) -> None:
    """The worker's loop, until the caller's end of `requests` closes;
    both are `multiprocessing.connection.Connection`s.

    A request is (the name of a function of this module, its arguments,
    the caller's `np.geterr()`); the reply is ("ok", result, warnings) or
    ("error", exception, warnings), with every warning the call raised
    as (message, category, filename, line) for the caller to issue again.
    """
    while True:
        try:
            name, args, err = requests.recv()
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with np.errstate(**err):
                    reply = ("ok", globals()[name](*args))
            except Exception as exc:
                try:  # the caller must be able to raise what it receives
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                reply = ("error", exc)
        replies.send((*reply, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]))


def _worker_main(requests, replies, callers: tuple[int, ...]) -> None:
    """The forked worker, from its first instruction to `os._exit`:
    `callers` are its copies of the caller's pipe ends, closed here so
    that EOF reaches it."""
    global _worker_lost
    code = 1
    try:
        from multiprocessing.connection import Connection

        _worker_lost = True  # the worker never forks one of its own
        gc.freeze()
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        for fd in (null, *callers):
            os.close(fd)
        _serve(Connection(requests, writable=False), Connection(replies, readable=False))
        code = 0
    finally:
        os._exit(code)


class _Worker:
    """One forked worker process and the caller's ends of its pipes.

    The worker ignores SIGINT, writes nothing (its standard output and
    error go to the null device) and leaves only through `os._exit`, so
    it never flushes stdio buffers it inherited, and never runs the
    caller's exit hooks or the finalizers of objects it inherited
    (`gc.freeze`). EOF on its request pipe ends it: the caller closes
    the pipe at exit, or the kernel does when the caller dies.
    """

    def __init__(self) -> None:
        # Imported here, so that commands which never fork skip its cost.
        from multiprocessing.connection import Connection

        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        requests, to_worker, from_worker, replies = fds
        if pid == 0:
            _worker_main(requests, replies, (to_worker, from_worker))
        os.close(requests)
        os.close(replies)
        self.pid: int | None = pid
        self.requests = Connection(to_worker, readable=False)
        self.replies = Connection(from_worker, writable=False)

    def submit(self, name: str, args: tuple) -> bool:
        """Send one request; False, and the worker dropped, if it is lost.
        A write cut off part-way also drops it, since the worker would
        read the next request as the rest of this one."""
        if self.pid is None:
            return False
        try:
            self.requests.send((name, args, np.geterr()))
        except OSError:
            _stop_worker(lost=True)
            return False
        except BaseException:
            _stop_worker(lost=True)
            raise
        return True

    def reply(self):
        """The worker's reply to the last request, or None, and the
        worker dropped, if it died or its pipe broke first. A read cut
        off part-way, say by KeyboardInterrupt, also drops it, since the
        next reply would be read from the middle of this one."""
        try:
            return self.replies.recv()
        except (EOFError, OSError):
            _stop_worker(lost=True)
            return None
        except BaseException:
            _stop_worker(lost=True)
            raise

    def close(self, reap: bool = True) -> None:
        """Close the caller's ends of the pipes and, with `reap`, kill
        and reap the worker. Idempotent: closed descriptors are never
        touched again, since their numbers may be reused."""
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        self.requests.close()
        self.replies.close()
        if reap:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


#: The worker, started by the first call that can use it; None before
#: then, and for good once it is lost (`_worker_lost`). `_worker_lock`
#: is held by the one call using it.
_worker: _Worker | None = None
_worker_lost = False
_worker_lock = threading.Lock()


def _may_fork() -> bool:
    """Whether a worker may start here: `os.fork` exists, the process may
    run on two CPUs or more, BLAS runs one thread (`ONE_BLAS_THREAD`),
    and no other thread runs, since a lock another thread held at the
    fork would stay held in the worker."""
    return (
        ONE_BLAS_THREAD
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


@contextlib.contextmanager
def _claimed_worker():
    """The worker for one call, started if need be; None where none may
    start, once it is lost, and while another thread holds it: that
    call then does all its work on its own thread.

    While it holds the worker, the calling thread keeps to one CPU, so
    that the worker, woken by each request, runs on another. Left free,
    the two often shared one CPU for good: a pipe's wake-up tells the
    kernel that the writer will wait, so it may place the woken process
    on the writer's CPU, and a training step then took about twice as
    long. The thread's own CPU set is restored when the call ends."""
    global _worker, _worker_lost
    if not _worker_lock.acquire(blocking=False):
        yield None
        return
    try:
        if _worker is None and not _worker_lost and _may_fork():
            try:
                _worker = _Worker()
            except OSError:  # no process or pipe to be had: work alone
                _worker_lost = True
        if _worker is None:
            yield None
            return
        cpus = os.sched_getaffinity(0)
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {min(cpus)})
        try:
            yield _worker
        finally:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cpus)
    finally:
        _worker_lock.release()


def _stop_worker(lost: bool = False) -> None:
    """Close the worker's pipes, kill and reap it; at exit, and for good
    once it is `lost`."""
    global _worker, _worker_lost
    worker, _worker = _worker, None
    _worker_lost = _worker_lost or lost
    if worker is not None:
        worker.close()


def _forget_worker() -> None:
    """In a process forked from the caller: close its copies of the
    worker's pipes, so that the worker still sees EOF when the caller
    exits, and leave the worker alone. The child may start its own."""
    global _worker, _worker_lost, _worker_lock
    if _worker is not None:
        _worker.close(reap=False)
    _worker, _worker_lost, _worker_lock = None, False, threading.Lock()


atexit.register(_stop_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _beside(worker: _Worker | None, name: str, mine: tuple, theirs: tuple):
    """Call this module's function `name` on `mine` on the calling thread
    while the worker calls it on `theirs`; return both results, mine
    first. Without a worker, or once it is lost, the caller makes the
    second call too. The name is looked up at call time, on both sides.
    The worker's warnings are issued again here and its exception raised
    here; an exception of the caller's own call wins over the worker's."""
    sent = worker is not None and worker.submit(name, theirs)
    try:
        result = globals()[name](*mine)
    except BaseException:
        if sent:
            worker.reply()  # the next request must not read this reply
        raise
    answer = worker.reply() if sent else None
    if answer is None:
        return result, globals()[name](*theirs)
    status, value, caught = answer
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno)
    if status == "error":
        raise value
    return result, value


def reconstruction_errors(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Mean squared reconstruction error of each column of a (T, n) matrix
    of z-scored windows: the one scoring path for detection, calibration
    and validation. A matrix whose T is not the model's window size, such
    as an (n, T) one, raises `LengthMismatch`.

    Frees the training caches first, on each side (`_chunk_errors`).
    Runs the cache-free forward over the chunks of `_chunk_bounds`. With
    two chunks or more the worker scores every other one, in the
    caller's `np.errstate`. Every chunk's result depends only on its
    bounds, so the output is the same bits with or without the worker.
    """
    if X.ndim != 2 or X.shape[0] != model.window_size:
        raise LengthMismatch(
            f"window matrix {X.shape} needs {model.window_size} rows, one window per column"
        )
    vars(_held).clear()  # before the output and the worker's request allocate
    out = np.empty(X.shape[1])
    bounds = _chunk_bounds(X.shape[1])
    if len(bounds) < 2:
        for a, b in bounds:
            out[a:b] = _chunk_errors(model, X[:, a:b])
        return out
    with _claimed_worker() as worker:
        for (a, b), (c, d) in zip(bounds[::2], bounds[1::2]):  # an even count, see above
            out[a:b], out[c:d] = _beside(
                worker, "_chunk_errors", (model, X[:, a:b]), (model, X[:, c:d])
            )
    return out


def reconstruction_loss(x: np.ndarray, x_bar: np.ndarray) -> float:
    """Mean squared error between a window and its reconstruction."""
    a, b = np.asarray(x, dtype=np.float64), np.asarray(x_bar, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths differ: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def _half_step(
    model: AutoencoderModel, X: np.ndarray, scale: float, half: int
) -> tuple[float, dict[str, np.ndarray]]:
    """One `half` (0 or 1) of a training step over (T, B) windows: the sum
    of its squared residuals and its gradients, with dY = `scale` ·
    residual.

    The forward keeps, per layer, only what the backward reads (see
    `LSTMCache`), 7·hs·B·T float64. It writes them into the arrays this
    thread's last step on the same half left, when they have this
    half's shapes, instead of allocating (and, with glibc's default
    malloc, page-faulting in) its own; arrays of other shapes are freed
    first. The thread keeps this step's arrays until scoring frees them.
    """
    T, B = X.shape
    hs = model.hidden_size
    n = model.n_layers
    key = (T, B, hs, n)
    held = vars(_held)
    reuse = held.pop(half, {}).get(key)
    cache = _forward_batch(model, X, keep_cache=True, reuse=reuse)
    # The residual, then dY, is formed in the reconstruction's array.
    dY = cache.Y
    dY -= X
    squares = float(np.sum(dY**2))
    dY *= scale

    # The top decoder layer emitted its readout, so its backward takes dY
    # and forms each step's w_out ⊗ dY[t] itself.
    dH = dY
    dlatent = np.zeros((B, hs))
    layer_grads = []  # top down, decoder first
    for k in reversed(range(n)):
        dX_dec, dh0, g = lstm_backward(model.decoder_layers[k], cache.decoder[k], dH)
        layer_grads.append((f"decoder.{k}", g))
        dlatent += dh0  # every decoder layer starts from the latent code
        dH = dX_dec
    dlatent += dH[0]  # the bottom decoder layer's one shared input is the code
    # The top decoder's recurrence has run, so nothing reads its forget
    # gates again. Their memory, the size of its states, takes the
    # (T·B, hs) copy of them that `np.tensordot(dY, cache.top, axes=2)`
    # would allocate, and the same product sums it.
    states = cache.decoder[-1].F.reshape(T, B, hs)
    np.copyto(states, cache.top)
    dW_out = np.dot(dY.reshape(1, T * B), states.reshape(T * B, hs))

    dH_enc: np.ndarray | None = None
    for k in reversed(range(n)):
        # The bottom layer's input is the data: no gradient is wanted there.
        dH_enc, _, g = lstm_backward(
            model.encoder_layers[k],
            cache.encoder[k],
            dH_enc,
            dh_final=dlatent if k == n - 1 else None,
            input_grad=k > 0,
        )
        layer_grads.append((f"encoder.{k}", g))

    grads = {"output.W": dW_out, "output.b": np.array([dY.sum()])}
    for layer, g in layer_grads:
        grads.update({f"{layer}.{name}": arr for name, arr in g.items()})
    held[half] = {key: [(c.dZ, c.F, c.dc_dh, c.H) for c in cache.encoder + cache.decoder]}
    return squares, grads


def loss_and_gradients(
    model: AutoencoderModel, X: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch loss and gradients for (T, B) windows; the training step.

    A batch of B >= 2 windows is split at B // 2, each half copied to
    its own C-ordered array: the worker runs the second half's forward
    and backward while the caller runs the first, or the caller runs
    both in turn. Each half scales its dY by the whole batch's 2/(T·B),
    so the halves' gradients add, first half first, to the batch's.
    Either way the result has the same bits. One window runs whole, as
    half 0.
    """
    T, B = X.shape
    scale = 2.0 / (T * B)
    if B < 2:
        squares, grads = _half_step(model, X, scale, 0)
        return squares / (T * B), grads
    h = B // 2
    X1, X2 = np.ascontiguousarray(X[:, :h]), np.ascontiguousarray(X[:, h:])
    with _claimed_worker() as worker:
        (squares, grads), (more, other) = _beside(
            worker, "_half_step", (model, X1, scale, 0), (model, X2, scale, 1)
        )
    for name, g in grads.items():
        g += other[name]
    return (squares + more) / (T * B), grads


def backward(model: AutoencoderModel, x: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of `reconstruction_loss(x, forward(model, x))` per parameter."""
    _, grads = loss_and_gradients(model, _one_window(model, x))
    return grads
