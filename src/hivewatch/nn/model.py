"""Stacked LSTM autoencoder: model container, forward pass, loss, gradients.

The encoder reads the window one reading per step; its final top-layer
hidden state is the latent code. Every decoder layer starts from that code
as its initial hidden state, the bottom decoder layer also receives it as
input at every step, and a linear projection maps each top decoder hidden
state back to one reading, in forward time order.

Scoring (`reconstruction_errors`) deals whole chunks of windows to
`_score_pool`, one worker thread per CPU beyond the caller's; the
training step (`loss_and_gradients`) runs on the calling thread. Neither
result depends on the number of CPUs.
Scoring keeps no backward cache, and the top encoder and decoder
layers keep no hidden-state sequence: with one layer each, a scoring
thread holds its chunk's (T, B) reconstruction and step buffers of
(4*hs, B) or less.
"""

from __future__ import annotations

import contextvars
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

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


def _chunk_errors(model: AutoencoderModel, chunk: np.ndarray) -> np.ndarray:
    """Each column's mean squared error. The residual is formed and
    squared in the reconstruction's own array, which is freed on return,
    before the next chunk's forward allocates."""
    R = _forward_batch(model, chunk).Y
    R -= chunk
    np.square(R, out=R)
    return np.mean(R, axis=0)


def _chunk_bounds(n: int) -> list[tuple[int, int]]:
    """Column ranges `reconstruction_errors` scores, one forward each.

    ceil(n / SCORE_BATCH) chunks of widths equal within one, their count
    rounded up to an even number once n reaches SCORE_BATCH, so that two
    threads get equal shares of SCORE_BATCH / 2 to SCORE_BATCH columns.
    Every forward step hands the GIL between the threads about a dozen
    times, so narrower chunks spend their gain on hand-offs: on a 2-vCPU
    x86-64 VM, 1 381 windows at hs 16 took 51-58 ms in four 345-wide
    chunks, 39-49 ms in two 690-wide ones and 54-70 ms on one thread.
    The bounds depend on n alone, never on the CPU count.
    """
    k = -(-n // SCORE_BATCH)
    if n >= SCORE_BATCH:
        k += k % 2
    return [(j * n // k, (j + 1) * n // k) for j in range(k)]


@functools.cache
def _score_pool() -> tuple[ThreadPoolExecutor | None, int]:
    """A pool of one worker per CPU this process may run on beyond the
    caller's (None on one CPU), and the number of CPUs. NumPy releases
    the GIL inside each matmul and ufunc, so chunks on separate threads
    run at the same time."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="hivewatch-score") if cpus > 1 else None
    return pool, cpus


if hasattr(os, "register_at_fork"):
    # A forked child inherits the pool but none of its threads.
    os.register_at_fork(after_in_child=_score_pool.cache_clear)


def reconstruction_errors(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Mean squared reconstruction error of each column of a (T, n) matrix
    of z-scored windows: the one scoring path for detection, calibration
    and validation. A matrix whose T is not the model's window size, such
    as an (n, T) one, raises `LengthMismatch`.

    Runs the cache-free forward over the chunks of `_chunk_bounds`, dealt
    round-robin to the calling thread and the workers of `_score_pool`.
    Workers run in a copy of the caller's context, so the caller's
    `np.errstate` holds there too. Every chunk's result depends only on
    its bounds, so the output is the same bits on any number of CPUs.
    """
    if X.ndim != 2 or X.shape[0] != model.window_size:
        raise LengthMismatch(
            f"window matrix {X.shape} needs {model.window_size} rows, one window per column"
        )
    out = np.empty(X.shape[1])
    bounds = _chunk_bounds(X.shape[1])
    pool, cpus = _score_pool()
    lanes = min(len(bounds), cpus) or 1

    def score(first: int) -> None:
        for a, b in bounds[first::lanes]:
            out[a:b] = _chunk_errors(model, X[:, a:b])

    futures = [pool.submit(contextvars.copy_context().run, score, w) for w in range(1, lanes)]
    try:
        score(0)
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return out


def reconstruction_loss(x: np.ndarray, x_bar: np.ndarray) -> float:
    """Mean squared error between a window and its reconstruction."""
    a, b = np.asarray(x, dtype=np.float64), np.asarray(x_bar, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatch(f"lengths differ: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


class StepBuffers:
    """The cache arrays a training step leaves for the next step on a
    batch of the same shape. `loss_and_gradients(model, X, buffers)`
    writes its caches into them, 7·hs·B·T float64 per layer, instead of
    allocating (and, with glibc's default malloc, page-faulting in) its
    own, and leaves them for the next call. `train` keeps one per
    epoch."""

    def __init__(self) -> None:
        self.key: tuple[int, ...] | None = None  # (T, B, hs, layers)
        self.layers: list[tuple[np.ndarray, ...]] = []


def loss_and_gradients(
    model: AutoencoderModel, X: np.ndarray, buffers: StepBuffers | None = None
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch loss and gradients for (T, B) windows; the training step.

    The forward keeps, per layer, only what the backward reads (see
    `LSTMCache`): 7·hs·B·T float64, written into `buffers` when it holds
    arrays of this step's shapes (see `StepBuffers`). The step runs on
    the calling thread.
    """
    T, B = X.shape
    hs = model.hidden_size
    n = model.n_layers
    key = (T, B, hs, n)
    reuse = None
    if buffers is not None:
        reuse = buffers.layers if buffers.key == key else None
        buffers.key, buffers.layers = None, []  # arrays of other shapes are freed here
    cache = _forward_batch(model, X, keep_cache=True, reuse=reuse)
    # The residual, then dY, is formed in the reconstruction's array.
    dY = cache.Y
    dY -= X
    loss = float(np.mean(dY**2))
    dY *= 2.0 / (T * B)

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
    if buffers is not None:
        buffers.key = key
        buffers.layers = [(c.dZ, c.F, c.dc_dh, c.H) for c in cache.encoder + cache.decoder]
    return loss, grads


def backward(model: AutoencoderModel, x: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of `reconstruction_loss(x, forward(model, x))` per parameter."""
    _, grads = loss_and_gradients(model, _one_window(model, x))
    return grads
