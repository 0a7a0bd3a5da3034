"""Stacked LSTM autoencoder: model container, forward pass, loss, gradients.

The encoder reads the window one reading per step; its final top-layer
hidden state is the latent code. Every decoder layer starts from that code
as its initial hidden state, the bottom decoder layer also receives it as
input at every step, and a linear projection maps each top decoder hidden
state back to one reading, in forward time order.
"""

from __future__ import annotations

import contextvars
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from ..data import NormalizationParams
from ..errors import InvalidHyperparameter, LengthMismatch
from .lstm import LSTMCache, LSTMLayerParams, init_layer, lstm_backward, lstm_forward

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
    """All parameters of one autoencoder, plus the normalization it expects."""

    window_size: int
    hidden_size: int
    n_layers: int
    encoder_layers: list[LSTMLayerParams]
    decoder_layers: list[LSTMLayerParams]
    w_out: np.ndarray  # (1, hs)
    b_out: np.ndarray  # (1,)
    norm: NormalizationParams | None = None
    seed: int = 0
    metadata: dict = field(default_factory=dict)

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


def init_model(
    hs: int,
    n: int,
    window_size: int,
    seed: int,
    norm: NormalizationParams | None = None,
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


def set_model_parameters(model: AutoencoderModel, params: dict[str, np.ndarray]) -> None:
    """Install new parameter arrays (keys as in `model_parameters`)."""
    for prefix, layers in (("encoder", model.encoder_layers), ("decoder", model.decoder_layers)):
        for k, layer in enumerate(layers):
            layer.W = np.asarray(params[f"{prefix}.{k}.W"], dtype=np.float64)
            layer.U = np.asarray(params[f"{prefix}.{k}.U"], dtype=np.float64)
            layer.b = np.asarray(params[f"{prefix}.{k}.b"], dtype=np.float64)
    model.w_out = np.asarray(params["output.W"], dtype=np.float64)
    model.b_out = np.asarray(params["output.b"], dtype=np.float64)


def clone_model(model: AutoencoderModel) -> AutoencoderModel:
    """Independent copy; mutating one never touches the other."""
    return replace(
        model,
        encoder_layers=[
            LSTMLayerParams(l.input_size, l.hidden_size, l.W.copy(), l.U.copy(), l.b.copy())
            for l in model.encoder_layers
        ],
        decoder_layers=[
            LSTMLayerParams(l.input_size, l.hidden_size, l.W.copy(), l.U.copy(), l.b.copy())
            for l in model.decoder_layers
        ],
        w_out=model.w_out.copy(),
        b_out=model.b_out.copy(),
        metadata=dict(model.metadata),
    )


@dataclass
class _ForwardCache:
    encoder: list[LSTMCache | None]
    decoder: list[LSTMCache | None]
    top: np.ndarray  # top decoder hidden states, (T, B, hs)
    Y: np.ndarray  # (T, B)


def _forward_batch(
    model: AutoencoderModel, X: np.ndarray, keep_cache: bool = False
) -> _ForwardCache:
    """Forward pass over a (T, B) batch of z-scored windows.

    The per-layer backward caches are built only with `keep_cache`;
    scoring and validation never need them.
    """
    T, B = X.shape
    hs = model.hidden_size

    seq = X[:, :, None]
    enc_caches = []
    h_final = None
    for layer in model.encoder_layers:
        seq, h_final, _, cache = lstm_forward(layer, seq, keep_cache=keep_cache)
        enc_caches.append(cache)
    # A copy, so that the encoder's (T, hs, B) output is freed before the
    # decoder allocates its own. It keeps the view's memory layout: the
    # backward's matmuls against the code round by layout.
    latent = h_final.copy(order="K")  # (B, hs)
    del seq, h_final

    # The code tiled over T as a stride-0 view: the bottom decoder layer
    # projects it once instead of once per step.
    dec_seq = np.broadcast_to(latent, (T, B, hs))
    dec_caches = []
    for layer in model.decoder_layers:
        dec_seq, _, _, cache = lstm_forward(layer, dec_seq, h0=latent, keep_cache=keep_cache)
        dec_caches.append(cache)

    Y = dec_seq @ model.w_out[0] + model.b_out[0]
    return _ForwardCache(encoder=enc_caches, decoder=dec_caches, top=dec_seq, Y=Y)


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
    """Each column's mean squared error; the reconstruction is freed on
    return, before the next chunk's forward allocates."""
    return np.mean((_forward_batch(model, chunk).Y - chunk) ** 2, axis=0)


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


def _backward_batch(
    model: AutoencoderModel, X: np.ndarray, cache: _ForwardCache
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss (mean over all T*B elements) and exact parameter gradients."""
    T, B = X.shape
    hs = model.hidden_size
    n = model.n_layers

    R = cache.Y - X
    loss = float(np.mean(R**2))
    dY = (2.0 / (T * B)) * R

    grads: dict[str, np.ndarray] = {}
    grads["output.W"] = np.tensordot(dY, cache.top, axes=2)[None, :]
    grads["output.b"] = np.array([dY.sum()])

    dH = dY[:, :, None] * model.w_out[0]
    dlatent = np.zeros((B, hs))
    for k in reversed(range(n)):
        dX_dec, dh0, _, g = lstm_backward(model.decoder_layers[k], cache.decoder[k], dH)
        dlatent += dh0  # every decoder layer starts from the latent code
        dH = dX_dec
        for name, arr in g.items():
            grads[f"decoder.{k}.{name}"] = arr
    dlatent += dH[0]  # the bottom decoder layer's one shared input is the code

    dH_enc: np.ndarray | None = None
    for k in reversed(range(n)):
        top = k == n - 1
        dX_enc, _, _, g = lstm_backward(
            model.encoder_layers[k],
            cache.encoder[k],
            dH_enc,
            dh_final=dlatent if top else None,
        )
        dH_enc = dX_enc
        for name, arr in g.items():
            grads[f"encoder.{k}.{name}"] = arr
    return loss, grads


def loss_and_gradients(model: AutoencoderModel, X: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Batch loss and gradients for (T, B) windows; the training step."""
    cache = _forward_batch(model, X, keep_cache=True)
    return _backward_batch(model, X, cache)


def backward(model: AutoencoderModel, x: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of `reconstruction_loss(x, forward(model, x))` per parameter."""
    _, grads = loss_and_gradients(model, _one_window(model, x))
    return grads
