"""Stacked LSTM autoencoder: model container, forward pass, loss, gradients.

The encoder reads the window one reading per step; its final top-layer
hidden state is the latent code. Every decoder layer starts from that code
as its initial hidden state, the bottom decoder layer also receives it as
input at every step, and a linear projection maps each top decoder hidden
state back to one reading, in forward time order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..data import NormalizationParams, Window
from ..errors import InvalidHyperparameter, LengthMismatch
from .lstm import LSTMCache, LSTMLayerParams, init_layer, lstm_backward, lstm_forward

#: Inclusive bounds the hyperparameter search ranges over.
HIDDEN_SIZE_RANGE = (2, 64)
NUM_LAYERS_RANGE = (1, 4)

#: Windows per forward chunk in `reconstruction_errors`. Each window is
#: its own column, so the width bounds memory and changes no error.
SCORE_BATCH = 512


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


def _as_values(x) -> np.ndarray:
    vals = x.values if isinstance(x, Window) else x
    return np.asarray(vals, dtype=np.float64)


@dataclass
class _ForwardCache:
    encoder: list[LSTMCache | None]
    decoder: list[LSTMCache | None]
    top: np.ndarray  # top decoder hidden states, (T, B, hs)
    Y: np.ndarray  # (T, B)


def _forward_batch(
    model: AutoencoderModel, X: np.ndarray, keep_cache: bool = False
) -> _ForwardCache:
    """Forward pass over a (T, B) batch of normalized windows.

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
    latent = h_final  # (B, hs)

    # The code tiled over T as a stride-0 view: the bottom decoder layer
    # projects it once instead of once per step.
    dec_seq = np.broadcast_to(latent, (T, B, hs))
    dec_caches = []
    for layer in model.decoder_layers:
        dec_seq, _, _, cache = lstm_forward(layer, dec_seq, h0=latent, keep_cache=keep_cache)
        dec_caches.append(cache)

    Y = dec_seq @ model.w_out[0] + model.b_out[0]
    return _ForwardCache(encoder=enc_caches, decoder=dec_caches, top=dec_seq, Y=Y)


def forward(model: AutoencoderModel, x) -> np.ndarray:
    """Reconstruction of one normalized window (same length, forward order)."""
    vals = _as_values(x)
    if vals.ndim != 1 or len(vals) != model.window_size:
        raise LengthMismatch(
            f"window length {vals.shape} does not match model window_size {model.window_size}"
        )
    return _forward_batch(model, vals[:, None]).Y[:, 0]


def reconstruction_errors(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Mean squared reconstruction error of each column of a (T, n) matrix
    of normalized windows: the one scoring path for detection, calibration
    and validation. Runs the cache-free forward `SCORE_BATCH` windows at a
    time."""
    out = np.empty(X.shape[1])
    for start in range(0, X.shape[1], SCORE_BATCH):
        chunk = X[:, start : start + SCORE_BATCH]
        Y = _forward_batch(model, chunk).Y
        out[start : start + chunk.shape[1]] = np.mean((Y - chunk) ** 2, axis=0)
    return out


def reconstruction_loss(x, x_bar) -> float:
    """Mean squared error between a window and its reconstruction."""
    a, b = _as_values(x), _as_values(x_bar)
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


def backward(model: AutoencoderModel, x) -> dict[str, np.ndarray]:
    """Gradient of `reconstruction_loss(x, forward(model, x))` per parameter."""
    vals = _as_values(x)
    if vals.ndim != 1 or len(vals) != model.window_size:
        raise LengthMismatch(
            f"window length {vals.shape} does not match model window_size {model.window_size}"
        )
    _, grads = loss_and_gradients(model, vals[:, None])
    return grads
