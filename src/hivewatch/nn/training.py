"""Minibatch training loop with early stopping on validation loss."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyDataset
from .adam import adam_step, init_adam
from .model import (
    AutoencoderModel,
    clone_model,
    loss_and_gradients,
    model_parameters,
    reconstruction_errors,
    set_model_parameters,
)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    epoch: int  # 1-based
    train_loss: float
    val_loss: float


@dataclass
class TrainResult:
    """Best-epoch model plus the full loss history."""

    model: AutoencoderModel
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")

    @property
    def epochs_run(self) -> int:
        return len(self.history)


def _mean_loss(model: AutoencoderModel, X: np.ndarray) -> float:
    """Mean of the per-window reconstruction errors of a (T, n) matrix."""
    return float(np.mean(reconstruction_errors(model, X)))


def evaluate(model: AutoencoderModel, X: np.ndarray) -> float:
    """Mean reconstruction error over the columns of a (T, n) window matrix
    (no gradients): the validation loss `train` stops early on, and
    exactly the mean of `detector.window_errors` over the same matrix."""
    return _mean_loss(model, X)


def train(
    model: AutoencoderModel,
    Xtr: np.ndarray,
    Xval: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Adam on shuffled minibatches until validation loss stops improving.

    `Xtr` and `Xval` are (T, n) window matrices, one window per column
    (`WindowSet.matrix`). The input model is left untouched; the returned
    model carries the weights of the best validation epoch. Identical
    (model, data, config) reproduce identical weights bit for bit.
    """
    if Xtr.shape[1] == 0:
        raise EmptyDataset("no training windows")
    if Xval.shape[1] == 0:
        raise EmptyDataset("no validation windows")
    if Xtr.shape[0] != model.window_size or Xval.shape[0] != model.window_size:
        raise EmptyDataset(
            f"window length {Xtr.shape[0]} does not match model window_size {model.window_size}"
        )

    work = clone_model(model)
    params = model_parameters(work)
    state = init_adam(params)
    rng = np.random.default_rng(config.seed)
    n = Xtr.shape[1]

    best_params = {k: p.copy() for k, p in params.items()}
    best_val = float("inf")
    best_epoch = 0
    since_improvement = 0
    history: list[EpochStats] = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        running = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = loss_and_gradients(work, Xtr[:, idx])
            params, state = adam_step(params, grads, state, config)
            set_model_parameters(work, params)
            running += loss * len(idx)
        train_loss = running / n

        val_loss = _mean_loss(work, Xval)
        history.append(EpochStats(epoch=epoch, train_loss=train_loss, val_loss=val_loss))

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = {k: p.copy() for k, p in params.items()}
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= config.patience:
                break

    set_model_parameters(work, best_params)
    return TrainResult(model=work, history=history, best_epoch=best_epoch, best_val_loss=best_val)
