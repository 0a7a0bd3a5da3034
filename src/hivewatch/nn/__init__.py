"""From-scratch LSTM autoencoder: exact gradients, Adam, early stopping."""

from .adam import AdamState, adam_step, init_adam
from .checkpoint import load_model, save_model
from .lstm import LSTMLayerParams, init_layer, lstm_backward, lstm_forward
from .model import (
    AutoencoderModel,
    backward,
    forward,
    init_model,
    loss_and_gradients,
    model_parameters,
    reconstruction_loss,
)
from .training import EpochStats, TrainConfig, TrainResult, evaluate, train

__all__ = [
    "AdamState",
    "AutoencoderModel",
    "EpochStats",
    "LSTMLayerParams",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "backward",
    "evaluate",
    "forward",
    "init_adam",
    "init_layer",
    "init_model",
    "load_model",
    "loss_and_gradients",
    "lstm_backward",
    "lstm_forward",
    "model_parameters",
    "reconstruction_loss",
    "save_model",
    "train",
]
