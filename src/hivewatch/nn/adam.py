"""Adam optimizer over named parameter dictionaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch

#: Adam's moment decay rates and the denominator's stabilizer, as in
#: Kingma & Ba's paper.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        step=0,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config,
) -> None:
    """One bias-corrected Adam update, in place: writes the new values
    into the arrays of `params` (a model's own, from `model_parameters`)
    and the moments and step of `state`.

    `config` supplies learning_rate (a TrainConfig fits); the betas and
    epsilon are the module constants. Every gradient key and shape is
    checked before anything is written, so a mismatch changes nothing.
    """
    if set(params) != set(grads):
        raise ShapeMismatch(
            f"parameter/gradient keys differ: {sorted(set(params) ^ set(grads))}"
        )
    gs = {key: np.asarray(grads[key], dtype=np.float64) for key in params}
    for key, p in params.items():
        if gs[key].shape != p.shape:
            raise ShapeMismatch(f"{key}: gradient shape {gs[key].shape} vs parameter {p.shape}")
    lr = config.learning_rate
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step

    for key, p in params.items():
        g, m, v = gs[key], state.m[key], state.v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
