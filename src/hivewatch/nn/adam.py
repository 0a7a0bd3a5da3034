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
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns fresh params and state.

    `config` supplies learning_rate (a TrainConfig fits); the betas and
    epsilon are the module constants. Inputs are never mutated.
    """
    if set(params) != set(grads):
        raise ShapeMismatch(
            f"parameter/gradient keys differ: {sorted(set(params) ^ set(grads))}"
        )
    lr = config.learning_rate
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t

    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for key, p in params.items():
        g = np.asarray(grads[key], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeMismatch(f"{key}: gradient shape {g.shape} vs parameter {p.shape}")
        m = ADAM_BETA1 * state.m[key] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[key] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        new_params[key] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[key] = m
        new_v[key] = v
    return new_params, AdamState(step=t, m=new_m, v=new_v)
