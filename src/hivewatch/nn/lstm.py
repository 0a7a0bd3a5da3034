"""One LSTM layer: parameters, batched forward pass, and exact backward pass.

Everything is float64. The four gates are packed along the leading axis of
`W`, `U`, and `b` in the fixed order [input, forget, cell-candidate,
output], so all three have leading dimension 4*hidden_size.

The recurrence itself runs feature-major: states are (hs, B) blocks and
the gate pre-activations one (4*hs, B) block whose rows are permuted to
[input, forget, output, cell-candidate], so a single in-place sigmoid
covers the three sigmoid gates. Each forward step is one matmul: the
stacked weights [U | W | b], with the sigmoid rows negated, against a
small state buffer [h_{t-1}; x_t; 1]. Callers see time-major
(T, B, features) arrays; the transposes between the two layouts are
views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch


@dataclass
class LSTMLayerParams:
    """Weights of a single LSTM layer."""

    input_size: int
    hidden_size: int
    W: np.ndarray  # input weights, (4*hs, input_size)
    U: np.ndarray  # recurrent weights, (4*hs, hs)
    b: np.ndarray  # bias, (4*hs,)

    def __post_init__(self) -> None:
        hs, d = self.hidden_size, self.input_size
        self.W = np.asarray(self.W, dtype=np.float64)
        self.U = np.asarray(self.U, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        for name, shape in (("W", (4 * hs, d)), ("U", (4 * hs, hs)), ("b", (4 * hs,))):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ShapeMismatch(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")


def init_layer(input_size: int, hidden_size: int, rng: np.random.Generator) -> LSTMLayerParams:
    """Fresh layer: weights uniform on [-1/sqrt(hs), +1/sqrt(hs)], biases
    zero except the forget gate's, which starts at 1.0 so memory is open.

    Draw order is fixed (W then U) so a seeded generator reproduces the
    layer bit for bit.
    """
    k = 1.0 / np.sqrt(hidden_size)
    W = rng.uniform(-k, k, size=(4 * hidden_size, input_size))
    U = rng.uniform(-k, k, size=(4 * hidden_size, hidden_size))
    b = np.zeros(4 * hidden_size)
    b[hidden_size : 2 * hidden_size] = 1.0
    return LSTMLayerParams(input_size, hidden_size, W, U, b)


def _gate_rows(hs: int) -> np.ndarray:
    """Row order taking [i, f, g, o] to [i, f, o, g]. It swaps the last
    two blocks, so it is its own inverse."""
    rows = np.arange(4 * hs)
    return np.concatenate([rows[: 2 * hs], rows[3 * hs :], rows[2 * hs : 3 * hs]])


def _time_invariant(X: np.ndarray) -> bool:
    """True when every step reads the same memory (a stride-0 time axis)."""
    return X.strides[0] == 0


@dataclass
class LSTMCache:
    """Forward-pass intermediates needed by the backward pass.

    All but `X` are feature-major: (T, rows, B) sequences, (hs, B) states.
    """

    X: np.ndarray  # inputs as given, (T, B, D)
    Z: np.ndarray  # gate activations, rows [i, f, o, g], (T, 4*hs, B)
    C: np.ndarray  # cell states, (T, hs, B)
    TC: np.ndarray  # tanh of cell states, (T, hs, B)
    H: np.ndarray  # hidden states, (T, hs, B)
    h0: np.ndarray  # initial hidden state, (hs, B)


def lstm_forward(
    params: LSTMLayerParams,
    X: np.ndarray,
    h0: np.ndarray | None = None,
    keep_cache: bool = True,
) -> tuple[np.ndarray, np.ndarray, LSTMCache | None]:
    """Run the layer over a (T, B, input_size) batch of sequences, from
    the initial hidden state `h0` (B, hs; zero when None) and a zero cell
    state.

    Returns the hidden-state sequence (T, B, hs), the final hidden state
    (B, hs), and the cache `lstm_backward` consumes; the cache is None,
    and never built, when `keep_cache` is false. Both settings run the
    same loop and give bit-identical outputs.

    Each step copies x_t into a (hs + input_size + 1, B) buffer that
    already holds h_{t-1} and a row of ones, and computes all four gate
    pre-activations with one matmul against [U | W | b]. No T-long input
    projection is built, so an X whose time axis has stride 0 (such as
    `np.broadcast_to` of one (B, input_size) array) needs no special case.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != params.input_size:
        raise ShapeMismatch(
            f"input shape {X.shape} incompatible with input_size {params.input_size}"
        )
    T, B, D = X.shape
    hs = params.hidden_size
    rows = _gate_rows(hs)
    # Stacked weights [U | W | b], gate rows [i, f, o, g]. The sigmoid rows
    # are negated (exact in IEEE arithmetic), so z holds -pre-activation
    # there and each sigmoid is 1 / (1 + exp(z)).
    A = np.concatenate([params.U[rows], params.W[rows], params.b[rows, None]], axis=1)
    np.negative(A[: 3 * hs], out=A[: 3 * hs])
    # [h_{t-1}; x_t; 1]: the loop rewrites the h and x rows at every step.
    hx = np.empty((hs + D + 1, B))
    h, x = hx[:hs], hx[hs : hs + D]
    hx[hs + D] = 1.0
    h[...] = 0.0 if h0 is None else np.transpose(h0)
    c = np.zeros((hs, B))
    h_init = h.copy()
    H = np.empty((T, hs, B))
    ig = np.empty((hs, B))
    if keep_cache:
        Z, C, TC = np.empty((T, 4 * hs, B)), np.empty((T, hs, B)), np.empty((T, hs, B))
    else:
        z = np.empty((4 * hs, B))  # one buffer reused at every step

    # exp(z) overflows to inf for z > 709; 1/(1+inf) is then exactly 0.
    with np.errstate(over="ignore"):
        for t in range(T):
            if keep_cache:
                z, c_next, tc = Z[t], C[t], TC[t]
            else:
                c_next, tc = c, H[t]  # c updates in place; tanh(c) lands in H[t]
            x[...] = X[t].T
            np.matmul(A, hx, out=z)
            s = z[: 3 * hs]
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            i, f, o, g = z[:hs], z[hs : 2 * hs], z[2 * hs : 3 * hs], z[3 * hs :]
            np.tanh(g, out=g)
            np.multiply(i, g, out=ig)
            np.multiply(f, c, out=c_next)
            c_next += ig
            np.tanh(c_next, out=tc)
            np.multiply(o, tc, out=H[t])
            h[...] = H[t]
            c = c_next

    cache = LSTMCache(X=X, Z=Z, C=C, TC=TC, H=H, h0=h_init) if keep_cache else None
    h_final = H[-1] if T else h_init
    return H.transpose(0, 2, 1), h_final.T, cache


def lstm_backward(
    params: LSTMLayerParams,
    cache: LSTMCache,
    dH: np.ndarray | None,
    dh_final: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Backpropagation through time over one layer.

    `dH` is the loss gradient with respect to every emitted hidden state,
    (T, B, hs) or None for no per-step gradient; `dh_final` adds gradient
    arriving at the final hidden state from outside the sequence.
    Returns (dX, dh0, grads) with grads keyed "W", "U", "b" in the
    [i, f, g, o] gate order. dX has the shape of X, except when X was
    time-invariant (see `lstm_forward`): then it is the gradient of the
    one shared input, shape (1, B, input_size).
    """
    X, Z, C, TC, H = cache.X, cache.Z, cache.C, cache.TC, cache.H
    T, B, _ = X.shape
    hs = params.hidden_size
    rows = _gate_rows(hs)
    U = params.U[rows]
    W = params.W[rows]

    I, F, O, G = Z[:, :hs], Z[:, hs : 2 * hs], Z[:, 2 * hs : 3 * hs], Z[:, 3 * hs :]
    # dZ starts as the part of each gate's gradient that is known before
    # the loop, for all steps at once; the loop then scales rows i, f, g
    # by the cell gradient dc and rows o by the hidden gradient dh.
    dZ = 1.0 - Z
    dZ[:, : 3 * hs] *= Z[:, : 3 * hs]  # sigmoid' = s (1 - s)
    dZ[:, 3 * hs :] *= 1.0 + G  # tanh' = (1 - g)(1 + g)
    dZ[:, :hs] *= G
    dZ[1:, hs : 2 * hs] *= C[:-1]
    dZ[0, hs : 2 * hs] = 0.0  # the initial cell state is zero
    dZ[:, 2 * hs : 3 * hs] *= TC
    dZ[:, 3 * hs :] *= I
    dc_dh = O * ((1.0 - TC) * (1.0 + TC))  # through h = o * tanh(c)
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
        dz_if = dz[: 2 * hs].reshape(2, hs, B)  # a view: rows i and f
        dz_if *= dc
        dz[2 * hs : 3 * hs] *= dh
        dz[3 * hs :] *= dc
        dh = U.T @ dz
        dc *= F[t]

    # Weight gradients sum over all (t, b) pairs.
    dU = dZ[0] @ cache.h0.T
    if T > 1:
        dU += np.matmul(dZ[1:], H[:-1].transpose(0, 2, 1)).sum(axis=0)
    if _time_invariant(X):
        # One input shared by every step: its gradient and dW both see the
        # step-summed dZ, never a T-fold copy of it.
        dZ_sum = dZ.sum(axis=0)
        dW = dZ_sum @ X[0]
        dX = (W.T @ dZ_sum).T[None]
    else:
        dW = np.matmul(dZ, X).sum(axis=0)
        dX = np.matmul(W.T, dZ).transpose(0, 2, 1)
    grads = {"W": dW[rows], "U": dU[rows], "b": dZ.sum(axis=(0, 2))[rows]}
    return dX, dh.T, grads
