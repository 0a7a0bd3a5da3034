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

The backward comes in three parts, so that a caller can run them on
different threads: `lstm_prepare` turns the forward cache, in place,
into the factors the recurrence reads (before: gate activations, cell
states and their tanh; after: the gate-gradient factors, the forget
gates and dc/dh, as `LSTMCache` lists); `lstm_backward` runs the
recurrence; `lstm_weight_grads` sums the weight gradients. Called on a
fresh cache, `lstm_backward` does all three. A cache feeds one backward.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
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


@functools.cache
def _gate_rows(hs: int) -> np.ndarray:
    """Row order taking [i, f, g, o] to [i, f, o, g]. It swaps the last
    two blocks, so it is its own inverse. Read-only: every layer of
    width `hs` shares it."""
    rows = np.arange(4 * hs)
    rows = np.concatenate([rows[: 2 * hs], rows[3 * hs :], rows[2 * hs : 3 * hs]])
    rows.setflags(write=False)
    return rows


def _time_invariant(X: np.ndarray) -> bool:
    """True when every step reads the same memory (a stride-0 time axis)."""
    return X.strides[0] == 0


@dataclass
class LSTMCache:
    """What one forward pass leaves for its one backward pass.

    All but `X` are feature-major: (T, rows, B) sequences, (hs, B) states.
    `lstm_prepare` rewrites `Z`, `C` and `TC` in place into the factors
    the backward's recurrence reads, so a cache feeds exactly one
    backward. `stage` tells which form the arrays hold:

    - "forward": as the forward wrote them (the field comments below);
    - "prepared": `Z` holds the gate-gradient factors dZ (rows [i, f, o,
      g]: i'·g, f'·c_{t-1}, o'·tanh(c) and g'·i, where ' is the
      derivative of the gate's activation), `C` the forget gates, and
      `TC` dc/dh = o·(1 − tanh²c);
    - "spent": the backward has run; `Z` holds the full gate gradients
      the weight sums read, and `dZ_sum` their sum over steps when X is
      time-invariant.

    `X`, `H` and `h0` never change.
    """

    X: np.ndarray  # inputs as given, (T, B, D)
    Z: np.ndarray  # gate activations, rows [i, f, o, g], (T, 4*hs, B)
    C: np.ndarray  # cell states, (T, hs, B)
    TC: np.ndarray  # tanh of cell states, (T, hs, B)
    H: np.ndarray  # hidden states, (T, hs, B)
    h0: np.ndarray  # initial hidden state, (hs, B)
    stage: str = "forward"
    dZ_sum: np.ndarray | None = None


def _gate_views(z: np.ndarray, hs: int) -> tuple[np.ndarray, ...]:
    """Views of a (4*hs, B) gate block, rows [i, f, o, g]: the three
    sigmoid gates together, then i, f, o and g."""
    return z[: 3 * hs], z[:hs], z[hs : 2 * hs], z[2 * hs : 3 * hs], z[3 * hs :]


def lstm_forward(
    params: LSTMLayerParams,
    X: np.ndarray,
    h0: np.ndarray | None = None,
    keep_cache: bool = True,
    emit: str | np.ndarray = "states",
) -> tuple[np.ndarray | None, np.ndarray, LSTMCache | None]:
    """Run the layer over a (T, B, input_size) batch of sequences, from
    the initial hidden state `h0` (B, hs; zero when None) and a zero cell
    state.

    Returns what `emit` asks for at each step, the final hidden state
    (B, hs), and the cache `lstm_backward` consumes; the cache is None,
    and never built, when `keep_cache` is false. `emit` is one of

    - "states": the hidden-state sequence, (T, B, hs);
    - "final": nothing (None), so without the cache no sequence is kept;
    - a (hs,) vector w: the readout Y (T, B), Y[t] = h_t · w, each step
      one matrix-vector product of the same (B, hs) layout as
      `states @ w` uses, so it gives the same bits.

    Both `keep_cache` settings run the same loop and give bit-identical
    outputs.

    Each step computes all four gate pre-activations with one matmul of
    [U | W | b] against a (hs + input_size + 1, B) buffer holding h_{t-1},
    x_t and a row of ones, and writes h_t back into it. No T-long input
    projection is built. An X whose time axis has stride 0 (such as
    `np.broadcast_to` of one (B, input_size) array) is copied into the
    buffer once, not at every step.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != params.input_size:
        raise ShapeMismatch(
            f"input shape {X.shape} incompatible with input_size {params.input_size}"
        )
    T, B, D = X.shape
    hs = params.hidden_size
    if isinstance(emit, str):
        if emit not in ("states", "final"):
            raise ValueError(f"emit must be 'states', 'final' or a readout vector, not {emit!r}")
        w, states = None, emit == "states"
    else:
        w, states = np.asarray(emit, dtype=np.float64), False
        if w.shape != (hs,):
            raise ShapeMismatch(f"readout shape {w.shape}, expected ({hs},)")
    rows = _gate_rows(hs)
    # Stacked weights [U | W | b], gate rows [i, f, o, g]. The sigmoid rows
    # are negated (exact in IEEE arithmetic), so z holds -pre-activation
    # there and each sigmoid is 1 / (1 + exp(z)).
    A = np.concatenate([params.U[rows], params.W[rows], params.b[rows, None]], axis=1)
    np.negative(A[: 3 * hs], out=A[: 3 * hs])
    # [h_{t-1}; x_t; 1]: the loop rewrites the h rows at every step, and
    # the x rows at every step unless every step reads the same input.
    hx = np.empty((hs + D + 1, B))
    h, x = hx[:hs], hx[hs : hs + D]
    hx[hs + D] = 1.0
    h[...] = 0.0 if h0 is None else np.transpose(h0)
    fixed_x = T > 0 and _time_invariant(X)
    if fixed_x:
        x[...] = X[0].T
    c = np.zeros((hs, B))
    h_init = h.copy() if keep_cache else None
    H = np.empty((T, hs, B)) if keep_cache or states else None
    Y = np.empty((T, B)) if w is not None else None
    ig = np.empty((hs, B))
    if keep_cache:
        Z, C, TC = np.empty((T, 4 * hs, B)), np.empty((T, hs, B)), np.empty((T, hs, B))
    else:
        # One gate block serves every step; c updates in place and
        # tanh(c) lands in h, which o then scales into h_t.
        z = np.empty((4 * hs, B))
        gates, c_next, tc = _gate_views(z, hs), c, h

    # exp(z) overflows to inf for z > 709; 1/(1+inf) is then exactly 0.
    with np.errstate(over="ignore"):
        for t in range(T):
            if keep_cache:
                z, c_next, tc = Z[t], C[t], TC[t]
                gates = _gate_views(z, hs)
            s, i, f, o, g = gates
            if not fixed_x:
                x[...] = X[t].T
            np.matmul(A, hx, out=z)
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            np.tanh(g, out=g)
            np.multiply(i, g, out=ig)
            np.multiply(f, c, out=c_next)
            c_next += ig
            np.tanh(c_next, out=tc)
            np.multiply(o, tc, out=h)
            if H is not None:
                H[t] = h
            if Y is not None:
                np.matmul(h.T, w, out=Y[t])
            c = c_next

    cache = LSTMCache(X=X, Z=Z, C=C, TC=TC, H=H, h0=h_init) if keep_cache else None
    if states:
        return H.transpose(0, 2, 1), h.T, cache
    return Y, h.T, cache


#: Most gate activations (steps x 4*hs x B) one block of `lstm_prepare`
#: rewrites at a time, so that a block and its scratch stay in a core's
#: L2 cache across the block's dozen elementwise passes. On a 2-vCPU
#: x86-64 VM (2 MB L2 per core), one layer's prepare at (T 60, B 256)
#: took 3.1 ms at hs 16 and 5.4 ms at hs 32 in these blocks, against
#: 4.7 and 10.1 ms as one block.
PREPARE_BLOCK = 1 << 16


def _prepare_steps(cache: LSTMCache, lo: int, hi: int, c_before: np.ndarray | None) -> None:
    """Rewrite steps [lo, hi) of a forward cache into backward factors,
    block by block from the top down; `c_before` is the cell state
    before step `lo` (None at step 0, where it is zero).

    Each factor is computed by the same IEEE operations, in the same
    order, as the whole-sequence expressions they replace:
    (1 − s)·s then times the partner value for the sigmoid rows,
    ((1 − g)·(1 + g))·i for the candidate rows and o·((1 − tc)·(1 + tc))
    for dc/dh. A product's two operands may trade places (IEEE
    multiplication commutes), but no product is regrouped. Going top
    down, a block overwrites its cell states with its forget gates only
    after the block above has read the one it needed.
    """
    Z, C, TC = cache.Z, cache.C, cache.TC
    hs, B = C.shape[1], C.shape[2]
    step = max(1, PREPARE_BLOCK // (4 * hs * B))
    width = min(step, hi - lo)
    sig = np.empty((width, 3 * hs, B))  # the sigmoid rows' factors
    tmp = np.empty((width, hs, B))
    for b in range(hi, lo, -step):
        a = max(lo, b - step)
        z, c, tc, s, u = Z[a:b], C[a:b], TC[a:b], sig[: b - a], tmp[: b - a]
        i, f, o, g = z[:, :hs], z[:, hs : 2 * hs], z[:, 2 * hs : 3 * hs], z[:, 3 * hs :]
        np.subtract(1.0, z[:, : 3 * hs], out=s)
        s *= z[:, : 3 * hs]  # sigmoid' = s (1 - s)
        s[:, :hs] *= g
        s_f = s[:, hs : 2 * hs]
        s_f[1:] *= C[a : b - 1]
        if a > lo:
            s_f[0] *= C[a - 1]
        elif c_before is not None:
            s_f[0] *= c_before
        else:
            s_f[0] = 0.0  # the initial cell state is zero
        s[:, 2 * hs :] *= tc
        np.subtract(1.0, g, out=u)
        g += 1.0
        g *= u  # tanh' = (1 - g)(1 + g)
        g *= i
        np.subtract(1.0, tc, out=u)
        tc += 1.0
        tc *= u
        tc *= o  # dc/dh through h = o * tanh(c)
        c[...] = f  # the loop's dc *= f_t; every read of these cell states is done
        z[:, : 3 * hs] = s


def lstm_prepare(cache: LSTMCache, parts: int = 1) -> list[Callable[[], None]]:
    """The work that turns a forward cache into backward factors in place
    (see `LSTMCache`), as up to `parts` zero-argument tasks over
    consecutive ranges of steps, and the cache marked "prepared".

    The tasks write disjoint memory and read nothing another one writes
    (each copies the cell state before its range now), so they may run
    in any order, on any threads, at the same time. `lstm_backward` may
    run once every task has returned. A cache is prepared at most once:
    a second call raises `ValueError`.
    """
    if cache.stage != "forward":
        raise ValueError(f"forward cache is already {cache.stage}: each forward feeds one backward")
    cache.stage = "prepared"
    T = len(cache.Z)
    bounds = sorted({j * T // parts for j in range(parts + 1)})
    return [
        functools.partial(_prepare_steps, cache, lo, hi, cache.C[lo - 1].copy() if lo else None)
        for lo, hi in zip(bounds, bounds[1:])
    ]


def lstm_backward(
    params: LSTMLayerParams,
    cache: LSTMCache,
    dH: np.ndarray | None,
    dh_final: np.ndarray | None = None,
    input_grad: bool = True,
    weight_grads: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, dict[str, np.ndarray] | None]:
    """Backpropagation through time over one layer.

    `dH` is the loss gradient with respect to every emitted hidden state,
    (T, B, hs) or None for no per-step gradient; `dh_final` adds gradient
    arriving at the final hidden state from outside the sequence.
    Returns (dX, dh0, grads) with grads keyed "W", "U", "b" in the
    [i, f, g, o] gate order. dX has the shape of X, except when X was
    time-invariant (see `lstm_forward`): then it is the gradient of the
    one shared input, shape (1, B, input_size). dX is None without
    `input_grad`, and grads None without `weight_grads`; then
    `lstm_weight_grads(cache)` gives them, on any thread.

    A fresh cache is prepared here; one prepared by the tasks of
    `lstm_prepare` is used as it is. A cache that has fed a backward
    already raises `ValueError`: its arrays no longer hold the forward.
    """
    if cache.stage == "spent":
        raise ValueError("forward cache is already spent: each forward feeds one backward")
    if cache.stage == "forward":
        for task in lstm_prepare(cache):
            task()
    cache.stage = "spent"
    dZ, F, dc_dh = cache.Z, cache.C, cache.TC
    T, _, B = dZ.shape
    hs = params.hidden_size
    rows = _gate_rows(hs)
    U = params.U[rows]
    dH_steps = None if dH is None else np.asarray(dH, dtype=np.float64).transpose(0, 2, 1)

    # dZ starts as the part of each gate's gradient that is known before
    # the loop; the loop scales rows i, f, g by the cell gradient dc and
    # rows o by the hidden gradient dh.
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

    X = cache.X
    if _time_invariant(X):
        # One input shared by every step: its gradient and dW both see the
        # step-summed dZ, never a T-fold copy of it.
        cache.dZ_sum = dZ.sum(axis=0)
    dX = None
    if input_grad:
        W = params.W[rows]
        if cache.dZ_sum is not None:
            dX = (W.T @ cache.dZ_sum).T[None]
        else:
            dX = np.matmul(W.T, dZ).transpose(0, 2, 1)
    grads = lstm_weight_grads(cache) if weight_grads else None
    return dX, dh.T, grads


def lstm_weight_grads(cache: LSTMCache) -> dict[str, np.ndarray]:
    """The weight gradients of a spent cache: sums over all (t, b) pairs,
    keyed "W", "U", "b" in the [i, f, g, o] gate order. Reads the cache
    and writes nothing to it, so it may run on another thread while the
    next layer's backward runs."""
    if cache.stage != "spent":
        raise ValueError(f"weight gradients need a spent cache, not a {cache.stage} one")
    dZ, H, X = cache.Z, cache.H, cache.X
    rows = _gate_rows(H.shape[1])
    dU = dZ[0] @ cache.h0.T
    if len(dZ) > 1:
        dU += np.matmul(dZ[1:], H[:-1].transpose(0, 2, 1)).sum(axis=0)
    if cache.dZ_sum is not None:
        dW = cache.dZ_sum @ X[0]
    else:
        dW = np.matmul(dZ, X).sum(axis=0)
    return {"W": dW[rows], "U": dU[rows], "b": dZ.sum(axis=(0, 2))[rows]}
