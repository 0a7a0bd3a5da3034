"""One LSTM layer: parameters, batched forward pass, and exact backward pass.

Everything is float64. The four gates are packed along the leading axis of
`W`, `U`, and `b` in the fixed order [input, forget, cell-candidate,
output], so all three have leading dimension 4*hidden_size.

The recurrence itself runs feature-major: states are (hs, B) blocks and
the gate pre-activations one (4*hs, B) block whose rows are permuted to
[input, forget, output, cell-candidate], so a single sigmoid covers the
three sigmoid gates. Each forward step is one matmul: the
stacked weights [U | W | b], with the sigmoid rows negated, against a
small state buffer [h_{t-1}; x_t; 1]. Callers see time-major
(T, B, features) arrays; the transposes between the two layouts are
views.

The cached forward writes the factors the backward's recurrence reads
(the gate-gradient factors, the forget gates and dc/dh, as `LSTMCache`
lists), not the raw activations, one block of steps at a time while the
block is still in cache. `lstm_backward` runs the recurrence, then sums
the weight gradients. A cache feeds one backward.
"""

from __future__ import annotations

import functools
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
    """What one forward pass leaves for its one backward pass: only what
    the backward reads, 7·T·hs·B float64 in all.

    All but `X` are feature-major: (T, rows, B) sequences, (hs, B) states.
    The forward writes the factors block by block as it goes. `dZ` holds
    the gate-gradient factors, rows [i, f, o, g]: i'·g, f'·c_{t-1},
    o'·tanh(c) and g'·i, where ' is the derivative of the gate's
    activation. The backward scales them in place into the full gate
    gradients, which the weight sums read; so a cache feeds exactly one
    backward (`spent`). `X`, `H`, `h0` and `readout` never change.
    Nothing reads `F` or `dc_dh` once the cache is spent.
    """

    X: np.ndarray  # inputs as given, (T, B, D)
    dZ: np.ndarray  # gate-gradient factors, rows [i, f, o, g], (T, 4*hs, B)
    F: np.ndarray  # forget gates, (T, hs, B)
    dc_dh: np.ndarray  # dc/dh through h = o·tanh(c): o·(1 − tanh²c), (T, hs, B)
    H: np.ndarray  # hidden states, (T, hs, B)
    h0: np.ndarray  # initial hidden state, (hs, B)
    readout: np.ndarray | None = None  # the (hs,) readout vector the forward emitted through
    spent: bool = False


#: Most gate activations (steps x 4*hs x B) the cached forward turns
#: into backward factors at a time (see `_write_factors`): a block and
#: its scratch stay in a core's L2 cache between the forward's writes
#: and the block's dozen elementwise passes, and a narrow batch does
#: them over many steps per call. On a 2-vCPU x86-64 VM (2 MB L2 per
#: core), one layer's cached forward and backward at (T 60, B 256,
#: hs 16), 4 steps a block, took 7.6-7.8 ms, against 7.7-7.8 ms at
#: 1 << 13, 8.8-8.9 ms at 1 << 18 and 9.5-9.7 ms as one block; at
#: (60, 64, 4), 1.06 ms, against 1.13-1.14 ms at 1 << 13.
FACTOR_BLOCK = 1 << 16


def _write_factors(
    z: np.ndarray, sig: np.ndarray, c: np.ndarray, tc: np.ndarray, c_before: np.ndarray, u: np.ndarray
) -> None:
    """Turn a block of n consecutive cached steps, as the forward wrote
    them, into the backward's factors in place (see `LSTMCache`). `z`
    holds the candidate gates in its last hs rows, `sig[:n]` the sigmoid
    gates [i, f, o], `c` the cell states and `tc` tanh(c); `z` then takes
    the factors, `c` the forget gates and `tc` dc/dh. `c_before` holds
    the cell state before the block and, on return, the block's last
    one. `u` is scratch of at least n steps.

    Each factor is computed by the same IEEE operations, in the same
    order, as the whole-sequence expressions they replace: (1 − s)·s
    then times the partner value for the sigmoid rows, ((1 − g)·(1 + g))·i
    for the candidate rows and o·((1 − tc)·(1 + tc)) for dc/dh. A
    product's two operands may trade places (IEEE multiplication
    commutes), but no product is regrouped.
    """
    n, hs = len(z), c.shape[1]
    sig, u = sig[:n], u[:n]
    d, g = z[:, : 3 * hs], z[:, 3 * hs :]
    np.subtract(1.0, sig, out=d)
    d *= sig  # sigmoid' = s (1 - s)
    d[:, :hs] *= g
    d_f = d[:, hs : 2 * hs]
    d_f[1:] *= c[:-1]
    d_f[0] *= c_before  # zero before the first step
    d[:, 2 * hs :] *= tc
    np.subtract(1.0, g, out=u)
    g += 1.0
    g *= u  # tanh' = (1 - g)(1 + g)
    g *= sig[:, :hs]
    np.subtract(1.0, tc, out=u)
    tc += 1.0
    tc *= u
    tc *= sig[:, 2 * hs :]  # dc/dh through h = o·tanh(c)
    c_before[...] = c[-1]
    c[...] = sig[:, hs : 2 * hs]  # the backward's dc *= f_t


def lstm_forward(
    params: LSTMLayerParams,
    X: np.ndarray,
    h0: np.ndarray | None = None,
    keep_cache: bool = True,
    emit: str | np.ndarray = "states",
    reuse: tuple[np.ndarray, ...] | None = None,
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
    outputs. With `keep_cache`, `reuse` may hand over the (dZ, F, dc_dh,
    H) arrays of a cache of the same shapes that nothing reads any more;
    the new cache then writes them instead of allocating its own.

    Each step computes all four gate pre-activations with one matmul of
    [U | W | b] against a (hs + input_size + 1, B) buffer holding h_{t-1},
    x_t and a row of ones, and writes h_t back into it. No T-long input
    projection is built. An X whose time axis has stride 0 (such as
    `np.broadcast_to` of one (B, input_size) array) is copied into the
    buffer once, not at every step. With `keep_cache`, the loop turns
    each block of `FACTOR_BLOCK` gate activations, in place while it is
    still in cache, into the backward's factors (see `LSTMCache`).
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
    c = np.zeros((hs, B))  # c_{t-1}: zero before the first step
    h_init = h.copy() if keep_cache else None
    if keep_cache and reuse is not None:
        dZ, F, dc_dh, H = reuse
        if dZ.shape != (T, 4 * hs, B) or any(arr.shape != (T, hs, B) for arr in (F, dc_dh, H)):
            raise ShapeMismatch(f"arrays to reuse do not fit a ({T}, {hs}, {B}) cache")
    elif keep_cache:
        dZ, F, dc_dh = np.empty((T, 4 * hs, B)), np.empty((T, hs, B)), np.empty((T, hs, B))
        H = np.empty((T, hs, B))
    else:
        H = np.empty((T, hs, B)) if states else None
    Y = np.empty((T, B)) if w is not None else None
    ig = np.empty((hs, B))
    if keep_cache:
        # Until its block ends, a step's slots hold what the forward reads
        # and writes: the candidate gates in dZ, the cell state in F and
        # tanh(c) in dc_dh; the sigmoid gates sit in `sig`. `c` then holds
        # the block's last cell state.
        width = min(T, max(1, FACTOR_BLOCK // (4 * hs * B)))
        sig, u = np.empty((width, 3 * hs, B)), np.empty((width, hs, B))
        c_block = c
        a = 0  # the block's first step
    else:
        # One gate block serves every step, sigmoid gates included; c
        # updates in place and tanh(c) lands in h, which o then scales
        # into h_t.
        z = np.empty((4 * hs, B))
        e, g = z[: 3 * hs], z[3 * hs :]
        s, c_next, tc = e, c, h
        i, f, o = s[:hs], s[hs : 2 * hs], s[2 * hs :]

    # exp(z) overflows to inf for z > 709; 1/(1+inf) is then exactly 0.
    with np.errstate(over="ignore"):
        for t in range(T):
            if keep_cache:
                z, c_next, tc, s = dZ[t], F[t], dc_dh[t], sig[t - a]
                e, g = z[: 3 * hs], z[3 * hs :]
                i, f, o = s[:hs], s[hs : 2 * hs], s[2 * hs :]
            if not fixed_x:
                x[...] = X[t].T
            np.matmul(A, hx, out=z)
            np.exp(e, out=e)
            e += 1.0
            np.divide(1.0, e, out=s)
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
            if keep_cache and (t + 1 - a == width or t + 1 == T):
                _write_factors(dZ[a : t + 1], sig, F[a : t + 1], dc_dh[a : t + 1], c_block, u)
                c, a = c_block, t + 1

    cache = None
    if keep_cache:
        cache = LSTMCache(X=X, dZ=dZ, F=F, dc_dh=dc_dh, H=H, h0=h_init, readout=w)
    if states:
        return H.transpose(0, 2, 1), h.T, cache
    return Y, h.T, cache


def lstm_backward(
    params: LSTMLayerParams,
    cache: LSTMCache,
    dH: np.ndarray | None,
    dh_final: np.ndarray | None = None,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, dict[str, np.ndarray]]:
    """Backpropagation through time over one layer.

    `dH` is the loss gradient with respect to what the forward emitted at
    each step, or None for no per-step gradient: the hidden states,
    (T, B, hs), or the readout, (T, B), when the forward emitted one; then
    each step's hidden-state gradient w ⊗ dH[t] is formed in one (hs, B)
    buffer. `dh_final` adds gradient arriving at the final hidden state
    from outside the sequence. Returns (dX, dh0, grads) with grads keyed
    "W", "U", "b" in the [i, f, g, o] gate order. dX has the shape of X,
    except when X was time-invariant (see `lstm_forward`): then it is the
    gradient of the one shared input, shape (1, B, input_size). dX is
    None without `input_grad`. The weight gradients are sums over all
    (t, b) pairs of the gate gradients the recurrence leaves in `dZ`.

    A cache that has fed a backward already raises `ValueError`: its
    arrays no longer hold the forward's factors.
    """
    if cache.spent:
        raise ValueError("forward cache is already spent: each forward feeds one backward")
    cache.spent = True
    dZ, F, dc_dh, w = cache.dZ, cache.F, cache.dc_dh, cache.readout
    T, _, B = dZ.shape
    hs = params.hidden_size
    rows = _gate_rows(hs)
    U = params.U[rows]
    dH_steps = None
    if dH is not None:
        dH = np.asarray(dH, dtype=np.float64)
        want = (T, B) if w is not None else (T, B, hs)
        if dH.shape != want:
            raise ShapeMismatch(f"dH has shape {dH.shape}, expected {want}")
        if w is None:
            dH_steps = dH.transpose(0, 2, 1)
        else:
            dH_steps, w_col, dh_step = dH, w[:, None], np.empty((hs, B))

    # dZ starts as the part of each gate's gradient that is known before
    # the loop; the loop scales rows i, f, g by the cell gradient dc and
    # rows o by the hidden gradient dh.
    dh = np.zeros((hs, B)) if dh_final is None else np.array(np.transpose(dh_final), np.float64)
    dc = np.zeros((hs, B))
    dc_step = np.empty((hs, B))
    for t in reversed(range(T)):
        if dH_steps is not None:
            if w is None:
                dh += dH_steps[t]
            else:
                np.multiply(w_col, dH_steps[t], out=dh_step)
                dh += dh_step
        np.multiply(dh, dc_dh[t], out=dc_step)
        dc += dc_step
        dz = dZ[t]
        dz_if = dz[: 2 * hs].reshape(2, hs, B)  # a view: rows i and f
        dz_if *= dc
        dz[2 * hs : 3 * hs] *= dh
        dz[3 * hs :] *= dc
        dh = U.T @ dz
        dc *= F[t]

    X, W = cache.X, params.W[rows]
    dX = None
    if _time_invariant(X):
        # One input shared by every step: its gradient and dW both see the
        # step-summed dZ, never a T-fold copy of it.
        dZ_sum = dZ.sum(axis=0)
        if input_grad:
            dX = (W.T @ dZ_sum).T[None]
        dW = dZ_sum @ X[0]
    else:
        if input_grad:
            dX = np.matmul(W.T, dZ).transpose(0, 2, 1)
        dW = np.matmul(dZ, X).sum(axis=0)
    dU = dZ[0] @ cache.h0.T
    if T > 1:
        dU += np.matmul(dZ[1:], cache.H[:-1].transpose(0, 2, 1)).sum(axis=0)
    grads = {"W": dW[rows], "U": dU[rows], "b": dZ.sum(axis=(0, 2))[rows]}
    return dX, dh.T, grads
