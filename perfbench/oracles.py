"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the equations and file formats the
package documents, and imports nothing from `hivewatch`: a fault in the
program cannot hide by also being present in its own oracle.
"""

from __future__ import annotations

import json
import struct
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"HIVEAE1\n"


# ---------------------------------------------------------------------------
# Checkpoints and initial weights


def read_checkpoint(path) -> tuple[dict, dict | None, dict[str, np.ndarray]]:
    """(hyperparameters, normalization or None, name -> float64 array)."""
    raw = Path(path).read_bytes()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint")
    (header_len,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
    start = len(CHECKPOINT_MAGIC) + 4
    header = json.loads(raw[start : start + header_len].decode("utf-8"))
    offset = start + header_len
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        arrays[entry["name"]] = (
            np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        )
        offset += 8 * count
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} unexplained trailing bytes")
    return header["hyper"], header["norm"], arrays


def initial_params(hs: int, n_layers: int, seed: int) -> dict[str, np.ndarray]:
    """The documented initialization: one seeded generator drawing, per
    layer, W then U uniform on +-1/sqrt(hs) (encoder bottom-up, then
    decoder), then the output weights; biases zero except forget = 1."""
    rng = np.random.default_rng(seed)
    k = 1.0 / np.sqrt(hs)
    params = {}
    for prefix in ("encoder", "decoder"):
        for layer in range(n_layers):
            d = 1 if (prefix == "encoder" and layer == 0) else hs
            params[f"{prefix}.{layer}.W"] = rng.uniform(-k, k, size=(4 * hs, d))
            params[f"{prefix}.{layer}.U"] = rng.uniform(-k, k, size=(4 * hs, hs))
            b = np.zeros(4 * hs)
            b[hs : 2 * hs] = 1.0
            params[f"{prefix}.{layer}.b"] = b
    params["output.W"] = rng.uniform(-k, k, size=(1, hs))
    params["output.b"] = np.zeros(1)
    return params


# ---------------------------------------------------------------------------
# Autoencoder forward pass


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _lstm(W, U, b, X, h0):
    """One layer over X (T, B, D) from hidden state h0 and a zero cell.

    Gates are packed [input, forget, candidate, output] along the rows
    of W, U and b:  z = W x_t + U h_{t-1} + b,  c_t = f*c_{t-1} + i*g,
    h_t = o * tanh(c_t).
    """
    T, B, _ = X.shape
    hs = U.shape[1]
    h = h0
    c = np.zeros((B, hs))
    out = np.empty((T, B, hs))
    for t in range(T):
        z = X[t] @ W.T + h @ U.T + b
        i = _sigmoid(z[:, :hs])
        f = _sigmoid(z[:, hs : 2 * hs])
        g = np.tanh(z[:, 2 * hs : 3 * hs])
        o = _sigmoid(z[:, 3 * hs :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def reconstruct(params: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    """Reconstruction of the (T, B) windows X, one window per column.

    The encoder reads one reading per step; its top layer's final hidden
    state is the latent code. Every decoder layer starts from the code,
    the bottom decoder layer reads the code at every step, and a linear
    map turns each top decoder state into one reading.
    """
    T, B = X.shape
    n_layers = sum(1 for k in params if k.startswith("encoder.") and k.endswith(".W"))
    hs = params["output.W"].shape[1]
    seq = X[:, :, None]
    for layer in range(n_layers):
        p = f"encoder.{layer}."
        seq = _lstm(params[p + "W"], params[p + "U"], params[p + "b"], seq, np.zeros((B, hs)))
    latent = seq[-1]
    seq = np.broadcast_to(latent, (T, B, hs))
    for layer in range(n_layers):
        p = f"decoder.{layer}."
        seq = _lstm(params[p + "W"], params[p + "U"], params[p + "b"], seq, latent)
    return seq @ params["output.W"][0] + params["output.b"][0]


def window_errors(params: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    """Mean squared reconstruction error of each column of X."""
    return np.mean((reconstruct(params, X) - X) ** 2, axis=0)


def mean_loss(params: dict[str, np.ndarray], X: np.ndarray) -> float:
    """Mean squared error over every element of X, the training loss."""
    return float(np.mean((reconstruct(params, X) - X) ** 2))


def finite_difference_probe(params, X, entries, h: float = 1e-5) -> list[float]:
    """Central differences of `mean_loss` at the given (name, flat index)
    entries; `params` is restored afterwards."""
    out = []
    for name, idx in entries:
        flat = params[name].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + h
        up = mean_loss(params, X)
        flat[idx] = orig - h
        down = mean_loss(params, X)
        flat[idx] = orig
        out.append((up - down) / (2.0 * h))
    return out


def relative_error(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(floor, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Windows


def window_starts(ts: np.ndarray, col: np.ndarray, day_mask: np.ndarray, size: int) -> np.ndarray:
    """Indices i such that readings i .. i+size-1 are all present, all in
    the selected days, and one minute apart."""
    n = len(ts)
    if n < size:
        return np.empty(0, dtype=np.int64)
    good = np.isfinite(col) & day_mask
    ok = []
    for i in range(n - size + 1):
        if good[i : i + size].all() and ts[i + size - 1] - ts[i] == 60 * (size - 1):
            ok.append(i)
    return np.asarray(ok, dtype=np.int64)


def window_matrix(col: np.ndarray, starts: np.ndarray, size: int, mean: float, std: float) -> np.ndarray:
    """(size, len(starts)) matrix of z-scored windows."""
    X = np.stack([col[i : i + size] for i in starts], axis=1)
    return (X - mean) / std


# ---------------------------------------------------------------------------
# Rule detector


def rule_runs(ts, col, base: float, band: float, lo: int, hi: int) -> list[tuple]:
    """Brute force: every maximal run of consecutive minutes strictly above
    base + band, kept when it lasts lo..hi minutes, as (start_ts, end_ts,
    peak_ts, peak_value) with the earliest maximum as peak."""
    limit = base + band
    n = len(ts)
    events = []
    i = 0
    while i < n:
        if not (col[i] == col[i] and col[i] > limit):
            i += 1
            continue
        j = i
        while j + 1 < n and col[j + 1] == col[j + 1] and col[j + 1] > limit and ts[j + 1] - ts[j] == 60:
            j += 1
        if lo <= j - i + 1 <= hi:
            peak = i
            for k in range(i, j + 1):
                if col[k] > col[peak]:
                    peak = k
            events.append((int(ts[i]), int(ts[j]) + 60, int(ts[peak]), float(col[peak])))
        i = j + 1
    return events


# ---------------------------------------------------------------------------
# Pearson


def pearson_two_pass(a: np.ndarray, b: np.ndarray) -> float:
    """r of two equal-length series: means first, then centred sums."""
    n = len(a)
    da = a - np.sum(a) / n
    db = b - np.sum(b) / n
    return float(np.sum(da * db) / np.sqrt(np.sum(da * da) * np.sum(db * db)))


# ---------------------------------------------------------------------------
# Output files


def iso(ts: int) -> str:
    return datetime.fromtimestamp(int(ts), timezone.utc).isoformat()


def epoch(text: str) -> int:
    return int(datetime.fromisoformat(text).timestamp())


def read_event_table(path) -> list[tuple]:
    """(start_ts, end_ts, peak_ts, peak_score, method, class_hint) rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[0] != "start,end,peak,peak_score,method,class_hint":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        s, e, p, score, method, hint = line.split(",")
        rows.append((epoch(s), epoch(e), epoch(p), float(score), method, hint))
    return rows


def read_matrix(path) -> tuple[list[str], np.ndarray]:
    """Sensor names and values of a correlation file; empty cell = NaN."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    names = lines[0].split(",")[1:]
    values = np.full((len(names), len(names)), np.nan)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if cells[0] != names[i]:
            raise ValueError(f"{path}: row {i} is {cells[0]!r}, expected {names[i]!r}")
        for j, cell in enumerate(cells[1:]):
            if cell:
                values[i, j] = float(cell)
    return names, values
