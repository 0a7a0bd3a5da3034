"""Model checkpoints: a small self-describing binary container.

Layout: magic ``HIVEAE1\\n``, a little-endian uint32 header length, a
compact JSON header (version, hyperparameters, normalization, seed, the
digest of the training split when one is recorded, and the name/shape of
every array), then the arrays themselves concatenated as little-endian
float64 in header order. Writing the same model twice produces identical
bytes — there are no timestamps or other ambient state in the container.
"""

from __future__ import annotations

import json
import math
import re
import struct
from pathlib import Path

import numpy as np

from ..data import NormalizationParams
from ..errors import CheckpointError, ShapeMismatch
from .lstm import LSTMLayerParams
from .model import HIDDEN_SIZE_RANGE, NUM_LAYERS_RANGE, AutoencoderModel, model_parameters

MAGIC = b"HIVEAE1\n"
VERSION = "v1"

#: A recorded split: the SHA-256 of the split file, as `hexdigest` spells it.
_SPLIT_DIGEST = re.compile(r"[0-9a-f]{64}")


def save_model(path, model: AutoencoderModel) -> None:
    params = model_parameters(model)
    header = {
        "version": VERSION,
        "hyper": {
            "window_size": model.window_size,
            "hidden_size": model.hidden_size,
            "n_layers": model.n_layers,
            "seed": model.seed,
        },
        "norm": {"mean": model.norm.mean, "std": model.norm.std},
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
    }
    if model.split is not None:
        header["split"] = model.split
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path) -> AutoencoderModel:
    """Inverse of `save_model`; the round trip is bit-exact."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 4 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    header_start = len(MAGIC) + 4
    data_start = header_start + header_len
    if len(raw) < data_start:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[header_start:data_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != VERSION:
        raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")

    hyper = _field(path, header, "hyper", dict)
    hs, n, window_size, seed = (
        _field(path, hyper, key, int) for key in ("hidden_size", "n_layers", "window_size", "seed")
    )
    if not (
        HIDDEN_SIZE_RANGE[0] <= hs <= HIDDEN_SIZE_RANGE[1]
        and NUM_LAYERS_RANGE[0] <= n <= NUM_LAYERS_RANGE[1]
        and window_size >= 2
    ):
        raise CheckpointError(f"{path}: hyperparameters out of range: {hyper}")
    norm = _field(path, header, "norm", dict)
    mean, std = _field(path, norm, "mean", float), _field(path, norm, "std", float)
    if not (math.isfinite(mean) and math.isfinite(std) and std > 0):
        raise CheckpointError(f"{path}: invalid normalization {norm}")
    split = header.get("split")
    if "split" in header and not (isinstance(split, str) and _SPLIT_DIGEST.fullmatch(split)):
        raise CheckpointError(f"{path}: header field 'split' is not a SHA-256 hex digest")

    arrays: dict[str, np.ndarray] = {}
    offset = data_start
    for entry in _field(path, header, "arrays", list):
        name = _field(path, entry, "name", str)
        shape = tuple(_field(path, entry, "shape", list))
        if not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(f"{path}: bad shape {list(shape)} for array {name!r}")
        count = math.prod(shape)
        end = offset + 8 * count
        if len(raw) < end:
            raise CheckpointError(f"{path}: truncated array data at {name!r}")
        arrays[name] = (
            np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")

    def layer(prefix: str, k: int, input_size: int) -> LSTMLayerParams:
        return LSTMLayerParams(
            input_size=input_size,
            hidden_size=hs,
            W=arrays[f"{prefix}.{k}.W"],
            U=arrays[f"{prefix}.{k}.U"],
            b=arrays[f"{prefix}.{k}.b"],
        )

    try:
        return AutoencoderModel(
            window_size=window_size,
            hidden_size=hs,
            n_layers=n,
            encoder_layers=[layer("encoder", k, 1 if k == 0 else hs) for k in range(n)],
            decoder_layers=[layer("decoder", k, hs) for k in range(n)],
            w_out=arrays["output.W"],
            b_out=arrays["output.b"],
            norm=NormalizationParams(mean, std),
            seed=seed,
            split=split,
        )
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing array {exc}") from exc
    except (ShapeMismatch, ValueError) as exc:
        raise CheckpointError(f"{path}: inconsistent arrays: {exc}") from exc


def _field(path, mapping, key: str, kind: type):
    """`mapping[key]`, checked to be a `kind`; CheckpointError otherwise.

    A float field also takes a JSON integer; booleans never count as
    numbers.
    """
    value = mapping.get(key) if isinstance(mapping, dict) else None
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise CheckpointError(f"{path}: header field {key!r} missing or not {kind.__name__}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise CheckpointError(f"{path}: header field {key!r}: {exc}") from exc
