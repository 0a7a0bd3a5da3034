"""Checkpoint container: bit-exact round trips, deterministic bytes."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import IDENT_NORM
from hivewatch.data import NormalizationParams
from hivewatch.errors import CheckpointError
from hivewatch.nn import init_model, load_model, model_parameters, save_model


def roughened(seed=0, norm=IDENT_NORM):
    model = init_model(5, 2, 12, seed=seed, norm=norm)
    rng = np.random.default_rng(seed + 100)
    for p in model_parameters(model).values():
        p += rng.normal(0, 0.5, size=p.shape)
    return model


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = roughened(norm=NormalizationParams(mean=34.51234, std=0.7654321))
        p = tmp_path / "model.bin"
        save_model(p, model)
        back = load_model(p)
        assert back.window_size == model.window_size
        assert back.hidden_size == model.hidden_size
        assert back.n_layers == model.n_layers
        assert back.seed == model.seed
        assert back.norm == model.norm
        for name, arr in model_parameters(model).items():
            assert model_parameters(back)[name].tobytes() == arr.tobytes()

    def test_identical_bytes_across_saves(self, tmp_path):
        """No timestamps or ambient state: saving twice gives equal files."""
        model = roughened(seed=3)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(a, model)
        save_model(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_reload_reproduces_forward(self, tmp_path):
        from hivewatch.nn import forward

        model = roughened(seed=4)
        p = tmp_path / "model.bin"
        save_model(p, model)
        x = np.random.default_rng(0).normal(size=model.window_size)
        np.testing.assert_array_equal(forward(load_model(p), x), forward(model, x))


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "model.bin"
        save_model(p, roughened())
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_model(p)

    def test_truncated_data(self, tmp_path):
        p = tmp_path / "model.bin"
        save_model(p, roughened())
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_model(p)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "model.bin"
        save_model(p, roughened())
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_model(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "model.bin"
        save_model(p, roughened())
        raw = p.read_bytes()
        p.write_bytes(raw.replace(b'"version":"v1"', b'"version":"v9"', 1))
        with pytest.raises(CheckpointError, match="version"):
            load_model(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_model(tmp_path / "absent.bin")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_output_projection(self, tmp_path, value):
        """The output bias is the file's last float64; a non-finite one is
        refused at load, as a non-finite LSTM weight is."""
        p = tmp_path / "model.bin"
        save_model(p, roughened())
        p.write_bytes(p.read_bytes()[:-8] + np.float64(value).tobytes())
        with pytest.raises(CheckpointError, match="non-finite"):
            load_model(p)
