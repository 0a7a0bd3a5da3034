"""Training loop: convergence, early stopping, determinism, best-epoch."""

from __future__ import annotations

import numpy as np
import pytest

from hivewatch.detector import window_errors
from hivewatch.errors import EmptyDataset
from hivewatch.nn import (
    TrainConfig,
    evaluate,
    init_model,
    model_parameters,
    train,
)


def level_windows(rng, n, w=16, noise=0.05):
    """Windows that are a random constant level plus light noise; learning
    to carry the level through the latent code beats mean prediction."""
    levels = rng.uniform(-1.0, 1.0, size=n)
    return np.column_stack([lvl + rng.normal(0.0, noise, size=w) for lvl in levels])


class TestTrain:
    def test_zero_windows_reach_tiny_loss(self):
        model = init_model(8, 1, 16, seed=3)
        result = train(
            model,
            np.zeros((16, 32)),
            np.zeros((16, 8)),
            TrainConfig(max_epochs=50, batch_size=8, seed=0),
        )
        assert result.best_val_loss <= 1e-3
        assert result.epochs_run <= 50

    def test_learns_level_structure(self):
        """Validation loss must end below the variance of the window
        levels, i.e. the model encodes more than the global mean."""
        rng = np.random.default_rng(7)
        t = train(
            init_model(8, 1, 16, seed=1),
            level_windows(rng, 200),
            level_windows(rng, 40),
            TrainConfig(max_epochs=40, batch_size=32, seed=0),
        )
        level_variance = 1.0 / 3.0  # Var of Uniform(-1, 1)
        assert t.best_val_loss < 0.5 * level_variance

    def test_early_stop_with_patience_one(self):
        rng = np.random.default_rng(2)
        windows = level_windows(rng, 24)
        result = train(
            init_model(4, 1, 16, seed=0),
            windows,
            windows,
            TrainConfig(max_epochs=30, patience=1, seed=0),
        )
        assert result.epochs_run <= 30
        if result.epochs_run < 30:
            # stopped because the last epoch did not improve on the best
            assert result.history[-1].val_loss >= result.best_val_loss

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(4)
        tw, vw = level_windows(rng, 40), level_windows(rng, 10)
        config = TrainConfig(max_epochs=5, batch_size=8, seed=9)
        a = train(init_model(4, 1, 16, seed=2), tw, vw, config)
        b = train(init_model(4, 1, 16, seed=2), tw, vw, config)
        for name, arr in model_parameters(a.model).items():
            assert arr.tobytes() == model_parameters(b.model)[name].tobytes()
        assert [h.val_loss for h in a.history] == [h.val_loss for h in b.history]

    def test_best_epoch_weights_returned(self):
        """The returned model re-evaluates exactly to the minimum of the
        validation-loss history."""
        rng = np.random.default_rng(6)
        tw, vw = level_windows(rng, 60), level_windows(rng, 15)
        result = train(
            init_model(4, 1, 16, seed=1),
            tw,
            vw,
            TrainConfig(max_epochs=15, patience=3, seed=0),
        )
        best_in_history = min(h.val_loss for h in result.history)
        assert result.best_val_loss == best_in_history
        assert result.history[result.best_epoch - 1].val_loss == best_in_history
        assert evaluate(result.model, vw) == pytest.approx(best_in_history, rel=1e-12)

    def test_evaluate_is_mean_of_window_errors(self):
        """Validation and scoring share one path: the validation loss is
        exactly the mean of the errors `detect` would score."""
        rng = np.random.default_rng(8)
        model = init_model(4, 1, 16, seed=3)
        ws = level_windows(rng, 700)
        assert evaluate(model, ws) == float(np.mean(window_errors(model, ws)))

    def test_input_model_untouched(self):
        model = init_model(4, 1, 16, seed=5)
        before = {k: p.copy() for k, p in model_parameters(model).items()}
        rng = np.random.default_rng(8)
        train(model, level_windows(rng, 16), level_windows(rng, 4), TrainConfig(max_epochs=2))
        for name, arr in model_parameters(model).items():
            np.testing.assert_array_equal(arr, before[name])

    def test_empty_dataset_rejected(self):
        model = init_model(4, 1, 16, seed=0)
        wins = np.zeros((16, 1))
        with pytest.raises(EmptyDataset):
            train(model, np.empty((16, 0)), wins)
        with pytest.raises(EmptyDataset):
            train(model, wins, np.empty((16, 0)))

    def test_loss_history_recorded_per_epoch(self):
        rng = np.random.default_rng(3)
        result = train(
            init_model(4, 1, 16, seed=0),
            level_windows(rng, 16),
            level_windows(rng, 4),
            TrainConfig(max_epochs=4, patience=10, seed=0),
        )
        assert [h.epoch for h in result.history] == [1, 2, 3, 4]
        assert all(np.isfinite([h.train_loss, h.val_loss]).all() for h in result.history)
