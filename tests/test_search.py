"""Hyperparameter search: sampling, ranking, determinism, reporting."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from hivewatch.data import NormalizationParams
from hivewatch.errors import EmptyDataset, ExhaustedGrid, InvalidHyperparameter
from hivewatch.nn import TrainConfig, load_model
from hivewatch.search import SearchSpace, TrialResult, random_search, write_search_report

FAST = TrainConfig(max_epochs=2, batch_size=8, seed=0)
NORM = NormalizationParams(mean=34.5, std=0.5)


def tiny_windows(n, w=8, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [rng.uniform(-1, 1) + rng.normal(0, 0.05, size=w) for _ in range(n)]
    )


class TestSearchSpace:
    def test_grid_enumeration(self):
        space = SearchSpace(hs_range=(2, 3), n_range=(1, 2), trials=4)
        assert space.grid() == [(2, 1), (2, 2), (3, 1), (3, 2)]

    def test_full_default_grid_size(self):
        assert len(SearchSpace().grid()) == 63 * 4

    def test_out_of_bounds_ranges_rejected(self):
        with pytest.raises(InvalidHyperparameter):
            SearchSpace(hs_range=(2, 100))
        with pytest.raises(InvalidHyperparameter):
            SearchSpace(n_range=(0, 4))

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            SearchSpace(trials=0)


class TestRandomSearch:
    def test_single_trial(self):
        space = SearchSpace(hs_range=(2, 4), n_range=(1, 1), trials=1, seed=5)
        results = random_search(space, tiny_windows(16), tiny_windows(4), NORM, FAST)
        assert len(results) == 1
        assert isinstance(results[0], TrialResult)

    def test_budget_above_grid_visits_every_cell_once(self):
        space = SearchSpace(hs_range=(2, 3), n_range=(1, 2), trials=50, seed=0)
        results = random_search(space, tiny_windows(16), tiny_windows(4), NORM, FAST)
        assert sorted((r.hs, r.n) for r in results) == [(2, 1), (2, 2), (3, 1), (3, 2)]

    def test_sorted_ascending_by_loss(self):
        space = SearchSpace(hs_range=(2, 4), n_range=(1, 2), trials=6, seed=1)
        results = random_search(space, tiny_windows(24), tiny_windows(6), NORM, FAST)
        losses = [r.best_val_loss for r in results]
        assert losses == sorted(losses)
        assert results[0].best_val_loss == min(losses)

    def test_sampled_pairs_inside_ranges(self):
        space = SearchSpace(hs_range=(3, 6), n_range=(1, 2), trials=5, seed=2)
        for r in random_search(space, tiny_windows(16), tiny_windows(4), NORM, FAST):
            assert 3 <= r.hs <= 6
            assert 1 <= r.n <= 2

    def test_deterministic_for_equal_seeds(self):
        space = SearchSpace(hs_range=(2, 3), n_range=(1, 2), trials=3, seed=7)
        tw, vw = tiny_windows(16), tiny_windows(4)
        a = random_search(space, tw, vw, NORM, FAST)
        b = random_search(space, tw, vw, NORM, FAST)
        assert [(r.hs, r.n, r.best_val_loss) for r in a] == [
            (r.hs, r.n, r.best_val_loss) for r in b
        ]

    def test_ties_prefer_smaller_models(self):
        """All-zero windows are reconstructed exactly by every fresh model
        (loss 0.0 for each trial), so ordering falls through to (hs, n)."""
        space = SearchSpace(hs_range=(2, 3), n_range=(1, 2), trials=4, seed=3)
        zeros = np.zeros((8, 8))
        results = random_search(space, zeros, zeros[:, :2], NORM, FAST)
        assert all(r.best_val_loss == 0.0 for r in results)
        assert [(r.hs, r.n) for r in results] == [(2, 1), (2, 2), (3, 1), (3, 2)]

    def test_empty_windows(self, tmp_path):
        """The first trial's `train` rejects the empty set before any
        checkpoint is written."""
        space = SearchSpace(hs_range=(2, 2), n_range=(1, 1), trials=1)
        with pytest.raises(EmptyDataset):
            random_search(
                space, np.empty((8, 0)), tiny_windows(2), NORM, FAST, out_dir=tmp_path
            )
        assert list(tmp_path.glob("model_*.bin")) == []

    def test_empty_grid(self):
        space = SearchSpace.__new__(SearchSpace)  # bypass range validation
        object.__setattr__(space, "hs_range", (4, 3))
        object.__setattr__(space, "n_range", (1, 1))
        object.__setattr__(space, "trials", 1)
        object.__setattr__(space, "seed", 0)
        with pytest.raises(ExhaustedGrid):
            random_search(space, tiny_windows(4), tiny_windows(2), NORM, FAST)

    def test_checkpoints_written(self, tmp_path):
        space = SearchSpace(hs_range=(2, 2), n_range=(1, 2), trials=2, seed=0)
        results = random_search(
            space, tiny_windows(8), tiny_windows(2), NORM, FAST, out_dir=tmp_path
        )
        for r in results:
            model = load_model(r.model_path)
            assert model.hidden_size == r.hs
            assert model.n_layers == r.n
            assert model.norm == NORM


class TestSearchReport:
    def test_written_table(self, tmp_path):
        results = [
            TrialResult(hs=4, n=1, best_val_loss=0.25, epochs_run=7, model_path="m.bin"),
            TrialResult(hs=8, n=2, best_val_loss=0.5, epochs_run=3),
        ]
        p = tmp_path / "report.csv"
        write_search_report(p, results)
        with p.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["hs", "n", "best_val_loss", "epochs_run", "model_path"]
        assert rows[1] == ["4", "1", "0.25", "7", "m.bin"]
        assert float(rows[2][2]) == 0.5
