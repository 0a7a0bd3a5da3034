"""Random hyperparameter search over the (hidden size, layer count) grid.

"Random grid search" here means sampling grid cells uniformly without
replacement from a seeded generator, training each sampled configuration,
and ranking by best validation loss.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

from .data import NormalizationParams
from .errors import ExhaustedGrid, InvalidHyperparameter
from .nn import TrainConfig, init_model, save_model, train
from .nn.model import HIDDEN_SIZE_RANGE, NUM_LAYERS_RANGE

import numpy as np


@dataclass(frozen=True)
class SearchSpace:
    """Inclusive hyperparameter ranges and the sampling budget."""

    hs_range: tuple[int, int] = HIDDEN_SIZE_RANGE
    n_range: tuple[int, int] = NUM_LAYERS_RANGE
    trials: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for (lo, hi), (blo, bhi), what in (
            (self.hs_range, HIDDEN_SIZE_RANGE, "hidden size"),
            (self.n_range, NUM_LAYERS_RANGE, "layer count"),
        ):
            if lo < blo or hi > bhi:
                raise InvalidHyperparameter(
                    f"{what} range [{lo}, {hi}] outside supported [{blo}, {bhi}]"
                )

    def grid(self) -> list[tuple[int, int]]:
        """All (hs, n) cells, row-major."""
        return [
            (hs, n)
            for hs in range(self.hs_range[0], self.hs_range[1] + 1)
            for n in range(self.n_range[0], self.n_range[1] + 1)
        ]


@dataclass(frozen=True)
class TrialResult:
    hs: int
    n: int
    best_val_loss: float
    epochs_run: int
    model_path: str = ""

    def __post_init__(self) -> None:
        if self.best_val_loss < 0:
            raise ValueError("best_val_loss must be non-negative")


def random_search(
    space: SearchSpace,
    Xtr: np.ndarray,
    Xval: np.ndarray,
    norm: NormalizationParams,
    config: TrainConfig = TrainConfig(),
    out_dir=None,
    split: str | None = None,
) -> list[TrialResult]:
    """Train one model per sampled grid cell; results sorted by loss.

    `Xtr` and `Xval` are (T, n) window matrices as `train` takes them,
    z-scored with `norm`; T is every trial's window size, and every
    trial's model carries `norm`, so its checkpoint scores new traces. A
    budget above the grid size degrades to visiting the full grid.
    Ties in validation loss rank the smaller model first (hs, then n).
    When `out_dir` is given every trial's model is checkpointed there,
    recording `split`, the digest of the split file it was trained on.
    No checkpoint is written until the last trial has trained, so a trial
    that fails leaves none behind (nor the directory, if it was missing).
    """
    cells = space.grid()
    if not cells:
        raise ExhaustedGrid(
            f"empty hyperparameter grid for ranges {space.hs_range} x {space.n_range}"
        )
    rng = np.random.default_rng(space.seed)
    order = rng.permutation(len(cells))[: min(space.trials, len(cells))]

    trained = []
    for cell in order:
        hs, n = cells[cell]
        model = init_model(hs, n, Xtr.shape[0], seed=config.seed, norm=norm)
        trained.append((hs, n, train(model, Xtr, Xval, config)))

    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    results = []
    for hs, n, outcome in trained:
        path = ""
        if out_dir is not None:
            path = str(Path(out_dir) / f"model_hs{hs}_n{n}.bin")
            save_model(path, replace(outcome.model, split=split))
        results.append(
            TrialResult(
                hs=hs,
                n=n,
                best_val_loss=outcome.best_val_loss,
                epochs_run=outcome.epochs_run,
                model_path=path,
            )
        )
    results.sort(key=lambda r: (r.best_val_loss, r.hs, r.n))
    return results


def write_search_report(path, results: list[TrialResult]) -> None:
    """Delimited trial table, best first. Each checkpoint is recorded by
    its file name, relative to the report beside it, so the report's bytes
    do not depend on how the output directory was named."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hs", "n", "best_val_loss", "epochs_run", "model_path"])
        for r in results:
            name = Path(r.model_path).name
            writer.writerow([r.hs, r.n, repr(r.best_val_loss), r.epochs_run, name])
