"""Per-sample robustness estimation and conversion to training weights.

The robustness of a training pair is its predictability: a forward
surrogate is fit on the other cross-validation folds and the pair's
held-out squared prediction error is its raw robustness score r (small =
predictable = robust). Scores are normalized to mean 1, mapped through
w = exp(-tau * r), renormalized to mean 1, and floored by eps, so noisy
samples are suppressed smoothly instead of discarded.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import backend
from .neural import MlpSpec, TrainingError, mlp_forward, train_regressor
from .seeding import derive_seed
from .tasks import Dataset

__all__ = [
    "WeightConfig",
    "RobustnessEstimate",
    "WeightVector",
    "FoldTrainingError",
    "kfold_split",
    "estimate_sample_robustness",
    "robustness_to_weights",
]


class FoldTrainingError(TrainingError):
    """Surrogate training diverged; carries the offending fold id."""

    def __init__(self, fold: int, message: str):
        super().__init__(f"fold {fold}: {message}")
        self.fold = fold


@dataclass(frozen=True)
class WeightConfig:
    k_folds: int = 5
    tau: float = 1.0
    eps: float = 1e-3
    surrogate_hidden: tuple[int, ...] = (64, 64)
    surrogate_activation: str = "tanh"
    epochs: int = 60
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.k_folds < 2:
            raise ValueError("k_folds must be >= 2")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        object.__setattr__(self, "surrogate_hidden", tuple(int(h) for h in self.surrogate_hidden))

    def to_jsonable(self) -> dict:
        return {
            "k_folds": self.k_folds,
            "tau": self.tau,
            "eps": self.eps,
            "surrogate_hidden": list(self.surrogate_hidden),
            "surrogate_activation": self.surrogate_activation,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
        }

    @staticmethod
    def from_jsonable(doc: dict) -> "WeightConfig":
        return WeightConfig(
            k_folds=int(doc["k_folds"]),
            tau=float(doc["tau"]),
            eps=float(doc["eps"]),
            surrogate_hidden=tuple(doc["surrogate_hidden"]),
            surrogate_activation=doc["surrogate_activation"],
            epochs=int(doc["epochs"]),
            batch_size=int(doc["batch_size"]),
            seed=int(doc["seed"]),
        )


@dataclass(frozen=True)
class RobustnessEstimate:
    """Held-out squared prediction errors, normalized to mean 1.

    When every raw score is zero (perfectly predictable data) the
    normalization is skipped and all scores stay 0, which maps to uniform
    weights downstream.
    """

    r: np.ndarray

    def __post_init__(self):
        if self.r.ndim != 1:
            raise ValueError("r must be 1-D")
        if np.any(self.r < 0):
            raise ValueError("robustness scores must be >= 0")


@dataclass(frozen=True)
class WeightVector:
    w: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 1 or not np.isfinite(self.w).all() or np.any(self.w <= 0):
            raise ValueError("weights must be a 1-D finite positive vector")


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle, then k disjoint near-equal index sets covering 0..n-1."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    order = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(order, k)]


def _surrogate_spec(cfg: WeightConfig, d_x: int, d_y: int) -> MlpSpec:
    return MlpSpec(d_x, d_y, cfg.surrogate_hidden, cfg.surrogate_activation)


def _fold_errors(
    fold_id: int,
    dataset: Dataset,
    valid_idx: np.ndarray,
    cfg: WeightConfig,
) -> np.ndarray:
    mask = np.ones(dataset.n, dtype=bool)
    mask[valid_idx] = False
    spec = _surrogate_spec(cfg, dataset.x.shape[1], dataset.y.shape[1])
    try:
        params, _ = train_regressor(
            spec,
            (dataset.x[mask], dataset.y[mask]),
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            seed=derive_seed(cfg.seed, f"fold{fold_id}"),
        )
    except TrainingError as exc:
        raise FoldTrainingError(fold_id, str(exc)) from exc
    pred = mlp_forward(params, dataset.x[valid_idx])
    return backend.row_sumsq_diff(pred, dataset.y[valid_idx]).reshape(-1)


def estimate_sample_robustness(
    dataset: Dataset, cfg: WeightConfig, threads: int = 1
) -> RobustnessEstimate:
    """Cross-validated held-out errors for every sample, mean-normalized.

    Each fold trains a freshly initialized surrogate on the remaining
    folds; folds are independent, so threads > 1 runs them concurrently
    with identical results.
    """
    n = dataset.n
    if n < 2 * cfg.k_folds:
        raise ValueError(f"dataset of {n} rows is too small for k={cfg.k_folds} folds")
    folds = kfold_split(n, cfg.k_folds, derive_seed(cfg.seed, "folds"))
    r = np.empty(n)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_fold_errors, i, dataset, fold, cfg)
                for i, fold in enumerate(folds)
            ]
            for fold, fut in zip(folds, futures):
                r[fold] = fut.result()
    else:
        for i, fold in enumerate(folds):
            r[fold] = _fold_errors(i, dataset, fold, cfg)
    mean = r.mean()
    if mean > 0:
        r = r / mean
    return RobustnessEstimate(r=r)


def robustness_to_weights(
    r: RobustnessEstimate | np.ndarray, tau: float, eps: float
) -> WeightVector:
    """w = exp(-tau * r), renormalized to mean 1, plus the eps floor."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if eps <= 0:
        raise ValueError("eps must be positive")
    scores = r.r if isinstance(r, RobustnessEstimate) else np.asarray(r, dtype=np.float64)
    mean_r = scores.mean()
    if not (scores == 0).all() and abs(mean_r - 1.0) > 1e-6:
        raise ValueError(f"robustness scores must be mean-normalized, got mean {mean_r}")
    w = np.exp(-tau * scores)
    mean_w = w.mean()
    if mean_w == 0.0:  # every score underflowed; fall back to uniform
        w = np.ones_like(w)
    else:
        w = w / mean_w
    return WeightVector(w=w + eps)
