"""Per-sample robustness estimation and conversion to training weights.

The robustness of a training pair is its predictability: a forward
surrogate, an MLP of two 64-wide tanh layers, is fit on the other
cross-validation folds and the pair's held-out squared prediction error is
its raw robustness score r (small = predictable = robust). Scores are
normalized to mean 1, mapped through w = exp(-tau * r), renormalized to
mean 1, and floored by eps, so noisy samples are suppressed smoothly
instead of discarded. Scores and weights are plain float64 arrays, one
entry per dataset row.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import backend
from .neural import MlpSpec, TrainingError, mlp_forward, train_regressor, with_bias_column
from .seeding import derive_seed
from .tasks import Dataset

__all__ = [
    "WeightConfig",
    "kfold_split",
    "estimate_sample_robustness",
    "robustness_to_weights",
]


# hidden layer widths of every fold surrogate
SURROGATE_HIDDEN = (64, 64)


@dataclass(frozen=True)
class WeightConfig:
    k_folds: int = 5
    tau: float = 1.0
    eps: float = 1e-3
    epochs: int = 40
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

    def check_rows(self, n: int) -> None:
        """Raise unless a dataset of n rows splits into k_folds folds of >= 2 rows."""
        if n < 2 * self.k_folds:
            raise ValueError(f"dataset of {n} rows is too small for k={self.k_folds} folds")


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle, then k disjoint near-equal index sets covering 0..n-1."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    order = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(order, k)]


def _fold_errors(
    fold_id: int,
    dataset: Dataset,
    valid_idx: np.ndarray,
    cfg: WeightConfig,
) -> np.ndarray:
    mask = np.ones(dataset.n, dtype=bool)
    mask[valid_idx] = False
    try:
        params, _ = train_regressor(
            MlpSpec(dataset.x.shape[1], dataset.y.shape[1], SURROGATE_HIDDEN),
            (dataset.x[mask], dataset.y[mask]),
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            seed=derive_seed(cfg.seed, f"fold{fold_id}"),
        )
    except TrainingError as exc:
        raise TrainingError(f"fold {fold_id}: {exc}") from exc
    pred = mlp_forward(params, with_bias_column(dataset.x[valid_idx]))
    return backend.row_sumsq_diff(pred, dataset.y[valid_idx]).reshape(-1)


def estimate_sample_robustness(
    dataset: Dataset, cfg: WeightConfig, threads: int = 1
) -> np.ndarray:
    """Cross-validated held-out errors for every sample, normalized to mean
    1, or all 0 when every raw error is 0 (robustness_to_weights maps that
    to uniform weights).

    Each fold trains a freshly initialized surrogate on the remaining
    folds; folds are independent, so threads > 1 runs them concurrently
    with identical results.
    """
    n = dataset.n
    cfg.check_rows(n)
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
    return r


def robustness_to_weights(r: np.ndarray, tau: float, eps: float) -> np.ndarray:
    """w = exp(-tau * r), renormalized to mean 1, plus the eps floor, for
    scores as estimate_sample_robustness returns them."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if eps <= 0:
        raise ValueError("eps must be positive")
    scores = np.asarray(r, dtype=np.float64)
    mean_r = scores.mean()
    if not (scores == 0).all() and abs(mean_r - 1.0) > 1e-6:
        raise ValueError(f"robustness scores must be mean-normalized, got mean {mean_r}")
    w = np.exp(-tau * scores)
    mean_w = w.mean()
    if mean_w == 0.0:  # every score underflowed; fall back to uniform
        w = np.ones_like(w)
    else:
        w = w / mean_w
    return w + eps
