"""Re-simulation scoring and significance testing.

The expected squared loss L of a design against a target is R + B: the
target-agnostic spread R of the noisy response around its own mean plus
the squared distance B of that mean from the target. An inverse model is
scored by re-simulation: sample designs for held-out targets, push each
through one noisy forward draw, and average the squared errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .flow import FlowModel, flow_sample
from .seeding import derive_seed
from .tasks import NoiseSpec, TaskSpec, apply_noise_batch

__all__ = [
    "EvalConfig",
    "resimulation_error",
    "welch_t_test",
    "regularized_incomplete_beta",
    "student_t_sf",
]


@dataclass(frozen=True)
class EvalConfig:
    n_targets: int = 128
    samples_per_target: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.n_targets < 2:
            raise ValueError("n_targets must be >= 2: a standard error (and Welch's t-test) "
                             "needs at least two losses")
        if self.samples_per_target < 1:
            raise ValueError("samples_per_target must be >= 1")


# re-simulation scoring ---------------------------------------------------------------


def resimulation_error(
    model: FlowModel,
    task: TaskSpec,
    noise: NoiseSpec,
    test_targets: np.ndarray,
    cfg: EvalConfig,
) -> np.ndarray:
    """Scores an inverse model on held-out targets: the float64 array of
    per-target losses, one per row of `test_targets`.

    For each target, samples_per_target designs are drawn from the model
    and each gets one noisy forward draw; the per-target loss is the mean
    squared error of those draws against the target.
    """
    targets = np.asarray(test_targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[1] != task.d_y:
        raise ValueError(f"targets shape {targets.shape} does not match d_y={task.d_y}")
    if model.d_x != task.d_x or model.d_y != task.d_y:
        raise ValueError("model dims do not match the task")
    n_t = targets.shape[0]
    k = cfg.samples_per_target
    designs = flow_sample(model, targets, k, derive_seed(cfg.seed, "designs"))
    rng = np.random.default_rng(derive_seed(cfg.seed, "resim"))
    y_sim = apply_noise_batch(task, noise, designs, rng)
    y_rep = np.repeat(targets, k, axis=0)
    return backend.row_sumsq_diff(y_sim, y_rep).reshape(n_t, k).mean(axis=1)


# Welch's t-test ------------------------------------------------------------------------


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the continued-fraction expansion (modified Lentz)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    p_two = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return p_two / 2.0 if t >= 0 else 1.0 - p_two / 2.0


def welch_t_test(losses_a, losses_b) -> tuple[float, float]:
    """Two-sided Welch statistic and p-value for unequal-variance samples.

    Zero-variance identical samples give (t=0, p=1); zero variance with
    different means gives (+-inf, 0).
    """
    a = np.asarray(losses_a, dtype=np.float64).reshape(-1)
    b = np.asarray(losses_b, dtype=np.float64).reshape(-1)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least two observations")
    va = a.var(ddof=1) / a.size
    vb = b.var(ddof=1) / b.size
    diff = a.mean() - b.mean()
    if va + vb == 0.0:
        if diff == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, diff), 0.0
    t = diff / math.sqrt(va + vb)
    df = (va + vb) ** 2 / (va ** 2 / (a.size - 1) + vb ** 2 / (b.size - 1))
    p = 2.0 * student_t_sf(abs(t), df)
    return float(t), float(min(max(p, 0.0), 1.0))
