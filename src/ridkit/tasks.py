"""Benchmark forward problems, priors, and state-dependent noise wrappers.

Each task is a deterministic map g(x) = y plus a prior over designs x.
Stochastic environments wrap g three ways: n_x perturbs the design before
the forward pass, n_y perturbs the response, n_xy composes both. The noise
magnitudes depend on the state (on x, or on the clean response), which is
what makes some regions of the design space genuinely less predictable
than others:

- radian      y in [0, 2pi) is the polar angle of x in R^2; x-noise makes
              the response jump between 0 and 2pi near the positive axis.
- clusters    three Gaussian blobs with fixed labels {0, 1/3, 2/3}; x-noise
              flips labels near blob boundaries.
- radius      two unit circles around (0, 1) and (0, -1); y is the distance
              to the nearer center, and only the (0, -1) cluster's responses
              carry noise.
- kinematics  rail height plus three joint angles position an arm endpoint
              in R^2; x-noise shrinks as the endpoint rises.
- ballistics  drag-free throw; y is the landing abscissa; x-noise grows with
              the launch angle's distance from 45 degrees, y-noise with |y|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "TaskSpec",
    "NoiseSpec",
    "Dataset",
    "TASK_NAMES",
    "NOISE_MODES",
    "make_task",
    "task_forward",
    "prior_sample",
    "kinematics_sigma_x",
    "apply_noise_batch",
    "generate_dataset",
]

TASK_NAMES = ("radian", "clusters", "radius", "kinematics", "ballistics")
NOISE_MODES = ("none", "n_x", "n_y", "n_xy")

GRAVITY = 9.81

_CLUSTER_CENTERS = 0.5 * np.array([[0.0, 2.0], [-math.sqrt(3.0), -1.0], [math.sqrt(3.0), -1.0]])
_CLUSTER_LABELS = np.array([1.0 / 3.0, 0.0, 2.0 / 3.0])  # top, bottom-left, bottom-right
_RADIUS_CENTERS = np.array([[0.0, 1.0], [0.0, -1.0]])  # clean cluster first


@dataclass(frozen=True)
class TaskSpec:
    name: str
    d_x: int
    d_y: int
    # defaults for the state-dependent noise rules; NoiseSpec can override
    x_sigma: float
    y_sigma: float

    def __post_init__(self):
        if self.name not in TASK_NAMES:
            raise ValueError(f"unknown task '{self.name}'")


@dataclass(frozen=True)
class NoiseSpec:
    mode: str = "none"
    x_sigma: float | None = None  # None: use the task default
    y_sigma: float | None = None
    seed: int | None = None  # provenance only; draws use the caller's rng

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode '{self.mode}'")
        for s in (self.x_sigma, self.y_sigma):
            if s is not None and s < 0:
                raise ValueError("noise sigmas must be >= 0")


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray
    y: np.ndarray
    task: TaskSpec
    noise: NoiseSpec
    seed: int | None = None

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 2 or self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y must be 2-D with equal row counts")
        widths, want = (self.x.shape[1], self.y.shape[1]), (self.task.d_x, self.task.d_y)
        if widths != want:
            raise ValueError(f"task {self.task.name} has d_x {want[0]} and d_y {want[1]}, but "
                             f"the rows hold {widths[0]} x and {widths[1]} y values")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset entries must be finite")

    @property
    def n(self) -> int:
        return self.x.shape[0]


_TASK_DEFAULTS = {
    #            d_x d_y x_sigma y_sigma
    "radian": (2, 1, 0.1, 0.05),
    "clusters": (2, 1, 0.1, 0.05),
    "radius": (2, 1, 0.1, 0.2),
    "kinematics": (4, 2, 0.2, 0.2),
    "ballistics": (4, 1, 0.25, 0.05),
}


def make_task(name: str) -> TaskSpec:
    if name not in _TASK_DEFAULTS:
        raise ValueError(f"unknown task '{name}'; choose from {TASK_NAMES}")
    d_x, d_y, xs, ys = _TASK_DEFAULTS[name]
    return TaskSpec(name=name, d_x=d_x, d_y=d_y, x_sigma=xs, y_sigma=ys)


# deterministic forwards -------------------------------------------------------


def _radian_batch(x: np.ndarray) -> np.ndarray:
    """Polar angle of each 2-vector, mapped into [0, 2pi)."""
    return np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * math.pi).reshape(-1, 1)


def _clusters_batch(x: np.ndarray) -> np.ndarray:
    """Label of the nearest cluster center."""
    d2 = ((x[:, None, :] - _CLUSTER_CENTERS[None, :, :]) ** 2).sum(axis=2)
    return _CLUSTER_LABELS[np.argmin(d2, axis=1)].reshape(-1, 1)


def _radius_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance to the nearer circle center plus that cluster's id
    (0 = clean center (0, 1), 1 = noisy center (0, -1); ties go to 0)."""
    d = np.sqrt(((x[:, None, :] - _RADIUS_CENTERS[None, :, :]) ** 2).sum(axis=2))
    cid = (d[:, 1] < d[:, 0]).astype(np.int64)
    return np.where(cid == 1, d[:, 1], d[:, 0]).reshape(-1, 1), cid


KINEMATICS_LENGTHS = (0.5, 0.5, 1.0)


def _kinematics_batch(x: np.ndarray) -> np.ndarray:
    """Endpoint of a three-segment arm mounted at height x1 on a vertical
    rail, with joint angles x2, x3, x4 accumulated along the chain."""
    a1 = x[:, 1]
    a2 = a1 + x[:, 2]
    a3 = a2 + x[:, 3]
    l1, l2, l3 = KINEMATICS_LENGTHS
    px = l1 * np.cos(a1) + l2 * np.cos(a2) + l3 * np.cos(a3)
    py = x[:, 0] + l1 * np.sin(a1) + l2 * np.sin(a2) + l3 * np.sin(a3)
    return np.stack([px, py], axis=1)


def _ballistics_batch(x: np.ndarray) -> np.ndarray:
    """Landing abscissa of a drag-free throw from (x1, x2) at angle x3 with
    speed x4. The flight time is the nonnegative root of the height law."""
    vy = x[:, 3] * np.sin(x[:, 2])
    vx = x[:, 3] * np.cos(x[:, 2])
    # noise can push the launch height below ground; clamping the
    # discriminant keeps the map total (the throw "lands immediately")
    disc = np.maximum(vy * vy + 2.0 * GRAVITY * x[:, 1], 0.0)
    t_star = (vy + np.sqrt(disc)) / GRAVITY
    t_star = np.maximum(t_star, 0.0)
    return (x[:, 0] + vx * t_star).reshape(-1, 1)


_BATCH_FORWARDS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "radian": _radian_batch,
    "clusters": _clusters_batch,
    "radius": lambda x: _radius_batch(x)[0],
    "kinematics": _kinematics_batch,
    "ballistics": _ballistics_batch,
}


def task_forward(task: TaskSpec, x: np.ndarray) -> np.ndarray:
    """Vectorized deterministic forward pass, (n, d_x) -> (n, d_y)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != task.d_x:
        raise ValueError(f"x shape {x.shape} does not match d_x={task.d_x}")
    return _BATCH_FORWARDS[task.name](x)


# priors ------------------------------------------------------------------------

RADIAN_EXCLUSION_RADIUS = 0.1
RADIUS_SHELL_SIGMA = 0.05
CLUSTERS_COMPONENT_SIGMA = 0.15
KINEMATICS_PRIOR_SIGMA = (0.25, 0.5, 0.5, 0.5)


def _resample(rng: np.random.Generator, n: int, draw, accept) -> np.ndarray:
    out = draw(n)
    bad = ~accept(out)
    while np.any(bad):
        k = int(bad.sum())
        out[bad] = draw(k)
        bad = ~accept(out)
    return out


def prior_sample(task: TaskSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    name = task.name
    if name == "radian":
        return _resample(
            rng,
            n,
            lambda k: rng.standard_normal((k, 2)),
            lambda a: np.linalg.norm(a, axis=1) >= RADIAN_EXCLUSION_RADIUS,
        )
    if name == "clusters":
        comp = rng.integers(0, 3, size=n)
        return _CLUSTER_CENTERS[comp] + CLUSTERS_COMPONENT_SIGMA * rng.standard_normal((n, 2))
    if name == "radius":
        comp = rng.integers(0, 2, size=n)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        r = 1.0 + RADIUS_SHELL_SIGMA * rng.standard_normal(n)
        offset = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
        return _RADIUS_CENTERS[comp] + offset
    if name == "kinematics":
        return rng.standard_normal((n, 4)) * np.asarray(KINEMATICS_PRIOR_SIGMA)
    if name == "ballistics":
        x = np.empty((n, 4))
        x[:, 0] = 0.5 * rng.standard_normal(n)
        x[:, 1] = _resample(
            rng, n,
            lambda k: 1.5 + 0.5 * rng.standard_normal(k),
            lambda a: a >= 0.0,
        )
        x[:, 2] = rng.uniform(math.pi / 18.0, math.pi / 3.0, size=n)
        x[:, 3] = _resample(
            rng, n,
            lambda k: 4.5 + 0.5 * rng.standard_normal(k),
            lambda a: a >= 0.1,
        )
        return x
    raise ValueError(f"unknown task '{name}'")


# state-dependent noise rules ------------------------------------------------------

KINEMATICS_NX_STEEPNESS = 3.0
KINEMATICS_NY_STEEPNESS = 2.0


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


def kinematics_sigma_x(task: TaskSpec, x: np.ndarray, base: float | None = None) -> np.ndarray:
    """Input-noise scale per row: shrinks as the noiseless endpoint rises."""
    base = task.x_sigma if base is None else base
    height = _kinematics_batch(np.asarray(x, dtype=np.float64))[:, 1]
    return base * _sigmoid(-KINEMATICS_NX_STEEPNESS * height)


def _sigma_x(task: TaskSpec, x: np.ndarray, base: float) -> np.ndarray:
    """Per-row input-noise scale, broadcast over all coordinates."""
    name = task.name
    if name in ("radian", "clusters", "radius"):
        return np.full(x.shape[0], base)
    if name == "kinematics":
        return kinematics_sigma_x(task, x, base)
    if name == "ballistics":
        return base * np.abs(x[:, 2] - math.pi / 4.0)
    raise ValueError(name)


def _sigma_y(task: TaskSpec, x: np.ndarray, y_clean: np.ndarray, base: float) -> np.ndarray:
    """Per-row response-noise scale, broadcast over response coordinates."""
    name = task.name
    if name in ("radian", "clusters"):
        return base * (1.0 + y_clean[:, 0])
    if name == "radius":
        _, cid = _radius_batch(x)
        return np.where(cid == 1, base, 0.0)
    if name == "kinematics":
        return base * _sigmoid(-KINEMATICS_NY_STEEPNESS * y_clean[:, 1])
    if name == "ballistics":
        return base * (1.0 + np.abs(y_clean[:, 0]))
    raise ValueError(name)


def apply_noise_batch(
    task: TaskSpec, noise: NoiseSpec, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One stochastic response draw per row of x.

    Repeated calls at a fixed x sample the conditional response
    distribution; mode 'none' is the deterministic forward bitwise.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != task.d_x:
        raise ValueError(f"x shape {x.shape} does not match d_x={task.d_x}")
    mode = noise.mode
    if mode == "none":
        return task_forward(task, x)
    x_base = task.x_sigma if noise.x_sigma is None else noise.x_sigma
    y_base = task.y_sigma if noise.y_sigma is None else noise.y_sigma
    x_used = x
    if mode in ("n_x", "n_xy"):
        sx = _sigma_x(task, x, x_base).reshape(-1, 1)
        x_used = x + sx * rng.standard_normal(x.shape)
    y = task_forward(task, x_used)
    if mode in ("n_y", "n_xy"):
        sy = _sigma_y(task, x_used, y, y_base).reshape(-1, 1)
        y = y + sy * rng.standard_normal(y.shape)
    return y


def generate_dataset(task: TaskSpec, noise: NoiseSpec, n: int, seed: int) -> Dataset:
    """Draws designs from the task prior and one noisy response each."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = prior_sample(task, n, rng)
    y = apply_noise_batch(task, noise, x, rng)
    return Dataset(x=x, y=y, task=task, noise=noise, seed=seed)
