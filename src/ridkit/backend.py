"""Numpy implementations of the hot elementwise kernels.

All arguments are 2-D arrays of one float dtype: float64 in training and
scoring, float32 when the flow samples. Results keep that dtype and are
freshly allocated.
Callers look the kernels up as `backend.X` at call time, so a profiler can
wrap them in place.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND_NAME = "numpy"


def softclamp(raw, clamp):
    """Saturating log-scale: clamp * (2/pi) * atan(raw), always in (-clamp, clamp)."""
    return np.arctan(raw) * (clamp * (2.0 / math.pi))


def coupling_fwd(active, s_raw, t, clamp):
    """Affine coupling forward on the active half: out = active*exp(s)+t.

    Returns (out, s_eff) where s_eff is the clamped log-scale.
    """
    s_eff = softclamp(s_raw, clamp)
    return active * np.exp(s_eff) + t, s_eff


def row_sumsq_diff(a, b):
    """Per-row sum of squared differences, shape (n, 1)."""
    d = a - b
    return (d * d).sum(axis=1, keepdims=True)
