"""The numpy kernel module: the names callers and profilers look up, and
the kernels' own contracts."""

import numpy as np
import pytest

from ridkit import backend


@pytest.fixture
def arrays():
    rng = np.random.default_rng(0)
    return {
        "a": rng.standard_normal((40, 3)),
        "s": rng.standard_normal((40, 3)) * 5.0,
        "t": rng.standard_normal((40, 3)),
    }


def test_kernel_names_exposed():
    assert isinstance(backend.BACKEND_NAME, str) and backend.BACKEND_NAME
    for name in ("softclamp", "coupling_fwd", "row_sumsq_diff"):
        assert callable(getattr(backend, name))


def test_softclamp_bound(arrays):
    big = arrays["s"] * 100.0
    assert np.abs(backend.softclamp(big, 2.0)).max() < 2.0


def test_row_sumsq_diff(arrays):
    r = backend.row_sumsq_diff(arrays["a"], arrays["t"])
    assert r.shape == (40, 1)
    np.testing.assert_allclose(r[:, 0], ((arrays["a"] - arrays["t"]) ** 2).sum(axis=1), rtol=1e-12)
