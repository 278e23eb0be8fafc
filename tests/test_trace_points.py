"""The benchmark harness patches ridkit functions by module and name; a
rename in ridkit would silently drop a per-layer metric to zero. This
checks that every point the harness traces still resolves, that the
names it reads without a fallback (its pools, its modules and the backend
name) still exist, since a missing one fails every traced run, and that
the row counts it reads from training-gradient calls still see the
batch."""

import importlib
from pathlib import Path

import numpy as np

from ridkit.flow import WnllConfig, build_flow, train_flow_wnll
from ridkit.neural import MlpSpec, train_regressor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Adam points whose functions no longer exist (training steps run through
# neural.FlatAdam.step); the harness lists them as untraced.
KNOWN_DEAD = {"ridkit.backend.adam_update", "ridkit.neural.adam_step", "ridkit.flow.adam_step"}


def _import_perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # harness imports its siblings by name
    return importlib.import_module(name)


def test_every_benchmark_trace_point_resolves(monkeypatch):
    harness = _import_perfbench(monkeypatch, "harness")
    unresolved = {
        f"{point.owner}.{point.attr}"
        for point in harness.STAGE_POINTS + harness.LAYER_POINTS
        if not hasattr(importlib.import_module(point.owner), point.attr)
    }
    assert unresolved - KNOWN_DEAD == set()


def test_every_name_the_harness_reads_without_a_fallback_exists(monkeypatch):
    harness = _import_perfbench(monkeypatch, "harness")
    for owner, attr in harness.POOLS:
        assert hasattr(importlib.import_module(owner), attr), f"{owner}.{attr}"
    for name in harness.MODULES:
        importlib.import_module(name)
    assert isinstance(importlib.import_module("ridkit.backend").BACKEND_NAME, str)


def test_value_and_gradients_rows_are_the_batch_sizes(monkeypatch):
    harness = _import_perfbench(monkeypatch, "harness")
    tracer = _import_perfbench(monkeypatch, "tracer").Tracer()
    points = [p for p in harness.LAYER_POINTS if p.attr == "value_and_gradients"]
    modules = {p.owner: importlib.import_module(p.owner) for p in points}
    assert set(modules) == {"ridkit.flow", "ridkit.neural"}
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((50, 2)), rng.standard_normal((50, 1))
    with tracer.installed(modules, points) as missing:
        assert missing == []
        train_regressor(MlpSpec(2, 1, (4,)), (x, y), epochs=2, batch_size=16, seed=0)
        train_flow_wnll(build_flow(2, 1, n_blocks=2, hidden=(4,)), x, y, None,
                        WnllConfig(epochs=2, batch_size=16))
    spans = tracer.drain()
    for p in points:
        assert [s.rows for s in spans if s.name == p.name] == [16, 16, 16, 2] * 2, p.name
