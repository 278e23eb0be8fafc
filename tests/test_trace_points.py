"""The benchmark harness patches ridkit functions by module and name; a
rename in ridkit would silently drop a per-layer metric to zero. This
checks that every point the harness traces still resolves."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Adam points whose functions no longer exist (training steps run through
# neural.FlatAdam.step); the harness lists them as untraced.
KNOWN_DEAD = {"ridkit.backend.adam_update", "ridkit.neural.adam_step", "ridkit.flow.adam_step"}


def test_every_benchmark_trace_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # harness imports its siblings by name
    harness = importlib.import_module("harness")
    unresolved = {
        f"{point.owner}.{point.attr}"
        for point in harness.STAGE_POINTS + harness.LAYER_POINTS
        if not hasattr(importlib.import_module(point.owner), point.attr)
    }
    assert unresolved - KNOWN_DEAD == set()
