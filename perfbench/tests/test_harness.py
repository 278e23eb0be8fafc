"""Tests of the benchmark harness itself (tracer, accounting, configs)."""

import contextlib
import importlib
import json
import threading
import types
from pathlib import Path

import pytest

from harness import (
    END_TO_END,
    MODULES,
    PER_LAYER,
    WORKLOADS,
    Call,
    Op,
    Runner,
    Window,
    check_repeat,
    check_report,
    hash_outputs,
    layer_metrics,
    ops_for_call,
    run_workload,
)
from tracer import Span, TracePoint, Tracer, covered_length, summarize

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_synthetic_calls():
    clock = FakeClock()
    m = types.SimpleNamespace()

    def leaf():
        clock.advance(3)

    def inner():
        clock.advance(1)
        m.leaf()
        clock.advance(1)

    def outer():
        clock.advance(1)
        m.inner()
        clock.advance(2)
        m.inner()
        clock.advance(1)

    m.leaf, m.inner, m.outer = leaf, inner, outer
    tracer = Tracer(clock)
    points = [TracePoint("m", f, f) for f in ("outer", "inner", "leaf", "absent")]
    with tracer.installed({"m": m}, points) as missing:
        m.outer()
    assert missing == ["m.absent"]
    assert (m.outer, m.inner, m.leaf) == (outer, inner, leaf)

    stats = summarize(tracer.drain())
    assert stats["outer"] == {"calls": 1, "s": 14, "self_s": 4, "rows": 0, "bytes": 0}
    assert stats["inner"] == {"calls": 2, "s": 10, "self_s": 4, "rows": 0, "bytes": 0}
    assert stats["leaf"] == {"calls": 2, "s": 6, "self_s": 6, "rows": 0, "bytes": 0}


def test_failed_call_is_recorded_and_reraised():
    m = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer()
    with tracer.installed({"m": m}, [TracePoint("m", "boom", "boom")]):
        with pytest.raises(ZeroDivisionError):
            m.boom()
    [span] = tracer.drain()
    assert not span.ok and tracer.current() is None


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (2, 6), (8, 9)], 0, 10) == 6
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_per_thread_stacks_under_two_worker_pool():
    from concurrent.futures import ThreadPoolExecutor

    both_inside = threading.Barrier(2, timeout=10)
    m = types.SimpleNamespace(Pool=ThreadPoolExecutor)

    def leaf(i):
        return i

    def job(i):
        both_inside.wait()  # both jobs are open at once, on different threads
        return m.leaf(i)

    def outer():
        with m.Pool(max_workers=2) as pool:
            futures = [pool.submit(m.job, i) for i in range(2)]
            return [f.result(timeout=10) for f in futures]

    m.leaf, m.job, m.outer = leaf, job, outer
    tracer = Tracer()
    points = [TracePoint("m", f, f) for f in ("outer", "job", "leaf")]
    with tracer.installed({"m": m}, points, pools=[("m", "Pool")]):
        assert m.outer() == [0, 1]
    assert m.Pool is ThreadPoolExecutor and tracer.current() is None

    spans = tracer.drain()
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    [out] = by_name["outer"]
    jobs, leaves = by_name["job"], by_name["leaf"]
    assert [sp.parent for sp in jobs] == [out.id, out.id]
    assert sorted(sp.parent for sp in leaves) == sorted(sp.id for sp in jobs)
    a, b = jobs
    assert max(a.start, b.start) < min(a.end, b.end)  # they overlapped

    union = covered_length([(sp.start, sp.end) for sp in jobs], out.start, out.end)
    self_s = summarize(spans)["outer"]["self_s"]
    assert self_s == pytest.approx(out.end - out.start - union)
    assert self_s > out.end - out.start - sum(sp.end - sp.start for sp in jobs)


def test_runconfig_comes_from_seed(tmp_path):
    from ridkit.cli import _pipeline_defaults

    pipeline = WORKLOADS["pipeline"]
    cfg = pipeline.config(7, tmp_path)
    assert cfg["seed"] == 7 and cfg["out"] == str(tmp_path)
    assert set(cfg) <= set(_pipeline_defaults())  # `ridkit pipeline` accepts every field
    assert {k: v for k, v in cfg.items() if k not in ("seed", "out")} == {
        **{k: v for k, v in _pipeline_defaults().items() if k not in ("seed", "out")},
        "task": "kinematics",
    }

    calls = pipeline.iteration_calls(7, tmp_path / "setup", tmp_path / "it")
    written = json.loads((tmp_path / "it" / "runconfig.json").read_text())
    assert written == pipeline.config(7, tmp_path / "it")
    assert calls[0].argv[:2] == ("pipeline", "--config")

    for name, w in WORKLOADS.items():
        for seed in (0, 7):
            argvs = [c.argv for c in w.setup_calls(seed, tmp_path)
                     + w.iteration_calls(seed, tmp_path, tmp_path / name)]
            seeds = {argv[argv.index("--seed") + 1] for argv in argvs if "--seed" in argv}
            assert seeds == {seed}


def _runner():
    modules = {name: importlib.import_module(name) for name in MODULES}
    return Runner(modules, Path(__file__).resolve().parents[2])


def test_nonzero_exit_counts_as_failed_operation(tmp_path):
    runner = _runner()
    missing_model = Call(("eval", "--model", tmp_path / "missing.json", "--task", "kinematics",
                          "--out", tmp_path), ("report.json",))
    bad_usage = Call(("sample",), ("samples.jsonl",))
    [data_error] = runner.window([missing_model], tmp_path, traced=False).ops
    [usage_error] = runner.window([bad_usage], tmp_path, traced=False).ops
    assert not data_error.ok and data_error.problem.startswith("exit 3")
    assert not usage_error.ok and usage_error.problem == "exit 2, stage not run"


def test_pipeline_stage_failure_fails_it_and_every_later_stage():
    call = Call(("pipeline", "--config", "c.json"),
                ("dataset.jsonl", "weights.json", "model.json", "report.json"))
    spans = [Span(1, None, "cli.cmd_generate", 0.0, 1.0),
             Span(2, None, "cli.cmd_weights", 1.0, 2.0, ok=False)]
    ops = ops_for_call(call, 4, spans)
    assert [(op.stage, op.ok) for op in ops] == [
        ("cli.cmd_generate", True), ("cli.cmd_weights", False),
        ("cli.cmd_train", False), ("cli.cmd_eval", False)]
    assert ops[0].files == ("dataset.jsonl",) and ops[2].files == ("model.json",)


def test_sha256_mismatch_on_repeat_counts_as_failed_operation(tmp_path):
    (tmp_path / "model.json").write_text("{}")
    first = Window(1.0, [Op("cli.cmd_train", ("model.json",), True, 1.0)])
    hash_outputs(first, tmp_path)
    same = Window(1.0, [Op("cli.cmd_train", ("model.json",), True, 1.0)])
    hash_outputs(same, tmp_path)
    check_repeat(same, first.hashes)
    assert same.ops[0].ok

    (tmp_path / "model.json").write_text("{ }")
    changed = Window(1.0, [Op("cli.cmd_train", ("model.json",), True, 1.0)])
    hash_outputs(changed, tmp_path)
    check_repeat(changed, first.hashes)
    assert not changed.ops[0].ok and "sha256 differs" in changed.ops[0].problem

    (tmp_path / "model.json").unlink()
    gone = Window(1.0, [Op("cli.cmd_train", ("model.json",), True, 1.0)])
    hash_outputs(gone, tmp_path)
    assert not gone.ops[0].ok and "not written" in gone.ops[0].problem


def test_traced_counts_must_repeat_and_overhead_is_traced_minus_untraced():
    def window(wall, n_adam):
        spans = [Span(i, None, "backend.adam_update", i, i + 0.5) for i in range(n_adam)]
        return Window(wall, [], spans)

    setup = window(0.0, 1)
    problems = []
    metrics, samples = layer_metrics(
        setup, [(True, window(5.0, 3)), (False, window(4.0, 0)), (True, window(6.0, 3))],
        0.25, problems)
    assert problems == [] and samples == {"traced": 2, "untraced": 1}
    assert metrics["backend.adam_update.calls"] == 4  # set-up plus one traced repeat
    assert metrics["backend.adam_update.s"] == 2.0
    assert metrics["trace.overhead_s"] == 1.5 and metrics["evaluation.resim_mse"] == 0.25

    layer_metrics(setup, [(True, window(5.0, 3)), (False, window(4.0, 0)), (True, window(5.0, 4))],
                  0.25, problems)
    assert len(problems) == 1 and problems[0].startswith("backend.adam_update")


class FakeRunner:
    """Each window takes one second of a fake clock and succeeds."""

    def __init__(self):
        self.clock = FakeClock()
        self.log = []

    def probing(self):
        return contextlib.nullcontext()

    def own_seconds(self, a, b):
        return b - a

    def import_interval(self):
        start = self.clock()
        self.clock.advance(0.5)
        return start, self.clock()

    def window(self, calls, d, traced):
        self.log.append(d.name)
        d.mkdir(parents=True, exist_ok=True)
        (d / "report.json").write_text('{"mse": 0.25}')
        start = self.clock()
        self.clock.advance(1.0)
        return Window(1.0, [Op("cli.cmd_eval", ("report.json",), True, 0.5, start=start)],
                      hashes={"report.json": "same"}, start=start)


class FakeWorkload:
    setup_reps = 3

    def setup_calls(self, seed, d):
        return []

    def iteration_calls(self, seed, setup, d):
        return []

    def checks(self, setup, d):
        return []


def test_setup_repeats_interleave_with_iterations_outside_the_time_budget(tmp_path):
    runner = FakeRunner()
    result = run_workload(FakeWorkload(), 0, 3.0, False, runner, tmp_path / "work")
    assert runner.log == ["setup0", "it0", "setup1", "it1", "setup2", "it2"]
    assert result.correct and len(result.ops) == 6
    assert result.metrics["setup_s"] == 1.5 and result.metrics["run_s"] == 1.0
    assert not (tmp_path / "work").exists()

    runner = FakeRunner()
    run_workload(FakeWorkload(), 0, 5.0, False, runner, tmp_path / "work")
    assert runner.log == ["setup0", "it0", "setup1", "it1", "setup2", "it2", "it3", "it4"]


def test_report_check_rejects_non_finite_or_inconsistent_mse(tmp_path):
    def report(mse, losses):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"mse": mse, "per_target_losses": losses,
                                    "config": {"samples_per_target": 4}}))
        return check_report(path, len(losses), 4, baseline=False)

    assert report(0.5, [0.25, 0.75]) == []
    assert report(float("nan"), [0.25, 0.75])
    assert report(0.6, [0.25, 0.75])


def test_benchmark_json_lists_what_the_harness_measures():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
