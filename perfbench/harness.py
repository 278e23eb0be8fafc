"""Workloads, operation accounting and output checks behind perfbench/run.py.

Every workload drives ridkit through `ridkit.cli.main` in this process, one
CLI stage call after another (a closed loop with one client). Each stage
call (`cli.cmd_*`) is one operation. An operation fails when its call exits
non-zero, when one of its artifacts hashes differently from the first run
with the same seed, or when its output breaks a structural check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe
from tracer import TracePoint, Tracer, summarize

# trace points ------------------------------------------------------------------


def _arg(i: int, name: str):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[name]

    return get


def _jsonl_path(path) -> Path:
    path = Path(path)
    return path / "dataset.jsonl" if path.is_dir() else path


def _rows(i: int, name: str):
    get = _arg(i, name)
    return lambda args, kwargs: len(get(args, kwargs))


def _size_of_arg(i: int, name: str):
    get = _arg(i, name)
    return lambda args, kwargs, result: os.path.getsize(_jsonl_path(get(args, kwargs)))


def _size_of_result(args, kwargs, result):
    return os.path.getsize(result)


_BINDINGS = _arg(1, "bindings")

STAGES = ("generate", "weights", "train", "sample", "eval")
# the stage timer: the only points patched while end-to-end metrics are measured
STAGE_POINTS = tuple(TracePoint("ridkit.cli", f"cmd_{s}", f"cli.cmd_{s}") for s in STAGES)

# Each function is patched under every name its callers bind, and all
# bindings record under one span name.
LAYER_POINTS = (
    TracePoint("ridkit.flow", "value_and_gradients", "autodiff.value_and_gradients.flow",
               rows=lambda a, k: _BINDINGS(a, k)["x"].shape[0]),
    TracePoint("ridkit.neural", "value_and_gradients", "autodiff.value_and_gradients.surrogate",
               rows=lambda a, k: _BINDINGS(a, k)["x"].shape[0]),
    TracePoint("ridkit.neural", "adam_step", "neural.adam_step"),
    TracePoint("ridkit.flow", "adam_step", "neural.adam_step"),
    TracePoint("ridkit.weights", "train_regressor", "neural.train_regressor"),
    *(TracePoint(m, "mlp_forward", "neural.mlp_forward", rows=_rows(1, "x_batch"))
      for m in ("ridkit.neural", "ridkit.flow", "ridkit.weights")),
    *(TracePoint("ridkit.backend", k, f"backend.{k}")
      for k in ("adam_update", "coupling_fwd", "row_sumsq_diff")),
    TracePoint("ridkit.cli", "train_flow_wnll", "flow.train_flow_wnll"),
    TracePoint("ridkit.cli", "flow_sample", "flow.flow_sample"),
    TracePoint("ridkit.evaluation", "flow_sample", "flow.flow_sample"),
    TracePoint("ridkit.cli", "flow_to_jsonable", "flow.flow_to_jsonable"),
    TracePoint("ridkit.cli", "flow_from_jsonable", "flow.flow_from_jsonable"),
    TracePoint("ridkit.cli", "estimate_sample_robustness", "weights.estimate_sample_robustness"),
    TracePoint("ridkit.cli", "generate_dataset", "tasks.generate_dataset"),
    *(TracePoint(m, "apply_noise_batch", "tasks.apply_noise_batch", rows=_rows(2, "x"))
      for m in ("ridkit.tasks", "ridkit.evaluation")),
    TracePoint("ridkit.cli", "resimulation_error", "evaluation.resimulation_error"),
    TracePoint("ridkit.cli", "welch_t_test", "evaluation.welch_t_test"),
    *(TracePoint(m, "write_json", "fileio.write_json", nbytes=_size_of_arg(0, "path"))
      for m in ("ridkit.cli", "ridkit.fileio")),
    *(TracePoint(m, "read_json", "fileio.read_json", nbytes=_size_of_arg(0, "path"))
      for m in ("ridkit.cli", "ridkit.fileio")),
    TracePoint("ridkit.cli", "write_dataset", "fileio.write_dataset", nbytes=_size_of_result),
    TracePoint("ridkit.cli", "read_dataset", "fileio.read_dataset", nbytes=_size_of_arg(0, "path")),
    TracePoint("ridkit.cli", "read_targets", "fileio.read_targets", nbytes=_size_of_arg(0, "path")),
    TracePoint("ridkit.cli", "write_weights", "fileio.write_weights", nbytes=_size_of_arg(0, "path")),
    TracePoint("ridkit.cli", "read_weights", "fileio.read_weights", nbytes=_size_of_arg(0, "path")),
)
# folds run on this executor; its tasks must start under the weights span
POOLS = (("ridkit.weights", "ThreadPoolExecutor"),)

# every module a trace point or pool patches
MODULES = ("ridkit.backend", "ridkit.cli", "ridkit.evaluation", "ridkit.fileio", "ridkit.flow",
           "ridkit.neural", "ridkit.tasks", "ridkit.weights")

# metrics -------------------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("weights_s", "s"), ("train_s", "s"),
    ("sample_s", "s"), ("eval_s", "s"), ("peak_rss_mb", "MB"),
)
STAGE_METRICS = {"weights_s": "cli.cmd_weights", "train_s": "cli.cmd_train",
                 "sample_s": "cli.cmd_sample", "eval_s": "cli.cmd_eval"}

_UNITS = {"calls": "count", "rows": "count", "bytes": "B", "s": "s", "self_s": "s"}
PER_LAYER = tuple(
    (name, _UNITS[name.rsplit(".", 1)[1]]) for name in (
        "autodiff.value_and_gradients.flow.calls",
        "autodiff.value_and_gradients.flow.rows",
        "autodiff.value_and_gradients.flow.self_s",
        "autodiff.value_and_gradients.surrogate.calls",
        "autodiff.value_and_gradients.surrogate.rows",
        "autodiff.value_and_gradients.surrogate.self_s",
        "neural.adam_step.calls",
        "neural.adam_step.self_s",
        "neural.train_regressor.self_s",
        "neural.mlp_forward.calls",
        "neural.mlp_forward.rows",
        "neural.mlp_forward.self_s",
        "backend.adam_update.calls",
        "backend.adam_update.s",
        "backend.coupling_fwd.s",
        "backend.row_sumsq_diff.s",
        "flow.train_flow_wnll.self_s",
        "flow.flow_sample.self_s",
        "flow.flow_to_jsonable.s",
        "flow.flow_from_jsonable.s",
        "weights.estimate_sample_robustness.self_s",
        "tasks.generate_dataset.s",
        "tasks.apply_noise_batch.rows",
        "tasks.apply_noise_batch.s",
        "evaluation.resimulation_error.self_s",
        "evaluation.welch_t_test.calls",
        *(f"fileio.{fn}.{stat}"
          for fn in ("write_json", "read_json", "write_dataset", "read_dataset",
                     "read_targets", "write_weights", "read_weights")
          for stat in ("s", "bytes")),
        *(f"cli.cmd_{s}.s" for s in STAGES),
        "cli.cmd_sample.self_s",
    )
) + (("weights.fold_overlap", "ratio"), ("evaluation.resim_mse", "loss"),
     ("trace.overhead_s", "s"))

# operations ---------------------------------------------------------------------

# which stage writes each artifact that must repeat byte for byte
PRODUCER = {
    "dataset.jsonl": "cli.cmd_generate",
    "weights.json": "cli.cmd_weights",
    "model.json": "cli.cmd_train",
    "report.json": "cli.cmd_eval",
    "samples.jsonl": "cli.cmd_sample",
}


@dataclass(frozen=True)
class Call:
    """One `ridkit` command line and the artifacts (relative to the window
    directory) that must exist after it."""

    argv: tuple
    files: tuple

    def stages(self) -> list[str]:
        if self.argv[0] == "pipeline":
            return [f"cli.cmd_{s}" for s in ("generate", "weights", "train", "eval")]
        return [f"cli.cmd_{self.argv[0]}"]


@dataclass
class Op:
    stage: str
    files: tuple
    ok: bool
    seconds: float | None
    problem: str = ""
    in_pipeline: bool = False
    start: float | None = None  # clock reading when the stage began

    def fail(self, problem: str) -> None:
        if self.ok:
            self.ok, self.problem = False, problem


@dataclass
class Window:
    """One setup repetition or one timed iteration."""

    wall: float
    ops: list[Op]
    spans: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    start: float = 0.0  # clock reading when the window began


def ops_for_call(call: Call, rc: int, spans) -> list[Op]:
    """One operation per stage the call runs. A stage is OK when its span
    ended without an exception; a non-zero exit with every observed stage OK
    fails the last stage."""
    seen = {}
    for sp in spans:
        seen.setdefault(sp.name, sp)
    ops = []
    for stage in call.stages():
        sp = seen.get(stage)
        files = tuple(f for f in call.files if PRODUCER[Path(f).name] == stage)
        ok = sp is not None and sp.ok
        ops.append(Op(stage, files, ok, None if sp is None else sp.end - sp.start,
                      "" if ok else f"exit {rc}" if sp is not None else f"exit {rc}, stage not run",
                      in_pipeline=call.argv[0] == "pipeline",
                      start=None if sp is None else sp.start))
    if rc != 0 and all(op.ok for op in ops):
        ops[-1].fail(f"exit {rc}")
    return ops


def sha256_file(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def hash_outputs(window: Window, root: Path) -> None:
    """Hashes every artifact the window's operations should have written."""
    for op in window.ops:
        for f in op.files:
            path = root / f
            if path.exists():
                window.hashes[f] = sha256_file(path)
            else:
                op.fail(f"{f} was not written")


def check_repeat(window: Window, reference: dict) -> None:
    """Fails the producer of every artifact whose bytes differ from the
    reference run with the same seed."""
    for op in window.ops:
        for f in op.files:
            if f in window.hashes and f in reference and window.hashes[f] != reference[f]:
                op.fail(f"{f} sha256 differs from the first run with this seed")


def fail_producers(windows: list[Window], problems: list[tuple[str, str]]) -> list[str]:
    """Fails the operation that wrote each file with a problem; returns the
    problems no operation of these windows wrote the file for."""
    unmatched = []
    for f, message in problems:
        ops = [op for w in windows for op in w.ops if f in op.files]
        for op in ops:
            op.fail(f"{f}: {message}")
        if not ops:
            unmatched.append(f"{f}: {message}")
    return unmatched


# output checks --------------------------------------------------------------------


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def check_dataset(path: Path, n: int) -> list[str]:
    rows = _jsonl(path)
    if len(rows) != n:
        return [f"{len(rows)} rows, expected {n}"]
    if not all(_finite(r["x"]) and _finite(r["y"]) for r in rows):
        return ["non-finite values"]
    return []


def check_weights(path: Path, n: int) -> list[str]:
    w = json.loads(path.read_text())["weights"]
    if len(w) != n:
        return [f"{len(w)} weights for {n} rows"]
    if not _finite(w) or min(w) <= 0:
        return ["weights must be finite and positive"]
    return []


def check_model(path: Path, d_x: int, d_y: int, blocks: int) -> list[str]:
    doc = json.loads(path.read_text())
    got = (doc.get("kind"), doc.get("d_x"), doc.get("d_y"), len(doc.get("subnets", ())))
    want = ("coupling-flow", d_x, d_y, blocks)
    return [] if got == want else [f"(kind, d_x, d_y, blocks) is {got}, expected {want}"]


def check_report(path: Path, n_targets: int, per_target: int, baseline: bool) -> list[str]:
    doc = json.loads(path.read_text())
    losses, mse = doc["per_target_losses"], doc["mse"]
    problems = []
    if len(losses) != n_targets or doc["config"]["samples_per_target"] != per_target:
        problems.append(f"report covers {len(losses)} x {doc['config']['samples_per_target']}, "
                        f"expected {n_targets} x {per_target}")
    if not _finite(losses + [mse]) or mse <= 0:
        problems.append(f"mse {mse} is not a finite positive loss")
    elif abs(math.fsum(losses) / len(losses) - mse) > 1e-9 * mse:
        problems.append("mse is not the mean of the per-target losses")
    if baseline:
        cmp = doc.get("comparison") or {}
        if not (_finite([cmp.get("baseline_mse"), cmp.get("t")]) and 0.0 <= cmp.get("p", -1) <= 1.0):
            problems.append(f"bad baseline comparison {cmp}")
    return problems


def check_samples(path: Path, n_targets: int, per_target: int, d_x: int, d_y: int) -> list[str]:
    rows = _jsonl(path)
    if len(rows) != n_targets:
        return [f"{len(rows)} targets, expected {n_targets}"]
    for r in rows:
        s = r["samples"]
        if len(r["target"]) != d_y or len(s) != per_target or any(len(x) != d_x for x in s):
            return [f"a row is not {per_target} samples of {d_x} values for a {d_y}-value target"]
        if not all(_finite(x) for x in s):
            return ["non-finite sample"]
    return []


# workloads -------------------------------------------------------------------------

# ridkit tasks: (d_x, d_y)
TASK_DIMS = {"kinematics": (4, 2), "ballistics": (4, 1)}


@dataclass(frozen=True)
class Pipeline:
    """`ridkit pipeline` on a fixed RunConfig, then `ridkit sample` and
    `ridkit eval` of the trained model for `infer_targets` targets.

    The pipeline's own eval stage (RunConfig size, well under 0.1 s) is too
    short to time steadily on a shared machine, so sample_s and eval_s time
    the separate calls, sized to take most of a second each. The sample
    targets are drawn once, at set-up, which is short (mostly the import)
    and so repeated often.
    """

    name: str
    runconfig: dict
    infer_targets: int = 2048
    setup_reps: int = 9

    def config(self, seed: int, out: Path) -> dict:
        return {**self.runconfig, "seed": seed, "out": str(out)}

    def setup_calls(self, seed: int, d: Path) -> list[Call]:
        c = self.runconfig
        return [Call(("generate", "--task", c["task"], "--noise", c["noise"],
                      "--n", self.infer_targets, "--seed", seed, "--out", d / "targets"),
                     ("targets/dataset.jsonl",))]

    def iteration_calls(self, seed: int, setup: Path, d: Path) -> list[Call]:
        """The timed calls; writes their RunConfig to `d` first."""
        d.mkdir(parents=True, exist_ok=True)
        (d / "runconfig.json").write_text(json.dumps(self.config(seed, d), indent=2) + "\n")
        c, out = self.runconfig, d / "infer"
        return [
            Call(("pipeline", "--config", d / "runconfig.json"),
                 ("dataset.jsonl", "weights.json", "model.json", "report.json")),
            Call(("sample", "--model", d / "model.json", "--targets", setup / "targets",
                  "--n-per-target", c["samples_per_target"], "--seed", seed, "--out", out),
                 ("infer/samples.jsonl",)),
            Call(("eval", "--model", d / "model.json", "--task", c["task"],
                  "--noise", c["noise"], "--n-targets", self.infer_targets,
                  "--samples-per-target", c["samples_per_target"], "--seed", seed,
                  "--out", out), ("infer/report.json",)),
        ]

    def checks(self, setup: Path, d: Path) -> list[tuple[str, str]]:
        c, n_t, k = self.runconfig, self.infer_targets, self.runconfig["samples_per_target"]
        d_x, d_y = TASK_DIMS[c["task"]]
        found = {
            "targets/dataset.jsonl": check_dataset(setup / "targets/dataset.jsonl", n_t),
            "dataset.jsonl": check_dataset(d / "dataset.jsonl", c["n"]),
            "weights.json": check_weights(d / "weights.json", c["n"]),
            "model.json": check_model(d / "model.json", d_x, d_y, c["blocks"]),
            "report.json": check_report(d / "report.json", c["n_targets"], k, baseline=False),
            "infer/report.json": check_report(d / "infer/report.json", n_t, k, baseline=False),
            "infer/samples.jsonl": check_samples(d / "infer/samples.jsonl", n_t, k, d_x, d_y),
        }
        return [(f, p) for f, ps in found.items() for p in ps]


@dataclass(frozen=True)
class Resim:
    """Inference only: set-up trains a weighted and an unweighted flow; the
    timed part samples designs for every dataset row and scores the
    weighted flow against the unweighted one by re-simulation.

    weights_s and train_s come from set-up here, so its stages are sized
    to about a second each: at 2 surrogate and 2 flow epochs they spread
    0.26 and 0.25 across seeds in wall time.
    """

    name: str = "resim"
    task: str = "kinematics"
    noise: str = "n_x"
    n: int = 2048
    surrogate_epochs: int = 20
    flow_epochs: int = 8
    blocks: int = 6
    hidden: tuple = (64, 64)
    per_target: int = 32
    setup_reps: int = 3

    def setup_calls(self, seed: int, d: Path) -> list[Call]:
        common = ("--blocks", self.blocks, "--hidden", *self.hidden,
                  "--epochs", self.flow_epochs, "--batch-size", 256, "--seed", seed)
        return [
            Call(("generate", "--task", self.task, "--noise", self.noise, "--n", self.n,
                  "--seed", seed, "--out", d), ("dataset.jsonl",)),
            Call(("weights", "--dataset", d, "--k", 5, "--epochs", self.surrogate_epochs,
                  "--batch-size", 128, "--threads", 1, "--seed", seed, "--out", d),
                 ("weights.json",)),
            Call(("train", "--dataset", d, "--weights", d / "weights.json", *common,
                  "--out", d / "weighted"), ("weighted/model.json",)),
            Call(("train", "--dataset", d, *common, "--out", d / "baseline"),
                 ("baseline/model.json",)),
        ]

    def iteration_calls(self, seed: int, setup: Path, d: Path) -> list[Call]:
        model = setup / "weighted" / "model.json"
        return [
            Call(("sample", "--model", model, "--targets", setup,
                  "--n-per-target", self.per_target, "--seed", seed, "--out", d),
                 ("samples.jsonl",)),
            Call(("eval", "--model", model, "--baseline", setup / "baseline" / "model.json",
                  "--task", self.task, "--noise", self.noise, "--n-targets", self.n,
                  "--samples-per-target", self.per_target, "--seed", seed, "--out", d),
                 ("report.json",)),
        ]

    def checks(self, setup: Path, d: Path) -> list[tuple[str, str]]:
        d_x, d_y = TASK_DIMS[self.task]
        found = {
            "dataset.jsonl": check_dataset(setup / "dataset.jsonl", self.n),
            "weights.json": check_weights(setup / "weights.json", self.n),
            "weighted/model.json": check_model(setup / "weighted/model.json", d_x, d_y, self.blocks),
            "baseline/model.json": check_model(setup / "baseline/model.json", d_x, d_y, self.blocks),
            "samples.jsonl": check_samples(d / "samples.jsonl", self.n, self.per_target, d_x, d_y),
            "report.json": check_report(d / "report.json", self.n, self.per_target, baseline=True),
        }
        return [(f, p) for f, ps in found.items() for p in ps]


_ROADMAP_RUNCONFIG = {
    "task": "kinematics", "noise": "n_x", "n": 2000, "threads": 1,
    "x_sigma": None, "y_sigma": None, "k_folds": 5, "tau": 1.0, "eps": 1e-3,
    "surrogate_epochs": 40, "surrogate_batch_size": 128,
    "blocks": 6, "hidden": [64, 64], "clamp": 2.0,
    "flow_epochs": 40, "flow_batch_size": 256, "learning_rate": 1e-3, "sigma_aug": 1e-3,
    "n_targets": 128, "samples_per_target": 16,
}

WORKLOADS = {
    w.name: w for w in (
        Pipeline("pipeline", _ROADMAP_RUNCONFIG),
        # threads=1: with two fold threads on two shared cores, weights_s
        # spread 0.27 across seeds, wider than any bound the benchmark may set
        Pipeline("pipeline-large", {
            **_ROADMAP_RUNCONFIG, "task": "ballistics", "noise": "n_xy", "n": 16000,
            "surrogate_epochs": 4, "surrogate_batch_size": 1024,
            "flow_epochs": 4, "flow_batch_size": 2000, "n_targets": 512,
        }, infer_targets=4096),  # its 2048-target calls take under half a second
        Resim(),
    )
}

# running ---------------------------------------------------------------------------

MIN_ITERATIONS = 3  # a median, and a repeat to compare hashes against


class Runner:
    """Runs ridkit in this process. With `speed`, a host-speed probe runs
    beside the program while `probing()`, and `own_seconds` reports timed
    intervals at the probe's reference speed; without it, as wall time."""

    def __init__(self, modules: dict, root: Path, clock=time.perf_counter,
                 speed: SpeedProbe | None = None):
        self.modules = modules
        self.root = root
        self.clock = clock
        self.tracer = Tracer(clock)
        self.untraced: set[str] = set()
        self.speed = speed

    def probing(self):
        return self.speed.running() if self.speed else contextlib.nullcontext()

    def own_seconds(self, a: float, b: float) -> float:
        return self.speed.own_seconds(a, b) if self.speed else b - a

    def main(self, argv) -> int:
        """`ridkit <argv>` in this process; returns the exit code."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.modules["ridkit.cli"].main([str(a) for a in argv])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
        except Exception:  # the console script would exit 1 with this traceback
            traceback.print_exc()
            return 1

    def window(self, calls: list[Call], d: Path, traced: bool) -> Window:
        points = STAGE_POINTS + LAYER_POINTS if traced else STAGE_POINTS
        ops, spans = [], []
        with self.tracer.installed(self.modules, points, POOLS if traced else ()) as missing:
            self.untraced.update(missing)
            start = self.clock()
            for call in calls:
                rc = self.main(call.argv)
                call_spans = self.tracer.drain()
                ops.extend(ops_for_call(call, rc, call_spans))
                spans.extend(call_spans)
                if rc != 0:
                    break
            wall = self.clock() - start
        win = Window(wall, ops, spans if traced else [], start=start)
        hash_outputs(win, d)
        return win

    def import_interval(self) -> tuple[float, float]:
        """Start of a fresh interpreter that imports the ridkit CLI; returns
        the clock readings before and after. The child process does the
        work, so no probe runs beside it."""
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        with self.speed.paused() if self.speed else contextlib.nullcontext():
            start = self.clock()
            subprocess.run([sys.executable, "-c", "import ridkit.cli"], cwd=self.root, env=env,
                           check=True, stdout=subprocess.DEVNULL)
            return start, self.clock()


@dataclass
class RunResult:
    ops: list[Op]
    problems: list[str]
    metrics: dict
    samples: dict
    hashes: dict

    @property
    def correct(self) -> bool:
        return not self.problems and all(op.ok for op in self.ops)


def run_workload(workload, seed: int, seconds: float, trace: bool, runner: Runner,
                 work: Path) -> RunResult:
    """Set-up, then timed iterations until `seconds` of iterating have
    passed, at least MIN_ITERATIONS of them.

    Set-up runs `setup_reps` times (once with `trace`): the first run makes
    the inputs the iterations use, and the others are interleaved with the
    iterations. With `trace`, iterations alternate traced and untraced,
    starting traced.
    """
    shutil.rmtree(work, ignore_errors=True)
    ops, problems = [], []
    setups: list[Window] = []
    setup_intervals: list[list[tuple[float, float]]] = []  # per set-up: import, then calls

    def set_up() -> bool:
        d = work / f"setup{len(setups)}"
        imported = [] if trace else [runner.import_interval()]
        win = runner.window(workload.setup_calls(seed, d), d, traced=trace)
        check_repeat(win, setups[0].hashes if setups else win.hashes)
        if setups:  # only the first set-up's outputs are used
            shutil.rmtree(d)
        setups.append(win)
        setup_intervals.append(imported + [(win.start, win.start + win.wall)])
        ops.extend(win.ops)
        return all(op.ok for op in win.ops)

    reps = 1 if trace else workload.setup_reps
    setup_dir = work / "setup0"
    iterations: list[tuple[bool, Window]] = []
    ref, mse = None, None
    with runner.probing():
        ok = set_up()
        t0, in_setup, i = runner.clock(), 0.0, 0
        while ok and (i < MIN_ITERATIONS or runner.clock() - t0 - in_setup < seconds):
            d = work / f"it{i}"
            traced = trace and i % 2 == 0
            win = runner.window(workload.iteration_calls(seed, setup_dir, d), d, traced)
            if ref is None:
                ref = win.hashes
                if all(op.ok for op in win.ops):
                    problems += fail_producers([setups[0], win], workload.checks(setup_dir, d))
                    mse = json.loads((d / "report.json").read_text())["mse"]
            check_repeat(win, ref)
            iterations.append((traced, win))
            ops.extend(win.ops)
            shutil.rmtree(d)
            i += 1
            ok = all(op.ok for op in win.ops)
            if ok and len(setups) < reps:
                start = runner.clock()
                ok = set_up()
                in_setup += runner.clock() - start
        while ok and len(setups) < reps:
            ok = set_up()

    if all(op.ok for op in ops):
        if trace:
            metrics, samples = layer_metrics(setups[0], iterations, mse, problems)
        else:
            metrics, samples = end_to_end_metrics(setups, setup_intervals, iterations,
                                                  runner.own_seconds)
    else:
        metrics, samples = {}, {}
    shutil.rmtree(work, ignore_errors=True)
    samples["run_s_each"] = [w.wall for _, w in iterations]
    hashes = {**setups[0].hashes, **(ref or {})}
    return RunResult(ops, problems, metrics, samples, hashes)


def end_to_end_metrics(setups, setup_intervals, iterations, own_seconds) -> tuple[dict, dict]:
    """Median of each timing over the run, with every timed interval taken
    through `own_seconds(start, end)`; `samples` gives the count behind each
    median and the plain wall-time median beside it."""
    wins = [w for _, w in iterations]
    intervals = {"setup_s": setup_intervals,
                 "run_s": [[(w.start, w.start + w.wall)] for w in wins]}
    timed_ops = [op for w in wins for op in w.ops]
    for metric, stage in STAGE_METRICS.items():
        # A separate call of the stage is preferred to the same stage inside
        # `ridkit pipeline`; a stage the timed part does not run at all is
        # timed where set-up runs it.
        for source in ([op for op in timed_ops if not op.in_pipeline], timed_ops,
                       [op for w in setups for op in w.ops]):
            spans = [[(op.start, op.start + op.seconds)] for op in source if op.stage == stage]
            if spans:
                intervals[metric] = spans
                break
    metrics, samples = {}, {}
    for name, each in intervals.items():
        metrics[name] = statistics.median(sum(own_seconds(a, b) for a, b in iv) for iv in each)
        samples[name] = {"n": len(each),
                         "wall_median": statistics.median(sum(b - a for a, b in iv) for iv in each)}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(setup: Window, iterations, mse: float, problems: list[str]) -> tuple[dict, dict]:
    """Per-layer numbers for one set-up plus the median traced iteration,
    and the re-simulation MSE of the workload's report.json (`mse`).

    Counts (calls, rows, bytes) must repeat exactly across traced
    iterations; a difference is a problem, so the run is not correct.
    """
    traced = [summarize(w.spans) for t, w in iterations if t]
    for name in sorted(set().union(*traced)):
        counts = {tuple(s.get(name, {}).get(k, 0) for k in ("calls", "rows", "bytes"))
                  for s in traced}
        if len(counts) > 1:
            problems.append(f"{name}: (calls, rows, bytes) differ across traced runs: {counts}")
    base = summarize(setup.spans)

    def stat(name: str, key: str) -> float:
        # counts repeat exactly, so median_low keeps them integers
        median = statistics.median if key in ("s", "self_s") else statistics.median_low
        return base.get(name, {}).get(key, 0) + median(s.get(name, {}).get(key, 0) for s in traced)

    metrics = {}
    for name, _ in PER_LAYER:
        if name == "weights.fold_overlap":
            fold = stat("neural.train_regressor", "s")
            stage = stat("weights.estimate_sample_robustness", "s")
            metrics[name] = fold / stage if stage else 0.0
        elif name == "evaluation.resim_mse":
            metrics[name] = mse
        elif name == "trace.overhead_s":
            metrics[name] = (statistics.median(w.wall for t, w in iterations if t)
                             - statistics.median(w.wall for t, w in iterations if not t))
        else:
            span, key = name.rsplit(".", 1)
            metrics[name] = stat(span, key)
    return metrics, {"traced": len(traced), "untraced": len(iterations) - len(traced)}
