import base64
import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from ridkit.cli import RunConfig, build_parser, main
from ridkit.evaluation import EvalConfig
from ridkit.fileio import (
    DATASET_FILE,
    DATASET_META_FILE,
    MODEL_FILE,
    REPORT_FILE,
    SAMPLES_FILE,
    SAMPLES_META_FILE,
    TRACE_FILE,
    WEIGHTS_FILE,
    read_dataset,
    read_json,
    read_weights,
    sha256_of,
    write_dataset,
)
from ridkit.flow import build_flow, flow_sample, flow_to_jsonable
from ridkit.seeding import derive_seed
from ridkit.tasks import Dataset, NoiseSpec, generate_dataset, make_task


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert run("generate", "--task", "radian", "--noise", "n_x",
               "--n", "120", "--seed", "1", "--out", out) == 0
    return out


def test_generate_counts_and_checksum(tmp_path, capsys):
    out = tmp_path / "d"
    assert run("generate", "--task", "radian", "--noise", "n_x",
               "--n", "200", "--seed", "3", "--out", out) == 0
    printed = capsys.readouterr().out
    assert "rows=200" in printed
    lines = (out / DATASET_FILE).read_text().splitlines()
    assert len(lines) == 200
    meta = read_json(out / DATASET_META_FILE)
    assert meta["task"]["name"] == "radian"
    assert meta["noise"]["mode"] == "n_x"
    assert meta["n"] == 200
    # same seed, same bytes
    out2 = tmp_path / "d2"
    run("generate", "--task", "radian", "--noise", "n_x",
        "--n", "200", "--seed", "3", "--out", out2)
    assert sha256_of(out / DATASET_FILE) == sha256_of(out2 / DATASET_FILE)


def test_generate_rejects_zero_rows(tmp_path):
    code = run("generate", "--task", "radian", "--n", "0",
               "--seed", "1", "--out", tmp_path / "x")
    assert code == 2


def test_dataset_round_trip(tmp_path):
    task = make_task("ballistics")
    ds = generate_dataset(task, NoiseSpec(mode="n_xy"), 40, seed=9)
    write_dataset(tmp_path, ds)
    back = read_dataset(tmp_path)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.task.name == "ballistics"
    assert back.noise.mode == "n_xy"


def test_weights_command_tau_zero(dataset_dir, capsys):
    assert run("weights", "--dataset", dataset_dir, "--k", "3", "--tau", "0.0",
               "--epochs", "5", "--seed", "2", "--out", dataset_dir) == 0
    printed = capsys.readouterr().out
    assert "min=1.001000" in printed and "max=1.001000" in printed
    w, source_sha256 = read_weights(dataset_dir / WEIGHTS_FILE)
    assert w.shape == (120,)
    assert read_json(dataset_dir / WEIGHTS_FILE)["config"] == {
        "k_folds": 3, "tau": 0.0, "eps": 1e-3, "epochs": 5, "batch_size": 128, "seed": 2}
    assert source_sha256 == sha256_of(dataset_dir / DATASET_FILE)
    np.testing.assert_allclose(w, np.full(120, 1.001), rtol=1e-12)


def test_train_sample_eval_pipeline(dataset_dir, tmp_path):
    model_dir = tmp_path / "model"
    assert run("train", "--dataset", dataset_dir, "--blocks", "2",
               "--hidden", "8", "--epochs", "3", "--batch-size", "64",
               "--seed", "4", "--out", model_dir) == 0
    trace = read_json(model_dir / TRACE_FILE)
    assert trace["format_version"] == 1
    assert len(trace["loss"]) == 3
    assert trace["weighted"] is False

    sample_dir = tmp_path / "samples"
    assert run("sample", "--model", model_dir / MODEL_FILE, "--targets",
               dataset_dir / DATASET_FILE, "--n-per-target", "2",
               "--seed", "5", "--out", sample_dir) == 0
    rows = [json.loads(l) for l in (sample_dir / SAMPLES_FILE).read_text().splitlines()]
    assert len(rows) == 120
    assert len(rows[0]["samples"]) == 2

    eval_dir = tmp_path / "eval"
    assert run("eval", "--model", model_dir / MODEL_FILE, "--task", "radian",
               "--noise", "n_x", "--n-targets", "16", "--samples-per-target", "4",
               "--seed", "6", "--out", eval_dir) == 0
    report = read_json(eval_dir / REPORT_FILE)
    assert report["mse"] >= 0.0
    assert len(report["per_target_losses"]) == 16
    assert "wall_clock_seconds" not in report  # timing is printed, never written
    assert report["config"] == asdict(
        EvalConfig(n_targets=16, samples_per_target=4, seed=derive_seed(6, "eval")))
    # the model is unweighted: the report names it by model_sha256 and
    # claims no method
    assert "method" not in report
    assert report["format_version"] == 2


def test_eval_with_baseline_adds_comparison(dataset_dir, tmp_path):
    m1 = tmp_path / "m1"
    m2 = tmp_path / "m2"
    for seed, out in ((7, m1), (8, m2)):
        assert run("train", "--dataset", dataset_dir, "--blocks", "2",
                   "--hidden", "8", "--epochs", "2", "--batch-size", "64",
                   "--seed", seed, "--out", out) == 0
    eval_dir = tmp_path / "cmp"
    assert run("eval", "--model", m1 / MODEL_FILE, "--baseline", m2 / MODEL_FILE,
               "--task", "radian", "--noise", "n_x", "--n-targets", "8",
               "--samples-per-target", "4", "--seed", "9", "--out", eval_dir) == 0
    rep = read_json(eval_dir / REPORT_FILE)
    assert list(rep) == ["format_version", "kind", "task", "noise_mode", "config", "mse",
                         "std_error", "per_target_losses", "comparison", "model_sha256",
                         "baseline_sha256"]
    assert list(rep["comparison"]) == ["baseline_mse", "t", "p"]
    assert 0.0 <= rep["comparison"]["p"] <= 1.0
    assert rep["model_sha256"] == sha256_of(m1 / MODEL_FILE)
    assert rep["baseline_sha256"] == sha256_of(m2 / MODEL_FILE)
    # the statistics are those of the written losses, exactly; the baseline
    # scored alone at the same seed gives the baseline's losses
    losses = np.asarray(rep["per_target_losses"])
    assert rep["mse"] == float(losses.mean())
    assert rep["std_error"] == float(losses.std(ddof=1) / math.sqrt(losses.size))
    assert run("eval", "--model", m2 / MODEL_FILE, "--task", "radian", "--noise", "n_x",
               "--n-targets", "8", "--samples-per-target", "4", "--seed", "9",
               "--out", tmp_path / "base") == 0
    base_losses = np.asarray(read_json(tmp_path / "base" / REPORT_FILE)["per_target_losses"])
    assert rep["comparison"]["baseline_mse"] == float(base_losses.mean())


def test_eval_checks_the_baseline_before_scoring_the_model(model_file, tmp_path, capsys,
                                                           monkeypatch):
    # a baseline of 3 design coordinates, where the radian task has 2
    other = tmp_path / "other_task.json"
    other.write_text(json.dumps(
        flow_to_jsonable(build_flow(3, 1, n_blocks=2, hidden=(8,), seed=0), "0" * 64, None)))
    calls = []
    monkeypatch.setattr("ridkit.cli.resimulation_error", lambda *a: calls.append(a))
    out = tmp_path / "o"
    assert run("eval", "--model", model_file, "--baseline", other, "--task", "radian",
               "--n-targets", "4", "--out", out) == 3
    assert capsys.readouterr().err == (
        f"data error: --baseline {other}: d_x=3, d_y=1 do not fit task radian\n")
    assert calls == []
    assert not (out / REPORT_FILE).exists()


def test_model_vs_itself_gives_p_one(dataset_dir, tmp_path):
    m1 = tmp_path / "m1"
    assert run("train", "--dataset", dataset_dir, "--blocks", "2", "--hidden", "8",
               "--epochs", "2", "--batch-size", "64", "--seed", "7", "--out", m1) == 0
    eval_dir = tmp_path / "self"
    assert run("eval", "--model", m1 / MODEL_FILE, "--baseline", m1 / MODEL_FILE,
               "--task", "radian", "--noise", "n_x", "--n-targets", "8",
               "--samples-per-target", "4", "--seed", "9", "--out", eval_dir) == 0
    rep = read_json(eval_dir / REPORT_FILE)
    assert rep["comparison"]["t"] == 0.0
    assert rep["comparison"]["p"] == 1.0


def test_train_weights_misalignment_is_data_error(dataset_dir, tmp_path):
    short = tmp_path / "short"
    assert run("generate", "--task", "radian", "--noise", "n_x", "--n", "30",
               "--seed", "1", "--out", short) == 0
    assert run("weights", "--dataset", short, "--k", "3", "--tau", "1.0",
               "--epochs", "2", "--seed", "2", "--out", short) == 0
    code = run("train", "--dataset", dataset_dir, "--weights", short / WEIGHTS_FILE,
               "--blocks", "2", "--hidden", "8", "--epochs", "1",
               "--seed", "3", "--out", tmp_path / "m")
    assert code == 3


def test_weights_from_another_dataset_of_equal_size_is_data_error(dataset_dir, tmp_path, capsys):
    other = tmp_path / "other"
    assert run("generate", "--task", "radian", "--noise", "n_x", "--n", "120",
               "--seed", "2", "--out", other) == 0
    for data in (dataset_dir, other):
        assert run("weights", "--dataset", data, "--k", "2", "--epochs", "1",
                   "--out", data) == 0
    train = ("--blocks", "2", "--hidden", "8", "--epochs", "1", "--out", tmp_path / "m")
    assert run("train", "--dataset", other, "--weights", other / WEIGHTS_FILE, *train) == 0
    capsys.readouterr()
    assert run("train", "--dataset", dataset_dir, "--weights", other / WEIGHTS_FILE, *train) == 3
    assert sha256_of(other / DATASET_FILE) in capsys.readouterr().err


def test_weights_file_of_format_version_one_is_data_error(dataset_dir, tmp_path, capsys):
    assert run("weights", "--dataset", dataset_dir, "--k", "2", "--epochs", "1",
               "--out", tmp_path) == 0
    doc = read_json(tmp_path / WEIGHTS_FILE)
    assert doc["format_version"] == 3
    del doc["dataset_sha256"]
    doc["format_version"] = 1
    (tmp_path / WEIGHTS_FILE).write_text(json.dumps(doc))
    assert run("train", "--dataset", dataset_dir, "--weights", tmp_path / WEIGHTS_FILE,
               "--blocks", "2", "--hidden", "8", "--epochs", "1", "--out", tmp_path / "m") == 3
    assert "format_version 1" in capsys.readouterr().err


def test_omitted_weights_equals_all_ones_file(dataset_dir, tmp_path):
    ones = {
        "format_version": 3,
        "kind": "sample-weights",
        "dataset_sha256": sha256_of(dataset_dir / DATASET_FILE),
        "config": {"k_folds": 2, "tau": 0.0, "eps": 1e-3, "epochs": 1, "batch_size": 8,
                   "seed": 0},
        "weights": [1.0] * 120,
    }
    wfile = tmp_path / "ones.json"
    wfile.write_text(json.dumps(ones))
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    for weights_args, out in (([], m1), (["--weights", wfile], m2)):
        assert run("train", "--dataset", dataset_dir, *weights_args,
                   "--blocks", "2", "--hidden", "8", "--epochs", "3",
                   "--batch-size", "64", "--seed", "11", "--out", out) == 0
    t1 = read_json(m1 / TRACE_FILE)["loss"]
    t2 = read_json(m2 / TRACE_FILE)["loss"]
    assert t1 == t2


def test_model_names_its_training_inputs_by_sha256(dataset_dir, tmp_path):
    assert run("weights", "--dataset", dataset_dir, "--k", "2", "--epochs", "1",
               "--out", dataset_dir) == 0
    train = ("--dataset", dataset_dir, "--blocks", "2", "--hidden", "8", "--epochs", "1")
    assert run("train", *train, "--weights", dataset_dir / WEIGHTS_FILE,
               "--out", tmp_path / "w") == 0
    assert run("train", *train, "--out", tmp_path / "u") == 0
    weighted, unweighted = (read_json(tmp_path / d / MODEL_FILE) for d in ("w", "u"))
    assert weighted["format_version"] == unweighted["format_version"] == 4
    assert weighted["dataset_sha256"] == sha256_of(dataset_dir / DATASET_FILE)
    assert unweighted["dataset_sha256"] == weighted["dataset_sha256"]
    assert weighted["weights_sha256"] == sha256_of(dataset_dir / WEIGHTS_FILE)
    assert unweighted["weights_sha256"] is None


def test_weights_that_are_not_json_numbers_are_data_error_naming_the_file(dataset_dir,
                                                                          tmp_path, capsys):
    wfile = tmp_path / "weights_strings.json"
    wfile.write_text(json.dumps({
        "format_version": 3, "kind": "sample-weights",
        "dataset_sha256": sha256_of(dataset_dir / DATASET_FILE),
        "config": {"k_folds": 2, "tau": 1.0, "eps": 1e-3, "epochs": 1, "batch_size": 8,
                   "seed": 0},
        "weights": ["1.5", True, 2] + [1.0] * 117,
    }))
    assert run("train", "--dataset", dataset_dir, "--weights", wfile, "--blocks", "2",
               "--hidden", "8", "--epochs", "1", "--out", tmp_path / "m") == 3
    assert capsys.readouterr().err == (
        f"data error: malformed weights file {wfile}: 'weights' must hold JSON numbers "
        "only, not a str\n")


def test_model_row_of_the_wrong_length_is_data_error_naming_it(model_file, dataset_dir,
                                                                tmp_path, capsys):
    doc = read_json(model_file)
    doc["x_shift"].append(0.0)
    bad = tmp_path / "long_shift.json"
    bad.write_text(json.dumps(doc))
    assert run("sample", "--model", bad, "--targets", dataset_dir, "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err == (
        f"data error: --model {bad}: coupling-flow x_shift has 3 entries, not 2\n")
    assert not (tmp_path / "o" / SAMPLES_FILE).exists()


def test_dataset_rows_that_do_not_fit_its_task_are_data_error(dataset_dir, tmp_path, capsys):
    # radian rows, 2 x and 1 y values each, under a kinematics meta file
    meta = read_json(dataset_dir / DATASET_META_FILE)
    meta["task"] = asdict(make_task("kinematics"))
    (dataset_dir / DATASET_META_FILE).write_text(json.dumps(meta))
    out = tmp_path / "o"
    assert run("weights", "--dataset", dataset_dir, "--k", "2", "--epochs", "1",
               "--out", out) == 3
    assert capsys.readouterr().err == (
        "data error: task kinematics has d_x 4 and d_y 2, but the rows hold 2 x and 1 y "
        "values\n")
    assert not (out / WEIGHTS_FILE).exists()


def test_missing_dataset_is_data_error(tmp_path):
    code = run("weights", "--dataset", tmp_path / "nope", "--out", tmp_path)
    assert code == 3


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 25, "seed": 42}))
    out = tmp_path / "o"
    assert run("--config", cfg, "generate", "--task", "radian", "--noise", "n_x",
               "--n", "5", "--seed", "1", "--out", out) == 0
    assert read_json(out / DATASET_META_FILE)["n"] == 25


def test_pipeline_reproducible_reports(tmp_path):
    run_cfg = {
        "task": "radian",
        "noise": "n_x",
        "n": 80,
        "seed": 12,
        "k_folds": 3,
        "tau": 1.0,
        "surrogate_epochs": 3,
        "blocks": 2,
        "hidden": [8],
        "flow_epochs": 2,
        "flow_batch_size": 40,
        "n_targets": 8,
        "samples_per_target": 2,
        "threads": 1,
    }
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = dict(run_cfg, out=str(out))
        cfg_file = tmp_path / f"{name}.json"
        cfg_file.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", cfg_file) == 0
        reports.append((out / REPORT_FILE).read_bytes())
    assert reports[0] == reports[1]


def test_subcommand_config_rejects_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 25, "flow_epochs": 3}))
    code = run("--config", cfg, "generate", "--task", "radian", "--n", "5",
               "--out", tmp_path / "o")
    assert code == 2
    assert "flow_epochs" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverging_fold_exits_numeric_with_fold_id(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.standard_normal((40, 2)), y=np.full((40, 1), 1e300),
                   task=make_task("radian"), noise=NoiseSpec(mode="none"), seed=0)
    write_dataset(tmp_path, data)
    code = run("weights", "--dataset", tmp_path, "--k", "2", "--epochs", "1",
               "--out", tmp_path / "w")
    assert code == 4
    assert "fold 0" in capsys.readouterr().err


def test_non_finite_weights_file_is_data_error(dataset_dir, tmp_path, capsys):
    assert run("weights", "--dataset", dataset_dir, "--k", "3", "--epochs", "1",
               "--out", tmp_path) == 0
    doc = read_json(tmp_path / WEIGHTS_FILE)
    doc["weights"][5] = float("nan")
    (tmp_path / WEIGHTS_FILE).write_text(json.dumps(doc))
    code = run("train", "--dataset", dataset_dir, "--weights", tmp_path / WEIGHTS_FILE,
               "--blocks", "2", "--hidden", "8", "--epochs", "1", "--out", tmp_path / "m")
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_non_finite_dataset_file_is_data_error(dataset_dir, tmp_path, capsys):
    path = dataset_dir / DATASET_FILE
    rows = path.read_text().splitlines()
    row = json.loads(rows[3])
    row["x"][0] = float("inf")
    rows[3] = json.dumps(row)
    path.write_text("\n".join(rows) + "\n")
    code = run("train", "--dataset", dataset_dir, "--blocks", "2", "--hidden", "8",
               "--epochs", "1", "--out", tmp_path / "m")
    assert code == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["subcommand", "pipeline"])
def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys, where):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    if where == "subcommand":
        code = run("--config", cfg, "generate", "--task", "radian", "--n", "5",
                   "--out", tmp_path / "o")
    else:
        code = run("pipeline", "--config", cfg)
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


def test_subcommand_config_value_of_wrong_type_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "abc"}))
    out = tmp_path / "o"
    assert run("--config", cfg, "generate", "--task", "radian", "--n", "5", "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("generate", "--task", "radian", "--n", "5"),
    ("weights", "--dataset", "d"),
    ("train", "--dataset", "d"),
    ("sample", "--model", "m", "--targets", "t"),
    ("eval", "--model", "m", "--task", "radian"),
], ids=lambda argv: argv[0])
def test_subcommand_defaults_are_runconfig_defaults(argv):
    argv = [*argv, "--out", "o"]
    names = {f.name for f in fields(RunConfig)}
    unset = {k: v for k, v in vars(build_parser().parse_args(argv)).items()
             if k in names and f"--{k}" not in argv}
    assert unset and unset == {k: getattr(RunConfig, k) for k in unset}


def test_sample_meta_names_the_model_by_hash_not_path(model_file, dataset_dir, tmp_path,
                                                     monkeypatch):
    copy = tmp_path / "elsewhere" / "copy.json"
    copy.parent.mkdir()
    copy.write_bytes(model_file.read_bytes())
    monkeypatch.chdir(model_file.parent)
    metas = []
    for model, out in ((MODEL_FILE, tmp_path / "s1"), (copy, tmp_path / "s2")):
        assert run("sample", "--model", model, "--targets", dataset_dir, "--n-per-target", "2",
                   "--seed", "3", "--out", out) == 0
        metas.append((out / SAMPLES_META_FILE).read_bytes())
    assert metas[0] == metas[1]
    assert json.loads(metas[0])["model_sha256"] == sha256_of(model_file)
    assert json.loads(metas[0])["format_version"] == 2


def _non_finite_target(tmp_path, model_file, data, out):
    targets = tmp_path / "targets.jsonl"
    targets.write_text('{"y": [0.5]}\n{"y": [NaN]}\n')
    return ("sample", "--model", model_file, "--targets", targets, "--out", out), targets


def _targets_of_another_width(tmp_path, model_file, data, out):
    targets = tmp_path / "targets.jsonl"
    targets.write_text('{"y": [0.5, 1.0]}\n')
    return ("sample", "--model", model_file, "--targets", targets, "--out", out), targets


def _meta_without_task(tmp_path, model_file, data, out):
    meta = read_json(data / DATASET_META_FILE)
    del meta["task"]
    (data / DATASET_META_FILE).write_text(json.dumps(meta))
    return (("train", "--dataset", data, "--blocks", "2", "--hidden", "8", "--epochs", "1",
             "--out", out), data / DATASET_META_FILE)


def _dataset_version_seven(tmp_path, model_file, data, out):
    meta = read_json(data / DATASET_META_FILE)
    meta["format_version"] = 7
    (data / DATASET_META_FILE).write_text(json.dumps(meta))
    return (("weights", "--dataset", data, "--k", "2", "--epochs", "1", "--out", out),
            data / DATASET_META_FILE)


def _sample_with_non_model(tmp_path, model_file, data, out):
    return (("sample", "--model", data / DATASET_META_FILE, "--targets", data, "--out", out),
            f"--model {data / DATASET_META_FILE}: ")


def _eval_with_non_model(tmp_path, model_file, data, out):
    return (("eval", "--model", data / DATASET_META_FILE, "--task", "radian",
             "--n-targets", "4", "--out", out), f"--model {data / DATASET_META_FILE}: ")


def _model_missing_field(tmp_path, model_file, data, out):
    doc = read_json(model_file)
    del doc["subnets"][0]["t"]
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    return (("eval", "--model", model_file, "--baseline", bad, "--task", "radian",
             "--n-targets", "4", "--out", out), f"--baseline {bad}: ")


def _baseline_for_another_task(tmp_path, model_file, data, out):
    # a model of 3 design coordinates, where the radian task has 2
    doc = flow_to_jsonable(build_flow(3, 1, n_blocks=2, hidden=(8,), seed=0), "0" * 64, None)
    other = tmp_path / "other_task.json"
    other.write_text(json.dumps(doc))
    return (("eval", "--model", model_file, "--baseline", other, "--task", "radian",
             "--n-targets", "4", "--out", out),
            f"--baseline {other}: d_x=3, d_y=1 do not fit task radian")


def _model_without_blocks(tmp_path, model_file, data, out):
    doc = read_json(model_file)
    doc.update(masks=[], subnets=[], permutations=[])
    bad = tmp_path / "no_blocks.json"
    bad.write_text(json.dumps(doc))
    return ("sample", "--model", bad, "--targets", data, "--out", out), f"--model {bad}: "


def _layer_values(text):
    """The entries a model.json layer string holds."""
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8")


def _layer_text(values):
    """A model.json layer string holding the given entries."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _model_nan_weight(tmp_path, model_file, data, out):
    doc = read_json(model_file)
    values = _layer_values(doc["subnets"][0]["s"][0]).copy()
    values[0] = float("nan")
    doc["subnets"][0]["s"][0] = _layer_text(values)
    bad = tmp_path / "nan_weight.json"
    bad.write_text(json.dumps(doc))
    return (("sample", "--model", bad, "--targets", data, "--out", out),
            f"--model {bad}: coupling-flow block 0 s layer 0 must be finite")


def _model_zero_scale(tmp_path, model_file, data, out):
    doc = read_json(model_file)
    doc["x_scale"][0] = 0.0
    bad = tmp_path / "zero_scale.json"
    bad.write_text(json.dumps(doc))
    return (("eval", "--model", bad, "--task", "radian", "--n-targets", "4", "--out", out),
            f"--model {bad}: ")


def _model_extra_subnet(tmp_path, model_file, data, out):
    # one more subnet than masks and permutations: loading must not drop it
    doc = read_json(model_file)
    doc["subnets"].append(doc["subnets"][-1])
    bad = tmp_path / "extra_subnet.json"
    bad.write_text(json.dumps(doc))
    return ("sample", "--model", bad, "--targets", data, "--out", out), f"--model {bad}: "


def _model_version_one(tmp_path, model_file, data, out):
    # flow format 1 did not name the model's training inputs
    doc = read_json(model_file)
    del doc["dataset_sha256"], doc["weights_sha256"]
    doc["format_version"] = 1
    bad = tmp_path / "version_one.json"
    bad.write_text(json.dumps(doc))
    return ("sample", "--model", bad, "--targets", data, "--out", out), f"--model {bad}: "


def _model_version_two(tmp_path, model_file, data, out):
    # flow format 2 had no top-level hidden widths: each subnet was an MLP
    # document with widths of its own
    doc = read_json(model_file)
    del doc["hidden"]
    doc["format_version"] = 2
    bad = tmp_path / "version_two.json"
    bad.write_text(json.dumps(doc))
    return ("sample", "--model", bad, "--targets", data, "--out", out), f"--model {bad}: "


def _model_version_three(tmp_path, model_file, data, out):
    # flow format 3 held each subnet layer as the flat list of its entries
    doc = read_json(model_file)
    for sub in doc["subnets"]:
        for name in ("s", "t"):
            sub[name] = [_layer_values(text).tolist() for text in sub[name]]
    doc["format_version"] = 3
    bad = tmp_path / "version_three.json"
    bad.write_text(json.dumps(doc))
    return (("sample", "--model", bad, "--targets", data, "--out", out),
            f"--model {bad}: unsupported flow format_version 3")


def _model_uppercase_hash(tmp_path, model_file, data, out):
    doc = read_json(model_file)
    doc["dataset_sha256"] = doc["dataset_sha256"].upper()
    bad = tmp_path / "uppercase_hash.json"
    bad.write_text(json.dumps(doc))
    return (("eval", "--model", bad, "--task", "radian", "--n-targets", "4", "--out", out),
            f"--model {bad}: ")


def _model_narrow_subnet(tmp_path, model_file, data, out):
    # block 0's output layers give one value for its two active coordinates,
    # which would broadcast into both: 9 entries where (8 + 1, 2) needs 18
    doc = flow_to_jsonable(build_flow(4, 1, n_blocks=2, hidden=(8,), seed=0), "0" * 64, None)
    for name in ("s", "t"):
        doc["subnets"][0][name][-1] = _layer_text([0.0] * 9)
    bad = tmp_path / "narrow_subnet.json"
    bad.write_text(json.dumps(doc))
    return (("sample", "--model", bad, "--targets", data, "--out", out),
            f"--model {bad}: coupling-flow block 0 s layer 1 has 9 entries, not 18")


def _weights_version_two(tmp_path, model_file, data, out):
    # weights format 2 carried the surrogate shape in its config; version 3 has none
    weights = tmp_path / "weights_v2.json"
    weights.write_text(json.dumps({
        "format_version": 2, "kind": "sample-weights",
        "dataset_sha256": sha256_of(data / DATASET_FILE),
        "config": {"k_folds": 2, "tau": 1.0, "eps": 1e-3, "surrogate_hidden": [64, 64],
                   "surrogate_activation": "tanh", "epochs": 1, "batch_size": 8, "seed": 0},
        "weights": [1.0] * 120,
    }))
    return (("train", "--dataset", data, "--weights", weights, "--blocks", "2", "--hidden", "8",
             "--epochs", "1", "--out", out), weights)


def _weights_not_a_list(tmp_path, model_file, data, out):
    # a number where the list of weights goes, for the dataset it is given
    weights = tmp_path / "weights_number.json"
    weights.write_text(json.dumps({
        "format_version": 3, "kind": "sample-weights",
        "dataset_sha256": sha256_of(data / DATASET_FILE),
        "config": {"k_folds": 2, "tau": 1.0, "eps": 1e-3, "epochs": 1, "batch_size": 8,
                   "seed": 0},
        "weights": 1.0,
    }))
    return (("train", "--dataset", data, "--weights", weights, "--blocks", "2", "--hidden", "8",
             "--epochs", "1", "--out", out), weights)


def _model_extra_layer(tmp_path, model_file, data, out):
    # one more layer than the subnet's spec has: loading must not drop it
    doc = read_json(model_file)
    layers = doc["subnets"][0]["s"]
    layers.append(layers[-1])
    bad = tmp_path / "extra_layer.json"
    bad.write_text(json.dumps(doc))
    return (("sample", "--model", bad, "--targets", data, "--out", out),
            f"--model {bad}: coupling-flow block 0 s subnet has 3 layers, not 2")


@pytest.mark.parametrize("make_argv", [
    _non_finite_target, _meta_without_task, _sample_with_non_model, _eval_with_non_model,
    _model_missing_field, _model_without_blocks, _model_nan_weight, _model_zero_scale,
    _model_extra_subnet, _model_extra_layer, _weights_version_two, _model_narrow_subnet,
    _weights_not_a_list, _model_version_one, _model_version_two, _model_uppercase_hash,
    _targets_of_another_width, _dataset_version_seven, _baseline_for_another_task,
    _model_version_three,
], ids=["sample-nan-target", "train-meta-without-task", "sample-non-model",
        "eval-non-model", "eval-baseline-missing-field", "sample-model-without-blocks",
        "sample-model-nan-weight", "eval-model-zero-scale", "sample-model-extra-subnet",
        "sample-model-extra-layer", "train-weights-version-two", "sample-model-narrow-subnet",
        "train-weights-not-a-list", "sample-model-version-one", "sample-model-version-two",
        "eval-model-uppercase-hash", "sample-targets-of-another-width",
        "weights-dataset-version-seven", "eval-baseline-for-another-task",
        "sample-model-version-three"])
def test_malformed_input_is_data_error(model_file, dataset_dir, tmp_path, capsys, make_argv):
    # the error names the file at fault, and a model file the flag that gave it
    out = tmp_path / "o"
    argv, named = make_argv(tmp_path, model_file, dataset_dir, out)
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert str(named) in err
    assert not (out / SAMPLES_FILE).exists()


@pytest.mark.parametrize("argv, path", [
    (("generate", "--task", "radian", "--n", "5", "--out", "{data}/dataset.jsonl"),
     "{data}/dataset.jsonl"),
    (("train", "--dataset", "{data}", "--blocks", "2", "--hidden", "8", "--epochs", "1",
      "--out", "{data}/dataset.jsonl"), "{data}/dataset.jsonl"),
    (("sample", "--model", "{data}", "--targets", "{data}", "--out", "{tmp}/o"), "{data}"),
], ids=["generate-out-is-a-file", "train-out-is-a-file", "sample-model-is-a-directory"])
def test_unusable_path_is_data_error_naming_it(dataset_dir, tmp_path, capsys, monkeypatch,
                                               argv, path):
    def fit(*args, **kwargs):
        raise AssertionError("training started before --out was checked")

    monkeypatch.setattr("ridkit.cli.train_flow_wnll", fit)
    dataset = (dataset_dir / DATASET_FILE).read_bytes()
    argv = [a.format(data=dataset_dir, tmp=tmp_path) for a in argv]
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert repr(path.format(data=dataset_dir)) in err
    assert (dataset_dir / DATASET_FILE).read_bytes() == dataset


def test_dataset_row_that_is_not_an_object_is_data_error(dataset_dir, tmp_path, capsys):
    data = dataset_dir / DATASET_FILE
    lines = data.read_text().splitlines()
    lines[3] = "[1, 2]"
    data.write_text("\n".join(lines) + "\n")
    assert run("weights", "--dataset", dataset_dir, "--k", "2", "--epochs", "1",
               "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err == (
        f"data error: {data}: line 4 is not a JSON object with 'x' and 'y'\n")


@pytest.mark.parametrize("line, message", [
    ('{"x": [1.0, 2.0, 3.0], "y": [0.5]}', "line 4: 'x' is not a list of 2 numbers like line 1's"),
    ('{"x": [1.0, 2.0], "y": {"a": 1}}', "line 4: 'y' is not a list of 1 numbers like line 1's"),
    ('{"x": [1.0, "two"], "y": [0.5]}', "line 4: 'x' is not a list of 2 numbers like line 1's"),
], ids=["ragged-x", "object-y", "string-in-x"])
def test_dataset_row_with_a_misshapen_field_is_data_error(dataset_dir, tmp_path, capsys, line,
                                                          message):
    data = dataset_dir / DATASET_FILE
    lines = data.read_text().splitlines()
    lines[3] = line
    data.write_text("\n".join(lines) + "\n")
    assert run("weights", "--dataset", dataset_dir, "--k", "2", "--epochs", "1",
               "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err == f"data error: {data}: {message}\n"


@pytest.mark.parametrize("text, message", [
    ('{"y": [0.5]}\n[1, 2]\n', "line 2 is not a JSON object with 'y'"),
    ("", "no target rows"),
    ('{"y": [0.5]}\n{"y": [0.25]}\n{"y": [1, 2]}\n',
     "line 3: 'y' is not a list of 1 numbers like line 1's"),
    ('{"y": 0.5}\n{"y": [1]}\n', "line 2: 'y' is not a number like line 1's"),
    ('{"y": {"a": 1}}\n', "line 1: 'y' is not a number or a list of numbers"),
    ('{"y": [0.5]}\n{"y": {"a": 1}}\n', "line 2: 'y' is not a list of 1 numbers like line 1's"),
], ids=["list-row", "empty", "ragged-row", "list-after-number", "object-field",
        "object-field-after-list"])
def test_targets_file_without_object_rows_is_data_error(model_file, tmp_path, capsys, text,
                                                        message):
    targets = tmp_path / "targets.jsonl"
    targets.write_text(text)
    assert run("sample", "--model", model_file, "--targets", targets,
               "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err == f"data error: {targets}: {message}\n"


@pytest.fixture
def model_file(dataset_dir, tmp_path):
    out = tmp_path / "model"
    assert run("train", "--dataset", dataset_dir, "--blocks", "2", "--hidden", "8",
               "--epochs", "1", "--out", out) == 0
    return out / MODEL_FILE


@pytest.mark.parametrize("module, argv, artifact, what", [
    ("ridkit.cli", ("sample", "--model", "{model}", "--targets", "{data}",
                    "--n-per-target", "4"), SAMPLES_FILE, "design"),
    ("ridkit.evaluation", ("eval", "--model", "{model}", "--task", "radian",
                           "--n-targets", "8", "--samples-per-target", "4"),
     REPORT_FILE, "re-simulation loss"),
], ids=["sample", "eval"])
def test_non_finite_design_exits_numeric_naming_the_row(model_file, dataset_dir, tmp_path,
                                                        capsys, monkeypatch, module, argv,
                                                        artifact, what):
    def nan_at_row_3(model, y, n_per_row, seed):
        designs = flow_sample(model, y, n_per_row, seed)
        designs[3 * n_per_row + 1, 0] = np.nan
        return designs

    monkeypatch.setattr(f"{module}.flow_sample", nan_at_row_3)
    out = tmp_path / "o"
    argv = [a.format(model=model_file, data=dataset_dir) for a in argv]
    assert run(*argv, "--out", out) == 4
    assert capsys.readouterr().err == f"numerical failure: non-finite {what} for target row 3\n"
    assert not (out / artifact).exists()


@pytest.mark.parametrize("argv", [
    ("generate", "--task", "radian", "--noise", "n_x", "--n", "5", "--x-sigma", "-1"),
    ("train", "--dataset", "{data}", "--epochs", "0"),
    ("train", "--dataset", "{data}", "--blocks", "0"),
    ("train", "--dataset", "{data}", "--lr", "-1"),
    ("train", "--dataset", "{data}", "--clamp", "0"),
    ("weights", "--dataset", "{data}", "--k", "1"),
    ("weights", "--dataset", "{data}", "--epochs", "0"),
    ("weights", "--dataset", "{data}", "--batch-size", "0"),
    ("weights", "--dataset", "{data}", "--threads", "0"),
    ("eval", "--model", "{model}", "--task", "radian", "--n-targets", "0"),
    ("sample", "--model", "{model}", "--targets", "{data}", "--n-per-target", "0"),
    ("generate", "--task", "radian", "--n", "5", "--seed", "-1"),
    ("weights", "--dataset", "{data}", "--seed", "-5"),
    # Welch's t-test needs two losses per model, so this fails before either model is read
    ("eval", "--model", "{data}", "--baseline", "{data}", "--task", "radian",
     "--n-targets", "1"),
    # and a standard error needs two losses, so this fails before the model is read too
    ("eval", "--model", "{data}", "--task", "radian", "--n-targets", "1"),
    ("weights", "--dataset", "{data}", "--tau", "nan"),
    ("weights", "--dataset", "{data}", "--eps", "inf"),
    ("train", "--dataset", "{data}", "--sigma-aug", "nan"),
], ids=["generate-x-sigma", "train-epochs", "train-blocks", "train-lr", "train-clamp",
        "weights-k", "weights-epochs", "weights-batch-size", "weights-threads", "eval-n-targets",
        "sample-n-per-target", "generate-seed", "weights-seed", "eval-baseline-one-target",
        "eval-one-target", "weights-tau-nan", "weights-eps-inf", "train-sigma-aug-nan"])
def test_out_of_range_flag_is_usage_error(dataset_dir, model_file, tmp_path, capsys, argv):
    argv = [a.format(data=dataset_dir, model=model_file) for a in argv]
    out = tmp_path / "o"
    assert run(*argv, "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("field", [
    {"n": "abc"}, {"hidden": 8}, {"task": "nope"}, {"bogus": 1}, {"flow_epochs": 0},
    {"blocks": 0}, {"hidden": [0]}, {"n_targets": 0}, {"threads": -2}, {"clamp": 0},
    {"n": 5, "k_folds": 5}, {"seed": -1}, {"tau": float("nan")}, {"n_targets": 1},
], ids=["n-not-int", "hidden-not-list", "unknown-task", "unknown-field", "flow-epochs-zero",
        "blocks-zero", "hidden-zero", "n-targets-zero", "threads-negative", "clamp-zero",
        "too-few-rows-for-folds", "seed-negative", "tau-nan", "n-targets-one"])
def test_pipeline_bad_runconfig_field_is_usage_error(tmp_path, capsys, field):
    out = tmp_path / "p"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "radian", "out": str(out), **field}))
    assert run("pipeline", "--config", cfg) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()  # rejected before any stage ran
