import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ridkit.cli import RunConfig, build_parser, main
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
from ridkit.flow import flow_sample
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
    w, cfg, source_sha256 = read_weights(dataset_dir / WEIGHTS_FILE)
    assert w.shape == (120,)
    assert cfg.tau == 0.0
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
    assert "wall_clock_seconds" not in report


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
    assert set(rep["comparison"]) == {"baseline_mse", "t", "p"}
    assert 0.0 <= rep["comparison"]["p"] <= 1.0
    assert rep["model_sha256"] == sha256_of(m1 / MODEL_FILE)
    assert rep["baseline_sha256"] == sha256_of(m2 / MODEL_FILE)


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
    assert doc["format_version"] == 2
    del doc["dataset_sha256"]
    doc["format_version"] = 1
    (tmp_path / WEIGHTS_FILE).write_text(json.dumps(doc))
    assert run("train", "--dataset", dataset_dir, "--weights", tmp_path / WEIGHTS_FILE,
               "--blocks", "2", "--hidden", "8", "--epochs", "1", "--out", tmp_path / "m") == 3
    assert "format_version 1" in capsys.readouterr().err


def test_omitted_weights_equals_all_ones_file(dataset_dir, tmp_path):
    ones = {
        "format_version": 2,
        "kind": "sample-weights",
        "dataset_sha256": sha256_of(dataset_dir / DATASET_FILE),
        "config": {
            "k_folds": 2, "tau": 0.0, "eps": 1e-3,
            "surrogate_hidden": [8], "surrogate_activation": "tanh",
            "epochs": 1, "batch_size": 8, "seed": 0,
        },
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
    return ("sample", "--model", model_file, "--targets", targets, "--out", out)


def _meta_without_task(tmp_path, model_file, data, out):
    meta = read_json(data / DATASET_META_FILE)
    del meta["task"]
    (data / DATASET_META_FILE).write_text(json.dumps(meta))
    return ("train", "--dataset", data, "--blocks", "2", "--hidden", "8", "--epochs", "1",
            "--out", out)


def _sample_with_non_model(tmp_path, model_file, data, out):
    return ("sample", "--model", data / DATASET_META_FILE, "--targets", data, "--out", out)


def _eval_with_non_model(tmp_path, model_file, data, out):
    return ("eval", "--model", data / DATASET_META_FILE, "--task", "radian",
            "--n-targets", "4", "--out", out)


def _model_missing_field(tmp_path, model_file, data, out):
    doc = read_json(model_file)
    del doc["subnets"][0]["t"]["layers"]
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    return ("eval", "--model", model_file, "--baseline", bad, "--task", "radian",
            "--n-targets", "4", "--out", out)


def _model_without_blocks(tmp_path, model_file, data, out):
    doc = read_json(model_file)
    doc.update(masks=[], subnets=[], permutations=[])
    bad = tmp_path / "no_blocks.json"
    bad.write_text(json.dumps(doc))
    return ("sample", "--model", bad, "--targets", data, "--out", out)


def _model_nan_weight(tmp_path, model_file, data, out):
    doc = read_json(model_file)
    doc["subnets"][0]["s"]["layers"][0]["weight"][0] = float("nan")
    bad = tmp_path / "nan_weight.json"
    bad.write_text(json.dumps(doc))
    return ("sample", "--model", bad, "--targets", data, "--out", out)


def _model_zero_scale(tmp_path, model_file, data, out):
    doc = read_json(model_file)
    doc["x_scale"][0] = 0.0
    bad = tmp_path / "zero_scale.json"
    bad.write_text(json.dumps(doc))
    return ("eval", "--model", bad, "--task", "radian", "--n-targets", "4", "--out", out)


def _model_extra_subnet(tmp_path, model_file, data, out):
    # one more subnet than masks and permutations: loading must not drop it
    doc = read_json(model_file)
    doc["subnets"].append(doc["subnets"][-1])
    bad = tmp_path / "extra_subnet.json"
    bad.write_text(json.dumps(doc))
    return ("sample", "--model", bad, "--targets", data, "--out", out)


def _model_extra_layer(tmp_path, model_file, data, out):
    # one more layer than the subnet's spec has: loading must not drop it
    doc = read_json(model_file)
    layers = doc["subnets"][0]["s"]["layers"]
    layers.append(layers[-1])
    bad = tmp_path / "extra_layer.json"
    bad.write_text(json.dumps(doc))
    return ("sample", "--model", bad, "--targets", data, "--out", out)


@pytest.mark.parametrize("make_argv", [
    _non_finite_target, _meta_without_task, _sample_with_non_model, _eval_with_non_model,
    _model_missing_field, _model_without_blocks, _model_nan_weight, _model_zero_scale,
    _model_extra_subnet, _model_extra_layer,
], ids=["sample-nan-target", "train-meta-without-task", "sample-non-model",
        "eval-non-model", "eval-baseline-missing-field", "sample-model-without-blocks",
        "sample-model-nan-weight", "eval-model-zero-scale", "sample-model-extra-subnet",
        "sample-model-extra-layer"])
def test_malformed_input_is_data_error(model_file, dataset_dir, tmp_path, capsys, make_argv):
    out = tmp_path / "o"
    assert run(*make_argv(tmp_path, model_file, dataset_dir, out)) == 3
    assert capsys.readouterr().err.startswith("data error: ")
    assert not (out / SAMPLES_FILE).exists()


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
], ids=["generate-x-sigma", "train-epochs", "train-blocks", "train-lr", "train-clamp",
        "weights-k", "weights-epochs", "weights-batch-size", "weights-threads", "eval-n-targets",
        "sample-n-per-target"])
def test_out_of_range_flag_is_usage_error(dataset_dir, model_file, tmp_path, capsys, argv):
    argv = [a.format(data=dataset_dir, model=model_file) for a in argv]
    assert run(*argv, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field", [
    {"n": "abc"}, {"hidden": 8}, {"task": "nope"}, {"bogus": 1}, {"flow_epochs": 0},
    {"blocks": 0}, {"hidden": [0]}, {"n_targets": 0}, {"threads": -2}, {"clamp": 0},
    {"n": 5, "k_folds": 5},
], ids=["n-not-int", "hidden-not-list", "unknown-task", "unknown-field", "flow-epochs-zero",
        "blocks-zero", "hidden-zero", "n-targets-zero", "threads-negative", "clamp-zero",
        "too-few-rows-for-folds"])
def test_pipeline_bad_runconfig_field_is_usage_error(tmp_path, capsys, field):
    out = tmp_path / "p"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "radian", "out": str(out), **field}))
    assert run("pipeline", "--config", cfg) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()  # rejected before any stage ran
