import json
from pathlib import Path

import numpy as np
import pytest

import ridkit.cli
from ridkit.autodiff import GraphError
from ridkit.cli import main
from ridkit.fileio import (
    DATASET_FILE,
    DATASET_META_FILE,
    MODEL_FILE,
    REPORT_FILE,
    SAMPLES_FILE,
    TRACE_FILE,
    WEIGHTS_FILE,
    read_dataset,
    read_json,
    read_weights,
    sha256_of,
    write_dataset,
)
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
    w, cfg = read_weights(dataset_dir / WEIGHTS_FILE)
    assert w.shape == (120,)
    assert cfg.tau == 0.0
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


def test_omitted_weights_equals_all_ones_file(dataset_dir, tmp_path):
    ones = {
        "format_version": 1,
        "kind": "sample-weights",
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


def test_graph_error_is_data_error(dataset_dir, tmp_path, monkeypatch):
    def bad_binding(*args, **kwargs):
        raise GraphError("leaf 'x': non-finite entries in binding")

    monkeypatch.setattr(ridkit.cli, "train_flow_wnll", bad_binding)
    code = run("train", "--dataset", dataset_dir, "--blocks", "2", "--hidden", "8",
               "--epochs", "1", "--out", tmp_path / "m")
    assert code == 3


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


@pytest.fixture
def model_file(dataset_dir, tmp_path):
    out = tmp_path / "model"
    assert run("train", "--dataset", dataset_dir, "--blocks", "2", "--hidden", "8",
               "--epochs", "1", "--out", out) == 0
    return out / MODEL_FILE


@pytest.mark.parametrize("argv", [
    ("generate", "--task", "radian", "--noise", "n_x", "--n", "5", "--x-sigma", "-1"),
    ("train", "--dataset", "{data}", "--epochs", "0"),
    ("train", "--dataset", "{data}", "--blocks", "0"),
    ("weights", "--dataset", "{data}", "--k", "1"),
    ("weights", "--dataset", "{data}", "--epochs", "0"),
    ("weights", "--dataset", "{data}", "--batch-size", "0"),
    ("eval", "--model", "{model}", "--task", "radian", "--n-targets", "0"),
    ("sample", "--model", "{model}", "--targets", "{data}", "--n-per-target", "0"),
], ids=["generate-x-sigma", "train-epochs", "train-blocks", "weights-k", "weights-epochs", "weights-batch-size",
        "eval-n-targets", "sample-n-per-target"])
def test_out_of_range_flag_is_usage_error(dataset_dir, model_file, tmp_path, capsys, argv):
    argv = [a.format(data=dataset_dir, model=model_file) for a in argv]
    assert run(*argv, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error: ")
