import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ridkit.cli import main
from ridkit.fileio import (
    DATASET_FILE,
    SAMPLES_FILE,
    read_dataset,
    read_json,
    read_targets,
    write_dataset,
    write_json,
    write_samples,
)
from ridkit.flow import build_flow, flow_from_jsonable, flow_sample, flow_to_jsonable
from ridkit.neural import MlpParams, init_mlp
from ridkit.seeding import derive_seed
from ridkit.tasks import Dataset, NoiseSpec, make_task


def _rows(path):
    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    return [json.loads(line, parse_constant=no_constants)
            for line in path.read_text().splitlines()]


@pytest.fixture
def model_file(tmp_path):
    model = build_flow(4, 2, n_blocks=3, hidden=(16,), seed=1)
    rng = np.random.default_rng(2)

    def random_subnets(spec):  # s, then t
        s, t = init_mlp(spec, rng), init_mlp(spec, rng)
        return MlpParams(spec, tuple(map(np.stack, zip(s.layers, t.layers))))

    model = replace(model, blocks=tuple(
        replace(b, subnets=random_subnets(b.subnets.spec)) for b in model.blocks))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(flow_to_jsonable(model, "0" * 64, None)))
    return path


@pytest.fixture
def targets_file(tmp_path):
    y = np.random.default_rng(3).standard_normal((40, 2)) * np.array([1e-3, 1e3])
    path = tmp_path / "targets.jsonl"
    path.write_text("".join(json.dumps({"y": row}) + "\n" for row in y.tolist()))
    return path


def test_json_artifacts_are_one_line_that_reads_back(tmp_path):
    doc = {"format_version": 1, "values": [0.1, -2.5e-300, 3], "nested": {"a": None, "b": []}}
    path = tmp_path / "doc.json"
    write_json(path, doc)
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert read_json(path) == doc


def test_sampled_designs_keep_float32_round_trip_precision(model_file, targets_file, tmp_path):
    out = tmp_path / "s"
    assert main(["sample", "--model", str(model_file), "--targets", str(targets_file),
                 "--n-per-target", "8", "--seed", "6", "--out", str(out)]) == 0
    targets = read_targets(targets_file, 2)
    designs = flow_sample(flow_from_jsonable(read_json(model_file)), targets, 8,
                          derive_seed(6, "sample"))
    rows = _rows(out / SAMPLES_FILE)
    assert [r["target"] for r in rows] == targets.tolist()
    written = np.array([r["samples"] for r in rows], dtype=np.float64).reshape(-1, 4)
    np.testing.assert_allclose(written, designs, rtol=5e-9, atol=0)


def test_same_seed_samples_are_byte_identical(model_file, targets_file, tmp_path):
    files = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["sample", "--model", str(model_file), "--targets", str(targets_file),
                     "--seed", "7", "--out", str(out)]) == 0
        files.append((out / SAMPLES_FILE).read_bytes())
    assert files[0] == files[1]


def test_edge_values_are_strict_json(tmp_path):
    edges = np.array([-0.0, 5e-324, 1e300, -123456789.125, 1e-7])
    path = tmp_path / SAMPLES_FILE
    write_samples(path, edges.reshape(5, 1), np.tile(edges, (5, 1)).reshape(-1, 1))
    rows = _rows(path)
    assert [r["target"][0] for r in rows] == edges.tolist()
    assert math.copysign(1.0, rows[0]["target"][0]) == -1.0
    for r in rows:
        np.testing.assert_allclose(np.ravel(r["samples"]), edges, rtol=5e-9, atol=0)


def test_rows_are_laid_out_as_json_dumps(tmp_path):
    # short binary fractions, not integers, read the same in %.9g and json.dumps
    targets = np.array([[0.5, -2.0], [1.25, 3.0]])
    samples = np.array([[0.25, -1.5, 2.5], [4.5, 0.125, -8.75]] * 2)
    path = tmp_path / SAMPLES_FILE
    write_samples(path, targets, samples)
    want = "".join(
        json.dumps({"target": t.tolist(), "samples": samples[2 * i:2 * i + 2].tolist()}) + "\n"
        for i, t in enumerate(targets))
    assert path.read_text() == want


def test_writer_streams_rows(tmp_path):
    # resim's shape: 2048 targets x 32 designs of 4 values make 3.7 MB of text,
    # which a writer that joined the rows before writing would hold twice over
    rng = np.random.default_rng(4)
    targets = rng.standard_normal((2048, 2))
    samples = rng.standard_normal((2048 * 32, 4))
    tracemalloc.start()
    try:
        write_samples(tmp_path / SAMPLES_FILE, targets, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _edge_dataset():
    edges = np.array([-0.0, 5e-324, 1e300, 1e-7, 2.0])
    x = np.column_stack([edges, edges[::-1]])
    return Dataset(x=x, y=edges[:, None], task=make_task("radian"),
                   noise=NoiseSpec(mode="n_x", x_sigma=0.1, y_sigma=0.05, seed=0), seed=0)


def test_dataset_rows_are_laid_out_as_json_dumps(tmp_path):
    dataset = _edge_dataset()
    path = write_dataset(tmp_path, dataset)
    want = "".join(json.dumps({"x": xi.tolist(), "y": yi.tolist()}) + "\n"
                   for xi, yi in zip(dataset.x, dataset.y))
    assert path.read_bytes() == want.encode()
    back = read_dataset(tmp_path)
    np.testing.assert_array_equal(back.x, dataset.x)
    assert math.copysign(1.0, back.x[0, 0]) == -1.0


def test_dataset_writer_streams_rows(tmp_path):
    # pipeline-large's shape: 16,000 ballistics rows of 5 values, which as
    # one list of Python floats would take ~4 MB
    rng = np.random.default_rng(5)
    dataset = replace(_edge_dataset(), x=rng.standard_normal((16_000, 4)),
                      y=rng.standard_normal((16_000, 1)), task=make_task("ballistics"))
    tracemalloc.start()
    try:
        write_dataset(tmp_path, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rows_with_surrounding_whitespace_are_read(tmp_path):
    dataset = _edge_dataset()
    path = write_dataset(tmp_path, dataset)
    lines = path.read_text().splitlines()
    lines[1] = "  " + lines[1]
    lines[2] = lines[2] + " \t"
    path.write_text("\n".join(lines) + "\n")
    np.testing.assert_array_equal(read_dataset(tmp_path).y, dataset.y)
    np.testing.assert_array_equal(read_targets(tmp_path / DATASET_FILE, 1), dataset.y)
