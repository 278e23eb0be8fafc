"""Versioned JSON / JSON-lines artifact formats.

Every emitted file carries a format-version field and enough of the
generating configuration to reproduce it; serialization is deterministic,
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .tasks import Dataset, NoiseSpec, TaskSpec, make_task
from .weights import WeightConfig, WeightVector

__all__ = [
    "DataError",
    "DATASET_FILE",
    "DATASET_META_FILE",
    "WEIGHTS_FILE",
    "MODEL_FILE",
    "TRACE_FILE",
    "SAMPLES_FILE",
    "SAMPLES_META_FILE",
    "REPORT_FILE",
    "write_json",
    "read_json",
    "sha256_of",
    "dataset_path",
    "write_dataset",
    "read_dataset",
    "read_targets",
    "write_samples",
    "write_weights",
    "read_weights",
]

DATASET_FILE = "dataset.jsonl"
DATASET_META_FILE = "dataset.meta.json"
WEIGHTS_FILE = "weights.json"
MODEL_FILE = "model.json"
TRACE_FILE = "trace.json"
SAMPLES_FILE = "samples.jsonl"
SAMPLES_META_FILE = "samples.meta.json"
REPORT_FILE = "report.json"

DATASET_FORMAT_VERSION = 1
WEIGHTS_FORMAT_VERSION = 2
SAMPLES_FORMAT_VERSION = 2


class DataError(Exception):
    """Missing, malformed, or inconsistent artifact file."""


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def read_json(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"missing file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed JSON in {path}: {exc}") from exc


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _noise_to_jsonable(noise: NoiseSpec) -> dict:
    return {
        "mode": noise.mode,
        "x_sigma": noise.x_sigma,
        "y_sigma": noise.y_sigma,
        "seed": noise.seed,
    }


def _task_to_jsonable(task: TaskSpec) -> dict:
    return {
        "name": task.name,
        "d_x": task.d_x,
        "d_y": task.d_y,
        "x_sigma": task.x_sigma,
        "y_sigma": task.y_sigma,
    }


def write_dataset(out_dir: Path, dataset: Dataset) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / DATASET_FILE
    with data_path.open("w") as fh:
        for xi, yi in zip(dataset.x, dataset.y):
            fh.write(json.dumps({"x": xi.tolist(), "y": yi.tolist()}) + "\n")
    write_json(
        out_dir / DATASET_META_FILE,
        {
            "format_version": DATASET_FORMAT_VERSION,
            "kind": "dataset",
            "task": _task_to_jsonable(dataset.task),
            "noise": _noise_to_jsonable(dataset.noise),
            "seed": dataset.seed,
            "n": dataset.n,
        },
    )
    return data_path


def dataset_path(path: Path) -> Path:
    """The jsonl file `path` names: the file itself, or the dataset.jsonl of
    the directory it names."""
    path = Path(path)
    return path / DATASET_FILE if path.is_dir() else path


def read_dataset(path: Path) -> Dataset:
    """Reads a dataset.jsonl plus its sidecar meta file.

    `path` may be the jsonl file or the directory holding the fixed pair.
    """
    data_path = dataset_path(path)
    meta_path = data_path.parent / DATASET_META_FILE
    meta = read_json(meta_path)
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != DATASET_FORMAT_VERSION:
        raise DataError(f"unsupported dataset format_version {version}")
    try:
        task = make_task(meta["task"]["name"])
        nz = meta["noise"]
        noise = NoiseSpec(
            mode=nz["mode"], x_sigma=nz["x_sigma"], y_sigma=nz["y_sigma"], seed=nz["seed"]
        )
        n, seed = meta["n"], meta["seed"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed dataset meta {meta_path}: missing or ill-typed {exc}") from exc
    xs, ys = [], []
    try:
        lines = data_path.read_text().splitlines()
    except FileNotFoundError as exc:
        raise DataError(f"missing file: {data_path}") from exc
    for ln, line in enumerate(lines):
        try:
            row = json.loads(line)
            xs.append(row["x"])
            ys.append(row["y"])
        except (json.JSONDecodeError, KeyError) as exc:
            raise DataError(f"{data_path}: bad row at line {ln + 1}") from exc
    if len(xs) != n:
        raise DataError(f"{data_path}: {len(xs)} rows but meta says {n}")
    return Dataset(
        x=np.asarray(xs, dtype=np.float64),
        y=np.asarray(ys, dtype=np.float64),
        task=task,
        noise=noise,
        seed=seed,
    )


def read_targets(path: Path, d_y: int) -> np.ndarray:
    """Loads conditioning targets from any jsonl whose rows carry a 'y'."""
    data_path = dataset_path(path)
    ys = []
    try:
        lines = data_path.read_text().splitlines()
    except FileNotFoundError as exc:
        raise DataError(f"missing file: {data_path}") from exc
    for ln, line in enumerate(lines):
        try:
            ys.append(json.loads(line)["y"])
        except (json.JSONDecodeError, KeyError) as exc:
            raise DataError(f"{data_path}: bad target row at line {ln + 1}") from exc
    targets = np.asarray(ys, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets.reshape(-1, 1)
    if targets.shape[1] != d_y:
        raise DataError(f"targets have {targets.shape[1]} response dims, expected {d_y}")
    if not np.isfinite(targets).all():
        raise DataError(f"{data_path}: targets must be finite")
    return targets


def write_samples(path: Path, targets: np.ndarray, samples: np.ndarray) -> None:
    """Writes one JSON line per target: the target and its block of samples.

    Row i of `targets` owns rows [i*k, (i+1)*k) of `samples`. Each line is
    laid out as json.dumps lays it out, by filling one %-template per row,
    and is streamed to the file. Targets are written exactly (repr).
    Samples come from float32 blocks, so they are written to 9 significant
    digits, float32's round-trip precision: each value is within 5e-9
    relative of the float64 sample. The samples must be finite, because %g
    spells a non-finite value as nan or inf, which JSON does not have.
    """
    n_t, d_y = targets.shape
    k, d_x = samples.shape[0] // n_t, samples.shape[1]
    sample = "[" + ", ".join(["%.9g"] * d_x) + "]"
    row = ('{"target": [' + ", ".join(["%r"] * d_y) + '], "samples": ['
           + ", ".join([sample] * k) + "]}\n")
    with Path(path).open("w") as fh:
        for t, s in zip(targets, samples.reshape(n_t, k * d_x)):
            fh.write(row % (*t.tolist(), *s.tolist()))


def write_weights(path: Path, weights: WeightVector, cfg: WeightConfig,
                  dataset_sha256: str) -> None:
    """Writes the weights with the sha256 of the dataset file they score."""
    write_json(
        Path(path),
        {
            "format_version": WEIGHTS_FORMAT_VERSION,
            "kind": "sample-weights",
            "dataset_sha256": dataset_sha256,
            "config": cfg.to_jsonable(),
            "weights": weights.w.tolist(),
        },
    )


def read_weights(path: Path) -> tuple[np.ndarray, WeightConfig, str]:
    """The weights, their config and the sha256 of the dataset they score."""
    doc = read_json(Path(path))
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != WEIGHTS_FORMAT_VERSION:
        raise DataError(f"unsupported weights format_version {version}")
    try:
        w = np.asarray(doc["weights"], dtype=np.float64)
        cfg = WeightConfig.from_jsonable(doc["config"])
        dataset_sha256 = doc["dataset_sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed weights file {path}: {exc}") from exc
    if not np.isfinite(w).all():
        raise DataError(f"weights file {path} has non-finite weights")
    return w, cfg, dataset_sha256
