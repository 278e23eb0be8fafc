"""Versioned JSON / JSON-lines artifact formats, all but model.json, which
ridkit.flow reads and writes.

Every emitted file carries a format-version field and enough of the
generating configuration to reproduce it; serialization is deterministic,
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .tasks import Dataset, NoiseSpec, make_task
from .weights import WeightConfig

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
    "json_numbers",
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

# rows write_dataset converts to Python floats at a time
_WRITE_ROWS = 1024

DATASET_FORMAT_VERSION = 1
WEIGHTS_FORMAT_VERSION = 3
SAMPLES_FORMAT_VERSION = 2
REPORT_FORMAT_VERSION = 2


class DataError(Exception):
    """Missing, malformed, or inconsistent artifact file."""


def write_json(path: Path, doc: dict) -> None:
    """Writes doc as one line of JSON with json.dumps's default separators:
    without indent, json.dumps runs its C encoder, which takes under half
    the time of the pure-Python one that indent selects."""
    path.write_text(json.dumps(doc) + "\n")


def read_json(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"missing file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed JSON in {path}: {exc}") from exc


def json_numbers(values, what: str) -> np.ndarray:
    """values, which must be a flat list of JSON numbers, as float64.

    A bool, a string or a list is not a number, so a list holding any of
    them raises ValueError naming `what`, and so does an integer beyond
    float64 or a value that is not a list.
    """
    if type(values) is not list:
        raise ValueError(f"{what} must be a list of JSON numbers, not a {type(values).__name__}")
    if not set(map(type, values)) <= {int, float}:
        bad = next(type(v).__name__ for v in values if type(v) not in (int, float))
        raise ValueError(f"{what} must hold JSON numbers only, not a {bad}")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_dataset(out_dir: Path, dataset: Dataset) -> Path:
    """Writes dataset.jsonl, one {"x": [...], "y": [...]} line per row, plus
    its sidecar meta file.

    Each line is laid out as json.dumps lays it out, by filling one
    %-template per row; %r spells a float as json.dumps does, and a
    Dataset holds only finite values, the ones JSON can spell.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / DATASET_FILE
    row = ('{"x": [' + ", ".join(["%r"] * dataset.x.shape[1]) + '], "y": ['
           + ", ".join(["%r"] * dataset.y.shape[1]) + "]}\n")
    with data_path.open("w") as fh:
        # a block of rows per tolist: the whole dataset as Python floats
        # would take ~4 MB at 16,000 rows of 5 values
        for start in range(0, dataset.n, _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            for xi, yi in zip(dataset.x[block].tolist(), dataset.y[block].tolist()):
                fh.write(row % (*xi, *yi))
    write_json(
        out_dir / DATASET_META_FILE,
        {
            "format_version": DATASET_FORMAT_VERSION,
            "kind": "dataset",
            "task": asdict(dataset.task),
            "noise": asdict(dataset.noise),
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


def _read_columns(path: Path, *keys: str) -> tuple[list, ...]:
    """One list per key of the values the rows of a JSON-lines file hold
    under it; a line that is not a JSON object with every key is a DataError.

    Each line goes to the decoder's scanner directly, which skips the
    per-call set-up of json.loads; a line the scanner does not take whole
    (surrounding whitespace, a syntax error) goes through json.loads, so a
    line is accepted, and read, exactly when json.loads accepts it.
    """
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError as exc:
        raise DataError(f"missing file: {path}") from exc
    scan = json.JSONDecoder().scan_once
    columns = tuple([] for _ in keys)
    for ln, line in enumerate(lines, 1):
        try:
            try:
                row, end = scan(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(line):
                row = json.loads(line)
            for column, key in zip(columns, keys):
                column.append(row[key])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: line {ln} is not a JSON object with "
                            f"{' and '.join(map(repr, keys))}") from exc
    return columns


def _row_shape(value) -> tuple[int, ...] | None:
    """The shape of one row's value if it is a number or a flat list of
    numbers, else None."""
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    return a.shape if a.ndim <= 1 else None


def _float_rows(path: Path, column: list, key: str) -> np.ndarray:
    """The values one key holds in the rows of a JSON-lines file, as a
    float64 array with one row per line.

    Every line's value must be a number or a flat list of numbers shaped
    like line 1's; otherwise the DataError names the first line whose value
    is not.
    """
    try:
        a = np.asarray(column, dtype=np.float64)
        if a.ndim <= 2:
            return a
    except (TypeError, ValueError):
        pass
    first = _row_shape(column[0])
    if first is None:
        raise DataError(f"{path}: line 1: {key!r} is not a number or a list of numbers")
    like = f"a list of {first[0]} numbers" if first else "a number"
    ln = next(ln for ln, value in enumerate(column, 1) if _row_shape(value) != first)
    raise DataError(f"{path}: line {ln}: {key!r} is not {like} like line 1's")


def read_dataset(path: Path) -> Dataset:
    """Reads a dataset.jsonl plus its sidecar meta file.

    `path` may be the jsonl file or the directory holding the fixed pair.
    """
    data_path = dataset_path(path)
    meta_path = data_path.parent / DATASET_META_FILE
    meta = read_json(meta_path)
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != DATASET_FORMAT_VERSION:
        raise DataError(f"{meta_path}: unsupported dataset format_version {version}")
    try:
        task = make_task(meta["task"]["name"])
        nz = meta["noise"]
        noise = NoiseSpec(
            mode=nz["mode"], x_sigma=nz["x_sigma"], y_sigma=nz["y_sigma"], seed=nz["seed"]
        )
        n, seed = meta["n"], meta["seed"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed dataset meta {meta_path}: missing or ill-typed {exc}") from exc
    xs, ys = _read_columns(data_path, "x", "y")
    if len(xs) != n:
        raise DataError(f"{data_path}: {len(xs)} rows but meta says {n}")
    return Dataset(
        x=_float_rows(data_path, xs, "x"),
        y=_float_rows(data_path, ys, "y"),
        task=task,
        noise=noise,
        seed=seed,
    )


def read_targets(path: Path, d_y: int) -> np.ndarray:
    """Loads conditioning targets from any jsonl whose rows carry a 'y'."""
    data_path = dataset_path(path)
    (ys,) = _read_columns(data_path, "y")
    if not ys:
        raise DataError(f"{data_path}: no target rows")
    targets = _float_rows(data_path, ys, "y")
    if targets.ndim == 1:
        targets = targets.reshape(-1, 1)
    if targets.shape[1] != d_y:
        raise DataError(f"{data_path}: targets have {targets.shape[1]} response dims, not {d_y}")
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


def write_weights(path: Path, weights: np.ndarray, cfg: WeightConfig,
                  dataset_sha256: str) -> None:
    """Writes the weights with the sha256 of the dataset file they score."""
    write_json(
        Path(path),
        {
            "format_version": WEIGHTS_FORMAT_VERSION,
            "kind": "sample-weights",
            "dataset_sha256": dataset_sha256,
            "config": asdict(cfg),
            "weights": weights.tolist(),
        },
    )


def read_weights(path: Path) -> tuple[np.ndarray, str]:
    """The weights, a flat list of finite numbers, and the sha256 of the
    dataset they score."""
    doc = read_json(Path(path))
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != WEIGHTS_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported weights format_version {version}")
    try:
        w = json_numbers(doc["weights"], "'weights'")
        dataset_sha256 = doc["dataset_sha256"]
    except (KeyError, ValueError) as exc:
        raise DataError(f"malformed weights file {path}: {exc}") from exc
    if not np.isfinite(w).all():
        raise DataError(f"weights file {path} has non-finite weights")
    return w, dataset_sha256
