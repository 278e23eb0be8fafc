"""Command-line front end: generate -> weights -> train -> sample -> eval.

Commands compose through files only (fixed filenames under --out), carry
full provenance in every artifact, and derive every internal RNG stream
from the master seed plus a role tag, so a pipeline rerun from the same
configuration reproduces identical artifacts.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .evaluation import EvalConfig, resimulation_error, welch_t_test
from .fileio import (
    MODEL_FILE,
    REPORT_FILE,
    SAMPLES_FILE,
    SAMPLES_FORMAT_VERSION,
    SAMPLES_META_FILE,
    TRACE_FILE,
    WEIGHTS_FILE,
    DataError,
    dataset_path,
    read_dataset,
    read_json,
    read_targets,
    read_weights,
    sha256_of,
    write_dataset,
    write_json,
    write_samples,
    write_weights,
)
from .flow import (
    WnllConfig,
    build_flow,
    flow_from_jsonable,
    flow_sample,
    flow_to_jsonable,
    train_flow_wnll,
)
from .neural import TrainingError
from .seeding import derive_seed
from .tasks import NOISE_MODES, TASK_NAMES, NoiseSpec, generate_dataset, make_task
from .weights import WeightConfig, estimate_sample_robustness, robustness_to_weights

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


class NumericalError(Exception):
    """A stage computed a non-finite value that its artifact would carry."""


def _check_finite(per_target: np.ndarray, what: str) -> None:
    """Raises NumericalError naming the first target row of `per_target`
    (one row, or one value, per target) that holds a non-finite value."""
    bad = ~np.isfinite(per_target.reshape(per_target.shape[0], -1)).all(axis=1)
    if bad.any():
        raise NumericalError(f"non-finite {what} for target row {int(bad.argmax())}")


# settings ---------------------------------------------------------------------

# The JSON values each RunConfig annotation accepts (bool never counts as a
# number), and the lossless conversions applied to them, so `1` and `1.0`
# give the same artifact bytes.
_ACCEPTS = {"int": int, "float": (int, float), "str": str, "tuple[int, ...]": (list, tuple)}
_WIDEN = {"float": float, "tuple[int, ...]": tuple}


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, and the one place a CLI default is written.

    Its fields are the keys of a `ridkit pipeline` RunConfig file and the
    dests of the subcommand flags, which take their defaults from here.
    Settings a library class owns take that class's default. Construction
    checks every field from any source before a stage runs: types as JSON
    gives them, without conversion from strings, and ranges by building the
    library objects the stages feed.
    """

    task: str | None = None
    noise: str = "n_x"
    n: int = 2000
    seed: int = 0
    out: str | None = None
    threads: int = 1
    x_sigma: float | None = None
    y_sigma: float | None = None
    k_folds: int = WeightConfig.k_folds
    tau: float = WeightConfig.tau
    eps: float = WeightConfig.eps
    surrogate_epochs: int = WeightConfig.epochs
    surrogate_batch_size: int = WeightConfig.batch_size
    blocks: int = 6
    hidden: tuple[int, ...] = (64, 64)
    clamp: float = 2.0
    flow_epochs: int = WnllConfig.epochs
    flow_batch_size: int = WnllConfig.batch_size
    learning_rate: float = WnllConfig.learning_rate
    sigma_aug: float = WnllConfig.sigma_aug
    n_targets: int = EvalConfig.n_targets
    samples_per_target: int = EvalConfig.samples_per_target

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue
            if (isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind])
                    or kind == "tuple[int, ...]" and not all(type(h) is int for h in value)):
                raise TypeError(f"{f.name} must be {f.type}, not {value!r}")
            if kind in _WIDEN:
                object.__setattr__(self, f.name, _WIDEN[kind](value))
        for name in ("n", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.task is not None:
            make_task(self.task)
        build_flow(1, 1, self.blocks, self.hidden, clamp=self.clamp)
        _noise_spec(self)
        _weight_config(self)
        _wnll_config(self)
        _eval_config(self)


_SETTINGS = frozenset(f.name for f in fields(RunConfig))

# Each takes a RunConfig, or a subcommand Namespace whose settings carry
# RunConfig's names, and builds the library object one stage runs on.


def _noise_spec(s, seed: int | None = None) -> NoiseSpec:
    return NoiseSpec(mode=s.noise, x_sigma=s.x_sigma, y_sigma=s.y_sigma, seed=seed)


def _weight_config(s, seed: int = 0) -> WeightConfig:
    return WeightConfig(k_folds=s.k_folds, tau=s.tau, eps=s.eps, epochs=s.surrogate_epochs,
                        batch_size=s.surrogate_batch_size, seed=seed)


def _wnll_config(s, seed: int = 0) -> WnllConfig:
    return WnllConfig(epochs=s.flow_epochs, batch_size=s.flow_batch_size, seed=seed,
                      learning_rate=s.learning_rate, sigma_aug=s.sigma_aug)


def _eval_config(s, seed: int = 0) -> EvalConfig:
    return EvalConfig(n_targets=s.n_targets, samples_per_target=s.samples_per_target, seed=seed)


def _run_config(values: dict) -> RunConfig:
    """RunConfig from named values; any bad value is a usage error."""
    for key in values:
        if key not in _SETTINGS:
            raise UsageError(f"unknown RunConfig field '{key}'")
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _pipeline_defaults() -> dict:
    """RunConfig's defaults, spelled as a RunConfig file spells them."""
    defaults = asdict(RunConfig())
    return {**defaults, "hidden": list(defaults["hidden"])}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# commands ---------------------------------------------------------------------


def cmd_generate(args) -> int:
    dataset = generate_dataset(make_task(args.task), _noise_spec(args, args.seed), args.n,
                               args.seed)
    data_path = write_dataset(_out_dir(args), dataset)
    print(f"rows={dataset.n} sha256={sha256_of(data_path)}")
    return EXIT_OK


def cmd_weights(args) -> int:
    cfg = _weight_config(args, args.seed)
    dataset = read_dataset(Path(args.dataset))
    r = estimate_sample_robustness(dataset, cfg, threads=args.threads)
    w = robustness_to_weights(r, cfg.tau, cfg.eps)
    write_weights(_out_dir(args) / WEIGHTS_FILE, w, cfg, sha256_of(dataset_path(args.dataset)))
    print(f"min={w.w.min():.6f} mean={w.w.mean():.6f} max={w.w.max():.6f}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _wnll_config(args, derive_seed(args.seed, "flow-train"))
    dataset = read_dataset(Path(args.dataset))
    weights = None
    if args.weights is not None:
        weights, _, source_sha256 = read_weights(Path(args.weights))
        data_path = dataset_path(args.dataset)
        if source_sha256 != sha256_of(data_path):
            raise DataError(f"{args.weights} was computed from the dataset with sha256 "
                            f"{source_sha256}, not from {data_path}")
        if weights.shape[0] != dataset.n:
            raise DataError(
                f"{weights.shape[0]} weights do not align with {dataset.n} dataset rows"
            )
    model = build_flow(
        d_x=dataset.x.shape[1],
        d_y=dataset.y.shape[1],
        n_blocks=args.blocks,
        hidden=args.hidden,
        clamp=args.clamp,
        seed=derive_seed(args.seed, "flow-init"),
    )
    trained, trace = train_flow_wnll(model, dataset.x, dataset.y, weights, cfg)
    out = _out_dir(args)
    write_json(out / MODEL_FILE, flow_to_jsonable(trained))
    write_json(
        out / TRACE_FILE,
        {
            "format_version": 1,
            "kind": "loss-trace",
            "weighted": args.weights is not None,
            "config": {
                "blocks": args.blocks,
                "hidden": list(args.hidden),
                "clamp": args.clamp,
                "epochs": cfg.epochs,
                "batch_size": cfg.batch_size,
                "learning_rate": cfg.learning_rate,
                "sigma_aug": cfg.sigma_aug,
                "seed": args.seed,
            },
            "loss": trace,
        },
    )
    print(f"epochs={len(trace)} final_loss={trace[-1]:.6f}")
    return EXIT_OK


def cmd_sample(args) -> int:
    model = flow_from_jsonable(read_json(Path(args.model)))
    targets = read_targets(Path(args.targets), model.d_y)
    k = args.samples_per_target
    samples = flow_sample(model, targets, k, derive_seed(args.seed, "sample"))
    _check_finite(samples.reshape(targets.shape[0], -1), "design")
    out = _out_dir(args)
    write_samples(out / SAMPLES_FILE, targets, samples)
    write_json(
        out / SAMPLES_META_FILE,
        {
            "format_version": SAMPLES_FORMAT_VERSION,
            "kind": "samples",
            "n_targets": int(targets.shape[0]),
            "n_per_target": k,
            "seed": args.seed,
            "model_sha256": sha256_of(Path(args.model)),
        },
    )
    print(f"targets={targets.shape[0]} samples_per_target={k}")
    return EXIT_OK


def cmd_eval(args) -> int:
    task = make_task(args.task)
    noise = _noise_spec(args)
    cfg = _eval_config(args, derive_seed(args.seed, "eval"))
    model = flow_from_jsonable(read_json(Path(args.model)))
    targets = generate_dataset(task, noise, cfg.n_targets, derive_seed(args.seed, "targets")).y
    report = resimulation_error(model, task, noise, targets, cfg, method="weighted-flow")
    _check_finite(report.per_target_losses, "re-simulation loss")
    inputs = {"model_sha256": sha256_of(Path(args.model))}
    if args.baseline is not None:
        base_model = flow_from_jsonable(read_json(Path(args.baseline)))
        base = resimulation_error(base_model, task, noise, targets, cfg, method="baseline-flow")
        _check_finite(base.per_target_losses, "baseline re-simulation loss")
        t, p = welch_t_test(report.per_target_losses, base.per_target_losses)
        report = replace(report, comparison={"baseline_mse": base.mse, "t": t, "p": p})
        inputs["baseline_sha256"] = sha256_of(Path(args.baseline))
    write_json(_out_dir(args) / REPORT_FILE, {**report.to_jsonable(), **inputs})
    print(f"mse={report.mse:.6f} std_error={report.std_error:.6f} "
          f"wall_clock={report.wall_clock_seconds:.2f}s")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    """generate -> weights -> train -> eval from one RunConfig file."""
    cfg = _run_config(_read_config(args.config))
    if cfg.task is None or cfg.out is None:
        raise UsageError("RunConfig needs at least 'task' and 'out'")
    try:
        _weight_config(cfg).check_rows(cfg.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(cfg.out)

    def stage(role: str, **paths) -> argparse.Namespace:
        return argparse.Namespace(
            **{**asdict(cfg), "seed": derive_seed(cfg.seed, role), "out": out, **paths})

    cmd_generate(stage("dataset"))
    cmd_weights(stage("weights", dataset=out))
    cmd_train(stage("train", dataset=out, weights=out / WEIGHTS_FILE if cfg.tau > 0 else None))
    cmd_eval(stage("eval", model=out / MODEL_FILE, baseline=None))
    return EXIT_OK


# parser -----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridkit",
        description="Robust inverse design: weighted-likelihood conditional flows",
    )
    parser.add_argument("--config", type=Path,
                        help="JSON object of RunConfig fields that override this "
                             "subcommand's matching flags")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="draw a noisy dataset from a task prior")
    g.add_argument("--task", required=True, choices=TASK_NAMES)
    g.add_argument("--noise", default=RunConfig.noise, choices=NOISE_MODES)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--x-sigma", dest="x_sigma", type=float, default=RunConfig.x_sigma)
    g.add_argument("--y-sigma", dest="y_sigma", type=float, default=RunConfig.y_sigma)
    _add_common(g)
    g.set_defaults(func=cmd_generate)

    w = sub.add_parser("weights", help="estimate per-sample robustness weights")
    w.add_argument("--dataset", required=True, help="dataset.jsonl or its directory")
    w.add_argument("--k", dest="k_folds", type=int, default=RunConfig.k_folds)
    w.add_argument("--tau", type=float, default=RunConfig.tau)
    w.add_argument("--eps", type=float, default=RunConfig.eps)
    w.add_argument("--epochs", dest="surrogate_epochs", type=int,
                   default=RunConfig.surrogate_epochs)
    w.add_argument("--batch-size", dest="surrogate_batch_size", type=int,
                   default=RunConfig.surrogate_batch_size)
    w.add_argument("--threads", type=int, default=RunConfig.threads)
    _add_common(w)
    w.set_defaults(func=cmd_weights)

    t = sub.add_parser("train", help="fit the conditional flow (weighted when given weights)")
    t.add_argument("--dataset", required=True)
    t.add_argument("--weights", help="weights.json; omit for the unweighted baseline")
    t.add_argument("--blocks", type=int, default=RunConfig.blocks)
    t.add_argument("--hidden", type=int, nargs="+", default=RunConfig.hidden)
    t.add_argument("--clamp", type=float, default=RunConfig.clamp)
    t.add_argument("--epochs", dest="flow_epochs", type=int, default=RunConfig.flow_epochs)
    t.add_argument("--batch-size", dest="flow_batch_size", type=int,
                   default=RunConfig.flow_batch_size)
    t.add_argument("--lr", dest="learning_rate", type=float, default=RunConfig.learning_rate)
    t.add_argument("--sigma-aug", dest="sigma_aug", type=float, default=RunConfig.sigma_aug)
    _add_common(t)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sample", help="draw designs for targets from a trained model")
    s.add_argument("--model", required=True)
    s.add_argument("--targets", required=True, help="jsonl whose rows carry a 'y' field")
    s.add_argument("--n-per-target", dest="samples_per_target", type=int,
                   default=RunConfig.samples_per_target)
    _add_common(s)
    s.set_defaults(func=cmd_sample)

    e = sub.add_parser("eval", help="re-simulation error of a model on fresh targets")
    e.add_argument("--model", required=True)
    e.add_argument("--task", required=True, choices=TASK_NAMES)
    e.add_argument("--noise", default=RunConfig.noise, choices=NOISE_MODES)
    e.add_argument("--x-sigma", dest="x_sigma", type=float, default=RunConfig.x_sigma)
    e.add_argument("--y-sigma", dest="y_sigma", type=float, default=RunConfig.y_sigma)
    e.add_argument("--n-targets", dest="n_targets", type=int, default=RunConfig.n_targets)
    e.add_argument("--samples-per-target", dest="samples_per_target", type=int,
                   default=RunConfig.samples_per_target)
    e.add_argument("--baseline", help="baseline model.json for a Welch comparison")
    _add_common(e)
    e.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="generate + weights + train + eval from a RunConfig")
    p.add_argument("--config", required=True, type=Path,
                   help="RunConfig JSON: 'task', 'out' and any other RunConfig fields")
    p.set_defaults(func=cmd_pipeline)

    return parser


def _read_config(path) -> dict:
    cfg = read_json(Path(path))
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object, not {type(cfg).__name__}")
    return cfg


def _checked(args: argparse.Namespace) -> argparse.Namespace:
    """A subcommand's arguments with its --config overrides applied and its
    settings checked, and normalized, by RunConfig."""
    if args.config is not None:
        for key, value in _read_config(args.config).items():
            if not hasattr(args, key) or key in ("command", "func", "config"):
                raise UsageError(f"unknown {args.command} config field '{key}'")
            if key not in _SETTINGS and not isinstance(value, str):
                raise UsageError(f"{args.command} config field '{key}' must be a path string")
            setattr(args, key, value)
    cfg = _run_config({k: v for k, v in vars(args).items() if k in _SETTINGS})
    return argparse.Namespace(**{**vars(args), **asdict(cfg)})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "pipeline":
            args = _checked(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
