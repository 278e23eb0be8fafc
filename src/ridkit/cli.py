"""Command-line front end: generate -> weights -> train -> sample -> eval.

Commands compose through files only (fixed filenames under --out), carry
full provenance in every artifact, and derive every internal RNG stream
from the master seed plus a role tag, so a pipeline rerun from the same
configuration reproduces identical artifacts.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .autodiff import GraphError
from .evaluation import EvalConfig, resimulation_error, welch_t_test
from .fileio import (
    MODEL_FILE,
    REPORT_FILE,
    SAMPLES_FILE,
    SAMPLES_META_FILE,
    TRACE_FILE,
    WEIGHTS_FILE,
    DataError,
    read_dataset,
    read_json,
    read_targets,
    read_weights,
    sha256_of,
    write_dataset,
    write_json,
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


@contextmanager
def _flag_errors():
    """Reports a ValueError raised while building settings from flags as a
    usage error; errors raised later, from the data, keep the data exit code."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# commands ---------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    task = make_task(args.task)
    with _flag_errors():
        noise = NoiseSpec(mode=args.noise, x_sigma=args.x_sigma, y_sigma=args.y_sigma,
                          seed=args.seed)
    dataset = generate_dataset(task, noise, args.n, args.seed)
    data_path = write_dataset(_out_dir(args), dataset)
    print(f"rows={dataset.n} sha256={sha256_of(data_path)}")
    return EXIT_OK


def cmd_weights(args) -> int:
    with _flag_errors():
        cfg = WeightConfig(
            k_folds=args.k,
            tau=args.tau,
            eps=args.eps,
            epochs=args.epochs,
            batch_size=args.batch_size,
            seed=args.seed,
        )
    dataset = read_dataset(Path(args.dataset))
    r = estimate_sample_robustness(dataset, cfg, threads=args.threads)
    w = robustness_to_weights(r, cfg.tau, cfg.eps)
    write_weights(_out_dir(args) / WEIGHTS_FILE, w, cfg)
    print(f"min={w.w.min():.6f} mean={w.w.mean():.6f} max={w.w.max():.6f}")
    return EXIT_OK


def cmd_train(args) -> int:
    with _flag_errors():
        cfg = WnllConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            seed=derive_seed(args.seed, "flow-train"),
            learning_rate=args.lr,
            sigma_aug=args.sigma_aug,
        )
    dataset = read_dataset(Path(args.dataset))
    weights = None
    if args.weights is not None:
        weights, _ = read_weights(Path(args.weights))
        if weights.shape[0] != dataset.n:
            raise DataError(
                f"{weights.shape[0]} weights do not align with {dataset.n} dataset rows"
            )
    with _flag_errors():
        model = build_flow(
            d_x=dataset.x.shape[1],
            d_y=dataset.y.shape[1],
            n_blocks=args.blocks,
            hidden=tuple(args.hidden),
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
    if args.n_per_target < 1:
        raise UsageError("--n-per-target must be >= 1")
    model = flow_from_jsonable(read_json(Path(args.model)))
    targets = read_targets(Path(args.targets), model.d_y)
    samples = flow_sample(model, targets, args.n_per_target, derive_seed(args.seed, "sample"))
    out = _out_dir(args)
    k = args.n_per_target
    with (out / SAMPLES_FILE).open("w") as fh:
        for i, t in enumerate(targets):
            block = samples[i * k:(i + 1) * k]
            fh.write(json.dumps({"target": t.tolist(), "samples": block.tolist()}) + "\n")
    write_json(
        out / SAMPLES_META_FILE,
        {
            "format_version": 1,
            "kind": "samples",
            "n_targets": int(targets.shape[0]),
            "n_per_target": k,
            "seed": args.seed,
            "model": str(args.model),
        },
    )
    print(f"targets={targets.shape[0]} samples_per_target={k}")
    return EXIT_OK


def cmd_eval(args) -> int:
    task = make_task(args.task)
    with _flag_errors():
        noise = NoiseSpec(mode=args.noise, x_sigma=args.x_sigma, y_sigma=args.y_sigma)
        cfg = EvalConfig(
            n_targets=args.n_targets,
            samples_per_target=args.samples_per_target,
            seed=derive_seed(args.seed, "eval"),
        )
    model = flow_from_jsonable(read_json(Path(args.model)))
    targets = generate_dataset(task, noise, cfg.n_targets, derive_seed(args.seed, "targets")).y
    report = resimulation_error(model, task, noise, targets, cfg, method="weighted-flow")
    if args.baseline is not None:
        base_model = flow_from_jsonable(read_json(Path(args.baseline)))
        base = resimulation_error(base_model, task, noise, targets, cfg, method="baseline-flow")
        t, p = welch_t_test(report.per_target_losses, base.per_target_losses)
        report = _with_comparison(report, {"baseline_mse": base.mse, "t": t, "p": p})
    write_json(_out_dir(args) / REPORT_FILE, report.to_jsonable())
    print(f"mse={report.mse:.6f} std_error={report.std_error:.6f} "
          f"wall_clock={report.wall_clock_seconds:.2f}s")
    return EXIT_OK


def _with_comparison(report, comparison: dict):
    from dataclasses import replace

    return replace(report, comparison=comparison)


def cmd_pipeline(args) -> int:
    """generate -> weights -> train -> eval from one RunConfig file."""
    ns = argparse.Namespace(**_pipeline_defaults())
    for key, value in _read_config(args.config).items():
        if key not in vars(ns):
            raise UsageError(f"unknown RunConfig field '{key}'")
        setattr(ns, key, value)
    if ns.task is None or ns.out is None:
        raise UsageError("RunConfig needs at least 'task' and 'out'")
    out = Path(ns.out)
    seed = int(ns.seed)

    gen = argparse.Namespace(
        task=ns.task, noise=ns.noise, n=int(ns.n), seed=derive_seed(seed, "dataset"),
        x_sigma=ns.x_sigma, y_sigma=ns.y_sigma, out=out,
    )
    cmd_generate(gen)
    wargs = argparse.Namespace(
        dataset=out, k=int(ns.k_folds), tau=float(ns.tau), eps=float(ns.eps),
        epochs=int(ns.surrogate_epochs), batch_size=int(ns.surrogate_batch_size),
        seed=derive_seed(seed, "weights"), threads=int(ns.threads), out=out,
    )
    cmd_weights(wargs)
    targs = argparse.Namespace(
        dataset=out, weights=out / WEIGHTS_FILE if float(ns.tau) > 0 else None,
        blocks=int(ns.blocks), hidden=list(ns.hidden), clamp=float(ns.clamp),
        epochs=int(ns.flow_epochs), batch_size=int(ns.flow_batch_size),
        lr=float(ns.learning_rate), sigma_aug=float(ns.sigma_aug),
        seed=derive_seed(seed, "train"), out=out,
    )
    cmd_train(targs)
    eargs = argparse.Namespace(
        model=out / MODEL_FILE, task=ns.task, noise=ns.noise,
        x_sigma=ns.x_sigma, y_sigma=ns.y_sigma,
        n_targets=int(ns.n_targets), samples_per_target=int(ns.samples_per_target),
        seed=derive_seed(seed, "eval"), baseline=None, out=out,
    )
    cmd_eval(eargs)
    return EXIT_OK


def _pipeline_defaults() -> dict:
    return {
        "task": None,
        "noise": "n_x",
        "n": 2000,
        "seed": 0,
        "out": None,
        "threads": 1,
        "x_sigma": None,
        "y_sigma": None,
        "k_folds": 5,
        "tau": 1.0,
        "eps": 1e-3,
        "surrogate_epochs": 40,
        "surrogate_batch_size": 128,
        "blocks": 6,
        "hidden": [64, 64],
        "clamp": 2.0,
        "flow_epochs": 40,
        "flow_batch_size": 256,
        "learning_rate": 1e-3,
        "sigma_aug": 1e-3,
        "n_targets": 128,
        "samples_per_target": 16,
    }


# parser -----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridkit",
        description="Robust inverse design: weighted-likelihood conditional flows",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="RunConfig JSON whose fields override matching flags")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="draw a noisy dataset from a task prior")
    g.add_argument("--task", required=True, choices=TASK_NAMES)
    g.add_argument("--noise", default="none", choices=NOISE_MODES)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--x-sigma", dest="x_sigma", type=float, default=None)
    g.add_argument("--y-sigma", dest="y_sigma", type=float, default=None)
    _add_common(g)
    g.set_defaults(func=cmd_generate)

    w = sub.add_parser("weights", help="estimate per-sample robustness weights")
    w.add_argument("--dataset", required=True, help="dataset.jsonl or its directory")
    w.add_argument("--k", type=int, default=5)
    w.add_argument("--tau", type=float, default=1.0)
    w.add_argument("--eps", type=float, default=1e-3)
    w.add_argument("--epochs", type=int, default=60)
    w.add_argument("--batch-size", dest="batch_size", type=int, default=128)
    w.add_argument("--threads", type=int, default=1)
    _add_common(w)
    w.set_defaults(func=cmd_weights)

    t = sub.add_parser("train", help="fit the conditional flow (weighted when given weights)")
    t.add_argument("--dataset", required=True)
    t.add_argument("--weights", default=None, help="weights.json; omit for the unweighted baseline")
    t.add_argument("--blocks", type=int, default=8)
    t.add_argument("--hidden", type=int, nargs="+", default=[128, 128])
    t.add_argument("--clamp", type=float, default=2.0)
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--batch-size", dest="batch_size", type=int, default=256)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--sigma-aug", dest="sigma_aug", type=float, default=1e-3)
    _add_common(t)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sample", help="draw designs for targets from a trained model")
    s.add_argument("--model", required=True)
    s.add_argument("--targets", required=True, help="jsonl whose rows carry a 'y' field")
    s.add_argument("--n-per-target", dest="n_per_target", type=int, default=16)
    _add_common(s)
    s.set_defaults(func=cmd_sample)

    e = sub.add_parser("eval", help="re-simulation error of a model on fresh targets")
    e.add_argument("--model", required=True)
    e.add_argument("--task", required=True, choices=TASK_NAMES)
    e.add_argument("--noise", default="none", choices=NOISE_MODES)
    e.add_argument("--x-sigma", dest="x_sigma", type=float, default=None)
    e.add_argument("--y-sigma", dest="y_sigma", type=float, default=None)
    e.add_argument("--n-targets", dest="n_targets", type=int, default=512)
    e.add_argument("--samples-per-target", dest="samples_per_target", type=int, default=16)
    e.add_argument("--baseline", default=None, help="baseline model.json for a Welch comparison")
    _add_common(e)
    e.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="generate + weights + train + eval from a RunConfig")
    p.add_argument("--config", required=True, type=Path)
    p.set_defaults(func=cmd_pipeline)

    return parser


def _read_config(path) -> dict:
    cfg = read_json(Path(path))
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object, not {type(cfg).__name__}")
    return cfg


def _apply_config_overrides(args: argparse.Namespace) -> None:
    if getattr(args, "config", None) is None or args.command == "pipeline":
        return
    for key, value in _read_config(args.config).items():
        if not hasattr(args, key) or key in ("command", "func", "config"):
            raise UsageError(f"unknown {args.command} config field '{key}'")
        setattr(args, key, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_overrides(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, GraphError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
