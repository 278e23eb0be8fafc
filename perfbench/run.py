"""ridkit benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload pipeline --seed 3 --seconds 20 --trace 0

Run it from the root of a ridkit checkout; it imports `ridkit` from
`src/` there and writes scratch artifacts under `.perfbench/`, which it
removes again. Workloads (see BENCHMARK.json and perfbench/METRICS.md):

  pipeline        `ridkit pipeline` on the fixed RunConfig, then `sample` and `eval`
  pipeline-large  the same calls at 8x the rows and batch size
  resim           `ridkit sample` and `ridkit eval --baseline` of trained flows

`--trace 0` prints the end-to-end metrics, measured with only the stage
timer patched in and with the host-speed probe of perfbench/speed.py
running beside the program, so times read at the probe's reference speed.
`--trace 1` patches the per-layer tracer in as well and prints the
per-layer metrics, including the tracing overhead, in plain wall time.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 when every
operation succeeded and every output check passed, 1 when one did not,
and 2 when there is no ridkit source to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread per process, so the RunConfig's fold `threads` are the only
# parallelism and compute threads never exceed the cores.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    from harness import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ridkit").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, modules: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "ridkit_backend": modules["ridkit.backend"].BACKEND_NAME,
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
    }


def main(argv=None) -> int:
    for key in BLAS_ENV:  # before anything imports numpy
        os.environ[key] = "1"
    args = parse_args(argv)
    if not (ROOT / "src" / "ridkit" / "__init__.py").is_file():
        print(f"error: no ridkit source under {ROOT / 'src'}; run from a ridkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import END_TO_END, MODULES, PER_LAYER, WORKLOADS, Runner, run_workload
    from speed import SpeedProbe

    modules = {name: importlib.import_module(name) for name in MODULES}
    runner = Runner(modules, ROOT, speed=None if args.trace else SpeedProbe())
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                          runner, ROOT / ".perfbench" / f"{args.workload}-{args.seed}")

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result.metrics[name], "unit": unit}
               for name, unit in wanted if result.metrics.get(name) is not None}
    for op in result.ops:
        if not op.ok:
            print(f"failed: {op.stage}: {op.problem}", file=sys.stderr)
    for problem in result.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if runner.untraced:
        print(f"warning: not traced (missing): {sorted(runner.untraced)}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:>14}  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": result.samples, "artifact_sha256": result.hashes,
        "untraced": sorted(runner.untraced), "env": environment(ROOT, modules),
        "speed_probe": runner.speed and {
            "probes": len(runner.speed.durations), "reference_s": runner.speed.reference,
            "median_s": statistics.median(runner.speed.durations)},
    }, sort_keys=True))
    correct = result.correct and len(metrics) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": len(result.ops),
        "failed": sum(not op.ok for op in result.ops),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
