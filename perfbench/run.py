#!/usr/bin/env python3
"""Benchmark of the mlbl toolkit: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload train_clbl --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes the same measurement, then one traced pass (one set-up,
one repetition) with every layer wrapped, and reports the per-layer metrics
and the tracing overhead. Metric names, units and directions come from
``BENCHMARK.json``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
result with the run environment and every check goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``, spans next to it.

Exit status: 0 when every operation and check passed, 1 when one failed
(the JSON line is still printed), 2 when the checkout holds no mlbl
sources to benchmark (nothing is printed on standard output).
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: with two on a two-core machine, repetition times of the
# same run varied by +-15%; with one, by +-4%. Must be set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Put the checkout's ``src`` and ``tests`` first on the path and import mlbl from it."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "mlbl" / "__init__.py").is_file():
        raise ImportError(f"no mlbl package under {src}")
    if not (tests / "helpers.py").is_file():
        raise ImportError(f"no corpus generator at {tests / 'helpers.py'}")
    sys.path[:0] = [str(src), str(tests), str(HERE)]
    mlbl = importlib.import_module("mlbl")
    if not Path(mlbl.__file__).resolve().is_relative_to(src):
        raise ImportError(f"mlbl imported from {mlbl.__file__}, not from {src}")


def _openblas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    """What a result depends on besides the code: backend, libraries, cores, seed."""
    import numpy as np

    kernels = importlib.import_module("mlbl._kernels")
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        # a later revision without the backend switch runs the numpy kernels only
        "backend": getattr(kernels, "BACKEND", "numpy"),
        "numba_importable": has_numba,
        "numpy": np.__version__, "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "seed": seed,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative (numpy seeds the inputs with it)")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        _import_program()
    except (OSError, ValueError, ImportError) as exc:
        return _fail_setup(str(exc))
    import _workloads as W

    if args.workload not in W.WORKLOADS:
        return _fail_setup(f"unknown workload {args.workload!r}; "
                           f"choose from {', '.join(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    ctx = W.Context(work, args.seed)
    env = environment(args.seed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    values: dict[str, float] = {}
    dropped: dict[str, str] = {}
    try:
        measured = W.measure(workload, ctx, args.seconds)
        values.update({k: measured[k] for k in ("setup_s", "tokens_per_s", "peak_rss_mb")})
        named = {workload.headline: (measured["tokens_per_s"], "1/s", "higher"),
                 **measured.pop("named")}
        result.update(measured, named={k: v[0] for k, v in named.items()})
        if args.trace:
            layers, dropped = W.traced_pass(workload, ctx, measured["rep_s"],
                                            out_dir / f"{tag}.spans.jsonl")
            values.update(layers)
    except W.WorkloadError as exc:  # already counted as a failed operation
        print(f"perfbench: {exc}", file=sys.stderr)
        named = {}
    except Exception:  # the run's boundary: report the failure, print the result line
        traceback.print_exc()
        ctx.failed += 1
        ctx.attempted += 1
        named = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    print(f"workload {args.workload}: {workload.why}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for name, (value, unit, better) in named.items():
        print(f"  {name:34s} {_fmt(value):>14s} {unit:6s} ({better} is better)")
    for m in listed:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:34s} {_fmt(values[m['name']]):>14s} {m['unit']:6s} "
                  f"({m['better']} is better)")
        else:
            print(f"  {m['name']:34s} {'absent':>14s}  {dropped.get(m['name'], 'not measured')}")
    for check in ctx.checks:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    fail_rate = ctx.failed / max(1, ctx.attempted)
    print(f"  fail_rate {fail_rate:.6g} ({ctx.failed} of {ctx.attempted} operations and checks)")
    correct = ctx.failed == 0 and bool(metrics)
    result.update(metrics=metrics, absent=dropped, checks=ctx.checks, fail_rate=fail_rate,
                  attempted=ctx.attempted, failed=ctx.failed, correct=correct)
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
