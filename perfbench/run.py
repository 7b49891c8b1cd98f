"""Run one wavets benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload electricity_b --seed 1 --seconds 20 --trace 0

Run it from the repository root: the program is imported from ``src``.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment (hardware, BLAS, nproc, seed, sample counts),
the error rate and the batch-1 latency. ``--trace 0`` reports the
end-to-end metrics with tracing off. ``--trace 1`` measures the workload twice, untraced and then
with spans around each layer's public functions, and reports per-layer
metrics, the unattributed remainder of each phase and the tracing
overhead; the spans go to ``perfbench/.work/trace-<workload>.json``.

The exit code is 0 only when every attempt succeeded and every output
check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# BLAS reads its thread count once, at load: set it before numpy is imported.
# One thread unless a count from 1 to nproc is given. Both workloads run as
# fast on one BLAS thread as on two (their matmuls are small next to the
# elementwise work), and a second thread makes every BLAS call wait on
# whichever core the host is slowing at that moment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _value = os.environ.get(_var, "")
    if not _value.isdigit() or not 1 <= int(_value) <= NPROC:
        os.environ[_var] = "1"


def blas_info() -> dict:
    """Vendor string and live thread count of the loaded OpenBLAS, when found."""
    info: dict = {"vendor": "unknown", "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return {"vendor": get_config().decode(), "threads": get_threads()}
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    try:
        import numpy as np
        import workloads
        from tracing import Tracer
        from wavets import evaluation
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    failures = workloads.Failures()
    metrics: dict[str, dict] = {}
    facts: dict = {}
    try:
        if args.trace:
            base, base_facts, _ = workloads.measure(workload, args.seed, args.seconds / 2, workdir, failures, 1)
            tracer = Tracer()
            workloads.install(tracer)
            try:
                traced, facts, splits = workloads.measure(
                    workload, args.seed, args.seconds / 2, workdir, failures, 1, tracer
                )
            finally:
                tracer.uninstall()
            tracer.dump(workdir / f"trace-{workload.name}.json")
            layers = workloads.layer_metrics(workload, tracer, splits, args.seed, workdir)
            b1_ratio = facts["infer_b1_ms"]["mean"] / base_facts["infer_b1_ms"]["mean"]
            layers["trace.overhead.infer_b1"] = (b1_ratio, "ratio")
            layers["trace.overhead.setup"] = (traced["setup_s"] / base["setup_s"], "ratio")
            for key, name in (("train_windows_per_s", "train"), ("eval_windows_per_s", "eval")):
                layers[f"trace.overhead.{name}"] = (base[key] / traced[key], "ratio")
            metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layers.items()}
        else:
            values, facts, _ = workloads.measure(
                workload, args.seed, args.seconds, workdir, failures, workload.setup_reps
            )
            metrics = {k: {"value": float(values[k]), "unit": u} for k, u in workloads.END_TO_END.items()}
    except RuntimeError as exc:
        failures.checks.append(str(exc))

    blas = blas_info()
    env = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "hardware": evaluation.hardware_note(),
        "numpy": np.__version__,
        "blas_vendor": blas["vendor"],
        "blas_threads": blas["threads"],
        "nproc": NPROC,
        "blas_threads_exceed_nproc": blas["threads"] is not None and blas["threads"] > NPROC,
        **facts,
        "error_rate": failures.failed / max(failures.attempted, 1),
        "failed_checks": failures.checks,
    }
    print(json.dumps({"env": env}))
    correct = not failures.checks and failures.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
