"""The wavets benchmark workloads and the loops that measure them.

Every workload drives the library only through ``data.load_csv``,
``data.split``, ``data.standardize``, ``training.train_model``,
``training.evaluate_model``, ``model.predict``, ``model.save_model`` and
``model.load_model``. A run times four phases:

* set-up: ``load_csv`` + ``split`` + ``standardize``, repeated and
  reported as the median;
* train: ``train_model`` with ``max_epochs=1`` on a fixed train slice and
  a proportional validation slice;
* eval: ``evaluate_model`` at batch 32 on a fixed test slice;
* infer_b1: a closed loop of one caller, ``predict`` at batch 1 over
  distinct test windows.

Eval and infer_b1 serve the first fit through a checkpoint: it is saved
with ``save_model`` and read back with ``load_model``. Train, eval and
infer_b1 calls interleave one by one until ``--seconds`` is spent, and
the set-up repeats are spread evenly over the run. Each timed phase
starts after an untimed warm-up call. Every train step,
validation batch, eval batch, predict call and output check is an
attempt; a raised error, a non-finite output or a failed check is a
failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from tracing import Tracer

from wavets import autodiff, checkpoint, data, evaluation, model, moe, optim, revin, training, wavelet
from wavets.data import Series, SplitSpec
from wavets.model import ModelConfig
from wavets.moe import MoEConfig
from wavets.training import TrainSettings

BATCH = 32
SETTINGS = TrainSettings(batch_size=BATCH, max_epochs=1)
# The seed drives the inputs only. A fixed model seed keeps test_mse from
# swinging with the initial weights, which a short fit barely moves.
MODEL_SEED = 0
# Shares of the timed time given to each phase. Batch-1 latency is not
# gated (see END_TO_END), so it gets only what its sample count needs.
SHARES = {"train": 0.58, "eval": 0.4, "infer_b1": 0.02}
MIN_B1_SAMPLES = 110  # leaves at least 10 samples beyond p90
# Two train and eval calls at least, so that the repeat checks compare two
# calls. On etth1_m a train call is a full epoch of ~10 s.
MIN_CALLS = 2
AGREE_TOL = 1e-10

# Batch-1 latency is reported with the run facts, not here: on a shared
# host whose speed flips every few seconds it spread 0.23-0.41 (IQR over
# median, ten seeds) at N=321, wider than any bound the benchmark may set.
END_TO_END = {
    "setup_s": "s",
    "train_windows_per_s": "windows/s",
    "eval_windows_per_s": "windows/s",
    "test_mse": "std_units2",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs, model and how much of each split it uses."""

    name: str
    style: str  # inputs style: "electricity" or "etth1"
    rows: int
    model: ModelConfig
    split: SplitSpec
    train_windows: int | None  # None: the whole split, one full epoch
    test_windows: int | None
    setup_reps: int

    @property
    def channels(self) -> int:
        return self.model.channels


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="electricity_b",
            style="electricity",
            rows=26304,
            model=ModelConfig(variant="B", lookback=720, horizon=96, channels=321, bank="haar"),
            split=SplitSpec("ratio", 0.7, 0.1),
            # A full epoch is ~17.6k windows, about 7 minutes: use slices.
            # Two steps a call keep the calls short, so that train and eval
            # interleave finely over the run.
            train_windows=64,
            test_windows=128,
            setup_reps=3,
        ),
        Workload(
            name="etth1_m",
            style="etth1",
            rows=17420,
            model=ModelConfig(
                variant="M",
                lookback=720,
                horizon=96,
                channels=7,
                bank="d4",
                moe=MoEConfig(num_experts=4, hidden=64),
            ),
            split=SplitSpec("ett_hours"),
            train_windows=None,
            test_windows=None,
            setup_reps=40,
        ),
    )
}


class Failures:
    """Attempt and failure counts plus the names of failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[str] = []

    def call(self, attempts: int, fn, *args, **kwargs):
        """Run ``fn``; on an exception count all ``attempts`` as failed."""
        self.attempted += attempts
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed call is a measured outcome here
            traceback.print_exc()
            self.failed += attempts
            self.checks.append(f"{getattr(fn, '__name__', fn)} raised {type(exc).__name__}: {exc}")
            return None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks.append(what)
        return ok


def cached_csv(workload: Workload, seed: int, workdir: Path) -> Path:
    """The workload's generated CSV, written by a child process if missing.

    Only the newest seed of each shape is kept, which bounds disk use.
    """
    stem = f"{workload.style}-{workload.rows}x{workload.channels}"
    path = workdir / f"{stem}-seed{seed}.csv"
    if not path.exists():
        for stale in workdir.glob(f"{stem}-seed*.csv"):
            stale.unlink()
        script = Path(inputs.__file__)
        args = [workload.style, seed, workload.rows, workload.channels, path]
        subprocess.run([sys.executable, str(script), *map(str, args)], check=True)
    return path


def _head(series: Series, cfg: ModelConfig, windows: int | None) -> Series:
    """The first ``windows`` windows of a split, or all of it."""
    if windows is None:
        return series
    return dataclasses.replace(series, values=series.values[: windows + cfg.lookback + cfg.horizon - 1])


def _window_count(series: Series, cfg: ModelConfig) -> int:
    return series.length - cfg.lookback - cfg.horizon + 1


def _steps(windows: int) -> int:
    return math.ceil(windows / BATCH)


def _finite_params(params) -> bool:
    return all(np.isfinite(p.data).all() for p in params.values())


@dataclass
class Splits:
    train: Series
    val: Series
    test: Series


def _prepare(series: Series, workload: Workload) -> Splits:
    cfg, split, windows = workload.model, workload.split, workload.train_windows
    train, val, test = data.split(series, split, cfg.lookback)
    _, (train, val, test) = data.standardize(train, val, test)
    if windows is not None:
        # Validation keeps the protocol's val/train proportion.
        train = _head(train, cfg, windows)
        val = _head(val, cfg, max(1, round(windows * split.val_frac / split.train_frac)))
    return Splits(train, val, _head(test, cfg, workload.test_windows))


def _window(series: Series, cfg: ModelConfig, origin: int) -> np.ndarray:
    """One lookback window as a (1, L, N) view of the series."""
    return series.values[origin : origin + cfg.lookback][None]


def _train(cfg: ModelConfig, splits: Splits, failures: Failures):
    """One checked ``train_model`` call: the result, or None if it failed."""
    steps = _steps(_window_count(splits.train, cfg)) + _steps(_window_count(splits.val, cfg))
    result = failures.call(steps, training.train_model, cfg, splits.train, splits.val, SETTINGS, MODEL_SEED)
    if result is None:
        return None
    stats = result.history[0]
    finite = math.isfinite(stats.train_mse) and math.isfinite(stats.val_mse) and _finite_params(result.params)
    return result if failures.check(finite, "train_model produced a non-finite loss or parameter") else None


def _check_repeats(results: list, failures: Failures) -> None:
    failures.check(
        all(np.array_equal(r.params[k].data, results[0].params[k].data) for r in results for k in r.params),
        "repeated train_model calls with one seed gave different parameters",
    )


def _throughput(windows: int, times: list[float]) -> float:
    """Windows per second over every timed call.

    Total work over total time rather than a median of calls: the host's
    speed flips between two states every few seconds, and a median of a
    handful of calls jumps with them, while the total moves smoothly with
    the share of the run spent in each state.
    """
    return windows * len(times) / sum(times)


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    failures: Failures,
    setup_reps: int,
    tracer: Tracer | None = None,
) -> tuple[dict[str, float], dict[str, int], Splits]:
    """One pass over every phase: end-to-end metrics, run facts, the splits."""
    cfg = workload.model

    def phase(name: str):
        return tracer.span(f"phase.{name}") if tracer else contextlib.nullcontext()

    path = cached_csv(workload, seed, workdir)
    setup_times: list[float] = []

    def setup_once() -> Splits:
        t0 = time.perf_counter()
        with phase("setup"):
            out = _prepare(data.load_csv(path), workload)
        setup_times.append(time.perf_counter() - t0)
        return out

    results: list = []
    reports: list[dict] = []
    train_times: list[float] = []
    eval_times: list[float] = []
    b1_times: list[float] = []

    def train_once() -> bool:
        results.append(_train(cfg, splits, failures))
        return results[-1] is not None

    def eval_once() -> bool:
        report = failures.call(_steps(n_test), training.evaluate_model, *serving, splits.test, BATCH)
        if report is None:
            return False
        reports.append(report)
        return failures.check(math.isfinite(report["mse"]) and math.isfinite(report["mae"]), "non-finite test error")

    def predict_once() -> bool:
        x = _window(splits.test, cfg, len(b1_times) % n_test)
        out = failures.call(1, model.predict, *serving, x)
        return out is not None and failures.check(bool(np.isfinite(out).all()), "non-finite batch-1 prediction")

    def serve_from_checkpoint(params) -> tuple[ModelConfig, dict]:
        """Save the fitted model, load it back and warm up the serving calls.

        Eval and batch-1 predict read the loaded copy, so they serve what a
        checkpoint holds, and ``load_model`` is reached in the traced run.
        """
        ckpt = workdir / f"{workload.name}.ckpt.json"
        model.save_model(cfg, params, ckpt)
        loaded = failures.call(1, model.load_model, ckpt)
        if loaded is None:
            raise RuntimeError("load_model failed: " + "; ".join(failures.checks))
        # Checkpoints hold float32 buffers, so the loaded weights are the
        # fitted ones rounded to float32.
        failures.check(
            loaded[0] == cfg
            and all(np.array_equal(loaded[1][k].data, params[k].data.astype(np.float32)) for k in params),
            "load_model did not give back the saved model",
        )
        failures.call(1, training.evaluate_model, *loaded, _head(splits.test, cfg, BATCH), BATCH)
        for origin in range(10):
            failures.call(1, model.predict, *loaded, _window(splits.test, cfg, origin % n_test))
        return loaded

    splits = setup_once()
    n_train, n_val, n_test = (_window_count(s, cfg) for s in (splits.train, splits.val, splits.test))
    # Warm-up: one untimed train step.
    warm = (_head(splits.train, cfg, BATCH), _head(splits.val, cfg, 1))
    failures.call(2, training.train_model, cfg, *warm, SETTINGS, MODEL_SEED)
    serving = None

    # The phases interleave call by call: the next call is always of the
    # phase furthest behind its share of the timed time, so every metric
    # samples the whole run rather than one stretch of it. The host's speed
    # drifts over tens of seconds, so samples taken in one burst would all
    # land in one drift state. The set-up repeats are spread evenly over
    # the run in the same way. No call starts that would end more than half
    # its own length past the run's end, once every phase has its minimum.
    calls = {"train": train_once, "eval": eval_once, "infer_b1": predict_once}
    times = {"train": train_times, "eval": eval_times, "infer_b1": b1_times}
    minimum = {"train": MIN_CALLS, "eval": MIN_CALLS, "infer_b1": MIN_B1_SAMPLES}
    spent = dict.fromkeys(SHARES, 0.0)
    start = time.perf_counter()
    end = start + seconds
    setup_due = [start + seconds * k / setup_reps for k in range(1, setup_reps)]
    ok = True
    while ok:
        now = time.perf_counter()
        if setup_due and now >= setup_due[0]:
            setup_due.pop(0)
            setup_once()
            continue
        name = min(SHARES, key=lambda p: spent[p] / SHARES[p])
        if times[name] and now + times[name][-1] / 2 > end:
            short = [p for p in SHARES if len(times[p]) < minimum[p]]
            if not short:
                break
            name = min(short, key=lambda p: spent[p] / SHARES[p])
        with phase(name):
            t0 = time.perf_counter()
            ok = calls[name]()
            times[name].append(time.perf_counter() - t0)
        spent[name] += times[name][-1]
        if ok and serving is None:
            serving = serve_from_checkpoint(results[-1].params)
    while ok and setup_due:
        setup_due.pop(0)
        setup_once()
    if not ok:
        raise RuntimeError("a phase failed: " + "; ".join(failures.checks))
    _check_repeats(results, failures)
    test_mse = reports[0]["mse"]
    failures.check(all(r["mse"] == test_mse for r in reports), "repeated evaluate_model calls disagree")

    # Batch-1 and batch-32 predictions of the same windows must agree.
    origins = range(min(n_test, BATCH))
    singles = [failures.call(1, model.predict, *serving, _window(splits.test, cfg, o)) for o in origins]
    batch = np.concatenate([_window(splits.test, cfg, o) for o in origins])
    batched = failures.call(1, model.predict, *serving, batch)
    if batched is not None and all(s is not None for s in singles):
        gap = float(np.max(np.abs(batched - np.concatenate(singles))))
        failures.check(gap <= AGREE_TOL, f"batch-1 and batch-32 predictions differ by {gap:.3g}")

    b1_ms = np.asarray(b1_times) * 1e3
    p50, p90 = np.percentile(b1_ms, [50, 90])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "train_windows_per_s": _throughput(n_train, train_times),
        "eval_windows_per_s": _throughput(n_test, eval_times),
        "test_mse": test_mse,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    facts = {
        "samples": {
            "setup_s": len(setup_times),
            "train_windows_per_s": len(train_times),
            "eval_windows_per_s": len(eval_times),
            "infer_b1_ms": len(b1_times),
        },
        "windows": {"train": n_train, "val": n_val, "test": n_test},
        "infer_b1_ms": {"mean": float(b1_ms.mean()), "p50": float(p50), "p90": float(p90)},
    }
    return metrics, facts, splits


# ----------------------------------------------------------------- tracing

# The tape's ops: autodiff's own public functions, less the two that
# record nothing.
AUTODIFF_OPS = tuple(
    name
    for name, fn in vars(autodiff).items()
    if inspect.isfunction(fn)
    and fn.__module__ == autodiff.__name__
    and not name.startswith("_")
    and name not in ("constant", "zero_grads")
)


# (span, field) pairs reported as "<span>.<field>" per-layer metrics.
SPAN_METRICS = (
    ("data.load_csv", "s"),
    ("data.standardize", "s"),
    ("data.gather", "calls"),
    ("data.gather", "s"),
    ("revin.forward", "self_s"),
    ("revin.inverse", "self_s"),
    ("wavelet.dwt", "calls"),
    ("wavelet.dwt", "self_s"),
    ("wavelet.synthesize_band", "calls"),
    ("wavelet.synthesize_band", "self_s"),
    ("model.forward", "calls"),
    ("model.forward", "s"),
    ("model.forward", "self_s"),
    ("model.heads", "self_s"),
    ("moe.forward", "s"),
    ("moe.forward", "self_s"),
    ("moe.linear", "self_s"),
    ("autodiff.backward", "self_s"),
    ("autodiff.dwt_pair", "self_s"),
    ("optim.step", "calls"),
    ("optim.step", "self_s"),
    ("training.train_model", "s"),
    ("training.train_model", "self_s"),
    ("training.validation", "s"),
    ("training.evaluate_model", "self_s"),
    ("model.load_model", "s"),
    ("checkpoint.load_params", "s"),
)


def _batch_windows(args, _result) -> int:
    x = args[2]
    return len(x.data if isinstance(x, autodiff.Tensor) else x)


def _gather_bytes(_args, batch) -> int:
    return batch.x.nbytes + batch.y.nbytes


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    ops = {op: getattr(autodiff, op) for op in AUTODIFF_OPS}
    for module in (autodiff, model, revin, moe, training):
        for op, fn in ops.items():
            if getattr(module, op, None) is fn:
                tracer.count_ops(module, op)
    spans = [
        (data, "load_csv", "data.load_csv"),
        (data, "split", "data.split"),
        (data, "standardize", "data.standardize"),
        (model, "revin_forward", "revin.forward"),
        (model, "revin_inverse", "revin.inverse"),
        (model, "dwt_pair", "autodiff.dwt_pair"),
        (model, "linear", "model.heads"),
        (moe, "moe_forward", "moe.forward"),
        (moe, "linear", "moe.linear"),
        (wavelet, "dwt_arrays", "wavelet.dwt"),
        (wavelet, "synthesize_band", "wavelet.synthesize_band"),
        (autodiff.Tensor, "backward", "autodiff.backward"),
        (optim.Adam, "step", "optim.step"),
        (training, "train_model", "training.train_model"),
        (training, "evaluate_mse", "training.validation"),
        (training, "evaluate_model", "training.evaluate_model"),
        (model, "load_model", "model.load_model"),
        (checkpoint, "load_params", "checkpoint.load_params"),
    ]
    for owner, attr, name in spans:
        tracer.wrap(owner, attr, name)
    tracer.wrap(data.WindowSampler, "gather", "data.gather", amount=_gather_bytes)
    for module in (training, model):
        tracer.wrap(module, "forward", "model.forward", amount=_batch_windows)


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(
    workload: Workload, tracer: Tracer, splits: Splits, seed: int, workdir: Path
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans, plus two tracemalloc passes."""
    cfg = workload.model
    s = tracer.summary(forward_root="model.forward")
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "fwd_self_s": 0.0, "amount": 0, "ops": 0}

    def get(name: str) -> dict:
        return s.get(name, zero)

    forwarded = get("model.forward")["amount"]
    macs = evaluation.count_macs(cfg, batch_size=1)
    wavelet_fwd_s = get("wavelet.dwt")["fwd_self_s"]
    linear_fwd_s = get("model.heads")["fwd_self_s"] + get("moe.linear")["fwd_self_s"]
    steps = get("optim.step")["calls"]
    step_ops = get("training.train_model")["ops"] - get("training.validation")["ops"]

    def rate(work: int, secs: float) -> float:
        return work / secs / 1e9 if secs > 0 else 0.0

    out: dict[str, tuple[float, str]] = {
        f"{span}.{field}": (get(span)[field], "count" if field == "calls" else "s")
        for span, field in SPAN_METRICS
    }
    out.update({
        "data.gather.mb": (get("data.gather")["amount"] / 2**20, "MiB"),
        "autodiff.ops_per_step": (step_ops / steps if steps else 0.0, "count"),
        "wavelet.macs": (macs.transform_per_sample * BATCH, "MAC"),
        "model.linear_macs": (macs.linear_per_sample * BATCH, "MAC"),
        "wavelet.gmacs_per_s": (rate(macs.transform_per_sample * forwarded, wavelet_fwd_s), "GMAC/s"),
        "model.heads.gmacs_per_s": (rate(macs.linear_per_sample * forwarded, linear_fwd_s), "GMAC/s"),
    })
    for phase in ("setup", "train", "eval", "infer_b1"):
        out[f"{phase}.unattributed_s"] = (get(f"phase.{phase}")["self_s"], "s")

    # Peak traced memory, in passes of their own: tracemalloc slows every
    # allocation, so it stays off while spans are timed.
    out["training.train_model.peak_mb"] = (
        _peak_mb(training.train_model, cfg, splits.train, splits.val, SETTINGS, MODEL_SEED),
        "MiB",
    )
    out["data.load_csv.peak_mb"] = (_peak_mb(data.load_csv, cached_csv(workload, seed, workdir)), "MiB")
    return out
