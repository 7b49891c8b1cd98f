"""Command-line entry point.

Subcommands: train, eval, ablate, decompose, benchmark, sweep, synth,
table. Every failure exits nonzero with a one-line machine-parsable
reason on stderr (``error <reason>: ...``).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import data as data_mod
from . import evaluation as ev
from . import model as model_mod
from . import moe as moe_mod
from . import wavelet
from .atomic import atomic_write, write_csv, write_json, write_rows
from .config import (
    RunConfig,
    add_config_arguments,
    apply_overrides,
    config_hash,
    given_settings,
    join_flag_values,
    load_config_file,
    resolve_config,
)
from .exceptions import InvalidConfigError, ParseError, ReconstructionError, WavetsError
from .training import TrainSettings, evaluate_model, train_model

PROG = "wavets"


# ---------------------------------------------------------------------------
# shared pipeline pieces


def load_series(cfg: RunConfig) -> tuple[data_mod.Series, str]:
    """Resolve the data source: a CSV path or a synth:<kind> spec."""
    if not cfg.data:
        raise InvalidConfigError("no data source configured (set --data)")
    if cfg.data.startswith("synth:"):
        kind = cfg.data.split(":", 1)[1]
        series = data_mod.synth(kind, cfg.synth_length, cfg.synth_channels, cfg.synth_seed)
        return series, cfg.data
    path = Path(cfg.data)
    if not path.exists():
        raise data_mod.ParseError(f"dataset file not found: {path}")
    return data_mod.load_csv(path), path.stem


def prepare_splits(cfg: RunConfig, series: data_mod.Series):
    spec = data_mod.SplitSpec(scheme=cfg.split, train_frac=cfg.train_frac, val_frac=cfg.val_frac)
    train_v, val_v, test_v = data_mod.split(series, spec, lookback=cfg.lookback)
    if cfg.standardize:
        _, (train_v, val_v, test_v) = data_mod.standardize(train_v, val_v, test_v)
    return train_v, val_v, test_v


def _infer_ms(mcfg: model_mod.ModelConfig, params: dict, sampler: data_mod.WindowSampler) -> float:
    """Mean milliseconds of a batch-1 forecast of the sampler's first window, over 100 calls."""
    single = sampler.gather(sampler.origins[:1])
    return 1000.0 * ev.time_mean(lambda: model_mod.predict(mcfg, params, single.x), repeats=100)


def run_one_seed(
    mcfg: model_mod.ModelConfig,
    settings: TrainSettings,
    seed: int,
    splits: tuple[data_mod.Series, data_mod.Series, data_mod.Series],
    dataset_name: str,
    measure_infer: bool = True,
) -> tuple[ev.RunReport, dict, dict]:
    """Train + evaluate one seed on :func:`prepare_splits` output; returns
    (report, details, params)."""
    train_v, val_v, test_v = splits
    result = train_model(mcfg, train_v, val_v, settings, seed)
    metrics = evaluate_model(mcfg, result.params, test_v, settings.batch_size)

    macs, counts = ev.count_macs(mcfg, settings.batch_size), ev.count_params(mcfg)
    report = ev.RunReport(
        dataset=dataset_name,
        variant=mcfg.variant,
        lookback=mcfg.lookback,
        horizon=mcfg.horizon,
        channels=mcfg.channels,
        bank=mcfg.bank,
        seed=seed,
        mse=metrics["mse"],
        mae=metrics["mae"],
        param_count=counts.total,
        macs_per_sample=macs.linear_per_sample,
        macs_per_batch=macs.linear_per_batch,
        transform_macs_per_sample=macs.transform_per_sample,
        epochs_trained=result.epochs_trained,
        epoch_time_s=result.mean_epoch_seconds,
    )
    sampler = data_mod.WindowSampler(test_v, mcfg.lookback, mcfg.horizon)
    if measure_infer:
        report.infer_time_ms = _infer_ms(mcfg, result.params, sampler)

    persistence = ev.accumulate_errors(
        (ev.persistence_baseline(batch), batch.y) for batch in sampler.batches(settings.batch_size)
    )
    details = {
        "seed": seed,
        "history": [asdict(h) for h in result.history],
        "best_epoch": result.best_epoch,
        "metrics": metrics,
        "persistence": {"mse": persistence["mse"], "mae": persistence["mae"]},
        "macs": {
            "linear_per_sample": macs.linear_per_sample,
            "transform_per_sample": macs.transform_per_sample,
            "total_per_sample": macs.total_per_sample,
            "batch_size": macs.batch_size,
        },
        "param_breakdown": counts.breakdown,
        "hardware": ev.hardware_note(),
    }
    return report, details, result.params


def _write_gate_report(mcfg, params, test_v: data_mod.Series, batch_size: int, path: Path) -> None:
    """Channel-to-expert assignment diagnostics on the first test batch."""
    sampler = data_mod.WindowSampler(test_v, mcfg.lookback, mcfg.horizon)
    batch = sampler.gather(sampler.origins[:batch_size])
    rows = moe_mod.gate_report(model_mod.gate_probabilities(mcfg, params, batch.x), test_v.channel_names)
    moe_mod.write_gate_report_csv(rows, path, mcfg.moe.num_experts)


def make_run_dir(cfg: RunConfig) -> Path:
    """A fresh directory named by start second and config hash, holding the
    run's ``config.json``.

    Identical runs started in the same second get numeric suffixes, so no
    run writes into another's directory.
    """
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    base = Path(cfg.out) / f"{time.strftime('%Y%m%d-%H%M%S')}-{config_hash(cfg)}"
    path = base
    for suffix in itertools.count(1):
        try:
            path.mkdir()
            break
        except FileExistsError:
            path = base.with_name(f"{base.name}-{suffix}")
    write_json(path / "config.json", cfg.to_dict())
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    seeds = cfg.seed_list()
    series, dataset_name = load_series(cfg)
    splits = prepare_splits(cfg, series)
    mcfg, settings = cfg.model_config(series.channels), cfg.train_settings()
    run_dir = make_run_dir(cfg)

    reports, all_details = [], []
    for seed in seeds:
        report, details, params = run_one_seed(mcfg, settings, seed, splits, dataset_name)
        suffix = "" if len(seeds) == 1 else f"_seed{seed}"
        model_mod.save_model(mcfg, params, run_dir / f"checkpoint{suffix}.json")
        if mcfg.moe is not None:
            _write_gate_report(mcfg, params, splits[2], settings.batch_size, run_dir / f"gates{suffix}.csv")
        reports.append(report)
        all_details.append(details)
        print(
            f"seed {seed}: test mse {report.mse:.6f} mae {report.mae:.6f} "
            f"({report.epochs_trained} epochs, best {details['best_epoch']})"
        )

    ev.write_reports_csv(reports, run_dir / "report.csv")
    summary = {}
    if len(reports) > 1:
        mses = [r.mse for r in reports]
        maes = [r.mae for r in reports]
        summary = {
            "mse_mean": float(np.mean(mses)),
            "mse_std": float(np.std(mses)),
            "mae_mean": float(np.mean(maes)),
            "mae_std": float(np.std(maes)),
        }
        print(
            f"{len(reports)} seeds: mse {summary['mse_mean']:.6f}±{summary['mse_std']:.6f} "
            f"mae {summary['mae_mean']:.6f}±{summary['mae_std']:.6f}"
        )
    write_json(run_dir / "details.json", {"runs": all_details, "summary": summary})
    print(f"artifacts: {run_dir}")
    return 0


# The keys that choose a run's test rows; eval reads them from the run's config.json.
PROTOCOL_KEYS = (
    "data", "split", "train_frac", "val_frac", "standardize", "synth_length", "synth_channels", "synth_seed"
)
_MODEL_KEYS = {f.name for f in fields(model_mod.ModelConfig)} | {"moe_experts", "moe_hidden"}
# Every key but the model's and batch_size: the protocol and the keys eval never reads.
_RUN_KEYS = [f.name for f in fields(RunConfig) if f.name not in _MODEL_KEYS and f.name != "batch_size"]


def _eval_config(args, mcfg: model_mod.ModelConfig) -> RunConfig:
    """The flags and ``--config`` file over the checkpoint's model ``mcfg`` and the
    run's keys from the ``config.json`` beside it. With no such file the given protocol
    keys stand and every other run key takes its default. A given key that changes
    either (the model once normalized) is a config error, so eval never ignores a key.
    Whether the model reads a key hangs only on ``variant`` and ``delta_mode``, so keys
    that agree one at a time agree together; eval reads ``batch_size`` as given."""
    settings = given_settings(args)
    given = apply_overrides(RunConfig(), settings)
    run_file = Path(args.checkpoint).with_name("config.json")
    if run_file.exists():
        source, run_settings = run_file, load_config_file(run_file)
    else:
        source, run_settings = "the default run config", {k: v for k, v in settings.items() if k in PROTOCOL_KEYS}
    run = apply_overrides(RunConfig(), run_settings)
    recorded = replace(given, **{name: getattr(run, name) for name in _RUN_KEYS}).with_model(mcfg)

    def described(cfg: RunConfig):
        return cfg.model_config(mcfg.channels), [getattr(cfg, name) for name in _RUN_KEYS]

    for name in settings:
        value = getattr(given, name)
        if described(replace(recorded, **{name: value})) != described(recorded):
            where = model_mod.config_sidecar_path(args.checkpoint) if name in _MODEL_KEYS else source
            raise InvalidConfigError(f"{name}={value!r} disagrees with {where}, which has {getattr(recorded, name)!r}")
    return recorded


def cmd_eval(args) -> int:
    mcfg, params = model_mod.load_model(args.checkpoint)
    cfg = _eval_config(args, mcfg)
    series, dataset_name = load_series(cfg)
    if series.channels != mcfg.channels:
        raise InvalidConfigError(f"checkpoint expects {mcfg.channels} channels, data has {series.channels}")
    _, _, test_v = prepare_splits(cfg, series)
    metrics = evaluate_model(mcfg, params, test_v, cfg.batch_size)
    print(f"{dataset_name}: test mse {metrics['mse']:.6f} mae {metrics['mae']:.6f} "
          f"({metrics['windows']} windows)")
    return 0


GRID_DELTA_FIXED = ("delta-fixed", "dfix")


def _grid_cell_config(cfg: RunConfig, token: str) -> RunConfig:
    if token.upper() in model_mod.VARIANTS:
        return replace(cfg, variant=token.upper())
    if token.lower() in wavelet.BANK_NAMES:
        return replace(cfg, bank=token.lower())
    if token.lower() in GRID_DELTA_FIXED:
        return replace(cfg, delta_mode="fixed")
    raise InvalidConfigError(
        f"unknown grid cell {token!r}: use a variant, a filter bank, or delta-fixed"
    )


def _run_grid(
    cfg: RunConfig,
    key: str,
    cells: list,
    cell_config: Callable[[Any], RunConfig],
    csv_name: str,
    measure_infer: bool,
) -> int:
    """One training run per grid cell, on data loaded once, written to ``csv_name``.

    ``cell_config(cell)`` gives each cell's config. A failed cell records an
    ``error:<reason>`` row and the grid goes on.
    """
    settings = cfg.train_settings()  # no cell overrides it: a bad one fails before any output
    if cfg.seeds:
        raise InvalidConfigError(f"a grid trains one seed, set by seed; seeds={cfg.seeds!r} would be ignored")
    series, dataset_name = load_series(cfg)
    run_dir = make_run_dir(cfg)
    rows = []
    for cell in cells:
        try:
            cell_cfg = cell_config(cell)
            splits = prepare_splits(cell_cfg, series)
            mcfg = cell_cfg.model_config(series.channels)
            report, _, _ = run_one_seed(mcfg, settings, cell_cfg.seed, splits, dataset_name, measure_infer)
            rows.append([cell, "ok", *(getattr(report, name) for name in ev.RunReport.CSV_FIELDS)])
            print(f"{key} {cell}: mse {report.mse:.6f} mae {report.mae:.6f}")
        except WavetsError as exc:
            rows.append([cell, f"error:{exc.reason}", *[None] * len(ev.RunReport.CSV_FIELDS)])
            print(f"{key} {cell}: failed ({exc.reason}: {exc})", file=sys.stderr)
    write_csv(run_dir / csv_name, [key, "status", *ev.RunReport.CSV_FIELDS], rows)
    print(f"artifacts: {run_dir}")
    return 0


def _comma_list(flag: str, text: str, item: str) -> list[str]:
    """The stripped, non-empty entries of a comma-list flag; a config error if there are none."""
    entries = [entry.strip() for entry in text.split(",") if entry.strip()]
    if not entries:
        raise InvalidConfigError(f"{flag} names no {item}")
    return entries


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    tokens = _comma_list("--grid", args.grid, "cell")
    return _run_grid(
        cfg, "cell", tokens, lambda token: _grid_cell_config(cfg, token), "ablation.csv", measure_infer=True
    )


def cmd_decompose(args) -> int:
    series = data_mod.load_csv(args.input)
    bank = wavelet.get_bank(args.bank)
    bands = wavelet.dwt_multi(series.values.T, bank, args.levels)  # channels on rows
    labelled = [(f"detail{level}", detail) for level, (_, detail) in enumerate(bands, start=1)]
    labelled.append(("approx", bands[-1][0]))  # the deepest level's approximation
    rows = (
        (name, label, i, value)
        for label, coeffs in labelled
        for name, channel in zip(series.channel_names, coeffs)
        for i, value in enumerate(channel.tolist())
    )
    write_csv(args.output, ["channel", "band", "index", "value"], rows)
    print(f"wrote {Path(args.output)}")
    if args.reconstruct:
        recon = wavelet.idwt_multi(bands, bank).T
        err = float(np.max(np.abs(recon - series.values)))
        data_mod.save_csv(
            data_mod.Series(values=recon, channel_names=series.channel_names), args.reconstruct
        )
        print(f"reconstruction max abs error: {err:.3e}")
        if err > 1e-8:
            raise ReconstructionError(f"reconstruction error {err:.3e} exceeds 1e-8")
    return 0


def cmd_benchmark(args) -> int:
    cfg = resolve_config(args)
    variants = [v.upper() for v in _comma_list("--variants", args.variants, "variant")]
    if args.bench_windows < 1:
        raise InvalidConfigError(f"--bench-windows must be >= 1, got {args.bench_windows}")
    header = [
        "variant",
        "param_count",
        "macs_per_sample",
        "macs_per_batch",
        "transform_macs_per_sample",
        "total_macs_per_batch",
        "epoch_time_s",
        "infer_time_ms",
    ]
    rows = []
    settings = cfg.train_settings() if args.measure else None
    for variant in variants:
        vcfg = replace(cfg, variant=variant)
        mcfg = vcfg.model_config(args.channels)
        macs = ev.count_macs(mcfg, cfg.batch_size)
        timing = _measure_speed(mcfg, settings, args.bench_windows) if args.measure else (None, None)
        rows.append([
            variant,
            ev.count_params(mcfg).total,
            macs.linear_per_sample,
            macs.linear_per_batch,
            macs.transform_per_sample,
            macs.total_per_batch,
            *timing,
        ])
    write_rows(sys.stdout, header, rows)
    if args.output:
        write_csv(args.output, header, rows)
        write_json(Path(args.output).with_suffix(".config.json"), cfg.to_dict())
    return 0


def _measure_speed(mcfg: model_mod.ModelConfig, settings: TrainSettings, bench_windows: int):
    """``train_model``'s mean epoch seconds, the figure behind ``epoch_time_s``,
    over three epochs of ``bench_windows`` synthetic training windows and
    one validation window; then batch-1 milliseconds of the trained model."""
    rng = np.random.default_rng(0)

    def series(windows: int) -> data_mod.Series:  # T rows hold T - L - S + 1 windows
        values = rng.normal(size=(mcfg.lookback + mcfg.horizon + windows - 1, mcfg.channels))
        return data_mod.Series(values=values, channel_names=[f"ch{i}" for i in range(mcfg.channels)])

    train = series(bench_windows)
    result = train_model(mcfg, train, series(1), replace(settings, max_epochs=3, patience=3))
    sampler = data_mod.WindowSampler(train, mcfg.lookback, mcfg.horizon)
    return result.mean_epoch_seconds, _infer_ms(mcfg, result.params, sampler)


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    tokens = _comma_list("--lengths", args.lengths, "length")
    try:
        lengths = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise InvalidConfigError(f"--lengths must be integers: {exc}") from exc
    return _run_grid(
        cfg, "L", lengths, lambda length: replace(cfg, lookback=length), "sweep.csv", measure_infer=False
    )


def cmd_synth(args) -> int:
    series = data_mod.synth(args.kind, args.length, args.channels, args.seed)
    data_mod.save_csv(series, args.output)
    print(f"wrote {args.output} ({series.length} rows x {series.channels} channels)")
    return 0


def _report_rows(path: Path) -> list[tuple[str, int, str, float, float]]:
    """(dataset, horizon, variant, mse, mae) of each row of one ``report.csv``;
    a missing column or an unreadable value is a ParseError naming the file."""
    try:
        return [
            (row["dataset"], int(row["horizon"]), row["variant"], float(row["mse"]), float(row["mae"]))
            for row in ev.read_reports_csv(path)
        ]
    except KeyError as exc:
        raise ParseError(f"{path}: no {exc.args[0]!r} column") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def cmd_table(args) -> int:
    root = Path(args.runs)
    if not root.is_dir():
        raise ParseError(f"{root}: no such directory")
    reports = [row for path in sorted(root.rglob("report.csv")) for row in _report_rows(path)]
    if not reports:
        print(f"no report rows under {root}")
        return 0
    # dataset -> horizon -> variant -> list of (mse, mae)
    cells: dict[str, dict[int, dict[str, list[tuple[float, float]]]]] = {}
    for dataset, horizon, variant, mse, mae in reports:
        cells.setdefault(dataset, {}).setdefault(horizon, {}).setdefault(variant, []).append((mse, mae))
    lines = []
    for dataset in sorted(cells):
        by_horizon = cells[dataset]
        variants = sorted({v for grid in by_horizon.values() for v in grid})
        lines.append(f"# {dataset} (cells: mse/mae, mean over seeds)")
        lines.append(",".join(["horizon", *variants]))
        for horizon in sorted(by_horizon):
            row = [str(horizon)]
            for variant in variants:
                pairs = by_horizon[horizon].get(variant)
                if pairs:
                    mean_mse = float(np.mean([p[0] for p in pairs]))
                    mean_mae = float(np.mean([p[1] for p in pairs]))
                    row.append(f"{mean_mse:.3f}/{mean_mae:.3f}")
                else:
                    row.append("")
            lines.append(",".join(row))
        lines.append("")
    text = "\n".join(lines)
    print(text, end="")
    if args.output:
        with atomic_write(args.output) as fh:
            fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model (or several seeds) and evaluate it")
    add_config_arguments(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint on a dataset's test split")
    p_eval.add_argument("--checkpoint", required=True)
    add_config_arguments(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="run a grid of variants / banks / delta modes")
    p_ablate.add_argument("--grid", default="", help="comma list, e.g. B,LF,HF or haar,d4,sym4,coif1")
    add_config_arguments(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_dec = sub.add_parser("decompose", help="dump wavelet bands of a CSV")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--output", required=True)
    p_dec.add_argument("--bank", default="haar")
    p_dec.add_argument("--levels", type=int, default=1)
    p_dec.add_argument("--reconstruct", default=None, help="also invert and write this CSV")
    p_dec.set_defaults(func=cmd_decompose)

    p_bench = sub.add_parser("benchmark", help="parameter/MAC accounting (optionally timed)")
    p_bench.add_argument("--variants", default="B,S,M")
    p_bench.add_argument("--channels", type=int, required=True)
    p_bench.add_argument("--measure", action="store_true", help="also time epochs and inference")
    p_bench.add_argument("--bench-windows", type=int, default=128)
    p_bench.add_argument("--output", default=None)
    add_config_arguments(p_bench)
    p_bench.set_defaults(func=cmd_benchmark)

    p_sweep = sub.add_parser("sweep", help="train across input lengths at fixed horizon")
    p_sweep.add_argument("--lengths", required=True, help="comma list of lookback lengths")
    add_config_arguments(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = sub.add_parser("synth", help="generate a synthetic CSV")
    p_synth.add_argument("--kind", default="sine_mix", choices=data_mod.SYNTH_KINDS)
    p_synth.add_argument("--length", type=int, default=4000)
    p_synth.add_argument("--channels", type=int, default=4)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_table = sub.add_parser("table", help="aggregate run reports into a horizon x variant grid")
    p_table.add_argument("--runs", required=True, help="directory to scan for report.csv files")
    p_table.add_argument("--output", default=None)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(join_flag_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except WavetsError as exc:
        print(f"error {exc.reason}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error data: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
