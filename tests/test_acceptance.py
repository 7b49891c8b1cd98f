"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 6 and 7 need the ETTh1 benchmark CSV; they skip (with a visible
reason) when it is absent and run unchanged when WAVETS_DATA_DIR points at
a directory holding ETTh1.csv.
"""

import math
import time

import numpy as np

from wavets import autodiff as ad
from wavets import evaluation as ev
from wavets import moe as moe_mod
from wavets import wavelet as wv
from wavets.cli import load_series, main, prepare_splits, run_one_seed
from wavets.config import RunConfig
from wavets.data import synth
from wavets.evaluation import read_reports_csv
from wavets.model import VARIANTS, ModelConfig, init_params
from wavets.moe import MoEConfig

from conftest import max_rel_err, numeric_grad
from reference import expert_forward, loss_and_grads, mean, softmax


def _dataset(cfg):
    """The prepared splits and dataset name that ``run_one_seed`` takes."""
    series, name = load_series(cfg)
    return prepare_splits(cfg, series), name


def _run(cfg, seed, dataset):
    """``run_one_seed`` on ``dataset`` with the sub-configs of ``cfg``, untimed."""
    splits, name = dataset
    mcfg, settings = cfg.model_config(splits[0].channels), cfg.train_settings()
    return run_one_seed(mcfg, settings, seed, splits, name, measure_infer=False)


def report(number, ok, message):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {message}")
    assert ok, f"criterion {number}: {message}"


def test_criterion_1_transform_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    lengths = [8, 10, 12, 16, 24, 48, 96, 180, 256, 480, 720]
    worst_roundtrip = worst_energy = worst_constant = 0.0
    count = 0
    for bank in wv.BANK_NAMES:
        taps = wv.get_bank(bank).length
        for _ in range(250):
            length = int(rng.choice(lengths))
            if length < taps:
                length = 720
            x = rng.normal(size=length)
            approx, detail = wv.dwt_arrays(x, bank)
            worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(wv.idwt_arrays(approx, detail, bank) - x))))
            energy_in = float((x**2).sum())
            energy_out = float((approx**2).sum() + (detail**2).sum())
            worst_energy = max(worst_energy, abs(energy_out - energy_in) / energy_in)
            _, const_detail = wv.dwt_arrays(np.full(length, float(rng.uniform(-5, 5))), bank)
            worst_constant = max(worst_constant, float(np.max(np.abs(const_detail))))
            count += 1
    elapsed = time.perf_counter() - start
    ok = (
        count == 1000
        and worst_roundtrip < 1e-10
        and worst_energy < 1e-8
        and worst_constant < 1e-12
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"{count} vectors, roundtrip {worst_roundtrip:.2e}, energy {worst_energy:.2e}, "
        f"constant detail {worst_constant:.2e}, {elapsed:.1f}s",
    )


def _op_gradient_worst(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0

    # dense affine + relu + softmax + mse through one composite graph
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=3), requires_grad=True)
    target = rng.normal(size=(3, 3))

    loss = ad.mse_loss(softmax(ad.relu(ad.linear(x, w, b))), ad.constant(target))
    loss.backward()

    def f_dense():
        h = np.maximum(x.data @ w.data + b.data, 0.0)
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        return float(np.mean((s - target) ** 2))

    for tensor, num in zip((x, w, b), numeric_grad(f_dense, [x.data, w.data, b.data])):
        worst = max(worst, max_rel_err(tensor.grad, num))

    # elementwise arithmetic with broadcasting
    a = ad.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    c = ad.Tensor(rng.normal(size=(5,)) + 3.0, requires_grad=True)
    mean(ad.div(ad.mul(ad.add(a, c), ad.sub(a, c)), c)).backward()

    def f_elem():
        return float(np.mean((a.data + c.data) * (a.data - c.data) / c.data))

    for tensor, num in zip((a, c), numeric_grad(f_elem, [a.data, c.data])):
        worst = max(worst, max_rel_err(tensor.grad, num))

    # transform pair round trip with per-band scaling
    bank = wv.get_bank("d4")
    t = ad.Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    scale_a = rng.normal(size=(2, 4))
    scale_d = rng.normal(size=(2, 4))

    def graph():
        approx, detail = ad.dwt_pair(t, bank)
        recon = ad.idwt_pair(
            ad.mul(approx, ad.constant(scale_a)), ad.mul(detail, ad.constant(scale_d)), bank
        )
        return mean(ad.mul(recon, recon))

    graph().backward()

    def f_transform():
        approx, detail = wv.dwt_arrays(t.data, bank)
        recon = wv.idwt_arrays(approx * scale_a, detail * scale_d, bank)
        return float(np.mean(recon * recon))

    (num_t,) = numeric_grad(f_transform, [t.data])
    worst = max(worst, max_rel_err(t.grad, num_t))
    return worst


def _variant_gradient_worst(variant, seed):
    moe = MoEConfig(num_experts=2, hidden=3) if variant == "M" else None
    cfg = ModelConfig(variant=variant, lookback=8, horizon=4, channels=2, moe=moe)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    for p in params.values():
        p.data += rng.normal(scale=0.05, size=p.data.shape)
    x = rng.normal(size=(3, 8, 2))
    y = rng.normal(size=(3, 4, 2))
    _, grads = loss_and_grads(cfg, params, x, y)

    def f():
        loss, _ = loss_and_grads(cfg, params, x, y)
        return loss

    worst = 0.0
    for name, p in params.items():
        (num,) = numeric_grad(f, [p.data])
        worst = max(worst, max_rel_err(grads[name], num))
    return worst


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        worst = max(worst, _op_gradient_worst(seed))
    for variant in VARIANTS:
        for seed in range(10):
            worst = max(worst, _variant_gradient_worst(variant, 1000 + seed))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    report(2, ok, f"ops + {len(VARIANTS)} variants x 10 seeds, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_parameter_accounting():
    from test_evaluation import _random_config, count_params_oracle

    rng = np.random.default_rng(3)
    exact = all(
        ev.count_params(cfg).breakdown == count_params_oracle(cfg)
        and ev.count_params(cfg).total == sum(p.data.size for p in init_params(cfg, 0).values())
        for cfg in (_random_config(rng) for _ in range(50))
    )
    b_total = ev.count_params(ModelConfig("B", 720, 96, 321)).total
    s_total = ev.count_params(ModelConfig("S", 720, 96, 321)).total
    m_total = ev.count_params(ModelConfig("M", 720, 96, 321, moe=MoEConfig())).total
    ok = (
        exact
        and b_total == 69955
        and abs(b_total - 69000) / 69000 < 0.02
        and abs(s_total - 40000) / 40000 < 0.20
        and abs(m_total - 157000) / 157000 < 0.10
    )
    report(3, ok, f"50 configs exact={exact}, B={b_total}, S={s_total}, M={m_total}")


def test_criterion_4_mac_accounting():
    macs_b = ev.count_macs(ModelConfig("B", 720, 96, 321), batch_size=32).linear_per_batch
    macs_s = ev.count_macs(ModelConfig("S", 720, 96, 321), batch_size=32).linear_per_batch
    ok = abs(macs_b - 0.710e9) / 0.710e9 < 0.005 and abs(macs_s - 0.355e9) / 0.355e9 < 0.005
    report(4, ok, f"B {macs_b/1e9:.5f}G (target 0.710G +/- 0.5%), S {macs_s/1e9:.5f}G (target 0.355G)")


def test_criterion_5_synthetic_training():
    start = time.perf_counter()
    cfg = RunConfig(
        variant="S",
        data="synth:sine_mix",
        synth_length=4000,
        synth_channels=4,
        synth_seed=0,
        lookback=96,
        horizon=24,
        seed=0,
    )
    run_report, details, _ = _run(cfg, 0, _dataset(cfg))
    elapsed = time.perf_counter() - start
    persistence_mse = details["persistence"]["mse"]
    train_curve = [h["train_mse"] for h in details["history"][:5]]
    monotone = all(b <= a * 1.05 for a, b in zip(train_curve, train_curve[1:]))
    ok = run_report.mse < 0.5 * persistence_mse and monotone and elapsed < 180.0
    report(
        5,
        ok,
        f"test mse {run_report.mse:.4f} vs persistence {persistence_mse:.4f} "
        f"(ratio {run_report.mse / persistence_mse:.3f}), first epochs {np.round(train_curve, 4)}, "
        f"{elapsed:.0f}s",
    )


def _etth1_config(path, variant="B", **overrides):
    return RunConfig(
        variant=variant,
        data=str(path),
        split="ett_hours",
        lookback=720,
        horizon=96,
        **overrides,
    )


def test_criterion_6_etth1_reproduction(etth1_path):
    start = time.perf_counter()
    mses, maes = [], []
    cfg = _etth1_config(etth1_path)
    dataset = _dataset(cfg)
    for seed in (0, 1, 2):
        run_report, _, _ = _run(cfg, seed, dataset)
        mses.append(run_report.mse)
        maes.append(run_report.mae)
    elapsed = time.perf_counter() - start
    mean_mse, mean_mae = float(np.mean(mses)), float(np.mean(maes))
    ok = mean_mse <= 0.42 and mean_mae <= 0.43 and elapsed < 900.0
    report(6, ok, f"ETTh1 B mean mse {mean_mse:.4f} (<=0.42), mae {mean_mae:.4f} (<=0.43), {elapsed:.0f}s")


def test_criterion_7_etth1_ablation_ordering(etth1_path):
    results = {}
    dataset = _dataset(_etth1_config(etth1_path))
    for variant in ("B", "LF", "HF", "I"):
        run_report, _, _ = _run(_etth1_config(etth1_path, variant=variant), 0, dataset)
        results[variant] = run_report.mse
    ok = results["HF"] > results["LF"] > results["B"] and results["I"] > results["B"]
    report(7, ok, "mse ordering " + ", ".join(f"{k}={v:.4f}" for k, v in results.items()))


def test_criterion_8_moe_invariants():
    rng = np.random.default_rng(8)

    single_cfg = moe_mod.MoEConfig(num_experts=1, hidden=4)
    single = {
        name: ad.Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)
        for name, shape in moe_mod.param_shapes(single_cfg, 6, 3).items()
    }
    x = ad.Tensor(rng.normal(size=(2, 5, 6)))
    gap_single = float(
        np.max(np.abs(moe_mod.moe_forward(single, single_cfg, x).data
                      - expert_forward(single, 0, x).data))
    )

    mix_cfg = moe_mod.MoEConfig(num_experts=3, hidden=4)
    mixed = {
        name: ad.Tensor(rng.normal(scale=0.8, size=shape), requires_grad=True)
        for name, shape in moe_mod.param_shapes(mix_cfg, 6, 3).items()
    }
    out = moe_mod.moe_forward(mixed, mix_cfg, x).data
    stack = np.stack([expert_forward(mixed, e, x).data for e in range(3)], axis=-1)
    hull_ok = bool(
        np.all(out >= stack.min(axis=-1) - 1e-9) and np.all(out <= stack.max(axis=-1) + 1e-9)
    )
    gate_rows = moe_mod.gate(mixed, x)
    gate_gap = float(np.max(np.abs(gate_rows.sum(axis=-1) - 1.0)))

    channels = 862
    series = synth("sine_mix", 128, channels, seed=0)
    band, _ = wv.dwt_arrays(series.values[:64].T[None], wv.get_bank("haar"))
    report_cfg = moe_mod.MoEConfig(num_experts=4, hidden=2)
    report_params = {
        name: ad.Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)
        for name, shape in moe_mod.param_shapes(report_cfg, band.shape[-1], 8).items()
    }
    report_probs = moe_mod.gate(report_params, ad.Tensor(band))
    rows = moe_mod.gate_report(report_probs, series.channel_names)
    rows_ok = len(rows) == channels and all(
        abs(sum(r[f"expert_{e}"] for e in range(4)) - 1.0) < 1e-9
        and 0.0 <= r["entropy"] <= math.log(4) + 1e-12
        for r in rows
    )

    ok = gap_single < 1e-6 and hull_ok and gate_gap < 1e-12 and rows_ok
    report(
        8,
        ok,
        f"single-expert gap {gap_single:.2e}, convex hull {hull_ok}, "
        f"gate row-sum gap {gate_gap:.2e}, report rows {len(rows)}",
    )


def test_criterion_9_determinism(tmp_path):
    args = [
        "train",
        "--data", "synth:sine_mix",
        "--synth-length", "800",
        "--synth-channels", "2",
        "--variant", "B",
        "--lookback", "32",
        "--horizon", "8",
        "--max-epochs", "3",
        "--seed", "11",
    ]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main([*args, "--out", str(out)]) == 0
        (run_dir,) = [p for p in out.iterdir() if p.is_dir()]
        outs.append(run_dir)
    rows = [read_reports_csv(d / "report.csv") for d in outs]
    timing = {"epoch_time_s", "infer_time_ms"}
    deterministic = [
        [{k: v for k, v in row.items() if k not in timing} for row in table] for table in rows
    ]
    checkpoints_equal = (outs[0] / "checkpoint.json").read_bytes() == (outs[1] / "checkpoint.json").read_bytes()
    ok = deterministic[0] == deterministic[1] and checkpoints_equal
    report(9, ok, f"reports identical={deterministic[0] == deterministic[1]}, checkpoints identical={checkpoints_equal}")
