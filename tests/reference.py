"""The reference forward the band path is tested against, one expert of
the mixture on its own and the per-expert loop the one-op mixture
replaces, and the op compositions the one-op folded forecast and MSE
replace, with the test-only tape ops they are built from; the transform
and the band prologue as they were before their buffers were reused
(:func:`concatenated_dwt`, :func:`copied_prologue`); and
:func:`loss_and_grads`, the model's own loss and gradients as plain
values.

It is the pipeline the paper describes, written the plain way: time-domain
RevIN with the affine on the tape, the DWT of the affine-mapped lookback
on the tape, each head as ``linear`` on its band (the public
``moe_forward`` for M), the delta-weighted fusion and the inverse
normalization. It shares no head or RevIN code with ``model.band_forward``,
which takes the bands as constants and applies the affine after each
head's first layer.
"""

from __future__ import annotations

import numpy as np

from wavets import autodiff as ad
from wavets import moe as moe_mod
from wavets import wavelet as wv
from wavets.model import batch_loss
from wavets.revin import compute_stats


def _delta(cfg, params):
    return params["delta"] if cfg.has_delta() else ad.constant(cfg.delta_init)


def reference_forward(cfg, params, x):
    """(B, S, N) forecasts of a (B, L, N) lookback batch, on the tape."""
    x = np.asarray(x.data if isinstance(x, ad.Tensor) else x, dtype=np.float64)
    mean, std, _ = compute_stats(x)
    normalized = ad.constant((x - mean[:, None, :]) / std[:, None, :])
    gain, bias = params.get("revin.gain"), params.get("revin.bias")
    if gain is not None:
        normalized = ad.add(ad.mul(normalized, gain), bias)
    bank = wv.get_bank(cfg.bank)
    approx, detail = ad.dwt_pair(ad.swap_last2(normalized), bank)  # (B, N, L/2) each

    def high():
        return ad.mul(_delta(cfg, params), ad.linear(detail, params["hf.weight"], params["hf.bias"]))

    if cfg.variant == "M":
        fused = ad.add(moe_mod.moe_forward(params, cfg.moe, approx), high())
    elif cfg.variant == "I":
        low = ad.linear(approx, params["lf.weight"], params["lf.bias"])
        fused = ad.idwt_pair(low, high(), bank)
    elif cfg.variant == "HF":
        fused = high()
    else:  # B, S, LF
        if cfg.lf_hidden:
            hidden = ad.relu(ad.linear(approx, params["lf.w1"], params["lf.b1"]))
            fused = ad.linear(hidden, params["lf.w2"], params["lf.b2"])
        else:
            fused = ad.linear(approx, params["lf.weight"], params["lf.bias"])
        if cfg.variant == "B":
            fused = ad.add(fused, high())

    out = ad.swap_last2(fused)  # (B, S, N)
    if gain is not None:
        out = ad.div(ad.sub(out, bias), gain)
    return ad.add(ad.mul(out, ad.constant(std[:, None, :])), ad.constant(mean[:, None, :]))


def concatenated_dwt(x, bank):
    """``wavelet.dwt_arrays`` as one matmul over the whole signal with its
    periodic extension appended: the transform the tail-reading one replaced."""
    bank = wv.get_bank(bank)
    x = np.asarray(x, dtype=np.float64)
    if bank.length > 2:
        x = np.concatenate([x, x[..., : bank.length - 2]], axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(x, bank.length, axis=-1)[..., ::2, :]
    return windows @ bank.low_pass, windows @ bank.high_pass


def copied_prologue(cfg, x):
    """The band path's prologue with a fresh channel-major copy of each batch and
    :func:`concatenated_dwt`: (approx, detail, mean, std) as plain arrays."""
    normalized = np.swapaxes(x, 1, 2).copy()
    time_major = np.swapaxes(normalized, 1, 2)
    mean, std, _ = compute_stats(time_major, out=time_major)
    normalized /= std[..., None]
    return (*concatenated_dwt(normalized, cfg.bank), mean, std)


def loss_and_grads(cfg, params, x, y):
    """``model.batch_loss`` of every window of ``x`` against ``y``, and the
    gradient of every parameter (zeros where none reached it), as plain values."""
    for p in params.values():
        p.zero_grad()
    loss = batch_loss(cfg, params, x, y, np.arange(len(x)))
    loss.backward()
    grads = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    return loss.item(), grads


def expert_forward(params, index, x):
    """One expert of the mixture on its own: w2 @ relu(w1 @ x + b1) + b2."""
    def param(leaf):
        return params[f"moe.expert{index}.{leaf}"]

    hidden = ad.relu(ad.linear(x, param("w1"), param("b1")))
    return ad.linear(hidden, param("w2"), param("b2"))


def mixture_loop(params, num, x):
    """The mixture as sum_e gate_e * expert_e(x), one expert at a time, from
    the test-only ``softmax`` and ``slice_lastdim`` ops."""
    logits = ad.linear(x, params["moe.gate.weight"], params["moe.gate.bias"])
    probs = softmax(logits)
    out = ad.mul(slice_lastdim(probs, 0), expert_forward(params, 0, x))
    for e in range(1, num):
        out = ad.add(out, ad.mul(slice_lastdim(probs, e), expert_forward(params, e, x)))
    return out


def softmax(x):
    """Row-stable softmax over the last axis, on the tape."""
    out_data = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    out_data /= out_data.sum(axis=-1, keepdims=True)

    def backward(g):
        x._accumulate((g - (g * out_data).sum(axis=-1, keepdims=True)) * out_data)

    return ad._record(out_data, (x,), backward)


def slice_lastdim(x, start, stop=None):
    """Keep-dims slice ``x[..., start:stop]`` on the tape; ``stop`` defaults to ``start + 1``."""
    stop = start + 1 if stop is None else stop

    def backward(g):
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        x._accumulate(full)

    return ad._record(x.data[..., start:stop], (x,), backward)


def mean(x):
    """Mean over all elements, as a scalar tensor on the tape."""
    def backward(g):
        x._accumulate(np.full_like(x.data, float(g) / x.data.size))

    return ad._record(x.data.mean(), (x,), backward)


def left_matmul(w, x):
    """``w @ x`` with one (S, L) matrix applied to every (L, N) slice of ``x``, on the tape."""
    out_data = w.data @ x.data

    def backward(g):
        if w._needs_grad():
            flat_x = x.data.reshape((-1,) + x.shape[-2:])
            flat_g = g.reshape((-1,) + g.shape[-2:])
            w._accumulate((flat_g @ np.swapaxes(flat_x, -1, -2)).sum(axis=0))
        if x._needs_grad():
            x._accumulate(w.data.T @ g)

    return ad._record(out_data, (w, x), backward)


def composed_folded_forecast(weight, offset, centred, mean, std):
    """``folded_forecast`` as four ops: ``left_matmul``, then ``add`` the mean,
    then ``add`` the ``mul`` of std and offset."""
    def horizon_axis(t):
        return ad.reshape(t, t.shape[:-1] + (1, t.shape[-1]))

    out = ad.add(left_matmul(weight, centred), horizon_axis(mean))
    return ad.add(out, ad.mul(horizon_axis(std), offset))


def composed_mse(pred, target):
    """``mse_loss`` as three ops: ``sub``, ``mul`` and ``mean``."""
    diff = ad.sub(pred, target)
    return mean(ad.mul(diff, diff))
