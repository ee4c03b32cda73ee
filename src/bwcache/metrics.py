"""Fidelity and cost accounting for cached runs.

``summarize`` reduces a ``traceio.RunTrace`` to a ``traceio.RunSummary``.

PSNR and SSIM are computed in float64 against a reference tensor, using the
reference's value range as the dynamic range. SSIM here is the global-
statistics form (one mean/variance/covariance per frame, no sliding window):
at desk scale the windowed refinement adds nothing to the comparisons these
numbers feed. FLOPs are analytic multiply-add counts (2 m k n per [m,k] @
[k,n] matmul) over the block stack only, so saved work is exactly
proportional to skipped block evaluations; the adaptive-norm modulation and
the readout are outside the count on both sides of every comparison.
"""

from __future__ import annotations

import math

import numpy as np

from bwcache.model import Axis, ModelConfig, block_axes, decode_latent
from bwcache.tensor import DimensionError, Tensor
from bwcache.traceio import Action, RunSummary, RunTrace


class DegenerateRangeError(ValueError):
    """Raised when the reference tensor has zero value range."""


def psnr(reference: Tensor, test: Tensor) -> float:
    """10 log10(R^2 / MSE) with R the reference's max - min.

    Identical inputs have zero MSE and return math.inf; a constant reference
    has no meaningful dynamic range and raises instead.
    """
    if reference.shape != test.shape:
        raise DimensionError(f"psnr shapes differ: {reference.shape} vs {test.shape}")
    ref = reference.astype(np.float64, copy=False)
    value_range = float(ref.max() - ref.min())
    if value_range == 0.0:
        raise DegenerateRangeError("reference has zero value range")
    mse = float(np.mean((ref - test.astype(np.float64, copy=False)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(value_range * value_range / mse)


def ssim_global(reference: Tensor, test: Tensor) -> float:
    """Single-window SSIM over the whole tensor.

    Stabilizers are C1 = (0.01 R)^2 and C2 = (0.03 R)^2 with R the joint
    range of both inputs, which keeps the score symmetric in its
    arguments; a zero range falls back to R = 1 so two identical constant
    inputs still score 1.0.
    """
    if reference.shape != test.shape:
        raise DimensionError(f"ssim shapes differ: {reference.shape} vs {test.shape}")
    if reference.size < 2:
        raise DimensionError("ssim needs at least two samples")
    ref = reference.astype(np.float64, copy=False).ravel()
    tst = test.astype(np.float64, copy=False).ravel()
    value_range = float(max(ref.max(), tst.max()) - min(ref.min(), tst.min()))
    if value_range == 0.0:
        value_range = 1.0
    c1 = (0.01 * value_range) ** 2
    c2 = (0.03 * value_range) ** 2
    mu_r = ref.mean()
    mu_t = tst.mean()
    var_r = ref.var()  # population statistics throughout
    var_t = tst.var()
    cov = float(np.mean((ref - mu_r) * (tst - mu_t)))
    num = (2.0 * mu_r * mu_t + c1) * (2.0 * cov + c2)
    den = (mu_r * mu_r + mu_t * mu_t + c1) * (var_r + var_t + c2)
    return float(num / den)


def ssim_frames(reference: Tensor, test: Tensor) -> float:
    """Mean of per-frame global SSIM over a frame-major [F, pixels] pair."""
    if reference.shape != test.shape:
        raise DimensionError(f"ssim shapes differ: {reference.shape} vs {test.shape}")
    if reference.ndim != 2:
        raise DimensionError(f"expected [frames, pixels], got {reference.shape}")
    scores = [ssim_global(reference[f], test[f]) for f in range(reference.shape[0])]
    return float(sum(scores) / len(scores))


def block_flops(config: ModelConfig, axis: Axis) -> int:
    """Multiply-add FLOPs of one block evaluation: 2 F S d (12 d + 2 L).

    Counted matmuls: qkv (3d), attention scores (L) and values (L), output
    projection (d), MLP in (4d) and out (4d), with L = S for spatial blocks
    and L = F for temporal ones.
    """
    fs = config.tokens
    d = config.hidden_dim
    length = config.tokens_per_frame if axis is Axis.SPATIAL else config.frames
    return 2 * fs * d * (12 * d + 2 * length)


def step_flops(config: ModelConfig) -> int:
    """FLOPs of one fully computed step: all blocks, alternation included."""
    return sum(block_flops(config, axis) for axis in block_axes(config))


def summarize(trace: RunTrace, reference_output: Tensor | None, config: ModelConfig) -> RunSummary:
    """Reduce a trace to reuse rates, exact FLOPs, wall time and fidelity.

    Fidelity is measured in pixel space through the decode stub against
    ``reference_output`` (normally the all-compute run at the same seed);
    both metrics are None when no reference is given.
    """
    total = len(trace.decisions)
    if total != config.steps:
        raise ValueError(f"trace has {total} steps, config says {config.steps}")
    reused_steps = sum(1 for d in trace.decisions if d.action is Action.REUSED)
    per_step = step_flops(config)
    reuse_rate_steps = reused_steps / total
    # Whole steps are reused, so skipped block evaluations come in groups of N.
    reuse_rate_blocks = reuse_rate_steps
    total_flops = (total - reused_steps) * per_step
    flops_saved = reused_steps * per_step

    psnr_db = None
    ssim = None
    if reference_output is not None:
        if trace.final_latent is None:
            raise ValueError("trace carries no final latent to compare against")
        ref_px = decode_latent(reference_output, config)
        out_px = decode_latent(trace.final_latent, config)
        psnr_db = psnr(ref_px, out_px)
        ssim = ssim_frames(ref_px, out_px)

    return RunSummary(
        reuse_rate_blocks=reuse_rate_blocks,
        reuse_rate_steps=reuse_rate_steps,
        total_flops=total_flops,
        flops_saved=flops_saved,
        wall_seconds=float(sum(trace.timings)),
        psnr_db=psnr_db,
        ssim=ssim,
    )
