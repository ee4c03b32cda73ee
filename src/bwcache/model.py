"""Toy spatial-temporal diffusion transformer and its deterministic sampler.

The denoiser is a stack of N transformer blocks over a video-shaped latent of
F frames times S tokens per frame, laid out frame-major: row f * S + s holds
token s of frame f, with hidden width d. Blocks alternate their attention
axis, spatial (mixing the S tokens inside each frame) on even indices and
temporal (mixing the F frames at each token position) on odd ones. Each block
is pre-norm with two adaptive-norm sites:

    h'  = Attention(AdaLN(h))  + h
    h'' = MLP(AdaLN(h'))       + h'

where AdaLN is layer norm followed by x * (1 + scale) + shift, and the four
modulation vectors come from one [d, 4d] projection of the timestep
embedding, split in the order scale1, shift1, scale2, shift2. The first block
consumes the latent directly, so the latent and token spaces coincide and the
residual path is preserved end to end.

Prediction head and decode are fixed seeded projections rather than learned
maps: the point of the model is to expose realistic block-feature dynamics to
the caching layer, not to generate pictures. ``denoiser_forward`` returns the
block outputs only; the sampler applies the readout to the last one, fresh or
cached, in one place. The readout gains are chosen so that step-to-step
relative feature motion spans the working range of the cache thresholds.

Sampling is the deterministic (zero extra noise) variant of the standard
ancestral update: predict eps, form x0_hat, re-noise analytically to the
previous level. All weights are float32 and drawn from the package's own
seeded stream, so a seed pins the whole trajectory: each tensor family is
one draw ``rand_normal(mix_seed(seed, salt), shape)`` with its own salt. The
draws run on the caller's thread, and their bytes do not depend on numpy's
CPU dispatch target; the forward pass's float32 exp (softmax) and tanh
(GELU) do. A drawn normal lies within |x| <= sqrt(48 ln 2), about 5.77, so
every weight within 5.77 WEIGHT_STD.

The seeded builds are pure functions of the few config fields they read: the
block weights of (seed, hidden_dim, n_blocks), the readout and decode
matrices of (seed, hidden_dim). Each is built once per such key and kept for
the two most recently used keys, so configs that differ only in steps, heads
or frame grid share one build. Every cached array is read-only: the same
objects serve every later run that reads them. A model's block weights are
drawn in one call into one contiguous read-only buffer, and each weight
array is a view of it, so keeping any one array keeps the whole build alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from bwcache.tensor import (
    DimensionError,
    Tensor,
    batched_matmul,
    gelu,
    layer_norm,
    matmul,
    mix_seed,
    rand_normal,
    softmax_rows,
)

WEIGHT_STD = 0.02
# The linear variance schedule's first and last beta.
BETA_START = 1e-4
BETA_END = 2e-2
# Readout = READOUT_SELF_GAIN * I + N(0, (READOUT_MIX_GAIN/sqrt(d))^2). The
# identity term ties the noise estimate to the current latent so the implied
# clean image shrinks early in the run; the random term keeps the prediction
# from collapsing onto a single direction. Together they make step-to-step
# feature drift start near 0.19 and settle near 0.12 on the default config,
# bracketing the useful threshold range.
READOUT_SELF_GAIN = 2.0
READOUT_MIX_GAIN = 9.0

# Stream salts; one sub-stream per independently seeded tensor family.
_SALT_WEIGHTS = 0x57454947
_SALT_LATENT = 0x4C415431
_SALT_READOUT = 0x52454144
_SALT_DECODE = 0x44454331

# One model's block weights are 16 d^2 N float32 values (32 MiB at d=256,
# N=8). Two entries let a caller that alternates between two models (two
# seeds, widths or depths) draw each once, while bounding what a long-lived
# caller keeps alive.
_CACHED_BUILDS = 2


class Axis(str, Enum):
    SPATIAL = "spatial"
    TEMPORAL = "temporal"


def require_field_types(config, types: tuple[type, ...], *names: str) -> None:
    """Refuse a named field of ``config`` that is not one of ``types``, or is a bool.

    A bool is an int subclass, but true/false is never a count, a seed or a
    threshold here, and it would hash differently from the int it equals.
    """
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, types) or isinstance(value, bool):
            wanted = " or ".join(t.__name__ for t in types)
            raise ValueError(f"{name} must be {wanted}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Static shape and seed information for one sampling run."""

    n_blocks: int = 8
    hidden_dim: int = 64
    n_heads: int = 4
    frames: int = 4
    tokens_per_frame: int = 16
    steps: int = 30
    seed: int = 0

    def __post_init__(self):
        require_field_types(self, (int,), *(f.name for f in fields(self)))
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be at least 1")
        if self.hidden_dim < 2 or self.hidden_dim % 2 != 0:
            raise ValueError("hidden_dim must be even (sin/cos embedding halves)")
        if self.n_heads < 1 or self.hidden_dim % self.n_heads != 0:
            raise ValueError("n_heads must divide hidden_dim")
        if self.frames < 1 or self.tokens_per_frame < 1:
            raise ValueError("frames and tokens_per_frame must be positive")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not 0 <= self.seed < 1 << 64:
            # The stream masks seeds to 64 bits; out-of-range seeds would
            # alias in-range ones under a different fingerprint.
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")

    @property
    def tokens(self) -> int:
        return self.frames * self.tokens_per_frame

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads


def _axis(block: int) -> Axis:
    return Axis.SPATIAL if block % 2 == 0 else Axis.TEMPORAL


def block_axes(config: ModelConfig) -> list[Axis]:
    """Attention axis per block: spatial on even indices, temporal on odd."""
    return [_axis(i) for i in range(config.n_blocks)]


@dataclass(frozen=True)
class DiTBlockWeights:
    axis: Axis
    qkv_proj: Tensor  # [d, 3d], columns ordered q, k, v
    out_proj: Tensor  # [d, d]
    mlp_in: Tensor  # [d, 4d]
    mlp_out: Tensor  # [4d, d]
    adaln_proj: Tensor  # [d, 4d], columns ordered scale1, shift1, scale2, shift2


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance schedule; float64 so the cumulative products stay exact enough."""

    betas: Tensor
    alphas_cumprod: Tensor

    def __post_init__(self):
        if self.betas.ndim != 1 or self.betas.shape != self.alphas_cumprod.shape:
            raise DimensionError("schedule arrays must be 1-d and equally sized")
        if not ((self.betas > 0.0).all() and (self.betas < 1.0).all()):
            raise ValueError("betas must lie in (0, 1)")

    @classmethod
    def linear(cls, steps: int) -> "NoiseSchedule":
        if steps < 1:
            raise ValueError("steps must be positive")
        betas = np.linspace(BETA_START, BETA_END, steps, dtype=np.float64)
        alphas_cumprod = np.cumprod(1.0 - betas)
        return cls(betas=betas, alphas_cumprod=alphas_cumprod)

    def __len__(self) -> int:
        return len(self.betas)


def _read_only(x: Tensor) -> Tensor:
    x.flags.writeable = False
    return x


def init_weights(config: ModelConfig) -> tuple[DiTBlockWeights, ...]:
    """Draw all block weights from one stream, N(0, WEIGHT_STD^2), float32.

    Per block the draw order is fixed: qkv_proj, out_proj, mlp_in, mlp_out,
    adaln_proj. Changing it would silently re-seed every regression number.
    The arrays are C-contiguous read-only views of one buffer holding the
    whole draw in that order. The result is cached per (seed, hidden_dim,
    n_blocks); copy an array before perturbing it.
    """
    return _build_weights(config.seed, config.hidden_dim, config.n_blocks)


@lru_cache(maxsize=_CACHED_BUILDS)
def _build_weights(seed: int, d: int, n_blocks: int) -> tuple[DiTBlockWeights, ...]:
    # One draw for the whole model, cut into views in the documented order.
    # Every array has an even size, so this consumes the stream exactly as
    # one draw per array would.
    flat = rand_normal(mix_seed(seed, _SALT_WEIGHTS), 16 * d * d * n_blocks)
    flat *= WEIGHT_STD
    _read_only(flat)  # before slicing, so every view is read-only too
    offset = 0

    def take(shape):
        nonlocal offset
        size = shape[0] * shape[1]
        offset += size
        return flat[offset - size : offset].reshape(shape)

    return tuple(
        DiTBlockWeights(
            axis=_axis(i),
            qkv_proj=take((d, 3 * d)),
            out_proj=take((d, d)),
            mlp_in=take((d, 4 * d)),
            mlp_out=take((4 * d, d)),
            adaln_proj=take((d, 4 * d)),
        )
        for i in range(n_blocks)
    )


def timestep_embedding(t: int, dim: int) -> Tensor:
    """Sinusoidal embedding [dim]: sin half then cos half, base period 10000."""
    if dim < 2 or dim % 2 != 0:
        raise DimensionError("embedding dim must be even")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    ang = float(t) * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)]).astype(np.float32)


def _group_qkv(qkv: Tensor, axis: Axis, frames: int, tokens_per_frame: int, n_heads: int) -> Tensor:
    """[F*S, 3d] -> [3, groups * heads, L, head_dim] where L is the attended axis.

    Index 0, 1, 2 along the first axis is q, k, v; all three are regrouped
    by one transpose and one copy.
    """
    f, s, h = frames, tokens_per_frame, n_heads
    dh = qkv.shape[1] // (3 * h)
    z = qkv.reshape(f, s, 3, h, dh)
    if axis is Axis.SPATIAL:
        return z.transpose(2, 0, 3, 1, 4).reshape(3, f * h, s, dh)
    return z.transpose(2, 1, 3, 0, 4).reshape(3, s * h, f, dh)


def _ungroup_heads(z: Tensor, axis: Axis, frames: int, tokens_per_frame: int, n_heads: int) -> Tensor:
    """Inverse of the per-tensor grouping of _group_qkv, back to frame-major [F*S, d]."""
    f, s, h = frames, tokens_per_frame, n_heads
    dh = z.shape[2]
    if axis is Axis.SPATIAL:
        z = z.reshape(f, h, s, dh).transpose(0, 2, 1, 3)
    else:
        z = z.reshape(s, h, f, dh).transpose(2, 0, 1, 3)
    return z.reshape(f * s, h * dh)


def dit_block_forward(h: Tensor, weights: DiTBlockWeights, t_emb: Tensor, config: ModelConfig) -> Tensor:
    """One pre-norm block: modulated attention then modulated MLP, both residual."""
    d = config.hidden_dim
    if h.shape != (config.tokens, d):
        raise DimensionError(f"block input shape {h.shape} != ({config.tokens}, {d})")
    if t_emb.shape != (d,):
        raise DimensionError(f"timestep embedding shape {t_emb.shape} != ({d},)")

    mod = matmul(t_emb[None, :], weights.adaln_proj)[0]
    scale1, shift1, scale2, shift2 = mod[:d], mod[d : 2 * d], mod[2 * d : 3 * d], mod[3 * d :]

    # In-place updates touch only arrays this block just created.
    a = layer_norm(h, scale1, shift1)
    qkv = matmul(a, weights.qkv_proj)
    qg, kg, vg = _group_qkv(qkv, weights.axis, config.frames, config.tokens_per_frame, config.n_heads)
    scores = batched_matmul(qg, kg.transpose(0, 2, 1))
    scores *= 1.0 / math.sqrt(config.head_dim)
    ctx = batched_matmul(softmax_rows(scores), vg)
    ctx = _ungroup_heads(ctx, weights.axis, config.frames, config.tokens_per_frame, config.n_heads)
    h1 = matmul(ctx, weights.out_proj)
    h1 += h

    b = layer_norm(h1, scale2, shift2)
    out = matmul(gelu(matmul(b, weights.mlp_in)), weights.mlp_out)
    out += h1
    return out


def readout_matrix(config: ModelConfig) -> Tensor:
    """Fixed seeded linear projection from the last block's features to eps_pred.

    Identity component scaled by READOUT_SELF_GAIN plus a random matrix with
    entries N(0, (READOUT_MIX_GAIN / sqrt(d))^2), so the prediction's scale is
    width-independent. Cached per (seed, hidden_dim), read-only.
    """
    return _build_readout(config.seed, config.hidden_dim)


@lru_cache(maxsize=_CACHED_BUILDS)
def _build_readout(seed: int, d: int) -> Tensor:
    mix = rand_normal(mix_seed(seed, _SALT_READOUT), (d, d)) * (READOUT_MIX_GAIN / math.sqrt(d))
    eye = np.eye(d, dtype=np.float32) * np.float32(READOUT_SELF_GAIN)
    return _read_only(eye + mix)


def decode_matrix(config: ModelConfig) -> Tensor:
    """Fixed seeded [d, 3] pixel projection; cached per (seed, hidden_dim), read-only."""
    return _build_decode(config.seed, config.hidden_dim)


@lru_cache(maxsize=_CACHED_BUILDS)
def _build_decode(seed: int, d: int) -> Tensor:
    return _read_only(rand_normal(mix_seed(seed, _SALT_DECODE), (d, 3)) * (1.0 / math.sqrt(d)))


def sample_initial_latent(config: ModelConfig) -> Tensor:
    """x_T ~ N(0, I) over the token grid, pinned by the run seed."""
    return rand_normal(mix_seed(config.seed, _SALT_LATENT), (config.tokens, config.hidden_dim))


def denoiser_forward(
    x_t: Tensor,
    t: int,
    weights: Sequence[DiTBlockWeights],
    config: ModelConfig,
) -> list[Tensor]:
    """Run the block stack at timestep t and return its block outputs.

    block_outputs[i] is the residual stream after block i; these are exactly
    the features the cache stores. The sampler reads eps_pred out of the last
    one with ``readout_matrix``, for a computed and a reused step alike.
    """
    if x_t.shape != (config.tokens, config.hidden_dim):
        raise DimensionError(f"latent shape {x_t.shape} != ({config.tokens}, {config.hidden_dim})")
    if t < 0:
        raise ValueError("timestep must be nonnegative")
    t_emb = timestep_embedding(t, config.hidden_dim)

    h = x_t
    block_outputs: list[Tensor] = []
    for w in weights:
        h = dit_block_forward(h, w, t_emb, config)
        block_outputs.append(h)
    return block_outputs


def decode_latent(x: Tensor, config: ModelConfig) -> Tensor:
    """Fixed linear decode to a frame-major [F, 3*S] pixel matrix.

    Row f is the frame's S tokens in order, 3 channels per token.
    """
    if x.shape != (config.tokens, config.hidden_dim):
        raise DimensionError(f"latent shape {x.shape} != ({config.tokens}, {config.hidden_dim})")
    px = matmul(x, decode_matrix(config))
    return px.reshape(config.frames, 3 * config.tokens_per_frame)


def reverse_step(x_t: Tensor, eps_pred: Tensor, t: int, schedule: NoiseSchedule) -> Tensor:
    """Deterministic reverse update from level t to t - 1.

    Reconstructs x0_hat from the eps prediction and re-noises it to the
    previous level with the same eps; no fresh noise is injected, so the
    trajectory is a pure function of (x_T, predictions). At t == 0 the
    reconstruction itself is the output.
    """
    if x_t.shape != eps_pred.shape:
        raise DimensionError(f"x_t shape {x_t.shape} != eps shape {eps_pred.shape}")
    if not 0 <= t < len(schedule):
        raise ValueError(f"timestep {t} outside schedule of length {len(schedule)}")
    abar_t = float(schedule.alphas_cumprod[t])
    x0_hat = (x_t - math.sqrt(1.0 - abar_t) * eps_pred) * (1.0 / math.sqrt(abar_t))
    if t == 0:
        return x0_hat
    abar_prev = float(schedule.alphas_cumprod[t - 1])
    return math.sqrt(abar_prev) * x0_hat + math.sqrt(1.0 - abar_prev) * eps_pred
