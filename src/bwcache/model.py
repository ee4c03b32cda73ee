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

The block weights are the one cached build: a pure function of (seed,
hidden_dim, n_blocks) and their layout, built once per such key and kept for
the two most recently used keys, so configs that differ only in steps, heads
or frame grid share one build, except that from d=182 a grid of fewer than
16 token rows has a layout, and so a build, of its own. The build is
read-only: the same objects serve every later run that reads them. The
readout and decode matrices, a pure function of (seed, hidden_dim), are
drawn on every call and belong to the caller. A model's block weights are
drawn in one call into one contiguous read-only buffer, and each weight
array is a view of it, so keeping any one array keeps the whole build
alive. The views are C-contiguous, except that the wide projections of a
run with at least 16 token rows are stored transposed and viewed
F-contiguous, which makes their products about 30% faster at d=256 with
the same bytes (see _TRANSPOSABLE and ``tensor.matmul``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from bwcache.tensor import (
    TRANSPOSED_MIN_ROWS,
    TRANSPOSED_MIN_SIZE,
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
# N=8), drawn in 70-100 ms at d=256. Two entries let a caller that alternates
# between two models (two seeds, widths or depths) draw each once, while
# bounding what a long-lived caller keeps alive. They are the only cached
# build: the readout and decode matrices are d^2 + 3d values, drawn per call.
_CACHED_BUILDS = 2

# The block weights stored transposed, when they hold at least
# TRANSPOSED_MIN_SIZE values and the run has at least TRANSPOSED_MIN_ROWS
# token rows: mlp_in and mlp_out from d=182, qkv_proj from d=210. The size
# rule is measured, not tuned. Median time per product at 64 rows, one BLAS
# thread, cycling through 8 blocks' weights as a forward does (2-core Xeon
# with AVX-512, OpenBLAS 0.3.31):
#
#   d=64   [64, 192]    C 16 us,  transposed 21 us
#   d=64   [256, 64]    C 27 us,  transposed 36 us
#   d=256  [256, 768]   C 447 us, transposed 311 us
#   d=256  [256, 1024]  C 584 us, transposed 408 us
#   d=256  [1024, 256]  C 570 us, transposed 407 us
#   d=256  [256, 256]   C 119 us, transposed 113 us
#
# out_proj reaches the size at d=364 and gains nothing there (an 8-block d=384
# forward, 29-38 ms transposed against 30-31 ms C). adaln_proj is a one-row
# product, which is never transposed.
_TRANSPOSABLE = ("qkv_proj", "mlp_in", "mlp_out")


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
        # Each refusal names its field and the value refused.
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks {self.n_blocks} must be at least 1")
        if self.hidden_dim < 2 or self.hidden_dim % 2 != 0:
            raise ValueError(f"hidden_dim {self.hidden_dim} must be even and positive (sin/cos halves)")
        if self.n_heads < 1 or self.hidden_dim % self.n_heads != 0:
            raise ValueError(f"n_heads {self.n_heads} must divide hidden_dim {self.hidden_dim}")
        for name in ("frames", "tokens_per_frame", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} {getattr(self, name)} must be positive")
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
    """Variance schedule: the betas, and the cumulative products of 1 - beta
    derived from them, in float64 so the products stay exact enough."""

    betas: Tensor
    alphas_cumprod: Tensor = field(init=False)

    def __post_init__(self):
        if self.betas.ndim != 1:
            raise DimensionError("betas must be 1-d")
        if not ((self.betas > 0.0).all() and (self.betas < 1.0).all()):
            raise ValueError("betas must lie in (0, 1)")
        object.__setattr__(self, "alphas_cumprod", np.cumprod(1.0 - self.betas))

    @classmethod
    def linear(cls, steps: int) -> "NoiseSchedule":
        if steps < 1:
            raise ValueError("steps must be positive")
        return cls(np.linspace(BETA_START, BETA_END, steps, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.betas)


def _read_only(x: Tensor) -> Tensor:
    x.flags.writeable = False
    return x


def init_weights(config: ModelConfig) -> tuple[DiTBlockWeights, ...]:
    """Draw all block weights from one stream, N(0, WEIGHT_STD^2), float32.

    Per block the draw order is fixed: qkv_proj, out_proj, mlp_in, mlp_out,
    adaln_proj. Changing it would silently re-seed every regression number.
    The arrays are read-only views of one buffer that holds the whole draw in
    that order. Each is C-contiguous, except that in a run of at least
    TRANSPOSED_MIN_ROWS token rows a qkv_proj, mlp_in or mlp_out of at least
    TRANSPOSED_MIN_SIZE values is stored transposed: its segment of the
    buffer holds the transpose in C order, and the field is the logical
    [k, n] array as an F-contiguous view, which ``matmul`` multiplies as
    (Wᵀ aᵀ)ᵀ with the same bytes as a @ W. The result is the package's one
    cached build, kept per (seed, hidden_dim, n_blocks) and the set of
    weights stored transposed; copy an array before perturbing it.
    """
    shapes = _block_shapes(config.hidden_dim)
    transposed = frozenset(
        name for name in _TRANSPOSABLE
        if config.tokens >= TRANSPOSED_MIN_ROWS and math.prod(shapes[name]) >= TRANSPOSED_MIN_SIZE
    )
    return _build_weights(config.seed, config.hidden_dim, config.n_blocks, transposed)


def _block_shapes(d: int) -> dict[str, tuple[int, int]]:
    """The [k, n] of each block weight, in the draw order."""
    return {
        "qkv_proj": (d, 3 * d),
        "out_proj": (d, d),
        "mlp_in": (d, 4 * d),
        "mlp_out": (4 * d, d),
        "adaln_proj": (d, 4 * d),
    }


@lru_cache(maxsize=_CACHED_BUILDS)
def _build_weights(
    seed: int, d: int, n_blocks: int, transposed: frozenset[str]
) -> tuple[DiTBlockWeights, ...]:
    # One draw for the whole model, cut into views in the documented order.
    # Every array has an even size, so this consumes the stream exactly as
    # one draw per array would.
    flat = rand_normal(mix_seed(seed, _SALT_WEIGHTS), 16 * d * d * n_blocks)
    shapes = _block_shapes(d)
    offset = 0

    def take(name):
        nonlocal offset
        k, n = shapes[name]
        part = flat[offset : offset + k * n]
        offset += k * n
        if name not in transposed:
            part *= WEIGHT_STD
            return _read_only(part.reshape(k, n))
        # The scaled transpose, as one C-order temporary of this weight's
        # size (1 MiB at d=256), written back over the segment it came from.
        # Scaling the whole draw at once instead would add a second write
        # pass over the transposed weights, 11/16 of the buffer.
        part[:] = np.multiply(part.reshape(k, n).T, WEIGHT_STD, order="C").ravel()
        return _read_only(part.reshape(n, k).T)

    blocks = tuple(
        DiTBlockWeights(axis=_axis(i), **{name: take(name) for name in shapes})
        for i in range(n_blocks)
    )
    _read_only(flat)  # the buffer every view's base names
    return blocks


def timestep_embedding(t: int, dim: int) -> Tensor:
    """Sinusoidal embedding [dim]: sin half then cos half, base period 10000."""
    if dim < 2 or dim % 2 != 0:
        raise DimensionError("embedding dim must be even")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    ang = float(t) * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)]).astype(np.float32)


# The axis permutations that group qkv by its attended axis and ungroup the
# context. A temporal block is a spatial block on the transposed token grid,
# [S, F] in place of [F, S], so the two axes differ only in these
# permutations, which swap the places of F and S.
_GROUP_AXES = {Axis.SPATIAL: (2, 0, 3, 1, 4), Axis.TEMPORAL: (2, 1, 3, 0, 4)}
_UNGROUP_AXES = {Axis.SPATIAL: (0, 2, 1, 3), Axis.TEMPORAL: (2, 0, 1, 3)}


def _group_qkv(qkv: Tensor, axis: Axis, frames: int, tokens_per_frame: int, n_heads: int) -> Tensor:
    """[F*S, 3d] -> [3, groups * heads, L, head_dim] where L is the attended axis.

    Index 0, 1, 2 along the first axis is q, k, v; all three are regrouped
    by one transpose and one C-order copy, also where a reshape could give a
    view, so the attention products see the same operands whether qkv came
    C-ordered or as the transpose view of a transposed product.
    """
    dh = qkv.shape[1] // (3 * n_heads)
    z = qkv.reshape(frames, tokens_per_frame, 3, n_heads, dh)
    z = np.ascontiguousarray(z.transpose(_GROUP_AXES[axis]))
    return z.reshape(3, -1, z.shape[3], dh)


def _ungroup_heads(z: Tensor, axis: Axis, n_heads: int) -> Tensor:
    """Inverse of the per-tensor grouping of _group_qkv, back to frame-major [F*S, d]."""
    _, length, dh = z.shape
    return z.reshape(-1, n_heads, length, dh).transpose(_UNGROUP_AXES[axis]).reshape(-1, n_heads * dh)


def _attention_half(
    h: Tensor, weights: DiTBlockWeights, scale: Tensor, shift: Tensor, config: ModelConfig
) -> Tensor:
    """h' = Attention(AdaLN(h)) + h. Its arrays (qkv, the grouped heads, the
    scores and the context) are freed on return, before the MLP half makes
    its [tokens, 4d] hidden arrays."""
    # In-place updates touch only arrays this block just created.
    a = layer_norm(h, scale, shift)
    qkv = matmul(a, weights.qkv_proj)
    qg, kg, vg = _group_qkv(qkv, weights.axis, config.frames, config.tokens_per_frame, config.n_heads)
    scores = batched_matmul(qg, kg.transpose(0, 2, 1))
    scores *= 1.0 / math.sqrt(config.head_dim)
    ctx = batched_matmul(softmax_rows(scores), vg)
    # Rebinding ctx frees the grouped context before h' is made, so h' can
    # take its place on the heap: a fresh d=256 criterion-08 `generate`
    # (glibc, x86-64) peaked about 0.4 MiB lower than with the ungrouped
    # copy passed inline.
    ctx = _ungroup_heads(ctx, weights.axis, config.n_heads)
    h1 = matmul(ctx, weights.out_proj)
    h1 += h
    return h1


def dit_block_forward(h: Tensor, weights: DiTBlockWeights, t_emb: Tensor, config: ModelConfig) -> Tensor:
    """One pre-norm block: modulated attention then modulated MLP, both residual.

    The attention half runs in a helper whose arrays are freed on return, so
    a block holds one half's arrays at a time, not both.
    """
    d = config.hidden_dim
    if h.shape != (config.tokens, d):
        raise DimensionError(f"block input shape {h.shape} != ({config.tokens}, {d})")
    if t_emb.shape != (d,):
        raise DimensionError(f"timestep embedding shape {t_emb.shape} != ({d},)")

    mod = matmul(t_emb[None, :], weights.adaln_proj)[0]
    h1 = _attention_half(h, weights, mod[:d], mod[d : 2 * d], config)
    b = layer_norm(h1, mod[2 * d : 3 * d], mod[3 * d :])
    # GELU is elementwise, so it gives the same bits in the transposed layout.
    out = matmul(gelu(matmul(b, weights.mlp_in)), weights.mlp_out)
    # A block output is C-ordered whatever the weights' layout.
    return np.add(out, h1, order="C")


def readout_matrix(config: ModelConfig) -> Tensor:
    """Fixed seeded linear projection from the last block's features to eps_pred.

    Identity component scaled by READOUT_SELF_GAIN plus a random matrix with
    entries N(0, (READOUT_MIX_GAIN / sqrt(d))^2), so the prediction's scale is
    width-independent. Drawn from (seed, hidden_dim) on every call; the
    caller owns the array.
    """
    d = config.hidden_dim
    mix = rand_normal(mix_seed(config.seed, _SALT_READOUT), (d, d)) * (READOUT_MIX_GAIN / math.sqrt(d))
    return np.eye(d, dtype=np.float32) * np.float32(READOUT_SELF_GAIN) + mix


def decode_matrix(config: ModelConfig) -> Tensor:
    """Fixed seeded [d, 3] pixel projection, drawn from (seed, hidden_dim) on every call."""
    d = config.hidden_dim
    return rand_normal(mix_seed(config.seed, _SALT_DECODE), (d, 3)) * (1.0 / math.sqrt(d))


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
