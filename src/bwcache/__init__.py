"""Block-wise feature caching for a toy spatial-temporal diffusion transformer."""

from bwcache.cache import (
    Action,
    BlockCacheState,
    CachePolicyConfig,
    PolicyKind,
    StepDecision,
    TailRule,
    decide,
    relative_l1,
    aggregate_distances,
    replay_trace,
    run_policy,
)
from bwcache.metrics import RunSummary, block_flops, psnr, ssim_global, summarize
from bwcache.model import ModelConfig, NoiseSchedule, init_weights
from bwcache.tensor import Rng, Tensor, deterministic
from bwcache.traceio import RunTrace

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BlockCacheState",
    "CachePolicyConfig",
    "ModelConfig",
    "NoiseSchedule",
    "PolicyKind",
    "Rng",
    "RunSummary",
    "RunTrace",
    "StepDecision",
    "TailRule",
    "Tensor",
    "aggregate_distances",
    "block_flops",
    "decide",
    "deterministic",
    "init_weights",
    "psnr",
    "relative_l1",
    "replay_trace",
    "run_policy",
    "ssim_global",
    "summarize",
    "__version__",
]
