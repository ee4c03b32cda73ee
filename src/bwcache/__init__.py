"""Block-wise feature caching for a toy spatial-temporal diffusion transformer."""

from bwcache.cache import (
    BlockCacheState,
    CachePolicyConfig,
    PolicyKind,
    TailRule,
    decide,
    relative_l1,
    aggregate_distances,
    replay_trace,
    run_policy,
)
from bwcache.metrics import block_flops, psnr, ssim_global, summarize
from bwcache.model import ModelConfig, NoiseSchedule, init_weights
from bwcache.tensor import Tensor
from bwcache.traceio import Action, RunSummary, RunTrace, StepDecision

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BlockCacheState",
    "CachePolicyConfig",
    "ModelConfig",
    "NoiseSchedule",
    "PolicyKind",
    "RunSummary",
    "RunTrace",
    "StepDecision",
    "TailRule",
    "Tensor",
    "aggregate_distances",
    "block_flops",
    "decide",
    "init_weights",
    "psnr",
    "relative_l1",
    "replay_trace",
    "run_policy",
    "ssim_global",
    "summarize",
    "__version__",
]
