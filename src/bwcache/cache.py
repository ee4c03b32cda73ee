"""Block-feature caching across denoising steps.

The sampler walks timesteps from T-1 down to 0. After any fully computed
step, the outputs of all N blocks are kept as the cache. On the next computed
step, each block's fresh output is compared to its cached counterpart with a
relative L1 distance

    l1_rel(cur, prev) = sum |cur - prev| / sum |prev|

and the per-block distances are aggregated into their sum (arl1) and mean.
The mean is the reuse indicator: once it drops strictly below the threshold
delta, consecutive step outputs are similar enough that whole steps can be
skipped by substituting the cached features and re-running only the readout.

Reuse is bounded in two ways. A reuse run may grow to at most the reuse
interval R, after which one step is recomputed (a refresh) and the indicator
is re-evaluated against the refreshed features before reuse may resume. And
once reuse first triggers at step k, a protected tail of the remaining steps
(a fixed fraction of k + 1, or a fixed count) is always recomputed, because
late steps decide fine detail and are the wrong place to save work. The
trigger step is frozen at its first value so the tail boundary never moves.

Two baselines share the same decision interface: ``none`` computes every
step (and still records distances, which is how full heatmaps are made), and
``static`` recomputes on a fixed stride regardless of the indicator.

``decide`` is a pure function from (state, indicator, position) to (action,
new state); the state is the frozen trigger step and the current reuse run
length, while the cached features are storage owned by the runner. One
driver runs the ``decide`` loop for both runners: ``run_policy`` steps the
real model, and ``replay_trace`` reads a recorded distance table with no
model at all, which makes policy questions cheap to answer offline. Both
record one ``traceio.StepDecision`` per step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from bwcache.model import (
    ModelConfig,
    NoiseSchedule,
    denoiser_forward,
    init_weights,
    readout_matrix,
    require_field_types,
    reverse_step,
    sample_initial_latent,
)
from bwcache.tensor import DimensionError, Tensor, is_deterministic, matmul
from bwcache.traceio import Action, RunTrace, StepDecision, config_fingerprint


class PolicyKind(str, Enum):
    NONE = "none"
    BWCACHE = "bwcache"
    STATIC = "static"


# The members that decide and _drive read at every step, as module names: a
# global read costs a tenth of an enum member read.
_NONE, _STATIC = PolicyKind.NONE, PolicyKind.STATIC
_COMPUTED, _REUSED = Action.COMPUTED, Action.REUSED


class ZeroDenominatorError(ArithmeticError):
    """Raised when the reference features have zero L1 mass."""


class ProtocolError(RuntimeError):
    """Raised when decide() is driven without an indicator it needs."""


_FRACTION_NAMES = {
    Fraction(1, 3): "third",
    Fraction(1, 2): "half",
    Fraction(2, 3): "twothirds",
}


@dataclass(frozen=True)
class TailRule:
    """Size of the always-recomputed tail once reuse has triggered at step k.

    Either a fraction of the k + 1 remaining steps (ceil, exact integer
    arithmetic) or a fixed count. Only the fractions 1/3, 1/2 and 2/3 are
    meaningful here; anything else is a config error.
    """

    fraction: Fraction | None = None
    fixed_count: int | None = None

    def __post_init__(self):
        if (self.fraction is None) == (self.fixed_count is None):
            raise ValueError("tail rule needs exactly one of fraction or fixed_count")
        if self.fraction is not None:
            require_field_types(self, (Fraction,), "fraction")
            if self.fraction not in _FRACTION_NAMES:
                raise ValueError(f"unsupported tail fraction {self.fraction}")
        if self.fixed_count is not None:
            require_field_types(self, (int,), "fixed_count")
            if self.fixed_count < 0:
                raise ValueError("fixed tail count must be nonnegative")

    @classmethod
    def third(cls) -> "TailRule":
        return cls(fraction=Fraction(1, 3))

    @classmethod
    def half(cls) -> "TailRule":
        return cls(fraction=Fraction(1, 2))

    @classmethod
    def twothirds(cls) -> "TailRule":
        return cls(fraction=Fraction(2, 3))

    @classmethod
    def fixed(cls, count: int) -> "TailRule":
        return cls(fixed_count=count)

    @classmethod
    def parse(cls, text: str) -> "TailRule":
        """Parse 'third' | 'half' | 'twothirds' | 'fixed:<m>'."""
        names = {v: k for k, v in _FRACTION_NAMES.items()}
        if text in names:
            return cls(fraction=names[text])
        if text.startswith("fixed:"):
            try:
                return cls.fixed(int(text.split(":", 1)[1]))
            except ValueError as exc:
                raise ValueError(f"bad fixed tail count in {text!r}") from exc
        raise ValueError(f"unknown tail rule {text!r}")

    def canonical(self) -> str:
        if self.fraction is not None:
            return _FRACTION_NAMES[self.fraction]
        return f"fixed:{self.fixed_count}"

    def size(self, trigger_step: int) -> int:
        """Number of final steps (step < size) protected after a trigger at k."""
        if self.fixed_count is not None:
            return self.fixed_count
        remaining = trigger_step + 1  # steps k, k-1, ..., 0 inclusive
        num = remaining * self.fraction.numerator
        return -(-num // self.fraction.denominator)


@dataclass(frozen=True)
class CachePolicyConfig:
    kind: PolicyKind = PolicyKind.BWCACHE
    delta: float = 0.15
    reuse_interval: int = 3
    tail: TailRule = field(default_factory=TailRule.half)
    static_stride: int = 3

    def __post_init__(self):
        require_field_types(self, (PolicyKind,), "kind")
        require_field_types(self, (TailRule,), "tail")
        require_field_types(self, (int, float), "delta")
        require_field_types(self, (int,), "reuse_interval", "static_stride")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")
        if self.reuse_interval < 1:
            raise ValueError("reuse_interval must be at least 1")
        if self.static_stride < 1:
            raise ValueError("static_stride must be at least 1")

    @classmethod
    def recommended(cls, total_steps: int) -> "CachePolicyConfig":
        """The defaults with reuse interval ceil(T / 10)."""
        return cls(reuse_interval=-(-total_steps // 10))


@dataclass(frozen=True)
class BlockCacheState:
    """Policy state between steps: the frozen trigger and the current reuse run.

    ``trigger_step`` is the step where reuse first triggered (None until
    then); ``reuse_run_length`` counts the consecutive reused steps just
    taken, 0 after a computed step. The cached block features are not part
    of it: the runner owns them.
    """

    trigger_step: int | None = None
    reuse_run_length: int = 0


def relative_l1(current: Tensor, previous: Tensor) -> float:
    """sum |current - previous| / sum |previous|, accumulated in float64."""
    if current.shape != previous.shape:
        raise DimensionError(
            f"relative_l1 shapes differ: {current.shape} vs {previous.shape}"
        )
    prev64 = previous.astype(np.float64, copy=False)
    denom = float(np.abs(prev64).sum())
    if denom == 0.0:
        raise ZeroDenominatorError("reference features have zero L1 norm")
    num = float(np.abs(current.astype(np.float64, copy=False) - prev64).sum())
    return num / denom


def aggregate_distances(per_block: Sequence[float]) -> tuple[float, float]:
    """(arl1, mean): sum of the per-block distances and their mean."""
    if len(per_block) == 0:
        raise ValueError("aggregate_distances needs at least one distance")
    arl1 = float(sum(per_block))
    return arl1, arl1 / len(per_block)


def decide(
    state: BlockCacheState,
    mean_l1: float | None,
    step: int,
    total_steps: int,
    policy: CachePolicyConfig,
) -> tuple[Action, BlockCacheState]:
    """Choose compute vs reuse for ``step`` and return the successor state.

    ``mean_l1`` is the indicator measured at the most recent computed step,
    or None if that step had nothing to compare against (or the previous
    step was reused). Pure: the input state is not mutated.
    """
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside run of {total_steps} steps")
    exec_idx = total_steps - 1 - step
    trigger, run = state.trigger_step, state.reuse_run_length

    kind = policy.kind
    if kind is _NONE:
        reuse = False
    elif kind is _STATIC:
        reuse = exec_idx % policy.static_stride != 0
    elif exec_idx < 2:
        # Warmup: the first two executed steps establish cache and indicator.
        reuse = False
    elif trigger is not None and step < policy.tail.size(trigger):
        # Frozen protected tail: always recompute, trigger_step stays put.
        reuse = False
    elif run >= policy.reuse_interval:
        # Mandatory refresh; next call re-evaluates against the fresh features.
        reuse = False
    elif run > 0:
        reuse = True
    # The last step was computed (possibly a refresh): the indicator decides.
    elif mean_l1 is None:
        raise ProtocolError(f"decide at step {step} needs an indicator but none was measured")
    elif not mean_l1 < policy.delta:
        reuse = False
    elif trigger is None:
        # A first trigger is refused if it would land inside its own tail.
        reuse = step >= policy.tail.size(step)
        trigger = step if reuse else None
    else:
        reuse = True

    if reuse:
        return _REUSED, BlockCacheState(trigger, run + 1)
    if run == 0:
        # Only a reuse moves the trigger, so the state is unchanged.
        return _COMPUTED, state
    return _COMPUTED, BlockCacheState(trigger, 0)


def require_valid_tail(policy: CachePolicyConfig, total_steps: int) -> None:
    """Refuse a bwcache policy whose fixed tail covers a whole run of ``total_steps``."""
    if (
        policy.kind is PolicyKind.BWCACHE
        and policy.tail.fixed_count is not None
        and policy.tail.fixed_count >= total_steps
    ):
        raise ValueError(
            f"fixed tail of {policy.tail.fixed_count} covers the whole run "
            f"of {total_steps} steps"
        )


def _drive(total_steps: int, policy: CachePolicyConfig, run_step: Callable) -> list[StepDecision]:
    """Decide every step of a run in execution order and record each decision.

    ``run_step(step, action, measure)`` carries out one decided step and, if
    ``measure``, returns its per-block distances to the previous computed
    step's features, else None. Only computed steps after the first are
    measured: the first executed step has nothing to compare against.
    """
    state = BlockCacheState()
    mean_l1: float | None = None
    decisions: list[StepDecision] = []
    for step in range(total_steps - 1, -1, -1):
        action, state = decide(state, mean_l1, step, total_steps, policy)
        measure = action is _COMPUTED and step < total_steps - 1
        per_block = run_step(step, action, measure)
        arl1 = mean_l1 = None
        if measure:
            arl1, mean_l1 = aggregate_distances(per_block)
        decisions.append(StepDecision(step, action, per_block, mean_l1, arl1))
    return decisions


def run_policy(config: ModelConfig, policy: CachePolicyConfig):
    """Sample under ``policy`` and return (final_latent, RunTrace).

    Computed steps run the full block stack, measure per-block distances
    against the previous cache when one exists, and replace the cache.
    Reused steps substitute the cached block features unchanged. Either way
    the step reads eps_pred out of the cache's last block output, through the
    one readout below. Cached features are read-only, so nothing can alter
    what a later reused step substitutes. Inside a ``deterministic()`` scope
    the recorded timings are zeroed so exports are byte-stable.
    """
    total = config.steps
    require_valid_tail(policy, total)
    x = sample_initial_latent(config)
    weights = init_weights(config)
    schedule = NoiseSchedule.linear(total)
    readout = readout_matrix(config)

    features: list[Tensor] | None = None  # block outputs of the last computed step
    timings: list[float] = []

    def run_step(step: int, action: Action, measure: bool) -> tuple[float, ...] | None:
        nonlocal x, features, last
        per_block = None
        if action is Action.COMPUTED:
            outputs = denoiser_forward(x, step, weights, config)
            for o in outputs:
                o.flags.writeable = False
            if measure:
                per_block = tuple(relative_l1(o, f) for o, f in zip(outputs, features))
            features = outputs
        elif features is None:
            raise ProtocolError(f"reuse decided at step {step} with an empty cache")
        x = reverse_step(x, matmul(features[-1], readout), step, schedule)
        # Timed from the end of the previous step, so the decision is included.
        now = time.perf_counter()
        timings.append(now - last)
        last = now
        return per_block

    last = time.perf_counter()
    decisions = _drive(total, policy, run_step)
    if is_deterministic():
        timings = [0.0] * total
    trace = RunTrace(
        decisions=decisions,
        timings=timings,
        config_fingerprint=config_fingerprint(config, policy),
        final_latent=x,
    )
    return x, trace


def replay_trace(
    rows: Sequence[Sequence[float | None]],
    policy: CachePolicyConfig,
) -> list[StepDecision]:
    """Re-run the decision machine over a recorded distance table.

    ``rows`` is execution-ordered (step T-1 first), one sequence of N
    per-block distances per step. A distance may be None only where the
    policy never reads it: the first executed step (which has no previous
    cache even live) and steps the replayed policy reuses. Where a row is
    read, its distances must be >= 0 with a finite sum (arl1), as every
    live measurement is. Distances at reused steps are ignored, matching
    live behavior where nothing is measured there.
    """
    total = len(rows)
    if total < 2:
        raise ValueError("replay needs at least two steps")
    n_blocks = len(rows[0])
    if n_blocks == 0:
        raise ValueError("replay needs at least one block per step")
    for i, row in enumerate(rows):
        if len(row) != n_blocks:
            raise ValueError(
                f"ragged trace: execution index {i} has {len(row)} values, expected {n_blocks}"
            )
    require_valid_tail(policy, total)

    def read_row(step: int, action: Action, measure: bool) -> tuple[float, ...] | None:
        if not measure:
            return None
        exec_idx = total - 1 - step
        row = rows[exec_idx]
        if None in row:
            raise ValueError(
                f"trace is missing distances at step {step} "
                f"(execution index {exec_idx}), needed for a computed step"
            )
        per_block = tuple(map(float, row))
        # min() may pass over a NaN, but any NaN or inf makes the sum NaN or inf.
        if not (min(per_block) >= 0.0 and sum(per_block) < math.inf):
            raise ValueError(
                f"trace has a negative or non-finite distance at step {step} "
                f"(execution index {exec_idx})"
            )
        return per_block

    return _drive(total, policy, read_row)
