"""Output checks. Each returns a list of problems; an empty list is a pass.

The decision checks re-derive the bounds from the policy's own fields (run
length R, static stride, protected-tail size) instead of calling back into
the decision machine, so a broken ``decide`` cannot vouch for itself.
"""

from __future__ import annotations

import math

import numpy as np

from bwcache.cache import Action, CachePolicyConfig, PolicyKind, replay_trace
from bwcache.traceio import read_heatmap, read_summary, write_heatmap


def reuse_runs(decisions) -> list[int]:
    """Lengths of the maximal runs of consecutive reused steps."""
    runs, cur = [], 0
    for d in decisions:
        if d.action is Action.REUSED:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    return runs


def tail_size(policy: CachePolicyConfig, trigger_step: int) -> int:
    """Protected tail after a first reuse at ``trigger_step``: ceil((k + 1) * f) or a fixed m."""
    tail = policy.tail
    if tail.fixed_count is not None:
        return tail.fixed_count
    return math.ceil((trigger_step + 1) * tail.fraction)


def check_decisions(decisions, policy: CachePolicyConfig, total_steps: int) -> list[str]:
    """Step order, reuse-run bound and frozen tail, read from the decisions alone."""
    steps = [d.step for d in decisions]
    if steps != list(range(total_steps - 1, -1, -1)):
        return [f"decisions cover steps {steps[:3]}..., expected {total_steps - 1}..0"]
    problems = []
    if decisions[0].action is not Action.COMPUTED:
        problems.append("first executed step was not computed")
    runs = reuse_runs(decisions)
    longest = max(runs, default=0)
    if policy.kind is PolicyKind.NONE and longest:
        problems.append("none policy reused a step")
    if policy.kind is PolicyKind.STATIC and longest > policy.static_stride - 1:
        problems.append(f"static reuse run {longest} exceeds stride {policy.static_stride} - 1")
    if policy.kind is PolicyKind.BWCACHE:
        if longest > policy.reuse_interval:
            problems.append(f"reuse run {longest} exceeds R={policy.reuse_interval}")
        reused = [d.step for d in decisions if d.action is Action.REUSED]
        if reused:
            tail = tail_size(policy, reused[0])
            inside = [s for s in reused if s < tail]
            if inside:
                problems.append(f"steps {inside} reused inside the protected tail (< {tail})")
    return problems


def check_latent(x, shape: tuple[int, ...]) -> list[str]:
    problems = []
    if x.shape != shape:
        problems.append(f"latent shape {x.shape} != {shape}")
    if not np.isfinite(x).all():
        problems.append("latent has a non-finite value")
    return problems


def check_same_latent(a, b) -> list[str]:
    if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
        return ["same seed and policy gave a different latent"]
    return []


def check_replay_roundtrip(decisions, policy: CachePolicyConfig, n_blocks: int, path) -> list[str]:
    """Export the run's heatmap, read it back and replay it under the same policy."""
    write_heatmap(decisions, n_blocks, path)
    replayed = replay_trace(read_heatmap(path), policy)
    live = [d.action for d in decisions]
    again = [d.action for d in replayed]
    if live != again:
        first = next(i for i, (a, b) in enumerate(zip(live, again)) if a is not b)
        return [f"replay of own heatmap differs at execution index {first}"]
    return []


def check_summary_roundtrip(summary, fingerprint: str, path) -> list[str]:
    """A written summary must read back as the same RunSummary and fingerprint."""
    back, back_fp = read_summary(path)
    if back != summary or back_fp != fingerprint:
        return ["summary did not read back unchanged"]
    return []
