"""Acceptance gate: ten end-to-end criteria the package must meet.

Each criterion is exactly one test, so ``pytest -v`` prints one pass/fail
line per criterion. Tolerances are pinned in the assertions; where a
criterion is exact, the comparison is byte or integer equality. Runtime
budgets are asserted alongside the behavior they bound.
"""

import json
import math
import random
import statistics
import time
from pathlib import Path

import pytest

from bwcache.cache import (
    Action,
    CachePolicyConfig,
    PolicyKind,
    TailRule,
    relative_l1,
    replay_trace,
    run_policy,
)
from bwcache.cli import main
from bwcache.metrics import psnr, ssim_global, summarize
from bwcache.model import ModelConfig
from bwcache.tensor import rand_normal
from bwcache.traceio import read_heatmap, write_heatmap, write_reuse_profile
from feature_spy import FeatureSpy
from test_tensor import GAMMA, splitmix64_reference

FIXTURES = Path(__file__).parent / "fixtures"

# The reference toy configuration: 8 blocks, width 64, 4 frames of 16
# tokens, 30 denoising steps. These are also the CLI defaults.
TOY = ModelConfig()

TAIL_VARIANTS = (TailRule.third(), TailRule.half(), TailRule.twothirds(), TailRule.fixed(4))


@pytest.fixture(scope="module")
def policy_sweep():
    """Twenty seeded random (seed, delta, interval, tail) runs, each spied on.

    Shared by the fidelity, run-length, and FLOPs criteria so the model
    only runs once per parameter draw.
    """
    draws = random.Random(20260819)
    runs = []
    for i in range(20):
        config = ModelConfig(seed=draws.randrange(1000))
        policy = CachePolicyConfig(
            kind=PolicyKind.BWCACHE,
            delta=draws.uniform(0.05, 0.5),
            reuse_interval=draws.randint(1, 8),
            tail=TAIL_VARIANTS[i % len(TAIL_VARIANTS)],
        )
        with pytest.MonkeyPatch.context() as mp:
            spy = FeatureSpy(mp)
            _, trace = run_policy(config, policy)
        runs.append((config, policy, trace, spy))
    return runs


def reused_steps_of(trace):
    return [d.step for d in trace.decisions if d.action is Action.REUSED]


def test_criterion_01_zero_delta_oracle_equivalence(tmp_path):
    """delta=0 and the none policy agree byte-for-byte over 20 seeds.

    Exercised through the real CLI: latent dumps, heatmaps, and reuse
    profiles must be identical files. Budget: 30 s.
    """
    start = time.perf_counter()
    for seed in range(20):
        a = tmp_path / f"zero_{seed}"
        b = tmp_path / f"none_{seed}"
        common = ["generate", "--seed", str(seed)]
        assert main(common + ["--policy", "bwcache", "--delta", "0", "--out", str(a)]) == 0
        assert main(common + ["--policy", "none", "--out", str(b)]) == 0
        for name in ("latent.bin", "heatmap.npy", "reuse_profile.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), f"seed {seed}: {name} diverged"
    assert time.perf_counter() - start < 30.0


def test_criterion_02_cache_fidelity(policy_sweep):
    """Every step, reused or computed, reads out the latest computed step's features.

    Spies on the model call and the readout check, at every step, that the
    readout operand is byte-equal to the last block output the latest model
    call returned, and that all N of its block outputs still have the
    128-bit digests taken on return. Budget: 60 s (shared with the sweep
    fixture).
    """
    start = time.perf_counter()
    runs_with_reuse = 0
    for _, _, trace, spy in policy_sweep:
        computed = sum(d.action is Action.COMPUTED for d in trace.decisions)
        assert len(spy.forward_digests) == computed
        assert spy.failed_readouts(trace.decisions) == []
        runs_with_reuse += any(d.action is Action.REUSED for d in trace.decisions)
    assert runs_with_reuse >= 10  # the sweep must actually exercise reuse
    assert time.perf_counter() - start < 60.0


def test_criterion_03_run_length_bound_and_protected_tail(policy_sweep):
    """No reuse run exceeds the interval; no reuse lands in the frozen tail.

    The tail window is recomputed here from the first reused step and the
    tail rule, independently of the state machine. All four tail variants
    appear in the sweep. Budget: 60 s.
    """
    start = time.perf_counter()
    variants_with_reuse = set()
    for _, policy, trace, _ in policy_sweep:
        run_length = 0
        for decision in trace.decisions:
            run_length = run_length + 1 if decision.action is Action.REUSED else 0
            assert run_length <= policy.reuse_interval
        reused = reused_steps_of(trace)
        if not reused:
            continue
        variants_with_reuse.add(policy.tail.canonical())
        trigger = max(reused)  # first reuse in execution order
        tail_size = policy.tail.size(trigger)
        assert all(step >= tail_size for step in reused), (
            f"reuse inside protected tail (size {tail_size}, trigger {trigger})"
        )
    assert variants_with_reuse == {rule.canonical() for rule in TAIL_VARIANTS}
    assert time.perf_counter() - start < 60.0


def test_criterion_04_replay_golden_fixture(tmp_path):
    """The committed trace fixture reproduces its hand-derived decisions.

    The decision walk (compute 6..4, reuse 3..1, compute the fixed tail
    step 0 at delta 0.15) was derived by hand before the state machine was
    written; the expected exports are committed alongside the trace. Both
    tables' hand-written values are asserted here as literals too.
    """
    rows = read_heatmap(FIXTURES / "replay_trace.npy")
    assert rows.tolist() == [[0.3], [0.2], [0.1], [0.05], [0.05], [0.08], [0.3]]
    policy = CachePolicyConfig(
        kind=PolicyKind.BWCACHE, delta=0.15, reuse_interval=10, tail=TailRule.fixed(1)
    )
    decisions = replay_trace(rows, policy)
    want = [Action.COMPUTED] * 3 + [Action.REUSED] * 3 + [Action.COMPUTED]
    assert [d.action for d in decisions] == want
    assert [d.step for d in decisions] == [6, 5, 4, 3, 2, 1, 0]

    expected = read_heatmap(FIXTURES / "replay_expected_heatmap.npy")
    gaps_as_none = [[None if math.isnan(v) else v for v in row] for row in expected.tolist()]
    assert gaps_as_none == [[None], [0.2], [0.1], [None], [None], [None], [0.3]]
    write_heatmap(decisions, n_blocks=1, path=tmp_path / "heatmap.npy")
    write_reuse_profile(decisions, tmp_path / "reuse_profile.csv")
    expect_heat = (FIXTURES / "replay_expected_heatmap.npy").read_bytes()
    expect_reuse = (FIXTURES / "replay_expected_reuse.csv").read_bytes()
    assert (tmp_path / "heatmap.npy").read_bytes() == expect_heat
    assert (tmp_path / "reuse_profile.csv").read_bytes() == expect_reuse


def test_criterion_05_trigger_monotonicity():
    """Looser thresholds never trigger later, over 10 random fixed traces.

    For delta 0.25 vs 0.20 vs 0.15 on the same trace, the first reused
    step of the looser threshold is no later in execution order (its step
    index is no smaller). Exact ordering, no tolerance.
    """
    draws = random.Random(55)
    policy = lambda delta: CachePolicyConfig(
        kind=PolicyKind.BWCACHE, delta=delta, reuse_interval=3, tail=TailRule.half()
    )

    def first_trigger(rows, delta):
        reused = reused_steps_of_list(replay_trace(rows, policy(delta)))
        return max(reused) if reused else None

    def reused_steps_of_list(decisions):
        return [d.step for d in decisions if d.action is Action.REUSED]

    traces_with_all_three = 0
    for _ in range(10):
        rows = [
            [0.03 * (0.6 / 0.03) ** draws.random() for _ in range(2)]
            for _ in range(24)
        ]
        triggers = {d: first_trigger(rows, d) for d in (0.25, 0.20, 0.15)}
        if triggers[0.15] is not None:
            assert triggers[0.20] is not None and triggers[0.20] >= triggers[0.15]
        if triggers[0.20] is not None:
            assert triggers[0.25] is not None and triggers[0.25] >= triggers[0.20]
        if all(t is not None for t in triggers.values()):
            traces_with_all_three += 1
    assert traces_with_all_three >= 6  # the draw must actually exercise the ordering


def test_criterion_06_flops_exactness(policy_sweep):
    """flops_saved equals skipped block evaluations times analytic FLOPs.

    The per-block count is recomputed here from first principles
    (2*F*S*d*(12d + 2L), attention span L alternating tokens/frames) and
    compared as exact integers on every sweep run plus a zero-delta run.
    """
    def analytic_step_flops(config):
        total = 0
        for i in range(config.n_blocks):
            span = config.tokens_per_frame if i % 2 == 0 else config.frames
            total += 2 * config.frames * config.tokens_per_frame * config.hidden_dim * (
                12 * config.hidden_dim + 2 * span
            )
        return total

    for config, _, trace, _ in policy_sweep:
        summary = summarize(trace, None, config)
        reused = len(reused_steps_of(trace))
        computed = config.steps - reused
        assert summary.flops_saved == reused * analytic_step_flops(config)
        assert summary.total_flops == computed * analytic_step_flops(config)

    config = ModelConfig(seed=3)
    _, trace = run_policy(config, CachePolicyConfig(kind=PolicyKind.BWCACHE, delta=0.0))
    summary = summarize(trace, None, config)
    assert summary.flops_saved == 0
    assert summary.total_flops == config.steps * analytic_step_flops(config)


def test_criterion_07_quality_efficiency_trend():
    """Mean reuse rises and mean quality falls as the threshold loosens.

    Over seeds 0..9 on the toy configuration, thresholds 0.05, 0.15, 0.30
    must give strictly increasing mean reuse rates and strictly decreasing
    mean reference-vs-cached quality. Rank order only; budget 5 min.
    """
    start = time.perf_counter()
    deltas = (0.05, 0.15, 0.30)
    rates = {d: [] for d in deltas}
    quality = {d: [] for d in deltas}
    for seed in range(10):
        config = ModelConfig(seed=seed)
        reference, _ = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        for delta in deltas:
            _, trace = run_policy(config, CachePolicyConfig(kind=PolicyKind.BWCACHE, delta=delta))
            summary = summarize(trace, reference, config)
            rates[delta].append(summary.reuse_rate_steps)
            quality[delta].append(summary.psnr_db)
    mean_rate = [statistics.mean(rates[d]) for d in deltas]
    mean_psnr = [statistics.mean(quality[d]) for d in deltas]
    assert mean_rate[0] < mean_rate[1] < mean_rate[2], f"reuse not increasing: {mean_rate}"
    assert mean_psnr[0] > mean_psnr[1] > mean_psnr[2], f"psnr not decreasing: {mean_psnr}"
    assert math.isfinite(mean_psnr[1])  # the middle threshold must actually fire
    assert time.perf_counter() - start < 300.0


def test_criterion_08_wall_clock_speedup():
    """At width 256, reuse of at least 0.4 yields at least a 1.2x speedup.

    Real wall-clock timings (deterministic mode off), one warmup pair to
    stabilize caches, best of two timed pairs. Budget: 2 min.
    """
    start = time.perf_counter()
    config = ModelConfig(hidden_dim=256, seed=0)
    cached = CachePolicyConfig(
        kind=PolicyKind.BWCACHE, delta=0.5, reuse_interval=5, tail=TailRule.third()
    )
    none = CachePolicyConfig(kind=PolicyKind.NONE)

    def timed_pair():
        _, trace_none = run_policy(config, none)
        _, trace_cached = run_policy(config, cached)
        wall_none = summarize(trace_none, None, config).wall_seconds
        summary = summarize(trace_cached, None, config)
        return summary.reuse_rate_blocks, wall_none / summary.wall_seconds

    timed_pair()  # warmup
    results = [timed_pair() for _ in range(2)]
    reuse = results[0][0]
    speedup = max(s for _, s in results)
    assert reuse >= 0.4, f"reuse_rate_blocks {reuse} below 0.4"
    assert speedup >= 1.2, f"speedup {speedup:.2f}x below 1.2x"
    assert time.perf_counter() - start < 120.0


def test_criterion_09_metric_identities():
    """PSNR/SSIM/distance identities hold at pinned tolerances.

    Identical inputs: psnr infinite, ssim within 1e-9 of 1. Error equal to
    the reference range: 0 dB within 1e-9. SSIM symmetric within 1e-12.
    relative_l1 scale-invariant within 1e-6 relative over 100 random pairs.
    """
    # One stream from state 99: each draw starts where the previous one ended.
    position = 0

    def draw(shape):
        nonlocal position
        values = rand_normal(99 + position * GAMMA, shape).astype("float64")
        position += math.prod(shape)  # every shape here has an even size
        return values

    image = draw((16, 16))
    assert math.isinf(psnr(image, image))

    flat = image * 0.0
    flat[0, 0] = 1.0  # range exactly 1
    assert abs(psnr(flat, flat + 1.0)) <= 1e-9  # MSE equals the squared range

    other = draw((16, 16))
    assert abs(ssim_global(image, image) - 1.0) <= 1e-9
    assert abs(ssim_global(image, other) - ssim_global(other, image)) <= 1e-12

    for _ in range(100):
        cur = draw((32, 32))
        prev = draw((32, 32)) + 3.0
        unit = splitmix64_reference(99 + position * GAMMA, 1)[0] / 2.0**64
        position += 1
        scale = 10.0 ** (6.0 * (unit - 0.5))
        base = relative_l1(cur, prev)
        scaled = relative_l1(cur * scale, prev * scale)
        assert abs(scaled - base) <= 1e-6 * abs(base)


def test_criterion_10_round_trip_and_determinism(tmp_path):
    """Exports survive ingest exactly; reruns are identical.

    Heatmap distances read back as exactly the float64 values recorded, and
    two CLI runs with identical flags produce byte-identical files.
    """
    config = ModelConfig(seed=7)
    policy = CachePolicyConfig(kind=PolicyKind.BWCACHE, delta=0.15)
    _, trace = run_policy(config, policy)
    write_heatmap(trace.decisions, config.n_blocks, tmp_path / "heatmap.npy")
    rows = read_heatmap(tmp_path / "heatmap.npy")
    compared = 0
    for decision, row in zip(trace.decisions, rows):
        if decision.per_block_l1 is None:
            continue
        for original, reread in zip(decision.per_block_l1, row):
            assert not math.isnan(reread)
            assert reread == original
            compared += 1
    assert compared > 0

    a, b = tmp_path / "a", tmp_path / "b"
    flags = ["generate", "--seed", "7", "--deterministic"]
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    for name in ("heatmap.npy", "reuse_profile.csv", "summary.json", "latent.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
