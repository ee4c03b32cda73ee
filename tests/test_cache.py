"""Decision-machine tests: hand-walked goldens plus property invariants.

The golden schedules below were derived by stepping the rules by hand
before the implementation existed; the comments show the walk. The
hypothesis section drives the machine over arbitrary traces and policies and
asserts the structural guarantees that must hold for every input: warmup,
run-length bound, frozen protected tail, and trigger monotonicity in delta.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bwcache import cache as cache_module
from bwcache.cache import (
    Action,
    BlockCacheState,
    CachePolicyConfig,
    Mode,
    PolicyKind,
    ProtocolError,
    StepDecision,
    TailRule,
    ZeroDenominatorError,
    aggregate_distances,
    decide,
    relative_l1,
    replay_trace,
    run_policy,
)
from bwcache.model import (
    ModelConfig,
    NoiseSchedule,
    denoiser_forward,
    init_weights,
    reverse_step,
    sample_initial_latent,
)
from bwcache.tensor import DimensionError

C = Action.COMPUTED
R = Action.REUSED


def bw(delta, interval, tail, **kw) -> CachePolicyConfig:
    return CachePolicyConfig(
        kind=PolicyKind.BWCACHE, delta=delta, reuse_interval=interval, tail=tail, **kw
    )


def constant_rows(total_steps, n_blocks=1, value=0.01):
    return [[value] * n_blocks for _ in range(total_steps)]


def actions(decisions) -> list[Action]:
    return [d.action for d in decisions]


class TestDistances:
    def test_relative_l1_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        cur = rng.standard_normal((6, 5)).astype(np.float32)
        prev = rng.standard_normal((6, 5)).astype(np.float32)
        num = sum(abs(float(a) - float(b)) for a, b in zip(cur.ravel(), prev.ravel()))
        den = sum(abs(float(b)) for b in prev.ravel())
        assert relative_l1(cur, prev) == pytest.approx(num / den, rel=1e-12)

    def test_relative_l1_is_scale_invariant(self):
        rng = np.random.default_rng(1)
        cur = rng.standard_normal((4, 4)).astype(np.float32)
        prev = rng.standard_normal((4, 4)).astype(np.float32)
        assert relative_l1(3.0 * cur, 3.0 * prev) == pytest.approx(
            relative_l1(cur, prev), rel=1e-6
        )

    def test_identical_features_have_zero_distance(self):
        x = np.ones((3, 3), dtype=np.float32)
        assert relative_l1(x, x) == 0.0

    def test_doubling_all_positive_features_gives_one(self):
        prev = np.array([[0.5, 1.5], [2.0, 1.0]], dtype=np.float32)
        assert relative_l1(2.0 * prev, prev) == pytest.approx(1.0, rel=1e-6)

    def test_zero_reference_raises(self):
        x = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ZeroDenominatorError):
            relative_l1(x, np.zeros_like(x))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            relative_l1(np.ones((2, 2)), np.ones((2, 3)))

    def test_aggregate_sum_and_mean(self):
        arl1, mean = aggregate_distances([0.1, 0.2, 0.3])
        assert arl1 == pytest.approx(0.6)
        assert mean == pytest.approx(0.2)

    def test_aggregate_zeros(self):
        assert aggregate_distances([0.0, 0.0, 0.0]) == (0.0, 0.0)

    def test_aggregate_against_scalar_sum_over_fixture(self):
        values = [
            0.301, 0.268, 0.244, 0.199, 0.176, 0.154, 0.131, 0.118, 0.102, 0.093,
            0.081, 0.072, 0.064, 0.058, 0.052, 0.049, 0.047, 0.046, 0.047, 0.049,
            0.054, 0.061, 0.070, 0.083, 0.099, 0.121, 0.152, 0.198,
        ]
        want_sum = 0.0
        for v in values:
            want_sum += v
        arl1, mean = aggregate_distances(values)
        assert arl1 == pytest.approx(want_sum, rel=1e-12)
        assert mean == pytest.approx(want_sum / 28, rel=1e-12)

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_distances([])


class TestTailRule:
    def test_parse_and_canonical_round_trip(self):
        for text in ("third", "half", "twothirds", "fixed:5"):
            assert TailRule.parse(text).canonical() == text

    def test_parse_rejects_junk(self):
        for text in ("quarter", "fixed:x", "fixed:"):
            with pytest.raises(ValueError):
                TailRule.parse(text)

    def test_fraction_sizes_use_exact_ceil(self):
        # trigger at step 27: 28 remaining; ceil(28/3)=10, ceil(28/2)=14, ceil(56/3)=19
        assert TailRule.third().size(27) == 10
        assert TailRule.half().size(27) == 14
        assert TailRule.twothirds().size(27) == 19
        # trigger at step 7: 8 remaining; thirds need rounding up
        assert TailRule.third().size(7) == 3
        assert TailRule.fixed(5).size(7) == 5

    def test_only_known_fractions_allowed(self):
        from fractions import Fraction

        with pytest.raises(ValueError):
            TailRule(fraction=Fraction(1, 4))
        with pytest.raises(ValueError):
            TailRule(fraction=Fraction(1, 2), fixed_count=3)


class TestPolicyConfig:
    def test_validation(self):
        for delta in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="delta"):
                CachePolicyConfig(delta=delta)
        with pytest.raises(ValueError):
            CachePolicyConfig(reuse_interval=0)
        with pytest.raises(ValueError):
            CachePolicyConfig(static_stride=0)

    def test_recommended_defaults_scale_interval_with_steps(self):
        p = CachePolicyConfig.recommended(30)
        assert p.delta == 0.15
        assert p.reuse_interval == 3  # ceil(30 / 10)
        assert p.tail.canonical() == "half"
        assert CachePolicyConfig.recommended(101).reuse_interval == 11


class TestDecideGoldens:
    def test_seven_step_walkthrough(self):
        """Hand walk: means 0.3/0.2/0.1/0.05/0.05/0.08/0.3, delta 0.15, R 10, tail fixed:1.

        e0, e1 warm up; e2 sees 0.2 (no); e3 sees 0.1 -> trigger at step 3;
        reuse runs through steps 3, 2, 1; step 0 is the fixed tail.
        """
        rows = [[0.3], [0.2], [0.1], [0.05], [0.05], [0.08], [0.3]]
        decisions = replay_trace(rows, bw(0.15, 10, TailRule.fixed(1)))
        assert actions(decisions) == [C, C, C, R, R, R, C]
        assert [d.step for d in decisions] == [6, 5, 4, 3, 2, 1, 0]
        assert decisions[0].per_block_l1 is None  # nothing to compare against
        assert decisions[1].mean_l1 == pytest.approx(0.2)
        assert decisions[2].mean_l1 == pytest.approx(0.1)
        assert decisions[3].per_block_l1 is None  # reused: nothing measured
        assert decisions[6].mean_l1 == pytest.approx(0.3)

    def test_thirty_step_refresh_cadence(self):
        """With an always-passing threshold, runs of R reuses alternate with
        single refreshes until the half tail takes over.

        Hand walk for T=30, R=3, half tail: trigger at step 27, tail is
        ceil(28/2)=14, so steps 13..0 recompute; before that the cadence is
        27-25 reuse, 24 refresh, 23-21 reuse, 20 refresh, 19-17 reuse,
        16 refresh, 15-14 reuse.
        """
        rows = constant_rows(30)
        decisions = replay_trace(rows, bw(1e9, 3, TailRule.half()))
        reused_steps = {d.step for d in decisions if d.action is R}
        assert reused_steps == {27, 26, 25, 23, 22, 21, 19, 18, 17, 15, 14}

    def test_twelve_step_exit_and_retrigger(self):
        """Refresh that fails the threshold exits caching; a later pass
        re-enters with the original trigger's frozen tail.

        T=12, delta 0.15, R=2, tail fixed:2. Means by execution index:
        e1 0.30 (no), e2 0.10 -> trigger step 8; reuse 8, 7; refresh at 6
        sees 0.40 -> exit; 5 computes (0.20), 4 computes (0.05) -> re-enter
        at step 3; reuse 3, 2; step 1 hits the tail, steps 1, 0 compute.
        """
        rows = [[0.5], [0.30], [0.10], [0.9], [0.9], [0.40], [0.20], [0.05], [0.9], [0.9], [0.03], [0.07]]
        decisions = replay_trace(rows, bw(0.15, 2, TailRule.fixed(2)))
        assert actions(decisions) == [C, C, C, R, R, C, C, C, R, R, C, C]
        reused_steps = {d.step for d in decisions if d.action is R}
        assert reused_steps == {8, 7, 3, 2}

    def test_candidate_trigger_inside_own_tail_is_refused(self):
        """A would-be trigger whose step already falls in its own tail
        computes instead; with tail fixed:4 over 6 steps nothing ever
        triggers even though every indicator passes."""
        rows = constant_rows(6, value=0.1)
        decisions = replay_trace(rows, bw(0.5, 3, TailRule.fixed(4)))
        assert actions(decisions) == [C] * 6

    def test_twothirds_tail_rounds_up(self):
        """T=10, trigger at step 7: ceil(8 * 2/3) = 6, so steps 5..0 are
        protected and only steps 7 and 6 can be reused."""
        rows = constant_rows(10)
        decisions = replay_trace(rows, bw(1e9, 10, TailRule.twothirds()))
        reused_steps = {d.step for d in decisions if d.action is R}
        assert reused_steps == {7, 6}

    def test_static_stride_pattern(self):
        policy = CachePolicyConfig(kind=PolicyKind.STATIC, static_stride=3)
        decisions = replay_trace(constant_rows(7), policy)
        assert actions(decisions) == [C, R, R, C, R, R, C]

    def test_none_policy_computes_everything(self):
        policy = CachePolicyConfig(kind=PolicyKind.NONE)
        decisions = replay_trace(constant_rows(5, n_blocks=3), policy)
        assert actions(decisions) == [C] * 5
        assert decisions[2].per_block_l1 == (0.01, 0.01, 0.01)


class TestDecideDirect:
    """Single decide() calls with explicit states, the table-row cases."""

    def test_passing_indicator_outside_tail_enters_caching(self):
        state = BlockCacheState()
        action, new = decide(state, 0.10, 7, 10, bw(0.15, 3, TailRule.fixed(1)))
        assert action is R
        assert new.mode is Mode.CACHING
        assert new.trigger_step == 7
        assert new.reuse_run_length == 1

    def test_failing_indicator_keeps_computing(self):
        state = BlockCacheState()
        action, new = decide(state, 0.20, 7, 10, bw(0.15, 3, TailRule.fixed(1)))
        assert action is C
        assert new.mode is Mode.COMPUTING
        assert new.trigger_step is None

    def test_tail_overrides_any_indicator(self):
        state = BlockCacheState(mode=Mode.CACHING, trigger_step=8, reuse_run_length=1)
        action, new = decide(state, 0.0, 1, 10, bw(0.15, 3, TailRule.fixed(3)))
        assert action is C
        assert new.mode is Mode.COMPUTING
        assert new.trigger_step == 8  # frozen, never cleared

    def test_immediate_trigger_with_empty_tail(self):
        """All-zero means, tail fixed:0, R=T: everything after warmup reuses."""
        total = 9
        rows = constant_rows(total, value=0.0)
        decisions = replay_trace(rows, bw(0.5, total, TailRule.fixed(0)))
        assert actions(decisions) == [C, C] + [R] * (total - 2)


class TestDecideEdges:
    def test_missing_indicator_raises_protocol_error(self):
        state = BlockCacheState()
        with pytest.raises(ProtocolError):
            decide(state, None, 5, 10, bw(0.15, 3, TailRule.half()))

    def test_step_outside_run_raises(self):
        with pytest.raises(ValueError):
            decide(BlockCacheState(), 0.1, 10, 10, bw(0.15, 3, TailRule.half()))

    def test_decide_does_not_mutate_input_state(self):
        state = BlockCacheState(mode=Mode.COMPUTING, trigger_step=None, reuse_run_length=0)
        decide(state, 0.01, 7, 10, bw(0.15, 3, TailRule.half()))
        assert state.mode is Mode.COMPUTING
        assert state.trigger_step is None

    def test_trigger_interval_one_alternates(self):
        """R=1 allows single reuses separated by refreshes."""
        rows = constant_rows(8)
        decisions = replay_trace(rows, bw(1e9, 1, TailRule.fixed(1)))
        assert actions(decisions) == [C, C, R, C, R, C, R, C]

    def test_ragged_trace_rejected(self):
        rows = [[0.1, 0.1], [0.1], [0.1, 0.1]]
        with pytest.raises(ValueError, match="ragged"):
            replay_trace(rows, bw(0.15, 3, TailRule.half()))

    def test_missing_needed_value_rejected(self):
        rows = [[0.1], [None], [0.1], [0.1]]
        with pytest.raises(ValueError, match="missing"):
            replay_trace(rows, bw(0.0, 3, TailRule.half()))

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            replay_trace([[0.1]], bw(0.15, 3, TailRule.half()))

    def test_fixed_tail_covering_run_rejected(self):
        with pytest.raises(ValueError, match="whole run"):
            replay_trace(constant_rows(5), bw(0.15, 3, TailRule.fixed(5)))


def tail_strategy():
    return st.one_of(
        st.just(TailRule.third()),
        st.just(TailRule.half()),
        st.just(TailRule.twothirds()),
        st.integers(min_value=0, max_value=3).map(TailRule.fixed),
    )


def rows_strategy():
    value = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False)
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(value, min_size=n, max_size=n), min_size=5, max_size=32
        )
    )


class TestDecideProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=rows_strategy(),
        delta=st.floats(min_value=0.0, max_value=0.5),
        interval=st.integers(min_value=1, max_value=8),
        tail=tail_strategy(),
    )
    def test_structural_invariants_hold_for_any_trace(self, rows, delta, interval, tail):
        """Warmup, frozen tail, and the run-length bound hold universally."""
        policy = bw(delta, interval, tail)
        decisions = replay_trace(rows, policy)
        assert len(decisions) == len(rows)
        # (a) the first two executed steps always compute
        assert decisions[0].action is C and decisions[1].action is C
        reused = [d.step for d in decisions if d.action is R]
        if reused:
            trigger = reused[0]  # first in execution order
            tail_size = policy.tail.size(trigger)
            # (b) every step inside the frozen tail computes
            for d in decisions:
                if d.step < tail_size:
                    assert d.action is C
            # a trigger never lands inside its own tail
            assert trigger >= tail_size
        # (c) no reuse run exceeds the interval
        run = 0
        for d in decisions:
            run = run + 1 if d.action is R else 0
            assert run <= policy.reuse_interval

    @settings(max_examples=150, deadline=None)
    @given(
        rows=rows_strategy(),
        lo=st.floats(min_value=0.0, max_value=0.5),
        hi=st.floats(min_value=0.0, max_value=0.5),
        interval=st.integers(min_value=1, max_value=8),
        tail=tail_strategy(),
    )
    def test_first_trigger_is_monotone_in_delta(self, rows, lo, hi, interval, tail):
        """A stricter threshold never triggers earlier on the same trace."""
        if lo > hi:
            lo, hi = hi, lo

        def first_trigger_exec(delta):
            decisions = replay_trace(rows, bw(delta, interval, tail))
            for i, d in enumerate(decisions):
                if d.action is R:
                    return i
            return len(decisions)  # never

        assert first_trigger_exec(lo) >= first_trigger_exec(hi)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=rows_strategy(),
        delta=st.floats(min_value=0.0, max_value=0.5),
        interval=st.integers(min_value=1, max_value=8),
        tail=tail_strategy(),
    )
    def test_replay_is_deterministic(self, rows, delta, interval, tail):
        policy = bw(delta, interval, tail)
        assert replay_trace(rows, policy) == replay_trace(rows, policy)


def toy_config(**overrides) -> ModelConfig:
    base = dict(n_blocks=4, hidden_dim=16, n_heads=2, frames=2, tokens_per_frame=4, steps=12, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


class TestRunPolicy:
    def test_none_policy_records_full_distance_table(self):
        config = toy_config()
        final, trace = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        assert len(trace.decisions) == config.steps
        assert all(d.action is C for d in trace.decisions)
        assert trace.decisions[0].per_block_l1 is None
        for d in trace.decisions[1:]:
            assert len(d.per_block_l1) == config.n_blocks
            assert d.arl1 == pytest.approx(sum(d.per_block_l1))
            assert d.mean_l1 == pytest.approx(d.arl1 / config.n_blocks)
        assert final.shape == (config.tokens, config.hidden_dim)
        assert np.array_equal(final, trace.final_latent)

    def test_zero_delta_equals_none_policy_exactly(self):
        """delta 0 can never pass a strict comparison, so bwcache degenerates
        to the all-compute run, bit for bit."""
        config = toy_config(seed=5)
        final_none, trace_none = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        final_bw, trace_bw = run_policy(
            config, bw(0.0, 3, TailRule.half())
        )
        assert np.array_equal(final_none, final_bw)
        assert trace_none.decisions == trace_bw.decisions

    def test_reused_steps_substitute_cached_features_bit_exact(self):
        config = toy_config(seed=2)
        policy = bw(1e9, 3, TailRule.half())
        _, trace = run_policy(config, policy, collect_digests=True)
        latest_computed = None
        reused_seen = 0
        for i, d in enumerate(trace.decisions):
            if d.action is C:
                latest_computed = trace.feature_digests[i]
            else:
                reused_seen += 1
                assert trace.feature_digests[i] == latest_computed
        assert reused_seen > 0

    def test_cached_features_are_read_only(self, monkeypatch):
        """Every block output kept as the cache refuses writes, so no
        in-place op can alter what a later reused step substitutes."""
        stored = []

        def spy(*args):
            eps_pred, outputs = denoiser_forward(*args)
            stored.append(outputs)
            return eps_pred, outputs

        monkeypatch.setattr(cache_module, "denoiser_forward", spy)
        config = toy_config(seed=2)
        _, trace = run_policy(config, bw(1e9, 3, TailRule.half()))
        assert any(d.action is R for d in trace.decisions)
        assert len(stored) == sum(d.action is C for d in trace.decisions)
        for outputs in stored:
            assert len(outputs) == config.n_blocks
            for o in outputs:
                with pytest.raises(ValueError, match="read-only"):
                    o[0, 0] = 0.0

    def test_digests_are_those_of_the_model_features(self):
        """A none run's digests are blake2b-128 of each step's block outputs,
        recomputed here straight from the model; collecting them changes
        neither the decisions nor the final latent."""
        config = toy_config(seed=6, steps=5)
        policy = CachePolicyConfig(kind=PolicyKind.NONE)
        final, trace = run_policy(config, policy, collect_digests=True)
        weights = init_weights(config)
        schedule = NoiseSchedule.linear(config.steps)
        x = sample_initial_latent(config)
        for i, step in enumerate(range(config.steps - 1, -1, -1)):
            eps_pred, outputs = denoiser_forward(x, step, weights, config)
            want = tuple(hashlib.blake2b(o.tobytes(), digest_size=16).hexdigest() for o in outputs)
            assert trace.feature_digests[i] == want
            x = reverse_step(x, eps_pred, step, schedule)
        assert final.tobytes() == x.tobytes()
        plain_final, plain = run_policy(config, policy)
        assert plain.feature_digests is None
        assert plain.decisions == trace.decisions
        assert plain_final.tobytes() == final.tobytes()

    def test_static_policy_runs_and_counts(self):
        config = toy_config()
        policy = CachePolicyConfig(kind=PolicyKind.STATIC, static_stride=4)
        _, trace = run_policy(config, policy)
        got = [d.action for d in trace.decisions]
        want = [C if i % 4 == 0 else R for i in range(config.steps)]
        assert got == want

    def test_same_seed_reproduces_bitwise(self):
        config = toy_config(seed=9)
        policy = bw(0.15, 3, TailRule.half())
        final_a, trace_a = run_policy(config, policy)
        final_b, trace_b = run_policy(config, policy)
        assert np.array_equal(final_a, final_b)
        assert trace_a.decisions == trace_b.decisions

    def test_initial_latent_override_shape_checked(self):
        config = toy_config()
        with pytest.raises(DimensionError):
            run_policy(
                config,
                CachePolicyConfig(kind=PolicyKind.NONE),
                initial_latent=np.zeros((1, 1), dtype=np.float32),
            )

    def test_initial_latent_must_be_float32(self):
        config = toy_config()
        with pytest.raises(ValueError, match="float64"):
            run_policy(
                config,
                CachePolicyConfig(kind=PolicyKind.NONE),
                initial_latent=np.zeros((config.tokens, config.hidden_dim)),
            )

    def test_live_matches_replay_of_own_heatmap(self):
        """Re-deciding the recorded distances yields the recorded decisions."""
        config = toy_config(seed=4)
        _, trace_none = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        rows = [
            list(d.per_block_l1) if d.per_block_l1 is not None else [None] * config.n_blocks
            for d in trace_none.decisions
        ]
        for policy in (
            bw(0.15, 3, TailRule.half()),
            bw(0.3, 2, TailRule.third()),
            CachePolicyConfig(kind=PolicyKind.STATIC, static_stride=5),
        ):
            replayed = replay_trace(rows, policy)
            _, live = run_policy(config, policy)
            # Live distances diverge after the first reuse (the latent path
            # differs), but the pre-trigger prefix must match exactly.
            first_reuse = next(
                (i for i, d in enumerate(live.decisions) if d.action is R), len(replayed)
            )
            assert [d.action for d in replayed[:first_reuse]] == [
                d.action for d in live.decisions[:first_reuse]
            ]
