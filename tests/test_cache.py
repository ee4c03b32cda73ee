"""Decision-machine tests: hand-walked goldens plus property invariants.

The golden schedules below were derived by stepping the rules by hand
before the implementation existed; the comments show the walk. The
hypothesis section drives the machine over arbitrary traces and policies and
asserts the structural guarantees that must hold for every input: warmup,
run-length bound, frozen protected tail, and trigger monotonicity in delta.
"""

from __future__ import annotations

import math
import re
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bwcache import cache as cache_module, model as model_module
from bwcache.cache import (
    Action,
    BlockCacheState,
    CachePolicyConfig,
    PolicyKind,
    ProtocolError,
    Sampler,
    StepDecision,
    TailRule,
    ZeroDenominatorError,
    advance,
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
    readout_matrix,
    reverse_step,
    sample_initial_latent,
)
from bwcache.tensor import DimensionError, matmul
from bwcache.traceio import read_heatmap, write_heatmap
from feature_spy import FeatureSpy, digest

C = Action.COMPUTED
R = Action.REUSED


def bw(delta, interval, tail, **kw) -> CachePolicyConfig:
    return CachePolicyConfig(
        kind=PolicyKind.BWCACHE, delta=delta, reuse_interval=interval, tail=tail, **kw
    )


def constant_rows(total_steps, n_blocks=1, value=0.01):
    return [[value] * n_blocks for _ in range(total_steps)]


def both_forms(rows):
    """The rows as lists with None, and as the float64 array with NaN for None
    that read_heatmap returns."""
    return rows, np.array(rows, dtype=np.float64)


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

    @settings(max_examples=60, deadline=None)
    @given(
        tokens=st.integers(min_value=1, max_value=64),
        d=st.integers(min_value=1, max_value=256),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        exponents=st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=2, max_size=2).map(sorted),
        near=st.booleans(),
        fortran=st.booleans(),
    )
    def test_relative_l1_is_byte_equal_to_its_formula(self, tokens, d, seed, exponents, near, fortran):
        """The distance equals the two float64 sums of its formula exactly,
        for magnitudes from 1e-30 to 1e30 of either sign and a C- or
        F-ordered current, so no change of summation order can pass: one
        would move heatmap bytes."""
        rng = np.random.default_rng(seed)

        def draw():
            magnitude = 10.0 ** rng.uniform(*exponents, size=(tokens, d))
            return (rng.choice([-1.0, 1.0], size=(tokens, d)) * magnitude).astype(np.float32)

        p = draw()
        c = (p * (1.0 + 1e-3 * rng.standard_normal((tokens, d)))).astype(np.float32) if near else draw()
        if fortran:
            c = np.asfortranarray(c)
        f64 = np.float64
        want = float(np.abs(c.astype(f64) - p.astype(f64)).sum()) / float(np.abs(p.astype(f64)).sum())
        assert relative_l1(c, p) == want

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

    @pytest.mark.parametrize("text", ["fixed: 3", "fixed:+3", "fixed:03", "fixed:٣", "fixed:1_0"])
    def test_parse_refuses_a_count_int_reads_but_canonical_does_not_write(self, text):
        """int() reads each of these as 3 or 10; the tail is refused, named."""
        with pytest.raises(ValueError, match=re.escape(f"bad fixed tail count in {text!r}")):
            TailRule.parse(text)

    def test_negative_count_is_refused_as_a_bad_count(self):
        """fixed(-3) spells a sign, so it is refused as the spelling it makes."""
        with pytest.raises(ValueError, match=re.escape("bad fixed tail count in 'fixed:-3'")):
            TailRule.fixed(-3)

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.one_of(
            st.text(),
            st.text().map("fixed:".__add__),
            st.from_regex(r"fixed:[-+ 0٣]?[0-9_]{0,3} ?", fullmatch=True),
            st.integers(min_value=0).map("fixed:{}".format),
            st.sampled_from(["third", "half", "twothirds"]),
        )
    )
    @example("fixed:0")
    @example("fixed:00")
    @example("fixed:-0")
    @example("Half")
    @example("third ")
    def test_accepted_text_round_trips(self, text):
        """parse accepts only the spelling canonical() writes: any text it
        accepts is its own rule's canonical form."""
        try:
            rule = TailRule.parse(text)
        except ValueError:
            return
        assert rule.canonical() == text

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

        with pytest.raises(ValueError, match="unknown tail rule 'quarter'"):
            TailRule("quarter")
        with pytest.raises(ValueError, match="spelling"):
            TailRule(Fraction(1, 2))

    @pytest.mark.parametrize(
        "field, value",
        [("fixed_count", True), ("fixed_count", 2.0), ("fixed_count", np.int64(2)), ("spelling", 0.5)],
    )
    def test_wrong_typed_field_refused_naming_it(self, field, value):
        """A bool, float or numpy count passed to fixed(), or a spelling that
        is not a str, is refused at construction."""
        make = TailRule.fixed if field == "fixed_count" else TailRule
        with pytest.raises(ValueError, match=field):
            make(value)

    def test_fields_are_read_from_the_spelling(self):
        """Each constructor's rule is the rule of its spelling, with exactly
        one of fraction and fixed_count set."""
        from fractions import Fraction

        assert TailRule.third() == TailRule("third")
        assert (TailRule.half().fraction, TailRule.half().fixed_count) == (Fraction(1, 2), None)
        assert (TailRule.fixed(0).fraction, TailRule.fixed(0).fixed_count) == (None, 0)
        assert TailRule.fixed(12) == TailRule.parse("fixed:12")


class TestPolicyConfig:
    def test_validation(self):
        for delta in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="delta"):
                CachePolicyConfig(delta=delta)
        with pytest.raises(ValueError):
            CachePolicyConfig(reuse_interval=0)
        with pytest.raises(ValueError):
            CachePolicyConfig(static_stride=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "none"),
            ("kind", "bwcache"),
            ("tail", "half"),
            ("delta", True),
            ("delta", "0.1"),
            ("delta", np.float32(0.1)),
            ("reuse_interval", True),
            ("reuse_interval", 2.0),
            ("reuse_interval", np.int64(2)),
            ("static_stride", True),
            ("static_stride", 3.0),
        ],
    )
    def test_wrong_typed_field_refused_naming_it(self, field, value):
        """A field that only compares equal to a valid value (the string
        'none' equals PolicyKind.NONE, True equals 1) is refused at
        construction, before decide() or the fingerprint can read it."""
        with pytest.raises(ValueError, match=field):
            CachePolicyConfig(**{field: value})

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
        assert new.trigger_step == 7
        assert new.reuse_run_length == 1

    def test_failing_indicator_keeps_computing(self):
        state = BlockCacheState()
        action, new = decide(state, 0.20, 7, 10, bw(0.15, 3, TailRule.fixed(1)))
        assert action is C
        assert new.trigger_step is None

    def test_tail_overrides_any_indicator(self):
        state = BlockCacheState(trigger_step=8, reuse_run_length=1)
        action, new = decide(state, 0.0, 1, 10, bw(0.15, 3, TailRule.fixed(3)))
        assert action is C
        assert new.reuse_run_length == 0
        assert new.trigger_step == 8  # frozen, never cleared

    def test_just_refreshed_state_resumes_below_delta(self):
        """After a refresh (trigger set, run 0) the indicator alone decides."""
        state = BlockCacheState(trigger_step=8, reuse_run_length=0)
        action, new = decide(state, 0.10, 5, 10, bw(0.15, 3, TailRule.fixed(1)))
        assert action is R
        assert new == BlockCacheState(trigger_step=8, reuse_run_length=1)

    @pytest.mark.parametrize("mean_l1", [0.15, 0.20])
    def test_just_refreshed_state_computes_at_or_above_delta(self, mean_l1):
        state = BlockCacheState(trigger_step=8, reuse_run_length=0)
        action, new = decide(state, mean_l1, 5, 10, bw(0.15, 3, TailRule.fixed(1)))
        assert action is C
        assert new == state

    def test_just_refreshed_state_needs_an_indicator(self):
        state = BlockCacheState(trigger_step=8, reuse_run_length=0)
        with pytest.raises(ProtocolError):
            decide(state, None, 5, 10, bw(0.15, 3, TailRule.fixed(1)))

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
        state = BlockCacheState(trigger_step=None, reuse_run_length=0)
        decide(state, 0.01, 7, 10, bw(0.15, 3, TailRule.half()))
        assert state.trigger_step is None
        assert state.reuse_run_length == 0

    def test_state_is_frozen_with_two_fields(self):
        state = BlockCacheState()
        assert [f.name for f in fields(state)] == ["trigger_step", "reuse_run_length"]
        with pytest.raises(FrozenInstanceError):
            state.reuse_run_length = 1

    def test_trigger_interval_one_alternates(self):
        """R=1 allows single reuses separated by refreshes."""
        rows = constant_rows(8)
        decisions = replay_trace(rows, bw(1e9, 1, TailRule.fixed(1)))
        assert actions(decisions) == [C, C, R, C, R, C, R, C]

    def test_ragged_trace_rejected(self):
        """Rows of unequal length are no [T, N] table: NumPy refuses their shape."""
        rows = [[0.1, 0.1], [0.1], [0.1, 0.1]]
        with pytest.raises(ValueError, match="shape"):
            replay_trace(rows, bw(0.15, 3, TailRule.half()))

    def test_missing_needed_value_rejected(self):
        """A None row in a list, or a NaN row in an array, where a computed step reads it."""
        rows = [[0.1], [None], [0.1], [0.1]]
        for table in both_forms(rows):
            with pytest.raises(ValueError, match="missing"):
                replay_trace(table, bw(0.0, 3, TailRule.half()))

    @pytest.mark.parametrize(
        "row",
        [
            [float("nan"), 0.1],
            [0.1, float("nan")],
            [float("inf"), 0.1],
            [0.1, -float("inf")],
            [-1.0, 0.1],
        ],
    )
    def test_impossible_needed_value_rejected(self, row):
        """A distance the policy reads must be finite and >= 0, like a live one."""
        rows = [[None, None], row, [0.1, 0.1]]
        for table in both_forms(rows):
            with pytest.raises(ValueError, match=r"at step 1 \(execution index 1\)"):
                replay_trace(table, bw(0.15, 2, TailRule.fixed(0)))

    def test_impossible_value_at_reused_step_is_not_read(self):
        rows = [[None], [0.1], [float("nan")]]
        for table in both_forms(rows):
            decisions = replay_trace(table, bw(0.15, 2, TailRule.fixed(0)))
            assert actions(decisions) == [C, C, R]

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

    def test_fixed_tail_covering_run_rejected_before_any_draw(self, monkeypatch):
        def refuse_to_draw(*args):
            raise AssertionError("drew before the tail was checked")

        monkeypatch.setattr(model_module, "rand_normal", refuse_to_draw)
        with pytest.raises(ValueError, match="whole run"):
            run_policy(toy_config(), bw(0.15, 3, TailRule.fixed(12)))

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

    def test_reused_steps_substitute_cached_features_bit_exact(self, monkeypatch):
        spy = FeatureSpy(monkeypatch)
        config = toy_config(seed=2)
        _, trace = run_policy(config, bw(1e9, 3, TailRule.half()))
        assert any(d.action is R for d in trace.decisions)
        assert spy.failed_readouts(trace.decisions) == []

    def test_cached_features_are_read_only(self, monkeypatch):
        """Every block output kept as the cache refuses writes, so no
        in-place op can alter what a later reused step substitutes."""
        stored = []

        def spy(*args):
            outputs = denoiser_forward(*args)
            stored.append(outputs)
            return outputs

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

    def test_digests_are_those_of_the_model_features(self, monkeypatch):
        """The block outputs a none run computes digest like those of a
        sampler loop written out here straight from the model; spying
        changes neither the decisions nor the final latent."""
        config = toy_config(seed=6, steps=5)
        policy = CachePolicyConfig(kind=PolicyKind.NONE)
        plain_final, plain = run_policy(config, policy)
        spy = FeatureSpy(monkeypatch)
        final, trace = run_policy(config, policy)
        weights = init_weights(config)
        schedule = NoiseSchedule.linear(config.steps)
        x = sample_initial_latent(config)
        want = []
        for step in range(config.steps - 1, -1, -1):
            outputs = denoiser_forward(x, step, weights, config)
            want.append(tuple(digest(o) for o in outputs))
            x = reverse_step(x, matmul(outputs[-1], readout_matrix(config)), step, schedule)
        assert spy.forward_digests == want
        assert spy.failed_readouts(trace.decisions) == []  # one intact readout per step
        assert final.tobytes() == x.tobytes()
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


def toy_sampler(config: ModelConfig) -> Sampler:
    return Sampler(
        config, init_weights(config), NoiseSchedule.linear(config.steps), readout_matrix(config)
    )


def run_actions(config: ModelConfig, actions_in_order) -> tuple[np.ndarray, list]:
    """Sample ``config`` under a given action sequence, in execution order
    (step T-1 first), by ``advance`` alone; return the final latent and each
    step's per-block distances. A computed step after the first is measured,
    as a live run measures it."""
    sampler = toy_sampler(config)
    x, features = sample_initial_latent(config), None
    per_blocks = []
    for i, action in enumerate(actions_in_order):
        step = config.steps - 1 - i
        x, features, per_block = advance(x, features, step, action, action is C and i > 0, sampler)
        per_blocks.append(per_block)
    return x, per_blocks


class TestAdvance:
    @pytest.mark.parametrize(
        "policy, reuses",
        [
            (CachePolicyConfig(kind=PolicyKind.NONE), False),
            (CachePolicyConfig(), False),
            (bw(0.5, 5, TailRule.third()), True),
            (CachePolicyConfig(kind=PolicyKind.STATIC, static_stride=2), True),
        ],
        ids=["none", "default", "criterion-08", "static-2"],
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_the_actions_of_a_live_run_reproduce_it(self, policy, reuses, seed):
        """A loop over advance that follows a run_policy run's actions gives
        that run's final latent bytes and per-block distances, reused steps
        included where the policy reuses on this model."""
        config = toy_config(seed=seed)
        final, trace = run_policy(config, policy)
        assert (R in actions(trace.decisions)) == reuses
        got, per_blocks = run_actions(config, actions(trace.decisions))
        assert got.tobytes() == final.tobytes()
        assert per_blocks == [d.per_block_l1 for d in trace.decisions]

    @pytest.mark.parametrize("d", [64, 256])
    def test_a_computed_step_holds_at_most_one_mlp_half_beyond_its_features(self, d):
        """A measured computed step allocates its new feature set plus one
        block's MLP half at most: each block frees its attention arrays before
        its MLP allocates, and the distances run in two float64 arrays of one
        block output's size."""
        config = ModelConfig(hidden_dim=d)
        sampler = toy_sampler(config)
        x, features, _ = advance(sample_initial_latent(config), None, config.steps - 1, C, False, sampler)
        tracemalloc.start()
        try:
            _, features, per_block = advance(x, features, config.steps - 2, C, True, sampler)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(per_block) == config.n_blocks
        # The peak is in the last block's MLP. Beyond the seven block outputs
        # before it, that holds h' and AdaLN(h') ([tokens, d] each), the mlp_in
        # product and GELU's output ([tokens, 4d] each), and GELU's finite
        # check mask (bool [tokens, 4d]: the bytes of the eighth output, not
        # yet made). At d=256 and 64 tokens: 2 * 64 KiB + 2 * 256 KiB = 640
        # KiB beyond the 512 KiB feature set; at d=64, 160 KiB beyond 128 KiB.
        # The slack covers the modulation and timestep vectors. The distances'
        # float64 pair (2 * 128 KiB at d=256) comes after the forward and is
        # smaller than the MLP half.
        f32 = np.dtype(np.float32).itemsize
        feature_set = sum(o.nbytes for o in features)
        assert feature_set == config.n_blocks * config.tokens * d * f32
        mlp_half = (2 * 4 * d + 2 * d) * config.tokens * f32
        slack = 64 * 2**10
        assert peak - feature_set <= mlp_half + slack

    def test_reuse_with_an_empty_cache_is_a_protocol_error(self):
        config = toy_config()
        x = sample_initial_latent(config)
        with pytest.raises(ProtocolError, match="empty cache"):
            advance(x, None, config.steps - 1, R, False, toy_sampler(config))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        tail=st.lists(st.tuples(st.sampled_from([C, R]), st.booleans()), min_size=1, max_size=9),
    )
    def test_a_step_writes_neither_its_latent_nor_its_features(self, seed, tail):
        """Over random action sequences whose first executed step computes: a
        reused step returns the same features object, bytes unchanged, and no
        distances; a computed step's outputs are read-only; the latent passed
        in is never written."""
        config = ModelConfig(
            n_blocks=2, hidden_dim=8, n_heads=2, frames=2, tokens_per_frame=3,
            steps=len(tail) + 1, seed=seed,
        )
        sampler = toy_sampler(config)
        x, features = sample_initial_latent(config), None
        for i, (action, measure) in enumerate([(C, False), *tail]):
            step = config.steps - 1 - i
            x_bytes = x.tobytes()
            before = None if features is None else [digest(f) for f in features]
            x_next, features_next, per_block = advance(x, features, step, action, measure, sampler)
            assert x.tobytes() == x_bytes
            if before is not None:
                assert [digest(f) for f in features] == before
            if action is R:
                assert features_next is features
                assert per_block is None
            else:
                assert len(features_next) == config.n_blocks
                assert not any(o.flags.writeable for o in features_next)
                if measure:
                    assert len(per_block) == config.n_blocks
                else:
                    assert per_block is None
            assert x_next.shape == x.shape
            x, features = x_next, features_next


def policy_strategy():
    return st.one_of(
        st.just(CachePolicyConfig(kind=PolicyKind.NONE)),
        st.integers(min_value=1, max_value=4).map(
            lambda stride: CachePolicyConfig(kind=PolicyKind.STATIC, static_stride=stride)
        ),
        st.builds(
            bw,
            delta=st.floats(min_value=0.0, max_value=0.5),
            interval=st.integers(min_value=1, max_value=4),
            tail=tail_strategy(),
        ),
    )


class TestLiveReplayAgreement:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        steps=st.integers(min_value=4, max_value=12),
        policy=policy_strategy(),
    )
    def test_replayed_heatmap_reproduces_live_actions(self, seed, steps, policy):
        """A live run's heatmap, written and read back, replays under the same
        policy to exactly the live actions: both runs decide by one driver and
        the heatmap holds every distance the policy read."""
        config = ModelConfig(
            n_blocks=2, hidden_dim=8, n_heads=2, frames=2, tokens_per_frame=3, steps=steps, seed=seed
        )
        _, trace = run_policy(config, policy)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "heatmap.npy"
            write_heatmap(trace.decisions, config.n_blocks, path)
            rows = read_heatmap(path)
        assert actions(replay_trace(rows, policy)) == actions(trace.decisions)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        steps=st.integers(min_value=4, max_value=12),
        delta=st.floats(min_value=0.0, max_value=0.5),
        interval=st.integers(min_value=1, max_value=4),
        tail=tail_strategy(),
        stride=st.integers(min_value=1, max_value=4),
    )
    def test_none_heatmap_replays_exactly_through_the_first_reuse(
        self, seed, steps, delta, interval, tail, stride
    ):
        """A none run's heatmap, written and read back, replays to exactly
        the live actions of none and static, and to those of bwcache up to
        and including its first reused step. Until that step the live bwcache
        run computes what none computes and reads the same distances; after
        it, its latent leaves the trajectory the table recorded."""
        config = ModelConfig(
            n_blocks=2, hidden_dim=8, n_heads=2, frames=2, tokens_per_frame=3, steps=steps, seed=seed
        )
        none = CachePolicyConfig(kind=PolicyKind.NONE)
        _, trace_none = run_policy(config, none)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "heatmap.npy"
            write_heatmap(trace_none.decisions, config.n_blocks, path)
            rows = read_heatmap(path)
        for policy in (none, CachePolicyConfig(kind=PolicyKind.STATIC, static_stride=stride)):
            _, live = run_policy(config, policy)
            assert actions(replay_trace(rows, policy)) == actions(live.decisions)
        policy = bw(delta, interval, tail)
        _, live = run_policy(config, policy)
        want = actions(live.decisions)
        horizon = want.index(R) + 1 if R in want else len(want)
        assert actions(replay_trace(rows, policy))[:horizon] == want[:horizon]

    @pytest.mark.parametrize("interval", [1, 3, 10])
    def test_delta_at_a_printed_mean_replays_through_the_first_reuse(self, interval):
        """At seed 0 this delta lies between step 28's live float64 mean
        (below it) and the mean of the nine-digit text of its cells (above
        it), which is what a CSV table once held. The table holds the float64
        distances, so replay of the none table, like the live run, reuses
        step 27 first; a replay of the text would compute it."""
        config = ModelConfig(seed=0)
        _, trace_none = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "heatmap.npy"
            write_heatmap(trace_none.decisions, config.n_blocks, path)
            rows = read_heatmap(path)
        delta = 0.1823438349503014
        step_28 = trace_none.decisions[1]
        assert step_28.step == 28
        printed = [float(f"{c:.9g}") for c in step_28.per_block_l1]
        assert step_28.mean_l1 < delta < sum(printed) / len(printed)
        policy = bw(delta, interval, TailRule.fixed(0))
        _, live = run_policy(config, policy)
        want = actions(live.decisions)
        horizon = want.index(R) + 1
        assert live.decisions[horizon - 1].step == 27
        assert actions(replay_trace(rows, policy))[:horizon] == want[:horizon]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        steps=st.integers(min_value=4, max_value=12),
        interval=st.integers(min_value=1, max_value=4),
        tail=tail_strategy(),
        pick=st.integers(min_value=0, max_value=100),
        above=st.booleans(),
    )
    def test_delta_at_a_recorded_mean_replays_through_the_first_reuse(
        self, seed, steps, interval, tail, pick, above
    ):
        """With delta equal to a recorded step's mean, or to the next float
        above it, replay of the none table equals the live run up to and
        including the first reuse: the indicator's strict comparison lands on
        the same side of delta in both, as it does only if the table holds the
        exact float64 distances the live run compared."""
        config = ModelConfig(
            n_blocks=2, hidden_dim=8, n_heads=2, frames=2, tokens_per_frame=3, steps=steps, seed=seed
        )
        _, trace_none = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "heatmap.npy"
            write_heatmap(trace_none.decisions, config.n_blocks, path)
            rows = read_heatmap(path)
        means = [d.mean_l1 for d in trace_none.decisions if d.mean_l1 is not None]
        mean = means[pick % len(means)]
        policy = bw(math.nextafter(mean, math.inf) if above else mean, interval, tail)
        _, live = run_policy(config, policy)
        want = actions(live.decisions)
        horizon = want.index(R) + 1 if R in want else len(want)
        assert actions(replay_trace(rows, policy))[:horizon] == want[:horizon]
