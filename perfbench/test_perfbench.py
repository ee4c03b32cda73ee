"""Tests of the benchmark's own machinery: span arithmetic, tracer rebinding, checkers.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bwcache  # noqa: E402
from bwcache import cache, tensor  # noqa: E402
from bwcache.cache import Action, CachePolicyConfig, PolicyKind, StepDecision, TailRule  # noqa: E402
from bwcache.metrics import RunSummary  # noqa: E402
from bwcache.model import ModelConfig  # noqa: E402
from bwcache.traceio import write_summary  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import yardstick  # noqa: E402
from spans import Span, Tracer, aggregate, covered_length, self_times  # noqa: E402
from workloads import WORKLOADS, cli_argvs, model_seeds, sweep_policies  # noqa: E402

TINY = ModelConfig(n_blocks=2, hidden_dim=8, n_heads=2, frames=2, tokens_per_frame=2, steps=4, seed=3)


def decisions_from(actions: str) -> list[StepDecision]:
    """'CCRRC' -> decisions for steps T-1..0; distances are irrelevant to the checks."""
    total = len(actions)
    return [
        StepDecision(total - 1 - i, Action.COMPUTED if a == "C" else Action.REUSED, None, None, None)
        for i, a in enumerate(actions)
    ]


# ----------------------------------------------------------------- spans


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 3.0
    assert covered_length([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == 5.0
    assert covered_length([(8.0, 12.0), (-2.0, 1.0)], 0.0, 10.0) == 3.0
    assert covered_length([(2.0, 3.0), (1.0, 5.0)], 0.0, 10.0) == 4.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 9.0, 0, 0),
        Span("c", 2.0, 8.0, 1, 0),
        Span("d", 9.5, 10.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([1.5, 2.0, 6.0, 0.5])


def test_aggregate_sums_by_name_and_refuses_open_spans():
    spans = [Span("a", 0.0, 4.0, -1, 0), Span("b", 1.0, 2.0, 0, 0), Span("b", 2.0, 3.5, 0, 0)]
    agg = aggregate(spans)
    assert agg["a"] == pytest.approx({"calls": 1, "total_s": 4.0, "self_s": 1.5})
    assert agg["b"] == pytest.approx({"calls": 2, "total_s": 2.5, "self_s": 2.5})
    with pytest.raises(ValueError):
        aggregate(spans + [None])


def test_tracer_rebinds_every_import_and_restores_them():
    """matmul is imported by name into model and cache; every call must be seen."""
    original = tensor.matmul
    policy = CachePolicyConfig(kind=PolicyKind.STATIC, static_stride=2)
    with Tracer() as tracer:
        tracer.install(tensor, "matmul")
        tracer.install(bwcache.model, "dit_block_forward")
        tracer.sample = 7
        cache.run_policy(TINY, policy)
    bindings = [m.matmul for m in (tensor, bwcache.model, cache)]
    assert all(b is original for b in bindings)
    names = [s.name for s in tracer.spans]
    # Two computed steps of (2 blocks x 5 matmuls + readout), two reused steps of readout only.
    assert names.count("tensor.matmul") == 2 * (2 * 5 + 1) + 2
    assert names.count("model.dit_block_forward") == 2 * 2
    assert {s.sample for s in tracer.spans} == {7}
    block = next(i for i, s in enumerate(tracer.spans) if s.name == "model.dit_block_forward")
    children = [s.name for s in tracer.spans if s.parent == block]
    assert children == ["tensor.matmul"] * 5


def test_tracer_counter_sees_matmul_shapes():
    with Tracer() as tracer:
        tracer.install(tensor, "matmul", worker.count_matmul)
        tensor.matmul(np.ones((2, 3), np.float32), np.ones((3, 4), np.float32))
    assert tracer.counters["matmul.flop"] == 2 * 2 * 3 * 4
    assert tracer.counters["matmul.bytes"] == (6 + 12 + 8) * 4


# ----------------------------------------------------------------- checks


def bwcache_policy(r: int, tail: TailRule) -> CachePolicyConfig:
    return CachePolicyConfig(kind=PolicyKind.BWCACHE, delta=0.5, reuse_interval=r, tail=tail)


def test_reuse_run_longer_than_r_is_a_failure():
    policy = bwcache_policy(2, TailRule.fixed(0))
    assert checks.check_decisions(decisions_from("CCRRCCCCCC"), policy, 10) == []
    problems = checks.check_decisions(decisions_from("CCRRRCCCCC"), policy, 10)
    assert problems and "exceeds R=2" in problems[0]
    tally = worker.Tally()
    tally.record("corrupted", problems)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_reuse_inside_protected_tail_is_a_failure():
    # First reuse at step 7: a half tail protects ceil(8 / 2) = 4 steps, 3..0.
    policy = bwcache_policy(3, TailRule.half())
    assert checks.check_decisions(decisions_from("CCRRCRCCCC"), policy, 10) == []
    problems = checks.check_decisions(decisions_from("CCRRCCRCCC"), policy, 10)
    assert problems == ["steps [3] reused inside the protected tail (< 4)"]


def test_tail_size_matches_the_rule_text():
    policy = bwcache_policy(3, TailRule.twothirds())
    assert [checks.tail_size(policy, k) for k in (0, 1, 2, 5)] == [1, 2, 2, 4]
    assert checks.tail_size(bwcache_policy(3, TailRule.fixed(5)), 20) == 5


def test_baseline_policies_are_bounded():
    none = CachePolicyConfig(kind=PolicyKind.NONE)
    static = CachePolicyConfig(kind=PolicyKind.STATIC, static_stride=3)
    assert checks.check_decisions(decisions_from("CCCC"), none, 4) == []
    assert checks.check_decisions(decisions_from("CCRC"), none, 4) == ["none policy reused a step"]
    assert checks.check_decisions(decisions_from("CRRCRR"), static, 6) == []
    assert checks.check_decisions(decisions_from("CRRRCR"), static, 6)
    assert checks.check_decisions(decisions_from("RCCC"), none, 4)
    assert checks.check_decisions(decisions_from("CCC"), none, 4)


def test_live_run_passes_every_check(tmp_path):
    config = ModelConfig(steps=12, seed=5)
    policy = bwcache_policy(3, TailRule.third())
    x, trace = cache.run_policy(config, policy)
    again, _ = cache.run_policy(config, policy)
    assert any(d.action is Action.REUSED for d in trace.decisions)
    assert checks.check_latent(x, (config.tokens, config.hidden_dim)) == []
    assert checks.check_decisions(trace.decisions, policy, config.steps) == []
    assert checks.check_replay_roundtrip(trace.decisions, policy, config.n_blocks, tmp_path / "h.csv") == []
    assert checks.check_same_latent(x, again) == []


def test_replay_roundtrip_catches_a_changed_decision(tmp_path):
    config = ModelConfig(steps=12, seed=5)
    policy = bwcache_policy(3, TailRule.third())
    _, trace = cache.run_policy(config, policy)
    i = next(i for i, d in enumerate(trace.decisions) if d.action is Action.REUSED)
    tampered = list(trace.decisions)
    tampered[i] = StepDecision(tampered[i].step, Action.COMPUTED, (0.9,) * 8, 0.9, 7.2)
    problems = checks.check_replay_roundtrip(tampered, policy, config.n_blocks, tmp_path / "h.csv")
    assert problems and "differs" in problems[0]


def test_latent_checks_catch_shape_nan_and_changed_bits():
    x = np.zeros((4, 2), np.float32)
    assert checks.check_latent(x, (4, 2)) == []
    assert checks.check_latent(x, (2, 4))
    y = x.copy()
    y[1, 1] = np.nan
    assert checks.check_latent(y, (4, 2)) == ["latent has a non-finite value"]
    z = x.copy()
    z[0, 0] = np.float32(1e-30)
    assert checks.check_same_latent(x, z)
    assert checks.check_same_latent(x, x.astype(np.float64))


def test_summary_roundtrip(tmp_path):
    summary = RunSummary(0.25, 0.25, 300, 100, 0.0, None, None)
    path = tmp_path / "summary.json"
    write_summary(summary, "f" * 64, path)
    assert checks.check_summary_roundtrip(summary, "f" * 64, path) == []
    other = RunSummary(0.25, 0.25, 300, 101, 0.0, None, None)
    assert checks.check_summary_roundtrip(other, "f" * 64, path)
    assert checks.check_summary_roundtrip(summary, "e" * 64, path)


def test_tally_counts_exceptions_as_failures():
    tally = worker.Tally()
    assert tally.attempt("boom", lambda: 1 / 0) is None
    assert tally.attempt("fine", lambda: 3) == 3
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "ZeroDivisionError" in tally.problems[0]


# ----------------------------------------------------------------- definitions


class CountingWorkload:
    """Units that take a known time."""

    def items(self):
        return iter(range(1000))

    def unit(self, item):
        if item == 3:
            raise ValueError("unit 3 fails")
        t0 = worker.clock()
        while worker.clock() - t0 < 0.004:
            pass
        return {"dt": 0.004}

    def check(self, item, result):
        return result


def test_timed_window_gives_every_unit_a_yardstick_and_counts_failures():
    tally = worker.Tally()
    w = CountingWorkload()
    units = worker.timed_window(0.3, w.items(), w.unit, w.check, tally)
    walls = [u.wall for u in units]
    assert sum(walls[:-1]) < 0.3 <= sum(walls) + 0.01  # stops at the first unit past the budget
    assert 3 not in [u.item for u in units]
    assert (tally.attempted, tally.failed) == (1, 1)
    assert all(u.yardstick > 0 and u.wall >= 0.004 for u in units)
    # Units between two yardstick samples share the later one.
    assert len({u.yardstick for u in units}) < len(units)


def test_normalize_rescales_to_the_reference_speed():
    for kernel in (yardstick.MIXED, yardstick.FILE_IO):
        assert kernel.normalize(2.0, 2 * kernel.ref_s) == pytest.approx(1.0)
        assert kernel.once() > 0


def test_cli_arguments_follow_the_workload():
    toy = cli_argvs(WORKLOADS["toy_d64"], 1, [], 3)
    seeds = model_seeds("toy_d64", 1)
    next(seeds)
    assert [a[2] for a in toy] == [str(next(seeds)) for _ in range(3)]
    assert toy[0][:2] == ["generate", "--seed"] and "--dim" in toy[0]
    assert cli_argvs(WORKLOADS["replay_sweep"], 1, ["a.csv", "b.csv"], 3) == [
        ["replay", "--trace", "a.csv"],
        ["replay", "--trace", "b.csv"],
        ["replay", "--trace", "a.csv"],
    ]


def test_seeds_are_reproducible_and_distinct():
    a = model_seeds("toy_d64", 1)
    b = model_seeds("toy_d64", 1)
    first = [next(a) for _ in range(200)]
    assert first == [next(b) for _ in range(200)]
    assert len(set(first)) == 200
    assert next(model_seeds("toy_d64", 2)) != first[0]


def test_sweep_policies_are_valid():
    policies = [worker.to_policy(p) for p in sweep_policies()]
    assert len(policies) == len({p for p in policies})
    assert {p.kind for p in policies} == {PolicyKind.BWCACHE, PolicyKind.STATIC}


def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in doc["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in doc["per_layer"])
