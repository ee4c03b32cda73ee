"""The benchmark's tracer still reaches every function it names.

``perfbench/worker.py`` lists in ``TRACED`` the functions a ``--trace 1``
run wraps, and the tracer looks each one up with an unguarded ``getattr``.
Renaming or deleting one of them, or calling it by a name the tracer cannot
rebind, would only show in a traced benchmark run. This test installs the
same tracer over the same list and drives every traced layer once: a tiny
``none`` run and a cached run from cold model builds, a replay of the
``none`` heatmap, summaries and the three exports read back.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from bwcache import cache, metrics, traceio  # noqa: E402
from bwcache.cache import Action, CachePolicyConfig, PolicyKind, TailRule  # noqa: E402
from bwcache.model import ModelConfig, _build_weights  # noqa: E402

import worker  # noqa: E402
from spans import Tracer, aggregate  # noqa: E402

TINY = ModelConfig(n_blocks=2, hidden_dim=8, n_heads=2, frames=2, tokens_per_frame=2, steps=6, seed=3)


def test_every_traced_name_resolves_and_records_calls(tmp_path):
    traced = [(mod, attr) for mod, attrs in worker.TRACED.items() for attr in attrs]
    assert [f"{m.__name__}.{a}" for m, a in traced if not callable(getattr(m, a, None))] == []

    none = CachePolicyConfig(kind=PolicyKind.NONE)
    cached = CachePolicyConfig(kind=PolicyKind.BWCACHE, delta=1e9, reuse_interval=2, tail=TailRule.fixed(1))
    _build_weights.cache_clear()
    with Tracer() as tracer:
        for mod, attr in traced:
            tracer.install(mod, attr, worker.COUNTERS.get((mod, attr)))
        reference, trace_none = cache.run_policy(TINY, none)
        _, trace_cached = cache.run_policy(TINY, cached)
        traceio.write_heatmap(trace_none.decisions, TINY.n_blocks, tmp_path / "heatmap.npy")
        decisions = cache.replay_trace(traceio.read_heatmap(tmp_path / "heatmap.npy"), cached)
        summary = metrics.summarize(trace_cached, reference, TINY)
        traceio.write_reuse_profile(decisions, tmp_path / "reuse_profile.csv")
        traceio.write_summary(summary, traceio.config_fingerprint(TINY, cached), tmp_path / "summary.json")
        traceio.read_summary(tmp_path / "summary.json")

    calls = {name: row["calls"] for name, row in aggregate(tracer.spans).items()}
    spans = [f"{m.__name__.rsplit('.', 1)[-1]}.{a}" for m, a in traced]  # "tensor.matmul"
    assert [n for n in spans if n not in calls] == []
    live = (trace_none, trace_cached)
    assert any(d.action is Action.REUSED for d in trace_cached.decisions)
    assert calls["cache.decide"] == 3 * TINY.steps  # two live runs and one replay
    # One draw for the block weights, shared by both live runs; one readout
    # per live run; two decodes in summarize (the reference and the final
    # latent); and one initial latent per live run.
    assert calls["tensor.rand_normal"] == 1 + 2 + 2 + 2
    assert calls["cache.relative_l1"] == sum(
        len(d.per_block_l1) for t in live for d in t.decisions if d.per_block_l1 is not None
    )
    assert calls["model.dit_block_forward"] == TINY.n_blocks * sum(
        d.action is Action.COMPUTED for t in live for d in t.decisions
    )
    assert calls["traceio.config_fingerprint"] == 3
