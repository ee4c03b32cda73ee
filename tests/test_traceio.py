"""Export format tests: byte-stable writes, validating reads, exact errors."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from bwcache.cache import (
    Action,
    CachePolicyConfig,
    PolicyKind,
    StepDecision,
    TailRule,
    replay_trace,
    run_policy,
)
from bwcache.metrics import RunSummary, summarize
from bwcache.model import ModelConfig, sample_initial_latent
from bwcache.traceio import (
    RunTrace,
    TraceFormatError,
    config_fingerprint,
    read_heatmap,
    read_latent,
    read_summary,
    write_heatmap,
    write_latent,
    write_reuse_profile,
    write_summary,
)


def make_decisions():
    """Three steps, two blocks: computed, reused, computed."""
    return [
        StepDecision(2, Action.COMPUTED, None, None, None),
        StepDecision(1, Action.REUSED, None, None, None),
        StepDecision(0, Action.COMPUTED, (0.125, 0.25), 0.1875, 0.375),
    ]


def make_summary(**overrides):
    base = dict(
        reuse_rate_blocks=0.25,
        reuse_rate_steps=0.25,
        total_flops=1000,
        flops_saved=200,
        wall_seconds=0.5,
        psnr_db=42.0,
        ssim=0.99,
    )
    base.update(overrides)
    return RunSummary(**base)


class TestHeatmap:
    def test_write_produces_expected_bytes(self, tmp_path):
        path = tmp_path / "h.csv"
        write_heatmap(make_decisions(), 2, path)
        want = (
            "step,block,l1_rel\n"
            "2,0,\n2,1,\n"
            "1,0,\n1,1,\n"
            "0,0,0.125\n0,1,0.25\n"
        )
        assert path.read_text() == want

    def test_round_trip_preserves_values_and_gaps(self, tmp_path):
        path = tmp_path / "h.csv"
        write_heatmap(make_decisions(), 2, path)
        rows = read_heatmap(path)
        assert rows == [[None, None], [None, None], [0.125, 0.25]]

    def test_reexport_is_byte_identical(self, tmp_path):
        """format -> parse -> format is the identity on nine-digit floats."""
        decisions = [
            StepDecision(1, Action.COMPUTED, None, None, None),
            StepDecision(0, Action.COMPUTED, (1 / 3, 0.1, 2.5e-7), 0.0, 0.0),
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_heatmap(decisions, 3, a)
        rows = read_heatmap(a)
        reparsed = [
            StepDecision(1, Action.COMPUTED, None, None, None),
            StepDecision(0, Action.COMPUTED, tuple(rows[1]), 0.0, 0.0),
        ]
        write_heatmap(reparsed, 3, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_required(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("foo,bar,baz\n0,0,0.1\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            read_heatmap(path)

    def test_bad_field_count_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n1,0,0.1,9\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            read_heatmap(path)

    def test_wrong_block_order_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n1,0,0.1\n1,2,0.1\n0,0,0.1\n0,1,0.1\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            read_heatmap(path)

    def test_non_contiguous_steps_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n3,0,0.1\n1,0,0.1\n")
        with pytest.raises(TraceFormatError, match="expected step 2"):
            read_heatmap(path)

    def test_nan_distance_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n1,0,nan\n0,0,0.1\n")
        with pytest.raises(TraceFormatError, match="non-finite"):
            read_heatmap(path)

    def test_truncated_group_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n1,0,0.1\n1,1,0.1\n0,0,0.1\n")
        with pytest.raises(TraceFormatError, match="truncated"):
            read_heatmap(path)

    def test_trace_not_ending_at_zero_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("step,block,l1_rel\n3,0,0.1\n2,0,0.1\n")
        with pytest.raises(TraceFormatError, match="end at step 0"):
            read_heatmap(path)


class TestReuseProfile:
    def test_exact_bytes_with_footer(self, tmp_path):
        path = tmp_path / "r.csv"
        write_reuse_profile(make_decisions(), path)
        want = "step,reused\n2,0\n1,1\n0,0\n#reuse_rate_steps=0.333333333\n"
        assert path.read_text() == want


class TestSummary:
    def test_round_trip_preserves_everything(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary(make_summary(), "f" * 64, path)
        summary, fingerprint = read_summary(path)
        assert summary == make_summary()
        assert fingerprint == "f" * 64

    def test_infinite_psnr_uses_sentinel_string(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary(make_summary(psnr_db=math.inf), "0" * 64, path)
        doc = json.loads(path.read_text())
        assert doc["psnr_db"] == "inf"
        summary, _ = read_summary(path)
        assert summary.psnr_db == math.inf

    def test_absent_metrics_serialize_as_null(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary(make_summary(psnr_db=None, ssim=None), "0" * 64, path)
        doc = json.loads(path.read_text())
        assert doc["psnr_db"] is None and doc["ssim"] is None

    def test_key_set_is_exact(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary(make_summary(), "0" * 64, path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == [
            "config_fingerprint",
            "flops_saved",
            "psnr_db",
            "reuse_rate_blocks",
            "reuse_rate_steps",
            "ssim",
            "total_flops",
            "wall_seconds",
        ]

    def test_out_of_range_rate_refused_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="reuse_rate"):
            write_summary(make_summary(reuse_rate_steps=1.5), "0" * 64, tmp_path / "s.json")

    def test_extra_keys_refused_on_read(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary(make_summary(), "0" * 64, path)
        doc = json.loads(path.read_text())
        doc["bonus"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(TraceFormatError, match="exactly the keys"):
            read_summary(path)


class TestLatent:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "l.bin"
        x = np.random.default_rng(0).standard_normal((6, 4)).astype(np.float32)
        write_latent(x, path)
        back = read_latent(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, x)

    def test_float64_supported(self, tmp_path):
        path = tmp_path / "l.bin"
        x = np.random.default_rng(1).standard_normal((3, 2))
        write_latent(x, path)
        assert np.array_equal(read_latent(path), x)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "l.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="magic"):
            read_latent(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "l.bin"
        x = np.zeros((4, 4), dtype=np.float32)
        write_latent(x, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(TraceFormatError, match="payload"):
            read_latent(path)

    def test_unsupported_dtype_refused_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            write_latent(np.zeros(3, dtype=np.int32), tmp_path / "l.bin")


class TestRunTrace:
    def test_validates_step_ordering_and_lengths(self):
        good = make_decisions()
        RunTrace(decisions=good, timings=[0.0] * 3, config_fingerprint="x")
        with pytest.raises(ValueError, match="timing"):
            RunTrace(decisions=good, timings=[0.0], config_fingerprint="x")
        bad = [good[0], good[2], good[1]]
        with pytest.raises(ValueError, match="execution order"):
            RunTrace(decisions=bad, timings=[0.0] * 3, config_fingerprint="x")


# One non-default value per config field; every one must move the fingerprint.
FINGERPRINT_ALTERNATES = {
    (ModelConfig, "n_blocks"): 4,
    (ModelConfig, "hidden_dim"): 32,
    (ModelConfig, "n_heads"): 2,
    (ModelConfig, "frames"): 2,
    (ModelConfig, "tokens_per_frame"): 8,
    (ModelConfig, "steps"): 20,
    (ModelConfig, "seed"): 1,
    (CachePolicyConfig, "kind"): PolicyKind.STATIC,
    (CachePolicyConfig, "delta"): 0.2,
    (CachePolicyConfig, "reuse_interval"): 4,
    (CachePolicyConfig, "tail"): TailRule.third(),
    (CachePolicyConfig, "static_stride"): 2,
}
CONFIG_FIELDS = [
    (cls, f.name) for cls in (ModelConfig, CachePolicyConfig) for f in dataclasses.fields(cls)
]


class TestFingerprint:
    @pytest.mark.parametrize(
        "cls, name", CONFIG_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in CONFIG_FIELDS]
    )
    def test_stable_and_sensitive(self, cls, name):
        """Equal configs hash equal; changing any one field changes the hash."""
        assert set(FINGERPRINT_ALTERNATES) == set(CONFIG_FIELDS)
        config, policy = ModelConfig(), CachePolicyConfig()
        a = config_fingerprint(config, policy)
        assert a == config_fingerprint(ModelConfig(), CachePolicyConfig())
        assert len(a) == 64
        value = FINGERPRINT_ALTERNATES[cls, name]
        if cls is ModelConfig:
            config = dataclasses.replace(config, **{name: value})
        else:
            policy = dataclasses.replace(policy, **{name: value})
        assert a != config_fingerprint(config, policy)

    def test_default_hash_is_over_the_version_1_document(self):
        """Without an initial latent the document, and so every default
        fingerprint already written to a summary, is unchanged."""
        config = ModelConfig(seed=12, steps=40)
        policy = CachePolicyConfig(delta=0.1, reuse_interval=4)
        doc = {
            "model": {
                "n_blocks": 8,
                "hidden_dim": 64,
                "n_heads": 4,
                "frames": 4,
                "tokens_per_frame": 16,
                "steps": 40,
                "seed": 12,
            },
            "policy": {
                "kind": "bwcache",
                "delta": 0.1,
                "reuse_interval": 4,
                "tail": "half",
                "static_stride": 3,
            },
            "version": 1,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
        want = hashlib.sha256(blob).hexdigest()
        assert config_fingerprint(config, policy) == want
        assert config_fingerprint(config, policy, None) == want

    def test_initial_latent_changes_the_fingerprint(self):
        """Two starting latents give two trajectories and two fingerprints;
        the digest covers the latent's dtype and shape as well as its bytes."""
        config = ModelConfig(
            n_blocks=2, hidden_dim=8, n_heads=2, frames=2, tokens_per_frame=2, steps=4, seed=3
        )
        policy = CachePolicyConfig(kind=PolicyKind.NONE)
        seeded = sample_initial_latent(config)
        ones = np.ones_like(seeded)
        default = config_fingerprint(config, policy)
        f_seeded = config_fingerprint(config, policy, seeded)
        f_ones = config_fingerprint(config, policy, ones)
        assert len({default, f_seeded, f_ones}) == 3
        assert config_fingerprint(config, policy, seeded.copy()) == f_seeded
        assert config_fingerprint(config, policy, seeded.astype(np.float64)) != f_seeded
        assert config_fingerprint(config, policy, seeded.reshape(2, -1)) != f_seeded

        x_seeded, t_seeded = run_policy(config, policy, initial_latent=seeded)
        x_ones, t_ones = run_policy(config, policy, initial_latent=ones)
        _, t_default = run_policy(config, policy)
        assert not np.array_equal(x_seeded, x_ones)
        assert (t_seeded.config_fingerprint, t_ones.config_fingerprint) == (f_seeded, f_ones)
        assert t_default.config_fingerprint == default


class TestEndToEndExports:
    def test_generated_heatmap_is_replayable(self, tmp_path):
        """A none-policy heatmap read back drives replay to the same schedule
        the live policy produced, pre-divergence; and a fully-computed replay
        of it round-trips byte for byte."""
        config = ModelConfig(
            n_blocks=4, hidden_dim=16, n_heads=2, frames=2, tokens_per_frame=4, steps=10, seed=3
        )
        _, trace = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        path = tmp_path / "heatmap.csv"
        write_heatmap(trace.decisions, config.n_blocks, path)
        rows = read_heatmap(path)
        assert len(rows) == config.steps
        decisions = replay_trace(rows, CachePolicyConfig(kind=PolicyKind.NONE))
        repath = tmp_path / "heatmap2.csv"
        write_heatmap(decisions, config.n_blocks, repath)
        assert repath.read_bytes() == path.read_bytes()

    def test_summary_of_real_run_round_trips(self, tmp_path):
        config = ModelConfig(
            n_blocks=2, hidden_dim=8, n_heads=2, frames=2, tokens_per_frame=2, steps=6, seed=1
        )
        final, trace = run_policy(config, CachePolicyConfig(kind=PolicyKind.NONE))
        summary = summarize(trace, final, config)
        path = tmp_path / "summary.json"
        write_summary(summary, trace.config_fingerprint, path)
        back, fp = read_summary(path)
        assert fp == trace.config_fingerprint
        assert back.psnr_db == math.inf  # identical output vs itself
        assert back.total_flops == summary.total_flops
