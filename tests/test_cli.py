"""End-to-end tests for the command line front end.

Everything goes through main(argv) in-process: real argument parsing, real
runs on a deliberately tiny model, real files on disk. Exit codes are part
of the contract (0 ok, 1 runtime failure, 2 bad configuration or trace).
"""

import json
from pathlib import Path

import pytest

from bwcache import tensor
from bwcache.cli import _policy_from_args, build_parser, main
from bwcache.model import _build_weights
from bwcache.traceio import read_latent

FIXTURES = Path(__file__).parent / "fixtures"

# Small enough that a full sampling run is a few milliseconds.
TINY = ["--dim", "16", "--heads", "2", "--frames", "2", "--tokens", "3"]
TINY_SHAPE = TINY + ["--steps", "7", "--blocks", "2"]


def run_generate(out, *extra):
    return main(["generate", *TINY_SHAPE, "--out", str(out), *extra])


class TestGenerate:
    def test_writes_all_outputs_by_default(self, tmp_path):
        """One generate run leaves heatmap, reuse profile, and summary."""
        assert run_generate(tmp_path) == 0
        assert (tmp_path / "heatmap.csv").exists()
        assert (tmp_path / "reuse_profile.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert not (tmp_path / "latent.bin").exists()

    def test_emit_selects_outputs(self, tmp_path):
        """--emit heatmap writes the heatmap and nothing else."""
        assert run_generate(tmp_path, "--emit", "heatmap") == 0
        assert (tmp_path / "heatmap.csv").exists()
        assert not (tmp_path / "reuse_profile.csv").exists()
        assert not (tmp_path / "summary.json").exists()

    def test_dump_latent_is_readable(self, tmp_path):
        """--dump-latent writes a latent.bin that round-trips with its shape."""
        assert run_generate(tmp_path, "--dump-latent") == 0
        latent = read_latent(tmp_path / "latent.bin")
        assert latent.shape == (2 * 3, 16)  # frames * tokens rows, dim cols
        assert str(latent.dtype) == "float32"

    def test_prints_policy_and_reuse_count(self, tmp_path, capsys):
        """The one-line report names the policy and the reused-step count."""
        assert run_generate(tmp_path, "--policy", "none") == 0
        out = capsys.readouterr().out
        assert "policy=none" in out
        assert "reused=0/7" in out

    def test_reference_latent_scores_quality(self, tmp_path):
        """Scoring against a reference latent fills psnr_db and ssim."""
        ref_dir = tmp_path / "ref"
        assert run_generate(ref_dir, "--policy", "none", "--dump-latent") == 0
        out_dir = tmp_path / "cached"
        rc = run_generate(
            out_dir,
            "--policy", "bwcache",
            "--delta", "0.9",
            "--reference-latent", str(ref_dir / "latent.bin"),
        )
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert isinstance(summary["psnr_db"], float)
        assert isinstance(summary["ssim"], float)
        assert summary["reuse_rate_steps"] > 0.0

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("BWCACHE_OUT_DIR", str(env_dir))
        assert main(["generate", *TINY_SHAPE]) == 0
        assert (env_dir / "summary.json").exists()

    def test_out_flag_overrides_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BWCACHE_OUT_DIR", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        assert run_generate(chosen) == 0
        assert (chosen / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_deterministic_zeroes_wall_seconds(self, tmp_path):
        """--deterministic reports zero timings and leaves default mode on return."""
        assert run_generate(tmp_path, "--deterministic") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["wall_seconds"] == 0.0
        assert not tensor.is_deterministic()

    @pytest.mark.parametrize(
        "extra, code",
        [(["--delta", "nan"], 2), (["--reference-latent", "missing.bin"], 1)],
        ids=["bad-config", "missing-reference"],
    )
    def test_deterministic_failure_leaves_default_mode(self, tmp_path, monkeypatch, extra, code):
        """A --deterministic run that fails still leaves default mode on return."""
        monkeypatch.chdir(tmp_path)
        assert run_generate(tmp_path, "--deterministic", *extra) == code
        assert not tensor.is_deterministic()

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        """Identical flags with --deterministic reproduce every file exactly."""
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_generate(out, "--deterministic", "--dump-latent") == 0
        for name in ("heatmap.csv", "reuse_profile.csv", "summary.json", "latent.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_delta_matches_none_policy_bytes(self, tmp_path):
        """delta=0 never fires, so its outputs match the none policy exactly."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_generate(a, "--policy", "bwcache", "--delta", "0", "--dump-latent") == 0
        assert run_generate(b, "--policy", "none", "--dump-latent") == 0
        for name in ("heatmap.csv", "reuse_profile.csv", "latent.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_reference_latent_is_runtime_error(self, tmp_path):
        rc = run_generate(tmp_path, "--reference-latent", str(tmp_path / "absent.bin"))
        assert rc == 1

    def test_out_dir_under_a_file_is_runtime_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        assert run_generate(blocker / "sub") == 1

    def test_unknown_emit_target_is_config_error(self, tmp_path):
        assert run_generate(tmp_path, "--emit", "pictures") == 2

    def test_malformed_tail_rule_is_config_error(self, tmp_path):
        assert run_generate(tmp_path, "--tail", "fixed:lots") == 2

    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
    def test_non_finite_delta_is_config_error(self, tmp_path, delta):
        assert run_generate(tmp_path, "--delta", delta) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_is_config_error(self, tmp_path, seed):
        assert run_generate(tmp_path, "--seed", seed) == 2

    def test_unknown_flag_exits_two(self):
        assert main(["generate", "--no-such-flag"]) == 2


class TestCompare:
    def test_identical_policies_report_inf_psnr(self, tmp_path, capsys):
        """none vs none is bit-equal: psnr serializes as "inf", ssim is 1."""
        rc = main([
            "compare", *TINY_SHAPE, "--policy-b", "none", "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["psnr_db"] == "inf"
        assert doc["ssim"] == 1.0
        assert "psnr_db=inf" in capsys.readouterr().out

    def test_speedup_present_with_real_timings(self, tmp_path):
        rc = main([
            "compare", *TINY_SHAPE, "--policy-b", "none", "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert isinstance(doc["speedup"], float)
        assert doc["speedup"] > 0.0

    def test_draws_block_weights_once(self, tmp_path):
        """Both sides share one config, so the second run reuses the first's build."""
        _build_weights.cache_clear()
        rc = main(["compare", *TINY_SHAPE, "--delta-b", "0.9", "--out", str(tmp_path)])
        assert rc == 0
        info = _build_weights.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_speedup_null_in_deterministic_mode(self, tmp_path):
        """Zeroed timings make a wall-clock ratio meaningless, so it is null."""
        rc = main([
            "compare", *TINY_SHAPE, "--policy-b", "none",
            "--out", str(tmp_path), "--deterministic",
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["speedup"] is None

    def test_cross_policy_fields(self, tmp_path):
        """A none-vs-bwcache comparison carries both sides' counters."""
        rc = main([
            "compare", *TINY_SHAPE, "--delta-b", "0.9", "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["a"]["reuse_rate_steps"] == 0.0
        assert doc["b"]["reuse_rate_steps"] > 0.0
        assert doc["a"]["flops_saved"] == 0
        assert doc["b"]["flops_saved"] > 0
        assert doc["a"]["config_fingerprint"] != doc["b"]["config_fingerprint"]
        assert isinstance(doc["psnr_db"], float)


class TestReplay:
    def test_committed_fixture_reproduces_goldens(self, tmp_path, capsys):
        """Replaying the committed trace reproduces the hand-derived exports."""
        rc = main([
            "replay", "--trace", str(FIXTURES / "replay_trace.csv"),
            "--delta", "0.15", "--reuse-interval", "10", "--tail", "fixed:1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "reused=3/7" in capsys.readouterr().out
        expect_heat = (FIXTURES / "replay_expected_heatmap.csv").read_bytes()
        expect_reuse = (FIXTURES / "replay_expected_reuse.csv").read_bytes()
        assert (tmp_path / "heatmap.csv").read_bytes() == expect_heat
        assert (tmp_path / "reuse_profile.csv").read_bytes() == expect_reuse

    def test_replay_summary_has_null_quality(self, tmp_path):
        """Offline replay has no pixels to score and no wall time to report."""
        rc = main([
            "replay", "--trace", str(FIXTURES / "replay_trace.csv"),
            "--reuse-interval", "10", "--tail", "fixed:1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["psnr_db"] is None
        assert summary["ssim"] is None
        assert summary["wall_seconds"] == 0.0

    def test_missing_trace_is_runtime_error(self, tmp_path):
        rc = main(["replay", "--trace", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert rc == 1

    def test_malformed_trace_is_config_error_naming_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,block,l1_rel\n1,0,0.1\n1,0,0.2\n0,0,0.1\n")
        rc = main(["replay", "--trace", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self):
        assert main([]) == 2


class TestDefaults:
    def test_reuse_interval_defaults_to_tenth_of_steps(self):
        """Without --reuse-interval the cap is ceil(steps / 10)."""
        parser = build_parser()
        for steps, expected in [(30, 3), (42, 5), (101, 11)]:
            args = parser.parse_args(["generate", "--steps", str(steps)])
            policy = _policy_from_args(args, total_steps=steps)
            assert policy.reuse_interval == expected

    def test_generate_policy_defaults(self):
        args = build_parser().parse_args(["generate"])
        policy = _policy_from_args(args, total_steps=30)
        assert policy.kind.value == "bwcache"
        assert policy.delta == 0.15
        assert policy.tail.canonical() == "half"

    def test_compare_side_a_defaults_to_none(self):
        args = build_parser().parse_args(["compare"])
        policy_a = _policy_from_args(args, "a", total_steps=30)
        policy_b = _policy_from_args(args, "b", total_steps=30)
        assert policy_a.kind.value == "none"
        assert policy_b.kind.value == "bwcache"
