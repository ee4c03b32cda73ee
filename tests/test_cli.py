"""End-to-end tests for the command line front end.

Everything goes through main(argv) in-process: real argument parsing, real
runs on a deliberately tiny model, real files on disk. Exit codes are part
of the contract (0 ok, 1 runtime failure, 2 bad configuration or trace).
"""

import argparse
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bwcache import cli, model, tensor
from bwcache.cache import CachePolicyConfig, PolicyKind, ZeroDenominatorError, run_policy
from bwcache.cli import _policy_from_args, build_parser, main
from bwcache.metrics import psnr, ssim_frames
from bwcache.model import ModelConfig, _build_weights, decode_latent
from bwcache.traceio import config_fingerprint, read_latent, write_latent
from test_traceio import MALFORMED

FIXTURES = Path(__file__).parent / "fixtures"

# Small enough that a full sampling run is a few milliseconds.
TINY = ["--dim", "16", "--heads", "2", "--frames", "2", "--tokens", "3"]
TINY_SHAPE = TINY + ["--steps", "7", "--blocks", "2"]


# Line breaks that str.splitlines() splits at but a heatmap line may not end in.
BREAKS = {
    "\r\n": "crlf",
    "\r": "cr",
    "\x0c": "form-feed",
    "\x1c": "file-separator",
    "\u2028": "line-separator",
}


# The argv that starts each kind of run. "compare" is the scored side of the
# none-vs-policy recipe: a generate run given the none run's latent dump.
RUNS = {
    "generate": ["generate", *TINY_SHAPE],
    "compare": ["generate", *TINY_SHAPE, "--reference-latent", "none/latent.bin"],
    "replay": ["replay", "--trace", str(FIXTURES / "replay_trace.csv")],
}


def run_generate(out, *extra):
    return main(["generate", *TINY_SHAPE, "--out", str(out), *extra])


def fill_with_longer_files(out: Path, exports: dict[str, bytes]) -> Path:
    """out, holding a file 4 KiB longer than each export, of the same name."""
    out.mkdir()
    for name, data in exports.items():
        (out / name).write_bytes(b"x" * (len(data) + 4096))
    return out


def refuse_to_sample(*args):
    raise AssertionError("sampled before the reference latent was checked")


def run_comparison(out, shape, *policy):
    """The none-vs-policy recipe: a `generate --policy none --dump-latent` run
    in out/none, then a run under `policy` scored against that latent in
    out/scored. Both runs take `shape`. Returns the two summaries."""
    none, scored = out / "none", out / "scored"
    assert main(["generate", *shape, "--policy", "none", "--dump-latent", "--out", str(none)]) == 0
    reference = str(none / "latent.bin")
    scored_run = [*policy, "--reference-latent", reference, "--out", str(scored)]
    assert main(["generate", *shape, *scored_run]) == 0
    return tuple(json.loads((d / "summary.json").read_text()) for d in (none, scored))


class TestGenerate:
    def test_writes_all_outputs_by_default(self, tmp_path):
        """One generate run leaves heatmap, reuse profile, and summary."""
        assert run_generate(tmp_path) == 0
        assert (tmp_path / "heatmap.csv").exists()
        assert (tmp_path / "reuse_profile.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert not (tmp_path / "latent.bin").exists()

    def test_dump_latent_is_readable(self, tmp_path):
        """--dump-latent writes a latent.bin that round-trips with its shape."""
        assert run_generate(tmp_path, "--dump-latent") == 0
        latent = read_latent(tmp_path / "latent.bin")
        assert latent.shape == (2 * 3, 16)  # frames * tokens rows, dim cols
        assert str(latent.dtype) == "float32"

    def test_dump_latent_is_the_run_latent_as_npy(self, tmp_path):
        """np.load returns the run's final float32 latent bit for bit."""
        assert run_generate(tmp_path, "--dump-latent") == 0
        config = ModelConfig(
            n_blocks=2, hidden_dim=16, n_heads=2, frames=2, tokens_per_frame=3, steps=7
        )  # TINY_SHAPE under the default policy
        final, _ = run_policy(config, CachePolicyConfig.recommended(7))
        back = np.load(tmp_path / "latent.bin", allow_pickle=False)
        assert back.dtype == np.float32 and back.tobytes() == final.tobytes()

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

    def test_float32_reference_is_scored_and_float64_is_refused(self, tmp_path, monkeypatch):
        """The same reference values score as float32; as float64 the run exits 2
        before sampling and writes nothing."""
        ref_dir = tmp_path / "ref"
        assert run_generate(ref_dir, "--policy", "none", "--dump-latent") == 0
        latent = read_latent(ref_dir / "latent.bin")
        write_latent(latent.astype(np.float64), tmp_path / "wide.bin")

        scored = tmp_path / "scored"
        reference = str(ref_dir / "latent.bin")
        assert run_generate(scored, "--policy", "none", "--reference-latent", reference) == 0
        summary = json.loads((scored / "summary.json").read_text())
        assert summary["psnr_db"] == "inf" and summary["ssim"] == 1.0

        monkeypatch.setattr(cli, "run_policy", refuse_to_sample)
        refused = tmp_path / "refused"
        assert run_generate(refused, "--reference-latent", str(tmp_path / "wide.bin")) == 2
        assert not refused.exists()

    @pytest.mark.parametrize(
        "shape", [(6, 8), (16, 6), (6, 16, 1)], ids=["narrow", "transposed", "3d"]
    )
    def test_wrong_shape_reference_is_refused_before_sampling(self, tmp_path, monkeypatch, shape):
        write_latent(np.ones(shape, dtype=np.float32), tmp_path / "ref.bin")
        monkeypatch.setattr(cli, "run_policy", refuse_to_sample)
        out = tmp_path / "out"
        assert run_generate(out, "--reference-latent", str(tmp_path / "ref.bin")) == 2
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_reference_is_refused_before_any_draw(
        self, tmp_path, monkeypatch, capsys, bad
    ):
        latent = np.zeros((6, 16), dtype=np.float32)  # the TINY run's latent layout
        latent[2, 5] = bad
        write_latent(latent, tmp_path / "ref.bin")
        monkeypatch.setattr(model, "rand_normal", refuse_to_sample)
        out = tmp_path / "out"
        assert run_generate(out, "--reference-latent", str(tmp_path / "ref.bin")) == 2
        assert "reference latent holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_reference_is_refused_before_any_draw(
        self, tmp_path, monkeypatch, capsys, name
    ):
        """A reference that is not a .npy 1.0 dump of plain data (an earlier
        BWLATENT dump too) exits 2 naming the dump, with nothing drawn."""
        (tmp_path / "ref.bin").write_bytes(MALFORMED[name])
        monkeypatch.setattr(model, "rand_normal", refuse_to_sample)
        out = tmp_path / "out"
        assert run_generate(out, "--reference-latent", str(tmp_path / "ref.bin")) == 2
        assert "error: latent dump" in capsys.readouterr().err
        assert not out.exists()

    def test_exports_over_longer_files_are_the_fresh_bytes(self, tmp_path):
        """Each export, the latent dump included, replaces a longer file of
        its name with exactly the bytes that it writes into a fresh directory."""
        argv = ["--deterministic", "--dump-latent"]
        assert run_generate(tmp_path / "fresh", *argv) == 0
        fresh = exported_bytes(tmp_path / "fresh")
        assert set(fresh) == {"heatmap.csv", "latent.bin", "reuse_profile.csv", "summary.json"}
        stale = fill_with_longer_files(tmp_path / "stale", fresh)
        assert run_generate(stale, *argv) == 0
        assert exported_bytes(stale) == fresh

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

    def test_negative_zero_delta_has_the_zero_delta_fingerprint(self, tmp_path):
        """--delta -0 and --delta 0 decide alike and record one fingerprint."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_generate(a, "--delta", "-0", "--deterministic") == 0
        assert run_generate(b, "--delta", "0", "--deterministic") == 0
        for name in ("heatmap.csv", "reuse_profile.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_reference_latent_is_runtime_error(self, tmp_path):
        rc = run_generate(tmp_path, "--reference-latent", str(tmp_path / "absent.bin"))
        assert rc == 1

    def test_out_dir_under_a_file_is_runtime_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        assert run_generate(blocker / "sub") == 1

    def test_zero_mass_reference_is_runtime_error(self, tmp_path, monkeypatch):
        """A zero-mass reference is a numeric fault: exit 1, like a non-finite op."""

        def zero_mass(*args):
            raise ZeroDenominatorError("reference features have zero L1 norm")

        monkeypatch.setattr(cli, "run_policy", zero_mass)
        assert run_generate(tmp_path / "out") == 1

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
    """Two generate runs score a policy against the uncached run."""

    def test_identical_policies_report_inf_psnr(self, tmp_path):
        """none scored against its own dump is bit-equal: psnr serializes as
        "inf", ssim is 1."""
        _, scored = run_comparison(tmp_path, TINY_SHAPE, "--policy", "none")
        assert scored["psnr_db"] == "inf"
        assert scored["ssim"] == 1.0

    def test_speedup_present_with_real_timings(self, tmp_path):
        """A speedup is the ratio of the two summaries' wall_seconds; with
        real timings both are positive, so it is defined."""
        none, scored = run_comparison(tmp_path, TINY_SHAPE, "--policy", "none")
        assert isinstance(none["wall_seconds"], float) and none["wall_seconds"] > 0.0
        assert isinstance(scored["wall_seconds"], float) and scored["wall_seconds"] > 0.0
        assert none["wall_seconds"] / scored["wall_seconds"] > 0.0

    def test_draws_block_weights_once(self, tmp_path):
        """Both runs share one model config, so the second reuses the first's build."""
        _build_weights.cache_clear()
        run_comparison(tmp_path, TINY_SHAPE, "--delta", "0.9")
        info = _build_weights.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_speedup_null_in_deterministic_mode(self, tmp_path):
        """Zeroed timings leave no wall-clock ratio: both wall_seconds are 0."""
        shape = [*TINY_SHAPE, "--deterministic"]
        none, scored = run_comparison(tmp_path, shape, "--policy", "none")
        assert none["wall_seconds"] == 0.0
        assert scored["wall_seconds"] == 0.0

    def test_cross_policy_fields(self, tmp_path):
        """A none-vs-bwcache comparison: each summary holds its own counters."""
        none, scored = run_comparison(tmp_path, TINY_SHAPE, "--delta", "0.9")
        assert none["reuse_rate_steps"] == 0.0
        assert scored["reuse_rate_steps"] > 0.0
        assert none["flops_saved"] == 0
        assert scored["flops_saved"] > 0
        assert none["config_fingerprint"] != scored["config_fingerprint"]
        assert none["psnr_db"] is None
        assert isinstance(scored["psnr_db"], float)

    def test_cross_quality_scores_b_against_a(self, tmp_path):
        """psnr_db and ssim equal the metrics of the scored run's decoded
        pixels against the none run's, computed here from two library runs."""
        shape = [*TINY_SHAPE, "--deterministic"]
        _, scored = run_comparison(tmp_path, shape, "--delta", "0.9")
        config = ModelConfig(
            n_blocks=2, hidden_dim=16, n_heads=2, frames=2, tokens_per_frame=3, steps=7
        )
        recommended = CachePolicyConfig.recommended(7)
        with tensor.deterministic():
            final_a, _ = run_policy(config, replace(recommended, kind=PolicyKind.NONE))
            final_b, _ = run_policy(config, replace(recommended, delta=0.9))
            px_a, px_b = decode_latent(final_a, config), decode_latent(final_b, config)
        assert scored["psnr_db"] == psnr(px_a, px_b)
        assert scored["ssim"] == ssim_frames(px_a, px_b)


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

    def test_exports_over_longer_files_are_the_fresh_bytes(self, tmp_path):
        """Each export replaces a longer file of its name with exactly the
        bytes that it writes into a fresh directory."""
        argv = ["replay", "--trace", str(FIXTURES / "replay_trace.csv"), "--delta", "0.3"]
        assert main([*argv, "--out", str(tmp_path / "fresh")]) == 0
        fresh = exported_bytes(tmp_path / "fresh")
        stale = fill_with_longer_files(tmp_path / "stale", fresh)
        assert main([*argv, "--out", str(stale)]) == 0
        assert exported_bytes(stale) == fresh

    def test_missing_trace_is_runtime_error(self, tmp_path):
        rc = main(["replay", "--trace", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize(
        "old, new, lineno",
        [
            (None, "step,block,l1_rel\n1,0,0.1\n1,0,0.2\n0,0,0.1\n", 3),
            ("6,0,", "+6,0,", 2),
            ("6,0,", "06,0,", 2),
            ("3,0,", "\n3,0,", 5),
            *[(None, sep.join(["step,block,l1_rel", "1,0,", "0,0,0.5", ""]), 1) for sep in BREAKS],
            (None, "step,block,l1_rel\n1,0,\r\n0,0,0.5\r\n", 2),
            (None, "step,block,l1_rel\n1,0,\x0c0,0,0.5\n", 2),
            (None, "step,block,l1_rel\n1,0,\n0,0,0.5", 3),
            (None, "step,block,l1_rel\n1,0,0.5\r\n0,0,0.5\r\n", 2),
            (None, "step,block,l1_rel\n1,0, 0.5\n0,0,0.5\n", 2),
            (None, "step,block,l1_rel\n1,0,0.5\n0,0,1_0\n", 3),
            (None, "step,block,l1_rel\n1,0,\u0665\n0,0,0.5\n", 2),
        ],
        ids=[
            "repeated-block", "plus-step", "zero-padded-step", "blank-line",
            *[f"{name}-lines" for name in BREAKS.values()],
            "crlf-after-header", "form-feed-after-header", "no-final-newline",
            "crlf-measured-lines", "space-in-cell", "underscore-in-cell", "non-ascii-cell",
        ],
    )
    def test_malformed_trace_is_config_error_naming_line(self, tmp_path, capsys, old, new, lineno):
        """A repeated block, the committed fixture with one step respelled or a
        blank line inserted, a two-step table whose lines end in another
        break than a lone \\n or whose last line has none, and one with a cell
        that float() reads but write_heatmap never writes, exit 2 naming the
        line and write nothing."""
        text = (FIXTURES / "replay_trace.csv").read_text()
        bad = tmp_path / "bad.csv"
        bad.write_text(new if old is None else text.replace(old, new, 1))
        out = tmp_path / "out"
        assert main(["replay", "--trace", str(bad), "--out", str(out)]) == 2
        assert f"line {lineno}: " in capsys.readouterr().err
        assert not out.exists()

    def test_negative_distance_is_config_error(self, tmp_path, capsys):
        table = tmp_path / "negative.csv"
        table.write_text("step,block,l1_rel\n2,0,\n2,1,\n1,0,-0.5\n1,1,0.1\n0,0,0.1\n0,1,0.1\n")
        out = tmp_path / "out"
        argv = ["--delta", "0.15", "--reuse-interval", "2", "--tail", "fixed:0"]
        assert main(["replay", "--trace", str(table), *argv, "--out", str(out)]) == 2
        assert "line 4: negative distance" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["generate", "compare", "replay"])
    def test_every_subcommand_refuses_emit(self, command):
        """Every run writes all of its exports; there is no selector flag."""
        assert main([*RUNS[command], "--emit", "heatmap"]) == 2

    @pytest.mark.parametrize("steps", [7, 30])
    def test_compare_side_a_is_the_default_none_policy(self, tmp_path, steps):
        """The recipe's none run keeps the default policy fields under kind
        none, so its fingerprint is that of the plain uncached run."""
        shape = [*TINY, "--steps", str(steps), "--blocks", "2", "--deterministic"]
        none, _ = run_comparison(tmp_path, shape)
        config = ModelConfig(
            n_blocks=2, hidden_dim=16, n_heads=2, frames=2, tokens_per_frame=3, steps=steps
        )
        default_none = replace(CachePolicyConfig.recommended(steps), kind=PolicyKind.NONE)
        assert none["config_fingerprint"] == config_fingerprint(config, default_none)

    @pytest.mark.parametrize(
        "flag, value",
        [
            (f"--{name}-{side}", value)
            for side in "ab"
            for name, value in [
                ("policy", "none"),
                ("delta", "0.3"),
                ("reuse-interval", "2"),
                ("tail", "third"),
                ("static-stride", "2"),
            ]
        ],
    )
    def test_compare_refuses_per_side_policy_flags(self, tmp_path, flag, value):
        """The recipe's side a is a plain --policy none run and side b reads
        generate's policy flags, so there is no per-side flag to take."""
        out = tmp_path / "out"
        assert main([*RUNS["compare"], flag, value, "--out", str(out)]) == 2
        assert not out.exists()

    def test_compare_is_not_a_subcommand(self, tmp_path, capsys):
        """Two generate runs score a policy against none; there is no compare,
        so it exits 2 at parse time and creates no output directory."""
        out = tmp_path / "out"
        assert main(["compare", *TINY_SHAPE, "--out", str(out)]) == 2
        assert "invalid choice: 'compare'" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_refuses_deterministic(self, tmp_path):
        """Replay runs no matmul and always reports zero timings."""
        trace = str(FIXTURES / "replay_trace.csv")
        assert main(["replay", "--trace", trace, "--deterministic", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            [*RUNS["generate"], "--tail", "fixed:99"],
            [*RUNS["compare"], "--tail", "fixed:99"],
            [*RUNS["replay"], "--heads", "3"],
        ],
        ids=["generate", "compare", "replay"],
    )
    def test_refused_run_leaves_no_output_directory(self, tmp_path, argv):
        """Inputs refused after parsing (a tail covering the run, in a plain or
        a scored run, heads that do not divide the width) exit 2 before the
        output directory exists."""
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "compare"])
    def test_whole_run_tail_is_refused_before_any_draw(
        self, tmp_path, monkeypatch, capsys, command
    ):
        """A fixed tail covering the run exits 2 before the latent or the
        weights are drawn, and before a scored run reads its reference."""

        def refuse_to_draw(*args):
            raise AssertionError("drew before the tail was checked")

        monkeypatch.setattr(model, "rand_normal", refuse_to_draw)
        monkeypatch.setattr(cli, "read_latent", refuse_to_draw)
        out = tmp_path / "out"
        assert main([*RUNS[command], "--tail", "fixed:7", "--out", str(out)]) == 2
        assert "fixed tail of 7 covers the whole run of 7 steps" in capsys.readouterr().err
        assert not out.exists()


# One alternate value per declared option. The base run is the tiny model
# with --deterministic (replay: the committed fixture), so only the option
# under test can change an exported byte. A flag's alternate is None.
ALTERNATES = {
    "generate": {
        "--steps": "6",
        "--blocks": "3",
        "--dim": "8",
        "--heads": "4",
        "--frames": "3",
        "--tokens": "4",
        "--seed": "1",
        "--policy": "none",
        "--delta": "0.9",
        "--reuse-interval": "2",
        "--tail": "third",
        "--static-stride": "2",
        "--deterministic": None,
        "--dump-latent": None,
        "--reference-latent": "ref/latent.bin",  # the base run's none dump, written by the test
    },
    "replay": {
        "--dim": "32",
        "--heads": "2",
        "--frames": "2",
        "--tokens": "8",
        "--seed": "1",
        "--policy": "static",
        "--delta": "0.3",
        "--reuse-interval": "2",
        "--tail": "third",
        "--static-stride": "2",
    },
}
# The comparison recipe passes each generate option to both of its runs; it
# sets --dump-latent and --reference-latent itself.
ALTERNATES["compare"] = {
    k: v
    for k, v in ALTERNATES["generate"].items()
    if k not in ("--dump-latent", "--reference-latent")
}
# Covered by their own tests: the output directory and the replay input.
EXEMPT = {"-h", "--out", "--trace"}


def declared_options() -> dict[str, set[str]]:
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        command: {a.option_strings[0] for a in p._actions if a.option_strings}
        for command, p in subparsers.choices.items()
    }


def exported_bytes(out: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


class TestEveryFlagIsRead:
    def test_alternates_cover_exactly_the_declared_options(self):
        declared = {command: opts - EXEMPT for command, opts in declared_options().items()}
        assert set(declared) == {"generate", "replay"}
        assert declared == {command: set(ALTERNATES[command]) for command in declared}

    @pytest.mark.parametrize(
        "command, option",
        [(command, option) for command, alts in ALTERNATES.items() for option in alts],
    )
    def test_alternate_value_changes_an_export(self, tmp_path, monkeypatch, command, option):
        monkeypatch.chdir(tmp_path)
        if option == "--reference-latent":
            none_dump = ["--policy", "none", "--deterministic", "--dump-latent", "--out", "ref"]
            assert main(["generate", *TINY_SHAPE, *none_dump]) == 0
        if command == "replay":
            base = ["replay", "--trace", str(FIXTURES / "replay_trace.csv")]
        else:
            base = ["generate", *TINY_SHAPE]
            if option != "--deterministic":
                base.append("--deterministic")
        value = ALTERNATES[command][option]
        alternate = [*base, option] + ([] if value is None else [value])
        for name, argv in (("default", base), ("alternate", alternate)):
            if command == "compare":
                run_comparison(tmp_path / name, argv[1:])
            else:
                assert main([*argv, "--out", str(tmp_path / name)]) == 0
        scored = "scored" if command == "compare" else ""
        exports = [exported_bytes(tmp_path / name / scored) for name in ("default", "alternate")]
        assert exports[0] != exports[1]
