"""End-to-end tests for the command line front end.

Everything goes through main(argv) in-process: real argument parsing, real
runs on a deliberately tiny model, real files on disk. Exit codes are part
of the contract (0 ok, 1 runtime failure, 2 bad configuration or trace).
"""

import argparse
import ast
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bwcache import cli, model, traceio
from bwcache.cache import CachePolicyConfig, PolicyKind, TailRule, ZeroDenominatorError, run_policy
from bwcache.cli import _model_from_args, _policy_from_args, build_parser, main
from bwcache.metrics import psnr, ssim_frames
from bwcache.model import ModelConfig, _build_weights, decode_latent
from bwcache.traceio import (
    Action,
    StepDecision,
    config_fingerprint,
    read_heatmap,
    read_latent,
    write_heatmap,
    write_latent,
)
from test_cache import tail_strategy
from test_traceio import MALFORMED, UNREAD_VALUES, npy_header

FIXTURES = Path(__file__).parent / "fixtures"

# The smallest model that generate's flags set, under ModelConfig's 30 steps,
# 8 blocks and 4 heads: a full sampling run is a few tens of milliseconds.
TINY = ["--dim", "16", "--frames", "2", "--tokens", "3"]
TINY_CONFIG = ModelConfig(hidden_dim=16, frames=2, tokens_per_frame=3)


# A [3, 2] table that replay accepts, and each way to break it as a file.
HEATMAP = np.array([[np.nan, np.nan], [0.5, 0.25], [0.125, 0.0]])


def malformed_heatmaps() -> dict[str, bytes]:
    """Files a heatmap reader must refuse, by what is wrong with them."""
    good = npy_header((3, 2), "<f8") + HEATMAP.tobytes()

    def with_cell(value):
        bad = HEATMAP.copy()
        bad[1, 1] = value
        return npy_header((3, 2), "<f8") + bad.tobytes()

    return {
        "csv": b"step,block,l1_rel\n2,0,\n1,0,0.5\n0,0,0.125\n",
        "npy-2.0": npy_header((3, 2), "<f8", version=(2, 0)) + HEATMAP.tobytes(),
        "fortran-order": npy_header((3, 2), "<f8", fortran_order=True) + HEATMAP.T.tobytes(),
        "object-dtype": npy_header((3, 2), "|O") + bytes(48),
        "float32": npy_header((3, 2)) + HEATMAP.astype("<f4").tobytes(),
        "big-endian": npy_header((3, 2), ">f8") + HEATMAP.astype(">f8").tobytes(),
        "1-d": npy_header((6,), "<f8") + HEATMAP.tobytes(),
        "3-d": npy_header((3, 2, 1), "<f8") + HEATMAP.tobytes(),
        "payload-8-short": good[:-8],
        "payload-8-long": good + bytes(8),
        "plus-inf-cell": with_cell(np.inf),
        "minus-inf-cell": with_cell(-np.inf),
        "negative-cell": with_cell(-0.5),
        "no-steps": npy_header((0, 2), "<f8"),
        "no-blocks": npy_header((3, 0), "<f8"),
        "header-without-brace": good.replace(b"{", b" ", 1),
        "bytes-key-header": good.replace(b" 'fortran_order'", b"B'fortran_order'", 1),
    }


MALFORMED_HEATMAPS = malformed_heatmaps()

# The committed replay fixture in the retired CSV text format, and the line
# breaks other than a lone \n that its reader refused.
CSV_TRACE = "step,block,l1_rel\n6,0,0.3\n5,0,0.2\n4,0,0.1\n3,0,0.05\n2,0,0.05\n1,0,0.08\n0,0,0.3\n"
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
    "generate": ["generate", *TINY],
    "compare": ["generate", *TINY, "--reference-latent", "none/latent.bin"],
    "replay": ["replay", "--trace", str(FIXTURES / "replay_trace.npy")],
}


def run_generate(out, *extra):
    return main(["generate", *TINY, "--out", str(out), *extra])


def fill_with_longer_files(out: Path, exports: dict[str, bytes]) -> Path:
    """out, holding a file 4 KiB longer than each export, of the same name."""
    out.mkdir()
    for name, data in exports.items():
        (out / name).write_bytes(b"x" * (len(data) + 4096))
    return out


def refuse_to_sample(*args):
    raise AssertionError("sampled before the reference latent was checked")


def run_comparison(out, shape, *policy):
    """The none-vs-policy recipe: a `generate --policy none` run in out/none,
    then a run under `policy` scored against its latent.bin in out/scored.
    Both runs take `shape`. Returns the two summaries."""
    none, scored = out / "none", out / "scored"
    assert main(["generate", *shape, "--policy", "none", "--out", str(none)]) == 0
    reference = str(none / "latent.bin")
    scored_run = [*policy, "--reference-latent", reference, "--out", str(scored)]
    assert main(["generate", *shape, *scored_run]) == 0
    return tuple(json.loads((d / "summary.json").read_text()) for d in (none, scored))


class TestGenerate:
    def test_writes_all_outputs_by_default(self, tmp_path):
        """One generate run leaves heatmap, reuse profile, summary and latent."""
        assert run_generate(tmp_path) == 0
        assert (tmp_path / "heatmap.npy").exists()
        assert (tmp_path / "reuse_profile.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "latent.bin").exists()

    def test_heatmap_is_the_live_distances_as_npy(self, tmp_path):
        """np.load gives a float64 [T, N] table whose cells are the live run's
        per-block distances bit for bit, NaN exactly at the first executed
        step and at the reused steps."""
        assert run_generate(tmp_path, "--delta", "0.9") == 0
        table = np.load(tmp_path / "heatmap.npy", allow_pickle=False)
        policy = replace(CachePolicyConfig.recommended(30), delta=0.9)
        _, trace = run_policy(TINY_CONFIG, policy)
        assert table.dtype == np.float64 and table.shape == (30, 8)
        reused = [i for i, d in enumerate(trace.decisions) if d.action is Action.REUSED]
        assert reused  # the run reuses, so NaN rows other than the first are checked
        unmeasured = np.isnan(table).any(axis=1)
        assert np.flatnonzero(unmeasured).tolist() == [0, *reused]
        assert np.isnan(table[unmeasured]).all()
        for row, d in zip(table, trace.decisions):
            if d.per_block_l1 is not None:
                assert row.tobytes() == np.array(d.per_block_l1, dtype=np.float64).tobytes()

    def test_dump_latent_is_readable(self, tmp_path):
        """Generate writes a latent.bin that round-trips with its shape."""
        assert run_generate(tmp_path) == 0
        latent = read_latent(tmp_path / "latent.bin")
        assert latent.shape == (2 * 3, 16)  # frames * tokens rows, dim cols
        assert str(latent.dtype) == "float32"

    def test_dump_latent_is_the_run_latent_as_npy(self, tmp_path):
        """np.load returns the run's final float32 latent bit for bit."""
        assert run_generate(tmp_path) == 0
        final, _ = run_policy(TINY_CONFIG, CachePolicyConfig.recommended(30))
        back = np.load(tmp_path / "latent.bin", allow_pickle=False)
        assert back.dtype == np.float32 and back.tobytes() == final.tobytes()

    def test_prints_policy_and_reuse_count(self, tmp_path, capsys):
        """The one-line report names the policy and the reused-step count."""
        assert run_generate(tmp_path, "--policy", "none") == 0
        out = capsys.readouterr().out
        assert "policy=none" in out
        assert "reused=0/30" in out

    def test_reference_latent_scores_quality(self, tmp_path):
        """Scoring against a reference latent fills psnr_db and ssim."""
        ref_dir = tmp_path / "ref"
        assert run_generate(ref_dir, "--policy", "none") == 0
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
        assert run_generate(ref_dir, "--policy", "none") == 0
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

    def test_zero_range_reference_is_refused_before_sampling(self, tmp_path, monkeypatch, capsys):
        """An all-zero latent decodes to constant pixels, which no PSNR can be
        scored against: exit 2 naming the reference, with nothing sampled.
        Decoding draws the decode matrix, so the spy is on the sampler."""
        reference = tmp_path / "ref.bin"
        write_latent(np.zeros((6, 16), dtype=np.float32), reference)  # the TINY layout
        monkeypatch.setattr(cli, "run_policy", refuse_to_sample)
        out = tmp_path / "out"
        assert run_generate(out, "--reference-latent", str(reference)) == 2
        err = capsys.readouterr().err
        assert f"reference latent {reference} decodes to pixels of zero value range" in err
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
        argv = ["--deterministic"]
        assert run_generate(tmp_path / "fresh", *argv) == 0
        fresh = exported_bytes(tmp_path / "fresh")
        assert set(fresh) == {"heatmap.npy", "latent.bin", "reuse_profile.csv", "summary.json"}
        stale = fill_with_longer_files(tmp_path / "stale", fresh)
        assert run_generate(stale, *argv) == 0
        assert exported_bytes(stale) == fresh

    def test_environment_does_not_move_the_output(self, tmp_path, monkeypatch):
        """Without --out the exports go to ./bwcache_out, whatever the
        environment holds: the variable that once moved them is not read."""
        monkeypatch.setenv("BWCACHE_OUT_DIR", str(tmp_path / "ignored"))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", *TINY]) == 0
        assert (tmp_path / "bwcache_out" / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_deterministic_zeroes_wall_seconds(self, tmp_path):
        """--deterministic reports zero timings and changes no other byte:
        the run computes exactly what a default run computes."""
        plain, zeroed = tmp_path / "plain", tmp_path / "zeroed"
        assert run_generate(plain) == 0
        assert run_generate(zeroed, "--deterministic") == 0
        summaries = [json.loads((out / "summary.json").read_text()) for out in (plain, zeroed)]
        assert summaries[0]["wall_seconds"] > 0.0
        assert summaries[1] == {**summaries[0], "wall_seconds": 0.0}
        for name in ("heatmap.npy", "reuse_profile.csv", "latent.bin"):
            assert (plain / name).read_bytes() == (zeroed / name).read_bytes()

    def test_deterministic_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """Reruns at 1 and 2 BLAS threads write byte-identical directories, at
        a width where OpenBLAS splits the work across its threads."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}"
            argv = ["generate", "--dim", "256", "--deterministic"]
            done = subprocess.run(
                [sys.executable, "-m", "bwcache.cli", *argv, "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            outs.append(exported_bytes(out))
        assert set(outs[0]) == {"heatmap.npy", "latent.bin", "reuse_profile.csv", "summary.json"}
        assert outs[0] == outs[1]

    def test_width_the_four_heads_do_not_divide_is_refused_naming_both(
        self, tmp_path, monkeypatch, capsys
    ):
        """generate has no head flag, so a --dim that ModelConfig's 4 heads do
        not divide exits 2 with a message that names both values, before any
        draw and creating nothing."""

        def refuse(*args):
            raise AssertionError("drew before the width was checked")

        monkeypatch.setattr(model, "rand_normal", refuse)
        out = tmp_path / "out"
        assert main(["generate", "--dim", "6", "--out", str(out)]) == 2
        assert "n_heads 4 must divide hidden_dim 6" in capsys.readouterr().err
        assert not out.exists()


class TestEntryPoint:
    def test_module_run_exits_with_mains_code(self, tmp_path):
        """``python -m bwcache.cli`` exits with the code that main returns: 2
        for an unknown tail rule, named on stderr, with no output made."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "bwcache.cli", "generate", "--tail", "quarter", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        assert "unknown tail rule 'quarter'" in done.stderr
        assert not out.exists()

    def test_every_project_script_names_a_callable(self):
        """Each [project.scripts] target in pyproject.toml is a callable of
        the package, which the installed wrapper calls and exits with."""
        tomllib = pytest.importorskip("tomllib")
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = tomllib.loads(text)["project"]["scripts"]
        assert scripts == {"bwcache": "bwcache.cli:main"}
        for target in scripts.values():
            module, _, name = target.partition(":")
            assert callable(getattr(importlib.import_module(module), name))

    @pytest.mark.parametrize("command", ["generate", "replay"])
    def test_empty_out_is_refused_before_any_draw(
        self, tmp_path, monkeypatch, capsys, command
    ):
        """--out "" would name the working directory: it exits 2 at parse
        time, before anything is drawn or read, and writes nothing there."""

        def refuse(*args):
            raise AssertionError("drew or read before --out was checked")

        monkeypatch.setattr(model, "rand_normal", refuse)
        monkeypatch.setattr(cli, "read_heatmap", refuse)
        monkeypatch.chdir(tmp_path)
        assert main([*RUNS[command], "--out", ""]) == 2
        assert "argument --out: empty output directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ([*RUNS["generate"], "--reference-latent", ""], "--reference-latent"),
            (["replay", "--trace", ""], "--trace"),
        ],
        ids=["reference-latent", "trace"],
    )
    def test_empty_input_path_is_refused_before_any_draw(
        self, tmp_path, monkeypatch, capsys, argv, flag
    ):
        """An empty input path would read as no reference or as the working
        directory: it exits 2 at parse time naming the flag, before anything
        is drawn or read, and creates no output directory."""

        def refuse(*args):
            raise AssertionError(f"drew or read before {flag} was checked")

        monkeypatch.setattr(model, "rand_normal", refuse)
        monkeypatch.setattr(cli, "read_heatmap", refuse)
        monkeypatch.setattr(cli, "read_latent", refuse)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert f"argument {flag}: empty " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        """Identical flags with --deterministic reproduce every file exactly."""
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_generate(out, "--deterministic") == 0
        for name in ("heatmap.npy", "reuse_profile.csv", "summary.json", "latent.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_delta_matches_none_policy_bytes(self, tmp_path):
        """delta=0 never fires, so its outputs match the none policy exactly."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_generate(a, "--policy", "bwcache", "--delta", "0") == 0
        assert run_generate(b, "--policy", "none") == 0
        for name in ("heatmap.npy", "reuse_profile.csv", "latent.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_negative_zero_delta_has_the_zero_delta_fingerprint(self, tmp_path):
        """--delta -0 and --delta 0 decide alike and record one fingerprint."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_generate(a, "--delta", "-0", "--deterministic") == 0
        assert run_generate(b, "--delta", "0", "--deterministic") == 0
        for name in ("heatmap.npy", "reuse_profile.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_reference_latent_is_runtime_error(self, tmp_path):
        rc = run_generate(tmp_path, "--reference-latent", str(tmp_path / "absent.bin"))
        assert rc == 1

    def test_out_dir_under_a_file_is_runtime_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        assert run_generate(blocker / "sub") == 1

    @pytest.mark.parametrize("command", ["generate", "replay"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_at_or_under_a_file_is_refused_before_any_run(
        self, tmp_path, monkeypatch, capsys, command, under
    ):
        """--out naming a file, or a path under one, exits 1 before anything
        is sampled or replayed, and creates nothing."""

        def refuse(*args):
            raise AssertionError("ran before --out was checked")

        monkeypatch.setattr(cli, "run_policy", refuse)
        monkeypatch.setattr(cli, "replay_trace", refuse)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if under else blocker
        assert main([*RUNS[command], "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out {out} is a file or lies under one\n"
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["generate", "replay"])
    @pytest.mark.parametrize("under", [False, True], ids=["link", "under-link"])
    def test_out_at_or_under_a_dangling_symlink_is_refused_before_any_run(
        self, tmp_path, monkeypatch, capsys, command, under
    ):
        """--out naming a symlink to a missing path, or a path under one,
        exits 1 before anything is sampled or replayed, and creates nothing:
        the link is no directory, though Path.exists() on it is False."""

        def refuse(*args):
            raise AssertionError("ran before --out was checked")

        monkeypatch.setattr(cli, "run_policy", refuse)
        monkeypatch.setattr(cli, "replay_trace", refuse)
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing")
        out = link / "sub" if under else link
        assert main([*RUNS[command], "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out {out} is a file or lies under one\n"
        assert list(tmp_path.iterdir()) == [link]
        assert link.is_symlink() and not link.exists()

    def test_zero_mass_reference_is_runtime_error(self, tmp_path, monkeypatch):
        """A zero-mass reference is a numeric fault: exit 1, like a non-finite op."""

        def zero_mass(*args):
            raise ZeroDenominatorError("reference features have zero L1 norm")

        monkeypatch.setattr(cli, "run_policy", zero_mass)
        assert run_generate(tmp_path / "out") == 1

    def test_unallocatable_model_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        """A model too large to allocate (--dim 100000 asks for 4.66 TiB of
        block weights) exits 1 with one error line, not a traceback. The
        MemoryError is raised here, so the test allocates nothing."""

        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 4.66 TiB for an array")

        monkeypatch.setattr(cli, "run_policy", out_of_memory)
        assert run_generate(tmp_path / "out", "--dim", "100000") == 1
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 4.66 TiB for an array\n"
        assert not (tmp_path / "out").exists()

    def test_malformed_tail_rule_is_config_error(self, tmp_path):
        assert run_generate(tmp_path, "--tail", "fixed:lots") == 2

    def test_respelled_fixed_tail_is_refused_writing_nothing(self, tmp_path, capsys):
        """int() reads fixed:1_0 as 10, but only the canonical fixed:10 is a
        tail: it exits 2 naming the text, before the output directory exists."""
        out = tmp_path / "out"
        assert run_generate(out, "--tail", "fixed:1_0") == 2
        assert "'fixed:1_0'" in capsys.readouterr().err
        assert not out.exists()

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
        _, scored = run_comparison(tmp_path, TINY, "--policy", "none")
        assert scored["psnr_db"] == "inf"
        assert scored["ssim"] == 1.0

    def test_speedup_present_with_real_timings(self, tmp_path):
        """A speedup is the ratio of the two summaries' wall_seconds; with
        real timings both are positive, so it is defined."""
        none, scored = run_comparison(tmp_path, TINY, "--policy", "none")
        assert isinstance(none["wall_seconds"], float) and none["wall_seconds"] > 0.0
        assert isinstance(scored["wall_seconds"], float) and scored["wall_seconds"] > 0.0
        assert none["wall_seconds"] / scored["wall_seconds"] > 0.0

    def test_draws_block_weights_once(self, tmp_path):
        """Both runs share one model config, so the second reuses the first's build."""
        _build_weights.cache_clear()
        run_comparison(tmp_path, TINY, "--delta", "0.9")
        info = _build_weights.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_speedup_null_in_deterministic_mode(self, tmp_path):
        """Zeroed timings leave no wall-clock ratio: both wall_seconds are 0."""
        shape = [*TINY, "--deterministic"]
        none, scored = run_comparison(tmp_path, shape, "--policy", "none")
        assert none["wall_seconds"] == 0.0
        assert scored["wall_seconds"] == 0.0

    def test_cross_policy_fields(self, tmp_path):
        """A none-vs-bwcache comparison: each summary holds its own counters."""
        none, scored = run_comparison(tmp_path, TINY, "--delta", "0.9")
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
        shape = [*TINY, "--deterministic"]
        _, scored = run_comparison(tmp_path, shape, "--delta", "0.9")
        recommended = CachePolicyConfig.recommended(30)
        final_a, _ = run_policy(TINY_CONFIG, replace(recommended, kind=PolicyKind.NONE))
        final_b, _ = run_policy(TINY_CONFIG, replace(recommended, delta=0.9))
        px_a, px_b = decode_latent(final_a, TINY_CONFIG), decode_latent(final_b, TINY_CONFIG)
        assert scored["psnr_db"] == psnr(px_a, px_b)
        assert scored["ssim"] == ssim_frames(px_a, px_b)


class TestReplay:
    def test_committed_fixture_reproduces_goldens(self, tmp_path, capsys):
        """Replaying the committed trace reproduces the hand-derived exports."""
        rc = main([
            "replay", "--trace", str(FIXTURES / "replay_trace.npy"),
            "--delta", "0.15", "--reuse-interval", "10", "--tail", "fixed:1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "reused=3/7" in capsys.readouterr().out
        expect_heat = (FIXTURES / "replay_expected_heatmap.npy").read_bytes()
        expect_reuse = (FIXTURES / "replay_expected_reuse.csv").read_bytes()
        assert (tmp_path / "heatmap.npy").read_bytes() == expect_heat
        assert (tmp_path / "reuse_profile.csv").read_bytes() == expect_reuse

    def test_replay_summary_has_null_quality(self, tmp_path):
        """Offline replay has no pixels to score and no wall time to report."""
        rc = main([
            "replay", "--trace", str(FIXTURES / "replay_trace.npy"),
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
        argv = ["replay", "--trace", str(FIXTURES / "replay_trace.npy"), "--delta", "0.3"]
        assert main([*argv, "--out", str(tmp_path / "fresh")]) == 0
        fresh = exported_bytes(tmp_path / "fresh")
        stale = fill_with_longer_files(tmp_path / "stale", fresh)
        assert main([*argv, "--out", str(stale)]) == 0
        assert exported_bytes(stale) == fresh

    def test_missing_trace_is_runtime_error(self, tmp_path):
        rc = main(["replay", "--trace", str(tmp_path / "absent.npy"), "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("name", list(MALFORMED_HEATMAPS))
    def test_malformed_trace_is_config_error_writing_nothing(self, tmp_path, capsys, name):
        """A table that is not a [T, N] little-endian float64 .npy 1.0 file
        of finite distances >= 0 with T, N >= 1 exits 2 before any export;
        a CSV table of the retired text format is told how to record one."""
        bad = tmp_path / "bad.npy"
        bad.write_bytes(MALFORMED_HEATMAPS[name])
        out = tmp_path / "out"
        assert main(["replay", "--trace", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: heatmap ")
        if name == "csv":
            assert "a heatmap is a .npy table now" in err and "generate --policy none" in err
        assert not out.exists()

    def test_mended_malformed_table_replays(self, tmp_path):
        """The table the malformed ones are made from replays, so each is
        refused for what is wrong with it."""
        good = tmp_path / "good.npy"
        good.write_bytes(npy_header((3, 2), "<f8") + HEATMAP.tobytes())
        assert main(["replay", "--trace", str(good), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "old, new",
        [
            (None, "step,block,l1_rel\n1,0,0.1\n1,0,0.2\n0,0,0.1\n"),
            ("6,0,", "+6,0,"),
            ("6,0,", "06,0,"),
            ("3,0,", "\n3,0,"),
            *[(None, sep.join(["step,block,l1_rel", "1,0,", "0,0,0.5", ""])) for sep in BREAKS],
            (None, "step,block,l1_rel\n1,0,\r\n0,0,0.5\r\n"),
            (None, "step,block,l1_rel\n1,0,\x0c0,0,0.5\n"),
            (None, "step,block,l1_rel\n1,0,\n0,0,0.5"),
            (None, "step,block,l1_rel\n1,0,0.5\r\n0,0,0.5\r\n"),
            (None, "step,block,l1_rel\n1,0, 0.5\n0,0,0.5\n"),
            (None, "step,block,l1_rel\n1,0,0.5\n0,0,1_0\n"),
            (None, "step,block,l1_rel\n1,0,\u0665\n0,0,0.5\n"),
        ],
        ids=[
            "repeated-block", "plus-step", "zero-padded-step", "blank-line",
            *[f"{name}-lines" for name in BREAKS.values()],
            "crlf-after-header", "form-feed-after-header", "no-final-newline",
            "crlf-measured-lines", "space-in-cell", "underscore-in-cell", "non-ascii-cell",
        ],
    )
    def test_malformed_trace_is_config_error_naming_line(self, tmp_path, capsys, old, new):
        """The text tables the CSV reader refused naming a line: a repeated
        block, the old fixture with one step respelled or a blank line
        inserted, lines ending in another break than a lone \\n or the last
        one in none, and cells that float() reads. No line of a text table is
        read now: each exits 2 at its first bytes, told how to record a .npy
        table, and writes nothing."""
        bad = tmp_path / "bad.csv"
        bad.write_text(new if old is None else CSV_TRACE.replace(old, new, 1), newline="")
        out = tmp_path / "out"
        assert main(["replay", "--trace", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: heatmap is not a .npy 1.0 file ")
        assert "a heatmap is a .npy table now" in err and "generate --policy none" in err
        assert not out.exists()

    def test_negative_distance_is_config_error(self, tmp_path, capsys):
        """Named by its step and block, under the policy flags that would
        otherwise replay the table."""
        bad = HEATMAP.copy()
        bad[1, 0] = -0.5
        table = tmp_path / "negative.npy"
        table.write_bytes(npy_header((3, 2), "<f8") + bad.tobytes())
        out = tmp_path / "out"
        argv = ["--delta", "0.15", "--reuse-interval", "2", "--tail", "fixed:0"]
        assert main(["replay", "--trace", str(table), *argv, "--out", str(out)]) == 2
        assert "distance -0.5 at step 1, block 0 is not" in capsys.readouterr().err
        assert not out.exists()
        good = tmp_path / "good.npy"
        good.write_bytes(npy_header((3, 2), "<f8") + HEATMAP.tobytes())
        assert main(["replay", "--trace", str(good), *argv, "--out", str(out)]) == 0

    def test_missing_subcommand_exits_two(self):
        assert main([]) == 2


def summary_of(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


# The policy under which replays of the seed-0 and seed-1 default none tables
# reuse different steps.
REPLAY_POLICY = ["--delta", "0.15", "--reuse-interval", "10", "--tail", "fixed:0"]


class TestReplayFingerprint:
    """A replay's fingerprint names the table it re-decided and its policy."""

    @pytest.fixture(scope="class")
    def none_tables(self, tmp_path_factory) -> dict[int, Path]:
        """The heatmaps of the default-config none runs at seeds 0 and 1."""
        tmp = tmp_path_factory.mktemp("none")
        for seed in (0, 1):
            argv = ["generate", "--policy", "none", "--seed", str(seed), "--deterministic"]
            assert main([*argv, "--out", str(tmp / str(seed))]) == 0
        return {seed: tmp / str(seed) / "heatmap.npy" for seed in (0, 1)}

    def replay(self, table: Path, out: Path, *flags) -> dict:
        assert main(["replay", "--trace", str(table), *REPLAY_POLICY, *flags, "--out", str(out)]) == 0
        return summary_of(out)

    def test_two_tables_under_one_policy_have_two_fingerprints(self, tmp_path, none_tables):
        """The seed-0 and seed-1 tables reuse different steps under one policy,
        and their replays record different fingerprints."""
        runs = {seed: tmp_path / str(seed) for seed in none_tables}
        summaries = {seed: self.replay(none_tables[seed], runs[seed]) for seed in runs}
        profiles = {seed: (runs[seed] / "reuse_profile.csv").read_bytes() for seed in runs}
        assert profiles[0] != profiles[1]
        assert summaries[0]["config_fingerprint"] != summaries[1]["config_fingerprint"]

    def test_one_table_has_one_fingerprint(self, tmp_path, none_tables):
        """A table replayed twice, or re-written by write_heatmap under another
        name, records one fingerprint: the table's bytes are hashed, not its path."""
        table = read_heatmap(none_tables[0])
        decisions = [
            StepDecision(step, Action.COMPUTED, None if np.isnan(row[0]) else tuple(row), None, None)
            for step, row in zip(range(len(table) - 1, -1, -1), table.tolist())
        ]
        copy = tmp_path / "copy.npy"
        write_heatmap(decisions, table.shape[1], copy)
        assert copy.read_bytes() == none_tables[0].read_bytes()
        fingerprints = {
            self.replay(path, tmp_path / name)["config_fingerprint"]
            for name, path in (("a", none_tables[0]), ("b", none_tables[0]), ("copy", copy))
        }
        assert len(fingerprints) == 1

    @pytest.mark.parametrize("flags", [[], ["--dim", "32", "--frames", "2", "--tokens", "8"]])
    def test_no_replay_fingerprint_is_a_live_one(self, tmp_path, none_tables, flags):
        """A replay's fingerprint differs from the generate fingerprint of the
        same flags and shape, and from the live document of its own config."""
        replayed = self.replay(none_tables[0], tmp_path / "replay", *flags)["config_fingerprint"]
        assert main(["generate", *REPLAY_POLICY, *flags, "--out", str(tmp_path / "live")]) == 0
        assert replayed != summary_of(tmp_path / "live")["config_fingerprint"]
        config = _model_from_args(build_parser().parse_args(["generate", *flags]))
        config = replace(config, n_heads=1, seed=0)
        policy = CachePolicyConfig(reuse_interval=10, tail=TailRule.parse("fixed:0"))
        assert replayed != config_fingerprint(config, policy)
        assert replayed == config_fingerprint(config, policy, read_heatmap(none_tables[0]))

    @pytest.mark.parametrize("flag", ["--seed", "--heads"])
    def test_replay_takes_no_seed_or_heads(self, tmp_path, capsys, flag):
        """Replay runs no model: --seed and --heads exit 2 at parse time and
        create no output directory."""
        out = tmp_path / "out"
        value = {"--seed": "1", "--heads": "2"}[flag]
        assert main([*RUNS["replay"], flag, value, "--out", str(out)]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestDefaults:
    def test_reuse_interval_defaults_to_tenth_of_steps(self, tmp_path, monkeypatch):
        """Without --reuse-interval the cap is ceil(steps / 10): a replay of a
        table of that many steps hashes it."""
        for steps, expected in [(30, 3), (42, 5), (101, 11)]:
            table = tmp_path / f"table{steps}.npy"
            table.write_bytes(npy_header((steps, 1), "<f8") + np.full(steps, 0.5).tobytes())
            argv = ["replay", "--trace", str(table)]
            records = records_of(argv, tmp_path / str(steps), monkeypatch)
            assert records["policy"]["reuse_interval"] == expected

    def test_generate_policy_defaults(self):
        args = build_parser().parse_args(["generate"])
        policy = _policy_from_args(args, total_steps=30)
        assert policy.kind.value == "bwcache"
        assert policy.delta == 0.15
        assert policy.tail.canonical() == "half"

    def test_bare_flags_build_the_record_defaults(self, tmp_path):
        """The CLI states no default of its own: bare flags build the records'.
        A bare replay hashes the record defaults with its table's T and N and
        the fixed seed 0 and one head, beside the table it read."""
        parser = build_parser()
        args = parser.parse_args(["generate"])
        assert _model_from_args(args) == ModelConfig()
        assert _policy_from_args(args, total_steps=30) == CachePolicyConfig.recommended(30)
        assert main([*RUNS["replay"], "--out", str(tmp_path)]) == 0
        config = ModelConfig(steps=7, n_blocks=1, n_heads=1, seed=0)
        table = read_heatmap(FIXTURES / "replay_trace.npy")
        want = config_fingerprint(config, CachePolicyConfig.recommended(7), table)
        assert summary_of(tmp_path)["config_fingerprint"] == want

    @pytest.mark.parametrize("command", ["generate", "compare", "replay"])
    def test_every_subcommand_refuses_emit(self, command):
        """Every run writes all of its exports; there is no selector flag."""
        assert main([*RUNS[command], "--emit", "heatmap"]) == 2

    @pytest.mark.parametrize("flag, value", [("--steps", "7"), ("--blocks", "2"), ("--heads", "2")])
    def test_generate_refuses_model_shape_flags(self, tmp_path, monkeypatch, capsys, flag, value):
        """generate has no step, block or head flag: each exits 2 at parse
        time, samples nothing and creates no output directory."""
        sampled = []
        monkeypatch.setattr(cli, "run_policy", lambda *args: sampled.append(args))
        out = tmp_path / "out"
        assert main([*RUNS["generate"], flag, value, "--out", str(out)]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert sampled == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "compare"])
    def test_every_generate_refuses_dump_latent(self, tmp_path, capsys, command):
        """Every generate writes latent.bin, so --dump-latent selects nothing:
        it exits 2 at parse time and creates no output directory."""
        out = tmp_path / "out"
        assert main([*RUNS[command], "--dump-latent", "--out", str(out)]) == 2
        assert "unrecognized arguments: --dump-latent" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_side_a_is_the_default_none_policy(self, tmp_path):
        """The recipe's none run keeps the default policy fields under kind
        none, so its fingerprint is that of the plain uncached run."""
        none, _ = run_comparison(tmp_path, [*TINY, "--deterministic"])
        default_none = replace(CachePolicyConfig.recommended(30), kind=PolicyKind.NONE)
        assert none["config_fingerprint"] == config_fingerprint(TINY_CONFIG, default_none)

    def test_none_replay_keeps_the_default_policy_fields(self, tmp_path):
        """A none replay of the 7-step fixture keeps the default policy fields
        of 7 steps under kind none, its reuse interval of 1 included."""
        assert main([*RUNS["replay"], "--policy", "none", "--out", str(tmp_path)]) == 0
        config = ModelConfig(steps=7, n_blocks=1, n_heads=1, seed=0)
        default_none = replace(CachePolicyConfig.recommended(7), kind=PolicyKind.NONE)
        table = read_heatmap(FIXTURES / "replay_trace.npy")
        want = config_fingerprint(config, default_none, table)
        assert summary_of(tmp_path)["config_fingerprint"] == want

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
        assert main(["compare", *TINY, "--out", str(out)]) == 2
        assert "invalid choice: 'compare'" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_refuses_deterministic(self, tmp_path):
        """Replay runs no matmul and always reports zero timings."""
        trace = str(FIXTURES / "replay_trace.npy")
        assert main(["replay", "--trace", trace, "--deterministic", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, steps",
        [("generate", 30), ("compare", 30), ("replay", 7)],
        ids=["generate", "compare", "replay"],
    )
    def test_refused_run_leaves_no_output_directory(self, tmp_path, capsys, command, steps):
        """Inputs refused after parsing (a tail covering the run, in a plain,
        a scored or a replayed run) exit 2 before the output directory exists."""
        out = tmp_path / "out"
        assert main([*RUNS[command], "--tail", "fixed:99", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"fixed tail of 99 covers the whole run of {steps} steps" in err
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
        assert main([*RUNS[command], "--tail", "fixed:30", "--out", str(out)]) == 2
        assert "fixed tail of 30 covers the whole run of 30 steps" in capsys.readouterr().err
        assert not out.exists()


# One alternate value per declared option. The base run is the tiny model
# with --deterministic (replay: the committed fixture), so only the option
# under test can change an exported byte. A flag's alternate is None. The
# base policy is bwcache, which reads every policy option but the stride;
# --static-stride runs on a static base, the one kind that reads it.
ALTERNATES = {
    "generate": {
        "--dim": "8",
        "--frames": "3",
        "--tokens": "4",
        "--seed": "1",
        "--policy": "none",
        "--delta": "0.9",
        "--reuse-interval": "2",
        "--tail": "third",
        "--static-stride": "2",
        "--deterministic": None,
        "--reference-latent": "ref/latent.bin",  # the base run's none dump, written by the test
    },
    "replay": {
        "--dim": "32",
        "--frames": "2",
        "--tokens": "8",
        "--policy": "static",
        "--delta": "0.3",
        "--reuse-interval": "2",
        "--tail": "third",
        "--static-stride": "2",
    },
}
# The comparison recipe passes each generate option to both of its runs; it
# sets --reference-latent itself.
ALTERNATES["compare"] = {
    k: v for k, v in ALTERNATES["generate"].items() if k != "--reference-latent"
}
# Covered by their own tests: the output directory and the replay input.
EXEMPT = {"-h", "--out", "--trace"}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers.choices


def declared_options() -> dict[str, set[str]]:
    return {
        command: {a.option_strings[0] for a in p._actions if a.option_strings}
        for command, p in subcommands().items()
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
            none_dump = ["--policy", "none", "--deterministic", "--out", "ref"]
            assert main(["generate", *TINY, *none_dump]) == 0
        if command == "replay":
            base = ["replay", "--trace", str(FIXTURES / "replay_trace.npy")]
        else:
            base = ["generate", *TINY]
            if option != "--deterministic":
                base.append("--deterministic")
        if option == "--static-stride":
            base += ["--policy", "static"]
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

    @pytest.mark.parametrize(
        "base, unread",
        [
            (["generate", *TINY], ["--static-stride", "2"]),
            (
                ["generate", *TINY, "--policy", "none"],
                ["--delta", "0.9", "--tail", "third", "--reuse-interval", "7", "--static-stride", "5"],
            ),
            (["generate", *TINY, "--policy", "static", "--static-stride", "2"], ["--delta", "0.9"]),
            (RUNS["replay"], ["--static-stride", "2"]),
        ],
        ids=["generate-bwcache", "generate-none", "generate-static", "replay-bwcache"],
    )
    def test_unread_policy_options_change_no_byte(self, tmp_path, base, unread):
        """A policy option that the run's kind never reads leaves every
        export byte-identical, summary.json and its fingerprint included."""
        if base[0] == "generate":
            base = [*base, "--deterministic"]
        for name, argv in (("default", base), ("unread", [*base, *unread])):
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
        exports = [exported_bytes(tmp_path / name) for name in ("default", "unread")]
        assert "summary.json" in exports[0]
        assert exports[0] == exports[1]


REPO = Path(__file__).resolve().parents[1]


def readme_commands() -> list[list[str]]:
    """The argv of each ``bwcache`` line in README's sh blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (REPO / "README.md").read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("bwcache ")]


def traffic_strings() -> set[str]:
    """Every string that the repo's traffic can pass as a flag: the string
    literals of the non-test modules under perfbench/ and tools/, and the
    tokens of README's bwcache lines."""
    found = {token for argv in readme_commands() for token in argv}
    for path in sorted([*REPO.glob("perfbench/**/*.py"), *REPO.glob("tools/**/*.py")]):
        if not path.name.startswith("test_"):
            tree = ast.parse(path.read_text())
            found |= {
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            }
    return found


class TestEveryFlagHasTraffic:
    """No option is declared that no traffic sets: each one appears in a
    perfbench workload, a tools/ script or a README recipe. -h is argparse's."""

    @pytest.fixture(scope="class")
    def traffic(self) -> set[str]:
        return traffic_strings()

    @pytest.mark.parametrize(
        "option", sorted(set().union(*declared_options().values()) - {"-h"})
    )
    def test_option_is_passed_by_some_traffic(self, traffic, option):
        assert option in traffic

    def test_readme_recipe_runs(self, tmp_path, monkeypatch):
        """The three bwcache lines of README's CLI block run as written: a
        none reference, a run scored against its latent, and a replay of its
        table."""
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert [argv[0] for argv in commands] == ["generate", "generate", "replay"]
        for argv in commands:
            assert main(argv) == 0, argv
        assert (tmp_path / "ref" / "latent.bin").exists()
        assert math.isfinite(summary_of(tmp_path / "run1")["psnr_db"])
        assert (tmp_path / "replayed" / "reuse_profile.csv").exists()


def test_every_option_explains_itself():
    """Every declared option of both subcommands has a help string."""
    for command, parser in subcommands().items():
        for action in parser._actions:
            assert action.help, f"{command} {action.option_strings[0]} has no help"


# The record field that each option sets, written out by hand: the oracle
# that a flag feeds its own field and no other. --deterministic and
# --reference-latent set no field.
FIELD_OF = {
    "--dim": ("model", "hidden_dim"),
    "--frames": ("model", "frames"),
    "--tokens": ("model", "tokens_per_frame"),
    "--seed": ("model", "seed"),
    "--policy": ("policy", "kind"),
    "--delta": ("policy", "delta"),
    "--reuse-interval": ("policy", "reuse_interval"),
    "--tail": ("policy", "tail"),
    "--static-stride": ("policy", "static_stride"),
}


def records_of(argv: list[str], out: Path, monkeypatch) -> dict[str, dict]:
    """The model config and policy a run of ``argv`` builds, as field dicts.
    A generate run's come from the parse; a replay's are the ones that it
    hashes into its fingerprint, caught as it runs."""
    if argv[0] == "generate":
        args = build_parser().parse_args(argv)
        config = _model_from_args(args)
        policy = _policy_from_args(args, total_steps=config.steps)
    else:
        hashed = []

        def spy(config, policy, table):
            hashed.append((config, policy))
            return config_fingerprint(config, policy, table)

        monkeypatch.setattr(cli, "config_fingerprint", spy)
        assert main([*argv, "--out", str(out)]) == 0
        ((config, policy),) = hashed
    return {"model": vars(config), "policy": vars(policy)}


class TestEachFlagSetsItsField:
    def test_table_covers_every_option_that_sets_a_field(self):
        unset = {"--deterministic", "--reference-latent"}
        assert set(FIELD_OF) == set(ALTERNATES["generate"]) - unset

    @pytest.mark.parametrize(
        "command, option",
        [
            (command, option)
            for command in ("generate", "replay")
            for option in ALTERNATES[command]
            if option in FIELD_OF
        ],
    )
    def test_alternate_value_moves_only_its_field(self, tmp_path, monkeypatch, command, option):
        """The alternate value of one option changes exactly the record field
        that the table names for it, so two swapped flags fail here."""
        base = RUNS[command]
        alternate = [*base, option, ALTERNATES[command][option]]
        records = [
            records_of(argv, tmp_path / name, monkeypatch)
            for name, argv in (("default", base), ("alternate", alternate))
        ]
        moved = {
            (record, name)
            for record, values in records[0].items()
            for name, value in values.items()
            if records[1][record][name] != value
        }
        assert moved == {FIELD_OF[option]}


def flag_text(value) -> str:
    """A record field's value as its flag spells it."""
    if isinstance(value, PolicyKind):
        return value.value
    if isinstance(value, TailRule):
        return value.canonical()
    return str(value)


# A policy of each kind. A tiny run's step distances are about 0.03 to 0.25,
# so a bwcache run mostly reuses, and its R and tail move the exports.
KIND_POLICIES = {
    PolicyKind.NONE: st.just(CachePolicyConfig(kind=PolicyKind.NONE)),
    PolicyKind.STATIC: st.builds(
        CachePolicyConfig, kind=st.just(PolicyKind.STATIC), static_stride=st.integers(1, 4)
    ),
    PolicyKind.BWCACHE: st.builds(
        CachePolicyConfig,
        delta=st.floats(min_value=0.3, max_value=1.0),
        reuse_interval=st.integers(1, 3),
        tail=tail_strategy(),
    ),
}


@st.composite
def fingerprint_twins(draw, kind: PolicyKind):
    """A tiny model config of the fields that generate's flags set and two
    policies of ``kind``, each with the text of its --delta, that differ only
    where the fingerprint does not look: in a field that the kind never
    reads, in the spelling of a zero delta, or in an int delta against the
    float it equals."""
    config = ModelConfig(
        hidden_dim=draw(st.sampled_from([4, 8])),
        frames=draw(st.integers(min_value=1, max_value=2)),
        tokens_per_frame=draw(st.integers(min_value=1, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )
    policy = draw(KIND_POLICIES[kind])
    twin = draw(st.sampled_from(["unread", "zero", "int"]))
    if twin == "unread":
        name = draw(st.sampled_from(traceio._UNREAD[policy.kind.value]))
        other = replace(policy, **{name: draw(UNREAD_VALUES[name])})
        return config, (policy, repr(policy.delta)), (other, repr(other.delta))
    if twin == "zero":
        zeros = st.sampled_from(["0", "0.0", "-0.0"])
        texts = draw(st.lists(zeros, min_size=2, max_size=2, unique=True))
    else:
        whole = draw(st.integers(min_value=0, max_value=2))
        texts = draw(st.permutations([str(whole), f"{whole}.0"]))
    # Each record holds what its text spells: an int for bare digits, else a float.
    deltas = [int(text) if text.isdigit() else float(text) for text in texts]
    return config, *[(replace(policy, delta=d), text) for d, text in zip(deltas, texts)]


class TestEqualFingerprintsExportEqualBytes:
    @pytest.mark.parametrize("kind", list(PolicyKind), ids=[k.value for k in PolicyKind])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_twins_write_byte_identical_exports(self, kind, data):
        """Two policies with one fingerprint are one run: generate
        --deterministic writes byte-identical files for both, latent.bin
        included, and each summary holds that fingerprint."""
        config, *runs = data.draw(fingerprint_twins(kind))
        fingerprints = {config_fingerprint(config, policy) for policy, _ in runs}
        assert len(fingerprints) == 1
        exports = []
        with tempfile.TemporaryDirectory() as tmp:
            for k, (policy, delta) in enumerate(runs):
                argv = ["generate", "--deterministic"]
                for flag, (record, name) in FIELD_OF.items():
                    value = getattr(config if record == "model" else policy, name)
                    argv += [flag, delta if flag == "--delta" else flag_text(value)]
                out = Path(tmp) / str(k)
                assert main([*argv, "--out", str(out)]) == 0
                assert summary_of(out)["config_fingerprint"] in fingerprints
                exports.append(exported_bytes(out))
        assert "latent.bin" in exports[0]
        assert exports[0] == exports[1]
