"""Command line front end.

Two subcommands: ``generate`` samples once under a policy and exports the
instrumentation, ``replay`` re-decides a recorded distance table (a
``heatmap.npy`` of float64 distances) offline. ``generate`` has no step,
block or head flag: every run takes ``ModelConfig``'s 30 steps, 8 blocks and
4 heads. Replay runs no model: its fingerprint names the table by its
digest, and its FLOP counts come from the table's T and N with ``--dim``,
``--frames`` and ``--tokens``.
Every ``generate`` writes its final latent as ``latent.bin``, so a policy is
scored against the uncached run by two ``generate`` runs: the ``none``
policy, then the policy with ``--reference-latent`` naming the first run's
``latent.bin``.

The flags that both subcommands take are declared once, on one parent
parser. A flag that sets a field of ``ModelConfig`` or ``CachePolicyConfig``
stores its value under the field's name, and a model field that no flag
sets and the run does not fix takes the record's default. A path flag's
empty value is refused as it is parsed.
Exit codes: 0 success, 1 runtime failure (I/O, numerics, a model too large
to allocate), 2 configuration or trace-format problems.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from bwcache import tensor
from bwcache.cache import (
    CachePolicyConfig,
    PolicyKind,
    TailRule,
    replay_trace,
    require_valid_tail,
    run_policy,
)
from bwcache.metrics import RunSummary, summarize
from bwcache.model import ModelConfig, decode_latent
from bwcache.traceio import (
    RunTrace,
    TraceFormatError,
    config_fingerprint,
    read_heatmap,
    read_latent,
    write_heatmap,
    write_latent,
    write_reuse_profile,
    write_summary,
)


def _path(what: str, text: str) -> Path:
    """A path flag's value. An empty one is refused: Path("") is the working
    directory, whose export files --out would overwrite, and an input flag
    would read it as no path given."""
    if not text:
        raise argparse.ArgumentTypeError(f"empty {what}")
    return Path(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bwcache", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags of both subcommands. A flag that sets a record field stores
    # its value under the field's name. A model flag not given is None, and
    # _model_from_args takes the field's default for it.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--dim", dest="hidden_dim", type=int, help="hidden width d")
    shared.add_argument("--frames", type=int, help="latent frames F")
    shared.add_argument("--tokens", dest="tokens_per_frame", type=int, help="tokens per frame S")
    shared.add_argument(
        "--policy", dest="kind", choices=[k.value for k in PolicyKind],
        default=CachePolicyConfig.kind.value,
        help="none computes every step, bwcache reuses below --delta, static by --static-stride",
    )
    shared.add_argument("--delta", type=float, default=CachePolicyConfig.delta, help="reuse threshold")
    shared.add_argument(
        "--reuse-interval", type=int, help="max consecutive reuses (default: ceil(steps / 10))"
    )
    shared.add_argument(
        "--tail", default=CachePolicyConfig.tail.canonical(),
        help="protected tail: third | half | twothirds | fixed:<m>",
    )
    shared.add_argument(
        "--static-stride", type=int, default=CachePolicyConfig.static_stride,
        help="the static policy computes every stride-th step and reuses the rest",
    )
    shared.add_argument(
        "--out", type=partial(_path, "output directory"), default="bwcache_out", help="output directory"
    )

    g = sub.add_parser("generate", parents=[shared], help="sample once under a policy and export traces")
    g.add_argument("--seed", type=int, help="run seed")
    g.add_argument("--deterministic", action="store_true", help="zeroed timings (wall_seconds 0.0)")
    g.add_argument(
        "--reference-latent", type=partial(_path, "reference latent"),
        help="latent dump to score psnr/ssim against",
    )

    r = sub.add_parser("replay", parents=[shared], help="re-decide a recorded heatmap offline")
    r.add_argument(
        "--trace", type=partial(_path, "trace"), required=True, help="heatmap.npy from a previous run"
    )
    return parser


def _policy_from_args(args, *, total_steps: int) -> CachePolicyConfig:
    interval = args.reuse_interval
    if interval is None:
        interval = CachePolicyConfig.recommended(total_steps).reuse_interval
    policy = CachePolicyConfig(
        kind=PolicyKind(args.kind),
        delta=args.delta,
        reuse_interval=interval,
        tail=TailRule.parse(args.tail),
        static_stride=args.static_stride,
    )
    require_valid_tail(policy, total_steps)
    return policy


def _model_from_args(args, **fixed) -> ModelConfig:
    """The config of the subcommand's model flags, each stored under its
    field's name, and of ``fixed`` for the fields that the run sets itself.
    A field with no flag given and none fixed takes the record's default."""
    names = {f.name for f in fields(ModelConfig)}
    flags = {name: v for name, v in vars(args).items() if name in names and v is not None}
    return ModelConfig(**flags, **fixed)


def _write_run(trace: RunTrace, summary: RunSummary, n_blocks: int, out: Path) -> None:
    """The run's exports, into ``out``, which is made here: after every refusal."""
    out.mkdir(parents=True, exist_ok=True)
    write_heatmap(trace.decisions, n_blocks, out / "heatmap.npy")
    write_reuse_profile(trace.decisions, out / "reuse_profile.csv")
    write_summary(summary, trace.config_fingerprint, out / "summary.json")


def _read_reference(path, config: ModelConfig) -> tensor.Tensor:
    """A --reference-latent dump, refused unless it has this run's latent
    layout, only finite values, and decoded pixels with a value range to
    score against."""
    reference = read_latent(path)
    want = (config.tokens, config.hidden_dim)
    if reference.dtype != np.float32 or reference.shape != want:
        raise ValueError(
            f"reference latent is {reference.dtype} {reference.shape}, "
            f"this run's latent is float32 {want}"
        )
    if not np.isfinite(reference).all():
        raise ValueError("reference latent holds a non-finite value")
    pixels = decode_latent(reference, config)
    if pixels.min() == pixels.max():
        raise ValueError(f"reference latent {path} decodes to pixels of zero value range")
    return reference


def _cmd_generate(args) -> int:
    config = _model_from_args(args)
    policy = _policy_from_args(args, total_steps=config.steps)
    reference = _read_reference(args.reference_latent, config) if args.reference_latent else None
    final, trace = run_policy(config, policy)
    summary = summarize(trace, reference, config)
    if args.deterministic:
        summary = replace(summary, wall_seconds=0.0)
    _write_run(trace, summary, config.n_blocks, args.out)
    write_latent(final, args.out / "latent.bin")
    reused = round(summary.reuse_rate_steps * config.steps)
    print(
        f"policy={policy.kind.value} steps={config.steps} "
        f"reused={reused}/{config.steps} out={args.out}"
    )
    return 0


def _cmd_replay(args) -> int:
    table = read_heatmap(args.trace)
    steps, blocks = table.shape
    # Replay runs no model, so the fields that only a live run reads are
    # fixed: seed 0 and one head, which divides every width.
    config = _model_from_args(args, steps=steps, n_blocks=blocks, n_heads=1, seed=0)
    policy = _policy_from_args(args, total_steps=steps)
    trace = RunTrace(
        decisions=replay_trace(table, policy),
        timings=[0.0] * steps,
        config_fingerprint=config_fingerprint(config, policy, table),
    )
    summary = summarize(trace, None, config)
    _write_run(trace, summary, blocks, args.out)
    reused = round(summary.reuse_rate_steps * steps)
    print(
        f"replayed {args.trace}: policy={policy.kind.value} "
        f"reused={reused}/{steps} out={args.out}"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        # Making --out would fail only after the whole run: check it first,
        # creating nothing. Its nearest existing path must be a directory; a
        # dangling symlink exists as a path but is none.
        if not next(p for p in (args.out, *args.out.parents) if p.is_symlink() or p.exists()).is_dir():
            raise NotADirectoryError(f"--out {args.out} is a file or lies under one")
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_generate(args)
    except (TraceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
