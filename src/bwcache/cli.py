"""Command line front end.

Two subcommands: ``generate`` samples once under a policy and exports the
instrumentation, ``replay`` re-decides a recorded distance table (a
``heatmap.npy`` of float64 distances) offline. Replay runs no model: its
fingerprint names the table by its digest, and its FLOP counts come from the
table's T and N with ``--dim``, ``--frames`` and ``--tokens``.
Every ``generate`` writes its final latent as ``latent.bin``, so a policy is
scored against the uncached run by two ``generate`` runs: the ``none``
policy, then the policy with ``--reference-latent`` naming the first run's
``latent.bin``. Exit codes: 0 success, 1 runtime failure (I/O,
numerics), 2 configuration or trace-format problems.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
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
from bwcache.model import ModelConfig
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


def _add_flop_flags(p: argparse.ArgumentParser) -> None:
    """The width and latent shape: with T and N, they set the FLOP counts."""
    p.add_argument("--dim", type=int, default=ModelConfig.hidden_dim, help="hidden width d")
    p.add_argument("--frames", type=int, default=ModelConfig.frames, help="latent frames F")
    p.add_argument("--tokens", type=int, default=ModelConfig.tokens_per_frame, help="tokens per frame S")


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=[k.value for k in PolicyKind], default=CachePolicyConfig.kind.value)
    p.add_argument("--delta", type=float, default=CachePolicyConfig.delta, help="reuse threshold")
    p.add_argument(
        "--reuse-interval",
        type=int,
        default=None,
        help="max consecutive reuses (default: ceil(steps / 10))",
    )
    p.add_argument(
        "--tail",
        default=CachePolicyConfig.tail.canonical(),
        help="protected tail: third | half | twothirds | fixed:<m>",
    )
    p.add_argument("--static-stride", type=int, default=CachePolicyConfig.static_stride)


def _out_dir(text: str) -> Path:
    """An --out value. An empty one is refused: Path("") is the working
    directory, whose files of the exports' names would be overwritten."""
    if not text:
        raise argparse.ArgumentTypeError("empty output directory")
    return Path(text)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=_out_dir, default="bwcache_out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bwcache", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample once under a policy and export traces")
    g.add_argument("--steps", type=int, default=ModelConfig.steps, help="denoising steps T")
    g.add_argument("--blocks", type=int, default=ModelConfig.n_blocks, help="transformer blocks N")
    g.add_argument("--heads", type=int, default=ModelConfig.n_heads, help="attention heads")
    g.add_argument("--seed", type=int, default=ModelConfig.seed, help="run seed")
    _add_flop_flags(g)
    _add_policy_flags(g)
    _add_output_flags(g)
    g.add_argument("--deterministic", action="store_true", help="zeroed timings (wall_seconds 0.0)")
    g.add_argument(
        "--reference-latent",
        default=None,
        help="latent dump to score psnr/ssim against",
    )

    r = sub.add_parser("replay", help="re-decide a recorded heatmap offline")
    r.add_argument("--trace", required=True, help="heatmap.npy from a previous run")
    _add_flop_flags(r)
    _add_policy_flags(r)
    _add_output_flags(r)
    return parser


def _policy_from_args(args, *, total_steps: int) -> CachePolicyConfig:
    interval = args.reuse_interval
    if interval is None:
        interval = CachePolicyConfig.recommended(total_steps).reuse_interval
    policy = CachePolicyConfig(
        kind=PolicyKind(args.policy),
        delta=args.delta,
        reuse_interval=interval,
        tail=TailRule.parse(args.tail),
        static_stride=args.static_stride,
    )
    require_valid_tail(policy, total_steps)
    return policy


def _model_from_args(args) -> ModelConfig:
    return ModelConfig(
        n_blocks=args.blocks,
        hidden_dim=args.dim,
        n_heads=args.heads,
        frames=args.frames,
        tokens_per_frame=args.tokens,
        steps=args.steps,
        seed=args.seed,
    )


def _write_run(trace: RunTrace, summary: RunSummary, n_blocks: int, out: Path) -> None:
    """The run's exports, into ``out``, which is made here: after every refusal."""
    out.mkdir(parents=True, exist_ok=True)
    write_heatmap(trace.decisions, n_blocks, out / "heatmap.npy")
    write_reuse_profile(trace.decisions, out / "reuse_profile.csv")
    write_summary(summary, trace.config_fingerprint, out / "summary.json")


def _read_reference(path, config: ModelConfig) -> tensor.Tensor:
    """A --reference-latent dump, refused unless it has this run's latent
    layout and only finite values."""
    reference = read_latent(path)
    want = (config.tokens, config.hidden_dim)
    if reference.dtype != np.float32 or reference.shape != want:
        raise ValueError(
            f"reference latent is {reference.dtype} {reference.shape}, "
            f"this run's latent is float32 {want}"
        )
    if not np.isfinite(reference).all():
        raise ValueError("reference latent holds a non-finite value")
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
    config = ModelConfig(
        n_blocks=blocks, hidden_dim=args.dim, n_heads=1, frames=args.frames,
        tokens_per_frame=args.tokens, steps=steps, seed=0,
    )
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
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_generate(args)
    except (TraceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
