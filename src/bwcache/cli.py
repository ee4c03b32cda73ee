"""Command line front end.

Three subcommands: ``generate`` samples once under a policy and exports the
instrumentation, ``compare`` samples twice (side A is the reference) and
writes a cross-run comparison, ``replay`` re-decides a recorded distance
table offline. Exit codes: 0 success, 1 runtime failure (I/O, numerics),
2 configuration or trace-format problems.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from bwcache import tensor
from bwcache.cache import (
    CachePolicyConfig,
    PolicyKind,
    TailRule,
    ZeroDenominatorError,
    replay_trace,
    run_policy,
)
from bwcache.metrics import RunSummary, psnr, ssim_frames, step_flops, summarize
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

EMIT_CHOICES = ("heatmap", "reuse_profile", "summary")


def _add_model_flags(p: argparse.ArgumentParser, with_shape: bool = True) -> None:
    if with_shape:
        p.add_argument("--steps", type=int, default=30, help="denoising steps T")
        p.add_argument("--blocks", type=int, default=8, help="transformer blocks N")
    p.add_argument("--dim", type=int, default=64, help="hidden width d")
    p.add_argument("--heads", type=int, default=4, help="attention heads")
    p.add_argument("--frames", type=int, default=4, help="latent frames F")
    p.add_argument("--tokens", type=int, default=16, help="tokens per frame S")
    p.add_argument("--seed", type=int, default=0, help="run seed")


def _add_policy_flags(p: argparse.ArgumentParser, suffix: str = "") -> None:
    dash = f"-{suffix}" if suffix else ""
    p.add_argument(
        f"--policy{dash}",
        choices=[k.value for k in PolicyKind],
        default="bwcache" if suffix != "a" else "none",
    )
    p.add_argument(f"--delta{dash}", type=float, default=0.15, help="reuse threshold")
    p.add_argument(
        f"--reuse-interval{dash}",
        type=int,
        default=None,
        help="max consecutive reuses (default: ceil(steps / 10))",
    )
    p.add_argument(
        f"--tail{dash}",
        default="half",
        help="protected tail: third | half | twothirds | fixed:<m>",
    )
    p.add_argument(f"--static-stride{dash}", type=int, default=3)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output directory (or $BWCACHE_OUT_DIR)")
    p.add_argument(
        "--emit",
        default=",".join(EMIT_CHOICES),
        help=f"comma list from {{{','.join(EMIT_CHOICES)}}}",
    )
    p.add_argument("--deterministic", action="store_true", help="fixed-order matmuls, zeroed timings")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bwcache", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample once under a policy and export traces")
    _add_model_flags(g)
    _add_policy_flags(g)
    _add_output_flags(g)
    g.add_argument("--dump-latent", action="store_true", help="also write latent.bin")
    g.add_argument(
        "--reference-latent",
        default=None,
        help="latent dump to score psnr/ssim against",
    )

    c = sub.add_parser("compare", help="run two policies at one seed and compare")
    _add_model_flags(c)
    _add_policy_flags(c, "a")
    _add_policy_flags(c, "b")
    _add_output_flags(c)

    r = sub.add_parser("replay", help="re-decide a recorded heatmap offline")
    r.add_argument("--trace", required=True, help="heatmap CSV from a previous run")
    _add_model_flags(r, with_shape=False)
    _add_policy_flags(r)
    _add_output_flags(r)
    return parser


def _resolve_out_dir(args) -> Path:
    out = args.out or os.environ.get("BWCACHE_OUT_DIR") or "bwcache_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_emit(text: str) -> list[str]:
    parts = [p for p in text.split(",") if p]
    for p in parts:
        if p not in EMIT_CHOICES:
            raise ValueError(f"unknown emit target {p!r}; choose from {EMIT_CHOICES}")
    return parts


def _policy_from_args(args, suffix: str = "", *, total_steps: int) -> CachePolicyConfig:
    get = lambda name: getattr(args, f"{name}_{suffix}" if suffix else name)
    interval = get("reuse_interval")
    if interval is None:
        interval = CachePolicyConfig.recommended(total_steps).reuse_interval
    return CachePolicyConfig(
        kind=PolicyKind(get("policy")),
        delta=get("delta"),
        reuse_interval=interval,
        tail=TailRule.parse(get("tail")),
        static_stride=get("static_stride"),
    )


def _model_from_args(args, steps: int | None = None, blocks: int | None = None) -> ModelConfig:
    return ModelConfig(
        n_blocks=blocks if blocks is not None else args.blocks,
        hidden_dim=args.dim,
        n_heads=args.heads,
        frames=args.frames,
        tokens_per_frame=args.tokens,
        steps=steps if steps is not None else args.steps,
        seed=args.seed,
    )


def _emit_run(trace: RunTrace, summary: RunSummary, n_blocks: int, emit: list[str], out: Path) -> None:
    if "heatmap" in emit:
        write_heatmap(trace.decisions, n_blocks, out / "heatmap.csv")
    if "reuse_profile" in emit:
        write_reuse_profile(trace.decisions, out / "reuse_profile.csv")
    if "summary" in emit:
        write_summary(summary, trace.config_fingerprint, out / "summary.json")


def _cmd_generate(args) -> int:
    config = _model_from_args(args)
    policy = _policy_from_args(args, total_steps=config.steps)
    emit = _parse_emit(args.emit)
    out = _resolve_out_dir(args)
    reference = read_latent(args.reference_latent) if args.reference_latent else None
    final, trace = run_policy(config, policy)
    summary = summarize(trace, reference, config)
    _emit_run(trace, summary, config.n_blocks, emit, out)
    if args.dump_latent:
        write_latent(final, out / "latent.bin")
    reused = round(summary.reuse_rate_steps * config.steps)
    print(
        f"policy={policy.kind.value} steps={config.steps} "
        f"reused={reused}/{config.steps} out={out}"
    )
    return 0


def _cmd_compare(args) -> int:
    config = _model_from_args(args)
    policy_a = _policy_from_args(args, "a", total_steps=config.steps)
    policy_b = _policy_from_args(args, "b", total_steps=config.steps)
    out = _resolve_out_dir(args)

    final_a, trace_a = run_policy(config, policy_a)
    final_b, trace_b = run_policy(config, policy_b)
    summary_a = summarize(trace_a, None, config)
    summary_b = summarize(trace_b, final_a, config)

    px_a = decode_latent(final_a, config)
    px_b = decode_latent(final_b, config)
    cross_psnr: float | str = psnr(px_a, px_b)
    if math.isinf(cross_psnr):
        cross_psnr = "inf"
    speedup = None
    if summary_a.wall_seconds > 0.0 and summary_b.wall_seconds > 0.0:
        speedup = summary_a.wall_seconds / summary_b.wall_seconds

    def side(summary: RunSummary, trace: RunTrace) -> dict:
        return {
            "config_fingerprint": trace.config_fingerprint,
            "reuse_rate_blocks": summary.reuse_rate_blocks,
            "reuse_rate_steps": summary.reuse_rate_steps,
            "total_flops": summary.total_flops,
            "flops_saved": summary.flops_saved,
            "wall_seconds": summary.wall_seconds,
        }

    doc = {
        "a": side(summary_a, trace_a),
        "b": side(summary_b, trace_b),
        "psnr_db": cross_psnr,
        "ssim": ssim_frames(px_a, px_b),
        "speedup": speedup,
    }
    (out / "comparison.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )
    shown = doc["psnr_db"] if isinstance(cross_psnr, str) else f"{cross_psnr:.2f}"
    print(
        f"a={policy_a.kind.value} b={policy_b.kind.value} psnr_db={shown} "
        f"ssim={doc['ssim']:.6f} out={out}"
    )
    return 0


def _cmd_replay(args) -> int:
    rows = read_heatmap(args.trace)
    total_steps = len(rows)
    n_blocks = len(rows[0])
    policy = _policy_from_args(args, total_steps=total_steps)
    emit = _parse_emit(args.emit)
    out = _resolve_out_dir(args)
    decisions = replay_trace(rows, policy)

    config = _model_from_args(args, steps=total_steps, blocks=n_blocks)
    trace = RunTrace(
        decisions=decisions,
        timings=[0.0] * total_steps,
        config_fingerprint=config_fingerprint(config, policy),
    )
    summary = summarize(trace, None, config)
    _emit_run(trace, summary, n_blocks, emit, out)
    reused = round(summary.reuse_rate_steps * total_steps)
    print(
        f"replayed {args.trace}: policy={policy.kind.value} "
        f"reused={reused}/{total_steps} out={out}"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        with tensor.deterministic(args.deterministic):
            if args.command == "generate":
                return _cmd_generate(args)
            if args.command == "compare":
                return _cmd_compare(args)
            return _cmd_replay(args)
    except ZeroDenominatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
