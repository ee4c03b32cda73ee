"""One benchmark worker process: set-up, one workload, checks, optional tracing.

run.py starts this in a fresh interpreter with PYTHONPATH at the checkout's
``src/`` and BLAS pinned to one thread, and reads the JSON it writes to
``--result``. Modes:

* ``prep`` (replay_sweep only): record the ``none`` heatmaps the sweep
  replays, with the code under test, and report their paths.
* ``setup``: import bwcache and build the workload's first model (weights,
  readout, schedule, latent), or ingest the replay tables, then record the
  time. run.py measures set-up from just before it spawned the process.
* ``main``: the same set-up, one untimed warm-up unit, then the timed window
  with checks, untimed references and a yardstick sample between units.
  With ``--trace 1`` the window is halved and the same units run a second
  time with every traced function wrapped.

All calls into the program go through module attributes (``cache.run_policy``
rather than a name imported here), so the tracer's rebinding reaches them.
The checks in checks.py import by name on purpose and stay untraced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path

import numpy as np

from bwcache import cache, metrics, model, tensor, traceio
from bwcache.cache import Action, CachePolicyConfig, PolicyKind, TailRule
from bwcache.model import ModelConfig

import checks
import yardstick
from spans import Tracer, aggregate
from workloads import (
    NONE_POLICY,
    TABLE_SEEDS,
    TABLE_STEPS,
    WORKLOADS,
    PolicySpec,
    model_seeds,
    point_order,
    sweep_policies,
)

clock = time.perf_counter
# After this much unit time, up to three yardstick samples are taken. Each
# unit is normalized by the mean of the sample medians on either side of it.
YARDSTICK_EVERY_S = 0.1

TRACED = {
    tensor: ("matmul", "batched_matmul", "layer_norm", "softmax_rows", "gelu", "rand_normal"),
    model: (
        "init_weights",
        "dit_block_forward",
        "denoiser_forward",
        "readout_matrix",
        "sample_initial_latent",
        "reverse_step",
        "decode_latent",
    ),
    cache: ("run_policy", "replay_trace", "decide", "relative_l1", "aggregate_distances"),
    metrics: ("summarize", "psnr", "ssim_frames"),
    traceio: (
        "read_heatmap",
        "write_heatmap",
        "write_reuse_profile",
        "write_summary",
        "read_summary",
        "config_fingerprint",
    ),
}
TENSOR_OPS = ("matmul", "batched_matmul", "layer_norm", "softmax_rows", "gelu")


def count_matmul(counters: dict, args) -> None:
    """Computed from shapes: 2 m k n flops and the bytes of both operands and the result."""
    a, b = args[0], args[1]
    m, k = a.shape
    n = b.shape[1]
    counters["matmul.flop"] = counters.get("matmul.flop", 0) + 2 * m * k * n
    counters["matmul.bytes"] = counters.get("matmul.bytes", 0) + (m * k + k * n + m * n) * a.itemsize


def count_heatmap_bytes(counters: dict, args) -> None:
    counters["read_heatmap.bytes"] = counters.get("read_heatmap.bytes", 0) + os.path.getsize(args[0])


COUNTERS = {(tensor, "matmul"): count_matmul, (traceio, "read_heatmap"): count_heatmap_bytes}


def to_policy(spec: PolicySpec) -> CachePolicyConfig:
    return CachePolicyConfig(
        kind=PolicyKind(spec.kind),
        delta=spec.delta,
        reuse_interval=spec.reuse_interval,
        tail=TailRule.parse(spec.tail),
        static_stride=spec.static_stride,
    )


class Tally:
    """Operations attempted and failed, with the first few problems kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def attempt(self, what: str, fn):
        """Run fn; an exception counts as a failed operation and returns None."""
        try:
            return fn()
        except Exception as exc:  # a failing operation is a result, not a crash
            self.record(what, [traceback.format_exception_only(type(exc), exc)[-1].strip()])
            return None

    def check(self, what: str, run_checks) -> bool:
        """Record the problems ``run_checks()`` returns; a check that raises is a failure too."""
        problems = self.attempt(what, run_checks)
        return problems is not None and self.record(what, problems)


@dataclass
class Unit:
    """One completed unit of the timed window."""

    item: object
    result: dict  # what the workload keeps of the unit's output
    wall: float  # seconds on the clock
    yardstick: float = 0.0  # yardstick seconds measured around it


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """Reported only with at least ten samples beyond it."""
    return statistics.quantiles(values, n=10)[8] if len(values) >= 100 else None


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "machine": platform.machine(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = platform.processor() or "unknown"
    return env


def sample(config: ModelConfig, policy: CachePolicyConfig):
    t0 = clock()
    x, trace = cache.run_policy(config, policy)
    return {"x": x, "trace": trace, "dt": clock() - t0}


def timed_window(seconds: float, items, unit, check, tally: Tally, kernel=yardstick.MIXED) -> list[Unit]:
    """Run ``unit(item)`` over ``items`` until ``seconds`` of unit time have passed.

    ``check(item, result)`` returns what is kept of each result. Checks,
    untimed references and samples of the yardstick ``kernel`` run off the
    clock, between units.
    """
    units: list[Unit] = []
    pending: list[Unit] = []
    busy = due = 0.0
    kernel.once()  # first-call warm-up, discarded
    before = kernel.once()

    def settle(after: float) -> None:
        for u in pending:
            u.yardstick = (before + after) / 2
        pending.clear()

    for item in items:
        if busy >= seconds:
            break
        t0 = clock()
        result = tally.attempt(f"unit {item}", lambda: unit(item))
        wall = clock() - t0
        busy += wall
        due += wall
        if result is not None:
            units.append(Unit(item, check(item, result), wall))
            pending.append(units[-1])
        if due >= YARDSTICK_EVERY_S:
            after = median(kernel.measure(min(3, int(due / YARDSTICK_EVERY_S))))
            settle(after)
            before, due = after, 0.0
    if pending:
        settle(kernel.once())
    return units


def window_metrics(workload, units: list[Unit]) -> tuple[dict, dict]:
    """End-to-end sample metrics in yardstick-normalized seconds (see yardstick.py)."""
    samples = [u for u in units if workload.is_sample(u.item)]
    raw = [u.wall for u in samples]
    norm = [workload.kernel.normalize(u.wall, u.yardstick) for u in samples]
    busy_norm = sum(workload.kernel.normalize(u.wall, u.yardstick) for u in units)
    n = len(units)
    e2e = {
        "sample_s.p50": median(norm),
        "samples_per_s": n / busy_norm if busy_norm else 0.0,
    }
    extras = {
        "units": len(units),
        "sample_s.p90": p90(norm),
        "sample_s.p50.raw": median(raw),
        "samples_per_s.raw": n / sum(u.wall for u in units) if units else 0.0,
        "yardstick_s.p50": median([u.yardstick for u in units]),
    }
    return e2e, extras


# ----------------------------------------------------------------- sampling


class SamplingWorkload:
    """toy_d64 (generate traffic) and wide_d256 (compare traffic)."""

    kernel = yardstick.MIXED

    def __init__(self, wl, seed: int, tmp: Path, tally: Tally):
        self.wl, self.tally, self.tmp = wl, tally, tmp
        self.policy = to_policy(wl.policy)
        self.none = to_policy(NONE_POLICY)
        self.compare = wl.traffic == "compare"
        self.seeds = model_seeds(wl.name, seed)
        self.first_seed = next(self.seeds)
        self.pairs: dict[int, dict] = {}

    def config(self, seed: int) -> ModelConfig:
        return ModelConfig(hidden_dim=self.wl.dim, seed=seed)

    def setup(self) -> None:
        config = self.config(self.first_seed)
        model.init_weights(config)
        model.readout_matrix(config)
        model.NoiseSchedule.linear(config.steps)
        model.sample_initial_latent(config)

    def warm(self) -> None:
        sample(self.config(self.first_seed), self.policy)

    def items(self):
        """(seed, side): compare traffic samples each seed under both, order alternating."""
        for i, seed in enumerate(self.seeds):
            sides = ("cached",) if not self.compare else ("none", "cached") if i % 2 == 0 else ("cached", "none")
            for side in sides:
                yield seed, side

    def policy_for(self, side: str) -> CachePolicyConfig:
        return self.policy if side == "cached" else self.none

    def unit(self, item):
        seed, side = item
        return {side: sample(self.config(seed), self.policy_for(side))}

    def check_sample(self, what: str, cfg: ModelConfig, policy, s) -> None:
        decisions = s["trace"].decisions
        self.tally.check(
            what,
            lambda: checks.check_latent(s["x"], (cfg.tokens, cfg.hidden_dim))
            + checks.check_decisions(decisions, policy, cfg.steps)
            + checks.check_replay_roundtrip(decisions, policy, cfg.n_blocks, self.tmp / "roundtrip.csv"),
        )

    def check(self, item, result) -> dict:
        """Checks the sample; generate traffic first samples its untimed `none` reference.

        The reference runs right after its sample so both see the same machine
        state, which keeps speedup_vs_none free of the host's speed drift.
        """
        seed, side = item
        cfg = self.config(seed)
        if not self.compare:
            ref = self.tally.attempt(f"seed {seed} reference", lambda: sample(cfg, self.none))
            if ref is not None:
                result["none"] = ref
        for s_side, s in result.items():
            self.check_sample(f"seed {seed} {s_side}", cfg, self.policy_for(s_side), s)
        return result

    def by_seed(self, units: list[Unit]) -> dict[int, dict]:
        """Both sides of each seed, whether one unit or two sampled them."""
        out: dict[int, dict] = {}
        for u in units:
            out.setdefault(u.item[0], {}).update(u.result)
        return out

    def after_window(self, units: list[Unit]) -> None:
        """Untimed: normalized call times, scoring against the `none` latent, a determinism re-run."""
        for u in units:
            for s in u.result.values():
                s["scale"] = self.kernel.normalize(1.0, u.yardstick)  # raw to normalized seconds
        self.pairs = self.by_seed(units)
        for seed, pair in self.pairs.items():
            if "none" not in pair or "cached" not in pair:
                continue
            cfg = self.config(seed)
            summary = self.tally.attempt(
                f"seed {seed} score", lambda: metrics.summarize(pair["cached"]["trace"], pair["none"]["x"], cfg)
            )
            if summary is not None:
                pair["summary"] = summary
        first = next((pair for pair in self.pairs.items() if "cached" in pair[1]), None)
        if first is not None:
            seed, pair = first
            again = self.tally.attempt(f"seed {seed} rerun", lambda: sample(self.config(seed), self.policy))
            if again is not None:
                self.tally.record(f"seed {seed} rerun", checks.check_same_latent(pair["cached"]["x"], again["x"]))

    def same_output(self, item, first, second) -> list[str]:
        return [p for side in second for p in checks.check_same_latent(first[side]["x"], second[side]["x"])]

    def tidy(self) -> None:
        """Sampling units write no files."""

    def is_sample(self, item) -> bool:
        """Whether the unit is a cached-policy call (compare traffic also times `none`)."""
        return item[1] == "cached"

    def extras(self, units: list[Unit]) -> dict:
        pairs = [p for p in self.pairs.values() if "none" in p and "cached" in p]
        cached = [p["cached"]["dt"] * p["cached"]["scale"] for p in pairs]
        nones = [p["none"]["dt"] * p["none"]["scale"] for p in pairs]
        scored = [p["summary"] for p in pairs if "summary" in p]
        return {
            "speedup_vs_none": median(nones) / median(cached) if nones else None,
            "psnr_db.p50": median([s.psnr_db for s in scored]) if scored else None,
            "ssim.p50": median([s.ssim for s in scored]) if scored else None,
        }

    def loop_metrics(self, units: list[Unit]) -> dict:
        """Step-level timings from the run traces (untraced pass only, raw seconds)."""
        computed, reused, loops, outside, reused_steps = [], [], [], [], []
        runs = [u.result["cached"] for u in units if "cached" in u.result]
        for s in runs:
            tr = s["trace"]
            for d, t in zip(tr.decisions, tr.timings):
                (reused if d.action is Action.REUSED else computed).append(t)
            loop = sum(tr.timings)
            loops.append(loop)
            outside.append(s["dt"] - loop)
            reused_steps.append(sum(d.action is Action.REUSED for d in tr.decisions))
        steps = self.config(self.first_seed).steps
        reuse_rate = statistics.fmean(reused_steps) / steps if reused_steps else 0.0
        ideal = 1.0 / (1.0 - reuse_rate)
        # The speedup compares normalized loop times, so host drift between calls cancels.
        cached_loops = [sum(s["trace"].timings) * s["scale"] for s in runs]
        none_loops = [
            sum(u.result["none"]["trace"].timings) * u.result["none"]["scale"] for u in units if "none" in u.result
        ]
        loop_speedup = median(none_loops) / median(cached_loops) if runs and none_loops else 0.0
        return {
            "cache.loop_s": median(loops),
            "cache.outside_loop_s": median(outside),
            "cache.step_computed_s.p50": median(computed),
            "cache.step_reused_s.p50": median(reused),
            "cache.step_computed_s.mean": statistics.fmean(computed) if computed else 0.0,
            "cache.step_reused_s.mean": statistics.fmean(reused) if reused else 0.0,
            "cache.reused_steps": statistics.fmean(reused_steps) if reused_steps else 0.0,
            "cache.reuse_rate": reuse_rate,
            "cache.ideal_speedup": ideal,
            "cache.loop_speedup": loop_speedup,
            "cache.speedup_efficiency": loop_speedup / ideal,
        }


# ----------------------------------------------------------------- replay


class ReplayWorkload:
    """replay_sweep: offline re-decision of recorded `none` heatmaps, no model."""

    kernel = yardstick.FILE_IO

    def __init__(self, seed: int, tmp: Path, tally: Tally, tables: list[str] | None):
        self.tally, self.tmp, self.seed = tally, tmp, seed
        self.policies = [to_policy(p) for p in sweep_policies()]
        self.tables = [Path(t) for t in tables or []]
        self.first_actions: dict[int, tuple] = {}
        self.exports: list[tuple[Path, Path, Path]] = []

    def record_tables(self) -> list[str]:
        """Record the `none` heatmaps with the code under test, every run."""
        none = to_policy(NONE_POLICY)
        seeds = model_seeds("replay_sweep", self.seed)
        for k in range(TABLE_SEEDS):
            seed = next(seeds)
            for steps in TABLE_STEPS:
                cfg = ModelConfig(steps=steps, seed=seed)
                x, trace = cache.run_policy(cfg, none)
                ok = self.tally.check(
                    f"table {steps}/{k}",
                    lambda: checks.check_latent(x, (cfg.tokens, cfg.hidden_dim))
                    + checks.check_decisions(trace.decisions, none, steps),
                )
                if not ok:
                    raise RuntimeError("recording a replay table failed its checks")
                path = self.tmp / f"table-{steps}-{k}.csv"
                traceio.write_heatmap(trace.decisions, cfg.n_blocks, path)
                self.tables.append(path)
        return [str(p) for p in self.tables]

    def setup(self) -> None:
        """Ingest the tables."""
        for path in self.tables:
            traceio.read_heatmap(path)

    def warm(self) -> None:
        """One export directory per table, then one untimed point."""
        for k in range(len(self.tables)):
            out = self.tmp / f"point-{k}"
            out.mkdir(parents=True, exist_ok=True)
            self.exports.append((out / "heatmap.csv", out / "reuse_profile.csv", out / "summary.json"))
        self.unit((-1, 0))
        self.tidy()

    def items(self):
        """(index, policy): each point replays one policy over every table."""
        return cycle([(i, i) for i in point_order(self.seed, len(self.policies))])

    def unit(self, item):
        _, p = item
        policy = self.policies[p]
        out = []
        for table, exports in zip(self.tables, self.exports):
            rows = traceio.read_heatmap(table)
            decisions = cache.replay_trace(rows, policy)
            n_blocks = len(rows[0])
            # Shape from the table and seed 0, as `bwcache replay` builds it without --seed.
            cfg = ModelConfig(steps=len(rows), n_blocks=n_blocks)
            fingerprint = traceio.config_fingerprint(cfg, policy)
            trace = traceio.RunTrace(decisions, [0.0] * len(rows), fingerprint)
            summary = metrics.summarize(trace, None, cfg)
            heatmap, profile, summary_path = exports
            traceio.write_heatmap(decisions, n_blocks, heatmap)
            traceio.write_reuse_profile(decisions, profile)
            traceio.write_summary(summary, fingerprint, summary_path)
            out.append({"decisions": decisions, "summary": summary, "fingerprint": fingerprint})
        return out

    def check(self, item, result) -> list:
        """Checks one point; keeps only its reuse per table, so memory does not grow with speed."""
        index, p = item
        self.tally.check(
            f"point {index}",
            lambda: [
                problem
                for r, exports in zip(result, self.exports)
                for problem in checks.check_decisions(r["decisions"], self.policies[p], len(r["decisions"]))
                + checks.check_summary_roundtrip(r["summary"], r["fingerprint"], exports[2])
            ]
            + self.same_output(item, None, result),
        )
        self.tidy()
        return [(r["summary"].reuse_rate_steps, len(r["decisions"])) for r in result]

    def after_window(self, units: list[Unit]) -> None:
        pass

    def tidy(self) -> None:
        """Remove the point's exports, off the clock, so the next point writes new files.

        Each table's exports go to a directory of their own and are fresh
        files, as a sweep into separate output directories would write them.
        Truncating and rewriting the same files instead ties the point to the
        disk (ext4's auto_da_alloc flushes a file truncated and rewritten when
        it is closed): on a shared host that made point times about 25% slower
        and spread twice as much between runs.
        """
        for path in (path for exports in self.exports for path in exports):
            path.unlink(missing_ok=True)

    def same_output(self, item, first, second) -> list[str]:
        """A point seen before must give the decisions it gave the first time."""
        actions = tuple(tuple(d.action for d in r["decisions"]) for r in second)
        if self.first_actions.setdefault(item[0], actions) != actions:
            return ["repeated point gave different decisions"]
        return []

    def is_sample(self, item) -> bool:
        return True

    def extras(self, units: list[Unit]) -> dict:
        return {"distinct_points": len(self.first_actions)}

    def loop_metrics(self, units: list[Unit]) -> dict:
        """No model runs here: only the replayed reuse counts (per table replay) are defined."""
        replays = [r for u in units for r in u.result]
        rate = statistics.fmean([rate for rate, _ in replays]) if replays else 0.0
        return {
            "cache.reused_steps": statistics.fmean([rate * steps for rate, steps in replays]) if replays else 0.0,
            "cache.reuse_rate": rate,
            "cache.ideal_speedup": 1.0 / (1.0 - rate),
        }


# ----------------------------------------------------------------- tracing


def traced_pass(workload, units: list[Unit], tally: Tally):
    """Re-run the window's units with every TRACED function wrapped.

    Returns the tracer and, per unit, its normalized seconds untraced and traced.
    """
    tracer = Tracer()
    for mod, names in TRACED.items():
        for name in names:
            tracer.install(mod, name, COUNTERS.get((mod, name)))

    def unit(k: int):
        tracer.sample = k
        return workload.unit(units[k].item)

    def check(k: int, again):
        u = units[k]
        tally.record(f"traced unit {u.item}", workload.same_output(u.item, u.result, again))
        workload.tidy()
        return again

    norm = workload.kernel.normalize
    with tracer:
        traced = timed_window(math.inf, range(len(units)), unit, check, tally, workload.kernel)
    timings = [
        (norm(units[t.item].wall, units[t.item].yardstick), norm(t.wall, t.yardstick))
        for t in traced
    ]
    return tracer, timings


def layer_metrics(agg: dict, counters: dict, n_units: int) -> dict:
    """Per-unit span totals (a unit is one timed run_policy call or one sweep point)."""

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    def per(x: float) -> float:
        return x / n_units if n_units else 0.0

    out = {}
    for name in (
        "model.init_weights",
        "tensor.rand_normal",
        "tensor.matmul",
        "model.dit_block_forward",
        "cache.run_policy",
        "cache.relative_l1",
        "cache.decide",
        "cache.replay_trace",
    ):
        out[f"{name}.calls"] = per(get(name, "calls"))
        out[f"{name}.s"] = per(get(name, "total_s"))
    for name in (
        "tensor.batched_matmul",
        "tensor.layer_norm",
        "tensor.softmax_rows",
        "tensor.gelu",
        "model.denoiser_forward",
        "model.reverse_step",
        "metrics.summarize",
        "traceio.read_heatmap",
        "traceio.write_heatmap",
        "traceio.write_reuse_profile",
        "traceio.write_summary",
        "traceio.config_fingerprint",
    ):
        out[f"{name}.s"] = per(get(name, "total_s"))
    for name in ("model.init_weights", "model.dit_block_forward"):
        calls = get(name, "calls")
        out[f"{name}.mean_s"] = get(name, "total_s") / calls if calls else 0.0
    out["model.dit_block_forward.self_s"] = per(get("model.dit_block_forward", "self_s"))
    out["tensor.op_calls"] = per(sum(get(f"tensor.{op}", "calls") for op in TENSOR_OPS))
    out["tensor.matmul.gflop"] = per(counters.get("matmul.flop", 0)) / 1e9
    out["tensor.matmul.mib"] = per(counters.get("matmul.bytes", 0)) / 2**20
    out["traceio.read_heatmap.mib"] = per(counters.get("read_heatmap.bytes", 0)) / 2**20
    return out


# ----------------------------------------------------------------- entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("prep", "setup", "main"), default="main")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--tables", nargs="*", default=None)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    tmp = Path(args.tmp)
    tally = Tally()
    if wl.traffic == "replay":
        workload = ReplayWorkload(args.seed, tmp, tally, args.tables)
    else:
        workload = SamplingWorkload(wl, args.seed, tmp, tally)
    doc: dict = {}
    if args.mode == "prep":
        doc["tables"] = workload.record_tables()
    else:
        workload.setup()
        doc["setup_mark"] = time.monotonic()

    if args.mode == "main":
        workload.warm()
        seconds = args.seconds / 2 if args.trace else args.seconds
        units = timed_window(seconds, workload.items(), workload.unit, workload.check, tally, workload.kernel)
        workload.after_window(units)
        e2e, extras = window_metrics(workload, units)
        extras.update(workload.extras(units))
        doc.update(e2e=e2e, extras=extras, loop=workload.loop_metrics(units), env=environment())
        if args.trace:
            tracer, timings = traced_pass(workload, units, tally)
            untraced = median([u for u, _ in timings])
            traced = median([t for _, t in timings])
            doc["spans"] = aggregate(tracer.spans)
            doc["layers"] = layer_metrics(doc["spans"], tracer.counters, len(timings))
            doc["trace_overhead"] = {
                "units": len(timings),
                "untraced_s.p50": untraced,
                "traced_s.p50": traced,
                "share": traced / untraced - 1.0 if untraced else 0.0,
            }
    doc.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
