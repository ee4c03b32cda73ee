"""bwcache benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy_d64 --seed 1 --seconds 15 --trace 0

Workloads are defined in workloads.py. Each run starts one fresh main
worker process (worker.py) with BLAS pinned to one thread, several fresh CLI
processes (cli_probe.py runs ``bwcache.cli`` as ``python -m bwcache.cli``
does and reports its import time, main time and peak RSS) and, with
``--trace 0``, several set-up-only workers, half of them before the main
worker and half after. The program is imported from the checkout's
``src/``; nothing is installed or built.

End-to-end metrics (``--trace 0``):

* ``setup_s`` -- median over the set-up probes and the main worker of the
  time from spawning the process to the end of set-up (import bwcache, build
  the first model or ingest the replay tables);
* ``sample_s.p50`` -- median seconds of one cached-policy ``run_policy``
  call, or of one sweep point (one policy replayed over every recorded
  table) on replay_sweep;
* ``samples_per_s`` -- timed units (run_policy calls or sweep points)
  completed per second of unit time;
* ``peak_rss_mib`` -- median peak RSS of the fresh CLI processes.

Times are reported in yardstick-normalized seconds (see yardstick.py): a
shared host's speed drifts by 20-40% for tens of seconds at a time, and
normalizing by a fixed kernel timed next to each measurement removes most
of that drift. Process times and the sampling workloads use the mixed
kernel; replay_sweep's points use the file-I/O kernel. Raw times, the CLI
wall time, speedup_vs_none, psnr/ssim and the p90 are in the report but not
gated.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (raw seconds) with ``--trace 1``. Lines
before it are the human-readable report; the full report of each run, with
the environment and the span self times, is kept in
``.bench_out/<workload>-seed<n>-trace<t>.json``.

The benchmark's own checkers are tested with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, cli_argvs  # noqa: E402

SETUP_PROBES = 8
CLI_RUNS = 13
# Yardstick samples taken between spawned processes; a process's time is
# normalized by the mean of the medians taken on either side of it.
YARDSTICKS_PER_PROCESS = 3
WORKER_TIMEOUT_S = 140
CLI_TIMEOUT_S = 20

E2E_UNITS = {
    "setup_s": "s",
    "sample_s.p50": "s",
    "samples_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


# Per-layer metrics, all reported on every workload; 0 where a workload never
# enters the layer (replay_sweep runs no model). Span-derived values are per
# unit: one cached sample (toy_d64), one run_policy call of either policy
# (wide_d256) or one sweep point (replay_sweep).
_SPAN_CALLS_AND_S = (
    "model.init_weights", "tensor.rand_normal", "tensor.matmul", "model.dit_block_forward",
    "cache.run_policy", "cache.relative_l1", "cache.decide", "cache.replay_trace",
)
_SPAN_S = (
    "tensor.batched_matmul", "tensor.layer_norm", "tensor.softmax_rows", "tensor.gelu",
    "model.denoiser_forward", "model.reverse_step", "metrics.summarize", "traceio.read_heatmap",
    "traceio.write_heatmap", "traceio.write_reuse_profile", "traceio.write_summary",
    "traceio.config_fingerprint",
)
PER_LAYER = (
    [f"{n}.{k}" for n in _SPAN_CALLS_AND_S for k in ("calls", "s")]
    + [f"{n}.s" for n in _SPAN_S]
    + [
        "model.init_weights.mean_s", "model.dit_block_forward.mean_s",
        "model.dit_block_forward.self_s", "tensor.op_calls", "tensor.matmul.gflop",
        "tensor.matmul.mib", "traceio.read_heatmap.mib",
        "cache.loop_s", "cache.outside_loop_s", "cache.step_computed_s.p50",
        "cache.step_reused_s.p50", "cache.step_computed_s.mean", "cache.step_reused_s.mean",
        "cache.reused_steps", "cache.reuse_rate", "cache.ideal_speedup", "cache.loop_speedup",
        "cache.speedup_efficiency", "cli.import_s", "cli.main.s", "trace.overhead_share",
    ]
)


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(argv: list[str], result: Path, env: dict, timeout: float) -> dict:
    """Run worker.py to completion and return the JSON it wrote."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--result", str(result), *argv],
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def run_cli(argv: list[str], out: Path, env: dict) -> tuple[float, dict | None, str | None]:
    """One fresh CLI process; returns (wall seconds, probe report, problem)."""
    out.mkdir(parents=True)
    probe_file = out / "probe.json"
    cmd = [sys.executable, str(HERE / "cli_probe.py"), str(probe_file), *argv, "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CLI_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return wall, None, f"cli {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return wall, None, f"cli {argv[0]} wrote no readable summary: {exc}"
    if not 0.0 <= summary.get("reuse_rate_steps", -1.0) <= 1.0:
        return wall, None, f"cli {argv[0]} summary has no valid reuse rate"
    return wall, json.loads(probe_file.read_text()), None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "bwcache" / "__init__.py").is_file():
        print(f"error: no bwcache sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, for this process and its children
    import yardstick

    def yardstick_now() -> float:
        return median(yardstick.MIXED.measure(YARDSTICKS_PER_PROCESS))

    last_yardstick = yardstick_now()

    def normalize(seconds: float) -> float:
        """Normalize a process that just ended by the yardstick samples on either side of it."""
        nonlocal last_yardstick
        after = yardstick_now()
        y = (last_yardstick + after) / 2
        last_yardstick = after
        return yardstick.MIXED.normalize(seconds, y)

    wl = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp)]
    attempted = failed = 0
    problems: list[str] = []
    setups: list[tuple[float, float]] = []  # (raw, normalized) seconds
    clis: list[tuple[float, float, dict]] = []  # (raw, normalized, probe report)

    def tally(doc: dict) -> None:
        nonlocal attempted, failed
        attempted += doc["attempted"]
        failed += doc["failed"]
        problems.extend(doc["problems"])

    def timed_spawn(argv: list[str], name: str, timeout: float) -> dict:
        t_spawn = time.monotonic()
        doc = run_worker(argv, tmp / name, env, timeout)
        raw = doc["setup_mark"] - t_spawn
        setups.append((raw, normalize(raw)))
        return doc

    def run_slot(kind: str, k: int) -> None:
        nonlocal attempted, failed
        if kind == "setup":
            timed_spawn([*common, "--mode", "setup", *table_args], f"setup-{k}.json", 60)
            return
        wall, probe, problem = run_cli(cli_inputs[k], tmp / f"cli-{k}", env)
        norm = normalize(wall)
        attempted += 1
        if problem:
            failed += 1
            problems.append(problem)
        else:
            clis.append((wall, norm, probe))

    try:
        tables: list[str] = []
        if wl.traffic == "replay":
            prep = run_worker([*common, "--mode", "prep"], tmp / "prep.json", env, 60)
            tally(prep)
            tables = prep["tables"]
        table_args = ["--tables", *tables] if tables else []
        cli_inputs = cli_argvs(wl, args.seed, tables, CLI_RUNS)
        # Set-up probes and CLI processes alternate, half before the main
        # worker and half after, so they sample the whole run's machine state.
        slots = [("cli", k) for k in range(CLI_RUNS)]
        if not args.trace:
            setup_slots = [("setup", k) for k in range(SETUP_PROBES)]
            slots = [s for pair in zip(setup_slots, slots) for s in pair]
        before = slots[: len(slots) // 2] if not args.trace else []
        for slot in before:
            run_slot(*slot)
        main_doc = timed_spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", "main", *table_args],
            "main.json", WORKER_TIMEOUT_S,
        )
        tally(main_doc)
        for slot in slots[len(before):]:
            run_slot(*slot)
    except (WorkerError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env_doc = main_doc["env"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_doc,
        "extras": main_doc["extras"],
        "loop": main_doc["loop"],
        "problems": problems,
    }
    if args.trace:
        layers = dict(main_doc["layers"])
        layers.update(main_doc["loop"])
        layers["cli.import_s"] = median([p["import_s"] for _, _, p in clis])
        layers["cli.main.s"] = median([p["main_s"] for _, _, p in clis])
        overhead = main_doc["trace_overhead"]
        layers["trace.overhead_share"] = overhead["share"]
        metrics = {name: {"value": layers.get(name, 0.0), "unit": layer_unit(name)} for name in PER_LAYER}
        report.update(trace_overhead=overhead, spans=main_doc["spans"])
    else:
        values = dict(main_doc["e2e"])
        values["setup_s"] = median([n for _, n in setups])
        values["peak_rss_mib"] = median([p["peak_rss_mib"] for _, _, p in clis])
        # Reported, not gated: on a shared host the CLI time spreads too much between runs.
        report["extras"].update({"setup_s.raw": median([r for r, _ in setups]),
                                 "cli_s.p50": median([n for _, n, _ in clis]),
                                 "cli_s.p50.raw": median([r for r, _, _ in clis])})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        report.update(setup_samples=setups, cli_samples=[(r, n) for r, n, _ in clis])
    report["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report.update(attempted=attempted, failed=failed)
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True)
    )

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in sorted(env_doc.items())))
    for name, m in metrics.items():
        print(f"  {name:34s} {fmt(m['value']):>14s} {m['unit']}")
    for name, value in sorted({**main_doc["extras"], **({} if args.trace else main_doc["loop"])}.items()):
        print(f"  ({name:32s} {fmt(value):>14s})")
    if args.trace:
        print(
            f"  tracing overhead: {overhead['share']:+.1%} per unit "
            f"({fmt(overhead['untraced_s.p50'])} s untraced -> {fmt(overhead['traced_s.p50'])} s traced, "
            f"{overhead['units']} units)"
        )
    for p in problems[:10]:
        print(f"  FAIL {p}")
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "op_calls", "reused_steps")):
        return "count"
    if name.endswith(".gflop"):
        return "GFLOP_computed"
    if name.endswith(".mib"):
        return "MiB_computed" if name.startswith("tensor.") else "MiB"
    if name.endswith(("reuse_rate", "overhead_share", "efficiency")):
        return "ratio"
    if name.endswith("speedup"):
        return "x"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
