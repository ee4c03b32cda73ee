"""Workload definitions shared by the orchestrator and the worker.

Plain data only: this module imports nothing from bwcache, so the
orchestrator can read it without loading the program under test.

Why each workload exists:

* ``toy_d64`` -- generate traffic on the default model (d=64, 8 blocks, 4x16
  tokens, 30 steps) under the default CLI policy. Cost is per-op Python and
  numpy overhead; the 2 MiB of weights fit in L2 and reuse is low, and no
  weights repeat between samples, so caching weights per config should
  change nothing here.
* ``wide_d256`` -- compare traffic at d=256: each seed is sampled under
  ``none`` and under the criterion-08 policy, order alternating per seed.
  Matmuls and weight init dominate, the 26 MiB of weights exceed L2, reuse is
  high and the same model runs twice, so reuse, matmul and set-up
  optimisations show here.
* ``replay_sweep`` -- offline traffic with no model: recorded ``none``
  heatmaps at 30 and 100 steps are re-decided over a delta x R x tail grid
  plus static strides. A point replays one policy over every table, and
  summarizes and exports each replay, so every point costs about the same
  (a median over points that each read one table fell in the gap between
  the 30- and 100-step costs). The ``cache`` decision machine and
  ``traceio`` do all the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    delta: float = 0.15
    reuse_interval: int = 3
    tail: str = "half"
    static_stride: int = 3

    def cli_flags(self) -> list[str]:
        return [
            "--policy", self.kind,
            "--delta", repr(self.delta),
            "--reuse-interval", str(self.reuse_interval),
            "--tail", self.tail,
            "--static-stride", str(self.static_stride),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    traffic: str  # "generate" | "compare" | "replay"
    dim: int = 64
    policy: PolicySpec | None = None


NONE_POLICY = PolicySpec("none")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy_d64", "generate", 64, PolicySpec("bwcache", 0.15, 3, "half")),
        Workload("wide_d256", "compare", 256, PolicySpec("bwcache", 0.5, 5, "third")),
        Workload("replay_sweep", "replay"),
    )
}

# replay_sweep: tables recorded under `none`, TABLE_SEEDS seeds per step count.
TABLE_STEPS = (30, 100)
TABLE_SEEDS = 2
SWEEP_DELTAS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5)
SWEEP_INTERVALS = (1, 2, 3, 5)
SWEEP_TAILS = ("third", "half", "twothirds", "fixed:3")
SWEEP_STRIDES = (2, 3, 4, 5)


def sweep_policies() -> list[PolicySpec]:
    grid = [
        PolicySpec("bwcache", delta, interval, tail)
        for delta, interval, tail in product(SWEEP_DELTAS, SWEEP_INTERVALS, SWEEP_TAILS)
    ]
    return grid + [PolicySpec("static", static_stride=s) for s in SWEEP_STRIDES]


def model_seeds(workload: str, seed: int):
    """Endless stream of distinct model seeds derived from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    seen: set[int] = set()
    while True:
        s = rng.getrandbits(32)
        if s not in seen:
            seen.add(s)
            yield s


def point_order(seed: int, n_points: int) -> list[int]:
    """Shuffled order in which replay_sweep visits its points."""
    order = list(range(n_points))
    random.Random(f"replay_sweep/order/{seed}").shuffle(order)
    return order


def cli_argvs(workload: Workload, seed: int, tables: list[str], n: int) -> list[list[str]]:
    """Arguments of the fresh CLI processes a run times (before ``--out``)."""
    if workload.traffic == "replay":
        return [["replay", "--trace", tables[k % len(tables)]] for k in range(n)]
    seeds = model_seeds(workload.name, seed)
    next(seeds)  # the first seed builds the set-up model
    flags = ["--dim", str(workload.dim), *workload.policy.cli_flags()]
    return [["generate", "--seed", str(next(seeds)), *flags] for _ in range(n)]
