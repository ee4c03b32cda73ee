"""Fixed workloads that measure how fast this machine is right now.

On a shared host the same code runs up to ~30% slower for tens of seconds at
a time, for reasons outside the process (CPU time inflates with wall time,
so it is not descheduling). Run-to-run medians of raw times then spread far
more than any regression worth catching. The benchmark therefore reports
time metrics normalized to a yardstick kernel:

    normalized seconds = measured seconds * kernel.ref_s / yardstick seconds

where the yardstick time is the mean of the samples taken just before and
just after the measured work, in the same run, so drift within a run
cancels as well as drift between runs. A value reads as
"seconds on a machine where the kernel takes ref_s". The kernels do not
import bwcache; changing one changes every time normalized by it, so they
are part of the benchmark's definition. There are two:

* ``MIXED`` mixes the kinds of work the model does: counter-based Box-Muller
  draws over a 1 MiB counter (weight init), pre-norm transformer blocks at
  d=64 (small numpy ops) and d=256 (BLAS), a short pure-Python loop, and a
  CSV round trip. It normalizes process times and the sampling workloads.
* ``FILE_IO`` only writes, reads and parses small CSV files like the
  exports (in the checkout's ``.bench_out/``). It normalizes replay_sweep,
  whose points are Python text handling and small-file I/O and slow down in
  a host's slow phases more than ``MIXED`` does: on a 2-core shared VM,
  normalizing them by ``FILE_IO`` instead cut the run-to-run spread of
  their median time by about a third.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

_rng = np.random.default_rng(12345)


def _weights(d: int) -> dict:
    def w(*shape):
        return (_rng.standard_normal(shape) * 0.05).astype(np.float32)

    return {
        "x": _rng.standard_normal((64, d)).astype(np.float32),
        "qkv": w(d, 3 * d),
        "out": w(d, d),
        "mlp_in": w(d, 4 * d),
        "mlp_out": w(4 * d, d),
    }


_PARAMS = {d: _weights(d) for d in (64, 256)}
_COUNTER = np.arange(1, 2**17 + 1, dtype=np.uint64)
_SCRATCH = Path(__file__).resolve().parent.parent / ".bench_out"


def _norm(x):
    mean = x.mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)


def _heads(z, d):
    return z.reshape(4, 16, 4, d // 4).transpose(0, 2, 1, 3).reshape(16, 16, d // 4)


def _block(h, p, d):
    qkv = _norm(h) @ p["qkv"]
    q, k, v = _heads(qkv[:, :d], d), _heads(qkv[:, d : 2 * d], d), _heads(qkv[:, 2 * d :], d)
    s = q @ k.transpose(0, 2, 1)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
    h1 = ctx.reshape(4, 4, 16, d // 4).transpose(0, 2, 1, 3).reshape(64, d) @ p["out"] + h
    u = _norm(h1) @ p["mlp_in"]
    u = 0.5 * u * (1.0 + np.tanh(0.7978845608 * (u + 0.044715 * u * u * u)))
    out = u @ p["mlp_out"] + h1
    if not np.isfinite(out).all():
        raise ArithmeticError("yardstick produced a non-finite value")
    return out


def _draw_normals():
    z = np.uint64(0x2545F4914F6CDD1D) + _COUNTER * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = (2.0 * math.pi) * u[1::2]
    out = np.empty(u.size)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out.astype(np.float32)


def _csv_roundtrip(rows: int = 800) -> float:
    path = _SCRATCH / f"yardstick-{os.getpid()}.csv"
    lines = ["step,block,l1_rel"] + [f"{i // 8},{i % 8},{(i * 0.6180339887) % 1:.9g}" for i in range(rows)]
    path.write_text("\n".join(lines) + "\n")
    total = sum(float(line.split(",")[2]) for line in path.read_text().splitlines()[1:])
    path.unlink()
    return total


def _mixed() -> None:
    _draw_normals()
    for d, repeats in ((64, 12), (256, 2)):
        h = _PARAMS[d]["x"]
        for _ in range(repeats):
            h = _norm(_block(h, _PARAMS[d], d))
    acc = 0
    for i in range(10000):
        acc += i & 7
    for _ in range(3):
        _csv_roundtrip()


def _file_io() -> None:
    for _ in range(4):
        _csv_roundtrip()


@dataclass(frozen=True)
class Kernel:
    """A fixed piece of work and the seconds it takes at the reference speed."""

    name: str
    work: Callable[[], None]
    ref_s: float

    def once(self) -> float:
        """Seconds for one pass of the kernel."""
        _SCRATCH.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def measure(self, n: int) -> list[float]:
        return [self.once() for _ in range(n)]

    def normalize(self, seconds: float, yardstick_s: float) -> float:
        """``seconds`` rescaled to the reference speed, given the kernel's time next to it."""
        return seconds * self.ref_s / yardstick_s


MIXED = Kernel("mixed", _mixed, 0.02)
FILE_IO = Kernel("file_io", _file_io, 0.004)
