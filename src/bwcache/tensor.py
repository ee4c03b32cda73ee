"""Dense numeric primitives shared by the sampler, the denoiser and the metrics.

Arrays are plain numpy ndarrays in C (row-major) order. The working precision
of the pipeline is float32; distances and quality metrics accumulate in
float64 on top of these primitives. Every op validates shapes up front and
checks its output for NaN/Inf, so failures surface at the op that produced
them instead of three modules later.

Ops may work in place on temporaries they allocated themselves, never on an
array they were given, and each still checks its own output. The in-place
forms keep numpy's evaluation order and dtype promotion, so each result is
bit-identical to the op written as one plain numpy expression.

Matmuls dispatch to BLAS; there is no second matmul path. The BLAS build
picks its kernel per CPU, as numpy picks the SIMD kernels of its elementwise
functions, and float32 exp, tanh, log, cos and sin and float64 log and tanh
give different bits on different targets. So a run is byte-identical across
reruns, and across BLAS thread counts, on one numpy build and one CPU
dispatch target, not across targets.

The random stream is a SplitMix64 counter generator (golden-gamma increment,
two xor-multiply finalizer rounds) mapped to normals with Box-Muller. It is
specified to the bit so that a fixed seed pins every weight and latent in the
package, independent of numpy's own Generator machinery. There is no stream
object: a draw is the pure function ``rand_normal(state, shape)``, and each
seeded family takes its state from ``mix_seed(seed, salt)``. Output i of a
stream depends only on its state and i, so ``rand_normal`` works through a
request in chunks whose temporaries are 128 KiB each, and splits the chunks
into contiguous spans that threads fill side by side, at most one thread per
CPU available to the process. Its values are bit-identical to one pass over
the whole request, whatever the number of threads.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

Tensor = np.ndarray

LAYER_NORM_EPS = 1e-5

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class DimensionError(ValueError):
    """Raised when operand shapes do not match an op's contract."""


class NonFiniteError(ArithmeticError):
    """Raised when an op produces NaN or Inf."""


def _check_finite(out: Tensor, op: str) -> Tensor:
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{op} produced a non-finite value")
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of a [m, k] and b [k, n] in the operands' dtype."""
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    return _check_finite(a @ b, "matmul")


def batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked product of a [g, m, k] and b [g, k, n], one matmul per leading index."""
    if a.ndim != 3 or b.ndim != 3:
        raise DimensionError(f"batched_matmul expects 3-d operands, got {a.shape} @ {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise DimensionError(f"batched_matmul shapes incompatible: {a.shape} @ {b.shape}")
    return _check_finite(a @ b, "batched_matmul")


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Row-wise normalization followed by the modulation x_hat * (1 + scale) + shift.

    Uses the population variance stabilized by LAYER_NORM_EPS. ``scale`` and
    ``shift`` are 1-d over the feature axis; scale == shift == 0 is plain
    layer norm.
    """
    if x.ndim != 2:
        raise DimensionError(f"layer_norm expects a 2-d input, got {x.shape}")
    if scale.shape != (x.shape[1],) or shift.shape != (x.shape[1],):
        raise DimensionError(
            f"layer_norm modulation shapes {scale.shape}/{shift.shape} "
            f"do not match feature width {x.shape[1]}"
        )
    # np.mean / np.var arithmetic with the mean taken once: a row sum
    # divided by the intp row count.
    n = np.intp(x.shape[1])
    mean = np.add.reduce(x, axis=1, keepdims=True)
    np.true_divide(mean, n, out=mean)
    normed = x - mean
    var = np.add.reduce(np.square(normed), axis=1, keepdims=True)  # population variance
    np.true_divide(var, n, out=var)
    var += LAYER_NORM_EPS
    normed /= np.sqrt(var, out=var)
    out = normed * (1.0 + scale) + shift
    return _check_finite(out, "layer_norm")


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, max-subtracted so large scores stay finite."""
    if x.ndim < 1 or x.shape[-1] == 0:
        raise DimensionError(f"softmax_rows needs a non-empty last axis, got {x.shape}")
    e = x - _row_max(x)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return _check_finite(e, "softmax_rows")


def _row_max(x: Tensor) -> Tensor:
    """The values of x.max(axis=-1, keepdims=True), taken across slabs.

    Reducing the last axis of short rows runs numpy's reduction loop once per
    row. In a C-order copy of x.T that axis comes first, so the max becomes
    len - 1 elementwise np.maximum passes over whole slabs, several times
    faster at attention's row lengths. A max is exact in any order and
    np.maximum propagates NaN, so the values are those of the reduction (of
    +0 and -0 either may come out; x minus either is the same after exp).
    """
    return np.maximum.reduce(x.T.copy(), axis=0).T[..., None]


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
    c = math.sqrt(2.0 / math.pi)
    t = 0.044715 * x
    t *= x
    t *= x
    t += x
    t *= c
    np.tanh(t, out=t)
    t += 1.0
    # (0.5 (1 + tanh)) x equals (0.5 x)(1 + tanh) bit for bit: 0.5 (1 + tanh)
    # is exact, 0.5 x is inexact only where it is subnormal and 1 + tanh
    # rounds to 1 anyway, and a factor <= 1 cannot overflow.
    t *= 0.5
    t *= x
    return _check_finite(t, "gelu")


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix_seed(seed: int, salt: int) -> int:
    """Derive an independent stream seed from (seed, salt) with one finalizer pass."""
    return _mix64((seed ^ ((salt + 1) * _GAMMA)) & _MASK64)


# Values per chunk of a draw: each uint64 or float64 temporary is 128 KiB, so
# one chunk's mixing and Box-Muller passes stay in L2 and a draw's temporaries
# do not grow with its size.
_CHUNK = 1 << 14
# Counter offsets (i + 1) * gamma mod 2^64 of one chunk.
_OFFSETS = np.arange(1, _CHUNK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_OFFSETS.flags.writeable = False
# Most threads one draw runs on: one per CPU this process may use.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def rand_normal(state: int, shape: tuple[int, ...] | int) -> Tensor:
    """Float32 Box-Muller normals from the (0, 1] uniforms of the stream at ``state``.

    Output i of the stream is mix64(state + (i + 1) gamma), with ``state``
    masked to 64 bits, so a draw is a pure function of (state, shape).
    Draws are consumed in pairs; an odd-sized request pads its last pair, so
    requests of n and n+1 values agree on their common prefix.

    The request is cut into chunks of _CHUNK values, and the chunks into one
    contiguous span per worker: at most one thread per CPU available to the
    process, and never more than there are chunks. The caller fills the first
    span itself and joins the threads of the others; a one-chunk draw starts
    no thread. Each span works through its chunks from their own stream
    positions, with 128 KiB temporaries per chunk, writing each chunk straight
    into the float32 result. The values are bit-identical to one pass over
    the whole request (float64 uniforms, float64 Box-Muller, one cast to
    float32 at the end), whatever the number of threads. A span that fails
    raises in the caller once every thread has been joined.
    """
    if isinstance(shape, int):
        shape = (shape,)
    n = 1
    for s in shape:
        if s < 0:
            raise DimensionError(f"negative dimension in {shape}")
        n *= s
    m = n + (n & 1)
    result = np.empty(shape, dtype=np.float32)
    out = result.reshape(-1)
    start = state & _MASK64
    chunks = -(-m // _CHUNK)
    workers = max(1, min(_WORKERS, chunks))
    edges = [j * chunks // workers * _CHUNK for j in range(workers)] + [m]
    errors: list[BaseException] = []

    def run(lo: int, hi: int) -> None:
        try:
            _fill_span(start, out, lo, hi)
        except BaseException as exc:  # re-raised in the caller after the join
            errors.append(exc)

    threads: list[threading.Thread] = []
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            thread = threading.Thread(target=run, args=(lo, hi), name="bwcache-rand-normal")
            thread.start()
            threads.append(thread)
        _fill_span(start, out, edges[0], edges[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return result


def _fill_span(start: int, out: Tensor, lo: int, hi: int) -> None:
    """Write padded stream positions [lo, hi) of a draw from state ``start`` into ``out``.

    ``lo`` is a multiple of _CHUNK and ``hi`` is a chunk edge or the padded
    end of the draw; only the last pair of the draw may lack its odd slot in
    ``out``. Each of a chunk's temporaries is 128 KiB.
    """
    for a in range(lo, hi, _CHUNK):
        k = min(hi - a, _CHUNK)
        # Counter form of SplitMix64: position a + i is mix64(start + (a + i + 1) gamma).
        z = _OFFSETS[:k] + np.uint64((start + a * _GAMMA) & _MASK64)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
        z = z ^ (z >> np.uint64(31))
        # Top 53 bits, shifted into (0, 1] so log() below never sees zero.
        u = ((z >> np.uint64(11)) + 1.0) * 2.0**-53
        r = np.sqrt(np.log(u[0::2]) * -2.0)
        theta = u[1::2] * (2.0 * math.pi)
        out[a : a + k : 2] = r * np.cos(theta)
        odd = out[a + 1 : a + k : 2]  # one short on the padded last pair
        odd[:] = (r * np.sin(theta))[: odd.size]
