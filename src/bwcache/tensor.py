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

Determinism has two tiers:

* Default mode dispatches matmuls to BLAS. On a given machine and build this
  is bit-reproducible run to run, which is what the reproducibility tests
  rely on, but the exact bits may differ across machines or BLAS builds.
* Deterministic mode (inside a ``with deterministic():`` scope) routes
  matmuls through a fixed-order einsum contraction that never changes its
  accumulation order with thread count or kernel selection. It is several
  times slower and only worth it when byte-stable exports matter more than
  speed. The mode is a context variable: it is restored when the scope exits,
  by an exception too, and a scope in one thread or context never reaches
  another.

The random stream is a SplitMix64 counter generator (golden-gamma increment,
two xor-multiply finalizer rounds) mapped to normals with Box-Muller. It is
specified to the bit so that a fixed seed pins every weight and latent in the
package, independent of numpy's own Generator machinery.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Iterator

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


_deterministic = contextvars.ContextVar("bwcache_deterministic", default=False)


@contextlib.contextmanager
def deterministic(enabled: bool = True) -> Iterator[None]:
    """Run the enclosed matmuls with fixed-order accumulation (or, with False, BLAS)."""
    token = _deterministic.set(bool(enabled))
    try:
        yield
    finally:
        _deterministic.reset(token)


def is_deterministic() -> bool:
    return _deterministic.get()


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
    if _deterministic.get():
        out = np.einsum("ik,kj->ij", a, b)
    else:
        out = a @ b
    return _check_finite(out, "matmul")


def batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked product of a [g, m, k] and b [g, k, n], one matmul per leading index."""
    if a.ndim != 3 or b.ndim != 3:
        raise DimensionError(f"batched_matmul expects 3-d operands, got {a.shape} @ {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise DimensionError(f"batched_matmul shapes incompatible: {a.shape} @ {b.shape}")
    if _deterministic.get():
        out = np.einsum("gik,gkj->gij", a, b)
    else:
        out = a @ b
    return _check_finite(out, "batched_matmul")


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
    # (float64 for integer input) divided by the intp row count.
    n = np.intp(x.shape[1])
    acc = np.float64 if x.dtype.kind in "biu" else None
    mean = np.add.reduce(x, axis=1, dtype=acc, keepdims=True)
    np.true_divide(mean, n, out=mean, casting="unsafe")
    normed = x - mean
    var = np.add.reduce(np.square(normed), axis=1, keepdims=True)  # population variance
    np.true_divide(var, n, out=var, casting="unsafe")
    var += LAYER_NORM_EPS
    normed /= np.sqrt(var, out=var)
    out = normed * (1.0 + scale) + shift
    return _check_finite(out, "layer_norm")


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, max-subtracted so large scores stay finite."""
    if x.ndim < 1 or x.shape[-1] == 0:
        raise DimensionError(f"softmax_rows needs a non-empty last axis, got {x.shape}")
    e = x - _row_max(x)
    # Integer scores promote in exp, so only a float difference is reused.
    e = np.exp(e, out=e if e.dtype.kind == "f" else None)
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


class Rng:
    """SplitMix64 stream. Same seed, same sequence, on every platform."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @property
    def state(self) -> int:
        return self._state

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def _bulk_u64(self, n: int) -> Tensor:
        # Counter form of the scalar loop: output i is mix64(state + i * gamma),
        # so the vectorized path emits exactly the scalar sequence.
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + idx * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def rand_normal(rng: Rng, shape: tuple[int, ...] | int, dtype=np.float32) -> Tensor:
    """Standard normals via Box-Muller over the (0, 1] uniforms of ``rng``.

    Draws are consumed in pairs; an odd-sized request still advances the
    stream by the rounded-up even count, so requests of n and n+1 values
    agree on their common prefix.
    """
    if isinstance(shape, int):
        shape = (shape,)
    n = 1
    for s in shape:
        if s < 0:
            raise DimensionError(f"negative dimension in {shape}")
        n *= s
    m = n + (n & 1)
    bits = rng._bulk_u64(m)
    # Top 53 bits, shifted into (0, 1] so log() below never sees zero.
    u = ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(m, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n].reshape(shape).astype(dtype)
