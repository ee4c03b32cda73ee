"""Dense numeric primitives shared by the sampler, the denoiser and the metrics.

Arrays are plain numpy ndarrays in C (row-major) order, except a matmul
operand stored transposed and the product it gives (below). The working
precision of the pipeline is float32; distances and quality metrics
accumulate in float64 on top of these primitives. Every op validates shapes
up front and checks its output for NaN/Inf, so failures surface at the op
that produced them instead of three modules later.

Ops may work in place on temporaries they allocated themselves, never on an
array they were given, and each still checks its own output. The in-place
forms keep numpy's evaluation order and dtype promotion, so each result is
bit-identical to the op written as one plain numpy expression.

Matmuls dispatch to BLAS through one op, ``matmul``, which picks the
product's orientation from the layout of its right operand. A weight stored
transposed (F-contiguous: the model's wide block projections) is multiplied
as (Wᵀ aᵀ)ᵀ when it has at least 2^17 values and a has at least 16 rows.
Per product at 64 rows, that takes 311-408 us at d=256 where a @ W takes
447-584 us; at d=64 it would be slower, 21-36 us against 16-27 us (see
``model._TRANSPOSABLE`` for the table). The two give the same bytes only
above both bounds, where OpenBLAS leaves its small-matrix kernels, so any
other stored-transposed operand is multiplied as a C copy. The operand
shapes and FLOP counts are those of a @ W either way. The BLAS build picks
its kernel per CPU, as numpy picks the SIMD kernels of its elementwise
functions, and float32 exp and tanh give different bits on different
targets. So a run is byte-identical across reruns, and across BLAS thread
counts, on one numpy build and one CPU dispatch target, not across targets.

The random stream is a SplitMix64 counter generator (golden-gamma increment,
two xor-multiply finalizer rounds) mapped to normals with a float32
Box-Muller built from IEEE-exact operations only, so its bytes are the same
on every dispatch target. It is specified to the bit so that a fixed seed
pins every weight and latent in the package, independent of numpy's own
Generator machinery. There is no stream object: a draw is the pure function
``rand_normal(state, shape)``, and each seeded family takes its state from
``mix_seed(seed, salt)``. Output i of a stream depends only on its state and
i, so ``rand_normal`` works through a request on one thread in chunks whose
temporaries stay the same size however large the request is.
"""

from __future__ import annotations

import math

import numpy as np

Tensor = np.ndarray

LAYER_NORM_EPS = 1e-5
# matmul takes the transposed product of a b stored transposed only where it
# was measured to give the bytes of a @ b: a of at least TRANSPOSED_MIN_ROWS
# rows and b of at least TRANSPOSED_MIN_SIZE values. On the block weights'
# shapes, with d up to 512 and 16 to 1024 rows, 0 of 3782 products differed.
# Below either bound OpenBLAS's small-matrix kernels sum in another order:
# with 1-15 rows, 185 of 930 products differed, and some 64x64 and 256x64
# products did at 16-19 rows.
TRANSPOSED_MIN_ROWS = 16
TRANSPOSED_MIN_SIZE = 1 << 17

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
    """Product of a [m, k] and b [k, n] in the operands' dtype.

    A b stored transposed (F-contiguous, not C-contiguous) of at least
    TRANSPOSED_MIN_SIZE values is multiplied as (bᵀ aᵀ)ᵀ when a has at least
    TRANSPOSED_MIN_ROWS rows, and the result is the F-contiguous transpose of
    that product. Any other such b is multiplied as a C copy. Either way the
    bytes are those of a @ np.ascontiguousarray(b), with the same FLOPs.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if b.flags.f_contiguous and not b.flags.c_contiguous:
        if a.shape[0] >= TRANSPOSED_MIN_ROWS and b.size >= TRANSPOSED_MIN_SIZE:
            return _check_finite(np.matmul(b.T, a.T).T, "matmul")
        b = np.ascontiguousarray(b)
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


# Values per chunk of a draw. A chunk's uint64 counters take 256 KiB and each
# int32 or float32 temporary 64 KiB, about 1.1 MiB at once, so a draw's
# temporaries stay in L2 and do not grow with its size. The d=256 model's
# 8.4M values drew in 49 ms in chunks of 2^15 or 2^16 values, 53 ms in 2^14
# and 68 ms in 2^13 (one thread, Xeon with AVX-512).
_CHUNK = 1 << 15
# Counter offsets (i + 1) gamma mod 2^64 of one chunk's positions i, the even
# positions (radii) in row 0 and the odd ones (angles) in row 1.
_OFFSETS = (np.arange(1, _CHUNK + 1, dtype=np.uint64) * np.uint64(_GAMMA)).reshape(-1, 2).T.copy()
_OFFSETS.flags.writeable = False
# float32 polynomial coefficients, fitted for least maximum relative error:
# -4 atanh(f) / f in f^2 for |f| <= 3 - 2 sqrt(2) (-4 times the atanh series),
# and sin(pi d / 2) / d and cos(pi d / 2) (constant term 1) in d^2 for
# |d| <= 1/2.
_LOG_POLY = tuple(map(np.float32, (-4.0, -1.3333355, -0.79955137, -0.5974214)))
_SIN_POLY = tuple(map(np.float32, (1.5707964, -0.6459635, 0.07968003, -0.004601658)))
_COS_POLY = tuple(map(np.float32, (1.0, -1.2336977, 0.25360322, -0.020417282)))
_MINUS_2_LN2 = np.float32(-2.0 * math.log(2.0))
_SQRT_HALF_BITS = 0x3F3504F3  # float32 bits of the largest value below sqrt(1/2)
_SIGN = np.uint32(1 << 31)


def rand_normal(state: int, shape: tuple[int, ...] | int) -> Tensor:
    """Float32 Box-Muller normals from the 24-bit uniforms of the stream at ``state``.

    Output i of the stream is mix64(state + (i + 1) gamma), with ``state``
    masked to 64 bits, so a draw is a pure function of (state, shape). Its top
    24 bits k give the uniform. Draws are consumed in pairs; an odd-sized
    request pads its last pair, so requests of n and n+1 values agree on their
    common prefix. Of a pair, the even position gives the radius
    sqrt(-2 ln u) of u = (k + 1) 2^-24 in (0, 1], so |x| <= sqrt(48 ln 2),
    about 5.77, and the odd one the angle 2 pi k 2^-24.

    The transform runs in float32 on IEEE-exact operations only (+, -, *, /,
    sqrt, integer shifts, masks and xors, and exact int-to-float conversions),
    so its bytes do not depend on numpy's CPU dispatch target:

    - ln u is e ln 2 + ln m from the exponent e and the mantissa m in
      [sqrt(1/2), sqrt(2)) of u's bits, with ln m = 2 atanh((m - 1) / (m + 1))
      from a series in ((m - 1) / (m + 1))^2;
    - the angle is cut exactly, in integers, into the nearest quarter turn q
      and a remainder d in [-1/2, 1/2) quarter turns, whose sine and cosine
      are polynomials in d^2; q swaps them (odd q) and flips the signs of
      both outputs (q = 2, 3) by bit operations.

    The request is worked through on the caller's thread in chunks of _CHUNK
    values, each written straight into the float32 result.
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
    for a in range(0, m, _CHUNK):
        k = min(m - a, _CHUNK)
        # Counter form of SplitMix64: position a + i is mix64(start + (a + i + 1) gamma).
        z = _OFFSETS[:, : k // 2] + np.uint64((start + a * _GAMMA) & _MASK64)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mult)
        # mix64's last step, z ^ (z >> 31), leaves the top 33 bits as they are.
        z >>= np.uint64(40)
        radius, angle = z.astype(np.int32)
        _box_muller(radius, angle, out[a : a + k : 2], out[a + 1 : a + k : 2])
    return result


def _box_muller(radius: Tensor, angle: Tensor, even: Tensor, odd: Tensor) -> None:
    """Write r cos and r sin of each pair's top-24-bit integers into ``even``
    and ``odd``, which is one short on a padded last pair; ``radius`` and
    ``angle`` are int32 arrays this call may overwrite."""
    # -2 ln u with u = (radius + 1) 2^-24: the int32 view of the float32
    # radius + 1 less sqrt(1/2)'s bits and 24 exponents holds u's exponent e
    # above its mantissa m, reduced to [sqrt(1/2), sqrt(2)).
    radius += 1
    v = radius.astype(np.float32)
    bits = v.view(np.int32)
    bits -= _SQRT_HALF_BITS + (24 << 23)
    e = (bits >> 23).astype(np.float32)
    bits &= 0x7FFFFF
    bits += _SQRT_HALF_BITS  # v now holds m
    f = v - np.float32(1.0)
    v += np.float32(1.0)
    f /= v
    r = _horner(f * f, _LOG_POLY)
    r *= f
    e *= _MINUS_2_LN2
    r += e
    np.sqrt(r, out=r)
    # The angle in 2^-24 turns: the signed low 22 bits are the remainder d in
    # 2^-22 quarter turns, and after adding half a quarter turn, bits 22-23
    # are the quadrant q, shifted here to bits 30-31.
    d = (angle.view(np.uint32) << 10).view(np.int32)
    d >>= 10
    d = d.astype(np.float32)
    d *= np.float32(2.0**-22)
    t = d * d
    sin = _horner(t, _SIN_POLY)
    sin *= d
    cos = _horner(t, _COS_POLY)
    angle += 1 << 21
    q = angle.view(np.uint32)
    q <<= 8
    r_bits = r.view(np.uint32)
    r_bits ^= q & _SIGN  # q = 2, 3: both outputs change sign
    swap = (q << 1).view(np.int32)
    swap >>= 31
    swap = swap.view(np.uint32)  # all ones where q is odd
    cos_bits, sin_bits = cos.view(np.uint32), sin.view(np.uint32)
    diff = cos_bits ^ sin_bits
    diff &= swap
    sin_bits ^= diff
    cos_bits ^= diff
    cos_bits ^= swap & _SIGN  # odd q: (cos, sin) becomes (-sin, cos)
    np.multiply(r, cos, out=even)
    np.multiply(r[: odd.size], sin[: odd.size], out=odd)


def _horner(t: Tensor, coefficients: tuple[np.float32, ...]) -> Tensor:
    """sum(c_j t^j) by Horner's rule, in float32, in a new array."""
    acc = t * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        acc += c
        acc *= t
    acc += coefficients[0]
    return acc
