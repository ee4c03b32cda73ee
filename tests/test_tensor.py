"""Tensor op tests against straight-line oracles.

Every numeric op is checked against an independent re-derivation: matmul
against a triple loop, the normalizations against their textbook formulas in
float64, and the random stream against a scalar SplitMix64 and a scalar
float32 Box-Muller written out long hand. The oracles deliberately share no
code with the implementation.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bwcache import tensor
from bwcache.tensor import (
    DimensionError,
    NonFiniteError,
    gelu,
    layer_norm,
    matmul,
    batched_matmul,
    mix_seed,
    rand_normal,
    softmax_rows,
)

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64 stream increment
CHUNK = tensor._CHUNK  # values per chunk of a rand_normal draw


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """Scalar SplitMix64, written independently of the implementation."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z = z ^ (z >> 31)
        out.append(z)
    return out


def unmix64(z: int) -> int:
    """Inverse of the SplitMix64 finalizer: the counter value that mixes to ``z``."""
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    return z ^ (z >> 30) ^ (z >> 60)


F32 = np.float32
# The draw's float32 polynomials, lowest power first:
# -4 atanh(f) / f in f^2, and sin(pi d / 2) / d and cos(pi d / 2) in d^2.
LOG_POLY = (-4.0, -1.3333355, -0.79955137, -0.5974214)
SIN_POLY = (1.5707964, -0.6459635, 0.07968003, -0.004601658)
COS_POLY = (1.0, -1.2336977, 0.25360322, -0.020417282)
MINUS_2_LN2 = F32(-2.0 * math.log(2.0))
SQRT_HALF_BITS = 0x3F3504F3  # float32 bits just below sqrt(1/2)


def horner_f32(t, coefficients):
    """sum(c_j t^j) in float32, innermost term first: the draw's evaluation order."""
    acc = t * F32(coefficients[-1])
    for c in coefficients[-2:0:-1]:
        acc = (acc + F32(c)) * t
    return acc + F32(coefficients[0])


def f32_bits(x) -> int:
    return struct.unpack("<I", struct.pack("<f", x))[0]


def f32_from_bits(bits: int):
    return F32(struct.unpack("<f", struct.pack("<I", bits))[0])


def box_muller_reference(state: int, n: int) -> np.ndarray:
    """The draw long hand, one pair at a time, in np.float32 scalar ops.

    Of each pair of stream outputs the top 24 bits k1, k2 give the radius's
    uniform u = (k1 + 1) 2^-24 and the angle k2 2^-24 turns. ln u is e ln 2 +
    ln m, with u = 2^e m and m in [sqrt(1/2), sqrt(2)), and ln m comes from
    its atanh series. The angle is the nearest quarter turn q plus d quarter
    turns, d in [-1/2, 1/2), and (r cos, r sin) at d is turned by q.
    """
    m = n + (n % 2)
    bits = splitmix64_reference(state, m)
    out = []
    for i in range(0, m, 2):
        k1, k2 = bits[i] >> 40, bits[i + 1] >> 40
        u = F32(k1 + 1) * F32(2.0**-24)
        e = (f32_bits(u) - SQRT_HALF_BITS) >> 23
        mant = f32_from_bits(f32_bits(u) - (e << 23))
        f = (mant - F32(1.0)) / (mant + F32(1.0))
        r = np.sqrt(horner_f32(f * f, LOG_POLY) * f + F32(e) * MINUS_2_LN2)
        q = (k2 + (1 << 21)) >> 22
        d = F32(k2 - (q << 22)) * F32(2.0**-22)
        t = d * d
        rc, rs = r * horner_f32(t, COS_POLY), r * (horner_f32(t, SIN_POLY) * d)
        out += [(rc, rs), (-rs, rc), (-rc, -rs), (rs, -rc)][q % 4]
    return np.array(out[:n], dtype=np.float32)


def one_shot_bits(state: int, m: int) -> np.ndarray:
    """The first m u64 outputs of the stream at ``state``, as one counter-form numpy pass."""
    idx = np.arange(1, m + 1, dtype=np.uint64)
    z = np.uint64(state & MASK) + idx * np.uint64(GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def one_shot_rand_normal(state: int, shape) -> np.ndarray:
    """The draw as one whole-request numpy pass: the scalar reference's
    operations on whole arrays, with the quadrant picked by np.choose. The
    reference for the chunked implementation at sizes the scalar one is too
    slow for."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    n = math.prod(shape)
    top = (one_shot_bits(state, n + (n & 1)) >> np.uint64(40)).astype(np.int64)
    k1, k2 = top[0::2], top[1::2]
    u = (k1 + 1).astype(np.float32) * F32(2.0**-24)
    e = (u.view(np.int32).astype(np.int64) - SQRT_HALF_BITS) >> 23
    mant = (u.view(np.int32) - (e << 23).astype(np.int32)).view(np.float32)
    f = (mant - F32(1.0)) / (mant + F32(1.0))
    r = np.sqrt(horner_f32(f * f, LOG_POLY) * f + e.astype(np.float32) * MINUS_2_LN2)
    q = (k2 + (1 << 21)) >> 22
    d = (k2 - (q << 22)).astype(np.float32) * F32(2.0**-22)
    t = d * d
    rc, rs = r * horner_f32(t, COS_POLY), r * (horner_f32(t, SIN_POLY) * d)
    out = np.empty(top.size, dtype=np.float32)
    out[0::2] = np.choose(q % 4, [rc, -rs, -rc, rs])
    out[1::2] = np.choose(q % 4, [rs, rc, -rs, -rc])
    return out[:n].reshape(shape)


def assert_draw_matches_one_shot(n: int, seed: int) -> None:
    """rand_normal's values, dtype and shape equal the one-pass form's."""
    got = rand_normal(seed, (n,))
    want = one_shot_rand_normal(seed, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out


def make_random(shape, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


# Each matmul op with its leading (batch) axes.
MATMUL_OPS = [
    pytest.param(matmul, (), id="matmul"),
    pytest.param(batched_matmul, (3,), id="batched_matmul"),
]


class TestMatmul:
    def test_matches_triple_loop_oracle(self):
        """matmul agrees with an explicit triple loop in float64."""
        a = make_random((5, 7), seed=1)
        b = make_random((7, 3), seed=2)
        want = matmul_reference(a, b)
        got = matmul(a, b)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_small_integer_product_is_exact(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        b = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32)
        want = np.array([[19.0, 22.0], [43.0, 50.0]], dtype=np.float32)
        assert np.array_equal(matmul(a, b), want)

    @pytest.mark.parametrize("op, lead", MATMUL_OPS)
    def test_identity_is_exact(self, op, lead):
        """I @ A and A @ I reproduce A bit for bit, and each op is ``a @ b``."""
        a = make_random((*lead, 6, 6), seed=5)
        eye = np.broadcast_to(np.eye(6, dtype=np.float32), a.shape).copy()
        assert np.array_equal(op(eye, a), a)
        assert np.array_equal(op(a, eye), a)
        assert op(eye, a).tobytes() == (eye @ a).tobytes()

    def test_shape_mismatch_raises(self):
        """Mismatched inner dimensions raise DimensionError naming both shapes."""
        a = make_random((2, 3))
        b = make_random((4, 2))
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(a, b)
        with pytest.raises(DimensionError):
            matmul(a[0], b)

    def test_non_finite_output_raises(self):
        """An overflowing product raises NonFiniteError instead of returning
        inf, also when it is taken as the transposed product."""
        a = np.full((2, 2), 1e30, dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="matmul"):
            matmul(a, a)
        rows = np.full((16, 256), 1e30, dtype=np.float32)
        wide = np.asfortranarray(np.full((256, 512), 1e30, dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="matmul"):
            matmul(rows, wide)

    def test_batched_matches_per_slice_matmul(self):
        """batched_matmul equals a loop of 2-d matmuls slice by slice."""
        a = make_random((3, 4, 5), seed=6)
        b = make_random((3, 5, 2), seed=7)
        got = batched_matmul(a, b)
        for g in range(3):
            np.testing.assert_allclose(
                got[g], matmul_reference(a[g], b[g]), rtol=1e-5, atol=1e-6
            )

    def test_batched_shape_checks(self):
        a = make_random((3, 4, 5))
        with pytest.raises(DimensionError):
            batched_matmul(a, make_random((2, 5, 2)))
        with pytest.raises(DimensionError):
            batched_matmul(a, make_random((3, 4, 2)))


def block_product_shapes(d: int) -> list[tuple[int, int]]:
    """The [k, n] of a block's qkv, out, mlp_in and mlp_out projections."""
    return [(d, 3 * d), (d, d), (d, 4 * d), (4 * d, d)]


# At d = 64 every projection is under TRANSPOSED_MIN_SIZE; at 192 only the
# MLP's reach it, at 256 qkv too, and at 384 all four.
TRANSPOSED_WIDTHS = (64, 192, 256, 384)


def stored_transposed(k: int, n: int, seed: int) -> np.ndarray:
    """A [k, n] weight stored as its transpose: an F-contiguous view."""
    return np.ascontiguousarray(make_random((k, n), seed=seed).T).T


class TestTransposedOperand:
    @pytest.mark.parametrize("d", TRANSPOSED_WIDTHS)
    def test_bytes_do_not_depend_on_the_weight_layout(self, d):
        """With 16 or more rows, a product with a weight stored transposed
        gives the bytes of the product with its C copy, for a C- or
        F-ordered left operand (the GELU output that meets mlp_out is F)."""
        for k, n in block_product_shapes(d):
            w = stored_transposed(k, n, seed=d + n)
            assert w.flags.f_contiguous and not w.flags.c_contiguous
            w_c = np.ascontiguousarray(w)
            for rows in (16, 17, 31, 64, 100, 256):
                a = make_random((rows, k), seed=rows)
                want = (a @ w_c).tobytes()
                for left in (a, np.asfortranarray(a)):
                    got = matmul(left, w)
                    assert got.tobytes() == want, (d, k, n, rows)
                    # The transposed product is taken exactly at the size rule.
                    assert got.flags.f_contiguous is (k * n >= tensor.TRANSPOSED_MIN_SIZE)

    def test_fewer_than_16_rows_never_take_the_transposed_product(self):
        """With 1-15 rows a weight stored transposed is multiplied as a C
        copy: the result is C-ordered and has the bytes of a @ W. (Measured
        on the block shapes of at least 2^17 values, the transposed product
        gave other bytes in 185 of 930 products with 1-15 rows.)"""
        assert tensor.TRANSPOSED_MIN_ROWS == 16
        for d in TRANSPOSED_WIDTHS[1:3]:
            for k, n in block_product_shapes(d):
                w = stored_transposed(k, n, seed=d + n)
                w_c = np.ascontiguousarray(w)
                for rows in range(1, 16):
                    a = make_random((rows, k), seed=rows)
                    got = matmul(a, w)
                    assert got.flags.c_contiguous
                    assert got.tobytes() == (a @ w_c).tobytes(), (d, k, n, rows)


class TestLayerNorm:
    def test_matches_direct_formula(self):
        """layer_norm agrees with the float64 textbook formula."""
        x = make_random((4, 16), seed=8)
        scale = make_random((16,), seed=9)
        shift = make_random((16,), seed=10)
        x64 = x.astype(np.float64)
        mu = x64.mean(axis=1, keepdims=True)
        var = ((x64 - mu) ** 2).mean(axis=1, keepdims=True)
        want = (x64 - mu) / np.sqrt(var + 1e-5) * (1.0 + scale) + shift
        got = layer_norm(x, scale, shift)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_normalized_rows_have_zero_mean_unit_var(self):
        """With zero modulation each output row is standardized."""
        x = make_random((8, 64), seed=11) * 3.0 + 1.5
        zeros = np.zeros(64, dtype=np.float32)
        out = layer_norm(x, zeros, zeros)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=1), 1.0, rtol=1e-3)

    def test_constant_row_maps_to_shift(self):
        """A constant row normalizes to zero, so the output is the shift."""
        x = np.ones((1, 3), dtype=np.float32)
        zeros = np.zeros(3, dtype=np.float32)
        out = layer_norm(x, zeros, zeros)
        np.testing.assert_allclose(out, 0.0, atol=1e-6)
        shift = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        out2 = layer_norm(x, zeros, shift)
        np.testing.assert_allclose(out2, shift[None, :], atol=1e-5)

    def test_already_standardized_row_is_nearly_fixed(self):
        """[1, -1] has mean 0 and variance 1; only the epsilon shrinks it."""
        x = np.array([[1.0, -1.0]], dtype=np.float32)
        zeros = np.zeros(2, dtype=np.float32)
        want = np.array([1.0, -1.0]) / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(layer_norm(x, zeros, zeros)[0], want, rtol=1e-6)

    def test_shift_moves_row_means(self):
        x = make_random((5, 8), seed=21)
        zeros = np.zeros(8, dtype=np.float32)
        out = layer_norm(x, zeros, np.full(8, 2.5, dtype=np.float32))
        np.testing.assert_allclose(out.mean(axis=1), 2.5, atol=1e-5)

    def test_feature_width_mismatch_raises(self):
        x = make_random((2, 4))
        with pytest.raises(DimensionError):
            layer_norm(x, np.zeros(3, dtype=np.float32), np.zeros(4, dtype=np.float32))


class TestSoftmax:
    def test_matches_direct_formula(self):
        x = make_random((5, 9), seed=12) * 4.0
        x64 = x.astype(np.float64)
        e = np.exp(x64 - x64.max(axis=1, keepdims=True))
        want = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(softmax_rows(x), want, rtol=1e-5, atol=1e-7)

    def test_equal_scores_give_uniform_rows(self):
        """[1000, 1000] maps to [0.5, 0.5]; the max subtraction keeps exp in range."""
        x = np.array([[1000.0, 1000.0], [0.0, 0.0]], dtype=np.float32)
        np.testing.assert_allclose(softmax_rows(x), 0.5, atol=1e-7)

    def test_one_two_three_row_pins_the_formula(self):
        e = [math.exp(v - 3.0) for v in (1.0, 2.0, 3.0)]
        want = np.array([v / sum(e) for v in e])
        got = softmax_rows(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))[0]
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_rows_sum_to_one_at_large_magnitude(self):
        x = (make_random((20, 33), seed=13) * 1e4).astype(np.float32)
        out = softmax_rows(x)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert (out >= 0.0).all()

    def test_applies_to_last_axis_of_stacked_input(self):
        x = make_random((2, 3, 5), seed=14)
        out = softmax_rows(x)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(out[1, 2], softmax_rows(x[1])[2], atol=1e-7)

    def test_empty_last_axis_raises(self):
        with pytest.raises(DimensionError):
            softmax_rows(np.zeros((3, 0), dtype=np.float32))


class TestGelu:
    def test_matches_direct_formula(self):
        x = make_random((64,), seed=15) * 3.0
        x64 = x.astype(np.float64)
        c = math.sqrt(2.0 / math.pi)
        want = 0.5 * x64 * (1.0 + np.tanh(c * (x64 + 0.044715 * x64**3)))
        np.testing.assert_allclose(gelu(x), want, rtol=1e-5, atol=1e-6)

    def test_zero_maps_to_zero(self):
        assert gelu(np.zeros(3, dtype=np.float32))[0] == 0.0

    def test_unit_input_pins_the_constant(self):
        c = math.sqrt(2.0 / math.pi)
        want = 0.5 * (1.0 + math.tanh(c * 1.044715))
        assert float(gelu(np.array([1.0]))[0]) == pytest.approx(want, rel=1e-12)

    def test_large_positive_input_passes_through(self):
        """gelu(10) is 10 to within 1e-3 relative; the tanh saturates to one."""
        x = np.array([10.0], dtype=np.float32)
        assert abs(float(gelu(x)[0]) - 10.0) / 10.0 < 1e-3


# The plain numpy expressions the ops must reproduce bit for bit, whatever
# in-place evaluation the ops use internally.
def layer_norm_numpy(x, scale, shift):
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5) * (1.0 + scale) + shift


def softmax_numpy(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gelu_numpy(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


FLOAT_DTYPES = st.sampled_from([np.dtype(np.float32), np.dtype(np.float64)])


@st.composite
def float_arrays(draw, shape, dtype=None, max_magnitude=2.0**14):
    dtype = draw(FLOAT_DTYPES) if dtype is None else dtype
    elements = st.floats(
        -max_magnitude, max_magnitude, width=8 * dtype.itemsize, allow_subnormal=False
    )
    return draw(hnp.arrays(dtype, shape, elements=elements))


def last_axis_shapes(min_dims, max_dims):
    """Shapes whose last axis is 1-33 long, odd lengths included."""
    return st.tuples(
        st.lists(st.integers(1, 4), min_size=min_dims - 1, max_size=max_dims - 1),
        st.integers(1, 33),
    ).map(lambda p: (*p[0], p[1]))


def assert_bit_equal_and_inputs_kept(op, oracle, *args):
    before = [a.copy() for a in args]
    with np.errstate(all="ignore"):
        want = oracle(*args)
    if np.isfinite(want).all():
        with np.errstate(all="ignore"):
            got = op(*args)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
            op(*args)
    for a, b in zip(args, before):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLeanOpsMatchNumpyExpressions:
    """The ops are byte-equal to the textbook numpy expressions and never
    write into their inputs."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5), width=st.integers(1, 33))
    def test_layer_norm(self, data, rows, width):
        x = data.draw(float_arrays((rows, width)))
        # The modulation's dtype is drawn separately: float32 x with float64
        # scale must promote exactly as the expression does.
        scale = data.draw(float_arrays((width,), max_magnitude=4.0))
        shift = data.draw(float_arrays((width,), dtype=scale.dtype, max_magnitude=4.0))
        assert_bit_equal_and_inputs_kept(layer_norm, layer_norm_numpy, x, scale, shift)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=last_axis_shapes(1, 3))
    def test_softmax_rows(self, data, shape):
        x = data.draw(float_arrays(shape, max_magnitude=2.0**10))
        assert_bit_equal_and_inputs_kept(softmax_rows, softmax_numpy, x)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=last_axis_shapes(1, 3))
    def test_gelu(self, data, shape):
        # Magnitudes up to 2^66 push x^3 past float32's range.
        x = data.draw(float_arrays(shape, max_magnitude=2.0**66))
        assert_bit_equal_and_inputs_kept(gelu, gelu_numpy, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_on_dense_random_inputs(self, dtype):
        """Normal draws exercise rounding in every position, which small or
        round values from the strategies above can leave untested."""
        x = make_random((48, 33), seed=33, dtype=dtype) * 3.0
        scale = make_random((33,), seed=34, dtype=dtype) * 0.5
        shift = make_random((33,), seed=35, dtype=dtype)
        assert_bit_equal_and_inputs_kept(layer_norm, layer_norm_numpy, x, scale, shift)
        assert_bit_equal_and_inputs_kept(softmax_rows, softmax_numpy, x.reshape(16, 3, 33))
        assert_bit_equal_and_inputs_kept(gelu, gelu_numpy, x)

    def test_integer_input_is_refused(self):
        """The ops are float-only: integer input raises instead of promoting."""
        x = np.arange(6).reshape(2, 3)
        zeros = np.zeros(3, dtype=np.float32)
        with pytest.raises(TypeError):
            layer_norm(x, zeros, zeros)
        with pytest.raises(TypeError):
            softmax_rows(x)

    def test_row_max_keeps_nan_in_any_position(self):
        for n in (1, 2, 3, 4, 5, 7, 16, 33):
            for pos in range(n):
                x = np.zeros((2, n), dtype=np.float32)
                x[1, pos] = np.nan
                m = tensor._row_max(x)
                assert m.shape == (2, 1)
                assert m[0, 0] == 0.0 and np.isnan(m[1, 0])

    def test_non_finite_errors_name_their_op(self):
        # Rows shifted near float32's maximum: their sum, so the mean, overflows.
        x = make_random((3, 8), seed=30) + np.float32(3e38)
        zeros = np.zeros(8, dtype=np.float32)
        with pytest.raises(NonFiniteError, match="layer_norm"), np.errstate(all="ignore"):
            layer_norm(x, zeros, zeros)
        # -inf is not here: exp absorbs it as a zero weight.
        for bad in (np.inf, np.nan):
            scores = make_random((2, 4, 5), seed=31)
            scores[1, 2, 3] = bad
            with pytest.raises(NonFiniteError, match="softmax_rows"), np.errstate(invalid="ignore"):
                softmax_rows(scores)
        for bad in (np.inf, np.nan):
            y = make_random((4, 6), seed=32)
            y[0, 5] = bad
            with pytest.raises(NonFiniteError, match="gelu"), np.errstate(invalid="ignore"):
                gelu(y)


class TestRng:
    """The SplitMix64 stream, pinned to the scalar reference and through it to
    the published test vector."""

    def test_matches_scalar_reference(self):
        """mix_seed is one SplitMix64 output: the one at the counter seed ^ (salt + 1) gamma."""
        for seed in (0, 1, 1234567, MASK):
            for salt in (0, 1, 0x57454947):
                counter = (seed ^ ((salt + 1) * GAMMA)) & MASK
                want = splitmix64_reference(counter - GAMMA, 1)
                assert [mix_seed(seed, salt)] == want

    def test_known_answer_for_seed_zero(self):
        """Seed 0 yields the published SplitMix64 test vector."""
        assert splitmix64_reference(0, 1) == [0xE220A8397B1DCDAF]

    def test_bulk_equals_scalar_sequence(self):
        """Across a chunk boundary a draw equals the one-pass oracle, whose bits
        are the scalar sequence."""
        n = CHUNK + 257
        assert [int(v) for v in one_shot_bits(42, n + 1)] == splitmix64_reference(42, n + 1)
        assert rand_normal(42, n).tobytes() == one_shot_rand_normal(42, n).tobytes()

    def test_mix_seed_separates_streams(self):
        seeds = {mix_seed(7, salt) for salt in range(32)}
        assert len(seeds) == 32
        assert mix_seed(7, 0) != mix_seed(8, 0)


# A child process's script: print the CPU dispatch targets above numpy's
# baseline that it runs, comma-separated, then the sha256 of
# rand_normal(argv[1], argv[2]).
DISPATCH_PROBE = """
import hashlib, sys
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from bwcache.tensor import rand_normal
print(",".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name)))
print(hashlib.sha256(rand_normal(int(sys.argv[1]), int(sys.argv[2])).tobytes()).hexdigest())
"""

# Request sizes about the ends of the first chunk, and one of several chunks.
DRAW_SIZES = [0, 1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]
# Even chunk sizes other than the library's, below and above it.
CHUNK_SIZES = [2, 6, 1 << 10, 1 << 16]

# float32 ulps by which a draw may miss float64 Box-Muller of its own 24-bit
# uniforms (the largest miss in 16M values was 3.9 ulps).
ULP_BOUND = 4.0


class TestRandNormal:
    @pytest.mark.parametrize("seed", [0, 99, 12345, MASK])
    def test_matches_scalar_box_muller(self, seed):
        """Byte for byte, the draw and its one-pass form are the scalar
        float32 transform."""
        want = box_muller_reference(seed, 301)
        assert rand_normal(seed, 301).tobytes() == want.tobytes()
        assert one_shot_rand_normal(seed, 301).tobytes() == want.tobytes()

    def test_every_quadrant_and_remainder_end_matches_the_scalar_reference(self):
        """Angles at and beside each quarter and eighth turn, where the
        quadrant and the remainder's sign change, give the reference's
        bytes."""
        edges = [(j << 21) + step for j in range(8) for step in (-1, 0, 1)]
        for k2 in [k % (1 << 24) for k in edges]:
            for low in (0, (1 << 40) - 1):
                state = (unmix64((k2 << 40) | low) - 2 * GAMMA) & MASK
                assert splitmix64_reference(state, 2)[1] >> 40 == k2
                got = rand_normal(state, 2)
                assert got.tobytes() == box_muller_reference(state, 2).tobytes(), k2

    def test_within_stated_ulps_of_float64_box_muller(self):
        """Against the float64 math Box-Muller of the same 24-bit uniforms,
        every value is within ULP_BOUND float32 ulps of the exact one. Points
        whose exact value is below 1e-6 r are skipped: there the relative
        error measures the angle's cut, not the transform."""
        n = 1 << 20
        got = rand_normal(2024, n).astype(np.float64)
        top = (one_shot_bits(2024, n) >> np.uint64(40)).astype(np.float64)
        r = np.sqrt(-2.0 * np.log((top[0::2] + 1.0) * 2.0**-24))
        theta = 2.0 * math.pi * (top[1::2] * 2.0**-24)
        exact = np.empty(n)
        exact[0::2], exact[1::2] = r * np.cos(theta), r * np.sin(theta)
        keep = np.abs(exact) >= 1e-6 * np.repeat(r, 2)
        assert keep.mean() > 0.999
        ulps = np.abs(got - exact)[keep] / np.spacing(np.abs(exact[keep]).astype(np.float32))
        assert ulps.max() <= ULP_BOUND

    def test_same_seed_same_tensor(self):
        a = rand_normal(5, (3, 4))
        b = rand_normal(5, (3, 4))
        assert np.array_equal(a, b)
        assert a.dtype == np.float32
        # The state is masked to 64 bits.
        assert rand_normal(5 + (1 << 64), (3, 4)).tobytes() == a.tobytes()

    def test_moments_are_standard_normal(self):
        x = rand_normal(123, (100_000,)).astype(np.float64)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02
        assert np.isfinite(x).all()

    def test_uniforms_stay_in_half_open_unit_interval(self):
        """At the stream positions whose top 24 bits are all zeros or all
        ones, each uniform of a pair lands on an end of its range and the
        normals equal the scalar reference's: the radius's u = 2^-24 gives
        the largest radius, sqrt(48 ln 2), and u = 1 a zero one."""
        for top in (0, (1 << 24) - 1):
            for slot in (0, 1):  # the radius's uniform, then the angle's
                state = (unmix64(top << 40) - (slot + 1) * GAMMA) & MASK
                assert splitmix64_reference(state, 2)[slot] >> 40 == top
                got = rand_normal(state, 2)
                assert np.isfinite(got).all()
                assert got.tobytes() == box_muller_reference(state, 2).tobytes()
                if slot == 0:
                    radius = math.sqrt(48.0 * math.log(2.0)) if top == 0 else 0.0
                    assert math.hypot(*got.astype(np.float64)) == pytest.approx(radius, rel=1e-6)
        assert np.abs(rand_normal(7, 1 << 20)).max() <= math.sqrt(48.0 * math.log(2.0)) * (1 + 1e-6)

    @pytest.mark.parametrize("seed", [0, 99, MASK])
    @pytest.mark.parametrize("n", DRAW_SIZES, ids=lambda n: f"n{n}")
    def test_chunked_draw_equals_one_shot_reference(self, n, seed):
        """Values, dtype and shape match the one-pass form."""
        assert_draw_matches_one_shot(n, seed)

    @pytest.mark.parametrize("n", DRAW_SIZES, ids=lambda n: f"n{n}")
    def test_a_longer_request_extends_a_shorter_one(self, n):
        """A request of n + 1 values begins with the n of a request of n: an
        odd request pads its last pair instead of shifting the pairing."""
        assert rand_normal(17, n + 1)[:n].tobytes() == rand_normal(17, n).tobytes()

    @pytest.mark.parametrize("pairs", [1, CHUNK // 2 - 1, CHUNK // 2, CHUNK // 2 + 1])
    @pytest.mark.parametrize("n", [1, 2, CHUNK - 1, CHUNK + 1], ids=lambda n: f"n{n}")
    def test_a_state_advanced_by_whole_pairs_draws_the_tail_of_the_stream(self, n, pairs):
        """Output i is mix64(state + (i + 1) gamma), so a state 2j gamma on
        draws the stream from its pair j on, wherever the chunks of either
        draw end."""
        skip = 2 * pairs
        got = rand_normal(8 + skip * GAMMA, n)
        assert got.tobytes() == rand_normal(8, skip + n)[skip:].tobytes()

    @pytest.mark.parametrize("chunks, tail", [(0, 1), (1, 1), (5, 3)], ids=["part", "1+", "5+"])
    @pytest.mark.parametrize("chunk", CHUNK_SIZES, ids=lambda c: f"c{c}")
    def test_values_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk, chunks, tail):
        """_CHUNK is a tuning constant: a draw of part of a chunk, or of
        whole chunks and part of one more, has the same bytes whatever even
        size the chunks are."""
        n = chunks * chunk + tail
        want = rand_normal(21, n)
        offsets = np.arange(1, chunk + 1, dtype=np.uint64) * np.uint64(GAMMA)
        monkeypatch.setattr(tensor, "_CHUNK", chunk)
        monkeypatch.setattr(tensor, "_OFFSETS", offsets.reshape(-1, 2).T.copy())
        assert rand_normal(21, n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("tail", [0, 3, CHUNK - 1])
    @pytest.mark.parametrize("chunks", [1, 8, 64])
    def test_temporaries_stay_chunk_sized(self, chunks, tail):
        """Beyond the result itself, a draw holds at most 1.5 MiB at once,
        however many chunks it spans and however full its last one is."""
        n = chunks * CHUNK + tail
        tracemalloc.start()
        try:
            result = rand_normal(3, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - result.nbytes <= 1.5 * 2**20

    def test_a_draw_starts_no_thread(self, monkeypatch):
        """A many-chunk draw runs on the caller's thread alone."""

        def no_thread(*args, **kwargs):
            raise AssertionError("rand_normal started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        before = threading.active_count()
        assert_draw_matches_one_shot(9 * CHUNK + 1, 4)
        assert threading.active_count() == before

    def test_bytes_do_not_depend_on_the_cpu_dispatch_target(self):
        """A draw of over 1M values gives the same bytes in a child process
        that numpy dispatches natively and in one with NPY_DISABLE_CPU_FEATURES
        naming every dispatch target the first one ran above the baseline."""
        seed, n = 31, (1 << 20) + 3
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def child(disabled: list[str]) -> tuple[list[str], str]:
            """The dispatch targets above the baseline a child ran, and its draw's digest."""
            extra = {"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)} if disabled else {}
            done = subprocess.run(
                [sys.executable, "-c", DISPATCH_PROBE, str(seed), str(n)],
                env={**env, **extra}, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            above, digest = done.stdout.splitlines()
            return [name for name in above.split(",") if name], digest

        above, native = child([])
        if not above:
            pytest.skip("numpy dispatches nothing above its baseline on this CPU")
        still_above, baseline = child(above)
        assert still_above == [], f"the child still dispatched to {still_above}"
        assert baseline == native == hashlib.sha256(rand_normal(seed, n).tobytes()).hexdigest()

    @pytest.mark.parametrize("shape", [(), (0, 5), (5, 0), (7, 3), (3, 2 * CHUNK // 3 + 1)])
    def test_chunked_draw_keeps_the_requested_shape(self, shape):
        got = rand_normal(5, shape)
        want = one_shot_rand_normal(5, shape)
        assert got.shape == shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
