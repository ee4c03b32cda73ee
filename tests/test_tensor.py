"""Tensor op tests against straight-line oracles.

Every numeric op is checked against an independent re-derivation: matmul
against a triple loop, the normalizations against their textbook formulas in
float64, and the random stream against a scalar SplitMix64 written out long
hand. The oracles deliberately share no code with the implementation.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import tracemalloc

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


def box_muller_reference(state: int, n: int) -> np.ndarray:
    """Recompute the normals from the raw u64 stream, scalar math only."""
    m = n + (n % 2)
    bits = splitmix64_reference(state, m)
    u = [((b >> 11) + 1) * 2.0**-53 for b in bits]
    out = []
    for i in range(0, m, 2):
        r = math.sqrt(-2.0 * math.log(u[i]))
        theta = 2.0 * math.pi * u[i + 1]
        out.append(r * math.cos(theta))
        out.append(r * math.sin(theta))
    return np.array(out[:n])


def one_shot_bits(state: int, m: int) -> np.ndarray:
    """The first m u64 outputs of the stream at ``state``, as one counter-form numpy pass."""
    idx = np.arange(1, m + 1, dtype=np.uint64)
    z = np.uint64(state & MASK) + idx * np.uint64(GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def one_shot_rand_normal(state: int, shape, dtype=np.float32) -> np.ndarray:
    """The generator as one whole-request numpy pass.

    A frozen copy of the original single-pass ``rand_normal`` body (counter-form
    SplitMix64, float64 Box-Muller over all pairs, one cast at the end), kept as
    the reference for the chunked implementation.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    n = math.prod(shape)
    bits = one_shot_bits(state, n + (n & 1))
    u = ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(bits.size, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n].reshape(shape).astype(dtype)


def unrounded_draw(state: int, n: int) -> np.ndarray:
    """A draw's n values before the float32 cast: rand_normal's chunk body,
    filling a float64 buffer in one span."""
    out = np.empty(n, dtype=np.float64)
    tensor._fill_span(state & MASK, out, 0, n + (n & 1))
    return out


def assert_draw_matches_one_shot(n: int, seed: int, dtype=np.float32) -> None:
    """rand_normal's values, dtype and shape equal the one-pass form's; with
    float64, the chunk body's unrounded values do."""
    got = rand_normal(seed, (n,)) if dtype == np.float32 else unrounded_draw(seed, n)
    want = one_shot_rand_normal(seed, n, dtype)
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
        """An overflowing product raises NonFiniteError instead of returning inf."""
        a = np.full((2, 2), 1e30, dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="matmul"):
            matmul(a, a)

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
        got = unrounded_draw(42, n)
        assert got.tobytes() == one_shot_rand_normal(42, n, np.float64).tobytes()

    def test_mix_seed_separates_streams(self):
        seeds = {mix_seed(7, salt) for salt in range(32)}
        assert len(seeds) == 32
        assert mix_seed(7, 0) != mix_seed(8, 0)


class TestRandNormal:
    def test_matches_scalar_box_muller(self):
        got = unrounded_draw(99, 11)
        want = box_muller_reference(99, 11)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

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
        """At the stream positions whose bits are all zeros or all ones, each
        uniform of a pair lands on an end of (0, 1] and the normals stay
        finite and equal to the scalar reference's."""
        for bits in (0, MASK):
            for slot in (0, 1):  # the radius's uniform, then the angle's
                state = (unmix64(bits) - (slot + 1) * GAMMA) & MASK
                assert splitmix64_reference(state, 2)[slot] == bits
                got = unrounded_draw(state, 2)
                assert np.isfinite(got).all()
                np.testing.assert_allclose(got, box_muller_reference(state, 2), rtol=1e-12, atol=1e-12)
                if slot == 0:
                    # u = 2^-53 gives the largest radius, u = 1 a zero one.
                    radius = math.sqrt(106.0 * math.log(2.0)) if bits == 0 else 0.0
                    assert math.hypot(*got) == pytest.approx(radius, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 99, MASK])
    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5], ids=lambda n: f"n{n}"
    )
    def test_chunked_draw_equals_one_shot_reference(self, n, seed, dtype):
        """Values, dtype and shape match the one-pass form: the float32 draw,
        and the chunk body's float64 values before the cast."""
        assert_draw_matches_one_shot(n, seed, dtype)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "n", [2 * CHUNK - 1, 4 * CHUNK + 3, 7 * CHUNK], ids=lambda n: f"n{n}"
    )
    def test_values_do_not_depend_on_the_thread_count(self, monkeypatch, n, workers):
        """Spans of whole chunks on 1, 2, 3 or 5 threads (more than this host's
        CPUs too, with a short switch interval) give the one-pass bytes."""
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in (0, 99, MASK):
                assert_draw_matches_one_shot(n, seed)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("chunks", [1, 8, 64])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_temporaries_stay_chunk_sized(self, monkeypatch, workers, chunks):
        """Beyond the result itself, a draw holds at most 1 MiB per worker at
        once, however many chunks it spans."""
        monkeypatch.setattr(tensor, "_WORKERS", workers)
        n = chunks * CHUNK + 3
        tracemalloc.start()
        try:
            result = rand_normal(3, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - result.nbytes <= workers * 2**20

    def test_worker_count_is_bounded_by_the_available_cpus(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert 1 <= tensor._WORKERS <= cpus
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountingThread)
        got = rand_normal(4, 9 * CHUNK)
        assert got.tobytes() == one_shot_rand_normal(4, 9 * CHUNK).tobytes()
        assert len(started) + 1 == min(cpus, 9)  # the caller fills one span itself
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failed_span_raises_in_the_caller_after_the_join(self, monkeypatch, failing):
        """A span that raises, in a worker thread or in the caller, reaches the
        caller once every thread has finished; no partial result comes back."""
        fill = tensor._fill_span
        spans = []

        def flaky(start, out, lo, hi):
            spans.append(lo)
            if (lo > 0) == (failing == "worker"):
                raise MemoryError(f"span at {lo}")
            fill(start, out, lo, hi)

        monkeypatch.setattr(tensor, "_WORKERS", 3)
        monkeypatch.setattr(tensor, "_fill_span", flaky)
        before = threading.enumerate()
        with pytest.raises(MemoryError, match="span at"):
            rand_normal(8, 6 * CHUNK)
        assert sorted(spans) == [0, 2 * CHUNK, 4 * CHUNK]
        assert threading.enumerate() == before

    @pytest.mark.parametrize("shape", [(), (0, 5), (5, 0), (7, 3), (3, 2 * CHUNK // 3 + 1)])
    def test_chunked_draw_keeps_the_requested_shape(self, shape):
        got = rand_normal(5, shape)
        want = one_shot_rand_normal(5, shape)
        assert got.shape == shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
