"""Tensor op tests against straight-line oracles.

Every numeric op is checked against an independent re-derivation: matmul
against a triple loop, the normalizations against their textbook formulas in
float64, and the random stream against a scalar SplitMix64 written out long
hand. The oracles deliberately share no code with the implementation.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bwcache import tensor
from bwcache.tensor import (
    DimensionError,
    NonFiniteError,
    Rng,
    gelu,
    layer_norm,
    matmul,
    batched_matmul,
    mix_seed,
    rand_normal,
    softmax_rows,
)

MASK = (1 << 64) - 1


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


# Each matmul op with its fixed-order contraction and its leading (batch) axes.
MATMUL_OPS = [
    pytest.param(matmul, "ik,kj->ij", (), id="matmul"),
    pytest.param(batched_matmul, "gik,gkj->gij", (3,), id="batched_matmul"),
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

    @pytest.mark.parametrize("op, subscripts, lead", MATMUL_OPS)
    def test_deterministic_mode_matches_oracle_too(self, op, subscripts, lead):
        """The einsum path computes the same product as the BLAS path; inside
        the scope each op is byte-equal to the einsum, outside to ``a @ b``."""
        a = make_random((*lead, 4, 6), seed=3)
        b = make_random((*lead, 6, 8), seed=4)
        want = np.stack(
            [matmul_reference(x, y) for x, y in zip(a.reshape(-1, 4, 6), b.reshape(-1, 6, 8))]
        ).reshape(*lead, 4, 8)
        with tensor.deterministic():
            got = op(a, b)
        assert got.tobytes() == np.einsum(subscripts, a, b).tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
        assert op(a, b).tobytes() == (a @ b).tobytes()

    @pytest.mark.parametrize("op, subscripts, lead", MATMUL_OPS)
    def test_identity_is_exact_in_deterministic_mode(self, op, subscripts, lead):
        """I @ A and A @ I reproduce A bit for bit under fixed-order accumulation."""
        a = make_random((*lead, 6, 6), seed=5)
        eye = np.broadcast_to(np.eye(6, dtype=np.float32), a.shape).copy()
        with tensor.deterministic():
            assert np.array_equal(op(eye, a), a)
            assert np.array_equal(op(a, eye), a)
            assert op(eye, a).tobytes() == np.einsum(subscripts, eye, a).tobytes()
        assert op(eye, a).tobytes() == (eye @ a).tobytes()

    def test_scope_restores_the_outer_mode(self):
        """Nested scopes and a raising scope restore the mode they entered
        from, and a scope in another thread never reaches this one."""
        assert not tensor.is_deterministic()
        with tensor.deterministic():
            with tensor.deterministic(False):
                assert not tensor.is_deterministic()
            assert tensor.is_deterministic()
        assert not tensor.is_deterministic()

        with pytest.raises(RuntimeError):
            with tensor.deterministic():
                raise RuntimeError("inside the scope")
        assert not tensor.is_deterministic()

        entered, release = threading.Event(), threading.Event()
        seen = []

        def worker():
            with tensor.deterministic():
                seen.append(tensor.is_deterministic())
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(timeout=10)
            assert not tensor.is_deterministic()
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [True]

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
    def test_matches_scalar_reference(self):
        """next_u64 reproduces the long-hand SplitMix64 sequence."""
        for seed in (0, 1, 1234567, MASK):
            rng = Rng(seed)
            got = [rng.next_u64() for _ in range(16)]
            assert got == splitmix64_reference(seed, 16)

    def test_known_answer_for_seed_zero(self):
        """Seed 0 yields the published SplitMix64 test vector."""
        rng = Rng(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF

    def test_bulk_equals_scalar_sequence(self):
        rng = Rng(42)
        bulk = rng._bulk_u64(257)
        assert [int(v) for v in bulk] == splitmix64_reference(42, 257)

    def test_mix_seed_separates_streams(self):
        seeds = {mix_seed(7, salt) for salt in range(32)}
        assert len(seeds) == 32
        assert mix_seed(7, 0) != mix_seed(8, 0)


class TestRandNormal:
    def box_muller_reference(self, seed: int, n: int) -> np.ndarray:
        """Recompute the normals from the raw u64 stream, scalar math only."""
        m = n + (n % 2)
        bits = splitmix64_reference(seed, m)
        u = [((b >> 11) + 1) * 2.0**-53 for b in bits]
        out = []
        for i in range(0, m, 2):
            r = math.sqrt(-2.0 * math.log(u[i]))
            theta = 2.0 * math.pi * u[i + 1]
            out.append(r * math.cos(theta))
            out.append(r * math.sin(theta))
        return np.array(out[:n])

    def test_matches_scalar_box_muller(self):
        got = rand_normal(Rng(99), (11,), dtype=np.float64)
        want = self.box_muller_reference(99, 11)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_same_seed_same_tensor(self):
        a = rand_normal(Rng(5), (3, 4))
        b = rand_normal(Rng(5), (3, 4))
        assert np.array_equal(a, b)
        assert a.dtype == np.float32

    def test_odd_request_advances_stream_by_even_count(self):
        """Drawing 3 then 2 equals drawing 4 then 2 shifted: the pad is consumed."""
        r1 = Rng(17)
        rand_normal(r1, (3,))
        r2 = Rng(17)
        rand_normal(r2, (4,))
        assert r1.state == r2.state

    def test_moments_are_standard_normal(self):
        x = rand_normal(Rng(123), (100_000,), dtype=np.float64)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02
        assert np.isfinite(x).all()

    def test_uniforms_stay_in_half_open_unit_interval(self):
        bits = Rng(3)._bulk_u64(4096)
        u = ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        assert (u > 0.0).all() and (u <= 1.0).all()
