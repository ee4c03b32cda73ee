"""Model tests: every forward formula re-derived long hand in float64.

The centerpiece is a from-scratch block forward written with explicit loops
over frames, positions and heads; the implementation must match it on a tiny
configuration for both attention axes. Structural invariants (residual
pass-through, axis grouping, schedule shape) are checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from bwcache.cache import Action, CachePolicyConfig, PolicyKind, run_policy
from bwcache.model import (
    _SALT_WEIGHTS,
    _build_decode,
    _build_readout,
    _build_weights,
    Axis,
    DiTBlockWeights,
    ModelConfig,
    NoiseSchedule,
    block_axes,
    decode_latent,
    decode_matrix,
    denoiser_forward,
    dit_block_forward,
    forward_diffuse,
    init_weights,
    readout_matrix,
    reverse_step,
    sample_initial_latent,
    timestep_embedding,
    WEIGHT_STD,
)
from bwcache import tensor
from bwcache.tensor import DimensionError, Rng, mix_seed, rand_normal


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        n_blocks=2, hidden_dim=4, n_heads=2, frames=2, tokens_per_frame=3, steps=5, seed=7
    )
    base.update(overrides)
    return ModelConfig(**base)


def layer_norm_reference(x, scale, shift):
    x = x.astype(np.float64)
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * (1.0 + scale.astype(np.float64)) + shift.astype(
        np.float64
    )


def gelu_reference(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def block_forward_reference(h, w, t_emb, config):
    """The block, recomputed with plain loops in float64."""
    d = config.hidden_dim
    f_count, s_count, heads = config.frames, config.tokens_per_frame, config.n_heads
    dh = d // heads
    mod = t_emb.astype(np.float64) @ w.adaln_proj.astype(np.float64)
    scale1, shift1, scale2, shift2 = (mod[i * d : (i + 1) * d] for i in range(4))

    h64 = h.astype(np.float64)
    a = layer_norm_reference(h64, scale1, shift1)
    qkv = a @ w.qkv_proj.astype(np.float64)
    q, k, v = qkv[:, :d], qkv[:, d : 2 * d], qkv[:, 2 * d :]

    attn = np.zeros_like(h64)
    if w.axis is Axis.SPATIAL:
        groups = [[f * s_count + s for s in range(s_count)] for f in range(f_count)]
    else:
        groups = [[f * s_count + s for f in range(f_count)] for s in range(s_count)]
    for rows in groups:
        for head in range(heads):
            cols = slice(head * dh, (head + 1) * dh)
            qh, kh, vh = q[rows, cols], k[rows, cols], v[rows, cols]
            scores = qh @ kh.T / math.sqrt(dh)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            ctx = probs @ vh
            for i, r in enumerate(rows):
                attn[r, cols] = ctx[i]
    h1 = attn @ w.out_proj.astype(np.float64) + h64

    b = layer_norm_reference(h1, scale2, shift2)
    mlp = gelu_reference(b @ w.mlp_in.astype(np.float64)) @ w.mlp_out.astype(np.float64)
    return mlp + h1


def group_heads_reference(z, axis, frames, tokens_per_frame, n_heads):
    """One [F*S, d] tensor -> [groups * heads, L, head_dim], L the attended axis."""
    f, s, h = frames, tokens_per_frame, n_heads
    dh = z.shape[1] // h
    z = z.reshape(f, s, h, dh)
    if axis is Axis.SPATIAL:
        return z.transpose(0, 2, 1, 3).reshape(f * h, s, dh)
    return z.transpose(1, 2, 0, 3).reshape(s * h, f, dh)


def block_forward_numpy(h, w, t_emb, config, deterministic):
    """The block as plain numpy expressions in the working dtype: np.split of
    the modulation, q, k and v grouped one at a time, no in-place updates,
    and the same matmul kernels as the tensor module's two modes."""
    if deterministic:
        mm = lambda a, b: np.einsum("ik,kj->ij", a, b)  # noqa: E731
        bmm = lambda a, b: np.einsum("gik,gkj->gij", a, b)  # noqa: E731
    else:
        mm = bmm = np.matmul
    d = config.hidden_dim
    f, s, heads = config.frames, config.tokens_per_frame, config.n_heads

    def norm(x, scale, shift):
        mean = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-5) * (1.0 + scale) + shift

    mod = mm(t_emb[None, :], w.adaln_proj)[0]
    scale1, shift1, scale2, shift2 = np.split(mod, 4)
    qkv = mm(norm(h, scale1, shift1), w.qkv_proj)
    qg, kg, vg = (
        group_heads_reference(qkv[:, i * d : (i + 1) * d], w.axis, f, s, heads) for i in range(3)
    )
    scores = bmm(qg, kg.transpose(0, 2, 1)) * (1.0 / math.sqrt(config.head_dim))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ctx = bmm(e / e.sum(axis=-1, keepdims=True), vg)
    dh = ctx.shape[2]
    if w.axis is Axis.SPATIAL:
        ctx = ctx.reshape(f, heads, s, dh).transpose(0, 2, 1, 3)
    else:
        ctx = ctx.reshape(s, heads, f, dh).transpose(2, 0, 1, 3)
    h1 = mm(ctx.reshape(f * s, d), w.out_proj) + h
    u = mm(norm(h1, scale2, shift2), w.mlp_in)
    g = 0.5 * u * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (u + 0.044715 * u * u * u)))
    return mm(g, w.mlp_out) + h1


def zero_branch_weights(config, axis) -> DiTBlockWeights:
    """Weights whose attention and MLP branches contribute exactly zero."""
    d = config.hidden_dim
    return DiTBlockWeights(
        axis=axis,
        qkv_proj=np.zeros((d, 3 * d), dtype=np.float32),
        out_proj=np.zeros((d, d), dtype=np.float32),
        mlp_in=np.zeros((d, 4 * d), dtype=np.float32),
        mlp_out=np.zeros((4 * d, d), dtype=np.float32),
        adaln_proj=np.zeros((d, 4 * d), dtype=np.float32),
    )


def uniform_attention_weights(config, axis) -> DiTBlockWeights:
    """q = k = 0 and v = identity: attention averages the normed input."""
    d = config.hidden_dim
    qkv = np.zeros((d, 3 * d), dtype=np.float32)
    qkv[:, 2 * d :] = np.eye(d, dtype=np.float32)
    return DiTBlockWeights(
        axis=axis,
        qkv_proj=qkv,
        out_proj=np.eye(d, dtype=np.float32),
        mlp_in=np.zeros((d, 4 * d), dtype=np.float32),
        mlp_out=np.zeros((4 * d, d), dtype=np.float32),
        adaln_proj=np.zeros((d, 4 * d), dtype=np.float32),
    )


def make_latent(config, seed=0):
    return (
        np.random.default_rng(seed)
        .standard_normal((config.tokens, config.hidden_dim))
        .astype(np.float32)
    )


class TestWeights:
    def test_shapes_and_alternation(self):
        config = ModelConfig()
        weights = init_weights(config)
        assert len(weights) == config.n_blocks
        d = config.hidden_dim
        for i, w in enumerate(weights):
            assert w.axis is (Axis.SPATIAL if i % 2 == 0 else Axis.TEMPORAL)
            assert w.qkv_proj.shape == (d, 3 * d)
            assert w.out_proj.shape == (d, d)
            assert w.mlp_in.shape == (d, 4 * d)
            assert w.mlp_out.shape == (4 * d, d)
            assert w.adaln_proj.shape == (d, 4 * d)
            assert w.qkv_proj.dtype == np.float32
        assert block_axes(config) == [w.axis for w in weights]

    def test_entries_match_target_distribution(self):
        """Pooled weight entries have mean ~0 and std ~WEIGHT_STD."""
        weights = init_weights(ModelConfig(seed=3))
        pooled = np.concatenate([w.qkv_proj.ravel() for w in weights])
        assert abs(float(pooled.mean())) < 1e-3
        assert abs(float(pooled.std()) - WEIGHT_STD) < 1e-3

    def test_same_seed_same_weights_different_seed_different(self):
        a = init_weights(ModelConfig(seed=1))
        b = init_weights(ModelConfig(seed=1))
        c = init_weights(ModelConfig(seed=2))
        assert np.array_equal(a[0].mlp_in, b[0].mlp_in)
        assert not np.array_equal(a[0].mlp_in, c[0].mlp_in)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(hidden_dim=63)  # odd width, sin/cos halves impossible
        with pytest.raises(ValueError):
            ModelConfig(hidden_dim=64, n_heads=5)
        with pytest.raises(ValueError):
            ModelConfig(steps=0)
        with pytest.raises(ValueError):
            ModelConfig(n_blocks=0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                ModelConfig(seed=seed)
        assert ModelConfig(seed=2**64 - 1).seed == 2**64 - 1


class TestBuildCache:
    def test_weights_match_one_independent_stream_in_documented_order(self):
        """Blocks in order, each qkv, out, mlp_in, mlp_out, adaln, all cut from
        one bulk draw of the weight stream (every size is even, so per-array
        draws and one bulk draw consume the stream identically)."""
        config = tiny_config(seed=11)
        d = config.hidden_dim
        names = ("qkv_proj", "out_proj", "mlp_in", "mlp_out", "adaln_proj")
        shapes = [(d, 3 * d), (d, d), (d, 4 * d), (4 * d, d), (d, 4 * d)]
        per_block = sum(a * b for a, b in shapes)
        flat = rand_normal(Rng(mix_seed(config.seed, _SALT_WEIGHTS)), per_block * config.n_blocks)
        flat = flat * WEIGHT_STD

        weights = init_weights(config)
        assert init_weights(config) is weights
        offset = 0
        for w in weights:
            for name, shape in zip(names, shapes):
                n = shape[0] * shape[1]
                want = flat[offset : offset + n].reshape(shape)
                offset += n
                assert getattr(w, name).tobytes() == want.tobytes(), name
        assert offset == flat.size

    def test_cached_arrays_are_read_only(self):
        config = tiny_config(seed=12)
        weights = init_weights(config)
        arrays = [getattr(w, f.name) for w in weights for f in fields(w) if f.name != "axis"]
        arrays += [readout_matrix(config), decode_matrix(config)]
        assert len(arrays) == 5 * config.n_blocks + 2
        for a in arrays:
            before = a.copy()
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
            with pytest.raises(ValueError):
                a *= 2.0
            assert np.array_equal(a, before)
        with pytest.raises(TypeError):
            weights[0] = weights[1]

    def test_none_run_after_cached_run_matches_fresh_build(self):
        """A cached run leaves the shared build untouched: a none run that
        follows it is bit-identical to one on a freshly drawn model."""
        config = tiny_config(hidden_dim=16, n_blocks=4, tokens_per_frame=4, steps=12, seed=13)
        none = CachePolicyConfig(kind=PolicyKind.NONE)
        _, cached = run_policy(config, CachePolicyConfig(delta=1e9, reuse_interval=3))
        assert any(d.action is Action.REUSED for d in cached.decisions)
        after_cached, _ = run_policy(config, none)
        for build in (_build_weights, _build_readout, _build_decode):
            build.cache_clear()
        fresh, _ = run_policy(config, none)
        assert _build_weights.cache_info().misses == 1
        assert after_cached.tobytes() == fresh.tobytes()

    def test_builds_are_keyed_on_the_fields_they_read(self):
        """Steps, heads and the frame grid enter no build, so configs that
        differ only there share one build of each; n_blocks enters only the
        block weights."""
        builds = (_build_weights, _build_readout, _build_decode)
        for build in builds:
            build.cache_clear()
        base = tiny_config(hidden_dim=8, seed=21)
        weights, readout, decode = init_weights(base), readout_matrix(base), decode_matrix(base)
        for config in (
            replace(base, steps=30),
            replace(base, steps=100),
            replace(base, n_heads=4),
            replace(base, frames=3, tokens_per_frame=1),
        ):
            assert init_weights(config) is weights
            assert readout_matrix(config) is readout
            assert decode_matrix(config) is decode
        assert [b.cache_info().misses for b in builds] == [1, 1, 1]

        deeper = replace(base, n_blocks=3)
        assert init_weights(deeper) is not weights
        assert readout_matrix(deeper) is readout
        assert [b.cache_info().misses for b in builds] == [2, 1, 1]


class TestTimestepEmbedding:
    def test_t_zero_is_zeros_then_ones(self):
        emb = timestep_embedding(0, 8)
        assert np.array_equal(emb, np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.float32))

    @pytest.mark.parametrize("t,dim", [(5, 8), (17, 10)])
    def test_matches_direct_formula(self, t, dim):
        half = dim // 2
        freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
        want = np.concatenate([np.sin(t * freqs), np.cos(t * freqs)])
        np.testing.assert_allclose(timestep_embedding(t, dim), want, rtol=1e-6, atol=1e-7)

    def test_odd_dim_rejected(self):
        with pytest.raises(DimensionError):
            timestep_embedding(3, 7)


class TestBlockForward:
    @pytest.mark.parametrize("block_idx", [0, 1])
    def test_matches_loop_oracle(self, block_idx):
        """Both attention axes agree with the scalar reference block."""
        config = tiny_config()
        weights = init_weights(config)[block_idx]
        h = make_latent(config, seed=11)
        t_emb = timestep_embedding(3, config.hidden_dim)
        want = block_forward_reference(h, weights, t_emb, config)
        got = dit_block_forward(h, weights, t_emb, config)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize(
        "shape",
        [
            dict(),
            dict(hidden_dim=8, n_heads=1, frames=1, tokens_per_frame=5),
            dict(hidden_dim=8, n_heads=4, frames=3, tokens_per_frame=1),
            dict(hidden_dim=12, n_heads=3, frames=3, tokens_per_frame=7),
            dict(hidden_dim=64, n_heads=4, frames=4, tokens_per_frame=16),
        ],
    )
    def test_byte_equal_to_numpy_expressions(self, shape, deterministic):
        """Both axes equal the plain-expression block bit for bit, in both
        matmul modes, and leave the block input and embedding untouched."""
        config = tiny_config(**shape)
        h = make_latent(config, seed=15)
        t_emb = timestep_embedding(6, config.hidden_dim)
        h_before, t_before = h.copy(), t_emb.copy()
        with tensor.deterministic(deterministic):
            for weights in init_weights(config):
                want = block_forward_numpy(h, weights, t_emb, config, deterministic)
                got = dit_block_forward(h, weights, t_emb, config)
                assert got.dtype == want.dtype == np.float32
                assert got.tobytes() == want.tobytes()
        assert h.tobytes() == h_before.tobytes()
        assert t_emb.tobytes() == t_before.tobytes()

    def test_zeroed_branches_pass_input_through_bit_exact(self):
        """With zero branch outputs the residual path is the identity."""
        config = tiny_config()
        h = make_latent(config, seed=12)
        t_emb = timestep_embedding(1, config.hidden_dim)
        for axis in (Axis.SPATIAL, Axis.TEMPORAL):
            out = dit_block_forward(h, zero_branch_weights(config, axis), t_emb, config)
            assert np.array_equal(out, h)

    def test_spatial_uniform_attention_averages_within_frames(self):
        """Constant scores average the normed tokens of each frame."""
        config = tiny_config()
        h = make_latent(config, seed=13)
        t_emb = timestep_embedding(2, config.hidden_dim)
        out = dit_block_forward(h, uniform_attention_weights(config, Axis.SPATIAL), t_emb, config)
        normed = layer_norm_reference(h, np.zeros(4), np.zeros(4))
        s = config.tokens_per_frame
        for f in range(config.frames):
            frame_mean = normed[f * s : (f + 1) * s].mean(axis=0)
            for tok in range(s):
                np.testing.assert_allclose(
                    out[f * s + tok], frame_mean + h[f * s + tok], rtol=1e-4, atol=1e-5
                )

    def test_temporal_uniform_attention_averages_across_frames(self):
        """Temporal blocks mix the same token position across frames."""
        config = tiny_config()
        h = make_latent(config, seed=14)
        t_emb = timestep_embedding(2, config.hidden_dim)
        out = dit_block_forward(h, uniform_attention_weights(config, Axis.TEMPORAL), t_emb, config)
        normed = layer_norm_reference(h, np.zeros(4), np.zeros(4))
        s = config.tokens_per_frame
        for tok in range(s):
            position_mean = normed[tok::s].mean(axis=0)
            for f in range(config.frames):
                np.testing.assert_allclose(
                    out[f * s + tok], position_mean + h[f * s + tok], rtol=1e-4, atol=1e-5
                )

    def test_rejects_wrong_latent_shape(self):
        config = tiny_config()
        weights = init_weights(config)[0]
        t_emb = timestep_embedding(0, config.hidden_dim)
        with pytest.raises(DimensionError):
            dit_block_forward(make_latent(config)[:-1], weights, t_emb, config)


class TestSchedule:
    def test_linear_endpoints_and_cumprod(self):
        sched = NoiseSchedule.linear(30)
        assert sched.betas[0] == pytest.approx(1e-4, abs=0)
        assert sched.betas[-1] == pytest.approx(2e-2, abs=0)
        acc = 1.0
        for i, beta in enumerate(sched.betas):
            acc *= 1.0 - float(beta)
            assert sched.alphas_cumprod[i] == pytest.approx(acc, rel=1e-12)

    def test_alphas_cumprod_strictly_decreasing(self):
        sched = NoiseSchedule.linear(50)
        assert (np.diff(sched.alphas_cumprod) < 0).all()
        assert sched.alphas_cumprod[0] < 1.0

    def test_bad_schedules_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule.linear(0)
        with pytest.raises(ValueError):
            NoiseSchedule(
                betas=np.array([0.0, 0.1]), alphas_cumprod=np.array([1.0, 0.9])
            )


class TestDiffusion:
    def test_reverse_of_forward_recovers_previous_level(self):
        """With the true eps, one reverse step undoes one forward level."""
        config = tiny_config()
        sched = NoiseSchedule.linear(config.steps)
        x0 = make_latent(config, seed=15)
        eps = make_latent(config, seed=16)
        for t in range(1, config.steps):
            x_t = forward_diffuse(x0, t, eps, sched)
            want = forward_diffuse(x0, t - 1, eps, sched)
            got = reverse_step(x_t, eps, t, sched)
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_final_step_returns_reconstruction(self):
        config = tiny_config()
        sched = NoiseSchedule.linear(config.steps)
        x0 = make_latent(config, seed=17)
        eps = make_latent(config, seed=18)
        x_0_noised = forward_diffuse(x0, 0, eps, sched)
        got = reverse_step(x_0_noised, eps, 0, sched)
        np.testing.assert_allclose(got, x0, rtol=1e-4, atol=1e-5)

    def test_closed_form_at_alpha_bar_064(self):
        """abar = 0.64: x_t = 0.8 x0 + 0.6 eps, so 1 and 1 mix to 1.4."""
        sched = NoiseSchedule(
            betas=np.array([0.36]), alphas_cumprod=np.array([0.64])
        )
        x0 = np.ones((1, 2), dtype=np.float32)
        got = forward_diffuse(x0, 0, x0, sched)
        np.testing.assert_allclose(got, 1.4, rtol=1e-6)

    def test_zero_eps_scales_cleanly(self):
        config = tiny_config()
        sched = NoiseSchedule.linear(config.steps)
        x0 = make_latent(config, seed=30)
        got = forward_diffuse(x0, 2, np.zeros_like(x0), sched)
        want = math.sqrt(float(sched.alphas_cumprod[2])) * x0
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_shape_and_range_checks(self):
        config = tiny_config()
        sched = NoiseSchedule.linear(config.steps)
        x0 = make_latent(config)
        with pytest.raises(DimensionError):
            forward_diffuse(x0, 1, x0[:-1], sched)
        with pytest.raises(ValueError):
            forward_diffuse(x0, config.steps, x0, sched)
        with pytest.raises(ValueError):
            reverse_step(x0, x0, -1, sched)


class TestDenoiser:
    def test_outputs_are_the_residual_stream(self):
        """block_outputs[i + 1] is exactly the next block applied to block_outputs[i]."""
        config = tiny_config(n_blocks=3)
        weights = init_weights(config)
        x = make_latent(config, seed=19)
        eps, outs = denoiser_forward(x, 2, weights, config)
        assert len(outs) == config.n_blocks
        t_emb = timestep_embedding(2, config.hidden_dim)
        assert np.array_equal(outs[0], dit_block_forward(x, weights[0], t_emb, config))
        for i in range(1, config.n_blocks):
            again = dit_block_forward(outs[i - 1], weights[i], t_emb, config)
            assert np.array_equal(outs[i], again)

    def test_zero_branch_stack_passes_latent_through(self):
        """The first block consumes the latent directly: zero branches keep it."""
        config = tiny_config()
        weights = [zero_branch_weights(config, a) for a in block_axes(config)]
        x = make_latent(config, seed=20)
        eps, outs = denoiser_forward(x, 1, weights, config)
        for out in outs:
            assert np.array_equal(out, x)
        assert eps.shape == x.shape

    def test_deterministic_for_fixed_inputs(self):
        config = tiny_config()
        weights = init_weights(config)
        x = make_latent(config, seed=21)
        e1, o1 = denoiser_forward(x, 4, weights, config)
        e2, o2 = denoiser_forward(x, 4, weights, config)
        assert np.array_equal(e1, e2)
        assert all(np.array_equal(a, b) for a, b in zip(o1, o2))

    def test_readout_is_seed_stable(self):
        a = readout_matrix(tiny_config(seed=5))
        b = readout_matrix(tiny_config(seed=5))
        c = readout_matrix(tiny_config(seed=6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDecodeAndLatent:
    def test_decode_shape_is_frame_major_pixels(self):
        config = tiny_config()
        px = decode_latent(make_latent(config, seed=22), config)
        assert px.shape == (config.frames, 3 * config.tokens_per_frame)

    def test_decode_rows_are_per_frame(self):
        """Zeroing one frame's tokens zeroes exactly that pixel row."""
        config = tiny_config()
        x = make_latent(config, seed=23)
        x[config.tokens_per_frame :] = 0.0
        px = decode_latent(x, config)
        assert not np.allclose(px[0], 0.0)
        np.testing.assert_allclose(px[1:], 0.0, atol=0)

    def test_initial_latent_is_seeded_standard_normal(self):
        config = ModelConfig(seed=9)
        x = sample_initial_latent(config)
        assert x.shape == (config.tokens, config.hidden_dim)
        assert np.array_equal(x, sample_initial_latent(ModelConfig(seed=9)))
        assert abs(float(x.mean())) < 0.05
        assert abs(float(x.std()) - 1.0) < 0.05
