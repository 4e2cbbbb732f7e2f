import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refguide.kernels as kernels
import refguide.pipeline as pipeline
from refguide.kernels import AttentionPolicy
from refguide.oracle import max_rel_error
from refguide.pipeline import (
    PipelineConfig,
    Trajectory,
    denoise_step,
    generate_batch,
    init_denoiser,
    initial_noise,
    trajectory_distance,
)

from helpers import load_file

BASELINES = json.loads((Path(__file__).parent / "data" / "baselines.json").read_text())


# ``scripts/record_baselines.py``, whose tables name every recorded run.
RECORDER = load_file("scripts/record_baselines.py", "record_baselines")

# Small architecture for fast unit runs; acceptance tests use the defaults.
SMALL = dict(side=6, blocks=2, d_model=8, d=8, d_v=8, steps=6)


def small_config(**kw):
    merged = {**SMALL, **kw}
    return PipelineConfig(**merged)


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.tokens == 256
        assert cfg.policy == AttentionPolicy.rfg(0.35)
        assert cfg.dtype == np.float32

    @pytest.mark.parametrize("name", ["side", "blocks", "d_model", "d", "d_v", "steps", "batch"])
    def test_positive_dims_enforced(self, name):
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: 0})

    def test_reference_policy_needs_two_samples(self):
        with pytest.raises(ValueError, match="batch"):
            PipelineConfig(batch=1, policy=AttentionPolicy.rfg(0.3))

    def test_multi_reference_needs_room_for_guided_sample(self):
        with pytest.raises(ValueError, match="batch"):
            PipelineConfig(batch=3, policy=AttentionPolicy.rfg_multi((0.3, 0.3, 0.3)))

    def test_plain_policy_allows_single_sample(self):
        assert PipelineConfig(batch=1, policy=AttentionPolicy.plain()).batch == 1

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            PipelineConfig(precision="f16")

    def test_layer_strengths_require_rfg(self):
        with pytest.raises(ValueError, match="layer_strengths"):
            PipelineConfig(policy=AttentionPolicy.concat(), layer_strengths=(0.1,) * 4)

    def test_layer_strengths_length_checked(self):
        with pytest.raises(ValueError, match="layer_strengths"):
            PipelineConfig(layer_strengths=(0.1, 0.2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_layer_strength_is_named(self, bad):
        # The config itself raises, so no weight is drawn before the error.
        with pytest.raises(ValueError, match=re.escape(f"layer_strengths must be finite, got (0.1, {bad}, 0.1, 0.1)")):
            PipelineConfig(layer_strengths=(0.1, bad, 0.1, 0.1))

    def test_layer_policies_expand(self):
        cfg = PipelineConfig(layer_strengths=(0.1, 0.2, 0.3, 0.4))
        kinds = [p.strength for p in cfg.layer_policies()]
        assert kinds == [0.1, 0.2, 0.3, 0.4]


class TestInitDenoiser:
    def test_same_seed_bitwise_identical(self):
        cfg = small_config()
        a = init_denoiser(3, cfg)
        b = init_denoiser(3, cfg)
        assert a.digest() == b.digest()
        assert np.array_equal(a.pos, b.pos)

    def test_different_seeds_differ(self):
        cfg = small_config()
        assert init_denoiser(3, cfg).digest() != init_denoiser(4, cfg).digest()

    def test_fan_in_bounds(self):
        cfg = small_config()
        w = init_denoiser(5, cfg)
        bound = 1.0 / np.sqrt(cfg.d_model)
        assert np.abs(w.blocks[0].w_q).max() <= bound
        assert np.abs(w.w_in).max() <= 1.0

    def test_dtype_follows_config(self):
        w64 = init_denoiser(1, small_config(precision="f64"))
        assert w64.w_out.dtype == np.float64

    def test_recorded_weight_digest(self):
        w = init_denoiser(42, PipelineConfig())
        assert w.digest() == BASELINES["weights_digest_seed42_default"]


class TestForward:
    def test_prediction_bounded_by_tanh(self):
        cfg = small_config(batch=1, policy=AttentionPolicy.plain())
        pred = pipeline._forward(initial_noise(cfg), init_denoiser(7, cfg), cfg.layer_policies(), 0)
        assert pred.shape == (1, cfg.side, cfg.side)
        assert np.abs(pred).max() <= 1.0

    def test_blocks_run_in_lockstep_and_read_their_own_references(self, monkeypatch):
        cfg = small_config(batch=4, policy=AttentionPolicy.rfg_multi((0.3, 0.3)))
        w = init_denoiser(7, cfg)
        # Each call is labelled with the block whose w_q made its q, the last one matmul saw.
        block_of = {id(blk.w_q): b for b, blk in enumerate(w.blocks)}
        blocks, calls = [], []
        real_matmul, real_apply = pipeline.matmul, pipeline.apply_policy

        def matmul(a, b):
            if id(b) in block_of:
                blocks.append(block_of[id(b)])
            return real_matmul(a, b)

        def apply_policy(inputs, policy, refs=()):
            calls.append((blocks[-1], inputs, policy, list(refs)))
            return real_apply(inputs, policy, refs)

        monkeypatch.setattr(pipeline, "matmul", matmul)
        monkeypatch.setattr(pipeline, "apply_policy", apply_policy)
        denoise_step(initial_noise(cfg), 0, cfg.steps, w, cfg.layer_policies())
        order = [b for b, _, _, _ in calls]
        assert order == sorted(order), "a block ran before every sample finished the one before it"
        for b in range(cfg.blocks):
            block = [call[1:] for call in calls if call[0] == b]
            assert [policy for _, policy, _ in block] == [AttentionPolicy.plain()] * 2 + [cfg.policy] * 2
            references = [inputs for inputs, _, _ in block[:2]]
            for inputs in references:
                assert inputs.k.shape == (cfg.tokens, cfg.d)
                assert inputs.v.shape == (cfg.tokens, cfg.d_v)
            assert all(refs == [] for _, _, refs in block[:2])
            for _, _, refs in block[2:]:
                assert len(refs) == len(references)
                for (k, v), ref in zip(refs, references):
                    assert k is ref.k and v is ref.v

    @pytest.mark.parametrize("policy", [
        AttentionPolicy.rfg(0.35), AttentionPolicy.rfg_multi((0.3, 0.3)), AttentionPolicy.concat(),
    ], ids=["rfg", "rfg-multi", "concat"])
    def test_step_memory_does_not_grow_with_blocks(self, policy):
        def step_peak(blocks):
            cfg = PipelineConfig(blocks=blocks, policy=policy)
            w, latents, policies = init_denoiser(cfg.weights_seed, cfg), initial_noise(cfg), cfg.layer_policies()
            denoise_step(latents, 0, cfg.steps, w, policies)  # warm-up
            tracemalloc.start()
            try:
                denoise_step(latents, 0, cfg.steps, w, policies)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cfg = PipelineConfig()
        one_block_reference = cfg.tokens * (cfg.d + cfg.d_v) * 4
        assert abs(step_peak(8) - step_peak(2)) < one_block_reference


class TestDenoiseStep:
    def test_final_step_lands_on_prediction(self):
        cfg = small_config(batch=2)
        w = init_denoiser(8, cfg)
        latents = initial_noise(cfg)
        out = denoise_step(latents, cfg.steps - 1, cfg.steps, w, cfg.layer_policies())
        pred = pipeline._forward(latents, w, (AttentionPolicy.plain(),) * cfg.blocks, 0)
        assert np.allclose(out[0], pred[0], atol=1e-6)

    def test_plain_members_are_independent(self):
        cfg = small_config(batch=3, policy=AttentionPolicy.plain())
        w = init_denoiser(9, cfg)
        latents = initial_noise(cfg)
        out = denoise_step(latents, 0, cfg.steps, w, cfg.layer_policies())
        solo = denoise_step(latents[1:2], 0, cfg.steps, w, cfg.layer_policies())
        assert np.array_equal(out[1], solo[0])


class TestGenerateBatch:
    def test_bitwise_deterministic(self):
        cfg = small_config()
        a = generate_batch(cfg)
        b = generate_batch(cfg)
        assert np.array_equal(a.states, b.states)

    def test_shape_contract(self):
        cfg = small_config()
        traj = generate_batch(cfg)
        assert traj.states.shape == (cfg.steps + 1, cfg.batch, cfg.side, cfg.side)
        assert traj.steps == cfg.steps
        assert traj.batch == cfg.batch

    def test_strength_zero_matches_plain_run(self):
        base = generate_batch(small_config(policy=AttentionPolicy.plain()))
        zero = generate_batch(small_config(policy=AttentionPolicy.rfg(0.0)))
        assert np.array_equal(base.states, zero.states)

    def test_cross_frame_equals_full_strength(self):
        a = generate_batch(small_config(policy=AttentionPolicy.cross_frame()))
        b = generate_batch(small_config(policy=AttentionPolicy.rfg(1.0)))
        assert np.array_equal(a.states, b.states)

    def test_reference_ignores_policy_and_batch_size(self):
        runs = [
            generate_batch(small_config(policy=AttentionPolicy.plain())),
            generate_batch(small_config(policy=AttentionPolicy.concat())),
            generate_batch(small_config(policy=AttentionPolicy.rfg(-0.3))),
            generate_batch(small_config(policy=AttentionPolicy.rfg_matrix(), batch=2)),
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].states[:, 0], other.states[:, 0])

    def test_concat_and_matrix_policies_agree(self):
        merged = generate_batch(small_config(policy=AttentionPolicy.concat()))
        blended = generate_batch(small_config(policy=AttentionPolicy.rfg_matrix()))
        for t in range(merged.steps + 1):
            assert max_rel_error(
                merged.states[t].reshape(merged.batch, -1),
                blended.states[t].reshape(blended.batch, -1),
            ) < 1e-4

    def test_noise_is_per_sample_keyed(self):
        wide = generate_batch(small_config(batch=5, policy=AttentionPolicy.plain()))
        narrow = generate_batch(small_config(batch=3, policy=AttentionPolicy.plain()))
        assert np.array_equal(wide.states[:, :3], narrow.states[:, :3])

    def test_duplicate_noise_copies_reference_noise(self):
        cfg = small_config(duplicate_noise=True)
        noise = initial_noise(cfg)
        assert np.array_equal(noise[1], noise[0])
        assert not np.array_equal(noise[2], noise[0])

    def test_multi_reference_samples_run_plain(self):
        cfg = small_config(batch=4, policy=AttentionPolicy.rfg_multi((0.25, 0.25)))
        traj = generate_batch(cfg)
        plain = generate_batch(small_config(batch=4, policy=AttentionPolicy.plain()))
        assert np.array_equal(traj.states[:, 0], plain.states[:, 0])
        assert np.array_equal(traj.states[:, 1], plain.states[:, 1])
        assert not np.array_equal(traj.states[:, 2], plain.states[:, 2])

    def test_multi_single_reference_equals_scalar_blend(self):
        multi = generate_batch(small_config(policy=AttentionPolicy.rfg_multi((0.3,))))
        scalar = generate_batch(small_config(policy=AttentionPolicy.rfg(0.3)))
        assert np.array_equal(multi.states, scalar.states)

    def test_layer_strength_overrides(self):
        cfg = small_config(layer_strengths=(0.35, 0.35))
        uniform = generate_batch(small_config())
        overridden = generate_batch(cfg)
        assert np.array_equal(uniform.states, overridden.states)
        varied = generate_batch(small_config(layer_strengths=(0.1, 0.6)))
        assert not np.array_equal(uniform.states, varied.states)

    @settings(max_examples=8)
    @given(st.floats(-1, 1, allow_nan=False))
    def test_latents_stay_finite_for_unit_strengths(self, c):
        traj = generate_batch(small_config(steps=4, policy=AttentionPolicy.rfg(c)))
        assert np.isfinite(traj.states).all()

    def test_f64_precision_runs(self):
        traj = generate_batch(small_config(precision="f64"))
        assert traj.states.dtype == np.float64

    def test_recorded_final_latent_digest(self):
        traj = generate_batch(PipelineConfig())
        assert traj.final_digest() == BASELINES["final_digest_seeds42_7_rfg035_default"]

    @pytest.mark.parametrize("key", list(RECORDER.SCALAR_BLEND_RUNS))
    def test_recorded_scalar_blend_digests(self, key):
        traj = generate_batch(PipelineConfig(policy=RECORDER.SCALAR_BLEND_RUNS[key]))
        assert traj.final_digest() == BASELINES[key]

    @pytest.mark.parametrize("side, key", [(side, key) for side, runs in RECORDER.TILED_RUNS.items() for key in runs])
    @pytest.mark.parametrize("workers", ["untiled", 1, 2])
    def test_recorded_tiled_digests(self, monkeypatch, workers, side, key):
        # L = 1024 or 1600 (a 64-row last tile): every partition runs as query tiles, in the caller (1 worker) or on
        # the pool (2).
        monkeypatch.setattr(kernels, "pool_workers", lambda: 1 if workers == "untiled" else workers)
        if workers == "untiled":
            monkeypatch.setattr(kernels, "POOL_MIN_WORK", float("inf"))  # each partition is one tile
        assert RECORDER.tiled_digest(side, key) == BASELINES[f"final_digests_seeds42_7_side{side}"][key]


class TestTrajectory:
    def test_requires_four_axes(self):
        with pytest.raises(ValueError, match="steps"):
            Trajectory(states=np.zeros((2, 3, 4)))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 1, 2, 2))
        bad[1, 0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            Trajectory(states=bad)

    def test_final_is_last_step(self):
        states = np.arange(16.0).reshape(2, 2, 2, 2)
        traj = Trajectory(states=states)
        assert np.array_equal(traj.final, states[-1])


class TestTrajectoryDistance:
    def test_reference_index_rejected(self):
        traj = generate_batch(small_config())
        with pytest.raises(IndexError):
            trajectory_distance(traj, 0)
        with pytest.raises(IndexError):
            trajectory_distance(traj, traj.batch)

    # A bool would index the batch axis as a mask, selecting every sample; a float indexes nothing.
    @pytest.mark.parametrize("sample", [True, np.True_, 1.0])
    def test_non_integer_index_rejected(self, sample):
        traj = generate_batch(small_config(side=4, steps=2, blocks=1))
        assert trajectory_distance(traj, np.int64(1)).tolist() == trajectory_distance(traj, 1).tolist()
        with pytest.raises(IndexError, match=re.escape(f"must be an integer in [1, 4), got {sample!r}")):
            trajectory_distance(traj, sample)

    def test_independent_noise_gives_positive_series(self):
        traj = generate_batch(small_config(policy=AttentionPolicy.plain()))
        series = trajectory_distance(traj, 1)
        assert series.shape == (traj.steps + 1,)
        assert (series > 0).all()

    def test_duplicated_noise_tracks_reference(self):
        for c in (-0.3, 0.2, 1.0):
            cfg = small_config(duplicate_noise=True, policy=AttentionPolicy.rfg(c))
            traj = generate_batch(cfg)
            series = trajectory_distance(traj, 1)
            scale = np.array(
                [np.linalg.norm(traj.states[t, 0].astype(np.float64)) for t in range(traj.steps + 1)]
            )
            assert (series <= 1e-3 * scale).all()

    def test_recorded_distance_table(self):
        recorded = BASELINES["distance_series_seed42_default"]
        for key, expected in recorded.items():
            c = float(key)
            policy = AttentionPolicy.plain() if c == 0.0 else AttentionPolicy.rfg(c)
            traj = generate_batch(PipelineConfig(policy=policy))
            assert trajectory_distance(traj, 1).tolist() == expected
