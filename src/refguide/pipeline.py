"""Deterministic batch denoising loop with reference-conditioned attention.

The denoiser is an untrained stand-in for a real diffusion backbone: seeded
random weights, a stack of attention blocks over the flattened latent, and a
deterministic update that walks each latent linearly toward the current
prediction. It exists to exercise the attention policies per step and per
layer at desk scale, not to produce images worth looking at.

Batch convention: with a reference-conditioned policy the first sample (the
first N samples for an N-reference blend) is the reference. References run
plain self-attention; their keys/values are captured as one ``(k, v)`` pair
per block, rebuilt every step from the reference's current latent, and each
guided block reads its own block's pair from every reference. The reference
therefore never sees the guided samples, so its trajectory is bitwise
identical across policies and batch sizes for fixed seeds.

``denoise_step`` takes one policy per block (``PipelineConfig.layer_policies``);
its guided samples read only the caches that same step rebuilt.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .kernels import AttentionInputs, AttentionPolicy, apply_policy
from .linalg import PRECISION_DTYPES, frobenius_norm, matmul
from .rng import stream, uniform_matrix

# Residual update gain for the attention blocks. 0.5 keeps the untrained
# dynamics bounded over the default 20 steps; 1.0 lets |h| grow enough to
# saturate the output tanh and flatten policy differences.
MIX_SCALE = 0.5


@dataclass(frozen=True)
class PipelineConfig:
    """Architecture, schedule, and seeding for one batch generation."""

    side: int = 16
    blocks: int = 4
    d_model: int = 32
    d: int = 32
    d_v: int = 32
    steps: int = 20
    batch: int = 4
    policy: AttentionPolicy = AttentionPolicy.rfg(0.35)
    layer_strengths: tuple | None = None
    duplicate_noise: bool = False
    weights_seed: int = 42
    noise_seed: int = 7
    precision: str = "f32"

    def __post_init__(self):
        for name in ("side", "blocks", "d_model", "d", "d_v", "steps", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.precision not in PRECISION_DTYPES:
            raise ValueError(f"precision must be one of {sorted(PRECISION_DTYPES)}, got {self.precision!r}")
        refs = self.policy.reference_count
        if self.batch < refs + 1:
            raise ValueError(
                f"policy {self.policy.kind!r} needs {refs} reference(s) plus a guided sample, "
                f"so batch must be at least {refs + 1}, got {self.batch}"
            )
        if self.layer_strengths is not None:
            if self.policy.kind != "rfg":
                raise ValueError("layer_strengths only applies to the rfg policy")
            if len(self.layer_strengths) != self.blocks:
                raise ValueError(
                    f"layer_strengths has {len(self.layer_strengths)} entries for {self.blocks} blocks"
                )
            object.__setattr__(self, "layer_strengths", tuple(float(c) for c in self.layer_strengths))

    @property
    def tokens(self) -> int:
        return self.side * self.side

    @property
    def dtype(self):
        return PRECISION_DTYPES[self.precision]

    def layer_policies(self) -> tuple:
        """Policy applied at each block: the configured one, or per-layer rfg overrides."""
        if self.layer_strengths is None:
            return (self.policy,) * self.blocks
        return tuple(AttentionPolicy.rfg(c) for c in self.layer_strengths)


@dataclass
class BlockWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_mix: np.ndarray


@dataclass
class DenoiserWeights:
    """Fixed random weights, fully determined by (seed, architecture).

    Draw order (one generator, documented so reseeding reproduces bits):
    w_in, pos, then per block w_q, w_k, w_v, w_mix, then w_out. Every matrix
    is uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)].
    """

    w_in: np.ndarray
    pos: np.ndarray
    blocks: list = field(default_factory=list)
    w_out: np.ndarray = None

    def _arrays(self):
        yield self.w_in
        yield self.pos
        for blk in self.blocks:
            yield blk.w_q
            yield blk.w_k
            yield blk.w_v
            yield blk.w_mix
        yield self.w_out

    def digest(self) -> str:
        """sha256 over all weight bytes in draw order; regression fingerprint."""
        h = hashlib.sha256()
        for a in self._arrays():
            h.update(a.tobytes())
        return h.hexdigest()


def init_denoiser(seed: int, config: PipelineConfig) -> DenoiserWeights:
    """Draw the full weight set for ``config`` from one seeded stream."""
    gen = stream(int(seed))
    dt = config.dtype
    dm = config.d_model

    def draw(rows, cols, fan_in):
        return uniform_matrix(gen, rows, cols, scale=1.0 / np.sqrt(fan_in), dtype=dt)

    w_in = draw(1, dm, 1)
    pos = draw(config.tokens, dm, 1)
    blocks = [
        BlockWeights(
            w_q=draw(dm, config.d, dm),
            w_k=draw(dm, config.d, dm),
            w_v=draw(dm, config.d_v, dm),
            w_mix=draw(config.d_v, dm, config.d_v),
        )
        for _ in range(config.blocks)
    ]
    w_out = draw(dm, 1, dm)
    return DenoiserWeights(w_in=w_in, pos=pos, blocks=blocks, w_out=w_out)


def _forward(latent, weights, policies, caches, collect_cache=False):
    """One denoiser pass over a (side, side) latent.

    Returns (prediction, this pass's ``[(k, v), ...]`` per block, or None).
    ``policies`` holds one policy per block; ``caches`` holds one such list
    per reference, and block ``i`` hands apply_policy each list's entry ``i``.
    """
    side = latent.shape[0]
    x = latent.reshape(side * side, 1)
    h = matmul(x, weights.w_in) + weights.pos
    captured = []
    for i, blk in enumerate(weights.blocks):
        q = matmul(h, blk.w_q)
        k = matmul(h, blk.w_k)
        v = matmul(h, blk.w_v)
        if collect_cache:
            captured.append((k, v))
        a = apply_policy(AttentionInputs(q, k, v), policies[i], [cache[i] for cache in caches])
        h = h + MIX_SCALE * matmul(a, blk.w_mix)
    pred = np.tanh(matmul(h, weights.w_out))
    return pred.reshape(side, side), captured if collect_cache else None


def reference_pass(latent, weights):
    """Plain self-attention pass that also captures each block's ``(k, v)``."""
    plain = (AttentionPolicy.plain(),) * len(weights.blocks)
    return _forward(latent, weights, plain, caches=(), collect_cache=True)


def denoise_step(latents, t: int, steps: int, weights, policies: tuple):
    """Advance every batch member one step: x + (prediction - x) / (steps - t).

    ``policies`` holds one AttentionPolicy per block. Reference members (the
    first ``reference_count`` samples; none under the plain policy) are
    processed first with plain attention, publishing their K/V caches;
    guided members then run each block under that block's policy.
    """
    if not 0 <= t < steps:
        raise ValueError(f"step index {t} outside [0, {steps})")
    if len(policies) != len(weights.blocks):
        raise ValueError(f"got {len(policies)} per-layer policies for {len(weights.blocks)} blocks")
    n_refs = policies[0].reference_count
    if latents.shape[0] <= n_refs and n_refs > 0:
        raise ValueError(f"batch of {latents.shape[0]} cannot supply {n_refs} reference(s) and a guided sample")

    out = np.empty_like(latents)
    u = 1.0 / (steps - t)

    caches = []
    for i in range(n_refs):
        pred, kv = reference_pass(latents[i], weights)
        out[i] = latents[i] + (pred - latents[i]) * u
        caches.append(kv)

    for i in range(n_refs, latents.shape[0]):
        pred, _ = _forward(latents[i], weights, policies, caches)
        out[i] = latents[i] + (pred - latents[i]) * u
    return out


@dataclass
class Trajectory:
    """Latents for every step (initial noise included) and batch member."""

    states: np.ndarray

    def __post_init__(self):
        if self.states.ndim != 4:
            raise ValueError(f"trajectory states must be (steps+1, batch, side, side), got {self.states.shape}")
        if not np.isfinite(self.states).all():
            raise ValueError("trajectory contains non-finite latents")

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def batch(self) -> int:
        return self.states.shape[1]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def final_digest(self) -> str:
        """sha256 of the final-step latents; regression fingerprint."""
        return hashlib.sha256(self.final.tobytes()).hexdigest()


def initial_noise(config: PipelineConfig) -> np.ndarray:
    """Per-sample seeded standard-normal latents, (batch, side, side).

    Each sample draws from its own stream keyed (noise_seed, sample), so a
    sample's noise does not depend on the batch size. With duplicate_noise
    the first guided sample receives a copy of the reference's noise.
    """
    dt = config.dtype
    noise = np.empty((config.batch, config.side, config.side), dtype=dt)
    for i in range(config.batch):
        gen = stream(config.noise_seed, i)
        noise[i] = gen.standard_normal((config.side, config.side)).astype(dt)
    if config.duplicate_noise:
        first_guided = max(1, config.policy.reference_count)
        if first_guided < config.batch:
            noise[first_guided] = noise[0]
    return noise


def generate_batch(config: PipelineConfig) -> Trajectory:
    """Run the full batch loop; a pure function of the config."""
    weights = init_denoiser(config.weights_seed, config)
    policies = config.layer_policies()
    states = np.empty(
        (config.steps + 1, config.batch, config.side, config.side), dtype=config.dtype
    )
    states[0] = initial_noise(config)
    for t in range(config.steps):
        states[t + 1] = denoise_step(states[t], t, config.steps, weights, policies)
    return Trajectory(states=states)


def trajectory_distance(traj: Trajectory, sample: int) -> np.ndarray:
    """Per-step Frobenius distance between ``sample`` and the reference (index 0)."""
    if not 1 <= sample < traj.batch:
        raise IndexError(f"sample index must be in [1, {traj.batch}), got {sample}")
    return np.array(
        [frobenius_norm(traj.states[t, sample] - traj.states[t, 0]) for t in range(traj.steps + 1)],
        dtype=np.float64,
    )
