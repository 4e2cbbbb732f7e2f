"""Run configuration: presets, JSON config files, and flag overrides.

One flat key set covers every subcommand; a JSON config file supplies any
subset, command-line flags override it, and unknown keys are rejected by
name. Presets bind the reference strength to the recommended operating
points; anything else goes through preset "custom". A config gives only the
policy keys its way of naming the policy reads, so none is ignored.
"""

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args

import numpy as np

from .bench import DEFAULT_BENCH_GRID
from .kernels import POLICY_KINDS, AttentionPolicy
from .linalg import PRECISION_DTYPES
from .oracle import DEFAULT_GRID, PRECISION_THRESHOLDS
from .pipeline import PipelineConfig

# Recommended operating points. "consistent" strengthens subject consistency
# (working range 0.3..0.4, midpoint used); "diverse" pushes away from the
# reference; "temporal" is the video/temporal-smoothing setting; "blend"
# mixes several references at equal strength (per-reference range 0.2..0.4).
CONSISTENT_STRENGTH = 0.35
CONSISTENT_RANGE = (0.3, 0.4)
DIVERSE_STRENGTH = -0.3
TEMPORAL_STRENGTH = 0.2
BLEND_STRENGTH = 0.3
BLEND_RANGE = (0.2, 0.4)

PRESET_STRENGTHS = {
    "consistent": CONSISTENT_STRENGTH,
    "diverse": DIVERSE_STRENGTH,
    "temporal": TEMPORAL_STRENGTH,
}
PRESETS = ("consistent", "diverse", "temporal", "blend", "custom")

# Largest share of physical memory that one attention call's L x S logits,
# one trajectory of latents, or the denoiser's weights may take.
MEMORY_FRACTION = 0.5

# Keys that name the policy; a config may give only those its way of naming
# the policy reads (``_policy_keys``).
_POLICY_KEYS = ("policy_kind", "strength", "strengths", "references")


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad value, or violated invariant."""


def _coerce(key: str, value, hint):
    """Check ``value`` against the field annotation ``hint``; return it normalised.

    Handles the annotation forms RunConfig uses: ``str``, ``bool``, ``int``,
    ``float`` (finite), ``tuple[float, ...]``, and grids of positive integers
    ``tuple[tuple[int, ...], ...]`` whose inner tuple type fixes the cell
    width; each may be written ``X | None``.
    """
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        hint = args[0]
        args = get_args(hint)
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"key {key!r} must be a string, got {value!r}")
        return value
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"key {key!r} must be true or false, got {value!r}")
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {key!r} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r} must be finite, got {value!r}")
        return float(value)
    if args[0] is float:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"key {key!r} must be a list of numbers, got {value!r}")
        return tuple(_coerce(key, v, float) for v in value)
    width = len(get_args(args[0]))
    ok = isinstance(value, (list, tuple)) and all(
        isinstance(cell, (list, tuple))
        and len(cell) == width
        and all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in cell)
        for cell in value
    )
    if not ok:
        raise ConfigError(f"key {key!r} must be a list of {width}-integer cells, got {value!r}")
    return tuple(tuple(cell) for cell in value)


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, resolved from defaults, file, and flags.

    The field annotations are the config schema: every value is checked
    against its field's type when the config is built (``X | None`` marks the
    keys that may be null), then against the range invariants below, so no
    command re-checks what it reads from here. The keys that configure the
    denoiser take their defaults from ``PipelineConfig``.
    """

    preset: str = "custom"
    policy_kind: str = "rfg"
    strength: float = CONSISTENT_STRENGTH
    strengths: tuple[float, ...] | None = None
    references: int = 2
    side: int = PipelineConfig.side
    blocks: int = PipelineConfig.blocks
    d_model: int = PipelineConfig.d_model
    d: int = PipelineConfig.d
    d_v: int = PipelineConfig.d_v
    steps: int = PipelineConfig.steps
    batch: int = PipelineConfig.batch
    layer_strengths: tuple[float, ...] | None = PipelineConfig.layer_strengths
    duplicate_noise: bool = PipelineConfig.duplicate_noise
    weights_seed: int = PipelineConfig.weights_seed
    noise_seed: int = PipelineConfig.noise_seed
    seed: int | None = None
    precision: str = PipelineConfig.precision
    out_dir: str = "out"
    trials: int = 20
    grid: tuple[tuple[int, int, int], ...] | None = None
    threshold: float | None = None
    stress_scale: float = 100.0
    stress_trials: int = 5
    corrupt_kernel: float = 0.0
    sweep_strengths: tuple[float, ...] = (-0.3, 0.2, 0.35)
    bench_grid: tuple[tuple[int, int, int, int], ...] = DEFAULT_BENCH_GRID
    iterations: int = 100
    warmup: int = 10

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _coerce(f.name, getattr(self, f.name), f.type))
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}, expected one of {PRESETS}")
        if self.policy_kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy_kind {self.policy_kind!r}, expected one of {POLICY_KINDS}")
        if self.precision not in PRECISION_DTYPES:
            raise ConfigError(f"precision must be one of {tuple(PRECISION_DTYPES)}, got {self.precision!r}")
        for key in ("weights_seed", "noise_seed", "seed", "stress_trials", "warmup"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ConfigError(f"{key} must be nonnegative, got {value}")
        for key in ("references", "trials", "iterations"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        for key in ("threshold", "stress_scale"):
            value = getattr(self, key)
            if value is not None and value <= 0:
                raise ConfigError(f"{key} must be positive, got {value}")
        if not self.check_grid:
            raise ConfigError("grid must name at least one (L, d, d_v) cell")
        # Suite inputs are uniform in [-1, 1] and stressed queries are scaled
        # by stress_scale, so |q k^T| <= stress_scale * d in every check cell.
        logit_bound = self.stress_scale * max(cell[1] for cell in self.check_grid)
        if logit_bound >= float(np.finfo(PRECISION_DTYPES[self.precision]).max):
            raise ConfigError(
                f"stress_scale {self.stress_scale!r} times the widest check cell's d overflows "
                f"{self.precision} logits ({logit_bound:.3g})"
            )
        # A normalised deviation stays below about 2, so a stress bound of 1 or
        # more would let every stressed trial pass.
        threshold = self.threshold if self.threshold is not None else PRECISION_THRESHOLDS[self.precision]
        if threshold * self.stress_scale >= 1.0:
            raise ConfigError(
                f"stress_scale {self.stress_scale!r} times the threshold {threshold!r} is at least 1, "
                "so the stressed trials could never fail"
            )
        if not self.sweep_strengths:
            raise ConfigError("sweep_strengths must name at least one coefficient")
        if not self.bench_grid:
            raise ConfigError("bench_grid must name at least one (L, d, d_v, B) cell")
        for cell in self.bench_grid:
            if cell[3] < 2:
                raise ConfigError(f"bench_grid batch must be at least 2, got cell {'x'.join(map(str, cell))}")
        # One attention call allocates its L x S logits, S = 2L where concat
        # attention runs: the "concat" policy, every check trial, every bench
        # cell. Cells compare by L first, so ``max`` of a grid has its largest L.
        # ``generate`` and each ``sweep`` strength hold one whole trajectory,
        # and ``init_denoiser`` draws every weight in f64 before the cast.
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        concat = self.preset == "custom" and self.policy_kind == "concat"
        tokens, p = self.side ** 2, self.precision
        shapes = [(f"key 'side' value {self.side}", p, "attention logits", (tokens, (2 if concat else 1) * tokens))]
        shapes += [(f"key {key!r} value {'x'.join(map(str, cell))}", p, "attention logits", (cell[0], 2 * cell[0]))
                   for key, cell in (("grid", max(self.check_grid)), ("bench_grid", max(self.bench_grid)))]
        shapes.append((f"keys 'steps' and 'batch' values {self.steps} and {self.batch}", p, "trajectory latents",
                       (self.steps + 1, self.batch, self.side, self.side)))
        shapes.append((f"keys 'blocks', 'd_model', 'd' and 'd_v' values {self.blocks}, {self.d_model}, {self.d} "
                       f"and {self.d_v}", "f64", "denoiser weights",
                       (self.blocks * self.d_model * (2 * self.d + 2 * self.d_v) + (tokens + 2) * self.d_model,)))
        for label, precision, what, dims in shapes:
            need = math.prod(dims) * np.dtype(PRECISION_DTYPES[precision]).itemsize
            if need > MEMORY_FRACTION * physical:
                raise ConfigError(
                    f"{label}: the {'x'.join(map(str, dims))} {precision} {what} need {need / 2**30:.3g} GiB, "
                    f"more than {MEMORY_FRACTION:.0%} of the {physical / 2**30:.3g} GiB of physical memory"
                )

    def resolved_policy(self) -> AttentionPolicy:
        """The attention policy this config's preset (or custom fields) names."""
        if self.preset in PRESET_STRENGTHS:
            return AttentionPolicy.rfg(PRESET_STRENGTHS[self.preset])
        if self.preset == "blend":
            return AttentionPolicy.rfg_multi((BLEND_STRENGTH,) * self.references)
        kind = self.policy_kind
        if kind == "rfg":
            return AttentionPolicy.rfg(self.strength)
        if kind == "rfg-multi":
            if not self.strengths:
                raise ConfigError("policy_kind 'rfg-multi' requires a nonempty strengths list")
            return AttentionPolicy.rfg_multi(self.strengths)
        return AttentionPolicy.cross_frame() if kind == "cross-frame" else AttentionPolicy(kind)

    def resolved_seeds(self) -> tuple:
        """(weights_seed, noise_seed); a top-level seed overrides both."""
        if self.seed is not None:
            return int(self.seed), int(self.seed) + 1
        return self.weights_seed, self.noise_seed

    @property
    def check_seed(self) -> int:
        return self.seed if self.seed is not None else 0

    @property
    def check_grid(self) -> tuple:
        return self.grid if self.grid is not None else DEFAULT_GRID

    def pipeline_config(self, strength_override: float | None = None) -> PipelineConfig:
        """PipelineConfig for this run; ``strength_override`` swaps in one rfg strength.

        The override only replaces the strength of an ``rfg`` policy: any
        other policy, or per-block ``layer_strengths``, is rejected by key.
        """
        policy = self.resolved_policy()
        if strength_override is not None:
            if self.layer_strengths is not None:
                raise ConfigError("key 'layer_strengths' sets every block's strength, so sweep cannot override it")
            if policy.kind != "rfg":
                key = "policy_kind" if self.preset == "custom" else "preset"
                raise ConfigError(
                    f"key {key!r} selects policy {policy.kind!r}, but sweep varies the strength of an 'rfg' policy"
                )
            policy = AttentionPolicy.rfg(float(strength_override))
        shared = {f.name: getattr(self, f.name) for f in fields(PipelineConfig) if f.name in _FIELD_NAMES}
        shared["weights_seed"], shared["noise_seed"] = self.resolved_seeds()
        try:
            return PipelineConfig(**shared, policy=policy)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        """JSON-ready resolved view, written next to outputs for provenance.

        ``out_dir`` is omitted: it says where the artifacts live, not what
        they contain, and keeping it out makes reruns into different
        directories produce byte-identical dumps.
        """
        out = {}
        for f in fields(self):
            if f.name == "out_dir":
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[f.name] = value
        policy = self.resolved_policy()
        out["resolved_policy"] = {
            "kind": policy.kind,
            "strength": policy.strength,
            "strengths": list(policy.strengths),
        }
        out["resolved_weights_seed"], out["resolved_noise_seed"] = self.resolved_seeds()
        return out


_FIELD_NAMES = frozenset(f.name for f in fields(RunConfig))


def _policy_keys(preset: str, kind: str) -> tuple:
    """The keys of ``_POLICY_KEYS`` read when the policy is named by ``preset`` (and ``kind`` under "custom")."""
    if preset != "custom":
        return ("references",) if preset == "blend" else ()
    return ("policy_kind", *{"rfg": ("strength",), "rfg-multi": ("strengths",)}.get(kind, ()))


def parse_config(path=None, overrides=None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus flag overrides.

    Flags win over the file; both win over defaults. Every violation raises
    ConfigError with a message naming the offending key or file.
    """
    data = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(raw).__name__}")
        data.update(raw)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})

    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}" + (f" (and {len(unknown) - 1} more)" if len(unknown) > 1 else ""))

    cfg = RunConfig(**data)
    read = _policy_keys(cfg.preset, cfg.policy_kind)
    unread = [key for key in _POLICY_KEYS if key in data and key not in read]
    if unread:
        named = f"preset {cfg.preset!r}" if cfg.preset != "custom" else f"policy_kind {cfg.policy_kind!r}"
        reads = " and ".join(map(repr, read)) or "no policy key"
        raise ConfigError(f"key {unread[0]!r} does not apply: {named} reads {reads}")
    cfg.pipeline_config()
    return cfg
