"""Run configuration: presets, JSON config files, and flag overrides.

One flat key set covers every subcommand; a JSON config file supplies any
subset, command-line flags override it, and unknown keys are rejected by
name. Presets bind the reference strength to the recommended operating
points; anything else goes through preset "custom". ``RunConfig.named_policy``
resolves the policy and the keys naming it; a config gives no other policy key.
"""

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Literal, get_args, get_origin

import numpy as np

from . import kernels
from .bench import DEFAULT_BENCH_GRID
from .kernels import POLICY_KINDS, AttentionPolicy
from .linalg import PRECISION_DTYPES
from .oracle import DEFAULT_GRID
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

# Largest share of physical memory that one attention call's logits, one
# trajectory of latents, or the denoiser's weights may take.
MEMORY_FRACTION = 0.5

# Keys that name the policy; a config may give only those ``named_policy`` reads.
_POLICY_KEYS = ("policy_kind", "strength", "strengths", "references")


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad value, or violated invariant."""


def _coerce(key: str, value, hint):
    """Check ``value`` against the field annotation ``hint``; return it normalised.

    Handles the annotation forms RunConfig uses: ``str``, ``bool``, ``int``,
    ``float`` (finite), ``Literal[...]`` (one of its values), nonempty
    ``tuple[float, ...]``, and nonempty grids of positive integers
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
    if get_origin(hint) is Literal:
        if value not in args:
            raise ConfigError(f"key {key!r} must be one of {args}, got {value!r}")
        return value
    if args[0] is float:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"key {key!r} must be a nonempty list of numbers, got {value!r}")
        return tuple(_coerce(key, v, float) for v in value)
    width = len(get_args(args[0]))
    ok = isinstance(value, (list, tuple)) and value and all(
        isinstance(cell, (list, tuple))
        and len(cell) == width
        and all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in cell)
        for cell in value
    )
    if not ok:
        raise ConfigError(f"key {key!r} must be a nonempty list of cells of {width} positive integers, got {value!r}")
    return tuple(tuple(cell) for cell in value)


def _named(keys, values) -> str:
    """``key 'side' value 16``, or ``keys 'steps' and 'batch' values 20 and 4``; a cell reads ``64x4x4``."""
    values = ["x".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in values]
    if len(keys) == 1:
        return f"key {keys[0]!r} value {values[0]}"
    return f"keys {', '.join(map(repr, keys[:-1]))} and {keys[-1]!r} values {', '.join(values[:-1])} and {values[-1]}"


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, resolved from defaults, file, and flags.

    The field annotations are the config schema: every value is checked
    against its field's type when the config is built (``X | None`` marks the
    keys that may be null), then against the range invariants below, so no
    command re-checks what it reads from here. The keys that configure the
    denoiser take their defaults from ``PipelineConfig``.
    """

    preset: Literal[PRESETS] = "custom"
    policy_kind: Literal[POLICY_KINDS] = "rfg"
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
    precision: Literal[tuple(PRECISION_DTYPES)] = PipelineConfig.precision
    out_dir: str = "out"
    trials: int = 20
    grid: tuple[tuple[int, int, int], ...] | None = None
    stress_trials: int = 5
    corrupt_kernel: float = 0.0
    sweep_strengths: tuple[float, ...] = (-0.3, 0.2, 0.35)
    bench_grid: tuple[tuple[int, int, int, int], ...] = DEFAULT_BENCH_GRID
    iterations: int = 100
    warmup: int = 10

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _coerce(f.name, getattr(self, f.name), f.type))
        for key in ("weights_seed", "noise_seed", "seed", "stress_trials", "warmup"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ConfigError(f"{key} must be nonnegative, got {value}")
        for key in ("side", "blocks", "d_model", "d", "d_v", "steps", "batch", "references", "trials", "iterations"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        for cell in self.bench_grid:
            if cell[3] < 2:
                raise ConfigError(f"bench_grid batch must be at least 2, got cell {'x'.join(map(str, cell))}")
        # A call holds L x S logits, or a tile per worker where ``kernels.tile_rows``
        # tiles it, so every cell is checked; S = 2L where concat attention runs (the
        # "concat" policy, every check trial and bench cell). A check cell draws L x d and
        # L x d_v operands in f64, a bench cell holds B samples of L x (2d + d_v) ones, a
        # block projects side² x d and side² x d_v ones, ``generate`` and ``sweep`` hold a
        # whole trajectory and, each step, every reference's K and V of every block, and
        # ``init_denoiser`` draws every weight in f64 first. Entries are (keys, values,
        # precision, what, dims); only a rejected one is named.
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        policy, named = self.named_policy()
        # R is set by the reference count or strengths list where one is given, else by the kind.
        r, r_key = policy.reference_count, named[-1] if named[-1] in ("references", "strengths") else named[0]
        tokens, p = self.side ** 2, self.precision

        def held(n, s):
            return min(n, kernels.tile_rows(n, s) * kernels.POOL_WORKERS), s

        shapes = [(("side",), (self.side,), p, "attention logits",
                   held(tokens, (2 if policy.kind == "concat" else 1) * tokens))]
        for key, cells in (("grid", self.check_grid), ("bench_grid", self.bench_grid)):
            shapes += [((key,), (cell,), p, "attention logits", held(cell[0], 2 * cell[0])) for cell in cells]
        shapes += [(("grid",), (cell,), "f64", "drawn operands", (cell[0], max(cell[1], cell[2])))
                   for cell in self.check_grid]
        shapes += [(("bench_grid",), (cell,), p, "batch operands", (cell[3], cell[0], 2 * cell[1] + cell[2]))
                   for cell in self.bench_grid]
        shapes.append((("steps", "batch"), (self.steps, self.batch), p, "trajectory latents",
                       (self.steps + 1, self.batch, self.side, self.side)))
        shapes.append((("blocks", "d_model", "d", "d_v"), (self.blocks, self.d_model, self.d, self.d_v), "f64",
                       "denoiser weights",
                       (self.blocks * self.d_model * (2 * self.d + 2 * self.d_v) + (tokens + 2) * self.d_model,)))
        shapes.append((("side", "d", "d_v"), (self.side, self.d, self.d_v), p, "per-block projections",
                       (tokens, max(self.d, self.d_v))))
        shapes.append(((r_key, "blocks"), (r if r_key == "strengths" else getattr(self, r_key), self.blocks), p,
                       "reference caches", (r, self.blocks, tokens, self.d + self.d_v)))
        for keys, values, precision, what, dims in shapes:
            need = math.prod(dims) * np.dtype(PRECISION_DTYPES[precision]).itemsize
            if need > MEMORY_FRACTION * physical:
                raise ConfigError(
                    f"{_named(keys, values)}: the {'x'.join(map(str, dims))} {precision} {what} need "
                    f"{need / 2**30:.3g} GiB, more than {MEMORY_FRACTION:.0%} of the {physical / 2**30:.3g} GiB "
                    "of physical memory"
                )

    def named_policy(self) -> tuple:
        """``(policy, keys)``: the attention policy this config names, and the keys naming it.

        The kind's key comes first and the strengths' key last: ``("preset",)``,
        ``("preset", "references")``, ``("policy_kind", "strength")``.
        """
        if self.preset in PRESET_STRENGTHS:
            return AttentionPolicy.rfg(PRESET_STRENGTHS[self.preset]), ("preset",)
        if self.preset == "blend":
            return AttentionPolicy.rfg_multi((BLEND_STRENGTH,) * self.references), ("preset", "references")
        kind = self.policy_kind
        if kind == "rfg":
            return AttentionPolicy.rfg(self.strength), ("policy_kind", "strength")
        if kind == "rfg-multi":
            if not self.strengths:
                raise ConfigError("policy_kind 'rfg-multi' requires a nonempty strengths list")
            return AttentionPolicy.rfg_multi(self.strengths), ("policy_kind", "strengths")
        return AttentionPolicy.cross_frame() if kind == "cross-frame" else AttentionPolicy(kind), ("policy_kind",)

    def resolved_policy(self) -> AttentionPolicy:
        """The attention policy this config's preset (or custom fields) names."""
        return self.named_policy()[0]

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
        policy, keys = self.named_policy()
        if strength_override is not None:
            if self.layer_strengths is not None:
                raise ConfigError("key 'layer_strengths' sets every block's strength, so sweep cannot override it")
            if policy.kind != "rfg":
                raise ConfigError(f"key {keys[0]!r} selects policy {policy.kind!r}, "
                                  "but sweep varies the strength of an 'rfg' policy")
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    keys = cfg.named_policy()[1]
    unread = [key for key in _POLICY_KEYS if key in data and key not in keys]
    if unread:
        reads = " and ".join(repr(key) for key in keys if key in _POLICY_KEYS) or "no policy key"
        raise ConfigError(f"key {unread[0]!r} does not apply: {keys[0]} {getattr(cfg, keys[0])!r} reads {reads}")
    cfg.pipeline_config()
    return cfg
