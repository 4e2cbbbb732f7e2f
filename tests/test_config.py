import argparse
import contextlib
import json
import os
import re
import tracemalloc
from dataclasses import fields
from typing import Literal, get_args, get_origin

import numpy as np
import pytest

from refguide import kernels
from refguide.cli import _build_parser
from refguide.config import (
    BLEND_RANGE,
    BLEND_STRENGTH,
    CONSISTENT_RANGE,
    CONSISTENT_STRENGTH,
    DIVERSE_STRENGTH,
    TEMPORAL_STRENGTH,
    ConfigError,
    RunConfig,
    parse_config,
)
from refguide.oracle import DEFAULT_GRID
from refguide.pipeline import PipelineConfig


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestPresets:
    def test_consistent_uses_range_midpoint(self):
        policy = parse_config(overrides={"preset": "consistent"}).resolved_policy()
        assert policy.kind == "rfg"
        assert policy.strength == CONSISTENT_STRENGTH
        assert CONSISTENT_RANGE[0] <= policy.strength <= CONSISTENT_RANGE[1]

    def test_diverse_is_negative(self):
        policy = parse_config(overrides={"preset": "diverse"}).resolved_policy()
        assert policy.strength == DIVERSE_STRENGTH == -0.3

    def test_temporal_strength(self):
        policy = parse_config(overrides={"preset": "temporal"}).resolved_policy()
        assert policy.strength == TEMPORAL_STRENGTH == 0.2

    def test_blend_gives_equal_per_reference_strengths(self):
        cfg = parse_config(overrides={"preset": "blend", "references": 3, "batch": 4})
        policy = cfg.resolved_policy()
        assert policy.kind == "rfg-multi"
        assert policy.strengths == (BLEND_STRENGTH,) * 3
        assert all(BLEND_RANGE[0] <= c <= BLEND_RANGE[1] for c in policy.strengths)

    def test_custom_respects_policy_fields(self):
        cfg = parse_config(overrides={"policy_kind": "rfg", "strength": -0.123})
        assert cfg.resolved_policy().strength == -0.123

    def test_custom_multi_requires_strengths(self):
        with pytest.raises(ConfigError, match="strengths"):
            parse_config(overrides={"policy_kind": "rfg-multi"}).resolved_policy()

    def test_custom_plain_policy(self):
        cfg = parse_config(overrides={"policy_kind": "plain", "batch": 1})
        assert cfg.resolved_policy().kind == "plain"

    def test_preset_conflicts_with_strength(self):
        with pytest.raises(ConfigError, match="strength"):
            parse_config(overrides={"preset": "diverse", "strength": 0.5})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(overrides={"preset": "vivid"})


class TestParseConfig:
    def test_defaults_without_any_input(self):
        cfg = parse_config()
        assert cfg == RunConfig()
        pipeline = cfg.pipeline_config()
        assert (pipeline.side, pipeline.blocks, pipeline.steps, pipeline.batch) == (16, 4, 20, 4)
        assert pipeline == PipelineConfig()

    @pytest.mark.parametrize("overrides, key", [
        ({"side": 2000}, "side"),  # 4e6 x 4e6 f32 logits, 64 TB
        ({"grid": [[64, 4, 4], [10**7, 1, 1]]}, "grid"),
        ({"bench_grid": [[10**7, 1, 1, 2]]}, "bench_grid"),
    ])
    def test_shape_too_large_for_memory_is_named(self, overrides, key):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"key {key!r} value .* attention logits need .* physical memory"):
                parse_config(overrides=overrides)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # With 128 MiB of physical memory, one call's logits may take 64 MiB: an
    # untiled 4096 x 4096 at f32, or 2896 x 5792 under concat attention. A
    # tiled call holds one 256-row tile per worker: side 64 at f64 takes
    # 2 x 256 x 4096 x 8 B = 16 MiB at 2 workers, 128 MiB at 16.
    @pytest.mark.parametrize("overrides, key, workers", [
        ({"side": 64}, None, 2),
        ({"side": 65}, "side", 2),
        ({"side": 63, "precision": "f64"}, "side", 2),  # untiled, 3969^2 x 8 B = 126 MB
        ({"side": 64, "precision": "f64"}, None, 2),
        ({"side": 64, "precision": "f64"}, "side", 16),
        ({"side": 53, "policy_kind": "concat"}, None, 2),
        ({"side": 54, "policy_kind": "concat"}, "side", 2),
        ({"side": 64, "preset": "consistent"}, None, 2),
        ({"grid": [[2896, 1, 1]]}, None, 2),
        ({"grid": [[2897, 1, 1]]}, "grid", 2),
        ({"grid": [[4096, 1, 1], [2897, 1, 1]]}, "grid", 2),  # the tiled max cell fits; 2897 does not
        ({"bench_grid": [[2896, 1, 1, 2]]}, None, 2),
        ({"bench_grid": [[2897, 1, 1, 2]]}, "bench_grid", 2),
    ])
    def test_logits_may_take_half_of_physical_memory(self, monkeypatch, overrides, key, workers):
        memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (128 << 20) // 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        monkeypatch.setattr(kernels, "POOL_WORKERS", workers)
        if key is None:
            parse_config(overrides=overrides)
        else:
            cell = "x".join(map(str, overrides[key][-1])) if key.endswith("grid") else overrides[key]
            with pytest.raises(ConfigError, match=f"key {key!r} value {cell}: .* more than 50% of the 0.125 GiB"):
                parse_config(overrides=overrides)

    def test_trajectory_too_large_for_memory_is_named(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="keys 'steps' and 'batch' values .* trajectory latents need .* physical memory"):
                parse_config(overrides={"steps": 10**9, "side": 16})  # 3.7 TiB of f32 latents
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # With 128 MiB of physical memory, a trajectory may take 64 MiB: 65536
    # side-16 f32 latents, (steps + 1) * batch of them.
    @pytest.mark.parametrize("overrides, ok", [
        ({"steps": 16383}, True),
        ({"steps": 16384}, False),
        ({"steps": 32767, "batch": 2}, True),
        ({"steps": 32767, "batch": 3}, False),
        ({"steps": 16383, "precision": "f64"}, False),
    ])
    def test_trajectory_may_take_half_of_physical_memory(self, monkeypatch, overrides, ok):
        memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (128 << 20) // 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        if ok:
            parse_config(overrides=overrides)
        else:
            with pytest.raises(ConfigError, match="keys 'steps' and 'batch' .* more than 50% of the 0.125 GiB"):
                parse_config(overrides=overrides)

    def test_weights_too_large_for_memory_are_named(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="keys 'blocks', 'd_model', 'd' and 'd_v' values 4, 32, 10000000000 "
                                                  "and 32: .* f64 denoiser weights need .* physical memory"):
                parse_config(overrides={"d": 10**10, "steps": 1})  # 19 TiB of weights
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # With 128 MiB of physical memory, the weights may take 64 MiB: 2^23 values
    # counted at f64 whatever the precision, 256 d + 256 d_v + 8256 of them
    # with the default blocks, d_model and side. The plain policy holds no
    # reference caches, which would otherwise be the larger need.
    @pytest.mark.parametrize("overrides, ok", [
        ({"d": 32703}, True),
        ({"d": 32704}, False),
        ({"d": 32703, "precision": "f64"}, True),
        ({"d_v": 32703}, True),
        ({"d_v": 32704}, False),
        ({"d": 32703, "blocks": 5}, False),
    ])
    def test_weights_may_take_half_of_physical_memory(self, monkeypatch, overrides, ok):
        memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (128 << 20) // 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        overrides = {"policy_kind": "plain", **overrides}
        if ok:
            parse_config(overrides=overrides)
        else:
            with pytest.raises(ConfigError, match="keys 'blocks', 'd_model', 'd' and 'd_v' .* 50% of the 0.125 GiB"):
                parse_config(overrides=overrides)

    # Each way of naming a policy reads only some of its keys; any other given key is named.
    @pytest.mark.parametrize("overrides, key", [
        ({"policy_kind": "rfg", "strengths": [0.1, 0.2]}, "strengths"),
        ({"strengths": [0.1]}, "strengths"),
        ({"policy_kind": "concat", "strength": 0.9}, "strength"),
        ({"policy_kind": "cross-frame", "strengths": [1.0]}, "strengths"),
        ({"policy_kind": "rfg-multi", "strengths": [0.2], "strength": 0.3}, "strength"),
        ({"references": 5}, "references"),
        ({"policy_kind": "rfg-multi", "strengths": [0.2], "references": 1}, "references"),
        ({"preset": "consistent", "references": 2}, "references"),
        ({"preset": "diverse", "policy_kind": "rfg"}, "policy_kind"),
        ({"preset": "blend", "strengths": [0.3, 0.3]}, "strengths"),
    ])
    def test_policy_keys_the_policy_does_not_read_are_named(self, overrides, key):
        with pytest.raises(ConfigError, match=f"key {key!r} does not apply"):
            parse_config(overrides=overrides)

    @pytest.mark.parametrize("overrides", [
        {"preset": "blend", "references": 3, "batch": 4},
        {"preset": "custom", "policy_kind": "rfg", "strength": 0.2},
        {"strength": 0.2},
        {"policy_kind": "rfg-multi", "strengths": [0.2, 0.1]},
        *({"policy_kind": kind} for kind in ("plain", "concat", "cross-frame", "rfg-matrix")),
    ])
    def test_policy_keys_the_policy_reads_are_accepted(self, overrides):
        parse_config(overrides={"batch": 4, **overrides})

    # The default run, each preset, and the benchmark's generate and check configs.
    @pytest.mark.parametrize("overrides", [
        {},
        *({"preset": preset} for preset in ("consistent", "diverse", "temporal", "blend")),
        {"side": 32, "blocks": 4, "d": 32, "d_v": 32, "batch": 4, "steps": 3, "policy_kind": "concat"},
        {"side": 8, "blocks": 8, "batch": 8, "steps": 50, "sweep_strengths": [-0.3, 0.2, 0.35]},
        {"trials": 4, "stress_trials": 1, "precision": "f64"},
    ])
    def test_shipped_configs_fit_in_memory(self, overrides):
        parse_config(overrides=overrides)

    def test_file_values_applied(self, tmp_path):
        path = write_config(tmp_path, {"steps": 8, "batch": 3, "precision": "f64"})
        cfg = parse_config(path)
        assert (cfg.steps, cfg.batch, cfg.precision) == (8, 3, "f64")

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path, {"steps": 8})
        cfg = parse_config(path, overrides={"steps": 11})
        assert cfg.steps == 11

    def test_missing_file_named(self):
        with pytest.raises(ConfigError, match="no_such_config.json"):
            parse_config("no_such_config.json")

    @pytest.mark.parametrize("content", [b"{not json", b'\xff\xfe{"steps": 3}'])
    def test_malformed_json_named(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=f"malformed JSON in {re.escape(str(path))}"):
            parse_config(str(path))

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            parse_config(str(path))

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {"coefficinet": 0.3})
        with pytest.raises(ConfigError, match="coefficinet"):
            parse_config(path)

    @pytest.mark.parametrize("key, value", [("threshold", 0.009), ("stress_scale", 99999.0)])
    def test_certification_bounds_are_not_config_keys(self, key, value):
        with pytest.raises(ConfigError, match=f"^unknown config key {key!r}$"):
            parse_config(overrides={key: value})

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("key", ["side", "blocks", "d_model", "d", "d_v", "steps", "batch"])
    def test_architecture_value_below_one_is_named(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be at least 1, got {value}$"):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("overrides, label", [
        ({"grid": [[1, 2000000000, 1]]}, "key 'grid' value 1x2000000000x1: the 1x2000000000 f64 drawn operands"),
        ({"bench_grid": [[2, 2000000000, 1, 2]]},
         "key 'bench_grid' value 2x2000000000x1x2: the 2x2x4000000001 f32 batch operands"),
        ({"d": 100000000, "d_model": 1, "blocks": 1},
         "keys 'side', 'd' and 'd_v' values 16, 100000000 and 32: the 256x100000000 f32 per-block projections"),
    ])
    def test_operands_too_large_for_memory_are_named(self, overrides, label):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"^{label} need .* physical memory$"):
                parse_config(overrides=overrides)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # With 128 MiB of physical memory, one operand may take 64 MiB: 2^23 values
    # of a cell drawn at f64, or 2^24 f32 values of a side-16 block's queries,
    # keys or values (blocks and d_model at 1 keep the weights small, and the
    # plain policy holds no reference caches).
    @pytest.mark.parametrize("overrides, key", [
        ({"grid": [[1, 8388608, 1]]}, None),
        ({"grid": [[2, 4194304, 1]]}, None),
        ({"grid": [[1, 8388609, 1]]}, "grid"),
        ({"grid": [[2, 1, 4194305]]}, "grid"),
        ({"bench_grid": [[1, 1, 8388609, 2]]}, "bench_grid"),
        ({"d": 65536, "blocks": 1, "d_model": 1}, None),
        ({"d": 65537, "blocks": 1, "d_model": 1}, "d"),
        ({"d_v": 65537, "blocks": 1, "d_model": 1}, "d_v"),
        ({"d": 32768, "blocks": 1, "d_model": 1, "precision": "f64"}, None),
        ({"d": 32769, "blocks": 1, "d_model": 1, "precision": "f64"}, "d"),
    ])
    def test_operands_may_take_half_of_physical_memory(self, monkeypatch, overrides, key):
        memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (128 << 20) // 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        overrides = {"policy_kind": "plain", **overrides}
        if key is None:
            parse_config(overrides=overrides)
        else:
            with pytest.raises(ConfigError, match=f"{key!r}.* more than 50% of the 0.125 GiB"):
                parse_config(overrides=overrides)

    def test_bench_batch_too_large_for_memory_is_named(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="^key 'bench_grid' value 1024x1024x1024x100000: the "
                                                  "100000x1024x3072 f32 batch operands need .* physical memory$"):
                parse_config(overrides={"bench_grid": [[1024, 1024, 1024, 100000]]})  # 1.2 TB of samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # With 128 MiB of physical memory, a bench cell's samples may take 64 MiB:
    # 2^24 f32 values, B x L x (2d + d_v) of them.
    @pytest.mark.parametrize("overrides, ok", [
        ({"bench_grid": [[1, 1, 2, 4194304]]}, True),
        ({"bench_grid": [[1, 1, 2, 4194305]]}, False),
        ({"bench_grid": [[64, 64, 64, 8], [16, 1, 2, 262144]]}, True),
        ({"bench_grid": [[64, 64, 64, 8], [16, 1, 2, 262145]]}, False),
        ({"bench_grid": [[1, 1, 2, 4194304]], "precision": "f64"}, False),
    ])
    def test_bench_batch_may_take_half_of_physical_memory(self, monkeypatch, overrides, ok):
        memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (128 << 20) // 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        if ok:
            parse_config(overrides=overrides)
        else:
            cell = "x".join(map(str, overrides["bench_grid"][-1]))
            with pytest.raises(ConfigError, match=f"key 'bench_grid' value {cell}: .* batch operands .* 50% of the 0.125 GiB"):
                parse_config(overrides=overrides)

    # With 128 MiB of physical memory, one step's reference caches may take
    # 64 MiB: 2^24 f32 values, R x blocks x side² x (d + d_v) of them. The
    # blend preset's 0.3 per reference leaves the convex hull, which warns.
    @pytest.mark.parametrize("overrides, label", [
        ({"policy_kind": "rfg-multi", "strengths": [1e-4] * 256, "batch": 257}, None),
        ({"policy_kind": "rfg-multi", "strengths": [1e-4] * 257, "batch": 258},
         "keys 'strengths' and 'blocks' values 257 and 4: the 257x4x256x64 f32"),
        ({"preset": "blend", "references": 256, "batch": 257}, None),
        ({"preset": "blend", "references": 257, "batch": 258},
         "keys 'references' and 'blocks' values 257 and 4: the 257x4x256x64 f32"),
        ({"policy_kind": "rfg-multi", "strengths": [1e-4] * 128, "batch": 129, "precision": "f64"}, None),
        ({"policy_kind": "rfg-multi", "strengths": [1e-4] * 129, "batch": 130, "precision": "f64"},
         "keys 'strengths' and 'blocks' values 129 and 4: the 129x4x256x64 f64"),
        ({"blocks": 1024}, None),
        ({"blocks": 1025}, "keys 'policy_kind' and 'blocks' values rfg and 1025: the 1x1025x256x64 f32"),
        ({"blocks": 1025, "preset": "consistent"},
         "keys 'preset' and 'blocks' values consistent and 1025: the 1x1025x256x64 f32"),
        ({"blocks": 2000, "policy_kind": "plain"}, None),
    ])
    def test_reference_caches_may_take_half_of_physical_memory(self, monkeypatch, overrides, label):
        memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (128 << 20) // 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        blend = overrides.get("preset") == "blend"
        with pytest.warns(UserWarning, match="convex hull") if blend else contextlib.nullcontext():
            if label is None:
                parse_config(overrides=overrides)
            else:
                with pytest.raises(ConfigError, match=f"^{label} reference caches need .* 50% of the 0.125 GiB"):
                    parse_config(overrides=overrides)

    def test_invariant_violation_surfaces(self):
        with pytest.raises(ConfigError, match="batch"):
            parse_config(overrides={"batch": 1})

    def test_type_errors_name_key(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config(overrides={"steps": "twenty"})
        with pytest.raises(ConfigError, match="duplicate_noise"):
            parse_config(overrides={"duplicate_noise": "yes"})
        with pytest.raises(ConfigError, match="strength"):
            parse_config(overrides={"strength": "big"})

    def test_grid_coercion(self, tmp_path):
        path = write_config(tmp_path, {"grid": [[2, 3, 4], [1, 1, 1]]})
        cfg = parse_config(path)
        assert cfg.check_grid == ((2, 3, 4), (1, 1, 1))

    def test_default_check_grid(self):
        assert parse_config().check_grid == DEFAULT_GRID

    def test_bad_grid_rejected(self, tmp_path):
        path = write_config(tmp_path, {"grid": [[2, 3]]})
        with pytest.raises(ConfigError, match="grid"):
            parse_config(path)

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="key 'grid' must be a nonempty list"):
            parse_config(write_config(tmp_path, {"grid": []}))

    def test_bench_grid_requires_four_dims(self):
        with pytest.raises(ConfigError, match="bench_grid"):
            parse_config(overrides={"bench_grid": ((8, 8, 8),)})

    def test_layer_strengths_round_trip(self, tmp_path):
        path = write_config(tmp_path, {"layer_strengths": [0.1, 0.2, 0.3, 0.4]})
        cfg = parse_config(path)
        assert cfg.pipeline_config().layer_strengths == (0.1, 0.2, 0.3, 0.4)


class TestSeeds:
    def test_master_seed_derives_both_streams(self):
        cfg = parse_config(overrides={"seed": 10})
        assert cfg.resolved_seeds() == (10, 11)
        assert cfg.check_seed == 10

    def test_split_seeds_survive_without_master(self):
        cfg = parse_config(overrides={"weights_seed": 5, "noise_seed": 9})
        assert cfg.resolved_seeds() == (5, 9)
        assert cfg.check_seed == 0

    def test_master_seed_wins_over_split_seeds(self):
        cfg = parse_config(overrides={"seed": 3, "weights_seed": 5})
        assert cfg.resolved_seeds() == (3, 4)


class TestResolvedView:
    def test_to_dict_is_json_ready(self):
        cfg = parse_config(overrides={"preset": "blend", "batch": 4})
        payload = cfg.to_dict()
        text = json.dumps(payload)
        assert "resolved_policy" in payload
        assert payload["resolved_policy"]["kind"] == "rfg-multi"
        assert json.loads(text)["resolved_weights_seed"] == 42

    def test_pipeline_config_strength_override(self):
        cfg = parse_config(overrides={"preset": "consistent"})
        pipeline = cfg.pipeline_config(strength_override=-0.25)
        assert pipeline.policy.strength == -0.25

    def test_pipeline_precision_propagates(self):
        cfg = parse_config(overrides={"precision": "f64"})
        assert cfg.pipeline_config().dtype == np.float64


def _mentions(hint, kind) -> bool:
    return hint is kind or get_origin(hint) is kind or any(_mentions(a, kind) for a in get_args(hint))


FLOAT_FIELDS = [f for f in fields(RunConfig) if _mentions(f.type, float)]


class TestSchema:
    def test_every_flag_is_a_config_field(self):
        parser = _build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {
            action.dest
            for sub in subparsers.choices.values()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert dests - {"command", "config"} <= {f.name for f in fields(RunConfig)}

    def test_help_defaults_are_the_schema_defaults(self):
        # Each "(default: X)" in a subcommand's help, read through the flag's own type.
        parser = _build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        defaults = {f.name: f.default for f in fields(RunConfig)}
        stated = set()
        for sub in subparsers.choices.values():
            for action in sub._actions:
                match = re.search(r"\(default: ([^)]*)\)", action.help or "")
                if match:
                    assert (action.type or str)(match.group(1)) == defaults[action.dest], action.option_strings
                    stated.add(action.dest)
        assert stated == {"trials", "stress_trials", "sweep_strengths", "bench_grid", "iterations", "warmup",
                          "out_dir", "precision"}

    @pytest.mark.parametrize("overrides, message", [
        ({"preset": "vivid"}, "key 'preset' must be one of ('consistent', 'diverse', 'temporal', 'blend', 'custom'), "
                              "got 'vivid'"),
        ({"policy_kind": "flash"}, "key 'policy_kind' must be one of ('plain', 'concat', 'cross-frame', 'rfg', "
                                   "'rfg-multi', 'rfg-matrix'), got 'flash'"),
        ({"precision": "f16"}, "key 'precision' must be one of ('f32', 'f64'), got 'f16'"),
        ({"bench_grid": []}, "key 'bench_grid' must be a nonempty list of 4-integer cells, got []"),
        ({"sweep_strengths": []}, "key 'sweep_strengths' must be a nonempty list of numbers, got []"),
        ({"sweep_strengths": 0.3}, "key 'sweep_strengths' must be a nonempty list of numbers, got 0.3"),
        ({"out_dir": 5}, "key 'out_dir' must be a string, got 5"),
    ])
    def test_schema_rejects_by_key(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(overrides=overrides)

    @pytest.mark.parametrize("flag", ["--preset", "--precision"])
    def test_choices_are_the_literal_values(self, flag):
        parser = _build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in subparsers.choices["generate"]._actions if flag in a.option_strings)
        hint = next(f.type for f in fields(RunConfig) if f.name == action.dest)
        assert get_origin(hint) is Literal
        assert tuple(action.choices) == get_args(hint)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", FLOAT_FIELDS, ids=lambda f: f.name)
    def test_float_fields_reject_non_finite(self, field, bad):
        value = [0.1, bad] if _mentions(field.type, tuple) else bad
        with pytest.raises(ConfigError, match=f"'{field.name}'"):
            parse_config(overrides={field.name: value})
