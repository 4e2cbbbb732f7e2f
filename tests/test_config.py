import argparse
import json
from dataclasses import fields
from typing import get_args, get_origin

import numpy as np
import pytest

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

    def test_malformed_json_named(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", FLOAT_FIELDS, ids=lambda f: f.name)
    def test_float_fields_reject_non_finite(self, field, bad):
        value = [0.1, bad] if _mentions(field.type, tuple) else bad
        with pytest.raises(ConfigError, match=f"'{field.name}'"):
            parse_config(overrides={field.name: value})
