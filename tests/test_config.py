import argparse
import ast
import json
import os
import re
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from typing import Literal, get_args, get_origin

import numpy as np
import pytest

import refguide.config
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

    @pytest.mark.parametrize("value", ["", "\0bad", "out\0"])
    def test_out_dir_that_names_no_directory_is_named(self, value):
        with pytest.raises(ConfigError, match=re.escape(f"key 'out_dir' must be a nonempty path without a null byte "
                                                        f"('.' is the working directory), got {value!r}")):
            parse_config(overrides={"out_dir": value})

    def test_out_dir_dot_is_accepted(self):
        assert parse_config(overrides={"out_dir": "."}).out_dir == "."

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


@pytest.fixture
def memory_128mib(monkeypatch):
    """A machine with 128 MiB of physical memory, so a command may hold 64 MiB = 67108864 B.

    Returns a setter for the usable CPUs, ``kernels.CPUS`` (1 unless set), with BLAS at one thread: the process
    count of the check suite and, as ``kernels.POOL_WORKERS``, the thread count of the tile rule.
    """
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (128 << 20) // 4096}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)

    def cpus(count):
        monkeypatch.setattr(kernels, "CPUS", count)
        monkeypatch.setattr(kernels, "POOL_WORKERS", count)

    cpus(1)
    return cpus


def _limit_message(named, command):
    """The whole rejection: the key or cell, the command's total and the limit."""
    return (f"^{re.escape(named)}: {command} would hold [0-9.]+ GiB at its peak, "
            "more than 50% of the 0.125 GiB of physical memory$")


class TestMemory:
    """Each command sums what it holds at its peak, as the module that allocates it states, and checks it once."""

    # The denoiser job, ``PipelineConfig.working_set``. The defaults give side 16,
    # T = 256 tokens, blocks 4, d_model 32, d = d_v = 32, steps 20, batch 4, rfg
    # (R = 1 reference), f32 (4 B); the parts are
    #   logits       held_logits(T, S) * 4: T x S, T = 256 being below the tile rule's
    #                512 rows; S = 2T under concat, else T      = 262144 by default
    #   trajectory   (steps + 1) * batch * T * 4 = 4096 (steps + 1)        = 86016
    #   weights      (blocks d_model (2d + 2d_v) + (T + 2) d_model) * 8     = 197120
    #   projections  T (2d + d_v) * 4                                       = 98304
    #   hidden       batch * T * d_model * 4 = 32768 batch                  = 131072
    #   reference    R * T * (d + d_v) * 4 = 65536 R                        = 65536
    # The reference k/v is at most the projections when R = 1, so only R >= 2 names its key.
    @pytest.mark.parametrize("overrides, named", [
        # 4096 (steps + 1) + 754176 <= 67108864 while steps + 1 <= 16199.9.
        ({"steps": 16198}, None),
        ({"steps": 16199}, "keys 'steps', 'batch' (0.0618 GiB of trajectory latents)"),
        # trajectory 21504 batch, hidden 32768 batch; sum 54272 batch + 623104, batch <= 1225.0.
        ({"batch": 1225}, None),
        ({"batch": 1226}, "keys 'batch', 'side', 'd_model' (0.0374 GiB of hidden states)"),
        # f64 doubles every part but the weights: 8192 (steps + 1) + 1311232, steps + 1 <= 8031.9.
        ({"steps": 8030, "precision": "f64"}, None),
        ({"steps": 8031, "precision": "f64"}, "keys 'steps', 'batch' (0.0613 GiB of trajectory latents)"),
        # plain, R = 0: weights 2048 d + 131584, projections 2048 d + 32768; sum 4096 d + 643584.
        ({"policy_kind": "plain", "d": 16226}, None),
        ({"policy_kind": "plain", "d": 16227}, "keys 'blocks', 'd_model', 'd', 'd_v' (0.0311 GiB of denoiser weights)"),
        # plain: weights 2048 d_v + 131584, projections 1024 d_v + 65536; sum 3072 d_v + 676352.
        ({"policy_kind": "plain", "d_v": 21625}, None),
        ({"policy_kind": "plain", "d_v": 21626}, "keys 'blocks', 'd_model', 'd', 'd_v' (0.0414 GiB of denoiser weights)"),
        # R references need batch R + 1: trajectory 21504 (R + 1), hidden 32768 (R + 1),
        # reference 65536 R; sum 119808 R + 611840, R <= 555.0.
        ({"policy_kind": "rfg-multi", "strengths": [1e-4] * 555, "batch": 556}, None),
        ({"policy_kind": "rfg-multi", "strengths": [1e-4] * 556, "batch": 557},
         "key 'strengths' (0.0339 GiB of reference k/v)"),
        # blend, R = 3: weights 2048 d_v + 131584, projections 1024 d_v + 65536, reference
        # 3072 d_v + 98304; sum 6144 d_v + 774656, d_v <= 10796.6.
        ({"preset": "blend", "references": 3, "d_v": 10796}, None),
        ({"preset": "blend", "references": 3, "d_v": 10797}, "key 'references' (0.031 GiB of reference k/v)"),
        # weights 32768 blocks + 66048 beside 577536 + 65536 R of the rest: blocks <= 2026.4, or 2028.4 under plain.
        ({"blocks": 2026}, None),
        ({"blocks": 2027}, "keys 'blocks', 'd_model', 'd', 'd_v' (0.0619 GiB of denoiser weights)"),
        ({"blocks": 2028, "policy_kind": "plain"}, None),
        ({"blocks": 2029, "policy_kind": "plain"}, "keys 'blocks', 'd_model', 'd', 'd_v' (0.062 GiB of denoiser weights)"),
        # side 62 (T = 3844, untiled): 59105344 of logits, 65940864 in all; side 63: 63011844 and 70065364.
        ({"side": 62}, None),
        ({"side": 63}, "key 'side' (0.0587 GiB of attention logits)"),
        # side 64 (T = 4096) tiles: one 256-row tile of 4096 logits, 4 MiB.
        ({"side": 64}, None),
        # concat, S = 2T: side 52 holds 58492928 of logits and 63340288 in all; side 53 63123848 alone.
        ({"side": 52, "policy_kind": "concat"}, None),
        ({"side": 53, "policy_kind": "concat"}, "key 'side' (0.0588 GiB of attention logits)"),
    ])
    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_denoiser_boundaries(self, memory_128mib, command, overrides, named):
        if named is None:
            parse_config(overrides=overrides, command=command)
        else:
            with pytest.raises(ConfigError, match=_limit_message(named, command)):
                parse_config(overrides=overrides, command=command)

    # side 64 at f64 tiles: 256 x workers rows of 4096 logits, 16 MiB at 2 workers
    # (30147072 in all), 128 MiB at 16, where the tile covers all 4096 rows.
    @pytest.mark.parametrize("workers, ok", [(2, True), (16, False)])
    def test_tiled_logits_count_one_tile_per_worker(self, memory_128mib, workers, ok):
        memory_128mib(workers)
        overrides = {"side": 64, "precision": "f64"}
        if ok:
            parse_config(overrides=overrides, command="generate")
        else:
            named = "key 'side' (0.125 GiB of attention logits)"
            with pytest.raises(ConfigError, match=_limit_message(named, "generate")):
                parse_config(overrides=overrides, command="generate")

    # A check cell, ``oracle.suite_nbytes``: one trial, in each of the
    # min(workers, trials) processes the suite forks, holds
    #   held_logits(L, 2L) * itemsize + L (48 (3d + 2d_v) + 160 d_v),
    # 8 L² + 400 L at f32 for a (L, 1, 1) cell below the tile rule. The default
    # 20 + 5 trials run in 2 processes at 2 workers, in 1 with one trial.
    @pytest.mark.parametrize("overrides, workers, cell", [
        ({"grid": [[2871, 1, 1]]}, 1, None),  # 67089528
        ({"grid": [[2872, 1, 1]]}, 1, "2872x1x1"),  # 67135872
        ({"grid": [[64, 4, 4], [2872, 1, 1]]}, 1, "2872x1x1"),
        ({"grid": [[2023, 1, 1]]}, 2, None),  # 2 x 33549432
        ({"grid": [[2024, 1, 1]]}, 2, "2024x1x1"),  # 2 x 33582208
        # 4096 queries over 8192 keys tile: 512 rows of logits at 2 workers, 2 x 18415616 in all.
        ({"grid": [[4096, 1, 1]]}, 2, None),
        ({"grid": [[1, 466031, 1]]}, 1, None),  # 144 d + 264
        ({"grid": [[1, 466032, 1]]}, 1, "1x466032x1"),
        ({"grid": [[1, 466031, 1]]}, 2, "1x466031x1"),
        ({"grid": [[1, 466031, 1]], "trials": 1, "stress_trials": 0}, 2, None),
        ({"grid": [[1, 1, 262143]]}, 1, None),  # 256 d_v + 152
        ({"grid": [[1, 1, 262144]]}, 1, "1x1x262144"),
    ])
    def test_check_cell_boundaries(self, memory_128mib, overrides, workers, cell):
        memory_128mib(workers)
        if cell is None:
            parse_config(overrides=overrides, command="check")
        else:
            with pytest.raises(ConfigError, match=_limit_message(f"key 'grid' value {cell}", "check")):
                parse_config(overrides=overrides, command="check")

    # A bench cell, ``bench.bench_nbytes``: (B L (2d + d_v) + held_logits(L, 2L)) * itemsize,
    # (4 B + 2) * 4 for a (1, 1, 2, B) cell and (2 L² + 6 L) * 4 for a (L, 1, 1, 2) one.
    @pytest.mark.parametrize("overrides, cell", [
        ({"bench_grid": [[1, 1, 2, 4194303]]}, None),
        ({"bench_grid": [[1, 1, 2, 4194304]]}, "1x1x2x4194304"),
        ({"bench_grid": [[1, 1, 2, 2097151]], "precision": "f64"}, None),
        ({"bench_grid": [[1, 1, 2, 2097152]], "precision": "f64"}, "1x1x2x2097152"),
        ({"bench_grid": [[2894, 1, 1, 2]]}, None),  # 67071344
        ({"bench_grid": [[2895, 1, 1, 2]]}, "2895x1x1x2"),  # 67117680
        ({"bench_grid": [[64, 64, 64, 8], [2895, 1, 1, 2]]}, "2895x1x1x2"),
    ])
    def test_bench_cell_boundaries(self, memory_128mib, overrides, cell):
        if cell is None:
            parse_config(overrides=overrides, command="bench")
        else:
            with pytest.raises(ConfigError, match=_limit_message(f"key 'bench_grid' value {cell}", "bench")):
                parse_config(overrides=overrides, command="bench")

    # Each part fits in 64 MiB alone, but not their sum: steps 10000 and blocks
    # 1000 hold 40964096 of trajectory and 32834048 of weights; side 63 holds
    # 63011844 of logits beside 7053520 of the rest.
    @pytest.mark.parametrize("overrides", [{"steps": 10000, "blocks": 1000}, {"side": 63}])
    def test_parts_that_fit_alone_can_overflow_together(self, memory_128mib, overrides):
        parts = parse_config(overrides=overrides).pipeline_config().working_set()
        assert all(nbytes <= 64 << 20 for _, _, nbytes in parts)
        assert sum(nbytes for _, _, nbytes in parts) > 64 << 20
        with pytest.raises(ConfigError, match="generate would hold"):
            parse_config(overrides=overrides, command="generate")

    @pytest.mark.parametrize("command, overrides, named", [
        ("generate", {"steps": 10**9}, "keys 'steps', 'batch'"),  # 3.7 TiB of f32 latents
        ("check", {"grid": [[10**7, 1, 1]]}, "key 'grid' value 10000000x1x1"),  # 800 TB of logits
        ("bench", {"bench_grid": [[1024, 1024, 1024, 100000]]}, "key 'bench_grid' value 1024x1024x1024x100000"),
    ])
    def test_rejection_allocates_nothing(self, command, overrides, named):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"^{re.escape(named)}.*: {command} would hold .* physical memory$"):
                parse_config(overrides=overrides, command=command)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # Oversized values of another job's keys; no command checks keys it never reads,
    # and parsing for no command checks no memory.
    @pytest.mark.parametrize("command, overrides", [
        ("check", {"side": 4096, "steps": 10**9, "bench_grid": [[10**7, 1, 1, 2]]}),
        ("bench", {"side": 4096, "steps": 10**9, "grid": [[10**7, 1, 1]]}),
        ("generate", {"grid": [[10**7, 1, 1]], "bench_grid": [[10**7, 1, 1, 2]]}),
        ("sweep", {"grid": [[10**7, 1, 1]], "bench_grid": [[10**7, 1, 1, 2]]}),
        (None, {"side": 4096, "steps": 10**9, "grid": [[10**7, 1, 1]], "bench_grid": [[10**7, 1, 1, 2]]}),
    ])
    def test_other_jobs_keys_are_not_checked(self, command, overrides):
        parse_config(overrides=overrides, command=command)

    # The default run and each preset under every command, and the benchmark's configs.
    @pytest.mark.parametrize("overrides, commands", [
        *(({"preset": preset}, ("generate", "sweep", "check", "bench"))
          for preset in ("custom", "consistent", "diverse", "temporal", "blend")),
        ({"side": 32, "blocks": 4, "d": 32, "d_v": 32, "batch": 4, "steps": 3, "policy_kind": "concat"}, ("generate",)),
        ({"side": 8, "blocks": 8, "batch": 8, "steps": 50, "sweep_strengths": [-0.3, 0.2, 0.35]}, ("sweep",)),
        ({"trials": 4, "stress_trials": 1, "precision": "f64"}, ("check",)),
    ])
    def test_shipped_configs_fit_in_memory(self, overrides, commands):
        for command in commands:
            parse_config(overrides=overrides, command=command)

    def test_config_states_no_array_shape(self):
        # Each allocating module sizes its own arrays; config only sums and compares.
        tree = ast.parse(Path(refguide.config.__file__).read_text())
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named |= {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert named & {"tile_rows", "POOL_WORKERS", "itemsize"} == set()


class TestBlendPreset:
    """The blend preset gives each reference 0.3, so three keep it in the convex hull and four do not."""

    def test_four_references_are_rejected_by_key(self):
        with pytest.raises(ConfigError, match="^key 'references' value 4: .*convex hull"):
            parse_config(overrides={"preset": "blend", "references": 4, "batch": 5})

    def test_three_references_are_accepted_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy = parse_config(overrides={"preset": "blend", "references": 3, "batch": 4}).resolved_policy()
        assert policy.strengths == (BLEND_STRENGTH,) * 3


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
        ({"bench_grid": []}, "key 'bench_grid' must be a nonempty list of cells of 4 positive integers, got []"),
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
