import argparse
import ast
import dataclasses
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

import refguide.cli
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
from refguide.kernels import AttentionPolicy
from refguide.oracle import DEFAULT_GRID
from refguide.pipeline import PipelineConfig, generate_batch


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

    def test_custom_plain_policy(self):
        cfg = parse_config(overrides={"policy_kind": "plain", "batch": 1})
        assert cfg.resolved_policy().kind == "plain"


class TestParseConfig:
    def test_defaults_without_any_input(self):
        cfg = parse_config()
        assert cfg == RunConfig()
        pipeline = cfg.pipeline_config()
        assert (pipeline.side, pipeline.blocks, pipeline.steps, pipeline.batch) == (16, 4, 20, 4)
        assert pipeline == PipelineConfig()

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

    def test_out_dir_dot_is_accepted(self):
        assert parse_config(overrides={"out_dir": "."}).out_dir == "."

    def test_grid_coercion(self, tmp_path):
        path = write_config(tmp_path, {"grid": [[2, 3, 4], [1, 1, 1]]})
        cfg = parse_config(path)
        assert cfg.check_grid == ((2, 3, 4), (1, 1, 1))

    def test_default_check_grid(self):
        assert parse_config().check_grid == DEFAULT_GRID

    def test_layer_strengths_round_trip(self, tmp_path):
        path = write_config(tmp_path, {"layer_strengths": [0.1, 0.2, 0.3, 0.4]})
        cfg = parse_config(path)
        assert cfg.pipeline_config().layer_strengths == (0.1, 0.2, 0.3, 0.4)


COMMANDS, SWEEP = ("check", "sweep", "generate", "bench"), ("sweep",)

# Every config fault whose message does not depend on the machine, once: (id, payload, message, the commands that
# reject it; the others accept it). The payload is config.json's JSON value, its bytes if bytes, or None for no file.
# Memory rejections quote this machine's GiB, so they are tested in TestMemory and TestMemoryPerCommand.
CONFIG_FAULTS = [
    ("missing-file", None, "config file not found: config.json", COMMANDS),
    ("malformed-json", b"{not json",
     "malformed JSON in config.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
     COMMANDS),
    # The file is read as UTF-8 in every locale.
    ("undecodable-bytes", b'\xff\xfe{"steps": 3}',
     "malformed JSON in config.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte", COMMANDS),
    ("list-root", [1, 2], "config root in config.json must be a JSON object, got list", COMMANDS),
    ("string-root", "text", "config root in config.json must be a JSON object, got str", COMMANDS),
    ("unknown-key", {"coefficinet": 0.3}, "unknown config key 'coefficinet'", COMMANDS),
    ("unknown-keys", {"coefficinet": 0.3, "threshold": 0.009}, "unknown config key 'coefficinet' (and 1 more)",
     COMMANDS),
    # The certification bounds are fixed, not keys.
    ("threshold", {"threshold": 0.009}, "unknown config key 'threshold'", COMMANDS),
    ("stress-scale", {"stress_scale": 99999.0}, "unknown config key 'stress_scale'", COMMANDS),
    # Each key's type, from RunConfig's annotations.
    ("steps-string", {"steps": "twenty"}, "key 'steps' must be an integer, got 'twenty'", COMMANDS),
    ("batch-bool", {"batch": True}, "key 'batch' must be an integer, got True", COMMANDS),
    ("duplicate-noise-string", {"duplicate_noise": "yes"}, "key 'duplicate_noise' must be true or false, got 'yes'",
     COMMANDS),
    ("strength-string", {"strength": "big"}, "key 'strength' must be a number, got 'big'", COMMANDS),
    ("strength-infinite", {"strength": float("inf")}, "key 'strength' must be finite, got inf", COMMANDS),
    ("strengths-entry-string", {"policy_kind": "rfg-multi", "strengths": [0.1, "x"]},
     "key 'strengths' must be a number, got 'x'", COMMANDS),
    ("out-dir-number", {"out_dir": 5}, "key 'out_dir' must be a string, got 5", COMMANDS),
    ("preset-vivid", {"preset": "vivid"},
     "key 'preset' must be one of ('consistent', 'diverse', 'temporal', 'blend', 'custom'), got 'vivid'", COMMANDS),
    ("policy-kind-flash", {"policy_kind": "flash"}, "key 'policy_kind' must be one of ('plain', 'concat', "
                                                    "'cross-frame', 'rfg', 'rfg-multi', 'rfg-matrix'), got 'flash'",
     COMMANDS),
    ("precision-f16", {"precision": "f16"}, "key 'precision' must be one of ('f32', 'f64'), got 'f16'", COMMANDS),
    ("sweep-strengths-empty", {"sweep_strengths": []}, "key 'sweep_strengths' must be a nonempty list of numbers, "
                                                       "got []", COMMANDS),
    ("sweep-strengths-number", {"sweep_strengths": 0.3}, "key 'sweep_strengths' must be a nonempty list of numbers, "
                                                         "got 0.3", COMMANDS),
    ("grid-empty", {"grid": []}, "key 'grid' must be a nonempty list of cells of 3 positive integers, got []",
     COMMANDS),
    ("grid-short-cell", {"grid": [[2, 3]]}, "key 'grid' must be a nonempty list of cells of 3 positive integers, "
                                            "got [[2, 3]]", COMMANDS),
    ("bench-grid-empty", {"bench_grid": []}, "key 'bench_grid' must be a nonempty list of cells of 4 positive "
                                             "integers, got []", COMMANDS),
    ("bench-grid-short-cell", {"bench_grid": [[8, 8, 8]]}, "key 'bench_grid' must be a nonempty list of cells of 4 "
                                                           "positive integers, got [[8, 8, 8]]", COMMANDS),
    # Each key's range.
    ("seed-negative", {"seed": -1}, "seed must be nonnegative, got -1", COMMANDS),
    ("side-0", {"side": 0}, "side must be at least 1, got 0", COMMANDS),
    ("side-minus-1", {"side": -1}, "side must be at least 1, got -1", COMMANDS),
    ("side-minus-4000", {"side": -4000}, "side must be at least 1, got -4000", COMMANDS),
    ("blocks-0", {"blocks": 0}, "blocks must be at least 1, got 0", COMMANDS),
    ("blocks-minus-1", {"blocks": -1}, "blocks must be at least 1, got -1", COMMANDS),
    # blocks is checked before d, whatever the magnitudes.
    ("blocks-before-d", {"d": -10000000000, "blocks": -1, "steps": 1}, "blocks must be at least 1, got -1", COMMANDS),
    ("d-model-0", {"d_model": 0}, "d_model must be at least 1, got 0", COMMANDS),
    ("d-model-minus-1", {"d_model": -1}, "d_model must be at least 1, got -1", COMMANDS),
    ("d-0", {"d": 0}, "d must be at least 1, got 0", COMMANDS),
    ("d-minus-1", {"d": -1}, "d must be at least 1, got -1", COMMANDS),
    ("d-v-0", {"d_v": 0}, "d_v must be at least 1, got 0", COMMANDS),
    ("d-v-minus-1", {"d_v": -1}, "d_v must be at least 1, got -1", COMMANDS),
    ("steps-0", {"steps": 0}, "steps must be at least 1, got 0", COMMANDS),
    ("steps-minus-1", {"steps": -1}, "steps must be at least 1, got -1", COMMANDS),
    ("batch-0", {"batch": 0}, "batch must be at least 1, got 0", COMMANDS),
    ("batch-minus-1", {"batch": -1}, "batch must be at least 1, got -1", COMMANDS),
    ("references-0", {"references": 0}, "references must be at least 1, got 0", COMMANDS),
    ("trials-0", {"trials": 0}, "trials must be at least 1, got 0", COMMANDS),
    ("iterations-0", {"iterations": 0}, "iterations must be at least 1, got 0", COMMANDS),
    ("out-dir-empty", {"out_dir": ""},
     "key 'out_dir' must be a nonempty path without a null byte ('.' is the working directory), got ''", COMMANDS),
    ("out-dir-leading-null", {"out_dir": "\0bad"},
     "key 'out_dir' must be a nonempty path without a null byte ('.' is the working directory), got '\\x00bad'",
     COMMANDS),
    ("out-dir-trailing-null", {"out_dir": "out\0"},
     "key 'out_dir' must be a nonempty path without a null byte ('.' is the working directory), got 'out\\x00'",
     COMMANDS),
    ("bench-grid-batch-1", {"bench_grid": [[8, 8, 8, 1]]}, "bench_grid batch must be at least 2, got cell 8x8x8x1",
     COMMANDS),
    ("blend-four-references", {"preset": "blend", "references": 4, "batch": 5},
     "key 'references' value 4: at 0.3 each, more than 3 references take the blend out of the convex hull", COMMANDS),
    # The policy: each way of naming it reads only some of the policy keys, and any other given is named.
    ("rfg-multi-without-strengths", {"policy_kind": "rfg-multi"},
     "policy_kind 'rfg-multi' requires a nonempty strengths list", COMMANDS),
    ("rfg-strengths", {"policy_kind": "rfg", "strengths": [0.1, 0.2]},
     "key 'strengths' does not apply: policy_kind 'rfg' reads 'policy_kind' and 'strength'", COMMANDS),
    ("default-strengths", {"strengths": [0.1]},
     "key 'strengths' does not apply: policy_kind 'rfg' reads 'policy_kind' and 'strength'", COMMANDS),
    ("default-references", {"references": 5},
     "key 'references' does not apply: policy_kind 'rfg' reads 'policy_kind' and 'strength'", COMMANDS),
    ("concat-strength", {"policy_kind": "concat", "strength": 0.9},
     "key 'strength' does not apply: policy_kind 'concat' reads 'policy_kind'", COMMANDS),
    ("cross-frame-strengths", {"policy_kind": "cross-frame", "strengths": [1.0]},
     "key 'strengths' does not apply: policy_kind 'cross-frame' reads 'policy_kind'", COMMANDS),
    ("rfg-multi-strength", {"policy_kind": "rfg-multi", "strengths": [0.2], "strength": 0.3},
     "key 'strength' does not apply: policy_kind 'rfg-multi' reads 'policy_kind' and 'strengths'", COMMANDS),
    ("rfg-multi-references", {"policy_kind": "rfg-multi", "strengths": [0.2], "references": 1},
     "key 'references' does not apply: policy_kind 'rfg-multi' reads 'policy_kind' and 'strengths'", COMMANDS),
    ("consistent-references", {"preset": "consistent", "references": 2},
     "key 'references' does not apply: preset 'consistent' reads no policy key", COMMANDS),
    ("diverse-strength", {"preset": "diverse", "strength": 0.5},
     "key 'strength' does not apply: preset 'diverse' reads no policy key", COMMANDS),
    ("diverse-policy-kind", {"preset": "diverse", "policy_kind": "rfg"},
     "key 'policy_kind' does not apply: preset 'diverse' reads no policy key", COMMANDS),
    ("blend-strengths", {"preset": "blend", "strengths": [0.3, 0.3]},
     "key 'strengths' does not apply: preset 'blend' reads 'references'", COMMANDS),
    # The denoiser the policy runs in.
    ("batch-1", {"batch": 1},
     "policy 'rfg' needs 1 reference(s) plus a guided sample, so batch must be at least 2, got 1", COMMANDS),
    ("concat-layer-strengths", {"policy_kind": "concat", "layer_strengths": [0.1, 0.1, 0.1, 0.1]},
     "layer_strengths only applies to the rfg policy", COMMANDS),
    ("layer-strengths-short", {"layer_strengths": [0.1, 0.2]}, "layer_strengths has 2 entries for 4 blocks", COMMANDS),
    # Sweep varies the strength of an rfg policy, so it alone rejects any other.
    ("sweep-concat", {"policy_kind": "concat"},
     "key 'policy_kind' selects policy 'concat', but sweep varies the strength of an 'rfg' policy", SWEEP),
    ("sweep-plain", {"policy_kind": "plain"},
     "key 'policy_kind' selects policy 'plain', but sweep varies the strength of an 'rfg' policy", SWEEP),
    ("sweep-rfg-multi", {"policy_kind": "rfg-multi", "strengths": [0.2, 0.3]},
     "key 'policy_kind' selects policy 'rfg-multi', but sweep varies the strength of an 'rfg' policy", SWEEP),
    ("sweep-blend", {"preset": "blend"},
     "key 'preset' selects policy 'rfg-multi', but sweep varies the strength of an 'rfg' policy", SWEEP),
    ("sweep-layer-strengths", {"layer_strengths": [0.1, 0.2, 0.3, 0.4]},
     "key 'layer_strengths' sets every block's strength, so sweep cannot override it", SWEEP),
]


class TestConfigBoundary:
    """Each fault raises its message from ``parse_config`` and exits 2 with it from ``cli.main``, writing nothing."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("payload, message, commands", [pytest.param(*row[1:], id=row[0]) for row in CONFIG_FAULTS])
    def test_fault_is_named_before_any_write(self, tmp_path, monkeypatch, capsys, command, payload, message, commands):
        monkeypatch.chdir(tmp_path)  # "out", the default --out, lands here, as does an out_dir of ""
        if isinstance(payload, bytes):
            Path("config.json").write_bytes(payload)
        elif payload is not None:
            Path("config.json").write_text(json.dumps(payload))
        if command not in commands:
            parse_config("config.json", command=command)
            return
        with pytest.raises(ConfigError) as raised:
            parse_config("config.json", command=command)
        assert str(raised.value) == message
        assert refguide.cli.main([command, "--config", "config.json"]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert [path.name for path in tmp_path.iterdir()] == ([] if payload is None else ["config.json"])


def _sweep_rule(key, kind):
    """Sweep's rejection of a policy other than ``rfg``, named by ``key``."""
    return f"^key {key!r} selects policy {kind!r}, but sweep varies the strength of an 'rfg' policy$"


class TestSweepRule:
    """Sweep varies the strength of an rfg policy, so it accepts one; ``CONFIG_FAULTS`` names any other by key."""

    @pytest.mark.parametrize("overrides", [{}, {"preset": "consistent"}, {"preset": "diverse"},
                                           {"preset": "temporal"}, {"strength": -0.5}])
    def test_sweep_accepts_an_rfg_policy(self, overrides):
        parse_config(overrides=overrides, command="sweep")


@pytest.fixture
def memory_128mib(monkeypatch):
    """A machine with 128 MiB of physical memory, so a command may hold 64 MiB = 67108864 B.

    Returns a setter for the usable CPUs, ``kernels.CPUS`` (1 unless set): the process count of the check suite and
    the tile rule's most threads.
    """
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (128 << 20) // 4096}
    monkeypatch.setattr(os, "sysconf", memory.__getitem__)

    def cpus(count):
        monkeypatch.setattr(kernels, "CPUS", count)

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
        # From T = 641 (side 26) a partition tiles: one 256-row tile of T logits, 1024 T, beside 336 T of trajectory,
        # 256 T + 131584 of weights, 384 T of projections, 512 T of hidden states and 256 T of reference; sum
        # 2768 T + 131584, T <= 24197.4. Side 155 (T = 24025) holds 66632784; side 156 (T = 24336) 67493632.
        ({"side": 155}, None),
        ({"side": 156}, "key 'side' (0.0232 GiB of attention logits)"),
        # side 64 (T = 4096) tiles: one 256-row tile of 4096 logits, 4 MiB.
        ({"side": 64}, None),
        # concat, S = 2T: a tile of 2T logits, 2048 T; sum 3792 T + 131584, T <= 17662.8. Side 132 (T = 17424)
        # holds 66203392; side 133 (T = 17689) 67208272, 36227072 of it logits.
        ({"side": 132, "policy_kind": "concat"}, None),
        ({"side": 133, "policy_kind": "concat"}, "key 'side' (0.0337 GiB of attention logits)"),
    ])
    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_denoiser_boundaries(self, memory_128mib, command, overrides, named):
        kind = parse_config(overrides=overrides).resolved_policy().kind
        if command == "sweep" and kind != "rfg":
            # Sweep's rule comes before its memory: it never runs another policy.
            key = "preset" if "preset" in overrides else "policy_kind"
            with pytest.raises(ConfigError, match=_sweep_rule(key, kind)):
                parse_config(overrides=overrides, command=command)
        elif named is None:
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
    # at f32 for a (L, 1, 1) cell whose L x L call tiles too (L >= 641), one 256-row tile of 2L
    # logits per worker W and 400 L of the rest: (2048 W + 400) L. The default
    # 20 + 5 trials run in 2 processes at 2 workers, in 1 with one trial.
    @pytest.mark.parametrize("overrides, workers, cell", [
        ({"grid": [[27413, 1, 1]]}, 1, None),  # 2448 L = 67107024
        ({"grid": [[27414, 1, 1]]}, 1, "27414x1x1"),  # 67109472
        ({"grid": [[64, 4, 4], [27414, 1, 1]]}, 1, "27414x1x1"),
        ({"grid": [[7463, 1, 1]]}, 2, None),  # 2 x 4496 L = 2 x 33553648
        ({"grid": [[7464, 1, 1]]}, 2, "7464x1x1"),  # 2 x 33558144
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
    # (4 B + 2) * 4 for a (1, 1, 2, B) cell and, with one 256-row tile of 2L logits from
    # L = 641, (512 L + 6 L) * 4 = 2072 L for a (L, 1, 1, 2) one.
    @pytest.mark.parametrize("overrides, cell", [
        ({"bench_grid": [[1, 1, 2, 4194303]]}, None),
        ({"bench_grid": [[1, 1, 2, 4194304]]}, "1x1x2x4194304"),
        ({"bench_grid": [[1, 1, 2, 2097151]], "precision": "f64"}, None),
        ({"bench_grid": [[1, 1, 2, 2097152]], "precision": "f64"}, "1x1x2x2097152"),
        ({"bench_grid": [[32388, 1, 1, 2]]}, None),  # 67107936
        ({"bench_grid": [[32389, 1, 1, 2]]}, "32389x1x1x2"),  # 67110008
        ({"bench_grid": [[64, 64, 64, 8], [32389, 1, 1, 2]]}, "32389x1x1x2"),
    ])
    def test_bench_cell_boundaries(self, memory_128mib, overrides, cell):
        if cell is None:
            parse_config(overrides=overrides, command="bench")
        else:
            with pytest.raises(ConfigError, match=_limit_message(f"key 'bench_grid' value {cell}", "bench")):
                parse_config(overrides=overrides, command="bench")

    # Each part fits in 64 MiB alone, but not their sum: steps 10000 and blocks
    # 1000 hold 40964096 of trajectory and 32834048 of weights; side 156 holds
    # 24920064 of logits beside 42573568 of the rest.
    @pytest.mark.parametrize("overrides", [{"steps": 10000, "blocks": 1000}, {"side": 156}])
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
          for preset in ("custom", "consistent", "diverse", "temporal")),
        ({"preset": "blend"}, ("generate", "check", "bench")),  # sweep runs an rfg policy only
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
        assert named & {"tile_rows", "pool_workers", "itemsize"} == set()


class TestBlendPreset:
    """The blend preset gives each reference 0.3, so three keep it in the convex hull (four are a table row)."""

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

    def test_sweep_configs_differ_from_the_run_in_policy_alone(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(refguide.cli, "generate_batch", lambda cfg: ran.append(cfg) or generate_batch(cfg))
        path = write_config(tmp_path, {"side": 4, "blocks": 2, "steps": 2, "batch": 3, "preset": "consistent",
                                       "seed": 3, "duplicate_noise": True, "precision": "f64"})
        assert refguide.cli.main(["sweep", "--config", path, "--strengths=-0.25,0,0.5", "--out", str(tmp_path)]) == 0
        run = parse_config(path).pipeline_config()
        assert ran == [dataclasses.replace(run, policy=AttentionPolicy.rfg(c)) for c in (-0.25, 0.0, 0.5)]

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
