import contextlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import refguide.bench
from refguide.artifacts import load_raw
from refguide.bench import BENCH_POLICIES, run_bench
from refguide.cli import main
from refguide.kernels import AttentionPolicy
from refguide.pipeline import PipelineConfig, generate_batch, trajectory_distance

SMALL_PIPELINE = {
    "side": 6, "blocks": 2, "d_model": 8, "d": 8, "d_v": 8, "steps": 6,
}


def small_config_file(tmp_path, **extra):
    payload = {**SMALL_PIPELINE, **extra}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckCommand:
    def test_small_grid_passes(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "check", "--grid", "2x4x4,1x1x1", "--trials", "3", "--out", str(tmp_path)
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_rel_error"] <= report["threshold"]
        assert "PASS" in err
        on_disk = json.loads((tmp_path / "check_report.json").read_text())
        assert on_disk == report

    def test_corruption_hook_fails_with_worst_seed(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "check", "--grid", "2x2x2", "--trials", "2",
            "--corrupt-kernel", "0.1", "--out", str(tmp_path),
        )
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["worst"]["stream_key"] is not None
        assert "stream_key" in err

    def test_f64_precision(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "check", "--grid", "2x2x2", "--trials", "2",
            "--precision", "f64", "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["precision"] == "f64"
        assert report["threshold"] == 1e-10

    @pytest.mark.parametrize("precision, threshold", [("f32", 1e-5), ("f64", 1e-10)])
    def test_report_states_the_fixed_bounds(self, tmp_path, capsys, precision, threshold):
        code, out, err = run(capsys, "check", "--grid", "2x2x2", "--trials", "1", "--stress-trials", "1",
                             "--precision", precision, "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "check_report.json").read_text())
        assert (report["threshold"], report["stress_scale"]) == (threshold, 100.0)
        assert report["stress_threshold"] == threshold * 100.0
        assert f"(threshold {threshold:.1e})" in err

    def test_seed_flag_feeds_suite(self, tmp_path, capsys):
        _, out_a, _ = run(capsys, "check", "--grid", "2x2x2", "--trials", "2",
                          "--seed", "9", "--out", str(tmp_path / "a"))
        _, out_b, _ = run(capsys, "check", "--grid", "2x2x2", "--trials", "2",
                          "--seed", "9", "--out", str(tmp_path / "b"))
        assert json.loads(out_a) == json.loads(out_b)
        assert json.loads(out_a)["seed"] == 9

    def test_malformed_grid_flag_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "check", "--grid", "2x2", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("check", "--grid", "2x2"), "key 'grid' must be a nonempty list of cells of 3 positive integers, "
                                      "got ((2, 2),)"),
        (("check", "--grid", "2x2x2,2x2x2x2"), "key 'grid' must be a nonempty list of cells of 3 positive integers"),
        (("check", "--grid", "0x4x4"), "key 'grid' must be a nonempty list of cells of 3 positive integers, "
                                       "got ((0, 4, 4),)"),
        (("bench", "--grid", "8x8x8"), "key 'bench_grid' must be a nonempty list of cells of 4 positive integers, "
                                       "got ((8, 8, 8),)"),
    ])
    def test_grid_cell_of_wrong_width_names_the_key(self, tmp_path, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert f"config error: {message}" in err
        assert out == ""


class TestGenerateCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "generate", "--config", cfg, "--out", str(out_dir))
        assert code == 0
        for i in range(4):
            assert (out_dir / f"sample_{i}.raw").exists()
            assert (out_dir / f"sample_{i}.json").exists()
            assert (out_dir / f"sample_{i}.pgm").exists()
        resolved = json.loads((out_dir / "config.json").read_text())
        assert resolved["side"] == 6
        assert resolved["resolved_policy"]["kind"] == "rfg"

    def test_resolved_config_names_no_certification_bound(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run(capsys, "generate", "--config", small_config_file(tmp_path), "--out", str(out_dir))[0] == 0
        resolved = json.loads((out_dir / "config.json").read_text())
        assert "threshold" not in resolved and "stress_scale" not in resolved
        assert (resolved["trials"], resolved["stress_trials"]) == (20, 5)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "generate", "--config", cfg, "--out", str(a))[0] == 0
        assert run(capsys, "generate", "--config", cfg, "--out", str(b))[0] == 0
        for i in range(4):
            assert (a / f"sample_{i}.raw").read_bytes() == (b / f"sample_{i}.raw").read_bytes()

    def test_raw_files_match_api_run(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        out_dir = tmp_path / "run"
        run(capsys, "generate", "--config", cfg, "--out", str(out_dir))
        traj = generate_batch(PipelineConfig(**SMALL_PIPELINE))
        for i in range(4):
            assert np.array_equal(load_raw(out_dir / f"sample_{i}.raw"), traj.final[i])

    def test_pgm_headers(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        out_dir = tmp_path / "run"
        run(capsys, "generate", "--config", cfg, "--out", str(out_dir))
        assert (out_dir / "sample_0.pgm").read_bytes().startswith(b"P5\n6 6\n255\n")

    def test_unwritable_out_dir_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = small_config_file(tmp_path)
        code, _, err = run(capsys, "generate", "--config", cfg, "--out", str(blocker / "sub"))
        assert code == 3
        assert "i/o error" in err


class TestSweepCommand:
    def test_row_count_and_header(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        out_dir = tmp_path / "run"
        code, _, _ = run(
            capsys, "sweep", "--config", cfg, "--strengths=-0.3,0.35", "--out", str(out_dir)
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "c,step,sample,distance"
        # 2 strengths x (steps+1) x (batch-1 guided samples)
        assert len(lines) - 1 == 2 * 7 * 3

    def test_zero_strength_matches_plain_distances(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        out_dir = tmp_path / "run"
        run(capsys, "sweep", "--config", cfg, "--strengths", "0", "--out", str(out_dir))
        plain = generate_batch(PipelineConfig(**SMALL_PIPELINE, policy=AttentionPolicy.plain()))
        expected = {i: trajectory_distance(plain, i) for i in range(1, 4)}
        for line in (out_dir / "sweep.csv").read_text().strip().split("\n")[1:]:
            c, step, sample, distance = line.split(",")
            assert abs(float(distance) - expected[int(sample)][int(step)]) <= 1e-6

    def test_default_sweep_matches_recorded_baseline(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep", "--out", str(tmp_path))
        assert code == 0
        recorded = (Path(__file__).parent / "data" / "sweep_baseline.csv").read_bytes()
        assert (tmp_path / "sweep.csv").read_bytes() == recorded

    def test_duplicated_noise_column_near_zero(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        out_dir = tmp_path / "run"
        run(capsys, "sweep", "--config", cfg, "--strengths", "1", "--dup-noise",
            "--out", str(out_dir))
        dup_distances = [
            float(line.split(",")[3])
            for line in (out_dir / "sweep.csv").read_text().strip().split("\n")[1:]
            if line.split(",")[2] == "1"
        ]
        assert dup_distances, "no rows for the duplicated-noise sample"
        assert max(dup_distances) < 1e-3


class TestBenchCommand:
    def test_report_well_formed(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "bench", "--grid", "8x8x8x4", "--iterations", "5", "--warmup", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert {cell["policy"] for cell in report["cells"]} == {"plain", "concat", "rfg"}
        assert all(cell["calls_per_second"] > 0 for cell in report["cells"])
        assert (tmp_path / "bench_report.json").exists()

    def test_cache_accounting_exact(self, tmp_path, capsys):
        _, out, _ = run(
            capsys, "bench", "--grid", "8x8x8x4", "--iterations", "2", "--warmup", "0",
            "--out", str(tmp_path),
        )
        report = json.loads(out)
        per_sample = 8 * 8 * 4 + 8 * 8 * 4  # K bytes + V bytes at f32
        for cell in report["cells"]:
            expected = 0 if cell["policy"] == "plain" else (cell["batch"] - 1) * per_sample
            assert cell["cache_reused_bytes"] == expected

    def test_each_iteration_runs_apply_policy_once_per_sample(self, monkeypatch):
        calls = []
        real = refguide.bench.apply_policy

        def counting(inputs, policy, caches=()):
            calls.append((inputs, policy))
            return real(inputs, policy, caches)

        monkeypatch.setattr(refguide.bench, "apply_policy", counting)
        batch, warmup, iterations = 3, 1, 2
        report = run_bench(grid=((8, 8, 8, batch),), iterations=iterations, warmup=warmup)
        # The reference sample runs plain attention, the others the policy under test.
        assert [policy for _, policy in calls] == [
            p for policy in BENCH_POLICIES for _ in range(warmup + iterations)
            for p in (AttentionPolicy.plain(), *(policy,) * (batch - 1))
        ]
        samples = [inputs for inputs, _ in calls[:batch]]
        assert len({id(inputs) for inputs in samples}) == batch
        assert all(inputs is samples[i % batch] for i, (inputs, _) in enumerate(calls))
        assert [cell["policy"] for cell in report.cells] == ["plain", "concat", "rfg"]

    @pytest.mark.parametrize("kwargs, message", [
        ({"precision": "f16"}, "precision must be one of"),
        ({"iterations": 0}, "iterations must be at least 1"),
    ])
    def test_run_bench_rejects_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            run_bench(grid=((8, 8, 8, 2),), **kwargs)


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "generate", "--config", "missing.json")
        assert code == 2
        assert "config error" in err

    def test_trajectory_too_large_for_memory_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"steps": 1000000000, "side": 16}))
        code, _, err = run(capsys, "generate", "--config", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "config error: keys 'steps' and 'batch'" in err
        assert not (tmp_path / "sample_0.raw").exists()

    def test_weights_too_large_for_memory_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"d": 10000000000, "steps": 1}))
        code, _, err = run(capsys, "generate", "--config", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "config error: keys 'blocks', 'd_model', 'd' and 'd_v'" in err
        assert not (tmp_path / "sample_0.raw").exists()

    @pytest.mark.parametrize("payload, key", [
        *(({"steps": 1, key: value}, key) for key in ("side", "blocks", "d_model", "d", "d_v", "steps", "batch")
          for value in (0, -1)),
        ({"side": -4000}, "side"),
        ({"d": -10000000000, "blocks": -1, "steps": 1}, "blocks"),
    ])
    def test_architecture_value_below_one_exits_2(self, tmp_path, capsys, payload, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "generate", "--config", str(path), "--out", str(tmp_path))
        assert code == 2
        assert f"config error: {key} must be at least 1, got {payload[key]}" in err
        assert not (tmp_path / "sample_0.raw").exists()

    @pytest.mark.parametrize("payload, key", [
        ({"policy_kind": "rfg", "strengths": [0.1, 0.2]}, "strengths"),
        ({"policy_kind": "concat", "strength": 0.9}, "strength"),
        ({"references": 5}, "references"),
    ])
    def test_policy_key_the_policy_does_not_read_exits_2(self, tmp_path, capsys, payload, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**payload, "steps": 1}))
        code, _, err = run(capsys, "generate", "--config", str(path), "--out", str(tmp_path))
        assert code == 2
        assert f"config error: key {key!r} does not apply" in err
        assert not (tmp_path / "sample_0.raw").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"coefficinet": 0.3}))
        code, _, err = run(capsys, "check", "--config", str(path))
        assert code == 2
        assert "coefficinet" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "transmogrify")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_preset_choice(self, capsys):
        assert run(capsys, "generate", "--preset", "vivid")[0] == 2

    def test_sweep_flag_rejected_on_generate(self, capsys):
        assert run(capsys, "generate", "--strengths", "0.1")[0] == 2

    def test_sweep_rejects_layer_strengths(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"layer_strengths": [0.1, 0.2, 0.3, 0.4], "steps": 3}))
        code, _, err = run(capsys, "sweep", "--config", str(path), "--strengths=-0.3,0.35", "--out", str(tmp_path))
        assert code == 2
        assert "layer_strengths" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("extra, key", [
        ({"policy_kind": "concat"}, "policy_kind"),
        ({"preset": "blend"}, "preset"),
    ])
    def test_sweep_rejects_non_rfg_policy(self, tmp_path, capsys, extra, key):
        path = small_config_file(tmp_path, steps=3, **extra)
        code, _, err = run(capsys, "sweep", "--config", path, "--strengths=0.35", "--out", str(tmp_path))
        assert code == 2
        assert f"key {key!r}" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [("check", "--threshold", "0.5"), ("check", "--stress-scale", "1e5")])
    def test_certification_bounds_are_not_flags(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert "unrecognized arguments" in err
        assert out == ""

    @pytest.mark.parametrize("key, value", [("threshold", 0.009), ("stress_scale", 99999.0)])
    def test_certification_bounds_are_not_config_keys(self, tmp_path, capsys, key, value):
        path = small_config_file(tmp_path, **{key: value})
        code, out, err = run(capsys, "check", "--config", path, "--out", str(tmp_path))
        assert code == 2
        assert f"config error: unknown config key {key!r}" in err
        assert out == ""
        assert not (tmp_path / "check_report.json").exists()

    def test_sweep_overflow_names_the_strength(self, tmp_path, capsys):
        path = small_config_file(tmp_path, steps=3)
        with pytest.warns(UserWarning, match="strength"):
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "sweep", "--config", path, "--strengths=0.35,1e30", "--out", str(tmp_path))
        assert code == 2
        assert "config error: key 'sweep_strengths' value 1e+30: row_softmax requires finite logits" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("extra, key", [
        ({"strength": 1e30}, "strength"),
        ({"strength": 1e30, "side": 32}, "strength"),  # pooled tiles
        ({"policy_kind": "rfg-multi", "strengths": [1e30, 0.1]}, "strengths"),
        ({"blocks": 4, "layer_strengths": [0.3, 1e30, 0.3, 0.3]}, "layer_strengths"),
    ])
    def test_generate_overflow_names_the_strength(self, tmp_path, capsys, extra, key):
        path = small_config_file(tmp_path, steps=3, **extra)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="strength"):
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "generate", "--config", path, "--out", str(out))
        assert code == 2
        assert f"config error: key {key!r} value " in err
        assert "1e+30" in err
        assert not list(out.glob("sample_*.raw"))

    def test_generate_overflow_under_a_preset_names_the_preset(self, tmp_path, capsys):
        # "diverse" runs at -0.3 and rejects the key 'strength', so the preset is what set the strength.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"blocks": 3000, "steps": 1, "side": 4, "batch": 2}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, "generate", "--preset", "diverse", "--config", str(path), "--out", str(out))
        assert code == 2
        assert "config error: key 'preset' value 'diverse': row_softmax requires finite logits" in err
        assert not list(out.glob("sample_*.raw"))

    @pytest.mark.parametrize("argv", [
        ("generate", "--seed", "-1"),
        ("bench", "--grid", "8x8x8x1"),
        ("bench", "--grid", "8x8x8x4,"),
        ("check", "--grid", "2xtwox2"),
        ("sweep", "--strengths=nan"),
        ("sweep", "--strengths=abc"),
        ("sweep", "--strengths=1e30"),
        ("check", "--trials", "0"),
        ("check", "--stress-trials", "-1"),
        ("check", "--corrupt-kernel", "nan"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, argv):
        # A strength of 1e30 leaves the convex hull, which warns before the logits overflow.
        hull = "--strengths=1e30" in argv
        with pytest.warns(UserWarning, match="convex hull") if hull else contextlib.nullcontext():
            code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert "error: " in err
