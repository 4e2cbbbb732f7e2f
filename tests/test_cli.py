import contextlib
import hashlib
import json
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import refguide.bench
import refguide.cli
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


def strict_loads(text):
    """``json.loads`` that fails on the non-standard NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


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

    def test_infinite_error_is_reported_as_strict_json(self, tmp_path, capsys):
        # A perturbation of 1e300 overflows the f32 coefficient, so three identity errors are infinite.
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run(
                capsys, "check", "--corrupt-kernel", "1e300", "--trials", "1", "--stress-trials", "0",
                "--grid", "2x1x1", "--out", str(tmp_path),
            )
        assert code == 1
        report = strict_loads(out)
        assert report["passed"] is False
        assert report["max_rel_error"] is None and report["worst"]["error"] is None
        assert report["identity_errors"]["concat_vs_oracle"]["standard"] < report["threshold"]
        assert (tmp_path / "check_report.json").read_text() == out
        assert "max_rel_error=inf" in err

    def test_overflowing_corruption_warns_nothing(self, tmp_path, capsys):
        # No errstate here: tier-1 turns warnings into errors, so a raw numpy overflow or invalid-value
        # warning from the cast of 1e300 or from the blend would raise out of main.
        code, out, err = run(capsys, "check", "--corrupt-kernel", "1e300", "--trials", "1", "--stress-trials", "0",
                             "--grid", "2x1x1", "--out", str(tmp_path))
        assert code == 1
        assert '"max_rel_error": null' in out
        assert "RuntimeWarning" not in err

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

    def test_default_config_json_matches_recorded_baseline(self, tmp_path, capsys):
        assert run(capsys, "generate", "--out", str(tmp_path))[0] == 0
        recorded = json.loads((Path(__file__).parent / "data" / "baselines.json").read_text())
        digest = hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest()
        assert digest == recorded["config_json_digest_generate_default"]

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

    def test_unmeasurable_rate_is_reported_as_strict_json(self, tmp_path, capsys, monkeypatch):
        # A clock that never advances gives a zero median, so every rate falls back to infinity.
        monkeypatch.setattr(refguide.bench, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        code, out, _ = run(
            capsys, "bench", "--grid", "8x8x8x2", "--iterations", "2", "--warmup", "0", "--out", str(tmp_path),
        )
        assert code == 0
        report = strict_loads(out)
        assert [cell["calls_per_second"] for cell in report["cells"]] == [None] * 3
        assert (tmp_path / "bench_report.json").read_text() == out

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

        def counting(inputs, policy, refs=()):
            calls.append((inputs, policy))
            return real(inputs, policy, refs)

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


class TestMemoryPerCommand:
    """Each command checks the memory of its own job only: exit 2 naming the key or cell, else it runs."""

    JOBS = {"check": "grid", "sweep": "denoiser", "generate": "denoiser", "bench": "bench_grid"}
    FLAGS = {
        "check": ["--trials", "1", "--stress-trials", "0"],
        "sweep": ["--strengths=0.35"],
        "generate": [],
        "bench": ["--iterations", "1", "--warmup", "0"],
    }
    # Far beyond any machine's memory: 800 TB of check logits or bench samples, 2.7e8 TB of latents.
    HUGE = {
        "grid": ({"grid": [[10**8, 1, 1]]}, "key 'grid' value 100000000x1x1"),
        "bench_grid": ({"bench_grid": [[10**8, 1, 1, 2]]}, "key 'bench_grid' value 100000000x1x1x2"),
        "denoiser": ({"side": 4096, "steps": 10**12}, "keys 'steps', 'batch' ("),
    }

    @pytest.mark.parametrize("command", JOBS)
    def test_own_job_too_large_exits_2(self, tmp_path, capsys, command):
        huge, named = self.HUGE[self.JOBS[command]]
        path = small_config_file(tmp_path, **{"steps": 1, **huge})
        code, out, err = run(capsys, command, "--config", path, *self.FLAGS[command], "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith(f"config error: {named}")
        assert re.search(f"{command} would hold [0-9.e+]+ GiB at its peak, more than 50% of the [0-9.]+ GiB "
                         "of physical memory", err)
        assert "Traceback" not in err and out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", JOBS)
    def test_other_jobs_keys_do_not_stop_a_tiny_run(self, tmp_path, capsys, command):
        others = {key: value for job, (huge, _) in self.HUGE.items() if job != self.JOBS[command]
                  for key, value in huge.items()}
        path = small_config_file(tmp_path, **{"steps": 1, **others})
        grid = {"check": ["--grid", "4x4x4"], "bench": ["--grid", "8x8x8x2"]}.get(command, [])
        code, _, err = run(capsys, command, "--config", path, *self.FLAGS[command], *grid, "--out", str(tmp_path))
        assert code == 0, err


class TestBlendPreset:
    @pytest.mark.parametrize("references, batch, code", [(4, 5, 2), (3, 4, 0)])
    def test_blend_stays_in_the_convex_hull(self, tmp_path, capsys, references, batch, code):
        path = small_config_file(tmp_path, references=references, batch=batch, steps=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _, err = run(capsys, "generate", "--preset", "blend", "--config", path, "--out", str(tmp_path))
        assert got == code
        assert ("config error: key 'references' value 4:" in err) == (code == 2)


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
        assert "config error: keys 'steps', 'batch' (" in err
        assert not (tmp_path / "sample_0.raw").exists()

    def test_weights_too_large_for_memory_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        # Per unit of d the f64 weights (blocks * d_model * 2 * 8 = 2048 B) match the f32 per-block
        # projections (T * 2 * 4 = 2048 B); the weights' d_v and (T + 2) * d_model terms put them ahead.
        path.write_text(json.dumps({"d": 10000000000, "steps": 1, "policy_kind": "plain"}))
        code, _, err = run(capsys, "generate", "--config", str(path), "--out", str(tmp_path))
        assert code == 2
        assert "config error: keys 'blocks', 'd_model', 'd', 'd_v' (" in err
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

    @pytest.mark.parametrize("command", ["generate", "check"])
    @pytest.mark.parametrize("value, via", [("", "flag"), ("", "file"), ("\0bad", "file")],
                             ids=["empty-flag", "empty-file", "null-byte-file"])
    def test_out_dir_that_names_no_directory_exits_2(self, tmp_path, capsys, monkeypatch, command, value, via):
        # An empty out_dir would write into the working directory, so run from an empty one.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        extra = {"grid": [[4, 2, 2]], "trials": 1, "stress_trials": 0} if command == "check" else {"steps": 1}
        payload = {**SMALL_PIPELINE, **extra, **({"out_dir": value} if via == "file" else {})}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, command, "--config", str(path), *(("--out", value) if via == "flag" else ()))
        assert code == 2
        assert "config error: key 'out_dir' must be a nonempty path" in err
        assert not out and not any(work.iterdir())

    # Each command's work, by its name in ``refguide.cli``.
    @pytest.mark.parametrize("command, work", [
        ("check", "run_equivalence_suite"), ("sweep", "generate_batch"), ("generate", "generate_batch"),
        ("bench", "run_bench"),
    ])
    def test_out_dir_that_cannot_be_made_exits_3_before_the_work(self, tmp_path, capsys, monkeypatch, command, work):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output directory was made")

        monkeypatch.setattr(refguide.cli, work, never)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code, out, err = run(capsys, command, "--out", str(blocker / "sub"))
        assert code == 3
        assert "i/o error" in err and not out

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
