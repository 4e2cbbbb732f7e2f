import contextlib
import hashlib
import json
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import refguide.bench
import refguide.cli
import refguide.pipeline
from refguide import kernels
from refguide.artifacts import load_raw
from refguide.bench import BENCH_POLICIES, run_bench
from refguide.cli import main
from refguide.config import ConfigError
from refguide.kernels import AttentionPolicy
from refguide.pipeline import PipelineConfig, generate_batch, trajectory_distance

from helpers import BLAS_VARS, child_env, load_file, overflowing_tile_inputs, strict_loads

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
    def test_three_references_stay_in_the_convex_hull(self, tmp_path, capsys):
        path = small_config_file(tmp_path, references=3, batch=4, steps=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "generate", "--preset", "blend", "--config", path, "--out", str(tmp_path))
        assert code == 0, err


class TestErrorPaths:
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

    # In the C locale the file system encoding is ASCII, so "résultats" is no path there.
    @pytest.mark.skipif(sys.platform != "linux", reason="needs Linux's ASCII C locale")
    @pytest.mark.parametrize("flags, code, err", [
        (["--out", "out"], 0, b""),  # the file is read as UTF-8 and the flag's out_dir wins
        ([], 2, b"config error: key 'out_dir' must be a path the ascii file system encoding can hold, "
                b"got 'r\\xe9sultats'\n"),
    ], ids=["flag", "file"])
    def test_c_locale_reads_config_as_utf8_and_names_an_unencodable_out_dir(self, tmp_path, flags, code, err):
        (tmp_path / "config.json").write_text(json.dumps({"out_dir": "résultats", "steps": 1}, ensure_ascii=False),
                                              encoding="utf-8")
        env = child_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        done = subprocess.run([sys.executable, "-m", "refguide.cli", "generate", "--config", "config.json", *flags],
                              cwd=tmp_path, env=env, capture_output=True)
        assert (done.returncode, done.stderr) == (code, err)
        assert bool(done.stdout) == (code == 0)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", *(["out"] if code == 0 else [])]

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

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "transmogrify")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_preset_choice(self, capsys):
        assert run(capsys, "generate", "--preset", "vivid")[0] == 2

    def test_sweep_flag_rejected_on_generate(self, capsys):
        assert run(capsys, "generate", "--strengths", "0.1")[0] == 2

    @pytest.mark.parametrize("argv", [("check", "--threshold", "0.5"), ("check", "--stress-scale", "1e5")])
    def test_certification_bounds_are_not_flags(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert "unrecognized arguments" in err
        assert out == ""

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


OPENBLAS = kernels._openblas()
BASELINES = json.loads((Path(__file__).parent / "data" / "baselines.json").read_text())
RECORDER = load_file("scripts/record_baselines.py", "record_baselines")
# Keys that cut a command's repetitions, not its shapes.
SHORT_RUNS = {"generate": {"steps": 1}, "sweep": {"steps": 1}, "check": {"trials": 1, "stress_trials": 0},
              "bench": {"iterations": 1, "warmup": 0}}


@pytest.fixture
def blas_at_two_threads():
    """OpenBLAS at two threads for the test, then at the count it had; a BLAS without the setter is left alone."""
    if OPENBLAS is None:
        yield None
        return
    get, put, _ = OPENBLAS
    before = get()
    put(2)
    yield 2
    put(before)


def blas_readings(monkeypatch):
    """Two lists that get, at each ``kernels._tile`` and each ``pipeline.matmul`` call, whether a pool thread made it
    and OpenBLAS's thread count then."""
    tiles, matmuls = [], []
    for module, name, seen in ((kernels, "_tile", tiles), (refguide.pipeline, "matmul", matmuls)):
        def reading(*args, real=getattr(module, name), seen=seen):
            seen.append((threading.current_thread().name.startswith("refguide-tile"), OPENBLAS and OPENBLAS[0]()))
            return real(*args)

        monkeypatch.setattr(module, name, reading)
    return tiles, matmuls


def tile_threads(tiles, workers, count):
    """What ``blas_readings`` gets, sorted, for ``tiles`` tiles dealt to ``workers`` shares: a pool thread runs every
    tile but share 0's, the caller's, at BLAS count ``count``."""
    return sorted((tile % workers != 0, count) for tile in range(tiles))


def tiled_generate(monkeypatch, overflows=False):
    """Replace ``generate``'s work with one tiled ``attention`` call, whose logits overflow (exit 2) if ``overflows``.

    Returns a list that gets, for each tile, whether a pool thread ran it and OpenBLAS's thread count then.
    """
    def command(cfg, out):
        kernels.attention(*[np.full((1024, 8), 3e38 if overflows else 1, np.float32)] * 3)  # four tiles
        return 0

    monkeypatch.setitem(refguide.cli._COMMANDS, "generate", command)
    return blas_readings(monkeypatch)[0]


class TestBlasThreads:
    """Kernel calls and the denoiser's steps run BLAS at one thread, in commands and library calls alike, then restore
    the count; the tile pool follows the count BLAS reports."""

    @pytest.mark.skipif(OPENBLAS is None, reason="needs OpenBLAS's thread getter and setter")
    @pytest.mark.parametrize("overflows, code", [(False, 0), (True, 2)])
    def test_command_runs_one_blas_thread_and_restores_the_count(self, monkeypatch, tmp_path, blas_at_two_threads,
                                                                 overflows, code):
        seen = tiled_generate(monkeypatch, overflows)
        assert kernels.pool_workers() == 1
        assert main(["generate", "--out", str(tmp_path)]) == code
        workers = min(kernels.CPUS, 4)
        assert sorted(seen) == tile_threads(workers if overflows else 4, workers, 1)  # a share stops at its error
        assert (OPENBLAS[0](), kernels.pool_workers()) == (2, 1)

    # Small partitions and large ones, on the tile grid (side 32) or off it (side 40: L = 1600; a 1000-row cell).
    @pytest.mark.skipif(OPENBLAS is None, reason="needs OpenBLAS's thread getter and setter")
    @pytest.mark.parametrize("command, config", [
        ("generate", {}),
        ("generate", {"side": 32, "policy_kind": "concat"}),
        ("generate", {"side": 40}),
        ("sweep", {"side": 40}),
        ("check", {}),
        ("check", {"grid": [[1000, 4, 4]]}),
        ("bench", {}),
        ("bench", {"bench_grid": [[64, 8, 8, 2], [1000, 4, 4, 2]]}),
    ])
    def test_every_command_runs_its_blas_work_at_one_thread(self, monkeypatch, tmp_path, blas_at_two_threads,
                                                              command, config):
        tiles, matmuls = blas_readings(monkeypatch)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, **SHORT_RUNS[command]}))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert tiles and {count for _, count in tiles + matmuls} == {1}
        assert bool(matmuls) == (command in ("generate", "sweep"))
        assert OPENBLAS[0]() == 2

    @pytest.mark.skipif(OPENBLAS is None, reason="needs OpenBLAS's thread getter and setter")
    def test_library_generate_batch_pools_per_cpu_at_one_blas_thread(self, monkeypatch, blas_at_two_threads):
        tiles, matmuls = blas_readings(monkeypatch)
        workers, real = [], kernels.pool_workers
        monkeypatch.setattr(kernels, "pool_workers", lambda: workers.append(real()) or workers[-1])
        config = PipelineConfig(side=32, **RECORDER.TILED_SCHEDULE, policy=AttentionPolicy.rfg(0.35))  # L = 1024 tiles
        digest = generate_batch(config).final_digest()
        assert digest == BASELINES["final_digests_seeds42_7_side32"]["rfg035/f32"]
        assert set(workers) == {kernels.CPUS}
        assert set(tiles) == {(False, 1), (kernels.CPUS > 1, 1)} and {count for _, count in matmuls} == {1}
        assert OPENBLAS[0]() == 2

    @pytest.mark.skipif(OPENBLAS is None, reason="needs OpenBLAS's thread getter and setter")
    @pytest.mark.parametrize("tiled", [False, True], ids=["untiled", "tiled-raises"])
    def test_a_kernel_call_runs_one_blas_thread_and_restores_the_count(self, monkeypatch, blas_at_two_threads, tiled):
        tiles, _ = blas_readings(monkeypatch)
        if tiled:
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite logits"):
                kernels.attention(*overflowing_tile_inputs(2))
        else:
            kernels.attention(*[np.ones((64, 8), np.float32)] * 3)
        assert len(tiles) == (4 if tiled else 1) and {count for _, count in tiles} == {1}
        assert OPENBLAS[0]() == 2

    @pytest.mark.parametrize("env, pooled", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
    ])
    def test_without_the_library_the_pool_follows_the_environment_and_nothing_is_pinned(
            self, monkeypatch, tmp_path, blas_at_two_threads, env, pooled):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        seen = tiled_generate(monkeypatch)
        monkeypatch.setattr(kernels, "_openblas", lambda: None)
        assert (kernels.blas_kernel(), kernels.blas_threads()) == (None, 1 if pooled else None)
        assert main(["generate", "--out", str(tmp_path)]) == 0
        assert sorted(seen) == tile_threads(4, min(kernels.CPUS, 4) if pooled else 1, blas_at_two_threads)

    # A child that runs ``refguide.cli.main`` on its arguments, then library ``generate_batch`` on the same side-32
    # config, and prints to stderr as JSON, for each of the two, the tile workers and BLAS's thread count at each call
    # that asked for the pool; BLAS's count before, between and after; and the sha256 of the library's final latents.
    RECORD_POOLS = (
        "import hashlib, json, sys\n"
        "import refguide.cli, refguide.kernels as k\n"
        "from refguide.pipeline import PipelineConfig, generate_batch\n"
        "asked, pool = [], k._tile_pool\n"
        "def recording(pid):\n"
        "    asked[-1].add((k.pool_workers(), k.blas_threads()))\n"
        "    return pool(pid)\n"
        "k._tile_pool = recording\n"
        "counts = [k.blas_threads()]\n"
        "asked.append(set())\n"
        "code = refguide.cli.main(sys.argv[1:])\n"
        "counts.append(k.blas_threads())\n"
        "asked.append(set())\n"
        "final = generate_batch(PipelineConfig(side=32, blocks=2, steps=2, batch=3)).final\n"
        "counts.append(k.blas_threads())\n"
        "digest = hashlib.sha256(final.astype('<f4').tobytes()).hexdigest()\n"
        "print(json.dumps([[sorted(a) for a in asked], counts, digest]), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    @pytest.mark.skipif(OPENBLAS is None or kernels.CPUS < 2, reason="needs OpenBLAS's setter and two CPUs")
    def test_generate_with_blas_variables_unset_pools_per_cpu_at_one_blas_thread(self, tmp_path):
        config = tmp_path / "side32.json"
        config.write_text(json.dumps({"side": 32, "blocks": 2, "steps": 2, "batch": 3}))  # L = 1024 tiles
        runs, outputs = {}, {}
        for name, env in (("unset", child_env()), ("pinned", child_env(OPENBLAS_NUM_THREADS="1"))):
            argv = ["generate", "--config", str(config), "--out", str(tmp_path / name)]
            done = subprocess.run([sys.executable, "-c", self.RECORD_POOLS, *argv], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr
            runs[name] = json.loads(done.stderr)
            outputs[name] = {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
        # The command and the library call alike pool per CPU at one BLAS thread.
        assert runs["unset"][0] == runs["pinned"][0] == [[[kernels.CPUS, 1]]] * 2
        assert runs["unset"][1][0] > 1 and set(runs["unset"][1]) == {runs["unset"][1][0]}  # BLAS's own, restored
        assert runs["pinned"][1] == [1, 1, 1]
        assert outputs["unset"] == outputs["pinned"]
        command_latents = b"".join(outputs["unset"][f"sample_{i}.raw"] for i in range(3))
        assert runs["unset"][2] == runs["pinned"][2] == hashlib.sha256(command_latents).hexdigest()
