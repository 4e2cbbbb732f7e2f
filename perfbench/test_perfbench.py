"""Self-test of the benchmark: python3 -m pytest -q perfbench

Checks that tracing changes no output byte, that span self times are never
negative and add up to the command wall time, that the output checks catch
a wrong digest, and that run.py refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from spans import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def modules(tmp_path):
    config = tmp_path / "setup.json"
    config.write_text("{}")
    return run.setup_once(config, 0)[1]


@pytest.fixture
def out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path / "out"


def test_benchmark_json_lists_what_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH_DIR.name]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def _tiny_commands(tmp_path):
    configs = {
        "matrix": {"side": 4, "steps": 2, "policy_kind": "rfg-matrix"},
        "concat": {"side": 4, "steps": 2, "policy_kind": "concat"},
        "sweep": {"side": 4, "steps": 2, "blocks": 2},
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    return {
        "matrix": ["generate", "--config", str(tmp_path / "matrix.json")],
        "concat": ["generate", "--config", str(tmp_path / "concat.json")],
        "sweep": ["sweep", "--config", str(tmp_path / "sweep.json")],
        "check": ["check", "--grid", "4x4x4,8x4x2", "--trials", "2", "--stress-trials", "1"],
    }


def test_traced_commands_write_identical_bytes_and_self_times_add_up(tmp_path, modules):
    tracer = Tracer(modules)
    main = modules["cli"].main
    for name, argv in _tiny_commands(tmp_path).items():
        plain_dir, traced_dir = tmp_path / name / "plain", tmp_path / name / "traced"
        assert run._call(main, argv + ["--out", str(plain_dir)]) == 0
        tracer.install()
        try:
            code, wall_ns, problems = tracer.run(run._call, main, argv + ["--out", str(traced_dir)])
        finally:
            tracer.uninstall()
        assert code == 0 and problems == []
        assert wall_ns > 0
        assert run._files(traced_dir) == run._files(plain_dir), name
    assert tracer.commands == 4
    assert min(tracer.self_ns.values()) >= 0
    assert sum(tracer.layer_self_ns.values()) == tracer.wall_ns
    # Every layer the tiny commands touch shows up, and tracing is removed afterwards.
    assert {layer for layer, ns in tracer.layer_self_ns.items() if ns > 0} == {
        "cli", "config", "pipeline", "kernels", "linalg", "oracle", "rng", "artifacts"
    }
    assert not hasattr(modules["kernels"].row_softmax, "__wrapped__")


def test_span_checks_catch_a_clock_that_runs_backwards(tmp_path, modules):
    ticks = iter(range(10**9, 0, -1000))
    tracer = Tracer(modules, clock=lambda: next(ticks))
    tracer.install()
    try:
        argv = _tiny_commands(tmp_path)["sweep"] + ["--out", str(tmp_path / "o")]
        _, _, problems = tracer.run(run._call, modules["cli"].main, argv)
    finally:
        tracer.uninstall()
    assert any("negative self time" in p for p in problems)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_is_correct_and_reports_every_per_layer_metric(workload, out):
    report = run.benchmark(workload, seed=1, seconds=0.01, trace=True)
    result = report["result"]
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.PER_LAYER)
    assert report["command_samples_s"]["traced"] and report["command_samples_s"]["untraced"]
    assert (out / f"{workload}-seed1-trace1" / "spans.npz").is_file()
    shares = sum(v["value"] for k, v in result["metrics"].items() if k.endswith("_share"))
    assert shares == pytest.approx(1.0)


def test_untraced_run_reports_every_end_to_end_metric(out):
    result = run.benchmark("check", seed=2, seconds=0.01, trace=False)["result"]
    assert result["correct"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_recorded_digest_fails_the_run(out, tmp_path, monkeypatch):
    expected = json.loads(run.EXPECTED_PATH.read_text())
    expected["generate-large/rfg"] = "0" * 64
    (tmp_path / "expected.json").write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED_PATH", tmp_path / "expected.json")
    report = run.benchmark("generate-large", seed=expected["recorded_seed"], seconds=0.01, trace=False)
    assert not report["result"]["correct"]
    assert report["result"]["failed"] == 1
    assert any("digest at seed" in p for p in report["problems"])


def test_run_py_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
