"""Outside-in benchmark for refguide: CLI commands in a closed loop, in process.

Run from the repository root:

    python3 perfbench/run.py --workload generate-large --seed 1 --seconds 50 --trace 0

The benchmark imports ``refguide`` from ``src/`` of the checkout it lives in and
calls ``refguide.cli.main(argv)`` repeatedly; the next command starts only
after the previous one returns. BLAS is pinned to one thread before numpy
loads, and the benchmark starts no threads or processes. Every command's
outputs are checked. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics from
wrappers that time each layer's public functions (see spans.py). The full
report, with the run manifest, is printed on the lines before it and written
under perfbench/out/. Workloads, metrics and the checks are described in
perfbench/README.md.
"""

import os
import sys

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Thread settings found at start, before they are pinned to 1; a value other
# than 1 is flagged in the manifest.
BLAS_ENV_AT_START = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
BLAS_ENV_FLAGGED = sorted(var for var, value in BLAS_ENV_AT_START.items() if value not in (None, "1"))
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import COMPUTED_METRICS, FLOP_SPANS, LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"  # digests at the recorded seed

# Bound of acceptance test_05: concat and rank-1 matrix policies agree.
CONCAT_MATRIX_TOLERANCE = 1e-4


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload round: subcommand plus its JSON config."""

    label: str
    subcommand: str
    config: dict

    @property
    def work(self) -> int:
        """Suite trials (check) or batch members advanced one step (generate, sweep)."""
        cfg = self.config
        if self.subcommand == "check":
            return _GRID_CELLS * (cfg["trials"] + cfg["stress_trials"])
        runs = len(cfg["sweep_strengths"]) if self.subcommand == "sweep" else 1
        return runs * cfg["batch"] * cfg["steps"]


@dataclass(frozen=True)
class Workload:
    work_unit: str
    commands: tuple
    # Commands whose outputs at the recorded seed expected.json pins. They run
    # after the timed rounds and are not timed.
    pinned: tuple = ()


_LARGE = {"side": 32, "blocks": 4, "d": 32, "d_v": 32, "batch": 4, "steps": 3}
_CHECK = {"trials": 4, "stress_trials": 1}
_GRID_CELLS = 54  # cells of refguide.oracle.DEFAULT_GRID
_RFG = Command("rfg", "generate", {**_LARGE, "policy_kind": "rfg", "strength": 0.35})
# The sweep pins the rfg path at L=64 and three strengths, one of them
# negative; it is checked, not timed.
_SWEEP = Command("sweep", "sweep", {
    "side": 8, "blocks": 8, "batch": 8, "steps": 50, "sweep_strengths": [-0.3, 0.2, 0.35],
})

WORKLOADS = {
    "generate-large": Workload(
        work_unit="sample_steps",
        commands=(
            _RFG,
            Command("concat", "generate", {**_LARGE, "policy_kind": "concat"}),
            Command("rfg-matrix", "generate", {**_LARGE, "policy_kind": "rfg-matrix"}),
        ),
        pinned=(_RFG, _SWEEP),
    ),
    "check": Workload(
        work_unit="trials",
        commands=(
            Command("f32", "check", {**_CHECK, "precision": "f32"}),
            Command("f64", "check", {**_CHECK, "precision": "f64"}),
        ),
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("command_s.mean", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("linalg.row_softmax.calls", "count"),
    ("linalg.row_softmax.s", "s"),
    ("linalg.row_softmax.elements", "count"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.s", "s"),
    ("linalg.stack_rows.calls", "count"),
    ("linalg.stack_rows.s", "s"),
    ("linalg.stack_rows.bytes", "B"),
    ("kernels.concat_coefficient_vector.calls", "count"),
    ("kernels.concat_coefficient_vector.s", "s"),
    *(
        (f"kernels.apply_policy.{kind}.{stat}", unit)
        for kind in ("plain", "rfg", "concat", "rfg-matrix")
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("kernels.attention.calls", "count"),
    ("kernels.attention.self_s", "s"),
    ("kernels.flops", "flop"),
    ("kernels.bytes", "B"),
    ("kernels.gflops_per_s", "GFLOP/s"),
    ("pipeline.denoise_step.calls", "count"),
    ("pipeline.denoise_step.self_s", "s"),
    ("pipeline.denoise_step.p50_s", "s"),
    ("pipeline.denoise_step.p90_s", "s"),
    ("pipeline.matmul.calls", "count"),
    ("pipeline.matmul.s", "s"),
    ("pipeline.AttentionInputs.calls", "count"),
    ("pipeline.AttentionInputs.s", "s"),
    ("pipeline.init_denoiser.s", "s"),
    ("config.parse_config.s", "s"),
    ("oracle.naive_concat_attention.calls", "count"),
    ("oracle.naive_concat_attention.s", "s"),
    ("oracle.run_equivalence_suite.self_s", "s"),
    ("rng.stream.calls", "count"),
    ("rng.stream.s", "s"),
    ("artifacts.write.calls", "count"),
    ("artifacts.write.s", "s"),
    ("artifacts.write.bytes", "B"),
    ("oracle.max_rel_error.f32", "ratio"),
    ("oracle.max_rel_error.f64", "ratio"),
    *((f"{layer}.{stat}", unit) for layer in LAYERS[1:] for stat, unit in (("self_s", "s"), ("self_share", "ratio"))),
    ("cli.unattributed_s", "s"),
    ("cli.unattributed_share", "ratio"),
    ("cli.wall_s", "s"),
    ("trace.overhead", "ratio"),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _git_commit():
    """Commit of the checkout from .git, or None outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def manifest(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sources = sorted((SRC / "refguide").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_env_at_start": BLAS_ENV_AT_START,
        "blas_env_flagged": BLAS_ENV_FLAGGED,
        "blas_env_run": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources)),
        "seed": seed,
        "workload": workload,
        "commands": [
            {"label": c.label, "subcommand": c.subcommand, "config": c.config, "work": c.work}
            for c in WORKLOADS[workload].commands
        ],
        "work_unit": WORKLOADS[workload].work_unit,
    }


def _purge_refguide() -> None:
    for name in [n for n in sys.modules if n == "refguide" or n.startswith("refguide.")]:
        del sys.modules[name]


def setup_once(config_path: Path, seed: int) -> tuple:
    """Import refguide afresh, parse the workload config, draw its weights.

    Returns (seconds, modules). numpy is already loaded, so the time is
    refguide's own import, ``parse_config`` and the first ``init_denoiser``.
    """
    _purge_refguide()
    start = time.perf_counter()
    importlib.import_module("refguide.cli")
    cfg = sys.modules["refguide.config"].parse_config(str(config_path), {"seed": seed})
    pipeline_cfg = cfg.pipeline_config()
    sys.modules["refguide.pipeline"].init_denoiser(pipeline_cfg.weights_seed, pipeline_cfg)
    elapsed = time.perf_counter() - start
    return elapsed, {name: sys.modules[f"refguide.{name}"] for name in LAYERS}


def _call(main, argv):
    """Run one CLI command with its output captured; returns exit code or traceback text."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(argv)
    except Exception:  # a crashing command is a failed command, not a crashed run
        return traceback.format_exc()


def _clear(directory: Path) -> None:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _final_latents(files: dict, batch: int) -> bytes:
    return b"".join(files[f"sample_{i}.raw"] for i in range(batch))


def _guarded_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), 1e-12)
    return float(np.abs(a - b).max()) / scale


def check_outputs(command: Command, files: dict) -> tuple:
    """Checks of one command's artifacts on their own; returns (problems, facts)."""
    problems, facts = [], {}
    cfg = command.config
    if command.subcommand == "generate":
        expected = {f"sample_{i}.{ext}" for i in range(cfg["batch"]) for ext in ("raw", "json", "pgm")}
        expected.add("config.json")
        if set(files) != expected:
            problems.append(f"{command.label}: artifacts {sorted(files)} differ from {sorted(expected)}")
    elif command.subcommand == "sweep":
        rows = files.get("sweep.csv", b"").decode().splitlines()
        want = 1 + len(cfg["sweep_strengths"]) * (cfg["steps"] + 1) * (cfg["batch"] - 1)
        if len(rows) != want:
            problems.append(f"{command.label}: sweep.csv has {len(rows)} lines, expected {want}")
    elif command.subcommand == "check":
        try:
            report = json.loads(files.get("check_report.json", b""))
        except json.JSONDecodeError as exc:
            report = {"parse_error": str(exc)}
        if report.get("passed") is not True or report.get("exact_failures") != 0:
            problems.append(
                f"{command.label}: check report passed={report.get('passed')} "
                f"exact_failures={report.get('exact_failures')}"
            )
        if report.get("total_trials") != command.work:
            problems.append(f"{command.label}: {report.get('total_trials')} trials, expected {command.work}")
        facts["max_rel_error"] = report.get("max_rel_error", float("nan"))
    return problems, facts


def check_round(workload: str, outputs: dict) -> list:
    """Checks across the commands of one generate-large round."""
    if workload != "generate-large":
        return []
    problems = []
    batch = _LARGE["batch"]
    refs = {label: files.get("sample_0.raw") for label, files in outputs.items()}
    if len(set(refs.values())) != 1:
        problems.append("generate-large: sample_0 (the reference) differs between policies")
    concat = np.frombuffer(_final_latents(outputs["concat"], batch), dtype="<f4")
    matrix = np.frombuffer(_final_latents(outputs["rfg-matrix"], batch), dtype="<f4")
    err = _guarded_error(concat.astype(np.float64), matrix.astype(np.float64))
    if not err <= CONCAT_MATRIX_TOLERANCE:
        problems.append(f"generate-large: concat and rfg-matrix samples differ by {err:.3e} > {CONCAT_MATRIX_TOLERANCE}")
    return problems


def pinned_digest(command: Command, files: dict) -> str:
    if command.subcommand == "generate":
        return _sha256(_final_latents(files, command.config["batch"]))
    return _sha256(files["sweep.csv"])


class Run:
    """State of one benchmark run: commands issued, their checks and timings."""

    def __init__(self, workload: str, seed: int, work_dir: Path, modules: dict):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.modules = modules
        self.config_paths = {}
        for command in (*self.workload.commands, *self.workload.pinned):
            path = work_dir / f"{command.label}.json"
            path.write_text(json.dumps(command.config, indent=2) + "\n")
            self.config_paths[command.label] = path
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.facts = {}
        self.last_outputs, self.last_oks = {}, {}

    def argv(self, command: Command, seed: int, out_dir: Path) -> list:
        return [command.subcommand, "--config", str(self.config_paths[command.label]),
                "--seed", str(seed), "--out", str(out_dir)]

    def execute(self, command: Command, seed=None, tracer=None, out_name=None) -> tuple:
        """Run and check one command; returns (wall seconds, files, ok)."""
        seed = self.seed if seed is None else seed
        out_dir = self.work_dir / (out_name or command.label)
        _clear(out_dir)
        argv = self.argv(command, seed, out_dir)
        main = self.modules["cli"].main
        problems = []
        if tracer is None:
            start = time.perf_counter_ns()
            code = _call(main, argv)
            wall_ns = time.perf_counter_ns() - start
        else:
            code, wall_ns, problems = tracer.run(_call, main, argv)
        self.attempted += 1
        if code != 0:
            problems.append(f"{command.label}: exit {code!r}")
            files = {}
        else:
            files = _files(out_dir)
            more, facts = check_outputs(command, files)
            problems += more
            for key, value in facts.items():
                self.facts.setdefault(command.label, {})[key] = value
            if seed == self.seed:
                digest = {name: _sha256(data) for name, data in files.items()}
                first = self.digests.setdefault(command.label, digest)
                if digest != first:
                    changed = sorted(n for n in set(first) | set(digest) if first.get(n) != digest.get(n))
                    problems.append(f"{command.label}: rerun changed artifacts {changed}")
        if problems:
            self.failed += 1
            self.problems += problems
        return wall_ns / 1e9, files, not problems

    def round(self, tracer=None) -> list:
        """Run every command of the workload once; returns (label, seconds) pairs."""
        times, outputs, oks = [], {}, {}
        for command in self.workload.commands:
            seconds, files, oks[command.label] = self.execute(command, tracer=tracer)
            times.append((command.label, seconds))
            outputs[command.label] = files
        if all(outputs.values()):
            problems = check_round(self.name, outputs)
            self.problems += problems
            # A failed cross-check fails one command of the round, unless one failed already.
            self.failed += int(bool(problems) and all(oks.values()))
        self.last_outputs, self.last_oks = outputs, oks
        return times

    def check_pinned(self) -> None:
        """Compare the pinned commands' digests at the recorded seed with expected.json."""
        expected = json.loads(EXPECTED_PATH.read_text())
        recorded_seed = expected["recorded_seed"]
        for command in self.workload.pinned:
            if self.seed == recorded_seed and command.label in self.last_outputs:
                files, ok = self.last_outputs[command.label], self.last_oks[command.label]
            else:
                _, files, ok = self.execute(command, seed=recorded_seed, out_name=f"{command.label}-recorded-seed")
            if not files:
                continue
            want = expected[f"{self.name}/{command.label}"]
            got = pinned_digest(command, files)
            if got != want:
                self.failed += int(ok)
                self.problems.append(
                    f"{self.name}/{command.label}: digest at seed {recorded_seed} is {got}, recorded {want}"
                )


def per_layer_metrics(tracer: Tracer, rounds: int, traced_mean: float, untraced_mean: float, facts: dict) -> dict:
    """Per-layer values per traced round, from the tracer's run totals."""
    calls, total, own = tracer.calls, tracer.total_ns, tracer.self_ns
    values = {}

    def span(name, stat):
        if stat == "calls":
            return calls[name] / rounds
        return (total if stat == "s" else own)[name] / 1e9 / rounds

    for metric, _unit in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat in ("calls", "s", "self_s") and base.split(".")[0] in LAYERS and base not in LAYERS:
            values[metric] = span(base, stat)
    for key in COMPUTED_METRICS:
        values[key] = tracer.counts[key] / rounds
    busy_ns = sum(total[name] for name in FLOP_SPANS)
    values["kernels.gflops_per_s"] = tracer.counts["kernels.flops"] / busy_ns if busy_ns else 0.0
    steps = tracer.step_durations
    if steps:
        q = statistics.quantiles(steps, n=10, method="inclusive")
        values["pipeline.denoise_step.p50_s"] = statistics.median(steps)
        values["pipeline.denoise_step.p90_s"] = q[8]
    else:
        values["pipeline.denoise_step.p50_s"] = values["pipeline.denoise_step.p90_s"] = 0.0
    wall = tracer.wall_ns
    for layer in LAYERS[1:]:
        values[f"{layer}.self_s"] = tracer.layer_self_ns[layer] / 1e9 / rounds
        values[f"{layer}.self_share"] = tracer.layer_self_ns[layer] / wall
    values["cli.unattributed_s"] = tracer.layer_self_ns["cli"] / 1e9 / rounds
    values["cli.unattributed_share"] = tracer.layer_self_ns["cli"] / wall
    values["cli.wall_s"] = wall / 1e9 / rounds
    values["trace.overhead"] = traced_mean / untraced_mean
    for precision in ("f32", "f64"):
        values[f"oracle.max_rel_error.{precision}"] = facts.get(precision, {}).get("max_rel_error", 0.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the full report; its ``result`` is printed as the last line."""
    work_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    _clear(work_dir)
    spec = WORKLOADS[workload]
    config_path = work_dir / "setup.json"
    config_path.write_text(json.dumps(spec.commands[0].config) + "\n")
    modules = setup_once(config_path, seed)[1]  # cold: loads bytecode from disk; not a sample
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"refguide was imported from {origin}, not from {SRC}")

    run = Run(workload, seed, work_dir, modules)
    tracer = Tracer(modules) if trace else None
    run.round()  # warm-up: fills caches, records reference digests and checks
    setups, untraced, traced = [], [], []
    untraced_rounds = 0
    untraced_wall = 0.0  # seconds of the untraced rounds, checks between commands included
    rounds = 0
    start = time.perf_counter()
    while True:
        # One set-up before every round, so that the set-up samples span the
        # run like the command samples. The run keeps using its own modules.
        setups.append(setup_once(config_path, seed)[0])
        use_trace = trace and rounds % 2 == 1
        round_start = time.perf_counter()
        if use_trace:
            tracer.install()
        try:
            times = run.round(tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        if use_trace:
            traced.extend(t for _, t in times)
        else:
            untraced.extend(t for _, t in times)
            untraced_rounds += 1
            untraced_wall += time.perf_counter() - round_start
        rounds += 1
        if time.perf_counter() - start >= seconds and (not trace or rounds >= 2):
            break
    wall = time.perf_counter() - start
    run.check_pinned()

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(setups)
    command_mean = statistics.fmean(untraced)
    throughput = untraced_rounds * sum(c.work for c in spec.commands) / untraced_wall
    named_metrics = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": len(setups)},
        "command_s.mean": {"value": command_mean, "unit": "s", "samples": len(untraced)},
        "command_s.p50": {"value": statistics.median(untraced), "unit": "s", "samples": len(untraced)},
        f"{spec.work_unit}_per_s": {"value": throughput, "unit": "1/s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        "error_rate": {"value": run.failed / run.attempted, "unit": "ratio"},
    }
    if trace:
        metrics = per_layer_metrics(
            tracer, len(traced) // len(spec.commands), statistics.fmean(traced), command_mean, run.facts
        )
        tracer.save(work_dir / "spans.npz")
    else:
        values = {"setup_s": setup_s, "command_s.mean": command_mean, "work_per_s": throughput,
                  "peak_rss_mib": peak_rss_mib}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return {
        "manifest": manifest(workload, seed),
        "seconds": seconds,
        "trace": trace,
        "rounds": rounds,
        "wall_s": wall,
        "end_to_end": named_metrics,
        "command_samples_s": {"untraced": untraced, "traced": traced},
        "computed_from_shapes": COMPUTED_METRICS,
        "spans": tracer.span_count if trace else 0,
        "problems": run.problems,
        "result": result,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the refguide CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "refguide" / "__init__.py").is_file():
        print(f"error: no refguide sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if BLAS_ENV_FLAGGED:
        print(f"warning: BLAS thread variables {BLAS_ENV_FLAGGED} were not 1; pinned to 1 and flagged",
              file=sys.stderr)
    report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}" / "report.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in report.items() if k != "result"}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
