"""Command-line driver: check, sweep, generate, bench.

Exit codes are a stable contract: 0 success (and suite pass), 1 equivalence
check failure, 2 usage or configuration error, 3 I/O error. ``check`` and
``bench`` print their report as a single strict JSON document on stdout (and
write it under --out); human-oriented status lines go to stderr so stdout stays
machine-parseable.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .artifacts import json_text, write_json, write_pgm, write_raw, write_sweep_csv
from .bench import run_bench
from .config import PRESETS, ConfigError, parse_config
from .linalg import PRECISION_DTYPES
from .oracle import run_equivalence_suite
from .pipeline import generate_batch, trajectory_distance


def _floats(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _cells(text: str):
    try:
        return tuple(tuple(int(dim) for dim in part.lower().split("x")) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected cells like 64x32x32, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file; flags override its keys")
    common.add_argument("--seed", type=int, metavar="N", help="master seed (weights N, noise N+1, suite N)")
    common.add_argument("--preset", choices=PRESETS, help="reference-strength preset")
    common.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory (default: out)")
    common.add_argument("--precision", choices=tuple(PRECISION_DTYPES), help="working float width (default: f32)")

    parser = argparse.ArgumentParser(
        prog="refguide",
        description="Reference-guided attention kernels, equivalence checking, and a toy batch generator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", parents=[common],
        help="certify the blend kernels against the brute-force attention oracle",
    )
    check.add_argument("--trials", type=int, metavar="N", help="trials per grid cell (default: 20)")
    check.add_argument("--grid", type=_cells, metavar="LxDxV,...", help="shape cells to test")
    check.add_argument("--stress-trials", dest="stress_trials", type=int, metavar="N",
                       help="large-logit trials per cell (default: 5)")
    check.add_argument("--corrupt-kernel", dest="corrupt_kernel", type=float, metavar="DELTA",
                       help="test hook: perturb one coefficient entry by DELTA; a DELTA that changes the entry "
                            "in the working precision must fail the suite")

    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="generate one batch per strength and record per-step distances to the reference",
    )
    sweep.add_argument("--strengths", dest="sweep_strengths", type=_floats, metavar="C1,C2,...",
                       help="strengths to sweep (default: -0.3,0.2,0.35); "
                            "write --strengths=-0.3,... when the list starts with a minus")
    sweep.add_argument("--dup-noise", dest="duplicate_noise", action="store_true", default=None,
                       help="give the first guided sample the reference's initial noise")

    sub.add_parser("generate", parents=[common],
                   help="run one batch and write final latents as raw f32 + PGM")

    bench = sub.add_parser("bench", parents=[common],
                           help="time plain, concat, and rfg attention over a shape grid")
    bench.add_argument("--grid", dest="bench_grid", type=_cells, metavar="LxDxVxB,...",
                       help="bench cells (default: 64x64x64x8,256x64x64x8)")
    bench.add_argument("--iterations", type=int, metavar="N", help="timed iterations per cell (default: 100)")
    bench.add_argument("--warmup", type=int, metavar="N", help="untimed iterations per cell (default: 10)")

    return parser


def _out_dir(cfg) -> Path:
    """The output directory, made before a command's work, so an unusable ``--out`` exits 3 at once."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_check(cfg) -> int:
    out = _out_dir(cfg)
    report = run_equivalence_suite(
        seed=cfg.check_seed,
        grid=cfg.check_grid,
        trials_per_cell=cfg.trials,
        precision=cfg.precision,
        stress_trials_per_cell=cfg.stress_trials,
        corrupt_coefficient=cfg.corrupt_kernel,
    )
    payload = report.to_dict()
    write_json(out / "check_report.json", payload)
    print(json_text(payload), end="")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"check {status}: max_rel_error={report.max_rel_error:.3e} "
        f"(threshold {report.threshold:.1e}), {report.total_trials} trials",
        file=sys.stderr,
    )
    if not report.passed and report.worst is not None:
        print(
            f"worst case: identity={report.worst['identity']} cell={report.worst['cell']} "
            f"stream_key={report.worst['stream_key']} error={report.worst['error']:.3e}",
            file=sys.stderr,
        )
    return 0 if report.passed else 1


def _generate(pipeline_cfg, key: str, value):
    """``generate_batch``, with a ValueError re-raised as a ConfigError naming ``key``.

    A finite strength can still overflow the logits; ``key`` set the strength.
    """
    try:
        return generate_batch(pipeline_cfg)
    except ValueError as exc:
        raise ConfigError(f"key {key!r} value {value!r}: {exc}") from exc


def _cmd_sweep(cfg) -> int:
    out, rows = _out_dir(cfg), []
    for c in cfg.sweep_strengths:
        pipeline_cfg = cfg.pipeline_config(strength_override=c)
        traj = _generate(pipeline_cfg, "sweep_strengths", c)
        distances = {i: trajectory_distance(traj, i) for i in range(1, pipeline_cfg.batch)}
        for t in range(pipeline_cfg.steps + 1):
            for i in sorted(distances):
                rows.append((c, t, i, distances[i][t]))
    path = write_sweep_csv(out / "sweep.csv", rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_generate(cfg) -> int:
    out, pipeline_cfg = _out_dir(cfg), cfg.pipeline_config()
    key = "layer_strengths" if cfg.layer_strengths is not None else cfg.named_policy()[1][-1]
    traj = _generate(pipeline_cfg, key, getattr(cfg, key))
    for i in range(pipeline_cfg.batch):
        final = traj.final[i]
        write_raw(out / f"sample_{i}.raw", final)
        write_pgm(out / f"sample_{i}.pgm", final)
    write_json(out / "config.json", cfg.to_dict())
    print(f"wrote {pipeline_cfg.batch} samples (raw + sidecar + pgm) and config.json to {out}")
    return 0


def _cmd_bench(cfg) -> int:
    out = _out_dir(cfg)
    report = run_bench(
        grid=cfg.bench_grid,
        iterations=cfg.iterations,
        warmup=cfg.warmup,
        precision=cfg.precision,
        seed=cfg.check_seed,
    )
    payload = report.to_dict()
    write_json(out / "bench_report.json", payload)
    print(json_text(payload), end="")
    for note in report.expectation_violations:
        print(f"note: {note}", file=sys.stderr)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "generate": _cmd_generate,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    # Every other flag's dest is a RunConfig field, so parse_config rejects a
    # flag that has none instead of dropping it.
    overrides = vars(args)
    command, config_path = overrides.pop("command"), overrides.pop("config")
    # Overflow and invalid values are named by the finiteness rule (exit 2) or
    # by the report's null error (exit 1), so numpy's warnings stay silent.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[command](parse_config(config_path, overrides, command))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # A finite but huge configured value can still overflow the logits.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
