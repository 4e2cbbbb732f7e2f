"""Regenerate the frozen regression baselines under tests/data/.

Run after any intentional change to the weight draw order, the denoiser
forward pass, the update schedule, or the sweep CSV format, then review the
diff before committing. The recorded values pin:

  - the weight digest for seed 42 at the default architecture,
  - the final-latent digest for the default generate run (rfg 0.35), and
    for the default cross-frame and rfg-multi (0.3, 0.3) runs,
  - final-latent digests at side 32 (L=1024, large enough for the kernels'
    pooled query tiles) for rfg 0.35, concat and rfg-matrix at f32 and rfg
    0.35 at f64, on a small schedule (2 blocks, 2 steps, batch 3),
  - the per-step reference distances for c in {-0.3, 0, 0.2, 0.35},
  - the output digests of the loop oracle ``naive_concat_attention`` on fixed
    suite draws (two cells, f32 and f64, one standard and one stressed
    draw each),
  - the sha256 of the equivalence suite's sorted-key JSON report at the
    benchmark's ``check`` settings (4 trials and 1 stress trial per cell):
    f32 seed 0, f64 seed 3, and a failing f32 seed 0 run with the
    coefficient corrupted by 1e-3, and
  - the byte-exact default sweep CSV as produced by the command line.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from refguide.cli import main as cli_main
from refguide.kernels import AttentionPolicy
from refguide.linalg import PRECISION_DTYPES
from refguide.oracle import DEFAULT_GRID, _draw_inputs, naive_concat_attention, run_equivalence_suite
from refguide.pipeline import PipelineConfig, generate_batch, init_denoiser, trajectory_distance
from refguide.rng import stream

DATA_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"
DISTANCE_STRENGTHS = (-0.3, 0.0, 0.2, 0.35)
ORACLE_CELLS = ((64, 32, 32), (64, 1, 1))
ORACLE_DRAWS = (("standard", 0, 1.0), ("stressed", 1, 100.0))  # (name, trial, query scale)
SIDE32 = dict(side=32, blocks=2, steps=2, batch=3)
SIDE32_RUNS = {  # key -> (policy, precision)
    "rfg035/f32": (AttentionPolicy.rfg(0.35), "f32"),
    "concat/f32": (AttentionPolicy.concat(), "f32"),
    "rfg-matrix/f32": (AttentionPolicy.rfg_matrix(), "f32"),
    "rfg035/f64": (AttentionPolicy.rfg(0.35), "f64"),
}
CHECK_TRIALS = dict(trials_per_cell=4, stress_trials_per_cell=1)
CHECK_RUNS = {  # key -> run_equivalence_suite keywords beyond CHECK_TRIALS
    "f32/seed0": dict(precision="f32", seed=0),
    "f64/seed3": dict(precision="f64", seed=3),
    "f32/seed0/corrupt1e-3": dict(precision="f32", seed=0, corrupt_coefficient=1e-3),
}


def side32_digests() -> dict:
    """Final-latent digests of the ``SIDE32_RUNS`` generations, keyed ``policy/precision``."""
    return {
        key: generate_batch(PipelineConfig(**SIDE32, policy=policy, precision=precision)).final_digest()
        for key, (policy, precision) in SIDE32_RUNS.items()
    }


def oracle_digests() -> dict:
    """sha256 of the oracle's f64 output bytes, keyed ``LxDxV/precision/draw``.

    Each draw is the suite's own: ``_draw_inputs`` on ``stream(0, cell, trial)``,
    with ``cell`` the index into ``DEFAULT_GRID``.
    """
    digests = {}
    for cell in ORACLE_CELLS:
        cell_index = DEFAULT_GRID.index(cell)
        for precision, dtype in PRECISION_DTYPES.items():
            for draw, trial, scale in ORACLE_DRAWS:
                inputs = _draw_inputs(stream(0, cell_index, trial), *cell, dtype, scale)
                out = naive_concat_attention(*inputs)
                key = f"{'x'.join(map(str, cell))}/{precision}/{draw}"
                digests[key] = hashlib.sha256(out.tobytes()).hexdigest()
    return digests


def report_digest(report) -> str:
    """sha256 of an equivalence report as sorted-key JSON."""
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def check_report_digests() -> dict:
    """``report_digest`` of each ``CHECK_RUNS`` suite run, keyed as ``CHECK_RUNS``."""
    return {key: report_digest(run_equivalence_suite(**CHECK_TRIALS, **kwargs)) for key, kwargs in CHECK_RUNS.items()}


def record_baselines() -> dict:
    default = PipelineConfig()
    weights_digest = init_denoiser(42, default).digest()
    final_digest = generate_batch(default).final_digest()
    cross_frame_digest = generate_batch(PipelineConfig(policy=AttentionPolicy.cross_frame())).final_digest()
    multi_digest = generate_batch(PipelineConfig(policy=AttentionPolicy.rfg_multi((0.3, 0.3)))).final_digest()

    distance_series = {}
    for c in DISTANCE_STRENGTHS:
        policy = AttentionPolicy.plain() if c == 0.0 else AttentionPolicy.rfg(c)
        traj = generate_batch(PipelineConfig(policy=policy))
        distance_series[repr(c)] = trajectory_distance(traj, 1).tolist()

    return {
        "weights_digest_seed42_default": weights_digest,
        "final_digest_seeds42_7_rfg035_default": final_digest,
        "final_digest_seeds42_7_cross_frame_default": cross_frame_digest,
        "final_digest_seeds42_7_rfg_multi_03_03_default": multi_digest,
        "distance_series_seed42_default": distance_series,
        "oracle_concat_digests_seed0": oracle_digests(),
        "final_digests_seeds42_7_side32": side32_digests(),
        "check_report_digests": check_report_digests(),
    }


def record_sweep_csv() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        code = cli_main(["sweep", "--out", tmp])
        if code != 0:
            raise SystemExit(f"baseline sweep run failed with exit code {code}")
        return (Path(tmp) / "sweep.csv").read_bytes()


def main() -> int:
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    baselines = record_baselines()
    baseline_path = DATA_DIR / "baselines.json"
    baseline_path.write_text(json.dumps(baselines, indent=2) + "\n")
    print(f"wrote {baseline_path}")

    sweep_path = DATA_DIR / "sweep_baseline.csv"
    sweep_path.write_bytes(record_sweep_csv())
    print(f"wrote {sweep_path} ({len(sweep_path.read_bytes())} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
