"""Regenerate the frozen regression baselines under tests/data/.

Run after any intentional change to the weight draw order, the denoiser
forward pass, the update schedule, or the sweep CSV format, then review the
diff before committing. The kernels and the denoiser run BLAS at one thread
themselves (``kernels.one_blas_thread``) where numpy's OpenBLAS has the setter;
with another BLAS, set ``OPENBLAS_NUM_THREADS=1``. The file names the BLAS
kernel it was recorded under: other kernels sum in another order, so they give
other bits. The recorded values pin:

  - the weight digest for seed 42 at the default architecture,
  - the final-latent digest for the default generate run (rfg 0.35), and
    for the default cross-frame and rfg-multi (0.3, 0.3) runs,
  - final-latent digests at side 32 (L=1024, large enough for the kernels'
    pooled query tiles) for rfg 0.35, concat and rfg-matrix at f32 and rfg
    0.35 at f64, and at side 40 (L=1600, a 64-row last tile) for rfg 0.35
    and concat at f32, on a small schedule (2 blocks, 2 steps, batch 3),
  - the per-step reference distances for c in {-0.3, 0, 0.2, 0.35},
  - the output digests of the loop oracle ``naive_concat_attention`` on fixed
    suite draws (two cells, f32 and f64, one standard and one stressed
    draw each),
  - the sha256 of the equivalence suite's sorted-key JSON report at the
    benchmark's ``check`` settings (4 trials and 1 stress trial per cell):
    f32 seed 0, f64 seed 3, and a failing f32 seed 0 run with the
    coefficient corrupted by 1e-3,
  - the sha256 of the ``config.json`` the default ``refguide generate``
    writes, and
  - the byte-exact default sweep CSV as produced by the command line.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from refguide.cli import main as cli_main
from refguide.kernels import AttentionPolicy, blas_kernel
from refguide.linalg import PRECISION_DTYPES
from refguide.oracle import DEFAULT_GRID, _draw_inputs, naive_concat_attention, run_equivalence_suite
from refguide.pipeline import PipelineConfig, generate_batch, init_denoiser, trajectory_distance
from refguide.rng import stream

DATA_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"
DISTANCE_STRENGTHS = (-0.3, 0.0, 0.2, 0.35)
ORACLE_CELLS = ((64, 32, 32), (64, 1, 1))
ORACLE_DRAWS = {"standard": (0, 1.0), "stressed": (1, 100.0)}  # name -> (suite trial, query scale)
SCALAR_BLEND_RUNS = {  # baselines key -> policy of a default-config generation
    "final_digest_seeds42_7_cross_frame_default": AttentionPolicy.cross_frame(),
    "final_digest_seeds42_7_rfg_multi_03_03_default": AttentionPolicy.rfg_multi((0.3, 0.3)),
}
TILED_SCHEDULE = dict(blocks=2, steps=2, batch=3)
TILED_RUNS = {  # side -> {key -> (policy, precision)}
    32: {
        "rfg035/f32": (AttentionPolicy.rfg(0.35), "f32"),
        "concat/f32": (AttentionPolicy.concat(), "f32"),
        "rfg-matrix/f32": (AttentionPolicy.rfg_matrix(), "f32"),
        "rfg035/f64": (AttentionPolicy.rfg(0.35), "f64"),
    },
    40: {
        "rfg035/f32": (AttentionPolicy.rfg(0.35), "f32"),
        "concat/f32": (AttentionPolicy.concat(), "f32"),
    },
}
CHECK_TRIALS = dict(trials_per_cell=4, stress_trials_per_cell=1)
CHECK_RUNS = {  # key -> run_equivalence_suite keywords beyond CHECK_TRIALS
    "f32/seed0": dict(precision="f32", seed=0),
    "f64/seed3": dict(precision="f64", seed=3),
    "f32/seed0/corrupt1e-3": dict(precision="f32", seed=0, corrupt_coefficient=1e-3),
}


def scalar_blend_digests() -> dict:
    """Final-latent digests of the ``SCALAR_BLEND_RUNS`` generations, keyed as ``SCALAR_BLEND_RUNS``."""
    return {key: generate_batch(PipelineConfig(policy=policy)).final_digest() for key, policy in SCALAR_BLEND_RUNS.items()}


def tiled_digest(side: int, key: str) -> str:
    """Final-latent digest of the ``TILED_RUNS[side][key]`` generation."""
    policy, precision = TILED_RUNS[side][key]
    cfg = PipelineConfig(side=side, **TILED_SCHEDULE, policy=policy, precision=precision)
    return generate_batch(cfg).final_digest()


def oracle_digests() -> dict:
    """sha256 of the oracle's f64 output bytes, keyed ``LxDxV/precision/draw``.

    Each draw is the suite's own: ``_draw_inputs`` on ``stream(0, cell, trial)``,
    with ``cell`` the index into ``DEFAULT_GRID``.
    """
    digests = {}
    for cell in ORACLE_CELLS:
        cell_index = DEFAULT_GRID.index(cell)
        for precision, dtype in PRECISION_DTYPES.items():
            for draw, (trial, scale) in ORACLE_DRAWS.items():
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

    distance_series = {}
    for c in DISTANCE_STRENGTHS:
        policy = AttentionPolicy.plain() if c == 0.0 else AttentionPolicy.rfg(c)
        traj = generate_batch(PipelineConfig(policy=policy))
        distance_series[repr(c)] = trajectory_distance(traj, 1).tolist()

    return {
        "blas_kernel": blas_kernel(),
        "weights_digest_seed42_default": weights_digest,
        "final_digest_seeds42_7_rfg035_default": final_digest,
        **scalar_blend_digests(),
        "distance_series_seed42_default": distance_series,
        "oracle_concat_digests_seed0": oracle_digests(),
        **{f"final_digests_seeds42_7_side{side}": {key: tiled_digest(side, key) for key in runs}
           for side, runs in TILED_RUNS.items()},
        "check_report_digests": check_report_digests(),
        "config_json_digest_generate_default": hashlib.sha256(command_output("generate", "config.json")).hexdigest(),
    }


def command_output(command: str, name: str) -> bytes:
    """The bytes of ``name`` that the default ``refguide <command>`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        code = cli_main([command, "--out", tmp])
        if code != 0:
            raise SystemExit(f"baseline {command} run failed with exit code {code}")
        return (Path(tmp) / name).read_bytes()


def main() -> int:
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    baselines = record_baselines()
    sweep = command_output("sweep", "sweep.csv")
    baseline_path = DATA_DIR / "baselines.json"
    baseline_path.write_text(json.dumps(baselines, indent=2) + "\n")
    print(f"wrote {baseline_path}")

    sweep_path = DATA_DIR / "sweep_baseline.csv"
    sweep_path.write_bytes(sweep)
    print(f"wrote {sweep_path} ({len(sweep_path.read_bytes())} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
