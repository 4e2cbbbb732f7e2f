"""Regenerate the frozen regression baselines under tests/data/.

Run after any intentional change to the weight draw order, the denoiser
forward pass, the update schedule, or the sweep CSV format, then review the
diff before committing. The recorded values pin:

  - the weight digest for seed 42 at the default architecture,
  - the final-latent digest for the default generate run (rfg 0.35), and
    for the default cross-frame and rfg-multi (0.3, 0.3) runs,
  - the per-step reference distances for c in {-0.3, 0, 0.2, 0.35}, and
  - the byte-exact default sweep CSV as produced by the command line.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from refguide.cli import main as cli_main
from refguide.kernels import AttentionPolicy
from refguide.pipeline import PipelineConfig, generate_batch, init_denoiser, trajectory_distance

DATA_DIR = Path(__file__).resolve().parents[1] / "tests" / "data"
DISTANCE_STRENGTHS = (-0.3, 0.0, 0.2, 0.35)


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
