"""On-disk formats: raw f32 latents with JSON sidecars, binary PGM, sweep CSV.

Raw latents are little-endian float32, C row-major, no header; the sidecar
JSON records dtype, shape, and byte order so the pair round-trips bitwise.
PGM output is the 8-bit binary (P5) flavor, normalized per image. The sweep
CSV uses '.' decimals and LF line endings regardless of locale. JSON is
strict RFC 8259: a NaN or infinity is written as null.
"""

import csv
import json
from pathlib import Path

import numpy as np

RAW_DTYPE = np.dtype("<f4")


def sidecar_path(raw_path) -> Path:
    return Path(raw_path).with_suffix(".json")


def write_raw(raw_path, matrix) -> Path:
    """Write a 2-D matrix as raw little-endian f32 plus its JSON sidecar."""
    raw_path = Path(raw_path)
    a = np.ascontiguousarray(np.asarray(matrix), dtype=RAW_DTYPE)
    if a.ndim != 2:
        raise ValueError(f"raw latent must be 2-D, got shape {a.shape}")
    raw_path.write_bytes(a.tobytes())
    meta = {"dtype": "f32", "shape": [int(a.shape[0]), int(a.shape[1])], "byte_order": "little"}
    write_json(sidecar_path(raw_path), meta)
    return raw_path


def load_raw(raw_path) -> np.ndarray:
    """Reload a raw latent; bitwise inverse of ``write_raw``."""
    raw_path = Path(raw_path)
    meta = json.loads(sidecar_path(raw_path).read_text())
    if not isinstance(meta, dict) or meta.get("dtype") != "f32" or meta.get("byte_order") != "little":
        raise ValueError(f"unsupported raw format described by {sidecar_path(raw_path)}: {meta}")
    shape = meta.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2 and all(type(s) is int and s > 0 for s in shape)):
        raise ValueError(f"sidecar shape must be two positive integers, got {shape!r}")
    data = raw_path.read_bytes()
    expected = shape[0] * shape[1] * RAW_DTYPE.itemsize
    if len(data) != expected:
        raise ValueError(f"{raw_path} holds {len(data)} bytes, expected {expected} for shape {shape}")
    return np.frombuffer(data, dtype=RAW_DTYPE).reshape(shape[0], shape[1]).copy()


def write_pgm(path, matrix) -> Path:
    """Write a matrix as binary PGM (P5), normalized per image to 0..255.

    A constant image maps to all zeros; anything else is scaled so the
    minimum hits 0 and the maximum hits 255.
    """
    path = Path(path)
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"PGM image must be 2-D, got shape {a.shape}")
    lo, hi = float(a.min()), float(a.max())
    if hi > lo:
        pixels = np.rint((a - lo) * (255.0 / (hi - lo))).astype(np.uint8)
    else:
        pixels = np.zeros(a.shape, dtype=np.uint8)
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + pixels.tobytes())
    return path


SWEEP_HEADER = ("c", "step", "sample", "distance")


def write_sweep_csv(path, rows) -> Path:
    """Write (c, step, sample, distance) rows under the fixed header.

    Floats are rendered with repr (shortest round-trip form, '.' decimal);
    line endings are LF. Deterministic input rows give a byte-identical file.
    """
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_HEADER)
        for c, step, sample, distance in rows:
            writer.writerow([repr(float(c)), int(step), int(sample), repr(float(distance))])
    return path


def json_text(payload) -> str:
    """``payload`` as an indented strict JSON document with a trailing newline; NaN and infinities become null."""
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, allow_nan=False) + "\n"


def write_json(path, payload) -> Path:
    """Write ``json_text(payload)``."""
    path = Path(path)
    path.write_text(json_text(payload))
    return path
