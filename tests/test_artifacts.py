import json
import math
import re

import numpy as np
import pytest

from refguide.artifacts import (
    json_text,
    load_raw,
    sidecar_path,
    write_json,
    write_pgm,
    write_raw,
    write_sweep_csv,
)

from helpers import strict_loads


class TestRawRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        a = np.random.default_rng(0).standard_normal((5, 7)).astype(np.float32)
        path = write_raw(tmp_path / "latent.raw", a)
        assert np.array_equal(load_raw(path), a)

    def test_sidecar_contents(self, tmp_path):
        write_raw(tmp_path / "latent.raw", np.zeros((3, 4), np.float32))
        meta = json.loads(sidecar_path(tmp_path / "latent.raw").read_text())
        assert meta == {"dtype": "f32", "shape": [3, 4], "byte_order": "little"}

    def test_payload_is_little_endian_f32(self, tmp_path):
        a = np.array([[1.0, -2.5]], dtype=np.float32)
        path = write_raw(tmp_path / "latent.raw", a)
        assert path.read_bytes() == a.astype("<f4").tobytes()

    def test_float64_input_written_as_f32(self, tmp_path):
        a = np.array([[0.1, 0.2]], dtype=np.float64)
        path = write_raw(tmp_path / "latent.raw", a)
        assert np.array_equal(load_raw(path), a.astype(np.float32))

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ValueError):
            write_raw(tmp_path / "latent.raw", np.zeros(4, np.float32))

    def test_truncated_payload_detected(self, tmp_path):
        path = write_raw(tmp_path / "latent.raw", np.zeros((2, 2), np.float32))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="bytes"):
            load_raw(path)

    def test_bad_sidecar_detected(self, tmp_path):
        path = write_raw(tmp_path / "latent.raw", np.zeros((2, 2), np.float32))
        sidecar_path(path).write_text(json.dumps({"dtype": "f64", "shape": [2, 2], "byte_order": "little"}))
        with pytest.raises(ValueError, match="format"):
            load_raw(path)

    def test_bad_sidecar_shape_detected(self, tmp_path):
        path = write_raw(tmp_path / "latent.raw", np.zeros((2, 2), np.float32))
        sidecar_path(path).write_text(json.dumps({"dtype": "f32", "shape": [4], "byte_order": "little"}))
        with pytest.raises(ValueError, match="sidecar shape must be two positive integers, got \\[4\\]"):
            load_raw(path)

    @pytest.mark.parametrize("shape", [[True, 4], [1, True]])
    def test_boolean_sidecar_dimension_detected(self, tmp_path, shape):
        # True == 1, so the byte count alone would accept a 1 x 4 payload.
        path = write_raw(tmp_path / "latent.raw", np.zeros((1, 4) if shape[0] is True else (1, 1), np.float32))
        sidecar_path(path).write_text(json.dumps({"dtype": "f32", "shape": shape, "byte_order": "little"}))
        with pytest.raises(ValueError, match=re.escape(f"sidecar shape must be two positive integers, got {shape!r}")):
            load_raw(path)


class TestPgm:
    def test_header_and_size(self, tmp_path):
        path = write_pgm(tmp_path / "img.pgm", np.random.default_rng(1).standard_normal((16, 16)))
        data = path.read_bytes()
        assert data.startswith(b"P5\n16 16\n255\n")
        assert len(data) == len(b"P5\n16 16\n255\n") + 256

    def test_normalization_spans_full_range(self, tmp_path):
        path = write_pgm(tmp_path / "img.pgm", np.array([[0.0, 5.0], [10.0, 2.5]]))
        pixels = path.read_bytes()[len(b"P5\n2 2\n255\n"):]
        assert pixels == bytes([0, 128, 255, 64])

    def test_constant_image_is_black(self, tmp_path):
        path = write_pgm(tmp_path / "img.pgm", np.full((2, 3), 7.0))
        pixels = path.read_bytes()[len(b"P5\n3 2\n255\n"):]
        assert pixels == bytes(6)

    def test_non_square_header_order_is_width_height(self, tmp_path):
        path = write_pgm(tmp_path / "img.pgm", np.zeros((4, 9)))
        assert path.read_bytes().startswith(b"P5\n9 4\n255\n")

    def test_non_2d_image_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="PGM image must be 2-D"):
            write_pgm(tmp_path / "img.pgm", np.zeros((2, 2, 2)))
        assert not (tmp_path / "img.pgm").exists()


class TestSweepCsv:
    def test_header_and_rows(self, tmp_path):
        path = write_sweep_csv(tmp_path / "sweep.csv", [(-0.3, 0, 1, 1.25), (0.2, 1, 2, 0.5)])
        lines = path.read_text().split("\n")
        assert lines[0] == "c,step,sample,distance"
        assert lines[1] == "-0.3,0,1,1.25"
        assert lines[2] == "0.2,1,2,0.5"
        assert lines[3] == ""

    def test_lf_line_endings(self, tmp_path):
        path = write_sweep_csv(tmp_path / "sweep.csv", [(0.1, 0, 1, 2.0)])
        assert b"\r" not in path.read_bytes()

    def test_full_precision_distances(self, tmp_path):
        value = 1.2345678901234567
        path = write_sweep_csv(tmp_path / "sweep.csv", [(0.35, 3, 1, value)])
        assert float(path.read_text().split("\n")[1].split(",")[3]) == value


class TestJson:
    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        payload = {"error": math.inf, "nested": [{"low": -math.inf, "nan": math.nan}, (1.5, np.float64(math.inf))]}
        path = write_json(tmp_path / "report.json", payload)
        assert path.read_text() == json_text(payload)
        assert strict_loads(path.read_text()) == {"error": None, "nested": [{"low": None, "nan": None}, [1.5, None]]}

    def test_finite_document_is_unchanged(self):
        payload = {"a": 1e-05, "b": [0.1, -0.0, 3, True, None], "c": {"d": "Infinity"}, "e": (2, 1.0)}
        assert json_text(payload) == json.dumps(payload, indent=2) + "\n"
