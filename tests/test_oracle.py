import ast
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import refguide.kernels
import refguide.oracle
from refguide.cli import main as cli_main
from refguide.linalg import PRECISION_DTYPES, ShapeError
from refguide.oracle import (
    DEFAULT_GRID,
    PRECISION_THRESHOLDS,
    STRESS_SCALE,
    EquivalenceReport,
    _draw_inputs,
    _run_trials,
    max_rel_error,
    naive_attention,
    naive_coefficient_vector,
    naive_concat_attention,
    run_equivalence_suite,
)
from refguide.rng import stream

from helpers import child_env, load_file

SMALL_GRID = ((1, 1, 1), (2, 4, 2), (4, 4, 4))
BASELINES = json.loads((Path(__file__).parent / "data" / "baselines.json").read_text())
ORACLE_DIGESTS = BASELINES["oracle_concat_digests_seed0"]
CHECK_DIGESTS = BASELINES["check_report_digests"]


# ``scripts/record_baselines.py``, whose tables name every recorded run.
RECORDER = load_file("scripts/record_baselines.py", "record_baselines")


class TestNaiveAttention:
    def test_single_key_returns_value(self):
        out = naive_attention([[2.0]], [[3.0]], [[5.0]])
        assert out[0, 0] == 5.0

    def test_two_key_closed_form(self):
        q, k0, k1 = 1.5, 0.4, -0.2
        w0 = math.exp(q * k0) / (math.exp(q * k0) + math.exp(q * k1))
        out = naive_attention([[q]], [[k0], [k1]], [[10.0], [-10.0]])
        assert out[0, 0] == pytest.approx(w0 * 10.0 + (1 - w0) * -10.0, rel=1e-14)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            naive_attention([[1.0, 2.0]], [[1.0]], [[1.0]])

    def test_kv_rows_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            naive_attention([[1.0]], [[1.0], [2.0]], [[1.0]])

    @given(
        arrays(np.float64, (3, 2), elements=st.floats(-5, 5, allow_nan=False)),
        arrays(np.float64, (4, 2), elements=st.floats(-5, 5, allow_nan=False)),
        arrays(np.float64, (4, 3), elements=st.floats(-5, 5, allow_nan=False)),
    )
    def test_output_in_value_hull(self, q, k, v):
        out = naive_attention(q, k, v)
        assert (out <= v.max(axis=0) + 1e-9).all()
        assert (out >= v.min(axis=0) - 1e-9).all()


class TestNaiveConcatAttention:
    def test_equal_partitions_reduce_to_plain(self):
        gen = stream(100)
        q = gen.uniform(-1, 1, (3, 2))
        k = gen.uniform(-1, 1, (3, 2))
        v = gen.uniform(-1, 1, (3, 2))
        merged = naive_concat_attention(q, k, v, k, v)
        plain = naive_attention(q, k, v)
        assert np.max(np.abs(merged - plain)) < 1e-12

    def test_single_token_closed_form(self):
        # One query, one key per partition: output is sigma*v_ref + (1-sigma)*v_self.
        q, k_ref, k_self = 0.9, 0.6, -0.1
        v_ref, v_self = 3.0, -2.0
        sigma = 1.0 / (1.0 + math.exp(q * k_self - q * k_ref))
        out = naive_concat_attention([[q]], [[k_ref]], [[v_ref]], [[k_self]], [[v_self]])
        assert out[0, 0] == pytest.approx(sigma * v_ref + (1 - sigma) * v_self, rel=1e-14)

    def test_scale_uses_query_width_not_total_keys(self):
        gen = stream(101)
        q = gen.uniform(-1, 1, (2, 4))
        parts = [gen.uniform(-1, 1, (2, 4)) for _ in range(4)]
        out = naive_concat_attention(q, parts[0], parts[1], parts[2], parts[3])
        stacked = naive_attention(
            q,
            np.concatenate([parts[0], parts[2]]),
            np.concatenate([parts[1], parts[3]]),
        )
        assert np.array_equal(out, stacked)


class TestRecordedOracleDigests:
    @pytest.mark.parametrize("key", sorted(ORACLE_DIGESTS))
    def test_output_bits_match_recorded_digest(self, key):
        cell_text, precision, draw = key.split("/")
        cell = tuple(int(n) for n in cell_text.split("x"))
        trial, scale = RECORDER.ORACLE_DRAWS[draw]
        inputs = _draw_inputs(
            stream(0, DEFAULT_GRID.index(cell), trial), *cell, PRECISION_DTYPES[precision], scale
        )
        out = naive_concat_attention(*inputs)
        assert hashlib.sha256(out.tobytes()).hexdigest() == ORACLE_DIGESTS[key]


class TestOracleIndependence:
    """The naive paths share no arithmetic with the kernels they certify."""

    NAIVE_FUNCTIONS = (
        "_as_rows", "_attention_rows", "naive_attention", "naive_concat_attention", "naive_coefficient_vector",
    )
    NUMPY_CONVERSIONS = {"asarray", "array", "float64"}

    def test_naive_paths_use_no_kernel_names_or_numpy_arithmetic(self):
        tree = ast.parse(Path(refguide.oracle.__file__).read_text())
        imported = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ("kernels", "linalg")
            for alias in node.names
        }
        assert {"partitions", "ShapeError"} <= imported
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert set(self.NAIVE_FUNCTIONS) <= set(functions)
        offences = []
        for name in self.NAIVE_FUNCTIONS:
            # The body only: a ``-> np.ndarray`` annotation computes nothing.
            body = ast.Module(body=functions[name].body, type_ignores=[])
            for node in ast.walk(body):
                if isinstance(node, ast.Name) and node.id in imported - {"ShapeError"}:
                    offences.append(f"{name} uses {node.id}")
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "np"
                    and node.attr not in self.NUMPY_CONVERSIONS
                ):
                    offences.append(f"{name} uses np.{node.attr}")
        assert offences == []


class TestNaiveCoefficientVector:
    def test_equal_keys_give_half(self):
        gen = stream(102)
        q = gen.uniform(-1, 1, (4, 3))
        k = gen.uniform(-1, 1, (4, 3))
        c = naive_coefficient_vector(q, k, k)
        assert np.allclose(c, 0.5, atol=1e-15)

    def test_values_strictly_inside_unit_interval(self):
        gen = stream(103)
        q = gen.uniform(-1, 1, (5, 4)) * 5
        c = naive_coefficient_vector(q, gen.uniform(-1, 1, (5, 4)), gen.uniform(-1, 1, (5, 4)))
        assert ((c > 0) & (c < 1)).all()

    def test_extreme_logits_may_round_to_boundary(self):
        # The naive value is deliberately unclipped: at huge logit gaps the
        # exact ratio rounds to 0.0 or 1.0 in 64-bit. The fast kernel clips;
        # this pins the behavioral difference the clip exists to absorb.
        gen = stream(103)
        q = gen.uniform(-1, 1, (5, 4)) * 50
        c = naive_coefficient_vector(q, gen.uniform(-1, 1, (5, 4)), gen.uniform(-1, 1, (5, 4)))
        assert ((c >= 0) & (c <= 1)).all()
        assert c.max() == 1.0


class TestMaxRelError:
    def test_identical_matrices(self):
        a = np.array([[1.0, -2.0]])
        assert max_rel_error(a, a) == 0.0

    def test_small_perturbation(self):
        assert max_rel_error([[1.0]], [[1.00001]]) == pytest.approx(1e-5, rel=1e-3)

    def test_zero_matrices_guarded(self):
        assert max_rel_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            max_rel_error(np.zeros((1, 2)), np.zeros((2, 1)))

    def test_symmetric(self):
        a, b = np.array([[1.0, 3.0]]), np.array([[1.5, 2.0]])
        assert max_rel_error(a, b) == max_rel_error(b, a)


class TestEquivalenceSuite:
    def test_small_grid_passes_f32(self):
        report = run_equivalence_suite(seed=5, grid=SMALL_GRID, trials_per_cell=10)
        assert report.passed
        assert report.max_rel_error <= report.threshold
        assert report.range_violations == 0
        assert report.exact_failures == 0

    def test_single_cell_f64_is_tight(self):
        report = run_equivalence_suite(
            seed=5, grid=((1, 1, 1),), trials_per_cell=1, precision="f64"
        )
        assert report.passed
        assert report.max_rel_error <= 1e-10

    def test_report_is_deterministic(self):
        a = run_equivalence_suite(seed=9, grid=SMALL_GRID, trials_per_cell=4)
        b = run_equivalence_suite(seed=9, grid=SMALL_GRID, trials_per_cell=4)
        assert a.to_dict() == b.to_dict()

    def test_corruption_fails_and_names_worst_trial(self):
        # A NaN entry must fail too, although max() would drop its deviation.
        for delta in (0.1, float("nan")):
            report = run_equivalence_suite(
                seed=5, grid=((4, 4, 4),), trials_per_cell=5, corrupt_coefficient=delta
            )
            assert report.passed is False
            assert report.worst is not None
            assert report.worst["error"] > report.threshold
            assert report.worst["stream_key"][0] == 5
            assert report.worst["identity"] in ("matrix_vs_oracle", "matrix_vs_concat", "guidance_vs_matrix")

    def test_scalar_blend_one_ulp_off_fails_the_exact_identities(self, monkeypatch):
        # The scalar blend one ulp off strictly inside (0, 1), at every name the
        # suite can reach it by: it must be compared with something else.
        real = refguide.kernels.rfg_multi

        def off(q, refs, k_self, v_self):
            out = real(q, refs, k_self, v_self)
            return np.nextafter(out, np.inf) if all(0.0 < c < 1.0 for c, _, _ in refs) else out

        for module in (refguide.kernels, refguide.oracle):
            monkeypatch.setattr(module, "rfg_multi", off)
        report = run_equivalence_suite(seed=5, grid=SMALL_GRID, trials_per_cell=2, stress_trials_per_cell=1)
        assert report.exact_failures == report.total_trials
        assert report.passed is False

    def test_stress_cells_accounted_separately(self):
        report = run_equivalence_suite(
            seed=6, grid=((8, 4, 4),), trials_per_cell=3, stress_trials_per_cell=2
        )
        assert report.total_trials == 5
        assert report.stress_threshold == report.threshold * report.stress_scale
        assert report.stress_max_rel_error <= report.stress_threshold

    def test_coefficient_bounds_tracked(self):
        report = run_equivalence_suite(seed=7, grid=SMALL_GRID, trials_per_cell=5)
        assert 0.0 < report.coefficient_min <= report.coefficient_max < 1.0

    @pytest.mark.parametrize("precision", sorted(PRECISION_THRESHOLDS))
    def test_report_states_the_fixed_bounds(self, precision):
        report = run_equivalence_suite(seed=5, grid=((2, 2, 2),), trials_per_cell=1, stress_trials_per_cell=1,
                                       precision=precision)
        assert report.threshold == PRECISION_THRESHOLDS[precision]
        assert report.stress_scale == STRESS_SCALE == 100.0
        assert report.stress_threshold == PRECISION_THRESHOLDS[precision] * STRESS_SCALE

    @pytest.mark.parametrize("precision", sorted(PRECISION_THRESHOLDS))
    def test_stressed_trials_pass_at_the_widest_default_cell(self, precision):
        # The fixed stress bound is below one, and 100x queries keep the widest cell's logits finite.
        cell = max(DEFAULT_GRID, key=lambda c: c[0] * c[1])
        report = run_equivalence_suite(seed=4, grid=(cell,), trials_per_cell=1, stress_trials_per_cell=3,
                                       precision=precision)
        assert report.passed is True
        assert report.stress_max_rel_error <= report.stress_threshold < 1.0
        assert 0.0 < report.coefficient_min <= report.coefficient_max < 1.0

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            run_equivalence_suite(precision="f16")

    def test_invalid_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_equivalence_suite(trials_per_cell=0)

    def test_negative_stress_trials_rejected(self):
        with pytest.raises(ValueError, match="stress_trials_per_cell must be nonnegative"):
            run_equivalence_suite(stress_trials_per_cell=-1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            run_equivalence_suite(grid=())

    def test_default_grid_shape_coverage(self):
        lengths = {cell[0] for cell in DEFAULT_GRID}
        widths = {cell[1] for cell in DEFAULT_GRID}
        value_widths = {cell[2] for cell in DEFAULT_GRID}
        assert lengths == {1, 2, 4, 8, 16, 64}
        assert widths == {1, 4, 32}
        assert value_widths == {1, 4, 32}
        assert len(DEFAULT_GRID) == 54

    def test_report_round_trips_to_dict(self):
        report = run_equivalence_suite(seed=5, grid=((2, 2, 2),), trials_per_cell=2)
        payload = report.to_dict()
        assert isinstance(report, EquivalenceReport)
        assert payload["passed"] is True
        assert payload["grid"] == [[2, 2, 2]]
        assert set(payload["identity_errors"]) == {
            "matrix_vs_oracle", "concat_vs_oracle", "matrix_vs_concat", "guidance_vs_matrix",
        }


# Two cells of three trials each (two standard, one stressed): key index i is
# (cell i // 3, trial i % 3). At two workers the caller runs keys 0, 2, 4 and
# the child keys 1, 3, 5.
SHARE_GRID = ((2, 2, 2), (4, 4, 4))
SHARE_TRIALS = dict(trials_per_cell=2, stress_trials_per_cell=1)


def _workers(count):
    return mock.patch.object(refguide.kernels, "CPUS", count)


def _stream_failing_at(monkeypatch, action, keys):
    """Make the suite's ``stream`` call ``action(key_index)`` at each of ``keys``."""
    real = refguide.oracle.stream

    def fake(seed, cell_index, trial):
        index = cell_index * 3 + trial
        if index in keys:
            action(index)
        return real(seed, cell_index, trial)

    monkeypatch.setattr(refguide.oracle, "stream", fake)


class TestSuiteProcesses:
    """Trials dealt to forked workers give the serial suite's report and errors."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("key", sorted(RECORDER.CHECK_RUNS))
    def test_report_digest_matches_recorded_at_any_worker_count(self, key, workers):
        with _workers(workers):
            report = run_equivalence_suite(**RECORDER.CHECK_TRIALS, **RECORDER.CHECK_RUNS[key])
        payload = json.dumps(report.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(payload).hexdigest() == CHECK_DIGESTS[key]

    def test_one_worker_never_forks(self, monkeypatch):
        def fork():
            raise AssertionError("os.fork called at one worker")

        monkeypatch.setattr(os, "fork", fork)
        with _workers(1):
            assert run_equivalence_suite(seed=5, grid=SHARE_GRID, **SHARE_TRIALS).passed

    # (keys that raise, key whose error comes out): a child's key before the
    # caller's, then the caller's before a child's.
    @pytest.mark.parametrize("failing, first", [({1, 4}, 1), ({2, 5}, 2)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_of_the_lowest_key_is_raised(self, monkeypatch, workers, failing, first):
        def fail(index):
            raise ValueError(f"key {index}")

        _stream_failing_at(monkeypatch, fail, failing)
        with _workers(workers), pytest.raises(ValueError, match=f"^key {first}$"):
            run_equivalence_suite(seed=5, grid=SHARE_GRID, **SHARE_TRIALS)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keys_stay_lazy(self, workers):
        # A list of 10**15 keys would not fit in memory; the range is only sliced.
        def fail(key):
            raise ValueError(f"key {key}")

        with _workers(workers), pytest.raises(ValueError, match="^key 0$"):
            _run_trials(fail, range(10**15))

    # A child process that counts the suite's forks, then prints that count and its tile pool's workers to stderr.
    COUNT_FORKS = (
        "import os, sys\n"
        "import refguide.cli, refguide.kernels\n"
        "forks, fork = [], os.fork\n"
        "def counting():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        forks.append(pid)\n"
        "    return pid\n"
        "os.fork = counting\n"
        "code = refguide.cli.main(sys.argv[1:])\n"
        "print(len(forks), refguide.kernels.pool_workers(), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    @pytest.mark.skipif(not hasattr(os, "fork") or refguide.kernels.CPUS < 2, reason="needs os.fork and two CPUs")
    def test_check_forks_per_usable_cpu_whatever_blas_runs(self, tmp_path):
        runs = {}
        for name, env in (("unset", child_env()), ("pinned", child_env(OPENBLAS_NUM_THREADS="1"))):
            argv = ["check", "--grid", "2x2x2,4x4x4", "--trials", "2", "--stress-trials", "1", "--out", tmp_path / name]
            done = subprocess.run([sys.executable, "-c", self.COUNT_FORKS, *map(str, argv)], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr
            runs[name] = done.stdout, done.stderr.split()[-2:]
        cpus = refguide.kernels.CPUS
        forks = str(min(cpus, 6) - 1).encode()  # six trials: at most one process each
        assert runs["unset"][1] == [forks, b"1"]
        assert runs["pinned"][1] == [forks, str(cpus).encode()]
        assert runs["unset"][0] == runs["pinned"][0]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_killed_child_raises_child_process_error_and_check_exits_3(self, monkeypatch, tmp_path, capsys):
        parent = os.getpid()

        def die(index):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        _stream_failing_at(monkeypatch, die, {1})
        with _workers(2):
            with pytest.raises(ChildProcessError, match="exited without a result"):
                run_equivalence_suite(seed=5, grid=SHARE_GRID, **SHARE_TRIALS)
            argv = ["check", "--grid", "2x2x2,4x4x4", "--trials", "2", "--stress-trials", "1", "--out", str(tmp_path)]
            assert cli_main(argv) == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_system_exit_never_returns_into_the_caller(self, monkeypatch, tmp_path):
        parent, escaped = os.getpid(), tmp_path / "escaped"

        def leave(index):
            raise SystemExit(0)

        _stream_failing_at(monkeypatch, leave, {1})
        try:
            with _workers(2), pytest.raises(ChildProcessError):
                run_equivalence_suite(seed=5, grid=SHARE_GRID, **SHARE_TRIALS)
        finally:
            if os.getpid() != parent:  # a child got back here: report it, then leave at once
                escaped.write_text("child returned into the test")
                os._exit(0)
        assert not escaped.exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_fork_with_live_tile_threads_gives_the_serial_report(self, monkeypatch):
        gen = stream(9)
        q, k, v = (gen.uniform(-1, 1, (1024, 8)).astype(np.float32) for _ in range(3))
        with _workers(1):
            expected = run_equivalence_suite(seed=5, grid=SHARE_GRID, **SHARE_TRIALS).to_dict()
        pids, real_fork = [], os.fork

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        result = {}
        with _workers(2):
            refguide.kernels.attention(q, k, v)  # the caller's tile threads now exist
            runner = threading.Thread(target=lambda: result.update(
                report=run_equivalence_suite(seed=5, grid=SHARE_GRID, **SHARE_TRIALS).to_dict()))
            runner.start()
            runner.join(10)
        if runner.is_alive():
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            runner.join()
            pytest.fail("a forked suite worker hung on the caller's tile threads")
        assert pids and result["report"] == expected
