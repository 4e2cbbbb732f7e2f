import ast
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import refguide.kernels as kernels
from refguide.kernels import (
    AttentionInputs,
    AttentionPolicy,
    apply_policy,
    attention,
    blend,
    build_rank1_coefficient,
    concat_attention,
    concat_coefficient_vector,
    guidance,
    guidance_form,
    rfg_attention,
    rfg_matrix,
    rfg_multi,
)
from refguide.linalg import ShapeError
from refguide.oracle import (
    PRECISION_THRESHOLDS,
    max_rel_error,
    naive_attention,
    naive_coefficient_vector,
    naive_concat_attention,
)
from refguide.rng import stream

from helpers import child_env, overflowing_tile_inputs, partition_inputs


def draw_set(seed, length=4, d=3, d_v=2, dtype=np.float64, q_scale=1.0):
    gen = stream(seed)
    q = (gen.uniform(-1, 1, (length, d)) * q_scale).astype(dtype)
    k_ref = gen.uniform(-1, 1, (length, d)).astype(dtype)
    v_ref = gen.uniform(-1, 1, (length, d_v)).astype(dtype)
    k_self = gen.uniform(-1, 1, (length, d)).astype(dtype)
    v_self = gen.uniform(-1, 1, (length, d_v)).astype(dtype)
    return q, k_ref, v_ref, k_self, v_self


class TestAttention:
    def test_single_key_returns_value_row(self):
        out = attention(np.array([[2.0]]), np.array([[3.0]]), np.array([[5.0, -1.0]]))
        assert np.array_equal(out, np.array([[5.0, -1.0]]))

    def test_two_key_closed_form(self):
        # One query, two keys, d=1: weights are softmax of [q*k0, q*k1].
        q = np.array([[1.0]])
        k = np.array([[0.5], [-0.25]])
        v = np.array([[2.0], [-4.0]])
        w0 = math.exp(0.5) / (math.exp(0.5) + math.exp(-0.25))
        out = attention(q, k, v)
        assert out[0, 0] == pytest.approx(w0 * 2.0 + (1 - w0) * -4.0, rel=1e-14)

    def test_matches_loop_oracle(self):
        q, k_ref, v_ref, *_ = draw_set(11, length=6, d=4, d_v=3)
        assert max_rel_error(attention(q, k_ref, v_ref), naive_attention(q, k_ref, v_ref)) < 1e-13

    def test_output_stays_in_value_hull(self):
        q, k, v, *_ = draw_set(13, length=8, d=4, d_v=5)
        out = attention(q, k, v)
        assert (out <= v.max(axis=0) + 1e-12).all()
        assert (out >= v.min(axis=0) - 1e-12).all()

    def test_preserves_float32(self):
        q, k, v, *_ = draw_set(15, dtype=np.float32)
        assert attention(q, k, v).dtype == np.float32


class TestConcatAttention:
    def test_equal_partitions_reduce_to_plain(self):
        q, k, v, *_ = draw_set(20)
        merged = concat_attention(q, k, v, k, v)
        assert max_rel_error(merged, attention(q, k, v)) < 1e-12

    def test_matches_attention_over_stacked_inputs(self):
        q, k_ref, v_ref, k_self, v_self = draw_set(21)
        direct = attention(q, np.concatenate([k_ref, k_self]), np.concatenate([v_ref, v_self]))
        assert np.array_equal(concat_attention(q, k_ref, v_ref, k_self, v_self), direct)

    def test_reference_rows_listed_first(self):
        # A query aligned with a reference key must attend there, not to self.
        q = np.array([[10.0]])
        k_ref, v_ref = np.array([[10.0]]), np.array([[1.0]])
        k_self, v_self = np.array([[-10.0]]), np.array([[-1.0]])
        out = concat_attention(q, k_ref, v_ref, k_self, v_self)
        assert out[0, 0] > 0.99


class TestRfgAttention:
    def test_strength_zero_is_bitwise_self(self):
        q, k_ref, v_ref, k_self, v_self = draw_set(30, dtype=np.float32)
        out = rfg_attention(q, k_ref, v_ref, k_self, v_self, 0.0)
        assert np.array_equal(out, attention(q, k_self, v_self))

    def test_strength_one_is_bitwise_reference(self):
        q, k_ref, v_ref, k_self, v_self = draw_set(31, dtype=np.float32)
        out = rfg_attention(q, k_ref, v_ref, k_self, v_self, 1.0)
        assert np.array_equal(out, attention(q, k_ref, v_ref))

    def test_blend_matches_oracle_branches(self):
        q, k_ref, v_ref, k_self, v_self = draw_set(32)
        c = 0.35
        expected = c * naive_attention(q, k_ref, v_ref) + (1 - c) * naive_attention(q, k_self, v_self)
        assert max_rel_error(rfg_attention(q, k_ref, v_ref, k_self, v_self, c), expected) < 1e-13

    def test_negative_strength_extrapolates_away(self):
        q, k_ref, v_ref, k_self, v_self = draw_set(33)
        a_self = attention(q, k_self, v_self)
        a_ref = attention(q, k_ref, v_ref)
        out = rfg_attention(q, k_ref, v_ref, k_self, v_self, -0.3)
        assert np.allclose(out - a_self, -0.3 * (a_ref - a_self), atol=1e-12)

    @given(st.floats(-1, 1, allow_nan=False))
    def test_affine_in_strength(self, c):
        q, k_ref, v_ref, k_self, v_self = draw_set(34)
        out = rfg_attention(q, k_ref, v_ref, k_self, v_self, c)
        a_self = attention(q, k_self, v_self)
        a_ref = attention(q, k_ref, v_ref)
        assert np.allclose(out, a_self + c * (a_ref - a_self), atol=1e-12)


class TestRfgMulti:
    @pytest.mark.parametrize("c", [0.0, -0.0, 1.0, 0.35, -0.3, 1.5])
    @pytest.mark.parametrize("length, workers", [(16, 1), (1024, 2)], ids=["16x4", "pooled-1024x1024"])
    def test_single_reference_delegates_bitwise(self, c, length, workers):
        q, k_ref, v_ref = partition_inputs(40, length, length, 4, 4, np.float32)
        k_self, v_self = partition_inputs(41, length, length, 4, 4, np.float32)[1:]
        with tile_pool(workers) as pool:
            single = rfg_attention(q, k_ref, v_ref, k_self, v_self, c)
            multi = rfg_multi(q, [(c, k_ref, v_ref)], k_self, v_self)
            # The scalar blend as rfg_attention once wrote it itself: a lone
            # branch at c == 0 or c == 1, else ``blend`` of both branches.
            if c in (0.0, 1.0):
                formula = attention(q, k_ref, v_ref) if c == 1.0 else attention(q, k_self, v_self)
            else:
                formula = blend(c, *kernels.partitions(q, [(k_ref, v_ref), (k_self, v_self)])[0])
        assert (pool.submitted > 0) == (workers > 1)
        assert result_bytes(single) == result_bytes(multi) == result_bytes(formula)

    def test_two_references_match_manual_blend(self):
        q, k1, v1, k2, v2 = draw_set(41)
        k_self, v_self = draw_set(42)[3:]
        out = rfg_multi(q, [(0.3, k1, v1), (0.2, k2, v2)], k_self, v_self)
        expected = (
            0.5 * naive_attention(q, k_self, v_self)
            + 0.3 * naive_attention(q, k1, v1)
            + 0.2 * naive_attention(q, k2, v2)
        )
        assert max_rel_error(out, expected) < 1e-13

    def test_permutation_invariance(self):
        q, k1, v1, k2, v2 = draw_set(43)
        k_self, v_self = draw_set(44)[3:]
        refs = [(0.25, k1, v1), (0.15, k2, v2)]
        assert max_rel_error(
            rfg_multi(q, refs, k_self, v_self),
            rfg_multi(q, refs[::-1], k_self, v_self),
        ) < 1e-14

    def test_identical_references_collapse_to_self(self):
        q, _, _, k_self, v_self = draw_set(45)
        refs = [(0.3, k_self, v_self), (0.3, k_self, v_self)]
        out = rfg_multi(q, refs, k_self, v_self)
        assert max_rel_error(out, attention(q, k_self, v_self)) < 1e-12

    def test_empty_reference_list_rejected(self):
        q, _, _, k_self, v_self = draw_set(46)
        with pytest.raises(ValueError, match="reference"):
            rfg_multi(q, [], k_self, v_self)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_strength_is_named(self, c):
        q, k_ref, v_ref, k_self, v_self = draw_set(47)
        with pytest.raises(ValueError, match=re.escape(f"rfg_multi takes finite strengths, got [0.2, {c}]")):
            rfg_multi(q, [(0.2, k_ref, v_ref), (c, k_ref, v_ref)], k_self, v_self)
        with pytest.raises(ValueError, match=re.escape(f"rfg_multi takes finite strengths, got [{c}]")):
            rfg_attention(q, k_ref, v_ref, k_self, v_self, c)


class TestCoefficientVector:
    def test_equal_keys_give_exact_half(self):
        for dtype in (np.float32, np.float64):
            q, k, *_ = draw_set(50, dtype=dtype)
            c = concat_coefficient_vector(q, k, k)
            assert np.array_equal(c, np.full(q.shape[0], 0.5, dtype=dtype))

    def test_matches_loop_oracle(self):
        q, k_ref, _, k_self, _ = draw_set(51, length=7, d=5)
        fast = concat_coefficient_vector(q, k_ref, k_self)
        slow = naive_coefficient_vector(q, k_ref, k_self)
        assert np.max(np.abs(fast - slow)) < 1e-14

    @pytest.mark.parametrize("q_scale", [1.0, 100.0, 1000.0])
    def test_strictly_inside_unit_interval(self, q_scale):
        for seed in range(20):
            q, k_ref, _, k_self, _ = draw_set(52 + seed, dtype=np.float32, q_scale=q_scale)
            c = concat_coefficient_vector(q, k_ref, k_self)
            assert (c > 0.0).all() and (c < 1.0).all()

    def test_dominant_reference_key_pushes_toward_one(self):
        q = np.array([[5.0]])
        c = concat_coefficient_vector(q, np.array([[5.0]]), np.array([[-5.0]]))
        assert 0.99 < c[0] < 1.0

    def test_returns_working_dtype(self):
        q, k_ref, _, k_self, _ = draw_set(53, dtype=np.float32)
        assert concat_coefficient_vector(q, k_ref, k_self).dtype == np.float32

@st.composite
def partition_sets(draw):
    """q plus reference and self partitions of independent sizes, f32 or f64."""
    precision = draw(st.sampled_from(["f32", "f64"]))
    dtype = np.float32 if precision == "f32" else np.float64
    length, s_ref, s_self = (draw(st.integers(1, 8)) for _ in range(3))
    d, d_v = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    q_scale = draw(st.sampled_from([1.0, 10.0]))
    gen = stream(draw(st.integers(0, 2**16)))
    q = (gen.uniform(-1, 1, (length, d)) * q_scale).astype(dtype)
    shapes = ((s_ref, d), (s_ref, d_v), (s_self, d), (s_self, d_v))
    parts = [gen.uniform(-1, 1, shape).astype(dtype) for shape in shapes]
    return precision, q_scale, (q, *parts)


class TestTwoPartitions:
    """Properties of the two-partition pass behind the rfg-matrix policy."""

    @given(partition_sets())
    def test_branches_are_bitwise_attention(self, case):
        _, _, (q, k_ref, v_ref, k_self, v_self) = case
        (a_ref, a_self), _ = kernels.partitions(q, [(k_ref, v_ref), (k_self, v_self)])
        assert np.array_equal(a_ref, attention(q, k_ref, v_ref))
        assert np.array_equal(a_self, attention(q, k_self, v_self))

    @given(partition_sets())
    def test_swapped_partitions_give_complement(self, case):
        _, _, (q, k_ref, v_ref, k_self, v_self) = case
        c = kernels.partitions(q, [(k_ref, v_ref), (k_self, v_self)])[1][0]
        swapped = kernels.partitions(q, [(k_self, v_self), (k_ref, v_ref)])[1][0]
        ulp = np.finfo(q.dtype).eps
        assert np.all(np.abs(c.astype(np.float64) + swapped - 1.0) <= 4 * ulp)

    @given(partition_sets())
    def test_identical_partitions_give_exact_half(self, case):
        _, _, (q, _, _, k_self, v_self) = case
        c = kernels.partitions(q, [(k_self, v_self), (k_self, v_self)])[1][0]
        assert c.dtype == q.dtype
        assert np.array_equal(c, np.full(q.shape[0], 0.5, dtype=q.dtype))

    @given(partition_sets())
    def test_coefficient_strictly_inside_unit_interval(self, case):
        _, _, (q, k_ref, v_ref, k_self, v_self) = case
        c = kernels.partitions(q, [(k_ref, v_ref), (k_self, v_self)])[1][0]
        assert (c > 0.0).all() and (c < 1.0).all()

    @given(partition_sets())
    def test_coefficient_matches_loop_oracle(self, case):
        # The suite's bound, scaled with the query like its stress trials.
        precision, q_scale, (q, k_ref, v_ref, k_self, v_self) = case
        c = kernels.partitions(q, [(k_ref, v_ref), (k_self, v_self)])[1][0]
        slow = naive_coefficient_vector(q, k_ref, k_self)
        assert np.max(np.abs(c - slow)) <= PRECISION_THRESHOLDS[precision] * q_scale
        assert np.array_equal(c, concat_coefficient_vector(q, k_ref, k_self))

    @given(partition_sets())
    def test_public_matrix_blend_is_bitwise_the_policy_path(self, case):
        # The suite certifies blend and guidance over these branches; the
        # public route (concat_coefficient_vector, rfg_matrix, guidance_form)
        # must give the same bits.
        _, _, (q, k_ref, v_ref, k_self, v_self) = case
        (a_ref, a_self), (c, _) = kernels.partitions(q, [(k_ref, v_ref), (k_self, v_self)])
        coeff = build_rank1_coefficient(c, v_ref.shape[1])
        public = build_rank1_coefficient(concat_coefficient_vector(q, k_ref, k_self), v_ref.shape[1])
        assert np.array_equal(rfg_matrix(q, k_ref, v_ref, k_self, v_self, public), blend(coeff, a_ref, a_self))
        assert np.array_equal(guidance_form(q, k_ref, v_ref, k_self, v_self, public), guidance(coeff, a_ref, a_self))


@st.composite
def reference_partitions(draw, dtype):
    """q, then 2 to 4 reference partitions and the self partition last, of independent sizes."""
    length, d, d_v = draw(st.integers(1, 64)), draw(st.sampled_from([1, 4, 32])), draw(st.sampled_from([1, 4, 32]))
    sizes = [draw(st.integers(1, 64)) for _ in range(draw(st.integers(2, 4)) + 1)]
    gen = stream(draw(st.integers(0, 2**16)))
    q = gen.uniform(-1, 1, (length, d)).astype(dtype)
    return q, [(gen.uniform(-1, 1, (n, d)).astype(dtype), gen.uniform(-1, 1, (n, d_v)).astype(dtype)) for n in sizes]


class TestPartitions:
    """The N-reference identity: concatenated attention is the mass-weighted blend of the partitions."""

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_mass_blend_matches_the_concat_oracle(self, precision):
        @given(reference_partitions(np.float32 if precision == "f32" else np.float64))
        def check(case):
            q, kvs = case
            outs, masses = kernels.partitions(q, kvs)
            blended = sum(mass[:, None] * out for mass, out in zip(masses, outs))
            refs, (k_self, v_self) = kvs[:-1], kvs[-1]
            oracle = naive_concat_attention(
                q, np.concatenate([k for k, _ in refs]), np.concatenate([v for _, v in refs]), k_self, v_self
            )
            # Normalised as the suite normalises: by the largest branch or oracle entry.
            guard = max(*(float(np.max(np.abs(a))) for a in (*outs, oracle)), 1e-12)
            assert blended.dtype == q.dtype
            assert float(np.max(np.abs(blended.astype(np.float64) - oracle))) / guard <= PRECISION_THRESHOLDS[precision]

        check()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masses_are_an_associative_partition_of_one(self, dtype):
        @given(reference_partitions(dtype), st.randoms(use_true_random=False))
        def check(case, random):
            q, kvs = case
            ulp = float(np.finfo(dtype).eps)
            masses = kernels.partitions(q, kvs)[1]
            assert all(mass.dtype == dtype for mass in masses)
            masses = np.array(masses, dtype=np.float64)
            assert (masses > 0.0).all() and (masses < 1.0).all()
            assert np.all(np.abs(masses.sum(axis=0) - 1.0) <= len(kvs) * ulp)
            # Another order: the same masses, permuted.
            order = random.sample(range(len(kvs)), len(kvs))
            permuted = kernels.partitions(q, [kvs[i] for i in order])[1]
            assert np.all(np.abs(np.array(permuted, dtype=np.float64) - masses[order]) <= 4 * ulp)
            # Another grouping: the first two partitions merged into one.
            (k0, v0), (k1, v1) = kvs[:2]
            grouped = kernels.partitions(q, [(np.concatenate([k0, k1]), np.concatenate([v0, v1])), *kvs[2:]])[1]
            assert np.all(np.abs(grouped[0] - (masses[0] + masses[1])) <= 4 * ulp)
            assert np.all(np.abs(np.array(grouped[1:], dtype=np.float64) - masses[2:]) <= 4 * ulp)

        check()


class CountingPool(ThreadPoolExecutor):
    """A tile pool for ``workers`` shares that counts the shares submitted to it; like ``_tile_pool``, it has
    ``workers - 1`` threads (one at least) named "refguide-tile"."""

    def __init__(self, workers):
        super().__init__(max(workers - 1, 1), thread_name_prefix="refguide-tile")
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


class GatedPool(CountingPool):
    """A counting pool whose first share waits, up to 10 s, until ``expected`` shares are submitted."""

    def __init__(self, workers, expected):
        super().__init__(workers)
        self.expected = expected
        self.all_submitted = threading.Event()
        self.first_saw_all = None

    def submit(self, fn, *args):
        if self.submitted == 0:
            fn, args = self._first, (fn, *args)
        future = super().submit(fn, *args)
        if self.submitted == self.expected:
            self.all_submitted.set()
        return future

    def _first(self, fn, *args):
        self.first_saw_all = self.all_submitted.wait(timeout=10)
        return fn(*args)


class InFlightPool(CountingPool):
    """A counting pool that records which shares are in flight and, in order, which have returned."""

    def __init__(self, workers):
        super().__init__(workers)
        self.running, self.returned = set(), []

    def submit(self, *args):
        return super().submit(self._tracked, *args)

    def _tracked(self, *args):
        self.running.add(args[-1])
        try:
            return args[0](*args[1:])
        finally:
            self.running.discard(args[-1])
            self.returned.append(args[-1])


@contextmanager
def tile_pool(workers, pool=None):
    """Run ``partitions`` with ``pool_workers()`` at ``workers`` on ``pool``, by default a fresh counting pool."""
    pool = pool or CountingPool(workers)
    try:
        with mock.patch.object(kernels, "pool_workers", lambda: workers), \
                mock.patch.object(kernels, "_tile_pool", lambda pid: pool):
            yield pool
    finally:
        pool.shutdown()


@contextmanager
def tile_heights():
    """Record the query rows of each ``_tile`` call, in whichever thread it runs."""
    rows = []
    real = kernels._tile

    def recorded(q, *args):
        rows.append(q.shape[0])
        return real(q, *args)

    with mock.patch.object(kernels, "_tile", recorded):
        yield rows


@contextmanager
def single_tile():
    """Run every partition as one ``_tile`` call over all query rows, the untiled reference."""
    with mock.patch.object(kernels, "POOL_MIN_WORK", math.inf), tile_heights() as rows:
        yield rows


def bytes_at_each_worker_count(q, k, v) -> list:
    """The bytes of one partition's ``_branches`` at 1, 2 and 4 tile workers, more than the cores, switching threads
    often."""
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 4):
            with tile_pool(workers):
                results.append(result_bytes(kernels._branches(q, [(k, v)])[0]))
    finally:
        sys.setswitchinterval(interval)
    return results


class TestPooledPartition:
    """Large partitions run as query-row tiles on the thread pool: bitwise as untiled on the tile grid, within a few
    ulps of it off the grid, and the same bytes at every worker count."""

    @given(
        st.sampled_from([512, 1024]), st.sampled_from([1, 2]), st.sampled_from([1, 8, 32]),
        st.sampled_from([1, 8, 32]), st.sampled_from([np.float32, np.float64]), st.integers(0, 2**16),
    )
    def test_pooled_is_bitwise_untiled(self, length, key_factor, d, d_v, dtype, seed):
        # Two partitions, so the masses also pin each tile's row statistics.
        q, k, v = partition_inputs(seed, length, key_factor * length, d, d_v, dtype)
        kvs = [(k, v), tuple(partition_inputs(seed + 1, length, length, d, d_v, dtype)[1:])]
        with single_tile() as rows:
            untiled = kernels.partitions(q, kvs)
        assert rows == [length, length]
        # Every shape here runs as tiles, 512 x 512 included: in the caller at one worker, on the pool at two.
        with tile_pool(1) as pool, tile_heights() as heights, mock.patch.object(kernels, "POOL_MIN_WORK", 0):
            inline = kernels.partitions(q, kvs)
        assert (pool.submitted, heights) == (0, [kernels.TILE_ROWS] * (2 * length // kernels.TILE_ROWS))
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0):
            pooled = kernels.partitions(q, kvs)
        assert pool.submitted == 1  # share 1; the caller runs share 0
        for tiled in (inline, pooled):
            for a, b in zip([*untiled[0], *untiled[1]], [*tiled[0], *tiled[1]]):
                assert a.dtype == b.dtype == dtype
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("length, keys, dtype", [
        (256, 4096, np.float32),  # a single tile
        (512, 512, np.float32),  # L * S below the threshold
        (480, 960, np.float32),  # 512 x 960 padded, below the threshold
    ])
    def test_shapes_outside_the_rule_never_submit(self, length, keys, dtype):
        q, k, v = partition_inputs(3, length, keys, 8, 8, dtype)
        with tile_pool(2) as pool:
            (out, _, _), = kernels._branches(q, [(k, v)])
        assert pool.submitted == 0
        assert np.array_equal(out, attention(q, k, v))

    # Tiled against untiled, the largest gap in eps of the dtype relative to max|untiled| of each of out, m and s,
    # over seeds 0 to 19: 8.2 (576 x 1024), 12.9 (1088 x 1024), 1.5 (1024 x 1004) and 16.1 (1600 x 1600), in out at
    # d_v = 8 and, at 1004 keys, in m and s too; 484 x 968 (512 x 1024 padded) was bitwise at d = 8 and 32, f32 and
    # f64. The bound, 64 eps, is 4x the worst.
    @pytest.mark.parametrize("length, keys, d, dtype, heights", [
        (576, 1024, 8, np.float32, [256, 256, 64]),  # L not a multiple of the tile height
        (1088, 1024, 8, np.float64, [256] * 4 + [64]),
        (1024, 1004, 32, np.float64, [256] * 4),  # S not a multiple of 64
        (1600, 1600, 8, np.float64, [256] * 6 + [64]),  # side 40
        (484, 968, 32, np.float32, [256, 228]),  # side 22, concat: L and S off the grid, below 512 rows
    ])
    def test_ragged_shapes_tile_near_the_untiled_call(self, length, keys, d, dtype, heights):
        q, k, v = partition_inputs(3, length, keys, d, d, dtype)
        with single_tile():
            untiled = kernels._branches(q, [(k, v)])[0]
        with tile_pool(1), tile_heights() as rows:
            tiled = kernels._branches(q, [(k, v)])[0]
        assert rows == heights
        assert set(bytes_at_each_worker_count(q, k, v)) == {result_bytes(tiled)}
        for a, b in zip(untiled, tiled):
            assert np.abs(a - b).max() <= 64 * np.finfo(dtype).eps * np.abs(a).max()

    def test_the_largest_partition_plans_every_partitions_tiles(self):
        # 512 x 2048 meets the rule, 512 x 512 is below POOL_MIN_WORK: the call asks the rule once, for its largest
        # partition, so both run as 256-row tiles.
        q, k, v = partition_inputs(6, 512, 2048, 8, 8, np.float32)
        kvs = [(k, v), tuple(partition_inputs(7, 512, 512, 8, 8, np.float32)[1:])]
        with single_tile() as rows:
            untiled = kernels.partitions(q, kvs)
        assert rows == [512, 512]
        with tile_pool(2) as pool, tile_heights() as heights:
            planned = kernels.partitions(q, kvs)
        assert (pool.submitted, heights) == (1, [kernels.TILE_ROWS] * 4)  # share 1; the caller runs share 0
        for a, b in zip([*untiled[0], *untiled[1]], [*planned[0], *planned[1]]):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)

    def test_worker_counts_give_the_same_bytes(self):
        q, k, v = partition_inputs(5, 4096, 512, 8, 8, np.float32)
        with single_tile() as rows:
            untiled = result_bytes(kernels._branches(q, [(k, v)])[0])
        assert rows == [4096]
        assert set(bytes_at_each_worker_count(q, k, v)) == {untiled}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_pool(self):
        q, k, v = partition_inputs(9, 1024, 1024, 8, 8, np.float32)
        with mock.patch.object(kernels, "pool_workers", lambda: 2):
            expected = attention(q, k, v)  # the parent's pool threads now exist
            pid = os.fork()
            if pid == 0:
                os._exit(0 if np.array_equal(attention(q, k, v), expected) else 1)
        deadline = time.monotonic() + 10
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child waited on its parent's pool threads")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_caller_errstate_reaches_the_tiles(self, workers):
        q, k, v = overflowing_tile_inputs(2)
        with tile_pool(workers), np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                attention(q, k, v)

    @pytest.mark.parametrize("env, pooled", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
    ])
    def test_pool_needs_one_blas_thread_and_import_starts_no_pool(self, env, pooled):
        code = (
            "import sys, threading, refguide.cli, refguide.kernels as k; "
            "print(k.pool_workers(), threading.active_count(), 'concurrent.futures' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(**env), capture_output=True, text=True, check=True
        ).stdout.split()
        workers = len(os.sched_getaffinity(0)) if pooled else 1
        assert out == [str(workers), "1", "False"]


# Kernels that run several partitions of one query: (name, partition count, call on (q, kvs)).
MULTI_PARTITION_KERNELS = (
    ("partitions", 2, lambda q, kvs: sum(kernels.partitions(q, kvs), [])),  # outputs, then masses
    ("rfg_attention", 2, lambda q, kvs: rfg_attention(q, *kvs[0], *kvs[1], 0.35)),
    ("rfg_multi", 3, lambda q, kvs: rfg_multi(q, [(0.3, *kvs[0]), (0.2, *kvs[1])], *kvs[2])),
)


def query_partitions(count):
    """An f32 query and ``count`` 1024-key partitions, four pooled tiles each."""
    q, k, v = partition_inputs(11, 1024, 1024, 8, 8, np.float32)
    return q, [(k, v), *(tuple(partition_inputs(12 + i, 1024, 1024, 8, 8, np.float32)[1:]) for i in range(count - 1))]


def result_bytes(result) -> bytes:
    return b"".join(a.tobytes() for a in ([result] if isinstance(result, np.ndarray) else result))


class TestPooledQuery:
    """A query's partitions share the pool: their tiles are dealt to shares, and every share is submitted before any
    is awaited."""

    @pytest.mark.parametrize("name, count, kernel", MULTI_PARTITION_KERNELS, ids=[c[0] for c in MULTI_PARTITION_KERNELS])
    def test_every_tile_is_submitted_before_any_is_awaited(self, name, count, kernel):
        q, kvs = query_partitions(count)
        tiles = count * 1024 // kernels.TILE_ROWS
        with tile_pool(4, GatedPool(4, 3)) as pool:
            pooled = kernel(q, kvs)
        assert pool.first_saw_all and pool.submitted == 3
        with single_tile() as rows:
            assert result_bytes(kernel(q, kvs)) == result_bytes(pooled)
        assert rows == [1024] * count
        with tile_pool(1) as pool, tile_heights() as heights:  # in the caller
            assert result_bytes(kernel(q, kvs)) == result_bytes(pooled)
        assert (pool.submitted, heights) == (0, [kernels.TILE_ROWS] * tiles)

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "helper"])
    def test_overflowing_tile_raises_after_every_tile_finished(self, failing, monkeypatch):
        # Eight tiles in two shares. q's rows of tile ``failing`` overflow q k^T in that tile of both partitions, so
        # share ``failing`` alone fails, at its first tile, while the other share's finite tiles keep it in flight.
        running, finished = [], []
        real = kernels.row_softmax_inplace

        def slow_softmax(a):
            running.append(1)
            try:
                if np.isfinite(a).all():
                    time.sleep(0.05)  # keep the other share's finite tiles in flight while the failing one raises
                return real(a)
            finally:
                finished.append(1)
                running.pop()

        monkeypatch.setattr(kernels, "row_softmax_inplace", slow_softmax)
        q, kvs = query_partitions(2)
        q[failing * kernels.TILE_ROWS:(failing + 1) * kernels.TILE_ROWS] = np.float32(3e38)  # finite operands
        with tile_pool(2, InFlightPool(2)) as pool, np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="row_softmax requires finite logits"):
                kernels.partitions(q, kvs)
            assert not running and not pool.running and pool.returned == [1]
            assert len(finished) == 1 + 4  # the failing share stops at its first tile; the other runs its four
        with tile_pool(1), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="row_softmax requires finite logits"):
                kernels.partitions(q, kvs)


class TestOneRunner:
    """A tiled call deals its tiles round-robin to ``W`` shares: the caller runs share 0, the pool the other W - 1."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_the_caller_runs_share_0_and_pool_threads_the_rest(self, workers):
        q, kvs = query_partitions(2)  # eight tiles, numbered partition by partition
        ran, real = [], kernels._tile

        def recorded(tile_q, k, *args):
            row = (tile_q.ctypes.data - q.ctypes.data) // q.strides[0]
            partition = [k is part_k for part_k, _ in kvs].index(True)
            ran.append((partition * 4 + row // kernels.TILE_ROWS, threading.current_thread()))
            return real(tile_q, k, *args)

        with tile_pool(workers) as pool, mock.patch.object(kernels, "_tile", recorded):
            kernels.partitions(q, kvs)
        assert pool.submitted == workers - 1
        assert sorted(tile for tile, _ in ran) == list(range(8))
        for share in range(workers):
            threads = {thread for tile, thread in ran if tile % workers == share}
            assert len(threads) == 1  # one share, one thread
            thread = threads.pop()
            assert thread is threading.current_thread() if share == 0 else thread.name.startswith("refguide-tile")

    @pytest.mark.parametrize("failing, raised", [((0, 1, 2, 3), 0), ((1, 2, 3), 1), ((2, 3), 2)])
    def test_the_first_error_in_share_order_is_raised(self, failing, raised):
        q, kvs = query_partitions(2)  # at four workers, share w holds tile w of each partition
        real = kernels._tile

        def failing_tile(tile_q, *args):
            if (share := (tile_q.ctypes.data - q.ctypes.data) // q.strides[0] // kernels.TILE_ROWS) in failing:
                raise ValueError(f"share {share}")
            return real(tile_q, *args)

        with tile_pool(4), mock.patch.object(kernels, "_tile", failing_tile):
            with pytest.raises(ValueError, match=f"^share {raised}$"):
                kernels.partitions(q, kvs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_tiled_call_leaves_one_pool_thread_per_helper_share(self, workers):
        code = (
            "import sys, threading, numpy as np, refguide.kernels as k\n"
            f"k.pool_workers = lambda: {workers}\n"
            "k.attention(*[np.ones((1024, 8), np.float32)] * 3)  # four tiles\n"
            "print(sum(t.name.startswith('refguide-tile') for t in threading.enumerate()),"
            " 'concurrent.futures' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
                             check=True).stdout.split()
        assert out == [str(workers - 1), str(workers > 1)]


class TestOneCodePath:
    """The attention arithmetic lives in ``_tile`` alone, and every partition runs it."""

    # Matrix products and the in-place softmax, by name; ``@`` is checked apart.
    ARITHMETIC_NAMES = {"matmul", "dot", "einsum", "row_softmax_inplace"}

    def test_only_the_tile_multiplies_matrices_or_runs_the_softmax(self):
        tree = ast.parse(Path(kernels.__file__).read_text())
        users = {}
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(getattr(node, "op", None), ast.MatMult) or name in self.ARITHMETIC_NAMES:
                    users.setdefault(getattr(top, "name", "<module>"), []).append(ast.unparse(node))
        assert set(users) == {"_tile"}, users

    def test_every_partition_runs_the_tile(self):
        calls = []
        real = kernels._tile

        def counting(*args):
            calls.append(args[0].shape[0])
            return real(*args)

        q, k, v = partition_inputs(8, 1024, 1024, 8, 8, np.float32)
        with mock.patch.object(kernels, "_tile", counting):
            with tile_pool(1):
                attention(q, k, v)
            assert calls == [kernels.TILE_ROWS] * (1024 // kernels.TILE_ROWS)
            calls.clear()
            with tile_pool(2):
                attention(q, k, v)
        assert calls == [kernels.TILE_ROWS] * (1024 // kernels.TILE_ROWS)


class TestOneTileRule:
    """The tile rule is stated once, in ``kernels.tile_rows``; other code asks it."""

    @staticmethod
    def names(path):
        """``(enclosing top-level name, name, node)`` of every name, attribute and import in ``path``."""
        return [(getattr(top, "name", "<module>"), getattr(node, "id", None) or getattr(node, "attr", None) or node.name, node)
                for top in ast.parse(Path(path).read_text()).body
                for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]

    def readers(self, constant):
        """The top-level names in ``kernels`` whose code reads ``constant``."""
        return {top for top, name, node in self.names(kernels.__file__)
                if name == constant and not isinstance(getattr(node, "ctx", None), ast.Store)}

    def test_only_the_rule_function_reads_the_work_cut(self):
        assert self.readers("POOL_MIN_WORK") == {"tile_rows"}

    def test_only_the_rule_function_reads_the_tile_height(self):
        assert self.readers("TILE_ROWS") == {"tile_rows"}

    def test_config_names_no_tile_constant(self):
        named = {name for _, name, _ in self.names(Path(kernels.__file__).with_name("config.py"))}
        assert not named & {"POOL_MIN_WORK", "TILE_ROWS"}


def traced(call):
    """``(call(), current, peak)``: the bytes tracemalloc saw still held after ``call`` returned, and at most."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def branch_bytes(length, kvs, itemsize, workers) -> int:
    """What ``_branches`` allocates beside the logits: each partition's L x d_v output and its m and s rows, and 64 KiB
    of small temporaries per running share, such as numpy's ufunc buffer (8192 items) for the softmax's broadcast
    row shift and divide, 33 KiB at f32."""
    return sum(length * (v.shape[1] + 2) for _, v in kvs) * itemsize + workers * (64 << 10)


class TestTileMemory:
    """A tiled call holds one logits buffer per share while it runs, and none once it returns."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("length, tiles", [(2048, 8), (1600, 7)], ids=["on-grid", "ragged"])
    def test_a_call_allocates_its_held_logits_beside_its_outputs(self, monkeypatch, workers, length, tiles):
        monkeypatch.setattr(kernels, "CPUS", workers)
        q, k, v = partition_inputs(20, length, length, 32, 32, np.float32)
        with tile_pool(workers) as pool:
            warm = attention(q, k, v)
            out, _, peak = traced(lambda: attention(q, k, v))
        assert pool.submitted == 2 * (min(workers, tiles) - 1)  # per call, every share but the caller's
        assert np.array_equal(out, warm)
        assert peak <= kernels.held_logits(length, length) * 4 + branch_bytes(length, [(k, v)], 4, workers), peak

    # At one CPU, 600 x 1200 tiles (256 x 1200 logits while it runs) but 600 x 600 does not (768 x 640 padded, below
    # POOL_MIN_WORK): its 600 x 600 logits come after the tiled call dropped its own, so the larger of the two bounds
    # both. Beside the logits and their two outputs, the calls hold their rows' m and s and small temporaries.
    def test_held_logits_take_the_larger_of_an_untiled_and_a_tiled_call(self, monkeypatch):
        monkeypatch.setattr(kernels, "CPUS", 1)
        assert kernels.held_logits(600, 1200) == max(600 * 600, 256 * 1200)
        q, k, v = partition_inputs(26, 600, 1200, 8, 8, np.float32)
        with tile_pool(1), tile_heights() as rows:
            outs, _, peak = traced(lambda: [attention(q, k, v), attention(q, k[:600], v[:600])])
        assert rows == [256, 256, 88, 600]
        assert 600 * 600 * 4 < peak - sum(out.nbytes for out in outs) <= kernels.held_logits(600, 1200) * 4 + (64 << 10)

    # A 64-key reference beside a 1024-key self partition: the call asks the tile rule for its largest partition, so
    # both run as tiles and the call's logits stay within what ``held_logits`` states for the 1024 x 1024 call.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("route", ["partitions", "rfg_attention", "rfg_multi-c0.3", "concat_coefficient_vector",
                                       "rfg_matrix", "guidance_form", "apply_policy-rfg", "apply_policy-rfg-matrix"])
    def test_a_call_of_unequal_partitions_holds_its_largest_partitions_tiles(self, monkeypatch, route, workers):
        monkeypatch.setattr(kernels, "CPUS", workers)
        q, k, v = partition_inputs(27, 1024, 1024, 8, 8, np.float32)
        kvs = [tuple(partition_inputs(28, 1024, 64, 8, 8, np.float32)[1:]), (k, v)]
        coefficient = np.full((1024, 8), 0.35, np.float32)
        run = ROUTES[route][1]
        with tile_pool(workers):
            warm = run(q, kvs, coefficient)
            out, _, peak = traced(lambda: run(q, kvs, coefficient))
        outs = [out] if isinstance(out, np.ndarray) else [*out[0], *out[1]]  # partitions: (outs, masses)
        assert result_bytes(outs) == result_bytes([warm] if isinstance(warm, np.ndarray) else [*warm[0], *warm[1]])
        assert peak <= kernels.held_logits(1024, 1024) * 4 + branch_bytes(1024, kvs, 4, workers), peak

    # At 8 CPUs, two 768-key partitions of 768 queries make 6 tiles, each its own share with its own 256 x 768 logits:
    # more shares than one partition's 3 tiles. Each share waits after its tile until all six hold their buffers, so
    # the peak is every share's logits at once, which ``held_logits`` counts over both partitions.
    def test_held_logits_count_the_shares_of_every_partition(self, monkeypatch):
        monkeypatch.setattr(kernels, "CPUS", 8)
        assert kernels.held_logits(768, 768, 2) == 6 * 256 * 768
        q, k, v = partition_inputs(29, 768, 768, 8, 8, np.float32)
        kvs = [(k[::-1].copy(), v[::-1].copy()), (k, v)]
        real, together = kernels._tile, threading.Barrier(6, timeout=10)

        def held_until_all_ran(*args):
            result = real(*args)
            together.wait()
            return result

        with tile_pool(8) as pool:
            warm = rfg_attention(q, *kvs[0], *kvs[1], 0.35)
            with mock.patch.object(kernels, "_tile", held_until_all_ran):
                out, _, peak = traced(lambda: rfg_attention(q, *kvs[0], *kvs[1], 0.35))
        assert pool.submitted == 2 * 5
        assert np.array_equal(out, warm)
        assert 6 * 256 * 768 * 4 < peak <= kernels.held_logits(768, 768, 2) * 4 + branch_bytes(768, kvs, 4, 6), peak

    # A fresh caller thread, so no per-thread state of earlier calls can hide what this one keeps, warms the pool with
    # a 1024 x 512 call, then a 1024 x 1024 call is traced:
    # its shares' 256 x 1024 logits, one buffer per share, are gone once it returns; only its output and small
    # leftovers stay held.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_tiled_call_holds_no_logits_once_it_returns(self, workers, dtype):
        q, k, v = partition_inputs(24, 1024, 1024, 8, 8, dtype)

        def warm_then_trace():
            attention(q, k[:512], v[:512])
            return traced(lambda: attention(q, k, v))

        with tile_pool(workers) as pool, tile_heights() as rows, ThreadPoolExecutor(1) as caller:
            out, held, _ = caller.submit(warm_then_trace).result(timeout=60)
        assert pool.submitted == 2 * (workers - 1)
        assert rows == [256] * 8
        assert held - out.nbytes <= 64 << 10, held

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_second_call_leaves_the_first_calls_results_intact(self, workers):
        q, k, v = partition_inputs(21, 1024, 1024, 8, 8, np.float32)
        q_next = partition_inputs(22, 1024, 1024, 8, 8, np.float32)[0]
        kvs = [(k, v), (k[::-1].copy(), v[::-1].copy())]
        with tile_pool(workers):
            first = kernels._branches(q, kvs)
            kept = result_bytes([a for part in first for a in part])
            second = kernels._branches(q_next, kvs)
        assert result_bytes([a for part in first for a in part]) == kept
        assert not np.array_equal(first[0][0], second[0][0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_logits_still_raise(self, workers):
        # A whole row of q in tile 1 at 3e38: finite operands, so the operand rule passes them, but q k^T overflows,
        # which the tile's softmax catches.
        q, k, v = partition_inputs(23, 1024, 1024, 8, 8, np.float32)
        q[300] = np.float32(3e38)
        with tile_pool(workers), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="row_softmax requires finite logits"):
                attention(q, k, v)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_before_the_scale_still_raises(self, workers):
        # A bound on the scaled logits, max||q_i|| * max||k_j|| / sqrt(d) = 9.1e37, is below half the
        # f32 maximum, but the unscaled q k^T is 5.1e38 and overflows before the 1 / sqrt(d) scale applies.
        q = np.full((1024, 32), 4e18, np.float32)
        with tile_pool(workers), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="row_softmax requires finite logits"):
                attention(q, q.copy(), np.ones((1024, 8), np.float32))


class TestFinitenessRule:
    """The operand rule reads each operand once; each softmax checks its rows' maxima only."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("length", [64, 1024], ids=["untiled", "tiled"])
    def test_finiteness_check_reads_at_most_one_value_per_row(self, length, workers):
        q, k, v = partition_inputs(24, length, length, 8, 8, np.float32)
        calls, real = [], np.isfinite

        def isfinite(a, *args, **kwargs):
            calls.append((sys._getframe(1).f_code.co_name, np.size(a)))
            return real(a, *args, **kwargs)

        with tile_pool(workers), mock.patch.object(np, "isfinite", isfinite):
            attention(q, k, v)
        softmax = [size for caller, size in calls if caller == "row_softmax_inplace"]
        assert softmax and max(softmax) <= length, calls
        # No call scans the L x S logits, 8x (untiled) or 128x (tiled) the largest operand.
        assert max(size for _, size in calls) <= max(q.size, k.size, v.size), calls

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("length, keys", [(1, 3), (1024, 512)], ids=["untiled", "tiled"])
    def test_finite_inputs_overflowing_to_minus_inf_only_give_weight_zero(self, length, keys, workers):
        # Key 0 meets every query at -4e38, below the f32 minimum; the other logits lie in [-2, 2].
        q = np.full((length, 1), 2e19, np.float32)
        k = np.concatenate([[[-2e19]], stream(25).uniform(-1e-19, 1e-19, (keys - 1, 1))]).astype(np.float32)
        v = np.eye(keys, dtype=np.float32)  # each output row is its row of softmax weights
        with tile_pool(workers) as pool, np.errstate(over="ignore"):
            out = attention(q, k, v)
        assert pool.submitted == (workers - 1 if length > 1 else 0)
        assert np.isfinite(out).all() and not out[:, 0].any()
        logits = q.astype(np.float64) @ k[1:].T.astype(np.float64)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.allclose(out[:, 1:], weights / weights.sum(axis=1, keepdims=True), rtol=1e-5, atol=0)


class TestKeylessPartitions:
    def test_empty_partition_list_is_named(self):
        q = draw_set(49)[0]
        with pytest.raises(ValueError, match=re.escape("a kernel call needs at least one (k, v) partition, got none")):
            kernels.partitions(q, [])

    def test_concat_with_an_empty_reference_is_self_attention(self):
        q, k_ref, v_ref, k_self, v_self = draw_set(51)
        out = concat_attention(q, k_ref[:0], v_ref[:0], k_self, v_self)
        assert np.array_equal(out, attention(q, k_self, v_self))


def _partition_count(names):
    """The number of ``(k, v)`` partitions a route reading ``names`` passes."""
    return sum(name.startswith("k") for name in names.split())


def _policy_route(policy):
    """``apply_policy`` under ``policy``: the last partition is the block's own, the others its references."""
    return lambda q, kvs, coefficient: apply_policy(AttentionInputs(q, *kvs[-1]), policy, kvs[:-1])


# Every public route once: name -> (the operands it reads, run). ``run(q, kvs, coefficient)`` calls the route on the
# (k, v) partitions it passes to ``_operands``, in order; the names are q, partition i's k and v as "ki vi", and the
# coefficient where the route takes one.
ROUTES = {
    "attention": ("q k0 v0", lambda q, kvs, c: attention(q, *kvs[0])),
    "partitions": ("q k0 v0 k1 v1", lambda q, kvs, c: kernels.partitions(q, kvs)),
    "concat_attention": ("q k0 v0 k1 v1", lambda q, kvs, c: concat_attention(q, *kvs[0], *kvs[1])),
    # Reads no v: it passes each k's zero-width slice in the v's place, so no v fault runs on it.
    "concat_coefficient_vector": ("q k0 k1", lambda q, kvs, c: concat_coefficient_vector(q, kvs[0][0], kvs[1][0])),
    "rfg_attention": ("q k0 v0 k1 v1", lambda q, kvs, c: rfg_attention(q, *kvs[0], *kvs[1], 0.35)),
    # At c = 0 and c = 1 the lone-reference shortcut runs one partition; it must still check both.
    **{f"rfg_multi-c{s}": ("q k0 v0 k1 v1", lambda q, kvs, c, s=s: rfg_multi(q, [(s, *kvs[0])], *kvs[1]))
       for s in (0.0, 0.3, 1.0)},
    "rfg_multi-two-references": ("q k0 v0 k1 v1 k2 v2",
                                 lambda q, kvs, c: rfg_multi(q, [(0.3, *kvs[0]), (0.2, *kvs[1])], *kvs[2])),
    "rfg_matrix": ("q k0 v0 k1 v1 coefficient", lambda q, kvs, c: rfg_matrix(q, *kvs[0], *kvs[1], c)),
    "guidance_form": ("q k0 v0 k1 v1 coefficient", lambda q, kvs, c: guidance_form(q, *kvs[0], *kvs[1], c)),
    "apply_policy-plain": ("q k0 v0", _policy_route(AttentionPolicy.plain())),
    "apply_policy-concat": ("q k0 v0 k1 v1", _policy_route(AttentionPolicy.concat())),
    "apply_policy-cross-frame": ("q k0 v0 k1 v1", _policy_route(AttentionPolicy.cross_frame())),
    "apply_policy-rfg": ("q k0 v0 k1 v1", _policy_route(AttentionPolicy.rfg(0.35))),
    "apply_policy-rfg-multi": ("q k0 v0 k1 v1 k2 v2", _policy_route(AttentionPolicy.rfg_multi((0.3, 0.2)))),
    "apply_policy-rfg-matrix": ("q k0 v0 k1 v1", _policy_route(AttentionPolicy.rfg_matrix())),
}


def _with(a, value):
    """A copy of ``a`` with ``value`` at its last entry: for q, in the last tile."""
    a = a.copy()
    a[-1, -1] = value
    return a


def _other_precision(a):
    """``a`` in the precision the call's other operands are not in."""
    return a.astype(np.float32 if a.dtype == np.float64 else np.float64)


# Each fault once: name -> (the operands it corrupts, one at a time; how; the error; its message). Operands are "q",
# "k", "v", "kv" (a partition's k and v together), "coefficient", "every" (all at once), or one operand by name. The
# message's fields: {i} the corrupted partition, {name} the operand as the kernels name it, and the call's {base}
# precision and the {other} one.
FAULTS = {
    "one-dimensional-q": ("q", lambda a: a[:, 0], ShapeError, "q must be 2-D and of positive width, got shape (512,)"),
    "zero-width-q": ("q", lambda a: a[:, :0], ShapeError, "q must be 2-D and of positive width, got shape (512, 0)"),
    "narrower-q": ("q", lambda a: a[:, :4], ShapeError,
                   "q of shape (512, 4) and partition 0's k of shape (64, 8) differ in width"),
    "other-precision-q": ("q", _other_precision, ValueError, "mixed dtypes in one kernel call: {other} vs {base}"),
    # A coefficient of the other precision would upcast the blend's result. concat_attention checks each partition:
    # a float32 k stacked with a float64 one promotes to float64.
    "other-precision": ("k v coefficient", _other_precision, ValueError,
                        "mixed dtypes in one kernel call: {base} vs {other}"),
    # One dtype for every operand, but none the precision table names.
    **{f"all-{np.dtype(t)}": ("every", lambda a, t=t: a.astype(t), ValueError,
                              f"kernels work in float32 or float64, got {np.dtype(t)}")
       for t in (np.int32, np.float16, np.bool_)},
    # A NaN v would otherwise reach its output rows silently.
    **{name: ("q k v coefficient", lambda a, value=value: _with(a, value), ValueError, "{name} has non-finite entries")
       for name, value in (("nan", np.nan), ("inf", np.inf), ("minus-inf", -np.inf))},
    "one-dimensional-k": ("k", lambda a: a[:, 0], ShapeError, "partition {i}'s k must be 2-D, got shape (64,)"),
    "three-dimensional-k": ("k", lambda a: a[None], ShapeError, "partition {i}'s k must be 2-D, got shape (1, 64, 8)"),
    "wider-k": ("k", lambda a: np.concatenate([a, a[:, :1]], axis=1), ShapeError,
                "q of shape (512, 8) and partition {i}'s k of shape (64, 9) differ in width"),
    # A one-wide k or v would broadcast.
    "one-wide-k": ("k", lambda a: a[:, :1], ShapeError,
                   "q of shape (512, 8) and partition {i}'s k of shape (64, 1) differ in width"),
    "one-dimensional-v": ("v", lambda a: a[:, 0], ShapeError,
                          "partition {i}'s v must be 2-D with the 64 rows of its k, got shape (64,)"),
    # Row counts that differ per partition can agree once stacked (see ``test_faults_numpy_misses_raise``).
    "v-one-row-short": ("v", lambda a: a[:-1], ShapeError,
                        "partition {i}'s v must be 2-D with the 64 rows of its k, got shape (63, 8)"),
    "v-one-row-long": ("v", lambda a: np.concatenate([a, a[:1]]), ShapeError,
                       "partition {i}'s v must be 2-D with the 64 rows of its k, got shape (65, 8)"),
    # Partition 0's v sets the width, so a one-wide v there is named from partition 1's side.
    "one-wide-v0": ("v0", lambda a: a[:, :1], ShapeError,
                    "partition 1's v of shape (64, 8) and partition 0's v of shape (64, 1) differ in width"),
    "one-wide-later-v": ("v1 v2", lambda a: a[:, :1], ShapeError,
                         "partition {i}'s v of shape (64, 1) and partition 0's v of shape (64, 8) differ in width"),
    "keyless": ("kv", lambda a: a[:0], ShapeError, "partition {i} has no keys: its k has shape (0, 8)"),
    "coefficient-shape": ("coefficient", lambda a: a[:, :4], ShapeError,
                          "coefficient shape (512, 4) does not match output shape (512, 8)"),
}


def _cases():
    """``(route, fault, operand)``: each fault on every operand of every route that reads it, with the three exceptions
    the kernels' rules make (one is ``concat_coefficient_vector``'s, in ``ROUTES``)."""
    for route, (names, _) in ROUTES.items():
        for fault, (where, *_) in FAULTS.items():
            kinds = where.replace("kv", "k").split()
            read = [name for name in names.split() if name in kinds or name.rstrip("0123456789") in kinds]
            for operand in ["every"] if where == "every" else read:
                # A concat reference may be empty: concat_attention passes ``keyless=(0,)``.
                if fault == "keyless" and operand == "k0" and route in ("concat_attention", "apply_policy-concat"):
                    continue
                # A v width can only mismatch another partition's, so a one-partition route has no v-width fault.
                if fault == "one-wide-v0" and _partition_count(names) == 1:
                    continue
                yield route, fault, operand


CASES = list(_cases())


def boundary_operands(names, dtype, length=512):
    """Operands by name in ``dtype``: ``length`` x 8 ``q`` and coefficient, and a 64 x 8 k and v per partition in
    ``names``.

    512 queries over 64 keys tile once ``POOL_MIN_WORK`` is 0, so a late check would submit tiles.
    """
    operands = {"q": partition_inputs(56, length, 64, 8, 8, dtype)[0], "coefficient": np.full((length, 8), 0.5, dtype)}
    for i in range(_partition_count(names)):
        operands[f"k{i}"], operands[f"v{i}"] = partition_inputs(57 + i, length, 64, 8, 8, dtype)[1:]
    return operands


# Each fault runs at both precisions: a wider operand in an f32 call is the mistake ``np.full``'s float64 invites.
PRECISIONS = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])


def partition_list(names, operands):
    """The ``(k, v)`` partitions in ``operands`` that a route reading ``names`` passes, in order."""
    return [(operands[f"k{i}"], operands[f"v{i}"]) for i in range(_partition_count(names))]


class TestOperandBoundary:
    """Every public route names each fault in an operand it reads at entry, with one rule, before any tile runs."""

    @PRECISIONS
    @pytest.mark.parametrize("route, fault, operand", CASES, ids=["-".join(case) for case in CASES])
    def test_fault_is_named_before_any_tile(self, route, fault, operand, dtype):
        names, run = ROUTES[route]
        where, corrupt, error, message = FAULTS[fault]
        operands = boundary_operands(names, dtype)
        i = int(operand[1:]) if operand[1:].isdigit() else None  # the partition of a "ki" or "vi" operand
        if operand == "every":
            operands = {name: corrupt(a) for name, a in operands.items()}
        else:
            for name in [operand, f"v{i}"] if where == "kv" else [operand]:
                operands[name] = corrupt(operands[name])
        kvs = partition_list(names, operands)
        fields = {"i": i, "name": operand if i is None else f"partition {i}'s {operand[0]}",
                  "base": np.dtype(dtype), "other": _other_precision(np.empty(0, dtype)).dtype}
        message = message.format(**fields)
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0), \
                pytest.raises(error, match=re.escape(message)):
            run(operands["q"], kvs, operands["coefficient"])
        assert pool.submitted == 0

    # Three calls on an f32 4x8 query whose faults numpy alone does not catch: each would return a 4x5 result.
    SILENT = {
        "concat_attention": (lambda m: concat_attention(m(4, 8), m(3, 8), m(2, 5), m(2, 8), m(3, 5)),
                             "partition 0's v must be 2-D with the 3 rows of its k, got shape (2, 5)"),
        "rfg_attention": (lambda m: rfg_attention(m(4, 8), m(3, 8), m(3, 1), m(2, 8), m(2, 5), 0.35),
                          "partition 1's v of shape (2, 5) and partition 0's v of shape (3, 1) differ in width"),
        "rfg_multi": (lambda m: rfg_multi(m(4, 8), [(1.0, m(3, 8), m(3, 5))], m(2, 8), m(9, 5)),
                      "partition 1's v must be 2-D with the 2 rows of its k, got shape (9, 5)"),
    }

    @pytest.mark.parametrize("call", SILENT)
    def test_faults_numpy_misses_raise(self, call):
        gen = stream(57)
        run, message = self.SILENT[call]
        with pytest.raises(ShapeError, match=re.escape(message)):
            run(lambda rows, cols: gen.uniform(-1, 1, (rows, cols)).astype(np.float32))


class TestOneCheckPerCall:
    """Each public route checks once, at entry: one ``_operands`` call, one ``np.isfinite`` read per operand entry."""

    @PRECISIONS
    @pytest.mark.parametrize("length", [64, 512], ids=["untiled", "tiled"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_each_operand_entry_is_read_once(self, route, length, dtype):
        names, run = ROUTES[route]
        operands = boundary_operands(names, dtype, length)
        checks, reads, real_operands, real_isfinite = [], [], kernels._operands, np.isfinite

        def counting_operands(*args, **kwargs):
            checks.append(len(args[1]))
            return real_operands(*args, **kwargs)

        def isfinite(a, *args, **kwargs):
            if sys._getframe(1).f_code.co_name != "row_softmax_inplace":  # the softmax reads row maxima only
                reads.append(a)
            return real_isfinite(a, *args, **kwargs)

        # 512 queries over 64 keys tile once POOL_MIN_WORK is 0; 64 queries never do.
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0), \
                mock.patch.object(kernels, "_operands", counting_operands), mock.patch.object(np, "isfinite", isfinite):
            run(operands["q"], partition_list(names, operands), operands["coefficient"])
        assert (pool.submitted > 0) == (length == 512)
        assert len(checks) == 1, checks
        assert {name for name, a in operands.items() for b in reads if b is a} == set(names.split())
        assert sum(np.size(a) for a in reads) == sum(operands[name].size for name in names.split())

    def test_only_public_entries_call_the_rule(self):
        tree = ast.parse(Path(kernels.__file__).read_text())
        callers = {top.name for top in tree.body if isinstance(top, ast.FunctionDef) for node in ast.walk(top)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_operands"}
        assert callers == {"attention", "partitions", "concat_attention", "rfg_multi", "_coefficient_branches"}


class TestRank1Coefficient:
    def test_columns_are_copies_of_the_vector(self):
        c = np.array([0.25, 0.75])
        mat = build_rank1_coefficient(c, 3)
        assert mat.shape == (2, 3)
        assert np.array_equal(mat, np.array([[0.25] * 3, [0.75] * 3]))

    def test_rejects_non_vector(self):
        with pytest.raises(ShapeError):
            build_rank1_coefficient(np.zeros((2, 2)), 3)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            build_rank1_coefficient(np.zeros(2), 0)


class TestMatrixBlendEquivalence:
    def test_single_token_closed_form(self):
        # L=1: concat softmax over two keys has reference weight sigma, and
        # the rank-1 blend with coefficient sigma must reproduce it exactly.
        q = np.array([[0.8]])
        k_ref, v_ref = np.array([[0.5]]), np.array([[2.0]])
        k_self, v_self = np.array([[-0.3]]), np.array([[-1.0]])
        sigma = 1.0 / (1.0 + math.exp(0.8 * -0.3 - 0.8 * 0.5))
        c = concat_coefficient_vector(q, k_ref, k_self)
        assert c[0] == pytest.approx(sigma, rel=1e-14)
        blended = rfg_matrix(q, k_ref, v_ref, k_self, v_self, build_rank1_coefficient(c, 1))
        expected = sigma * 2.0 + (1 - sigma) * -1.0
        assert blended[0, 0] == pytest.approx(expected, rel=1e-13)

    def test_blend_reproduces_concat(self):
        for seed in range(10):
            q, k_ref, v_ref, k_self, v_self = draw_set(60 + seed, length=6, d=4, d_v=3)
            coeff = build_rank1_coefficient(concat_coefficient_vector(q, k_ref, k_self), 3)
            blended = rfg_matrix(q, k_ref, v_ref, k_self, v_self, coeff)
            merged = concat_attention(q, k_ref, v_ref, k_self, v_self)
            assert max_rel_error(blended, merged) < 1e-13

    def test_guidance_form_identical_blend(self):
        q, k_ref, v_ref, k_self, v_self = draw_set(70, length=5, d=4, d_v=4)
        coeff = build_rank1_coefficient(concat_coefficient_vector(q, k_ref, k_self), 4)
        a = rfg_matrix(q, k_ref, v_ref, k_self, v_self, coeff)
        b = guidance_form(q, k_ref, v_ref, k_self, v_self, coeff)
        assert max_rel_error(a, b) < 1e-14

    def test_out_of_range_coefficient_still_computes(self):
        # The corruption hook feeds coefficients outside (0,1); the blend must
        # compute them rather than reject, so the suite can observe the error.
        q, k_ref, v_ref, k_self, v_self = draw_set(72)
        coeff = np.full((q.shape[0], v_ref.shape[1]), 1.5)
        assert np.isfinite(rfg_matrix(q, k_ref, v_ref, k_self, v_self, coeff)).all()


class TestAttentionPolicy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            AttentionPolicy("sideways")

    def test_multi_requires_strengths(self):
        with pytest.raises(ValueError, match="strength"):
            AttentionPolicy("rfg-multi")

    @pytest.mark.parametrize("kind, strengths", [
        ("rfg", ()),
        ("rfg", (0.2, 0.3)),
        ("rfg-multi", ()),
        ("plain", (0.5,)),
        ("concat", (0.5,)),
        ("rfg-matrix", (0.5,)),
        ("rfg-matrix", (0.2, 0.3)),
        ("cross-frame", ()),
        ("cross-frame", (0.5,)),
        ("cross-frame", (1.0, 1.0)),
    ])
    def test_strengths_the_kind_does_not_read_are_rejected(self, kind, strengths):
        with pytest.raises(ValueError, match=f"policy kind {kind!r} takes"):
            AttentionPolicy(kind, strengths)

    def test_excessive_strength_warns(self):
        # One rule for every scalar blend, on magnitudes: negative strengths
        # give the self branch a weight above 1, so the message names no sign.
        for kind, strengths in (("rfg", (1.5,)), ("rfg-multi", (0.6, 0.6)), ("rfg-multi", (-0.6, -0.6))):
            with pytest.warns(UserWarning, match="total reference strength magnitude .* exceeds 1") as caught:
                AttentionPolicy(kind, strengths)
            assert len(caught) == 1 and "negative" not in str(caught[0].message)

    @pytest.mark.parametrize("kind, strengths", [
        ("rfg", (math.nan,)), ("rfg", (math.inf,)), ("rfg-multi", (0.2, -math.inf)), ("rfg-multi", (math.nan, 0.2)),
    ])
    def test_non_finite_strength_is_named_before_any_warning(self, kind, strengths, recwarn):
        with pytest.raises(ValueError, match=re.escape(f"policy kind {kind!r} takes finite strengths, got {strengths}")):
            AttentionPolicy(kind, strengths)
        assert not recwarn

    @pytest.mark.parametrize("policy", [
        AttentionPolicy.cross_frame(), AttentionPolicy.rfg(-1.0), AttentionPolicy.rfg_multi((0.5, -0.5)),
    ])
    def test_total_magnitude_of_one_does_not_warn(self, policy, recwarn):
        AttentionPolicy(policy.kind, policy.strengths)
        assert not recwarn

    @pytest.mark.parametrize("policy, strengths, strength, count", [
        (AttentionPolicy.plain(), (), 0.0, 0),
        (AttentionPolicy.concat(), (), 0.0, 1),
        (AttentionPolicy.cross_frame(), (1.0,), 0.0, 1),
        (AttentionPolicy.rfg(0.35), (0.35,), 0.35, 1),
        (AttentionPolicy.rfg_multi((0.2, 0.3, 0.1)), (0.2, 0.3, 0.1), 0.0, 3),
        (AttentionPolicy.rfg_matrix(), (), 0.0, 1),
    ], ids=lambda x: x.kind if isinstance(x, AttentionPolicy) else None)
    def test_strength_and_reference_count(self, policy, strengths, strength, count):
        assert policy.strengths == strengths
        assert policy.strength == strength
        assert policy.reference_count == count

    def test_constructor_and_factory_agree(self):
        assert AttentionPolicy("rfg", (np.float32(0.5),)) == AttentionPolicy.rfg(0.5)
        assert AttentionPolicy("rfg-multi", [0.2, 0.3]) == AttentionPolicy.rfg_multi((0.2, 0.3))
        assert AttentionPolicy("cross-frame", (1,)) == AttentionPolicy.cross_frame()
        assert AttentionPolicy("rfg", (0.5,)).strength == 0.5


class TestApplyPolicy:
    def make(self, seed=80):
        q, k_ref, v_ref, k_self, v_self = draw_set(seed)
        inputs = AttentionInputs(q, k_self, v_self)
        return inputs, (k_ref, v_ref), (q, k_ref, v_ref, k_self, v_self)

    def test_plain_ignores_cache(self):
        inputs, cache, (q, _, _, k_self, v_self) = self.make()
        out = apply_policy(inputs, AttentionPolicy.plain(), [cache])
        assert np.array_equal(out, attention(q, k_self, v_self))

    def test_concat_dispatch(self):
        inputs, cache, parts = self.make()
        out = apply_policy(inputs, AttentionPolicy.concat(), [cache])
        assert np.array_equal(out, concat_attention(*parts))

    def test_cross_frame_is_reference_branch(self):
        inputs, cache, (q, k_ref, v_ref, _, _) = self.make()
        out = apply_policy(inputs, AttentionPolicy.cross_frame(), [cache])
        assert np.array_equal(out, attention(q, k_ref, v_ref))

    def test_rfg_dispatch(self):
        inputs, cache, parts = self.make()
        out = apply_policy(inputs, AttentionPolicy.rfg(0.35), [cache])
        assert np.array_equal(out, rfg_attention(*parts, 0.35))

    def test_matrix_dispatch_matches_concat(self):
        inputs, cache, parts = self.make()
        out = apply_policy(inputs, AttentionPolicy.rfg_matrix(), [cache])
        assert max_rel_error(out, concat_attention(*parts)) < 1e-13

    def test_multi_dispatch(self):
        inputs, cache, (q, k_ref, v_ref, k_self, v_self) = self.make()
        out = apply_policy(inputs, AttentionPolicy.rfg_multi((0.4,)), [cache])
        assert np.array_equal(out, rfg_attention(q, k_ref, v_ref, k_self, v_self, 0.4))

    @pytest.mark.parametrize("policy, refs, message", [
        (AttentionPolicy.concat(), 0, "policy 'concat' needs 1 reference (k, v) pair(s), got 0"),
        (AttentionPolicy.concat(), 2, "policy 'concat' needs 1 reference (k, v) pair(s), got 2"),
        (AttentionPolicy.cross_frame(), 0, "policy 'cross-frame' needs 1 reference (k, v) pair(s), got 0"),
        (AttentionPolicy.cross_frame(), 2, "policy 'cross-frame' needs 1 reference (k, v) pair(s), got 2"),
        (AttentionPolicy.rfg(0.35), 0, "policy 'rfg' needs 1 reference (k, v) pair(s), got 0"),
        (AttentionPolicy.rfg(0.35), 2, "policy 'rfg' needs 1 reference (k, v) pair(s), got 2"),
        (AttentionPolicy.rfg_multi((0.3, 0.2)), 1, "policy 'rfg-multi' needs 2 reference (k, v) pair(s), got 1"),
        (AttentionPolicy.rfg_multi((0.3, 0.2)), 3, "policy 'rfg-multi' needs 2 reference (k, v) pair(s), got 3"),
        (AttentionPolicy.rfg_matrix(), 0, "policy 'rfg-matrix' needs 1 reference (k, v) pair(s), got 0"),
        (AttentionPolicy.rfg_matrix(), 2, "policy 'rfg-matrix' needs 1 reference (k, v) pair(s), got 2"),
    ])
    def test_reference_count_is_named(self, policy, refs, message):
        inputs, cache, _ = self.make()
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_policy(inputs, policy, [cache] * refs)

    @pytest.mark.parametrize("policy, refs", [
        (AttentionPolicy.cross_frame(), 1),
        (AttentionPolicy.rfg(0.35), 1),
        (AttentionPolicy.rfg(0.0), 1),
        (AttentionPolicy.rfg_multi((0.3, 0.2)), 2),
    ], ids=["cross-frame", "rfg", "rfg-zero", "rfg-multi"])
    def test_every_scalar_blend_is_one_rfg_multi_call(self, policy, refs):
        inputs, cache, _ = self.make()
        calls = []
        real = kernels.rfg_multi

        def counting(q, refs, k_self, v_self):
            calls.append([c for c, _, _ in refs])
            return real(q, refs, k_self, v_self)

        with mock.patch.object(kernels, "rfg_multi", counting):
            for _ in range(2):
                apply_policy(inputs, policy, [cache] * refs)
        assert calls == [list(policy.strengths)] * 2
