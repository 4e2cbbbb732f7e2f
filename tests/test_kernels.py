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

    def test_zero_width_query_rejected(self):
        with pytest.raises(ValueError, match="width"):
            attention(np.ones((2, 0)), np.ones((3, 0)), np.ones((3, 2)))

    def test_mixed_dtypes_rejected(self):
        q, k, v, *_ = draw_set(14)
        with pytest.raises(ValueError, match="dtype"):
            attention(q.astype(np.float32), k, v)

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

    @pytest.mark.parametrize("index", [0, 1])
    def test_one_dimensional_key_is_named(self, index):
        q, k, *_ = draw_set(54)
        keys = [k, k]
        keys[index] = k[:, 0]
        message = re.escape(f"partition {index} needs 2-D k and v with equal row counts, got (4,) and (0,)")
        with pytest.raises(ShapeError, match=message):
            concat_coefficient_vector(q, *keys)


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


class TestReferenceBranches:
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


def _matrix_coefficient(q, v_ref):
    return np.full((q.shape[0], v_ref.shape[1]), 0.5, dtype=q.dtype)


# Every public kernel, called on its operands in order: (name, operand count, call).
PUBLIC_KERNELS = (
    ("concat_attention", 5, concat_attention),
    ("rfg_attention", 5, lambda q, kr, vr, ks, vs: rfg_attention(q, kr, vr, ks, vs, 0.35)),
    ("rfg_multi", 7, lambda q, k1, v1, k2, v2, ks, vs: rfg_multi(q, [(0.3, k1, v1), (0.2, k2, v2)], ks, vs)),
    ("partitions", 5, lambda q, kr, vr, ks, vs: kernels.partitions(q, [(kr, vr), (ks, vs)])),
    ("concat_coefficient_vector", 3, concat_coefficient_vector),
    ("rfg_matrix", 5, lambda q, kr, vr, ks, vs: rfg_matrix(q, kr, vr, ks, vs, _matrix_coefficient(q, vr))),
    ("guidance_form", 5, lambda q, kr, vr, ks, vs: guidance_form(q, kr, vr, ks, vs, _matrix_coefficient(q, vr))),
)


class TestMixedDtypes:
    """Every public kernel rejects operands of two precisions, whichever operand differs."""

    # At base f64 with operand 1 in f32, concat_attention's stacked keys
    # would promote to f64 and match q; the kernel must still reject them.
    @pytest.mark.parametrize("name, count, kernel", PUBLIC_KERNELS, ids=[case[0] for case in PUBLIC_KERNELS])
    @pytest.mark.parametrize("dtype, other", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_each_operand_in_the_other_precision_is_rejected(self, name, count, kernel, dtype, other):
        gen = stream(60)
        operands = [gen.uniform(-1, 1, (6, 4)).astype(dtype) for _ in range(count)]
        for i in range(count):
            mixed = [a.astype(other) if j == i else a for j, a in enumerate(operands)]
            with pytest.raises(ValueError, match="mixed dtypes"):
                kernel(*mixed)

    # A coefficient of the other precision would upcast the blend's result.
    @pytest.mark.parametrize("kernel", [rfg_matrix, guidance_form], ids=["rfg_matrix", "guidance_form"])
    @pytest.mark.parametrize("dtype, other", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_coefficient_in_the_other_precision_is_rejected(self, kernel, dtype, other):
        gen = stream(61)
        operands = [gen.uniform(-1, 1, (6, 4)).astype(dtype) for _ in range(5)]
        with pytest.raises(ValueError, match="mixed dtypes"):
            kernel(*operands, np.full((6, 4), 0.5, dtype=other))


class CountingPool(ThreadPoolExecutor):
    """A tile pool that counts the tiles submitted to it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


class GatedPool(CountingPool):
    """A counting pool whose first tile waits, up to 10 s, until ``expected`` tiles are submitted."""

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


@contextmanager
def tile_pool(workers, pool=None):
    """Run ``partitions`` with ``POOL_WORKERS`` set to ``workers`` on ``pool``, by default a fresh counting pool."""
    pool = pool or CountingPool(workers)
    try:
        with mock.patch.object(kernels, "POOL_WORKERS", workers), \
                mock.patch.object(kernels, "_tile_pool", lambda workers, pid: pool):
            yield pool
    finally:
        pool.shutdown()


@contextmanager
def single_tile():
    """Run every partition as one ``_tile`` call over all query rows, the untiled reference."""
    rows = []
    real = kernels._tile

    def whole(q, *args):
        rows.append(q.shape[0])
        return real(q, *args)

    with mock.patch.object(kernels, "POOL_MIN_WORK", math.inf), mock.patch.object(kernels, "_tile", whole):
        yield rows


def partition_inputs(seed, length, keys, d, d_v, dtype):
    gen = stream(seed)
    shapes = ((length, d), (keys, d), (keys, d_v))
    return [gen.uniform(-1, 1, shape).astype(dtype) for shape in shapes]


def overflowing_tile_inputs(tile):
    """f32 inputs of four pooled tiles whose tile ``tile`` overflows its logits."""
    q, k, v = partition_inputs(7, 4 * kernels.TILE_ROWS, 512, 8, 8, np.float32)
    rows = slice(tile * kernels.TILE_ROWS, (tile + 1) * kernels.TILE_ROWS)
    q[rows] = np.float32(3e38)  # finite, but q k^T overflows
    return q, k, v


class TestPooledPartition:
    """Large partitions run as query-row tiles on the thread pool, bitwise as untiled."""

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
        # Every shape here runs as tiles on the pool, 512 x 512 included, at one worker and at two.
        with tile_pool(1) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0):
            inline = kernels.partitions(q, kvs)
        assert pool.submitted == 2 * length // kernels.TILE_ROWS
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0):
            pooled = kernels.partitions(q, kvs)
        assert pool.submitted == 2 * length // kernels.TILE_ROWS
        for tiled in (inline, pooled):
            for a, b in zip([*untiled[0], *untiled[1]], [*tiled[0], *tiled[1]]):
                assert a.dtype == b.dtype == dtype
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("length, keys, dtype", [
        (576, 1024, np.float32),  # L not a multiple of the tile height
        (1024, 1000, np.float64),  # S not a multiple of 64
        (256, 4096, np.float32),  # a single tile
        (512, 512, np.float32),  # L * S below the threshold
    ])
    def test_shapes_outside_the_rule_never_submit(self, length, keys, dtype):
        q, k, v = partition_inputs(3, length, keys, 8, 8, dtype)
        with tile_pool(2) as pool:
            (out, _, _), = kernels._branches(q, [(k, v)])
        assert pool.submitted == 0
        assert np.array_equal(out, attention(q, k, v))

    def test_one_partition_outside_the_rule_runs_the_whole_call_untiled(self):
        # 1024 x 1024 meets the rule, 1024 x 1000 does not: one tile height per call, so nothing tiles.
        q, k, v = partition_inputs(6, 1024, 1024, 8, 8, np.float32)
        kvs = [(k, v), tuple(partition_inputs(7, 1024, 1000, 8, 8, np.float32)[1:])]
        with single_tile() as rows:
            untiled = kernels.partitions(q, kvs)
        assert rows == [1024, 1024]
        with tile_pool(2) as pool:
            planned = kernels.partitions(q, kvs)
        assert pool.submitted == 0
        assert result_bytes([*untiled[0], *untiled[1]]) == result_bytes([*planned[0], *planned[1]])

    def test_zero_width_query_raises_before_any_tile(self):
        with tile_pool(2) as pool, pytest.raises(ValueError, match="width"):
            attention(np.ones((1024, 0)), np.ones((1024, 0)), np.ones((1024, 2)))
        assert pool.submitted == 0

    @pytest.mark.parametrize("operand", [0, 1, 2])
    def test_mixed_dtypes_raise_before_any_tile(self, operand):
        parts = partition_inputs(4, 1024, 1024, 8, 8, np.float32)
        parts[operand] = parts[operand].astype(np.float64)
        with tile_pool(2) as pool, pytest.raises(ValueError, match="mixed dtypes"):
            attention(*parts)
        assert pool.submitted == 0

    def test_worker_counts_give_the_same_bytes(self):
        # 16 tiles on up to 4 threads, more than the cores, switching threads often.
        q, k, v = partition_inputs(5, 4096, 512, 8, 8, np.float32)
        with single_tile() as rows:
            untiled = b"".join(a.tobytes() for a in kernels._branches(q, [(k, v)])[0])
        assert rows == [4096]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 4):
                with tile_pool(workers):
                    results.append(b"".join(a.tobytes() for a in kernels._branches(q, [(k, v)])[0]))
        finally:
            sys.setswitchinterval(interval)
        assert untiled == results[0] == results[1] == results[2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_pool(self):
        q, k, v = partition_inputs(9, 1024, 1024, 8, 8, np.float32)
        with mock.patch.object(kernels, "POOL_WORKERS", 2):
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

    def test_overflowing_tile_raises_after_every_tile_finished(self, monkeypatch):
        running, finished = [], []
        real = kernels.row_softmax_inplace

        def slow_softmax(a):
            running.append(1)
            try:
                if np.isfinite(a).all():
                    time.sleep(0.05)  # keep the finite tiles in flight while tile 0 fails
                return real(a)
            finally:
                finished.append(1)
                running.pop()

        monkeypatch.setattr(kernels, "row_softmax_inplace", slow_softmax)
        q, k, v = overflowing_tile_inputs(0)
        with tile_pool(2) as pool, np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="row_softmax requires finite logits"):
                attention(q, k, v)
            assert not running
            assert len(finished) == pool.submitted == 4
        with tile_pool(1), np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="row_softmax requires finite logits"):
                attention(q, k, v)

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
        blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        clean = {key: value for key, value in os.environ.items() if key not in blas_vars}
        # The child imports refguide from where this process did, PYTHONPATH set or not.
        src = str(Path(kernels.__file__).parents[1])
        clean["PYTHONPATH"] = os.pathsep.join(filter(None, (src, clean.get("PYTHONPATH"))))
        code = (
            "import sys, threading, refguide.cli, refguide.kernels as k; "
            "print(k.POOL_WORKERS, threading.active_count(), 'concurrent.futures' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env={**clean, **env}, capture_output=True, text=True, check=True
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
    """A query's partitions share the pool: every tile is submitted before any is awaited."""

    @pytest.mark.parametrize("name, count, kernel", MULTI_PARTITION_KERNELS, ids=[c[0] for c in MULTI_PARTITION_KERNELS])
    def test_every_tile_is_submitted_before_any_is_awaited(self, name, count, kernel):
        q, kvs = query_partitions(count)
        tiles = count * 1024 // kernels.TILE_ROWS
        with tile_pool(2, GatedPool(2, tiles)) as pool:
            pooled = kernel(q, kvs)
        assert pool.first_saw_all and pool.submitted == tiles
        with single_tile() as rows:
            assert result_bytes(kernel(q, kvs)) == result_bytes(pooled)
        assert rows == [1024] * count
        with tile_pool(1) as pool:
            assert result_bytes(kernel(q, kvs)) == result_bytes(pooled)
        assert pool.submitted == tiles

    def test_overflowing_tile_of_the_second_partition_raises_after_every_tile_finished(self, monkeypatch):
        running, finished = [], []
        real = kernels.row_softmax_inplace

        def slow_softmax(a):
            running.append(1)
            try:
                if np.isfinite(a).all():
                    time.sleep(0.05)  # keep the finite tiles in flight while the second partition fails
                return real(a)
            finally:
                finished.append(1)
                running.pop()

        monkeypatch.setattr(kernels, "row_softmax_inplace", slow_softmax)
        q, kvs = query_partitions(2)
        kvs[1][0][:] = np.float32(3e38)  # finite, but q k^T overflows in every tile of the self partition
        with tile_pool(2) as pool, np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="row_softmax requires finite logits"):
                kernels.partitions(q, kvs)
            assert not running
            assert len(finished) == pool.submitted == 8


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

    def test_only_the_rule_function_reads_the_work_cut(self):
        readers = {top for top, name, node in self.names(kernels.__file__)
                   if name == "POOL_MIN_WORK" and not isinstance(getattr(node, "ctx", None), ast.Store)}
        assert readers == {"tile_rows"}

    def test_config_names_no_tile_constant(self):
        named = {name for _, name, _ in self.names(Path(kernels.__file__).with_name("config.py"))}
        assert not named & {"POOL_MIN_WORK", "TILE_ROWS"}


class BarrierPool(CountingPool):
    """A counting pool whose first ``workers`` tiles wait for each other (up to 10 s), so every thread runs one."""

    def __init__(self, workers):
        super().__init__(workers)
        self.barrier = threading.Barrier(workers, timeout=10)

    def submit(self, fn, *args):
        if self.submitted < self.barrier.parties:
            fn, args = self._meet, (fn, *args)
        return super().submit(fn, *args)

    def _meet(self, fn, *args):
        self.barrier.wait()
        return fn(*args)


def held_scratch(pool, workers):
    """The scratch buffers of the calling thread and of each of ``pool``'s ``workers`` threads."""
    barrier = threading.Barrier(workers, timeout=10)

    def held():
        barrier.wait()
        return list(vars(kernels._scratch).values())

    futures = [ThreadPoolExecutor.submit(pool, held) for _ in range(workers)]
    return [*vars(kernels._scratch).values(), *(a for done in futures for a in done.result(timeout=10))]


class TestTileMemory:
    """A tiled partition holds one reused logits tile per worker."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_warm_call_allocates_less_than_one_tile_plus_its_output(self, workers):
        length = keys = 2048
        q, k, v = partition_inputs(20, length, keys, 32, 32, np.float32)
        with tile_pool(workers, BarrierPool(workers)) as pool:
            warm = attention(q, k, v)  # every worker now holds its scratch
            tracemalloc.start()
            try:
                out = attention(q, k, v)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert pool.submitted == 2 * length // kernels.TILE_ROWS
        assert np.array_equal(out, warm)
        assert peak < kernels.TILE_ROWS * keys * 4 + out.nbytes, peak

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_share_no_memory_with_the_scratch(self, workers):
        q, k, v = partition_inputs(21, 1024, 1024, 8, 8, np.float32)
        q_next = partition_inputs(22, 1024, 1024, 8, 8, np.float32)[0]
        kvs = [(k, v), (k[::-1].copy(), v[::-1].copy())]
        with tile_pool(workers, BarrierPool(workers)) as pool:
            first = kernels._branches(q, kvs)
            kept = result_bytes([a for part in first for a in part])
            second = kernels._branches(q_next, kvs)
            scratch = held_scratch(pool, workers)
        assert len(scratch) >= workers
        assert result_bytes([a for part in first for a in part]) == kept
        assert not np.array_equal(first[0][0], second[0][0])
        assert not any(np.shares_memory(a, b) for part in first + second for a in part for b in scratch)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("operand, value", [
        ("q", np.nan), ("q", np.inf), ("k", np.nan), ("k", -np.inf), ("q", 3e38),
    ])
    def test_non_finite_or_overflowing_logits_still_raise(self, workers, operand, value):
        q, k, v = partition_inputs(23, 1024, 1024, 8, 8, np.float32)
        # One entry in tile 1 of q, or one key, fails the operand rule before any tile runs; 3e38 fills a
        # whole row of q, finite operands whose q k^T overflows, which the tile's softmax catches.
        if operand == "q" and value == 3e38:
            q[300] = np.float32(value)
            message = "row_softmax requires finite logits"
        else:
            (q if operand == "q" else k)[300, 5] = value
            message = ("q" if operand == "q" else "partition 0's k") + " has non-finite entries"
        with tile_pool(workers) as pool, np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=message):
                attention(q, k, v)
        assert pool.submitted == 0 or value == 3e38

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
        assert pool.submitted == (length // kernels.TILE_ROWS if length > 1 else 0)
        assert np.isfinite(out).all() and not out[:, 0].any()
        logits = q.astype(np.float64) @ k[1:].T.astype(np.float64)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.allclose(out[:, 1:], weights / weights.sum(axis=1, keepdims=True), rtol=1e-5, atol=0)


class TestKeylessPartitions:
    def test_empty_partition_list_is_named(self):
        q = draw_set(49)[0]
        with pytest.raises(ValueError, match=re.escape("a kernel call needs at least one (k, v) partition, got none")):
            kernels.partitions(q, [])

    def test_attention_names_the_partition(self):
        q, k, v = draw_set(50)[:3]
        with pytest.raises(ShapeError, match="partition 0 has no keys"):
            attention(q, k[:0], v[:0])

    @pytest.mark.parametrize("empty", [0, 1])
    def test_keyless_partition_raises_before_any_tile(self, empty):
        q, kvs = query_partitions(2)
        kvs[empty] = (kvs[empty][0][:0], kvs[empty][1][:0])
        with tile_pool(2) as pool, pytest.raises(ShapeError, match=f"partition {empty} has no keys"):
            kernels.partitions(q, kvs)
        assert pool.submitted == 0

    def test_concat_with_an_empty_reference_is_self_attention(self):
        q, k_ref, v_ref, k_self, v_self = draw_set(51)
        out = concat_attention(q, k_ref[:0], v_ref[:0], k_self, v_self)
        assert np.array_equal(out, attention(q, k_self, v_self))

    def test_zero_strength_shortcut_checks_the_reference_it_skips(self):
        q, kvs = query_partitions(2)
        with tile_pool(2) as pool, pytest.raises(ShapeError, match="partition 0 has no keys"):
            rfg_multi(q, [(0.0, kvs[0][0][:0], kvs[0][1][:0])], *kvs[1])
        assert pool.submitted == 0


class TestPartitionShapes:
    """Each public route checks every partition's ``k`` and ``v`` once, at entry; ``_branches`` trusts its caller."""

    BAD_PAIRS = {
        "rows-3-vs-4": lambda k, v: (k[:3], v[:4]),
        "rows-64-vs-65": lambda k, v: (k, np.concatenate([v, v[:1]])),
        "1d-k": lambda k, v: (k[:, 0], v),
        "1d-v": lambda k, v: (k, v[:, 0]),
    }
    CALLS = {
        "attention": (0, lambda q, kv, bad: attention(q, *bad)),
        "rfg_multi": (1, lambda q, kv, bad: rfg_multi(q, [(0.3, *kv), (0.2, *bad)], *kv)),
        "partitions": (1, lambda q, kv, bad: kernels.partitions(q, [kv, bad])),
        "apply_policy": (0, lambda q, kv, bad: apply_policy(AttentionInputs(q, *kv), AttentionPolicy.rfg_matrix(),
                                                            [bad])),
    }

    @pytest.mark.parametrize("bad", BAD_PAIRS)
    @pytest.mark.parametrize("call", CALLS)
    def test_bad_partition_is_named_before_any_tile(self, call, bad):
        # 512 queries over 64 keys tile once POOL_MIN_WORK is 0, so a late check would submit tiles.
        q, k, v = partition_inputs(52, 512, 64, 8, 8, np.float32)
        index, run = self.CALLS[call]
        k_bad, v_bad = self.BAD_PAIRS[bad](k, v)
        message = re.escape(f"partition {index} needs 2-D k and v with equal row counts, "
                            f"got {k_bad.shape} and {v_bad.shape}")
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0), \
                pytest.raises(ShapeError, match=message):
            run(q, (k, v), (k_bad, v_bad))
        assert pool.submitted == 0


class TestQueryShape:
    """Each public route checks the query against every partition's ``k`` once, at entry; ``_branches`` trusts its
    caller."""

    CALLS = {
        "attention": (0, lambda q, kv, bad: attention(q, *bad)),
        "partitions": (1, lambda q, kv, bad: kernels.partitions(q, [kv, bad])),
        "rfg_multi": (1, lambda q, kv, bad: rfg_multi(q, [(0.3, *kv), (0.2, *bad)], *kv)),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_one_dimensional_query_is_named(self, call):
        q, k, v = partition_inputs(53, 512, 64, 8, 8, np.float32)
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0), \
                pytest.raises(ShapeError, match=re.escape("q must be 2-D and of positive width, got shape (512,)")):
            self.CALLS[call][1](q[:, 0], (k, v), (k, v))
        assert pool.submitted == 0

    @pytest.mark.parametrize("q_width, k_width", [(2, 4), (8, 4), (4, 1)])
    @pytest.mark.parametrize("call", CALLS)
    def test_width_mismatch_names_q_and_the_partition(self, call, q_width, k_width):
        # 512 queries over 64 keys tile once POOL_MIN_WORK is 0, so a late check would submit tiles.
        q, k, v = partition_inputs(54, 512, 64, 8, 8, np.float32)
        q = q[:, :q_width]
        index, run = self.CALLS[call]
        k_same, k_bad = k[:, :q_width], k[:, :k_width]
        message = re.escape(f"q of shape {q.shape} and partition {index}'s k of shape {k_bad.shape} differ in width")
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0), \
                pytest.raises(ShapeError, match=message):
            run(q, (k_same, v), (k_bad, v))
        assert pool.submitted == 0


ALL_POLICIES = (AttentionPolicy.plain(), AttentionPolicy.concat(), AttentionPolicy.cross_frame(),
                AttentionPolicy.rfg(0.35), AttentionPolicy.rfg_multi((0.3, 0.2)), AttentionPolicy.rfg_matrix())


class TestApplyPolicyOperands:
    """``apply_policy`` checks the block's own ``k`` and ``v`` under every policy, before any tile runs.

    These are the shape cases ``AttentionInputs`` once checked. The block's own
    partition follows the policy's references, so its index is ``reference_count``.
    """

    # 512 queries of width 8 over 64 keys; each fault replaces the block's own (k, v).
    SELF_FAULTS = {
        "k-wider-than-q": (lambda k, v: (np.concatenate([k, k[:, :1]], axis=1), v),
                           "q of shape (512, 8) and partition {i}'s k of shape (64, 9) differ in width"),
        "kv-row-mismatch": (lambda k, v: (k, np.concatenate([v, v[:1]])),
                            "partition {i} needs 2-D k and v with equal row counts, got (64, 8) and (65, 8)"),
        "3-d-k": (lambda k, v: (k[None], v),
                  "partition {i} needs 2-D k and v with equal row counts, got (1, 64, 8) and (64, 8)"),
        "keyless-k": (lambda k, v: (k[:0], v[:0]), "partition {i} has no keys: its k has shape (0, 8)"),
    }

    @pytest.mark.parametrize("fault", SELF_FAULTS)
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda policy: policy.kind)
    def test_bad_own_partition_is_named_before_any_tile(self, policy, fault):
        q, k, v = partition_inputs(55, 512, 64, 8, 8, np.float32)
        own, message = self.SELF_FAULTS[fault]
        inputs = AttentionInputs(q, *own(k, v))
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0), \
                pytest.raises(ShapeError, match=re.escape(message.format(i=policy.reference_count))):
            apply_policy(inputs, policy, [(k, v)] * policy.reference_count)
        assert pool.submitted == 0


def _operand_routes():
    """Every route over one reference and the sample's own partition, as ``name -> run(q, ref, own)``."""
    def coefficient(q, ref):
        return np.full((q.shape[0], ref[1].shape[1]), 0.5, q.dtype)

    routes = {
        "partitions": lambda q, ref, own: kernels.partitions(q, [ref, own]),
        "concat_attention": lambda q, ref, own: concat_attention(q, *ref, *own),
        "rfg_attention": lambda q, ref, own: rfg_attention(q, *ref, *own, 0.35),
        **{f"rfg_multi-c{c}": lambda q, ref, own, c=c: rfg_multi(q, [(c, *ref)], *own) for c in (0.0, 0.3, 1.0)},
        "rfg_matrix": lambda q, ref, own: rfg_matrix(q, *ref, *own, coefficient(q, ref)),
        "guidance_form": lambda q, ref, own: guidance_form(q, *ref, *own, coefficient(q, ref)),
    }
    for policy in ALL_POLICIES[1:]:  # "plain" reads no reference
        if policy.kind == "rfg-multi":
            policy = AttentionPolicy.rfg_multi((0.3,))
        routes[f"apply_policy-{policy.kind}"] = lambda q, ref, own, policy=policy: apply_policy(
            AttentionInputs(q, *own), policy, [ref])
    return routes


def _with(a, value):
    """A copy of ``a`` with ``value`` at entry (5, 3)."""
    a = a.copy()
    a[5, 3] = value
    return a


class TestOneOperandRule:
    """Every route applies ``_operands``' one rule to the reference (partition 0) and the sample's own (1)."""

    ROUTES = _operand_routes()
    # Each fault as (q, reference, own) from one query and 64-key (k, v) pair, the error, and its message.
    FAULTS = {
        # Row counts that differ per partition but agree once stacked, so stacking alone pairs keys with wrong values.
        "rows-differ-in-both": (lambda q, k, v: (q, (k, v[:63]), (k, np.concatenate([v, v[:1]]))), ShapeError,
                                "partition 0 needs 2-D k and v with equal row counts, got (64, 8) and (63, 8)"),
        # A 1-wide reference v would broadcast against the sample's own output.
        "one-wide-reference-v": (lambda q, k, v: (q, (k, v[:, :1]), (k, v)), ShapeError,
                                 "partition 1's v of shape (64, 8) and partition 0's v of shape (64, 1) differ in width"),
        "narrower-own-v": (lambda q, k, v: (q, (k, v), (k, v[:, :5])), ShapeError,
                           "partition 1's v of shape (64, 5) and partition 0's v of shape (64, 8) differ in width"),
        # The lone-reference shortcut at c = 1 runs the reference partition only.
        "rows-differ-in-own": (lambda q, k, v: (q, (k, v), (k, np.concatenate([v, v[:1]]))), ShapeError,
                               "partition 1 needs 2-D k and v with equal row counts, got (64, 8) and (65, 8)"),
        "keyless-own": (lambda q, k, v: (q, (k, v), (k[:0], v[:0])), ShapeError,
                        "partition 1 has no keys: its k has shape (0, 8)"),
        # Non-finite entries; a NaN v would otherwise reach its output rows silently. The shortcut skips the
        # sample's own v at c = 1 and the reference's k and v at c = 0.
        "nan-in-own-v": (lambda q, k, v: (q, (k, v), (k, _with(v, np.nan))), ValueError,
                         "partition 1's v has non-finite entries"),
        "inf-in-reference-k": (lambda q, k, v: (q, (_with(k, np.inf), v), (k, v)), ValueError,
                               "partition 0's k has non-finite entries"),
        "minus-inf-in-reference-v": (lambda q, k, v: (q, (k, _with(v, -np.inf)), (k, v)), ValueError,
                                     "partition 0's v has non-finite entries"),
        "nan-in-q": (lambda q, k, v: (_with(q, np.nan), (k, v), (k, v)), ValueError, "q has non-finite entries"),
        # One dtype for every operand, but none the precision table names.
        **{f"all-{np.dtype(t)}": (lambda q, k, v, t=t: (q.astype(t), *[(k.astype(t), v.astype(t))] * 2), ValueError,
                                  f"kernels work in float32 or float64, got {np.dtype(t)}")
           for t in (np.int32, np.float16, np.bool_)},
    }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("route", ROUTES)
    def test_fault_is_named_before_any_tile(self, route, fault):
        # 512 queries over 64 keys tile once POOL_MIN_WORK is 0, so a late check would submit tiles.
        q, k, v = partition_inputs(56, 512, 64, 8, 8, np.float32)
        operands, error, message = self.FAULTS[fault]
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0), \
                pytest.raises(error, match=re.escape(message)):
            self.ROUTES[route](*operands(q, k, v))
        assert pool.submitted == 0

    # Three calls on an f32 4x8 query whose faults numpy alone does not catch: each would return a 4x5 result.
    SILENT = {
        "concat_attention": (lambda m: concat_attention(m(4, 8), m(3, 8), m(2, 5), m(2, 8), m(3, 5)),
                             "partition 0 needs 2-D k and v"),
        "rfg_attention": (lambda m: rfg_attention(m(4, 8), m(3, 8), m(3, 1), m(2, 8), m(2, 5), 0.35),
                          "partition 1's v of shape (2, 5) and partition 0's v of shape (3, 1) differ in width"),
        "rfg_multi": (lambda m: rfg_multi(m(4, 8), [(1.0, m(3, 8), m(3, 5))], m(2, 8), m(9, 5)),
                      "partition 1 needs 2-D k and v with equal row counts, got (2, 8) and (9, 5)"),
    }

    @pytest.mark.parametrize("call", SILENT)
    def test_faults_numpy_misses_raise(self, call):
        gen = stream(57)
        run, message = self.SILENT[call]
        with pytest.raises(ShapeError, match=re.escape(message)):
            run(lambda rows, cols: gen.uniform(-1, 1, (rows, cols)).astype(np.float32))


class TestOneCheckPerCall:
    """Each public route checks once, at entry: one ``_operands`` call, one ``np.isfinite`` read per operand entry."""

    # The routes of ``_operand_routes`` read all five operands; the others read the ones named.
    ROUTES = {
        **{name: (run, "q k_ref v_ref k_self v_self") for name, run in _operand_routes().items()},
        "attention": (lambda q, ref, own: attention(q, *own), "q k_self v_self"),
        "apply_policy-plain": (lambda q, ref, own: apply_policy(AttentionInputs(q, *own), AttentionPolicy.plain()),
                               "q k_self v_self"),
        "concat_coefficient_vector": (lambda q, ref, own: concat_coefficient_vector(q, ref[0], own[0]),
                                      "q k_ref k_self"),
    }

    @pytest.mark.parametrize("length", [64, 512], ids=["untiled", "tiled"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_each_operand_entry_is_read_once(self, route, length):
        q, k_ref, v_ref = partition_inputs(59, length, 64, 8, 8, np.float32)
        _, k_self, v_self = partition_inputs(60, length, 64, 8, 8, np.float32)
        operands = {"q": q, "k_ref": k_ref, "v_ref": v_ref, "k_self": k_self, "v_self": v_self}
        run, names = self.ROUTES[route]
        checks, reads, coefficient_reads, real_operands, real_isfinite = [], [], [], kernels._operands, np.isfinite

        def counting_operands(*args, **kwargs):
            checks.append(len(args[1]))
            return real_operands(*args, **kwargs)

        def isfinite(a, *args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            if caller == "_coefficient_branches":  # the coefficient of rfg_matrix and guidance_form, beside the rule
                coefficient_reads.append(np.size(a))
            elif caller != "row_softmax_inplace":  # the softmax reads row maxima only
                reads.append(a)
            return real_isfinite(a, *args, **kwargs)

        # 512 queries over 64 keys tile once POOL_MIN_WORK is 0; 64 queries never do.
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0), \
                mock.patch.object(kernels, "_operands", counting_operands), mock.patch.object(np, "isfinite", isfinite):
            run(q, (k_ref, v_ref), (k_self, v_self))
        assert (pool.submitted > 0) == (length == 512)
        assert len(checks) == 1, checks
        read = {name for name, a in operands.items() for b in reads if b is a}
        assert read == set(names.split()), read
        assert sum(np.size(a) for a in reads) == sum(operands[name].size for name in names.split())
        assert coefficient_reads == ([length * v_ref.shape[1]] if route in ("rfg_matrix", "guidance_form") else [])

    def test_only_public_entries_call_the_rule(self):
        tree = ast.parse(Path(kernels.__file__).read_text())
        callers = {top.name for top in tree.body if isinstance(top, ast.FunctionDef) for node in ast.walk(top)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_operands"}
        assert callers == {"attention", "partitions", "concat_attention", "rfg_multi", "_coefficient_branches"}


class TestCoefficientCheck:
    """``rfg_matrix`` and ``guidance_form`` reject a bad coefficient before any tile runs."""

    FAULTS = {
        "shape": (lambda c: c[:, :4], ShapeError, "coefficient shape (512, 4) does not match output shape (512, 8)"),
        "dtype": (lambda c: c.astype(np.float64), ValueError, "mixed dtypes in one kernel call: float32 vs float64"),
        **{name: (lambda c, value=value: _with(c, value), ValueError, "coefficient has non-finite entries")
           for name, value in (("nan", np.nan), ("inf", np.inf), ("minus-inf", -np.inf))},
    }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("kernel", [rfg_matrix, guidance_form], ids=["rfg_matrix", "guidance_form"])
    def test_bad_coefficient_is_rejected_before_any_tile(self, kernel, fault):
        # 512 queries over 64 keys tile once POOL_MIN_WORK is 0, so a late check would submit tiles.
        q, k, v = partition_inputs(58, 512, 64, 8, 8, np.float32)
        bad, error, message = self.FAULTS[fault]
        with tile_pool(2) as pool, mock.patch.object(kernels, "POOL_MIN_WORK", 0), \
                pytest.raises(error, match=re.escape(message)):
            kernel(q, k, v, k, v, bad(np.full((512, 8), 0.5, np.float32)))
        assert pool.submitted == 0


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

    def test_coefficient_shape_checked(self):
        q, k_ref, v_ref, k_self, v_self = draw_set(71)
        with pytest.raises(ShapeError):
            rfg_matrix(q, k_ref, v_ref, k_self, v_self, np.zeros((1, 1)))

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

    def test_needs_reference(self):
        assert AttentionPolicy.plain().reference_count == 0
        assert AttentionPolicy.cross_frame().reference_count == 1

    def test_reference_counts(self):
        assert AttentionPolicy.plain().reference_count == 0
        assert AttentionPolicy.concat().reference_count == 1
        assert AttentionPolicy.rfg_multi((0.2, 0.3, 0.1)).reference_count == 3

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

    def test_missing_cache_rejected(self):
        inputs, _, _ = self.make()
        with pytest.raises(ValueError, match="reference"):
            apply_policy(inputs, AttentionPolicy.concat())

    def test_cache_count_mismatch_rejected(self):
        inputs, cache, _ = self.make()
        with pytest.raises(ValueError, match="reference"):
            apply_policy(inputs, AttentionPolicy.rfg_multi((0.2, 0.2)), [cache])
