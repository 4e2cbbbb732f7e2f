import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from refguide.linalg import (
    ShapeError,
    frobenius_norm,
    matmul,
    row_softmax,
    stack_rows,
)

finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=64),
)


class TestMatmul:
    def test_known_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        assert np.array_equal(matmul(a, b), np.array([[17.0], [39.0]]))

    def test_preserves_dtype(self):
        out = matmul(np.ones((2, 2), np.float32), np.ones((2, 2), np.float32))
        assert out.dtype == np.float32


class TestRowSoftmax:
    def test_two_logit_row_matches_direct_computation(self):
        x = 1.0 / math.sqrt(2.0)
        expected0 = math.exp(x) / (math.exp(x) + 1.0)
        out = row_softmax(np.array([[x, 0.0]]))
        assert out[0, 0] == pytest.approx(expected0, rel=1e-14)
        assert out[0, 1] == pytest.approx(1.0 - expected0, rel=1e-14)

    def test_uniform_logits_give_uniform_rows(self):
        out = row_softmax(np.full((3, 4), 7.25))
        assert np.allclose(out, 0.25, rtol=0, atol=1e-15)

    def test_huge_logits_do_not_overflow(self):
        out = row_softmax(np.array([[1e4, 1e4 - 5.0], [-1e4, 1e4]]))
        assert np.isfinite(out).all()
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        a = np.array([[0.3, -1.2, 2.0]])
        assert np.allclose(row_softmax(a), row_softmax(a + 123.0), atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            row_softmax(np.array([[np.inf, 0.0]]))

    @given(finite_matrices)
    def test_rows_sum_to_one_and_entries_positive(self, a):
        out = row_softmax(a)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out > 0.0).all() and (out <= 1.0).all()

    @given(st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dt: arrays(dt, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                          elements=st.floats(-100, 100, width=np.finfo(dt).bits))
    ))
    def test_matches_three_temporary_formula_and_keeps_input(self, a):
        before = a.copy()
        shifted = a - a.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        out = row_softmax(a)
        assert np.array_equal(a, before)
        assert out.dtype == a.dtype
        assert np.array_equal(out, e / e.sum(axis=1, keepdims=True))


class TestFrobeniusNorm:
    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, abs=0)

    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((4, 4))) == 0.0

    def test_accumulates_in_float64(self):
        # 2**24 + 1 is not representable in f32; a pure-f32 accumulation of
        # that many ones would get the count wrong.
        n = 2**24 + 1
        a = np.ones((1, n), dtype=np.float32)
        assert frobenius_norm(a) == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_returns_python_float(self):
        assert isinstance(frobenius_norm(np.ones((2, 2), np.float32)), float)

    @given(
        arrays(np.float64, (3, 3), elements=st.floats(-100, 100, allow_nan=False)),
        arrays(np.float64, (3, 3), elements=st.floats(-100, 100, allow_nan=False)),
    )
    def test_triangle_inequality(self, a, b):
        assert frobenius_norm(a + b) <= frobenius_norm(a) + frobenius_norm(b) + 1e-9


class TestStackRows:
    def test_first_operand_on_top(self):
        top = np.array([[1.0, 2.0]])
        bottom = np.array([[3.0, 4.0], [5.0, 6.0]])
        out = stack_rows(top, bottom)
        assert out.shape == (3, 2)
        assert np.array_equal(out[0], top[0])
        assert np.array_equal(out[1:], bottom)

    def test_column_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="column"):
            stack_rows(np.zeros((1, 2)), np.zeros((1, 3)))
