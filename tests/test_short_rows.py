"""The short-row kernels give numpy's own bits.

structmat's along_rows and row_sum_sq, and the callers built on them
(stretch_values and apply), must reproduce, bit for bit, the numpy
broadcast, einsum and formulas they replace.  Bits are compared as
uint64, so a sign of zero or a last-place difference shows.  Examples
are derandomized and capped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stochalign.model import stretch_values
from stochalign.structmat import (
    SHORT_ROW_MAX, StructuredMatrix, along_rows, apply, row_sum, row_sum_sq)


def derandomized(max_examples):
    return settings(derandomize=True, database=None, max_examples=max_examples,
                    deadline=None)


# finite doubles with the corners that show a change of order or of sign:
# signed zeros, subnormals, and magnitudes whose sums overflow
elements = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False))


def rows(n_max=12):
    """Arrays of 1 to 3 dimensions whose last axis has 1 to n_max elements."""
    shapes = st.tuples(array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=6),
                       st.integers(1, n_max)).map(lambda p: p[0] + (p[1],))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    np.testing.assert_array_equal(bits(got), bits(expected))


class Counting:
    """A ufunc stand-in that counts its calls."""

    def __init__(self, ufunc):
        self.ufunc, self.calls = ufunc, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.ufunc(*args, **kwargs)


class TestAlongRows:
    @derandomized(300)
    @given(rows(), st.sampled_from([np.subtract, np.add]), st.data())
    def test_equals_the_broadcast(self, v, ufunc, data):
        s = data.draw(arrays(np.float64, v.shape[:-1], elements=elements))
        with np.errstate(over="ignore"):
            expected = ufunc(s[..., np.newaxis], v)
            assert_same_bits(along_rows(ufunc, s, v), expected)
            out = np.empty_like(v)
            assert along_rows(ufunc, s, v, out=out) is out
            assert_same_bits(out, expected)
            # in place, as record_moves uses it
            inplace = v.copy()
            along_rows(ufunc, s, inplace, out=inplace)
            assert_same_bits(inplace, expected)

    @pytest.mark.parametrize("n, calls", [(1, 1), (2, 2), (3, 3), (4, 1), (5, 1), (12, 1)])
    def test_rows_of_up_to_three_go_by_columns(self, n, calls):
        # the measured cutoff: one call per column up to 3, one broadcast beyond
        assert SHORT_ROW_MAX == 3
        ufunc = Counting(np.subtract)
        along_rows(ufunc, np.ones(4), np.ones((4, n)))
        assert ufunc.calls == calls


def even_odd_sum_sq(v):
    """numpy 2.4 einsum's order for rows of up to 7: even and odd columns
    in separate left-to-right sums, then the two added."""
    sq = v * v
    even = sq[..., 0].copy()
    for j in range(2, v.shape[-1], 2):
        even += sq[..., j]
    if v.shape[-1] == 1:
        return even
    odd = sq[..., 1].copy()
    for j in range(3, v.shape[-1], 2):
        odd += sq[..., j]
    return even + odd


class TestRowSumSq:
    @derandomized(300)
    @given(rows(7))
    def test_equals_the_even_odd_formula(self, v):
        out, tmp = (np.empty(v.shape[:-1]) for _ in range(2))
        with np.errstate(over="ignore", under="ignore"):
            assert row_sum_sq(v, out, tmp) is out
            assert_same_bits(out, even_odd_sum_sq(v))

    @derandomized(300)
    @given(rows(12))
    def test_equals_einsum(self, v):
        # the formula is einsum's own order up to 7 elements; beyond the
        # cutoff row_sum_sq calls einsum itself
        out, tmp = (np.empty(v.shape[:-1]) for _ in range(2))
        flat = v.reshape(-1, v.shape[-1])
        with np.errstate(over="ignore", under="ignore"):
            expected = np.einsum("ij,ij->i", flat, flat).reshape(v.shape[:-1])
            assert_same_bits(row_sum_sq(v, out, tmp), expected)

    def test_one_column_view_of_a_wider_state(self):
        # the engine's stat_agent statistics: a strided (lanes, count, 1) view
        st_ = np.random.default_rng(3).normal(size=(2, 50, 5))
        v = st_[:, :, 2:3]
        out, tmp = np.empty((2, 50)), np.empty((2, 50))
        assert_same_bits(row_sum_sq(v, out, tmp), np.einsum("ijk,ijk->ij", v, v))

    @pytest.mark.parametrize("k, calls", [(1, 0), (2, 0), (3, 0), (4, 1), (5, 1), (8, 1)])
    def test_rows_of_up_to_three_go_by_columns(self, k, calls, monkeypatch):
        einsum = Counting(np.einsum)
        monkeypatch.setattr(np, "einsum", einsum)
        row_sum_sq(np.ones((4, k)), np.empty(4), np.empty(4))
        assert einsum.calls == calls


def old_stretch(positions):
    """stretch_values as it was computed before the kernels: four operations."""
    n = positions.shape[-1]
    out = np.subtract(row_sum(positions)[..., np.newaxis], positions)
    out /= n - 1
    out -= positions
    return out


class TestCallers:
    @derandomized(300)
    @given(rows(8).filter(lambda v: v.shape[-1] >= 2))
    def test_stretch_values_keeps_the_four_operation_bits(self, positions):
        # n = 2 skips the division by 1.0; shorter rows go by columns
        with np.errstate(over="ignore", invalid="ignore"):
            expected = old_stretch(positions)
            assert_same_bits(stretch_values(positions), expected)
            out = np.empty_like(positions)
            total = row_sum(positions)
            assert stretch_values(positions, out=out, total=total) is out
            assert_same_bits(out, expected)

    @derandomized(300)
    @given(rows(8), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    def test_apply_keeps_its_bits_and_returns_a_new_array(self, v, diag, off):
        # Gain.__call__ scales apply's result in place, so it must not be v
        m = StructuredMatrix(v.shape[-1], diag, off)
        before = v.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            expected = off * row_sum(v)[..., np.newaxis] + (diag - off) * v
            got = apply(m, v)
        assert not np.shares_memory(got, v)
        assert_same_bits(v, before)
        np.testing.assert_array_equal(got, expected)  # NaN matches NaN
        numbers = ~np.isnan(expected)
        assert_same_bits(got[numbers], expected[numbers])
