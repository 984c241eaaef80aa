"""Tests for the symmetric two-value matrix algebra.

Every closed-form result is checked against a dense numpy oracle built
independently in this file.
"""

import numpy as np
import pytest

from stochalign.structmat import (
    SEQUENTIAL_SUM_MAX,
    SingularStructuredMatrixError,
    StructuredMatrix,
    apply,
    identity,
    inverse,
    mn,
    mul,
    row_sum,
)


def dense_of(n, a, b):
    """Independent dense construction: b everywhere, a on the diagonal."""
    m = np.full((n, n), float(b))
    np.fill_diagonal(m, float(a))
    return m


def test_to_dense_matches_oracle():
    m = StructuredMatrix(4, 2.0, -0.5)
    np.testing.assert_array_equal(m.to_dense(), dense_of(4, 2.0, -0.5))


def test_identity():
    i = identity(3)
    assert (i.diag, i.off) == (1.0, 0.0)
    np.testing.assert_array_equal(i.to_dense(), np.eye(3))


def test_mn_small_cases():
    m2 = mn(2)
    assert (m2.diag, m2.off) == (-1.0, 1.0)
    m3 = mn(3)
    assert (m3.diag, m3.off) == (-1.0, 0.5)
    np.testing.assert_allclose(m3.to_dense(), dense_of(3, -1.0, 0.5))


def test_mn_requires_two_agents():
    with pytest.raises(ValueError):
        mn(1)


def test_mn_annihilates_constant_vectors():
    for n in (2, 3, 7):
        out = apply(mn(n), np.ones(n))
        np.testing.assert_allclose(out, np.zeros(n), atol=1e-15)


def test_mul_hand_example():
    # (2,1)*(1,1) at n=3: diag 2*1+2*1*1=4, off 2*1+1*1+1*1*1=4
    out = mul(StructuredMatrix(3, 2.0, 1.0), StructuredMatrix(3, 1.0, 1.0))
    assert (out.diag, out.off) == (4.0, 4.0)
    oracle = dense_of(3, 2.0, 1.0) @ dense_of(3, 1.0, 1.0)
    np.testing.assert_allclose(out.to_dense(), oracle)


def test_mul_identity_neutral():
    m = StructuredMatrix(5, 3.0, -1.25)
    for prod in (mul(m, identity(5)), mul(identity(5), m)):
        assert (prod.diag, prod.off) == (m.diag, m.off)


def test_mn_squared_is_scaled_mn():
    for n in (2, 3, 4, 10):
        c = n / (n - 1)
        sq = mul(mn(n), mn(n))
        expect = -c * mn(n)
        np.testing.assert_allclose((sq.diag, sq.off), (expect.diag, expect.off), atol=1e-14)


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mul(StructuredMatrix(2, 1.0, 0.0), StructuredMatrix(3, 1.0, 0.0))


def test_mul_matches_dense_randomized():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        a1, b1, a2, b2 = rng.uniform(-3.0, 3.0, size=4)
        out = mul(StructuredMatrix(n, a1, b1), StructuredMatrix(n, a2, b2))
        oracle = dense_of(n, a1, b1) @ dense_of(n, a2, b2)
        np.testing.assert_allclose(out.to_dense(), oracle, atol=1e-12)


def test_mul_commutes():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a1, b1, a2, b2 = rng.uniform(-2.0, 2.0, size=4)
        x = StructuredMatrix(n, a1, b1)
        y = StructuredMatrix(n, a2, b2)
        xy, yx = mul(x, y), mul(y, x)
        np.testing.assert_allclose((xy.diag, xy.off), (yx.diag, yx.off), atol=1e-13)


def test_inverse_hand_example():
    # (2,1) at n=2: inverse is (2,-1)/((2-1)*(2+1)) = (2/3, -1/3)
    inv = inverse(StructuredMatrix(2, 2.0, 1.0))
    np.testing.assert_allclose((inv.diag, inv.off), (2.0 / 3.0, -1.0 / 3.0))
    oracle = np.linalg.inv(dense_of(2, 2.0, 1.0))
    np.testing.assert_allclose(inv.to_dense(), oracle, atol=1e-14)


def test_inverse_of_identity():
    inv = inverse(identity(6))
    assert (inv.diag, inv.off) == (1.0, 0.0)


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_inverse_when_the_eigenvalue_product_leaves_the_double_range(scale):
    # (a - b)(a + (n-1)b) under- or overflows, the inverse itself does not
    inv = inverse(StructuredMatrix(3, 2.0 * scale, scale))
    np.testing.assert_allclose((inv.diag, inv.off), (0.75 / scale, -0.25 / scale), rtol=1e-15)


def test_inverse_singular_equal_values():
    with pytest.raises(SingularStructuredMatrixError):
        inverse(StructuredMatrix(4, 1.0, 1.0))


def test_inverse_singular_rank_deficient():
    # a == -(n-1) b makes the all-ones vector an eigenvector with eigenvalue 0
    with pytest.raises(SingularStructuredMatrixError):
        inverse(StructuredMatrix(3, 2.0, -1.0))
    with pytest.raises(SingularStructuredMatrixError):
        inverse(StructuredMatrix(2, 2.0, -2.0))


def test_mn_is_singular():
    for n in (2, 5):
        with pytest.raises(SingularStructuredMatrixError):
            inverse(mn(n))


def test_inverse_matches_dense_randomized():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 11))
        a, b = rng.uniform(-3.0, 3.0, size=2)
        if abs(a - b) < 1e-6 or abs(a + (n - 1) * b) < 1e-6:
            continue
        inv = inverse(StructuredMatrix(n, a, b))
        prod = dense_of(n, a, b) @ inv.to_dense()
        np.testing.assert_allclose(prod, np.eye(n), atol=1e-10)
        checked += 1


def test_apply_hand_example():
    # (2,1) at n=3 applied to (1,2,3): sum=6 -> 1*6 + (2-1)*v = (7,8,9)
    out = apply(StructuredMatrix(3, 2.0, 1.0), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(out, np.array([7.0, 8.0, 9.0]))


def test_apply_matches_dense_batched():
    rng = np.random.default_rng(55)
    n = 6
    m = StructuredMatrix(n, 1.7, -0.4)
    v = rng.normal(size=(4, 5, n))
    out = apply(m, v)
    oracle = np.einsum("ij,abj->abi", m.to_dense(), v)
    assert out.shape == (4, 5, n)
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(StructuredMatrix(3, 1.0, 0.0), np.zeros(4))


def test_operator_sugar():
    m = StructuredMatrix(3, 2.0, 1.0)
    scaled = 2.0 * m
    assert (scaled.diag, scaled.off) == (4.0, 2.0)
    scaled = m * -1.0
    assert (scaled.diag, scaled.off) == (-2.0, -1.0)
    neg = -m
    assert (neg.diag, neg.off) == (-2.0, -1.0)
    prod = m @ StructuredMatrix(3, 1.0, 1.0)
    assert (prod.diag, prod.off) == (4.0, 4.0)
    vec = m @ np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(vec, np.array([7.0, 8.0, 9.0]))


class TestRowSum:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_same_bits_as_numpy_sum(self, n):
        # wide dynamic range, so any change of summation order shows
        rng = np.random.default_rng(n)
        v = rng.normal(size=(3, 501, n)) * np.exp(5.0 * rng.normal(size=(3, 501, n)))
        expect = v.sum(axis=-1)
        np.testing.assert_array_equal(row_sum(v), expect)
        out = np.empty((3, 501))
        assert row_sum(v, out=out) is out
        np.testing.assert_array_equal(out, expect)
        np.testing.assert_array_equal(row_sum(v[0, 0]), expect[0, 0])

    def test_rows_of_negative_zeros_keep_their_sign(self):
        # the documented exception: numpy's sum starts from +0.0
        for n in range(1, 13):
            v = np.full((2, n), -0.0)
            sequential = 2 <= n <= SEQUENTIAL_SUM_MAX
            np.testing.assert_array_equal(np.signbit(row_sum(v)), [sequential] * 2)
            np.testing.assert_array_equal(np.signbit(v.sum(axis=-1)), [False] * 2)
