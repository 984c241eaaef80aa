"""Tests for the symmetric two-value matrix algebra.

Every closed-form result is checked against a dense numpy oracle built
independently in this file.
"""

import numpy as np
import pytest

from stochalign.structmat import StructuredMatrix, apply, mn


def dense_of(n, a, b):
    """Independent dense construction: b everywhere, a on the diagonal."""
    m = np.full((n, n), float(b))
    np.fill_diagonal(m, float(a))
    return m


def test_to_dense_matches_oracle():
    m = StructuredMatrix(4, 2.0, -0.5)
    np.testing.assert_array_equal(m.to_dense(), dense_of(4, 2.0, -0.5))


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


def test_mn_squared_is_scaled_mn():
    # M_n^2 = -c M_n: why matc's stretch update equals wstar's
    for n in (2, 3, 4, 10):
        c = n / (n - 1)
        m = mn(n).to_dense()
        np.testing.assert_allclose(m @ m, (-c * mn(n)).to_dense(), atol=1e-14)


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


@pytest.mark.parametrize("n, message", [
    (2.5, "n must be an integer, got 2.5"),
    (True, "n must be an integer, got True"),
    (2.0, "n must be an integer, got 2.0"),
    (0, "n must be >= 1, got 0"),
])
def test_dimension_is_a_positive_integer(n, message):
    # a float or bool dimension used to build, and to_dense then failed in numpy
    with pytest.raises(ValueError, match=f"^{message}$"):
        StructuredMatrix(n, 1.0, 0.0)
    assert StructuredMatrix(np.int64(1), 1.0, 0.0).to_dense().tolist() == [[1.0]]


def test_operator_sugar():
    m = StructuredMatrix(3, 2.0, 1.0)
    scaled = 2.0 * m
    assert (scaled.diag, scaled.off) == (4.0, 2.0)
    scaled = m * -1.0
    assert (scaled.diag, scaled.off) == (-2.0, -1.0)



@pytest.mark.parametrize("n", [2, 3, 8, 13])
def test_apply_in_place_matches_fresh_result_bit_for_bit(n):
    # out=v takes the row sums before overwriting v: the engine applies an
    # operator lane to its agent-major rows through their transpose
    rng = np.random.default_rng(n)
    m = StructuredMatrix(n, -1.3, 0.7 / n)
    agent_last = rng.normal(size=(300, n))
    agent_major = rng.normal(size=(2, n, 300))
    for v in (agent_last, agent_major[1].T, agent_major.transpose(0, 2, 1)):
        fresh = apply(m, v)
        out = v.copy(order="K")
        assert out.strides == v.strides
        assert apply(m, out, out=out) is out
        np.testing.assert_array_equal(out, fresh)
        assert fresh.tobytes() == out.tobytes()
