import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglearn.core import ConfigError
from mfglearn.policy import (
    argmax_operator,
    policy_matrix,
    policy_row,
    sample_action,
    softmax_operator,
)


class FixedDraws:
    """Minimal rng stub returning a scripted sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_softmax_uniform_on_equal_values():
    dist = policy_row(softmax_operator(7.0), np.zeros(3))
    np.testing.assert_allclose(dist, 1.0 / 3.0, atol=1e-15)


def test_softmax_closed_form_pair():
    dist = policy_row(softmax_operator(1.0), np.array([1.0, 0.0]))
    e = np.e
    np.testing.assert_allclose(dist, [e / (1 + e), 1 / (1 + e)], atol=1e-12)


def test_argmax_breaks_ties_at_lowest_index():
    dist = policy_row(argmax_operator(), np.array([0.5, 0.5]))
    np.testing.assert_array_equal(dist, [1.0, 0.0])


def test_softmax_survives_huge_inverse_temperature():
    q = np.array([0.0, 1e-6, 2.0])
    soft = policy_row(softmax_operator(1e9), q)
    hard = policy_row(argmax_operator(), q)
    assert np.abs(soft - hard).sum() <= 1e-6
    assert np.isfinite(soft).all()


@settings(max_examples=200, deadline=None)
@given(
    q=st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=6),
    shift=st.floats(min_value=-50, max_value=50),
)
def test_softmax_shift_invariance(q, shift):
    op = softmax_operator(3.0)
    a = policy_row(op, np.array(q))
    b = policy_row(op, np.array(q) + shift)
    assert np.abs(a - b).max() <= 1e-12


def test_sample_action_point_mass():
    dist = np.array([0.0, 0.0, 1.0, 0.0])
    for u in (0.0, 0.37, 0.999):
        assert sample_action(dist, FixedDraws([u])) == 2


def test_sample_action_inverse_cdf_convention():
    dist = np.array([0.5, 0.5])
    assert sample_action(dist, FixedDraws([0.49])) == 0
    assert sample_action(dist, FixedDraws([0.51])) == 1


def test_sample_action_never_picks_zero_probability():
    dist = np.array([1.0, 0.0])
    rng = np.random.default_rng(0)
    assert all(sample_action(dist, rng) == 0 for _ in range(100))


def test_sample_action_empirical_frequencies():
    dist = np.array([0.2, 0.5, 0.3])
    rng = np.random.default_rng(42)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[sample_action(dist, rng)] += 1
    sigma = np.sqrt(dist * (1 - dist) * n)
    assert np.all(np.abs(counts - dist * n) <= 3 * sigma)


def test_policy_matrix_respects_feasibility():
    q = np.array([[1.0, 9.0], [3.0, 2.0]])
    feasible = (np.array([0]), np.array([0, 1]))
    pi = policy_matrix(argmax_operator(), q, feasible)
    np.testing.assert_array_equal(pi, [[1.0, 0.0], [1.0, 0.0]])


def test_operator_validation():
    with pytest.raises(ConfigError):
        softmax_operator(0.0)
