import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglearn import learners
from mfglearn.core import ConfigError
from mfglearn.envs import sioux_falls_env, toy_finite_env
from mfglearn.lfa import one_hot_feature_map, one_hot_measure_basis
from mfglearn.policy import (
    argmax_operator,
    policy_matrix,
    policy_row,
    sample_action,
    softmax_operator,
)

from .conftest import FixedDraws, policy_row_oracle, sample_action_oracle


def test_softmax_uniform_on_equal_values():
    dist = policy_row(softmax_operator(7.0), np.zeros(3))
    np.testing.assert_allclose(dist, 1.0 / 3.0, atol=1e-15)


def test_softmax_closed_form_pair():
    dist = policy_row(softmax_operator(1.0), np.array([1.0, 0.0]))
    e = np.e
    np.testing.assert_allclose(dist, [e / (1 + e), 1 / (1 + e)], atol=1e-12)


def test_softmax_of_an_integer_row_is_the_float_row_softmax():
    for beta in (1.0, 1e3):
        q = np.array([1, 2, 2, -5])
        dist = policy_row(softmax_operator(beta), q)
        want = policy_row_oracle(softmax_operator(beta), q)
        assert dist.dtype == np.float64 and dist.tobytes() == want.tobytes()
        assert dist.tobytes() == policy_row(softmax_operator(beta), q.astype(float)).tobytes()


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


def test_sample_action_draws_the_same_index_from_a_memoryview_cdf():
    # the row cache passes a memoryview of the CDF's doubles: every draw,
    # at a running sum exactly, between sums, and at or past the float total
    # of a row with trailing zero mass (the fallback), picks the index the
    # array picks
    rng = np.random.default_rng(5)
    rows = [
        np.array([0.1, 0.2, 0.3, 0.0, 0.0]),  # total 0.6: u >= cdf[-1] falls back to 2
        np.array([0.0, 0.5, 0.5, 0.0]),
        np.array([1.0]),
        np.array([1.0, 0.0, 0.0]),
    ] + [policy_row(softmax_operator(beta), rng.normal(size=n))
         for beta in (1.0, 1e3) for n in (2, 5, 200)]
    for dist in rows:
        cdf = dist.cumsum()
        draws = [0.0, 0.999999, float(np.nextafter(cdf[-1], 0.0)), *cdf.tolist(),
                 *(cdf + 1e-17).tolist(), *rng.random(20).tolist()]
        for u in draws:
            want = sample_action(dist, FixedDraws([u]), cdf)
            assert sample_action(dist, FixedDraws([u]), memoryview(cdf)) == want, (dist, u)
            assert want == sample_action(dist, FixedDraws([u]))
            if u >= cdf[-1]:
                assert want == int(np.flatnonzero(dist)[-1])
    # the fallback is reached: 0.6 is past the total mass of the first row
    assert sample_action(rows[0], FixedDraws([0.7]), memoryview(rows[0].cumsum())) == 2


def test_policy_matrix_respects_feasibility():
    q = np.array([[1.0, 9.0], [3.0, 2.0]])
    feasible = (np.array([0]), np.array([0, 1]))
    pi = policy_matrix(argmax_operator(), q, feasible)
    np.testing.assert_array_equal(pi, [[1.0, 0.0], [1.0, 0.0]])


def test_operator_validation():
    with pytest.raises(ConfigError):
        softmax_operator(0.0)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
def test_softmax_inverse_temperature_must_be_finite(beta):
    with pytest.raises(ConfigError, match="finite and positive"):
        softmax_operator(beta)
    assert argmax_operator().kind == "argmax"


BETAS = (1e2, 1e3, 1e6, 1e9)


def _oracle_rows(n_actions, beta, rng):
    """Q rows for one action count: random, exact ties at the max and below
    it, all equal, signed zeros, and gaps just short of, at and far past
    the point where exp(-beta * gap) underflows to subnormals and to zero."""
    rows = [
        rng.normal(size=n_actions),
        rng.integers(0, 3, size=n_actions).astype(float),  # exact ties
        np.full(n_actions, -4.25),
        np.zeros(n_actions),
        np.where(rng.random(n_actions) < 0.5, -0.0, 0.0),
    ]
    for gap in (700.0, 745.0, 760.0, 1e6):
        row = -gap / beta * rng.integers(0, 3, size=n_actions)
        rows.append(row)
        rows.append(row + rng.normal(scale=1e-3 / beta, size=n_actions))
    rows.append(1e3 * rng.normal(size=n_actions))
    return rows


def _assert_matches_oracle(op, q_row, seed):
    got, want = policy_row(op, q_row), policy_row_oracle(op, q_row)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), q_row
    rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert sample_action(got, rng) == sample_action_oracle(want, rng_oracle)
    assert rng.bit_generator.state == rng_oracle.bit_generator.state


def _pass_cache_run(env, op):
    """A one-hot run drawing its actions under ``op``.  Its ``_draw_action``
    reads only its row source ``q_rows`` and the game's feasible actions."""
    phi, basis = one_hot_feature_map(env.states, env.actions), one_hot_measure_basis(env.states)
    return learners._OnlineRun(env, phi, basis, op, np.inf)


def _assert_pass_cache_matches_oracle(run, q, visits, draws, draws_oracle):
    """Actions drawn from ``q`` through a fresh run's row cache at the
    visited states equal oracle draws from rows recomputed at every visit:
    the first visit of a state misses the cache, every later one draws from
    its cached CDF."""
    feasible = run.feasible
    run.q_rows, run.rng = q.__getitem__, draws
    for s in visits:
        feas = np.arange(q.shape[1]) if feasible is None else feasible[s]
        want = feas[sample_action_oracle(policy_row_oracle(run.pol, q[s, feas]), draws_oracle)]
        assert run._draw_action(s) == want, (s, q[s])
    assert sorted(run.rows) == sorted(set(visits))


def _visits(n_states, rng):
    """Every state once, then repeats in random order."""
    return list(range(n_states)) + rng.integers(0, n_states, size=3 * n_states).tolist()


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n_actions", [1, 2, 5, 20, 200])
def test_policy_row_and_draws_match_the_frozen_oracle(beta, n_actions):
    rng = np.random.default_rng(int(beta) % 9973 + n_actions)
    for op in (softmax_operator(beta), argmax_operator()):
        for i, q_row in enumerate(_oracle_rows(n_actions, beta, rng)):
            _assert_matches_oracle(op, q_row, seed=i)
            # rows of an (S, A) table, as the learner passes them: a
            # contiguous row and a strided one
            table = np.stack([q_row, -q_row])
            _assert_matches_oracle(op, table[0], seed=i)
            _assert_matches_oracle(op, np.asfortranarray(table)[0], seed=i)
        q = np.array(_oracle_rows(n_actions, beta, rng))
        # the rows stacked into one block, as a run's cache refresh passes
        # them: row i of the block's distribution and of its CDF has the
        # bytes of the oracle row
        for n in (1, 2, 3, 7, q.shape[0]):
            block = policy_row(op, q[:n])
            cdfs = block.cumsum(axis=1)
            assert block.shape == cdfs.shape == (n, n_actions)
            for q_row, got, cdf in zip(q[:n], block, cdfs):
                want = policy_row_oracle(op, q_row)
                assert got.tobytes() == want.tobytes(), (n, q_row)
                assert cdf.tobytes() == want.cumsum().tobytes(), (n, q_row)
        draws, draws_oracle = np.random.default_rng(n_actions), np.random.default_rng(n_actions)
        _assert_pass_cache_matches_oracle(_pass_cache_run(toy_finite_env(3, 2, seed=7), op), q,
                                          _visits(q.shape[0], rng), draws, draws_oracle)
        assert draws.bit_generator.state == draws_oracle.bit_generator.state


@pytest.mark.parametrize("beta", BETAS)
def test_policy_on_sioux_falls_feasible_subsets_matches_the_frozen_oracle(beta):
    env = sioux_falls_env()
    feasible = env.actions.feasible
    rng = np.random.default_rng(7)
    for q in (rng.normal(size=(env.n_states, env.n_actions)),
              rng.integers(0, 2, size=(env.n_states, env.n_actions)) * -1e-9):
        for op in (softmax_operator(beta), argmax_operator()):
            want = np.zeros_like(q)
            for s, feas in enumerate(feasible):
                _assert_matches_oracle(op, q[s, feas], seed=s)
                want[s, feas] = policy_row_oracle(op, q[s, feas])
            assert policy_matrix(op, q, feasible).tobytes() == want.tobytes()
            draws, draws_oracle = np.random.default_rng(3), np.random.default_rng(3)
            _assert_pass_cache_matches_oracle(_pass_cache_run(env, op), q,
                                              _visits(env.n_states, rng), draws, draws_oracle)
            assert draws.bit_generator.state == draws_oracle.bit_generator.state


def test_draws_at_or_past_the_float_total_mass_match_the_frozen_oracle():
    # a float total mass below one (seven equal softmax masses), a zero-mass
    # action inside the row and two trailing ones: a draw at or past the
    # total takes the last action of nonzero mass, with or without a cached
    # CDF, on a cache miss and on a hit
    op = softmax_operator(1e9)
    q = np.array([[0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1.0]])
    dist = policy_row(op, q[0])
    total = dist.cumsum()[-1]
    assert total < 1.0 and dist[2] == dist[-1] == dist[-2] == 0.0
    draws = [total, np.nextafter(total, 1.0), 0.0, np.nextafter(total, 0.0), 1.0]
    for u in draws:
        want = sample_action_oracle(dist, FixedDraws([u]))
        assert sample_action(dist, FixedDraws([u])) == want
        assert sample_action(dist, FixedDraws([u]), dist.cumsum()) == want
    assert [sample_action_oracle(dist, FixedDraws([u])) for u in draws] == [7, 7, 0, 7, 7]
    run = _pass_cache_run(toy_finite_env(3, 2, seed=7), op)
    _assert_pass_cache_matches_oracle(run, q, [0] * len(draws), FixedDraws(draws),
                                      FixedDraws(draws))
