import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfglearn.core import ActionSpace, Observation, RunConfig, StateSpace, StepSizeSchedule
from mfglearn.envs import toy_finite_env
from mfglearn.learners import _OnlineRun
from mfglearn.lfa import (
    BasisError,
    gram_matrix,
    one_hot_feature_map,
    one_hot_measure_basis,
    project_simplex,
    semi_gradient_eta,
    semi_gradient_theta,
    tan_normal_basis,
)

from mfglearn.metrics import q_table
from mfglearn.policy import argmax_operator

from .conftest import identity_features, kkt_simplex_projection, simplex_projection_oracle

GRID50 = StateSpace(size=50, kind="grid", delta=0.02, wrap=True)

# frozen golden values: tan-normal basis, d2 = 2, 50-cell grid, defaults
# c = 1.2 and v = d2/2, computed by an independent scalar-loop quadrature
# oracle and cross-checked at 0.001 resolution (relative gap 1.4e-8)
TAN_NORMAL_GRAM_D2_50 = np.array(
    [
        [1.33592022692397, 0.6725503055994237],
        [0.6725503055994237, 1.3359202269239705],
    ]
)


# -- feature maps ------------------------------------------------------------


def test_one_hot_feature_indexing_row_major():
    env = toy_finite_env(2, 2, seed=0)
    phi = one_hot_feature_map(env.states, env.actions)
    assert phi.one_hot and phi.features is None and phi.d1 == 4
    dense = identity_features(2, 2)
    assert not dense.one_hot and dense.d1 == 4
    np.testing.assert_array_equal(dense.features[1, 0], [0.0, 0.0, 1.0, 0.0])
    theta = np.arange(4.0)
    assert q_table(theta, phi, env)[1, 0] == 2.0
    np.testing.assert_array_equal(q_table(theta, dense, env), q_table(theta, phi, env))


def test_one_hot_feature_unit_norm():
    # with theta = 0, gamma = 0 and r = -1 the semi-gradient is phi(s, a)
    phi = identity_features(3, 4)
    for s in range(3):
        for a in range(4):
            g = semi_gradient_theta(np.zeros(12), Observation(s, a, -1.0, 0, 0), phi, 0.0)
            assert np.linalg.norm(g) == 1.0 and g[s * 4 + a] == 1.0


def test_one_hot_feature_degenerate_space():
    phi = one_hot_feature_map(
        StateSpace(size=1, kind="grid", delta=1.0), ActionSpace(size=1)
    )
    assert phi.d1 == 1
    np.testing.assert_array_equal(identity_features(1, 1).features[0, 0], [1.0])


# -- measure bases -----------------------------------------------------------


def test_one_hot_basis_is_tabular_identity():
    basis = one_hot_measure_basis(StateSpace(size=3, kind="edges"))
    np.testing.assert_array_equal(basis.gram, np.eye(3))
    assert basis.identity_gram
    assert basis.norm_bound == 1.0


def test_one_hot_basis_evaluate():
    basis = one_hot_measure_basis(StateSpace(size=2, kind="edges"))
    np.testing.assert_array_equal(basis.evaluate(0), [1.0, 0.0])


def test_gram_matrix_identity_for_one_hot():
    np.testing.assert_array_equal(gram_matrix(np.eye(4), 1.0), np.eye(4))


def test_gram_matrix_identical_rows():
    row = np.array([0.2, 0.5, 0.3])
    g = gram_matrix(np.stack([row, row]), 1.0)
    assert np.all(g == g[0, 0])


def test_gram_matrix_matches_naive_double_loop():
    rng = np.random.default_rng(5)
    dens = rng.random((3, 17))
    delta = 1.0 / 17
    expected = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            expected[i, j] = delta * sum(dens[i, s] * dens[j, s] for s in range(17))
    got = gram_matrix(dens, delta)
    np.testing.assert_allclose(got, expected, atol=1e-14)
    np.testing.assert_array_equal(got, got.T)


def test_gram_matrix_psd_for_random_bases():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dens = rng.random((4, 30))
        g = gram_matrix(dens, 1.0 / 30)
        np.testing.assert_array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() >= -1e-10


def test_tan_normal_golden_gram():
    basis = tan_normal_basis(GRID50, 2)
    np.testing.assert_allclose(basis.gram, TAN_NORMAL_GRAM_D2_50, atol=1e-12)


def test_tan_normal_cross_resolution_stability():
    fine = tan_normal_basis(StateSpace(size=1000, kind="grid", delta=0.001), 2)
    rel = np.abs(fine.gram - TAN_NORMAL_GRAM_D2_50) / TAN_NORMAL_GRAM_D2_50
    assert rel.max() < 1e-6


def test_tan_normal_rows_are_probability_measures():
    basis = tan_normal_basis(GRID50, 5)
    sums = basis.densities.sum(axis=1) * basis.delta
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    assert basis.densities.min() >= 0.0
    np.testing.assert_allclose(basis.masses.sum(axis=1), 1.0, atol=1e-12)


def test_tan_normal_single_bump():
    basis = tan_normal_basis(GRID50, 1)
    assert basis.d2 == 1
    m = basis.represent(np.array([1.0]))
    assert m.sum() == pytest.approx(1.0, abs=1e-12)


def test_tan_normal_degenerate_raises():
    with pytest.raises(BasisError):
        tan_normal_basis(GRID50, 2, c=0.0)
    with pytest.raises(BasisError):
        tan_normal_basis(StateSpace(size=3, kind="edges"), 2)


# -- projections -------------------------------------------------------------


def test_project_simplex_identity_on_simplex():
    v = np.array([0.3, 0.2, 0.5])
    np.testing.assert_array_equal(project_simplex(v), v)


def test_project_simplex_axis_point():
    np.testing.assert_array_equal(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])


def test_project_simplex_clamps_negative():
    got = project_simplex(np.array([0.5, 0.5, -1.0]))
    expected = kkt_simplex_projection(np.array([0.5, 0.5, -1.0]))
    np.testing.assert_allclose(got, [0.5, 0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_project_simplex_rejects_non_finite():
    with pytest.raises(ValueError):
        project_simplex(np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        project_simplex(np.array([np.nan, 0.0]))


def test_project_simplex_idempotent_bitwise():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        d = rng.integers(1, 8)
        v = rng.uniform(-2.0, 2.0, size=d)
        once = project_simplex(v)
        twice = project_simplex(once)
        np.testing.assert_array_equal(once, twice)
        assert once.min() >= 0.0
        assert abs(once.sum() - 1.0) <= 1e-12


def test_project_simplex_optimality_certificate():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        v = rng.uniform(-2.0, 2.0, size=6)
        p = project_simplex(v)
        xs = rng.dirichlet(np.ones(6), size=1000)
        dist_p = ((p - v) ** 2).sum()
        dists = ((xs - v) ** 2).sum(axis=1)
        assert dist_p <= dists.min() + 1e-12


def test_project_simplex_matches_kkt_oracle():
    rng = np.random.default_rng(29)
    for d in range(1, 6):
        for _ in range(200):
            v = rng.uniform(-2.0, 2.0, size=d)
            np.testing.assert_allclose(
                project_simplex(v), kkt_simplex_projection(v), atol=1e-9
            )


def test_project_ball():
    # the learner's projection after a value update, for both feature paths:
    # theta is scaled back onto the ball when it leaves it, else kept
    env = toy_finite_env(2, 1, seed=0)
    for phi in (one_hot_feature_map(env.states, env.actions), identity_features(2, 1)):
        run = _OnlineRun(env, phi, one_hot_measure_basis(env.states), argmax_operator(),
                         gamma=0.0, radius=5.0)
        run.set_theta([3.0, 4.0])
        run.update_theta(0, 0, 3.0, 1, 0, alpha=0.5)  # zero TD error
        np.testing.assert_array_equal(run.theta, [3.0, 4.0])
        run.set_theta([3.0, 8.0])
        run.update_theta(0, 0, 9.0, 1, 0, alpha=0.5)  # [6, 8], then onto the ball
        np.testing.assert_allclose(run.theta, [3.0, 4.0], rtol=1e-15)
    with pytest.raises(ValueError):
        RunConfig(total_steps=1, schedule=StepSizeSchedule("constant", 0.5), gamma=0.5,
                  inverse_temperature=1.0, ball_radius=0.0, seed=0)


def test_ball_guard_fires_just_below_the_computed_norm():
    # entries of equal magnitude make sqrt(d1) * max|theta_i| equal to the
    # norm, so only the guard's rounding margin separates it from the exact
    # test: at the largest radius below the computed norm the ball fires,
    # at the computed norm it does not
    rng = np.random.default_rng(31)
    for n_states, n_actions in ((2, 1), (3, 1), (5, 1), (3, 2), (5, 2), (6, 6)):
        env = toy_finite_env(n_states, n_actions, seed=0)
        d1 = n_states * n_actions
        phi = one_hot_feature_map(env.states, env.actions)
        for _ in range(50):
            theta = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0], size=d1)
            norm = float(np.sqrt(theta @ theta))
            for radius, fires in ((np.nextafter(norm, 0.0), True), (norm, False)):
                run = _OnlineRun(env, phi, one_hot_measure_basis(env.states),
                                 argmax_operator(), gamma=0.0, radius=radius)
                run.set_theta(theta)
                run.update_theta(0, 0, theta[0], 1, 0, alpha=0.5)  # zero TD error
                want = theta * (radius / norm) if fires else theta
                assert run.theta.tobytes() == want.tobytes(), (d1, radius)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8),
)
def test_project_simplex_always_lands_on_simplex(values):
    p = project_simplex(np.array(values))
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-12


_HUGE = st.floats(min_value=1e306, max_value=np.finfo(np.float64).max)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, inf - inf
@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.lists(st.floats(), max_size=12),  # inf, nan and the empty list included
    st.lists(st.floats(-5, 5), min_size=1, max_size=12),
    st.lists(st.floats(max_value=0.0, allow_infinity=False), min_size=1, max_size=12),
    st.lists(st.one_of(_HUGE, _HUGE.map(lambda x: -x)), min_size=1, max_size=12),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)
    .filter(lambda x: sum(x) > 0.0)
    .map(lambda x: (np.array(x) / np.sum(x)).tolist()),  # on or next to the simplex
))
@example([1e308, 1e308])  # finite entries whose sum overflows
@example([1e308, 1e308, -1e308, 0.5])
@example([np.inf, -np.inf])
@example([np.nan])
@example([0.25, 0.25, 0.5])
def test_project_simplex_matches_the_two_reduction_oracle(values):
    # one sum for the finiteness and idempotence tests: the same bytes, and
    # the same error wherever the full-scan oracle raises one (a ValueError
    # for non-finite input; an IndexError where the cumulative sum overflows)
    v = np.array(values, dtype=np.float64)
    try:
        want = simplex_projection_oracle(v)
    except (ValueError, IndexError) as exc:
        with pytest.raises(type(exc)):
            project_simplex(v)
        return
    got = project_simplex(v)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("v", [np.zeros((2, 2)), np.array(0.5), np.full((1, 2), np.inf)])
def test_project_simplex_rejects_what_the_oracle_rejects(v):
    with pytest.raises(ValueError):
        simplex_projection_oracle(v)
    with pytest.raises(ValueError):
        project_simplex(v)


# -- semi-gradients ----------------------------------------------------------


def test_semi_gradient_theta_substitution():
    phi = identity_features(2, 2)
    obs = Observation(s=0, a=1, r=1.0, s_next=1, a_next=0)
    g = semi_gradient_theta(np.zeros(4), obs, phi, gamma=0.0)
    expected = np.zeros(4)
    expected[0 * 2 + 1] = -1.0
    np.testing.assert_array_equal(g, expected)


def test_semi_gradient_theta_self_loop_shrink():
    phi = identity_features(2, 2)
    theta = np.zeros(4)
    theta[1 * 2 + 1] = 1.0
    obs = Observation(s=1, a=1, r=0.0, s_next=1, a_next=1)
    g = semi_gradient_theta(theta, obs, phi, gamma=0.98)
    assert g[1 * 2 + 1] == pytest.approx(0.02, abs=1e-15)


def test_semi_gradient_theta_zero_at_bellman_fixed_point():
    # two-state deterministic cycle, one action; theta* solved by hand:
    # q0 = r0 + gamma*q1, q1 = r1 + gamma*q0
    r0, r1, gamma = 1.0, -0.5, 0.5
    q0 = (r0 + gamma * r1) / (1 - gamma * gamma)
    q1 = (r1 + gamma * q0)
    phi = identity_features(2, 1)
    theta = np.array([q0, q1])
    g0 = semi_gradient_theta(theta, Observation(0, 0, r0, 1, 0), phi, gamma)
    g1 = semi_gradient_theta(theta, Observation(1, 0, r1, 0, 0), phi, gamma)
    np.testing.assert_allclose(g0 + g1, 0.0, atol=1e-12)
    np.testing.assert_allclose(g0, 0.0, atol=1e-12)


def test_semi_gradient_theta_tabular_exactness():
    # with one-hot features the semi-gradient is the TD error
    # (q(s,a) - gamma q(s',a')) - r placed at index (s,a), bit for bit
    phi = identity_features(3, 2)
    rng = np.random.default_rng(31)
    for _ in range(50):
        theta = rng.normal(size=6)
        s, a, sn, an = rng.integers(0, [3, 2, 3, 2])
        r = float(rng.normal())
        gamma = float(rng.random())
        g = semi_gradient_theta(theta, Observation(s, a, r, sn, an), phi, gamma)
        q = theta.reshape(3, 2)
        expected = np.zeros(6)
        expected[s * 2 + a] = (q[s, a] - gamma * q[sn, an]) - r
        np.testing.assert_array_equal(g, expected)


def test_semi_gradient_eta_tabular_rule():
    basis = one_hot_measure_basis(StateSpace(size=4, kind="edges"))
    eta = np.array([0.1, 0.2, 0.3, 0.4])
    expected = eta.copy()
    expected[2] -= 1.0
    np.testing.assert_array_equal(semi_gradient_eta(eta, 2, basis), expected)


def test_semi_gradient_eta_fixed_point_of_empirical_update():
    basis = one_hot_measure_basis(StateSpace(size=3, kind="edges"))
    eta = np.array([0.0, 1.0, 0.0])
    np.testing.assert_array_equal(semi_gradient_eta(eta, 1, basis), np.zeros(3))


def test_semi_gradient_eta_matches_direct_formula_for_tan_normal():
    basis = tan_normal_basis(GRID50, 2)
    rng = np.random.default_rng(3)
    eta = rng.dirichlet(np.ones(2))
    s_next = 13
    got = semi_gradient_eta(eta, s_next, basis)
    expected = TAN_NORMAL_GRAM_D2_50 @ eta - basis.densities[:, s_next]
    np.testing.assert_allclose(got, expected, atol=1e-12)
