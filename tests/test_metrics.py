import numpy as np
import pytest

from mfglearn.cli import ExperimentSpec, cmd_run
from mfglearn.core import ActionSpace, StateSpace, UnifiedParameter
from mfglearn.envs import (
    EnvironmentModel,
    flocking_env,
    ring_road_env,
    sioux_falls_env,
    toy_finite_env,
)
from mfglearn.learners import _OnlineRun, _Recorder, model_based_fpi_fp
from mfglearn.lfa import (
    FeatureMap,
    one_hot_feature_map,
    one_hot_measure_basis,
    tan_normal_basis,
)
from mfglearn import metrics
from mfglearn.metrics import (
    MetricsError,
    _expected_next,
    _eye_minus,
    dense_policy_kernel,
    exploitability,
    induced_population,
    mean_path_semigradient,
    policy_evaluation,
    resample_masses,
    span_residual,
    stationary_distribution,
    q_table,
    value_iteration,
)
from mfglearn.policy import argmax_operator, policy_matrix, softmax_operator

from .conftest import identity_features, stationary_oracle
from .test_envs import eigen_stationary


def make_env(kernel_rows, rewards, gamma=0.5, feasible=None):
    """Tiny hand-specified environment; kernel_rows has shape (S, A, S)."""
    kernel_rows = np.asarray(kernel_rows, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    n_s, n_a, _ = kernel_rows.shape
    idx = np.broadcast_to(np.arange(n_s)[None, None, :], kernel_rows.shape)

    def sample_next(s, a, mu, rng):
        return int(np.searchsorted(np.cumsum(kernel_rows[s, a]), rng.random(), side="right"))

    return EnvironmentModel(
        name="inline",
        states=StateSpace(size=n_s, kind="edges"),
        actions=ActionSpace(size=n_a, feasible=feasible),
        gamma=gamma,
        reward=lambda s, a, mu: float(rewards[s, a]),
        reward_matrix=lambda mu: rewards.copy(),
        sample_next=sample_next,
        kernel_support=lambda mu: (idx, kernel_rows),
        reward_bound=float(np.abs(rewards).max()) or 1.0,
        population_independent=True,
    )


def cycle_env(n):
    kernel = np.zeros((n, 1, n))
    for s in range(n):
        kernel[s, 0, (s + 1) % n] = 1.0
    return make_env(kernel, np.zeros((n, 1)))


# -- mse ----------------------------------------------------------------------


def recorded_mse(env, eta, mu_ref, basis=None):
    """The MSE a run's recorder writes while its population weights are eta."""
    basis = basis or one_hot_measure_basis(env.states)
    run = _OnlineRun(env, one_hot_feature_map(env.states, env.actions), basis,
                     argmax_operator(), 1.0)
    run.eta = np.array(eta)
    rec = _Recorder(run, None, np.asarray(mu_ref), None, False)
    rec.snapshot(0)
    return rec.mse[0]


def test_mse_zero_on_equal():
    m = np.array([0.25, 0.75])
    assert recorded_mse(toy_finite_env(2, 1, seed=0), m, m) == 0.0


def test_mse_opposite_vertices():
    assert recorded_mse(toy_finite_env(2, 1, seed=0), [1.0, 0.0], [0.0, 1.0]) == 2.0


def test_mse_rejects_length_mismatch():
    with pytest.raises(ValueError):
        recorded_mse(toy_finite_env(3, 1, seed=0), np.ones(3) / 3, np.ones(4) / 4)


def test_mse_composes_with_represented_measure():
    env = ring_road_env(50)
    basis = tan_normal_basis(env.states, 2)
    eta = np.array([0.3, 0.7])
    ref = np.full(50, 0.02)
    got = recorded_mse(env, eta, ref, basis)
    assert got == pytest.approx(((basis.represent(eta) - ref) ** 2).sum(), rel=1e-14)
    assert got > 0.0


# -- induced populations -------------------------------------------------------


def test_induced_population_cycle_is_uniform():
    env = cycle_env(6)
    pi = np.ones((6, 1))
    np.testing.assert_allclose(induced_population(pi, env), 1.0 / 6.0, atol=1e-12)


def test_induced_population_fully_mixing_kernel():
    rho = np.array([0.1, 0.2, 0.7])
    kernel = np.broadcast_to(rho, (3, 2, 3)).copy()
    env = make_env(kernel, np.zeros((3, 2)))
    pi = np.full((3, 2), 0.5)
    np.testing.assert_allclose(induced_population(pi, env), rho, atol=1e-12)


def test_induced_population_matches_eigen_oracle(toy_env):
    rng = np.random.default_rng(0)
    pi = rng.dirichlet(np.ones(2), size=3)
    mu = induced_population(pi, toy_env)
    # feed the converged population back into the kernel for the oracle
    from mfglearn.metrics import dense_policy_kernel

    p = dense_policy_kernel(pi, toy_env, mu)
    np.testing.assert_allclose(mu, eigen_stationary(p), atol=1e-9)
    assert abs(mu.sum() - 1.0) <= 1e-12
    assert mu.min() >= 0.0


def test_stationary_distribution_frozen_kernel(toy_env):
    rng = np.random.default_rng(1)
    pi = rng.dirichlet(np.ones(2), size=3)
    mu_env = rng.dirichlet(np.ones(3))
    mu = stationary_distribution(pi, toy_env, mu_env)
    from mfglearn.metrics import dense_policy_kernel

    p = dense_policy_kernel(pi, toy_env, mu_env)
    np.testing.assert_allclose(mu @ p, mu, atol=1e-11)


def _functional_chain(successor) -> np.ndarray:
    """Kernel moving all mass of state s to ``successor[s]``."""
    return np.eye(len(successor))[list(successor)]


def _lazy_reset(n: int, reset: float) -> np.ndarray:
    """Kernel staying put with probability 1 - reset, else moving to state 0."""
    p = (1.0 - reset) * np.eye(n)
    p[:, 0] += reset
    return p


def _three_classes_and_transients() -> np.ndarray:
    """A mixing class {0, 1}, an absorbing state 2, a periodic class {3, 4},
    and transient states 5 and 6 that reach all three and each other."""
    p = np.zeros((7, 7))
    p[0, [0, 1]] = 0.25, 0.75
    p[1, [0, 1]] = 0.5, 0.5
    p[2, 2] = 1.0
    p[3, 4] = p[4, 3] = 1.0
    p[5, [0, 2, 6]] = 0.3, 0.2, 0.5
    p[6, [3, 5, 6]] = 0.6, 0.3, 0.1
    return p


SYNTHETIC_CHAINS = {
    "lone-state": np.ones((1, 1)),
    "identity": np.eye(5),
    "6-cycle": _functional_chain([1, 2, 3, 4, 5, 0]),
    "transient-into-3-cycle": _functional_chain([1, 2, 3, 4, 2]),
    # feeders 0 and 3 make the masses on both cycles uneven
    "disjoint-2-and-3-cycles": _functional_chain([1, 2, 1, 4, 5, 6, 4]),
    "path-into-absorbing-cell": _functional_chain([1, 2, 3, 3]),
    "three-classes-and-transients": _three_classes_and_transients(),
    "fully-mixing": np.random.default_rng(4).dirichlet(np.ones(8), size=8),
    "lazy-reset": _lazy_reset(20, 1e-3),
}


def _classes_by_reachability(p: np.ndarray):
    """(closed classes, transient states) of p from the transitive closure of
    its support: s lies in a closed class when every state it reaches
    reaches it back, and that class is the set of states s reaches."""
    n = p.shape[0]
    reach = (p != 0.0) | np.eye(n, dtype=bool)
    for _ in range(max(n - 1, 1).bit_length()):
        reach = (reach.astype(np.float64) @ reach) > 0.0
    closed = np.array([reach[reach[s], s].all() for s in range(n)])
    classes = sorted({tuple(np.flatnonzero(reach[s])) for s in np.flatnonzero(closed)})
    return [list(c) for c in classes], np.flatnonzero(~closed)


def _check_uniform_start_limit(p: np.ndarray) -> None:
    """The closed-class limit of p passes its certificate, is stationary, is
    0 on transient states, gives each closed class the mass a walk from the
    uniform start ends in it with, and lies within l1 1e-10 of squaring."""
    assert metrics._closed_class_limit(p) is not None
    got = metrics._stationary_of_dense(p)
    want = stationary_oracle(p)  # squaring of (I + p)/2: its class sums are the absorption masses
    classes, transient = _classes_by_reachability(p)
    assert np.abs(got @ p - got).sum() < metrics._POP_TOL
    assert abs(got.sum() - 1.0) <= 1e-15
    assert (got[transient] == 0.0).all()
    for members in classes:
        assert abs(got[members].sum() - want[members].sum()) < 1e-10
    assert np.abs(got - want).sum() < 1e-10


@pytest.mark.parametrize("name", sorted(SYNTHETIC_CHAINS))
def test_uniform_start_limit_on_synthetic_chains(name):
    _check_uniform_start_limit(SYNTHETIC_CHAINS[name])


def _captured_kernels(monkeypatch, run):
    """Every kernel handed to the stationary solver while run() runs."""
    solve = metrics._stationary_of_dense
    kernels = []

    def capture(p):
        kernels.append(p.copy())
        return solve(p)

    monkeypatch.setattr(metrics, "_stationary_of_dense", capture)
    run()
    monkeypatch.setattr(metrics, "_stationary_of_dense", solve)
    assert kernels
    return kernels


def test_uniform_start_limit_on_reference_kernels(monkeypatch):
    """Every kernel a default reference of ring-road-50, ring-road-200,
    flocking-50 and Sioux Falls hands to the stationary solver.  Flocking's
    chains have up to 9 closed classes and Sioux Falls' up to 7, with
    transient states; squaring leaves up to l1 4e-11 on flocking's."""
    most = {}
    for name in ("ring-road-50", "ring-road-200", "flocking-50", "sioux-falls"):
        env = SHIPPED_ENVS[name]()
        for p in _captured_kernels(monkeypatch, lambda: model_based_fpi_fp(env)):
            _check_uniform_start_limit(p)
            n_classes = len(_classes_by_reachability(p)[0])
            most[name] = max(most.get(name, 0), n_classes)
    assert most["ring-road-50"] == most["ring-road-200"] == 1
    assert most["flocking-50"] > 1 and most["sioux-falls"] > 1


def test_a_numerically_reducible_chain_takes_squarings_bytes(monkeypatch, tmp_path):
    # the snapshots of a Sioux Falls SemiSGD run are softmax chains with
    # probabilities near 1e-320: reducible in their support, with transient
    # states that are closed in floating point because their only exits are
    # that small, so the closed-class solve fails its certificate there
    spec = ExperimentSpec(env="sioux-falls", algorithm="semisgd", steps=3000, alpha=1e-2,
                          cadence=1500, expl_every=1500, reference_outer_iters=3, seeds=(0,),
                          out=str(tmp_path / "run"))
    kernels = _captured_kernels(monkeypatch, lambda: cmd_run(spec))
    reducible = [p for p in kernels if metrics._closed_class_limit(p) is None]
    assert reducible
    for p in reducible:
        assert 0.0 < p[p > 0.0].min() < 1e-300
        assert metrics._stationary_of_dense(p).tobytes() == stationary_oracle(p).tobytes()


def test_closed_classes_of_long_paths_and_cycles():
    # the search keeps its own stack: a path 5,000 states deep raises no
    # RecursionError
    n = 5000
    path = list(range(1, n)) + [n - 1]
    assert metrics._closed_classes(n, list(range(n + 1)), path) == [[n - 1]]
    cycle = list(range(1, n)) + [0]
    assert metrics._closed_classes(n, list(range(n + 1)), cycle) == [list(range(n))]


def test_closed_classes_match_reachability_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 25))
        p = (rng.random((n, n)) < rng.uniform(0.0, 0.3)).astype(np.float64)
        tails, heads = np.nonzero(p)
        starts = np.searchsorted(tails, np.arange(n + 1)).tolist()
        got = metrics._closed_classes(n, starts, heads.tolist())
        assert sorted(got) == _classes_by_reachability(p)[0]


def test_a_periodic_class_gets_the_uniform_vector_exactly():
    p = SYNTHETIC_CHAINS["6-cycle"]
    assert metrics._stationary_of_dense(p).tobytes() == np.full(6, 1.0 / 6.0).tobytes()


# the uniform policy's exploitability (every online run's t = 0 snapshot) as
# float.hex, recorded with the closed-class stationary solve.
UNIFORM_POLICY_EXPLOITABILITY = {
    "ring-road-50": "0x1.4cc1624f554d7p-4",
    "ring-road-200": "0x1.4585bdf48141ap-4",
    "flocking-50": "0x1.757b7340c3125p-2",
    "sioux-falls": "0x1.ec06436275c16p+1",
}


@pytest.mark.parametrize("name", sorted(UNIFORM_POLICY_EXPLOITABILITY))
def test_uniform_policy_exploitability_is_unchanged(name):
    env = SHIPPED_ENVS[name]()
    zeros = np.zeros((env.n_states, env.n_actions))
    pi = policy_matrix(softmax_operator(1.0), zeros, env.actions.feasible)
    assert exploitability(pi, env).hex() == UNIFORM_POLICY_EXPLOITABILITY[name]


# -- value iteration and policy evaluation -------------------------------------


def test_value_iteration_gamma_zero_single_sweep():
    env = toy_finite_env(3, 2, seed=4, gamma=0.0)
    mu = env.initial_state
    v, q, pi = value_iteration(env, mu)
    np.testing.assert_allclose(v, env.reward_matrix(mu).max(axis=1), atol=1e-12)


def test_value_iteration_geometric_series():
    env = make_env(np.ones((1, 1, 1)), np.ones((1, 1)), gamma=0.5)
    v, q, pi = value_iteration(env, env.initial_state)
    assert v[0] == pytest.approx(2.0, abs=1e-9)


def test_value_iteration_matches_enumeration_oracle():
    # 2-state, 2-action chain solved by enumerating all deterministic
    # policies with exact linear solves
    kernel = np.zeros((2, 2, 2))
    kernel[0, 0] = [1.0, 0.0]
    kernel[0, 1] = [0.2, 0.8]
    kernel[1, 0] = [0.6, 0.4]
    kernel[1, 1] = [0.0, 1.0]
    rewards = np.array([[1.0, 0.0], [0.5, -0.2]])
    env = make_env(kernel, rewards, gamma=0.9)
    v, q, pi = value_iteration(env, env.initial_state)

    best = np.full(2, -np.inf)
    for a0 in range(2):
        for a1 in range(2):
            p = np.stack([kernel[0, a0], kernel[1, a1]])
            r = np.array([rewards[0, a0], rewards[1, a1]])
            v_pi = np.linalg.solve(np.eye(2) - 0.9 * p, r)
            best = np.maximum(best, v_pi)
    np.testing.assert_allclose(v, best, atol=1e-8)


def test_value_iteration_respects_feasibility():
    kernel = np.zeros((2, 2, 2))
    kernel[:, :, 0] = 1.0
    rewards = np.array([[0.0, 100.0], [1.0, 100.0]])
    feasible = (np.array([0]), np.array([0]))
    env = make_env(kernel, rewards, gamma=0.0, feasible=feasible)
    v, q, pi = value_iteration(env, env.initial_state)
    np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-12)
    np.testing.assert_array_equal(pi.argmax(axis=1), [0, 0])


def tie_env():
    """Actions 0 and 2 are copies, so their Q values tie exactly; action 1
    pays more now and leads to the worst state."""
    kernel = np.zeros((3, 3, 3))
    kernel[:, 0] = kernel[:, 2] = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
    kernel[:, 1, 0] = 1.0
    rewards = np.array([[0.0, 0.2, 0.0], [1.0, 1.2, 1.0], [2.0, 2.2, 2.0]])
    return make_env(kernel, rewards, gamma=0.9)


def test_policy_iteration_ties_terminate_at_lowest_index():
    env = tie_env()
    v, q, pi = value_iteration(env, env.initial_state)
    np.testing.assert_array_equal(q[:, 0], q[:, 2])
    np.testing.assert_array_equal(pi.argmax(axis=1), [0, 0, 0])
    v_seed, _, _ = seed_value_iteration(env, env.initial_state)
    np.testing.assert_allclose(v, v_seed, rtol=0.0, atol=1e-9 * value_scale(env))


def test_policy_iteration_raises_when_no_policy_is_stable(monkeypatch):
    # the first policy, greedy in the reward, plays action 1 and must improve
    monkeypatch.setattr(metrics, "_MAX_POLICY_STEPS", 1)
    env = tie_env()
    with pytest.raises(MetricsError):
        value_iteration(env, env.initial_state)


SHIPPED_ENVS = {
    "ring-road-50": lambda: ring_road_env(50),
    "ring-road-200": lambda: ring_road_env(200),
    "flocking-50": lambda: flocking_env(50),
    "sioux-falls": sioux_falls_env,
    "toy-3x2-seed7": lambda: toy_finite_env(3, 2, seed=7),
}


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def value_scale(env):
    return env.reward_bound / (1.0 - env.gamma)


def seed_value_iteration(env, mu):
    """Plain value iteration with the expectation as a trailing-axis numpy
    sum, stopped once a sweep moves V by less than 1e-12 * R / (1 - gamma).
    Returns (V, Q, lowest-index greedy policy), like ``value_iteration``."""
    r = env.reward_matrix(mu)
    idx, probs = env.kernel_support(mu)
    mask = np.ones((env.n_states, env.n_actions), dtype=bool)
    if env.actions.feasible is not None:
        mask[:] = False
        for s, feas in enumerate(env.actions.feasible):
            mask[s, feas] = True
    v = np.zeros(env.n_states)
    for _ in range(100_000):
        q = r + env.gamma * (probs * v[idx]).sum(axis=-1)
        v_next = np.where(mask, q, -np.inf).max(axis=1)
        residual = float(np.abs(v_next - v).max())
        v = v_next
        if residual < 1e-12 * value_scale(env):
            break
    pi = np.zeros_like(q)
    pi[np.arange(env.n_states), np.argmax(np.where(mask, q, -np.inf), axis=1)] = 1.0
    return v, q, pi


@pytest.mark.parametrize("name", sorted(SHIPPED_ENVS))
def test_expected_next_bit_identical_to_trailing_sum(name):
    env = SHIPPED_ENVS[name]()
    rng = np.random.default_rng(3)
    mu = rng.dirichlet(np.ones(env.n_states))
    idx, probs = env.kernel_support(mu)
    n = env.n_states
    for v in (
        *(rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n) for _ in range(10)),
        np.full(n, -0.0),
        np.where(rng.random(n) < 0.5, -0.0, 0.0),
    ):
        np.testing.assert_array_equal(
            bits(_expected_next(idx, probs, v)), bits((probs * v[idx]).sum(axis=-1))
        )


@pytest.mark.parametrize("name", sorted(SHIPPED_ENVS))
def test_policy_iteration_agrees_with_value_iteration_sweeps(name):
    env = SHIPPED_ENVS[name]()
    rng = np.random.default_rng(5)
    for _ in range(2):
        mu = rng.dirichlet(np.ones(env.n_states))
        v, q, _ = value_iteration(env, mu)
        v_seed, q_seed, _ = seed_value_iteration(env, mu)
        tol = 1e-9 * value_scale(env)
        np.testing.assert_allclose(v, v_seed, rtol=0.0, atol=tol)
        np.testing.assert_allclose(q, q_seed, rtol=0.0, atol=tol)


@pytest.mark.parametrize("name", sorted(SHIPPED_ENVS))
def test_dense_policy_kernel_bit_identical_to_add_at(name):
    env = SHIPPED_ENVS[name]()
    rng = np.random.default_rng(8)
    n = env.n_states
    dense = rng.dirichlet(np.ones(env.n_actions), size=n)
    one_hot = np.eye(env.n_actions)[rng.integers(0, env.n_actions, n)]
    # mixed: one-hot and dense rows, some entries exact zeros of either sign
    mixed = np.where((rng.random(n) < 0.5)[:, None], one_hot, dense)
    mixed[rng.random(mixed.shape) < 0.2] = 0.0
    mixed[rng.random(mixed.shape) < 0.1] = -0.0
    for pi in (dense, one_hot, mixed, np.zeros_like(dense)):
        mu = rng.dirichlet(np.ones(n))
        idx, probs = env.kernel_support(mu)
        expected = np.zeros((n, n))
        rows = np.broadcast_to(np.arange(n)[:, None, None], idx.shape)
        np.add.at(expected, (rows.ravel(), idx.ravel()), (pi[:, :, None] * probs).ravel())
        np.testing.assert_array_equal(bits(dense_policy_kernel(pi, env, mu)), bits(expected))


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.995])
def test_eye_minus_in_place_has_the_bits_of_the_formula(gamma):
    rng = np.random.default_rng(12)
    p = rng.dirichlet(np.ones(7), size=7)
    p[rng.random(p.shape) < 0.4] = 0.0
    p[0, 0] = p[3, 3] = 0.0
    want = np.eye(7) - gamma * p
    np.testing.assert_array_equal(bits(_eye_minus(gamma, p)), bits(want))


def test_expected_next_wide_support_agrees_to_rounding():
    # numpy sums 8 or more terms pairwise, so only rounding-level agreement
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.ones(9), size=(4, 3))
    idx = rng.integers(0, 6, size=(4, 3, 9))
    v = rng.standard_normal(6)
    np.testing.assert_allclose(
        _expected_next(idx, probs, v), (probs * v[idx]).sum(axis=-1), rtol=1e-14, atol=1e-15
    )


def test_policy_evaluation_consistency_with_value_iteration(toy_env):
    mu = toy_env.initial_state
    v, q, pi = value_iteration(toy_env, mu)
    v_pi = policy_evaluation(toy_env, pi, mu)
    np.testing.assert_allclose(v_pi, v, atol=1e-8)


def test_policy_evaluation_gamma_zero():
    env = toy_finite_env(3, 2, seed=4, gamma=0.0)
    mu = env.initial_state
    pi = np.full((3, 2), 0.5)
    v = policy_evaluation(env, pi, mu)
    np.testing.assert_allclose(v, (pi * env.reward_matrix(mu)).sum(axis=1), atol=1e-12)


def test_policy_evaluation_uniform_policy_linear_solve_oracle():
    kernel = np.zeros((2, 2, 2))
    kernel[0, 0] = [0.5, 0.5]
    kernel[0, 1] = [1.0, 0.0]
    kernel[1, 0] = [0.3, 0.7]
    kernel[1, 1] = [0.0, 1.0]
    rewards = np.array([[1.0, -1.0], [0.0, 2.0]])
    env = make_env(kernel, rewards, gamma=0.8)
    pi = np.full((2, 2), 0.5)
    p_pi = np.einsum("sa,san->sn", pi, kernel)
    r_pi = (pi * rewards).sum(axis=1)
    expected = np.linalg.solve(np.eye(2) - 0.8 * p_pi, r_pi)
    np.testing.assert_allclose(policy_evaluation(env, pi, env.initial_state), expected, atol=1e-9)


# -- exploitability -------------------------------------------------------------


def test_exploitability_zero_for_single_action_env():
    env = toy_finite_env(3, 1, seed=2)
    pi = np.ones((3, 1))
    assert exploitability(pi, env) == 0.0


def test_exploitability_zero_at_reference(toy_env, toy_reference):
    pi = policy_matrix(argmax_operator(), toy_reference.q_star)
    assert exploitability(pi, toy_env) <= 1e-8


def test_exploitability_of_suboptimal_policy_matches_enumeration(toy_env):
    # deliberately play the worst greedy action everywhere
    mu_probe = toy_env.initial_state
    _, q, _ = value_iteration(toy_env, mu_probe)
    worst = np.zeros_like(q)
    worst[np.arange(3), q.argmin(axis=1)] = 1.0
    got = exploitability(worst, toy_env)

    mu_pi = induced_population(worst, toy_env)
    v_pi = policy_evaluation(toy_env, worst, mu_pi)
    best = np.full(3, -np.inf)
    for a0 in range(2):
        for a1 in range(2):
            for a2 in range(2):
                pi = np.zeros((3, 2))
                pi[np.arange(3), [a0, a1, a2]] = 1.0
                best = np.maximum(best, policy_evaluation(toy_env, pi, mu_pi))
    expected = float(mu_pi @ (best - v_pi))
    assert got == pytest.approx(expected, abs=1e-7)
    assert got > 0.0


# -- stationarity certificate ---------------------------------------------------


def test_mean_path_semigradient_eta_block_zero_at_stationary(toy_env):
    phi = one_hot_feature_map(toy_env.states, toy_env.actions)
    basis = one_hot_measure_basis(toy_env.states)
    rng = np.random.default_rng(3)
    theta = rng.normal(size=6)
    pol = argmax_operator()
    q = theta.reshape(3, 2)
    pi = policy_matrix(pol, q)
    # the consistency fixed point: eta equals the stationary distribution of
    # the chain frozen at eta itself
    eta = induced_population(pi, toy_env)
    xi = UnifiedParameter(theta=theta, eta=eta)
    g = mean_path_semigradient(xi, toy_env, phi, basis, pol)
    assert np.abs(g[6:]).max() <= 1e-10


def test_mean_path_semigradient_detects_perturbation(toy_env, toy_reference):
    phi = one_hot_feature_map(toy_env.states, toy_env.actions)
    basis = one_hot_measure_basis(toy_env.states)
    pol = argmax_operator()
    theta = toy_reference.q_star.ravel().copy()
    theta[0] += 0.1
    xi = UnifiedParameter(theta=theta, eta=toy_reference.mu_star)
    g = mean_path_semigradient(xi, toy_env, phi, basis, pol)
    assert np.linalg.norm(g) > 0.0


def test_dense_identity_features_match_one_hot(toy_env, toy_reference):
    # q_table and the certificate on the feature path equal the tabular ones;
    # the certificate as numbers: a pair of zero weight and negative TD error
    # gives -0.0 on the tabular path and +0.0 from the tensordot
    one_hot, dense = one_hot_feature_map(toy_env.states, toy_env.actions), identity_features(3, 2)
    basis = one_hot_measure_basis(toy_env.states)
    rng = np.random.default_rng(8)
    thetas = [toy_reference.q_star.ravel(), toy_reference.q_star.ravel() + 0.1 * np.eye(6)[2],
              rng.normal(size=6)]
    for theta in thetas:
        assert q_table(theta, dense, toy_env).tobytes() == q_table(theta, one_hot, toy_env).tobytes()
        for eta in (toy_reference.mu_star, rng.dirichlet(np.ones(3))):
            for pol in (argmax_operator(), softmax_operator(50.0)):
                xi = UnifiedParameter(theta=theta, eta=eta)
                tabular = mean_path_semigradient(xi, toy_env, one_hot, basis, pol)
                general = mean_path_semigradient(xi, toy_env, dense, basis, pol)
                np.testing.assert_array_equal(general, tabular)


def test_low_rank_features_match_the_loop_reference(toy_env):
    # q(s, a) = <phi(s, a), theta>, and the certificate's value block is
    # sum_{s,a} w(s, a) td(s, a) phi(s, a): the tabular block mapped by phi
    rng = np.random.default_rng(9)
    phi = FeatureMap(rng.normal(size=(3, 2, 4)) / 3.0)
    theta = rng.normal(size=4)
    q = q_table(theta, phi, toy_env)
    loop = [[float(phi.features[s, a] @ theta) for a in range(2)] for s in range(3)]
    np.testing.assert_allclose(q, loop, rtol=1e-14, atol=1e-15)
    basis = one_hot_measure_basis(toy_env.states)
    one_hot = one_hot_feature_map(toy_env.states, toy_env.actions)
    eta = rng.dirichlet(np.ones(3))
    for pol in (argmax_operator(), softmax_operator(50.0)):
        general = mean_path_semigradient(UnifiedParameter(theta, eta), toy_env, phi, basis, pol)
        tabular = mean_path_semigradient(UnifiedParameter(q.ravel(), eta), toy_env, one_hot,
                                         basis, pol)
        expected = np.zeros(4)
        for k, (s, a) in enumerate(np.ndindex(3, 2)):
            expected += tabular[k] * phi.features[s, a]
        np.testing.assert_allclose(general[:4], expected, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(general[4:], tabular[6:])


# -- span residual ----------------------------------------------------------------


def test_span_residual_zero_for_basis_member():
    basis = tan_normal_basis(StateSpace(size=50, kind="grid"), 3)
    mu = basis.masses[1]
    assert span_residual(mu, basis) <= 1e-10


def test_span_residual_zero_for_full_one_hot_basis():
    basis = one_hot_measure_basis(StateSpace(size=5, kind="edges"))
    rng = np.random.default_rng(4)
    for _ in range(10):
        mu = rng.dirichlet(np.ones(5))
        assert span_residual(mu, basis) <= 1e-10


def test_span_residual_positive_off_span():
    basis = tan_normal_basis(StateSpace(size=50, kind="grid"), 2)
    mu = np.zeros(50)
    mu[7] = 1.0
    assert span_residual(mu, basis) > 0.1


# -- plumbing ---------------------------------------------------------------------


def test_resample_masses_preserves_mass():
    w = resample_masses(5, 200)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
    mu = np.random.default_rng(5).dirichlet(np.ones(5))
    fine = w @ mu
    assert fine.sum() == pytest.approx(1.0, abs=1e-12)
    # each coarse cell spreads uniformly over its 40 fine cells
    np.testing.assert_allclose(fine[:40], mu[0] / 40.0, atol=1e-15)


def test_resample_masses_identity():
    np.testing.assert_allclose(resample_masses(7, 7), np.eye(7), atol=1e-12)
