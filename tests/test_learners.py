import hashlib
from fractions import Fraction

import numpy as np
import pytest

from mfglearn.core import (
    SIMPLEX_TOL,
    ConfigError,
    Observation,
    RunConfig,
    StepSizeSchedule,
    UnifiedParameter,
)
from mfglearn import learners
from mfglearn.envs import flocking_env, ring_road_env, sioux_falls_env, toy_finite_env
from mfglearn.learners import (
    fp_mix,
    md_mix,
    model_based_fpi_fp,
    run_online_fpi,
    run_semisgd,
    step_size,
)
from mfglearn.lfa import (
    FeatureMap,
    one_hot_feature_map,
    one_hot_measure_basis,
    semi_gradient_eta,
    semi_gradient_theta,
)
from mfglearn.metrics import induced_population, value_iteration
from mfglearn.policy import argmax_operator

from .conftest import (
    identity_features,
    policy_row_oracle,
    simplex_projection_oracle,
    validate_parameter,
)
from .test_envs import eigen_stationary
from .test_metrics import SHIPPED_ENVS, make_env, seed_value_iteration


def small_cfg(env, seed=0, steps=500, algorithm="semisgd", inner_k=None, alpha=1e-2):
    return RunConfig(
        total_steps=steps,
        schedule=StepSizeSchedule(alpha),
        inverse_temperature=50.0,
        ball_radius=10.0,
        seed=seed,
        inner_k=inner_k,
        algorithm=algorithm,
        cadence=100,
        expl_every=None,
    )


# -- step sizes ---------------------------------------------------------------


def test_step_size_constant():
    assert step_size(StepSizeSchedule(1e-3), 999) == 1e-3


def test_step_size_linear_decay():
    sched = StepSizeSchedule(0.5, b=1.0)
    assert step_size(sched, 0) == 0.5
    assert step_size(sched, 9) == pytest.approx(0.05)


def test_step_size_rejects_negative_index():
    with pytest.raises(ConfigError):
        step_size(StepSizeSchedule(0.1), -1)


# -- single steps -------------------------------------------------------------


def constant_reward_env(reward_value, n_states=2, gamma=0.0):
    kernel = np.zeros((n_states, 1, n_states))
    kernel[:, 0, 0] = 1.0  # everything moves to state 0
    rewards = np.full((n_states, 1), reward_value)
    return make_env(kernel, rewards, gamma=gamma)


def semisgd_step(env, eta, s, alpha):
    """One SemiSGD step of ``_OnlineRun`` from zero Q, population weights
    ``eta`` and state s with action 0, as ``run_semisgd`` takes it.
    Returns the run and the sampled next state."""
    phi = one_hot_feature_map(env.states, env.actions)
    run = learners._OnlineRun(env, phi, one_hot_measure_basis(env.states),
                              argmax_operator(), np.inf)
    run.eta = np.array(eta)
    run.rng = np.random.default_rng(0)
    r = env.reward(s, 0, run.eta)
    s_next = env.sample_next(s, 0, run.eta, run.rng)
    a_next = run._draw_action(s_next)
    run.update_eta(s_next, alpha)
    run.update_theta(s, 0, r, s_next, a_next, alpha)
    return run, s_next


def test_semisgd_step_tabular_q_substitution():
    # gamma = 0, zero Q, r = 1, alpha = 0.5: the visited entry becomes 0.5
    run, _ = semisgd_step(constant_reward_env(1.0), [0.5, 0.5], s=1, alpha=0.5)
    np.testing.assert_array_equal(run.theta, [0.0, 0.5])


def test_semisgd_step_population_arithmetic():
    # alpha = 0.1, eta = (0.5, 0.5), s' = 0 -> (0.55, 0.45), no projection
    run, s_next = semisgd_step(constant_reward_env(0.0), [0.5, 0.5], s=1, alpha=0.1)
    np.testing.assert_allclose(run.eta, [0.55, 0.45], atol=1e-15)
    assert s_next == 0


def test_semisgd_step_fixed_point_unchanged():
    # zero rewards, zero Q, eta already the point mass at the absorbing
    # state: both semi-gradients vanish and the parameter stays put
    run, _ = semisgd_step(constant_reward_env(0.0), [1.0, 0.0], s=0, alpha=0.3)
    np.testing.assert_array_equal(run.theta, np.zeros(2))
    np.testing.assert_array_equal(run.eta, [1.0, 0.0])


# -- full runs ------------------------------------------------------------------


def test_run_semisgd_zero_steps_returns_initial(toy_env):
    cfg = small_cfg(toy_env, steps=0)
    rec = run_semisgd(toy_env, cfg)
    np.testing.assert_array_equal(rec.steps, [0])
    phi, basis, pol = learners._defaults(toy_env, cfg, None, None)
    init = learners._OnlineRun(toy_env, phi, basis, pol, cfg.ball_radius)
    init.init_from_seed(cfg.seed)
    np.testing.assert_array_equal(rec.final.theta, init.theta)
    np.testing.assert_array_equal(rec.final.eta, init.eta)


def test_run_semisgd_deterministic(toy_env):
    cfg = small_cfg(toy_env, seed=11)
    a = run_semisgd(toy_env, cfg, mu_ref=toy_env.initial_state)
    b = run_semisgd(toy_env, cfg, mu_ref=toy_env.initial_state)
    np.testing.assert_array_equal(a.mse, b.mse)
    np.testing.assert_array_equal(a.final.theta, b.final.theta)
    np.testing.assert_array_equal(a.final.eta, b.final.eta)


def test_run_semisgd_snapshot_grid(toy_env):
    rec = run_semisgd(toy_env, small_cfg(toy_env, steps=1000), mu_ref=toy_env.initial_state)
    np.testing.assert_array_equal(rec.steps, np.arange(0, 1001, 100))
    assert rec.mse.shape == (11,)


def test_learner_parameters_always_valid(toy_env):
    cfg = small_cfg(toy_env, steps=300)
    rec = run_semisgd(toy_env, cfg, record_params=True)
    for xi in rec.param_trace:
        assert validate_parameter(xi, cfg)


def test_run_online_fpi_k1_equals_semisgd(toy_env):
    for seed in (0, 1):
        cfg_s = small_cfg(toy_env, seed=seed, steps=400)
        cfg_f = small_cfg(toy_env, seed=seed, steps=400, algorithm="fpi-vanilla", inner_k=1)
        a = run_semisgd(toy_env, cfg_s, record_params=True)
        b = run_online_fpi(toy_env, cfg_f, record_params=True)
        assert len(a.param_trace) == len(b.param_trace)
        for xa, xb in zip(a.param_trace, b.param_trace):
            np.testing.assert_array_equal(xa.theta, xb.theta)
            np.testing.assert_array_equal(xa.eta, xb.eta)


@pytest.mark.parametrize("algorithm", ["fpi-fp", "fpi-md"])
def test_pass_end_snapshots_follow_the_value_update_and_mixing(toy_env, toy_reference, algorithm):
    # K divides the cadence, so every snapshot at t = jK > 0 ends pass j and
    # must describe the parameter recorded after that pass's mixing
    from dataclasses import replace

    from mfglearn.metrics import exploitability
    from mfglearn.policy import policy_matrix

    k = 20
    cfg = replace(small_cfg(toy_env, steps=400, algorithm=algorithm, inner_k=k), expl_every=100)
    mu_ref = toy_reference.mu_star
    rec = run_online_fpi(toy_env, cfg, mu_ref=mu_ref, record_params=True)
    pol = learners._defaults(toy_env, cfg, None, None)[2]
    assert rec.steps.tolist() == [0, 100, 200, 300, 400]
    assert None not in rec.expl
    for i, t in enumerate(rec.steps.tolist()[1:], start=1):
        xi = rec.param_trace[t // k - 1]
        d = xi.eta - mu_ref
        assert rec.mse[i] == d @ d, t
        pi = policy_matrix(pol, xi.theta.reshape(toy_env.n_states, toy_env.n_actions))
        assert rec.expl[i] == exploitability(pi, toy_env), t


def test_run_online_fpi_partial_final_loop(toy_env):
    # the sample budget is exact even when K does not divide T
    cfg = small_cfg(toy_env, steps=250, algorithm="fpi-vanilla", inner_k=100)
    rec = run_online_fpi(toy_env, cfg, mu_ref=toy_env.initial_state)
    assert rec.steps[-1] == 250
    assert validate_parameter(rec.final, cfg)


def test_run_online_fpi_rejects_oversized_k(toy_env):
    # the run config itself holds K <= T, so no FPI run can see a larger K
    with pytest.raises(ConfigError, match="exceeds the sample budget"):
        small_cfg(toy_env, steps=10, algorithm="fpi-vanilla", inner_k=50)
    run_online_fpi(toy_env, small_cfg(toy_env, steps=10, algorithm="fpi-vanilla", inner_k=10))


def test_one_learner_reads_k_from_the_config(toy_env):
    # SemiSGD takes one sample per pass whatever inner_k its config holds
    assert run_semisgd is run_online_fpi
    traces = [
        run_online_fpi(toy_env, small_cfg(toy_env, steps=300, inner_k=k), record_params=True)
        .param_trace
        for k in (None, 7)
    ]
    assert len(traces[0]) == len(traces[1]) == 300
    for xa, xb in zip(*traces):
        assert xa.theta.tobytes() == xb.theta.tobytes()
        assert xa.eta.tobytes() == xb.eta.tobytes()


def test_a_permuted_dirac_basis_records_the_mse_of_its_population(toy_env, toy_reference):
    # identity Gram matrix, but eta[i] is the mass of state i + 1 (mod 3):
    # the run must not read eta as state masses
    from mfglearn.lfa import MeasureBasis

    basis = MeasureBasis(np.eye(3)[[1, 2, 0]], 1.0)
    mu_ref = toy_reference.mu_star
    rec = run_semisgd(toy_env, small_cfg(toy_env, steps=3000), basis=basis, mu_ref=mu_ref)
    d = basis.represent(rec.final.eta) - mu_ref
    assert rec.mse[-1] == float(d @ d)


def test_run_online_fpi_variants_smoke(toy_env):
    for variant in ("vanilla", "fp", "md", "er"):
        cfg = small_cfg(toy_env, steps=200, algorithm=f"fpi-{variant}", inner_k=20)
        rec = run_online_fpi(toy_env, cfg, mu_ref=toy_env.initial_state)
        assert rec.algorithm == f"fpi-{variant}"
        assert np.isfinite(rec.mse).all()
        assert validate_parameter(rec.final, cfg)


@pytest.mark.parametrize("algorithm", ["semisgd", "fpi-vanilla"])
def test_dense_identity_features_match_one_hot_bit_for_bit(toy_env, algorithm):
    # the general feature path, fed the one-hot map as an array, retraces
    # the tabular path exactly
    cfg = small_cfg(toy_env, steps=600, algorithm=algorithm,
                    inner_k=10 if algorithm != "semisgd" else None)
    run = run_semisgd if algorithm == "semisgd" else run_online_fpi
    mu_ref = toy_env.initial_state
    tabular = run(toy_env, cfg, mu_ref=mu_ref, record_params=True)
    dense = run(toy_env, cfg, phi=identity_features(3, 2), mu_ref=mu_ref, record_params=True)
    assert tabular.mse.tobytes() == dense.mse.tobytes()
    assert len(tabular.param_trace) == len(dense.param_trace)
    for xa, xb in zip(tabular.param_trace, dense.param_trace):
        assert xa.theta.tobytes() == xb.theta.tobytes()
        assert xa.eta.tobytes() == xb.eta.tobytes()


def _low_rank_features(n_states, n_actions, d1, seed):
    """Random dense features scaled to sup ||phi(s, a)|| = 1."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_states, n_actions, d1))
    return FeatureMap(features / np.linalg.norm(features, axis=2).max())


def test_low_rank_features_stay_finite_inside_the_ball(toy_env):
    phi = _low_rank_features(3, 2, 3, seed=13)
    assert phi.d1 == 3
    cfg = small_cfg(toy_env, steps=2000, alpha=0.05)
    rec = run_semisgd(toy_env, cfg, phi=phi, mu_ref=toy_env.initial_state, record_params=True)
    assert rec.final.theta.shape == (3,)
    assert np.isfinite(rec.mse).all()
    for xi in rec.param_trace:
        assert validate_parameter(xi, cfg)


@pytest.mark.parametrize("env_tag", ["toy", "ring-road-200"])
@pytest.mark.parametrize("d1", [20, 50])
def test_dense_q_rows_have_the_bytes_of_the_q_table(env_tag, d1):
    # a draw that misses reads features[states] @ theta: the rows of one
    # state and of a block of stale states, in any order, must have the
    # bytes of the (S, A) table a snapshot builds
    env = toy_finite_env(3, 2, seed=7) if env_tag == "toy" else ring_road_env(200)
    phi = _low_rank_features(env.n_states, env.n_actions, d1, seed=d1)
    run = learners._OnlineRun(env, phi, one_hot_measure_basis(env.states),
                              argmax_operator(), np.inf)
    rng = np.random.default_rng(d1)
    for scale in (1e-3, 1.0, 1e3):
        run.set_theta(scale * rng.normal(size=d1))
        q = learners.q_table(run.theta, phi, env)
        for s in range(env.n_states):
            assert run.q_rows(s).tobytes() == q[s].tobytes(), (scale, s)
        for n in (2, 3, 17, env.n_states):
            states = rng.permutation(env.n_states)[:n].tolist()
            assert run.q_rows(states).tobytes() == q[states].tobytes(), (scale, states)


def test_a_dense_run_builds_the_q_table_only_for_exploitability(monkeypatch):
    # a miss reads the Q rows it needs from theta: without exploitability
    # snapshots no (S, A) table is built, with them one per snapshot
    from dataclasses import replace

    calls = []
    original = learners.q_table
    monkeypatch.setattr(learners, "q_table", lambda *args: calls.append(1) or original(*args))
    env = ring_road_env(50)
    phi = _low_rank_features(env.n_states, env.n_actions, 20, seed=1)
    run_semisgd(env, small_cfg(env), phi=phi, mu_ref=env.initial_state)
    run_online_fpi(env, small_cfg(env, algorithm="fpi-vanilla", inner_k=10), phi=phi)
    assert calls == []
    run_semisgd(env, replace(small_cfg(env), expl_every=100), phi=phi)
    assert len(calls) == 6  # t = 0, 100, ..., 500


def test_fp_mix_alpha_one_replaces_history():
    hist = np.array([0.9, 0.1])
    new = np.array([0.2, 0.8])
    np.testing.assert_allclose(fp_mix(hist, new, 1.0), new, atol=1e-15)


def test_fp_mix_stays_on_simplex():
    hist = np.array([0.9, 0.1])
    new = np.array([0.2, 0.8])
    mixed = fp_mix(hist, new, 0.3)
    assert mixed.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(mixed, 0.7 * hist + 0.3 * new, atol=1e-15)


def test_md_mix_alpha_zero_keeps_history():
    hist = np.array([1.0, 2.0])
    np.testing.assert_array_equal(md_mix(hist, np.array([5.0, 5.0]), 0.0), hist)


def test_implicit_regularization_small(toy_env):
    # tabular updates with alpha < 1 stay inside the simplex and the value
    # bound even with both projections disabled
    cfg = small_cfg(toy_env, steps=2000, alpha=0.1)
    rec = run_semisgd(toy_env, cfg, record_params=True, project=False)
    bound = toy_env.reward_bound / (1.0 - toy_env.gamma)
    for xi in rec.param_trace:
        assert xi.eta.min() >= 0.0
        assert abs(xi.eta.sum() - 1.0) <= 1e-12
        assert np.abs(xi.theta).max() <= bound + 1e-12


# -- model-based reference solver --------------------------------------------------


def test_model_based_fpi_fp_population_independent_fixed_point():
    env = toy_finite_env(4, 2, seed=3, eps=0.0, reward_pop_scale=0.0)
    ref = model_based_fpi_fp(env)
    # no feedback loop: the solver stabilizes immediately on the optimal
    # policy's stationary distribution
    assert ref.iterations <= 2
    v, q, pi = value_iteration(env, ref.mu_star)
    from mfglearn.metrics import dense_policy_kernel

    oracle = eigen_stationary(dense_policy_kernel(pi, env, ref.mu_star))
    np.testing.assert_allclose(ref.mu_star, oracle, atol=1e-9)
    assert ref.final_exploitability <= 1e-9


@pytest.mark.parametrize("make", [
    lambda: toy_finite_env(3, 2, seed=7), lambda: ring_road_env(50), lambda: flocking_env(50),
], ids=["toy-3x2-seed7", "ring-road-50", "flocking-50"])
def test_model_based_fpi_fp_matches_value_iteration_solver(make, monkeypatch):
    env = make()
    ref = model_based_fpi_fp(env, expl_every=None)
    monkeypatch.setattr(learners, "value_iteration", seed_value_iteration)
    seed = model_based_fpi_fp(env, expl_every=None)
    assert ref.iterations == seed.iterations
    np.testing.assert_array_equal(ref.q_star.argmax(axis=1), seed.q_star.argmax(axis=1))
    np.testing.assert_array_equal(ref.mu_star.view(np.int64), seed.mu_star.view(np.int64))


SOLVER_WORK_CASES = pytest.mark.parametrize("make,outer_iters", [
    (lambda: toy_finite_env(3, 2, seed=7), 300), (lambda: ring_road_env(50), 300),
    (lambda: flocking_env(50), 300), (lambda: sioux_falls_env(), 5),
], ids=["toy-3x2-seed7", "ring-road-50", "flocking-50", "sioux-falls-unconverged"])


def _record_greedy_policies(monkeypatch):
    """Greedy actions of every ``value_iteration`` call the solver makes."""
    greedy = []

    def recorded_value_iteration(env, mu):
        out = value_iteration(env, mu)
        greedy.append(out[2].argmax(axis=1))
        return out

    monkeypatch.setattr(learners, "value_iteration", recorded_value_iteration)
    return greedy


@SOLVER_WORK_CASES
def test_model_based_fpi_fp_induces_each_population_once(make, outer_iters, monkeypatch):
    # one induced population per distinct greedy policy: the stop iteration
    # of a converged solve reuses its predecessor's, and the consistency pass
    # induces one more only when greedy(q_star) differs from the last greedy
    # policy, through metrics.exploitability
    greedy = _record_greedy_policies(monkeypatch)
    policies, induced = [], []

    def recorded_induced_population(pi, env):
        out = induced_population(pi, env)
        policies.append(pi.argmax(axis=1))
        induced.append(out)
        return out

    monkeypatch.setattr(learners, "induced_population", recorded_induced_population)
    monkeypatch.setattr("mfglearn.metrics.induced_population", recorded_induced_population)
    ref = model_based_fpi_fp(make(), outer_iters=outer_iters, expl_every=None)
    assert len(greedy) == ref.iterations + 1
    final_differs = not np.array_equal(greedy[-1], greedy[-2])
    assert len(induced) == ref.iterations - ref.converged + final_differs
    assert not any(np.array_equal(a, b) for a, b in zip(policies, policies[1:]))
    assert ref.mu_star.tobytes() == induced[ref.iterations - ref.converged - 1].tobytes()


def _record_best_responses(monkeypatch):
    """Population bytes of every ``value_iteration`` call the solver makes,
    through the loop or through ``metrics.exploitability``."""
    populations = []

    def recorded_value_iteration(env, mu):
        populations.append(np.asarray(mu).tobytes())
        return value_iteration(env, mu)

    monkeypatch.setattr(learners, "value_iteration", recorded_value_iteration)
    monkeypatch.setattr("mfglearn.metrics.value_iteration", recorded_value_iteration)
    return populations


@SOLVER_WORK_CASES
def test_model_based_fpi_fp_evaluates_each_policy_once(make, outer_iters, monkeypatch):
    # with expl_every=1 every outer iteration gets a trace entry, but the
    # loop takes no policy's exploitability twice: the stop iteration reuses
    # its predecessor's.  The best response of each exploitability serves
    # again at k = 1 and in the consistency pass, whose populations have the
    # same bytes
    solved = _record_best_responses(monkeypatch)
    evaluated = []

    exploitability_at = learners._exploitability_at

    def recorded_exploitability_at(pi, env, mu, *best):
        evaluated.append(pi.tobytes())
        return exploitability_at(pi, env, mu, *best)

    monkeypatch.setattr(learners, "_exploitability_at", recorded_exploitability_at)
    ref = model_based_fpi_fp(make(), outer_iters=outer_iters, expl_every=1)
    in_loop = ref.iterations - ref.converged
    assert len(set(evaluated[:in_loop])) == in_loop
    assert len(evaluated) <= in_loop + 1  # the consistency pass's, when its greedy repeats
    assert ref.expl_iterations.tolist() == list(range(ref.iterations))
    # no best response repeats the population of either solve before it; an
    # unconverged Sioux Falls solve's greedy policies cycle, so its final
    # exploitability may solve again at a population from further back
    for i, key in enumerate(solved):
        assert key not in solved[max(i - 2, 0):i]


# SHA-256 of each field of ``model_based_fpi_fp(env)`` (300 outer iterations,
# expl_every=1), as ``np.asarray(field).tobytes()``, recorded with numpy 2.4
# on x86-64.  Speed changes to the solver keep every byte; a change that
# moves them on purpose updates these digests and says why.  With
# expl_every=None the solve is the same and the trace is empty.
REFERENCE_DIGESTS = {
    "toy-3x2-seed7": {
        "q_star": "92d8f55b3fed7afee32815099632618b4c3de36f60c22703202bb900cb561f05",
        "mu_star": "736968827ddd0776bc1f50160a24c4b80e14be5d70d7e9b7c18402f77f84a4b6",
        "expl_iterations": "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
        "expl_trace": "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        "final_exploitability": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "iterations": "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
        "converged": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    },
    "ring-road-50": {
        "q_star": "daad1218f8fd7ee749a782d8157dd703b3e6678909c05c80ea084d1adea0bcd8",
        "mu_star": "054e500cf1f3684f7c54cbdfebe7e442e9d4bf7e2ba9238fd52ad73384d92891",
        "expl_iterations": "f190072c5052f4f440d4a607c25f5bced487c420806c9aab4ca5b0653e72da61",
        "expl_trace": "2c263d0ff9527a68a3a1fa6df88d37ad08c88c13120b802035608cfbf9ba479f",
        "final_exploitability": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "iterations": "23d7f42b1cdc1f0d492ebd756ed0fe8003995dda554d99418d47a81813650207",
        "converged": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    },
    "ring-road-200": {
        "q_star": "0bfafeb5a1cfc17c442eed040a0afb511d0106ce2ee305832eb8ab5adebf5f55",
        "mu_star": "eeba442d778d2b57cb1a3a91ada6c0d10df68bb227b599ce62ee676222e396db",
        "expl_iterations": "419ce84f0e9d892643ed1279ee8cdaa70ddc452e676dfe448cbeaaa830c06567",
        "expl_trace": "8838e251665e2e0c55542b3bc71f64604971d34b984551dc1da5e67ffb1abd91",
        "final_exploitability": "4a16151364ed6e6bc3748c0fe2cdc6d924630bcf90ea53e728c4c0173cc0bb84",
        "iterations": "cbbd5f990c53684d7ae650b40fcb5656e02261b53da5f6a7d8c819c92f2828f8",
        "converged": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    },
    "flocking-50": {
        "q_star": "6fa4b38f23c213e0a4b7c4f6c5816d503a8f6b626c7857989a998265a36c5e56",
        "mu_star": "4c19c8531dfcb51314709c5a9b55e7b466903deff662096a019dcdd36e0bcd6b",
        "expl_iterations": "23c379d6c0f22ef64cdef873fd530df1f1419b4a3935e9323d5f1d82ca697b6a",
        "expl_trace": "34e5988e4b21ee43b7ba9af63e00238ca60df73ff55b54cfe7bf13e4b06da3c7",
        "final_exploitability": "fce8eeab327352fef2a54e8d40e830a6c8207abc0dc15056ef7e36fa904a231e",
        "iterations": "a111f275cc2e7588000001d300a31e76336d15b9d314cd1a1d8f3d3556975eed",
        "converged": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    },
    "sioux-falls": {
        "q_star": "74a4a6b3c39e1ca346577275910339bdef930bdfd65987503f61c01f7df65dd3",
        "mu_star": "c7d2f4ccc5fcd652eaed4fe0ce721e8a32200c0f1cf404e4684197b8c33f94f4",
        "expl_iterations": "98e038d3a30a991777ce2f66d2e9b9f377e44b6444635d2b5dd70d38ae78f241",
        "expl_trace": "f9f72f2a878e53fe18d1cad8e0d340383b44a8f824866f028d83acadd5eabaf2",
        "final_exploitability": "0b6cbb4685aff83c91d325689984679cbd67b9346793366f9d41cc08a01f6c9f",
        "iterations": "5fbbc50a5e0bc4e1bb5ea4bbacda5ae6709eff8e286fb002fee73a4913820fe9",
        "converged": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    },
}


@pytest.mark.parametrize("expl_every", [1, None])
@pytest.mark.parametrize("name", sorted(REFERENCE_DIGESTS))
def test_model_based_fpi_fp_bytes_match_reference_digests(name, expl_every):
    ref = model_based_fpi_fp(SHIPPED_ENVS[name](), expl_every=expl_every)
    want = dict(REFERENCE_DIGESTS[name])
    if expl_every is None:
        assert ref.expl_iterations.size == ref.expl_trace.size == 0
        del want["expl_iterations"], want["expl_trace"]
    got = {field: hashlib.sha256(np.asarray(getattr(ref, field)).tobytes()).hexdigest()
           for field in want}
    assert got == want


def _record_case(name):
    """The run of one ``RECORD_DIGESTS`` case: (env, cfg, keyword arguments)."""
    from mfglearn.cli import DEFAULT_INVERSE_TEMPERATURE, default_ball_radius
    from mfglearn.lfa import tan_normal_basis

    env_tag, algorithm, k, steps, cadence, extra = RECORD_CASES[name]
    env = {
        "toy": lambda: toy_finite_env(3, 2, seed=7),
        "ring-road": lambda: ring_road_env(50),
        "ring-road-200": lambda: ring_road_env(200),
        "sioux-falls": sioux_falls_env,
    }[env_tag]()
    cfg = RunConfig(
        total_steps=steps,
        schedule=StepSizeSchedule(0.05, b=0.01),
        inverse_temperature=DEFAULT_INVERSE_TEMPERATURE[env_tag.replace("-200", "")],
        # a ball that the projected runs leave mid-run, where it is turned off
        ball_radius=0.006 if extra == "no-project" else default_ball_radius(env),
        seed=5,
        inner_k=k,
        algorithm=algorithm,
        cadence=cadence,
        expl_every=2 * cadence,
    )
    kwargs = {"mu_ref": env.initial_state, "record_params": True}
    if extra in ("no-project", "tan-normal-5-no-project"):
        kwargs["project"] = False
    if extra == "identity":
        kwargs["phi"] = identity_features(env.n_states, env.n_actions)
    elif extra == "low-rank":
        kwargs["phi"] = _low_rank_features(env.n_states, env.n_actions, 4, seed=5)
    elif extra in ("tan-normal-5", "tan-normal-5-no-project"):
        kwargs["basis"] = tan_normal_basis(env.states, 5)
    return env, cfg, kwargs


def _record_digest(rec) -> str:
    """SHA-256 over every field of a ``RunRecord``: the seed, the label and
    the exploitability cells by ``repr`` (exact for floats), the arrays by
    their bytes, and theta and eta of the final and every traced parameter."""
    h = hashlib.sha256(repr((rec.seed, rec.algorithm, rec.expl)).encode())
    h.update(rec.steps.tobytes())
    h.update(b"no mse" if rec.mse is None else rec.mse.tobytes())
    for xi in [rec.final, *(rec.param_trace or [])]:
        h.update(xi.theta.tobytes())
        h.update(xi.eta.tobytes())
    return h.hexdigest()


# Runs the CSV golden digests do not reach: (env, algorithm, K, T, cadence,
# variant), each with MSE against the uniform start, exploitability at every
# second snapshot and the parameter after every pass.  K = 7 at cadence 30
# puts snapshots inside passes and leaves a short last pass.
RECORD_CASES = {
    "toy-k7-vanilla": ("toy", "fpi-vanilla", 7, 200, 30, None),
    "toy-k7-fp": ("toy", "fpi-fp", 7, 200, 30, None),
    "toy-k7-md": ("toy", "fpi-md", 7, 200, 30, None),
    "toy-k7-er": ("toy", "fpi-er", 7, 200, 30, None),
    "ring-road-k7-vanilla": ("ring-road", "fpi-vanilla", 7, 200, 30, None),
    "ring-road-semisgd": ("ring-road", "semisgd", None, 600, 100, None),
    "toy-semisgd-no-project": ("toy", "semisgd", None, 600, 100, "no-project"),
    "toy-md-k10-no-project": ("toy", "fpi-md", 10, 600, 100, "no-project"),
    "toy-semisgd-identity": ("toy", "semisgd", None, 600, 100, "identity"),
    "toy-vanilla-k10-identity": ("toy", "fpi-vanilla", 10, 600, 100, "identity"),
    "toy-semisgd-low-rank": ("toy", "semisgd", None, 600, 100, "low-rank"),
    "toy-md-k7-low-rank": ("toy", "fpi-md", 7, 200, 30, "low-rank"),
    "tan-normal-5-fp-k10": ("ring-road-200", "fpi-fp", 10, 300, 100, "tan-normal-5"),
    "tan-normal-5-er-k10": ("ring-road-200", "fpi-er", 10, 300, 100, "tan-normal-5"),
    "tan-normal-5-semisgd-no-project": ("ring-road-200", "semisgd", None, 300, 100,
                                        "tan-normal-5-no-project"),
    "sioux-falls-semisgd": ("sioux-falls", "semisgd", None, 600, 100, None),
    "sioux-falls-vanilla-k1": ("sioux-falls", "fpi-vanilla", 1, 600, 100, None),
}

# ``_record_digest`` of each case, recorded with numpy 2.4 on x86-64.  A
# speed change to the sample loop keeps every one.
RECORD_DIGESTS = {
    "ring-road-k7-vanilla": "18def99422e8f33fa48f0392ba0c7b5b78f38d528a335d999d2ed90b441c6a62",
    "ring-road-semisgd": "679cf1831a795b26e16eb2357983c97c154fa5a12917418c10b6a2c93267d981",
    "sioux-falls-semisgd": "1811e426a33357327f7841bffac703e3b4c4a730554be2ee0ef7180830e4378a",
    "sioux-falls-vanilla-k1": "2cb99da46ca52fdef214d83df5548dd61855799588e42fa87eeb6b2510aeb577",
    "tan-normal-5-er-k10": "0dc8a40d030d601ee78efa81a516f260abae4c4889ccd0d03e071929354f581f",
    "tan-normal-5-fp-k10": "94ac30619767cfb5d0ec383a827aa1411ac185fc47a954ab10f6e02cdead7a89",
    "tan-normal-5-semisgd-no-project": "615d3ef8ffbe33dbf0198958513aec3e21ff42ab4a8717fb8c12871e51c0a3e3",
    "toy-k7-er": "8adbe74083943cbeef841ce8cb5acd8067fc1cf8e05619ff7dc7cbcc63cbcb33",
    "toy-k7-fp": "43a4e192ff08f4628e2b345387bdb2fc1c5ca742296fd8c86d16cab80c581a3d",
    "toy-k7-md": "648a184eaab4ca3c4d21458649ec8b5d55997568b55b7d24b944844e81e209cb",
    "toy-k7-vanilla": "896f8e9d67e3436c094c34d43ba518c1da0ca5430ca6bce053842476646bd981",
    "toy-md-k10-no-project": "4a6022733a20df57037fada3e849edee8fd6a6b7f49db985f8c28a720e0180d3",
    "toy-md-k7-low-rank": "87e6086e60caf0284caec45755cf128dbf027bfce033ad0a0ddbbe6f0c399830",
    "toy-semisgd-identity": "ec56f805b5b0a678bcd3f8b1d3441fbbf420aa8721fade773bd3056b01945a95",
    "toy-semisgd-low-rank": "7496ee70f9f01757961dda2277bfea42dc85e28b240fd0de04f454c8519f599e",
    "toy-semisgd-no-project": "ec56f805b5b0a678bcd3f8b1d3441fbbf420aa8721fade773bd3056b01945a95",
    "toy-vanilla-k10-identity": "07b7190cf63a1237781072e4e20476cd86adcb9a6c2b1e756da205a2682d412b",
}


@pytest.mark.parametrize("name", sorted(RECORD_CASES))
def test_run_records_match_their_digests(name):
    env, cfg, kwargs = _record_case(name)
    assert _record_digest(run_online_fpi(env, cfg, **kwargs)) == RECORD_DIGESTS[name]


def test_model_based_fpi_fp_gamma_zero():
    env = toy_finite_env(3, 2, seed=5, gamma=0.0)
    ref = model_based_fpi_fp(env)
    r = env.reward_matrix(ref.mu_star)
    np.testing.assert_allclose(ref.q_star, r, atol=1e-10)


def test_model_based_fpi_fp_solution_is_consistent(toy_env, toy_reference):
    ref = toy_reference
    assert abs(ref.mu_star.sum() - 1.0) <= 1e-12
    # mu_star is the induced population of the greedy policy at q_star
    from mfglearn.policy import policy_matrix

    pi = policy_matrix(argmax_operator(), ref.q_star)
    np.testing.assert_allclose(induced_population(pi, toy_env), ref.mu_star, atol=1e-9)


def test_run_record_snapshots(toy_env):
    from dataclasses import replace

    cfg = replace(small_cfg(toy_env, steps=200), expl_every=100)
    rec = run_semisgd(toy_env, cfg, mu_ref=toy_env.initial_state)
    assert rec.steps.tolist() == [0, 100, 200]
    assert np.all(rec.mse >= 0)
    assert rec.expl[1] is not None


def test_model_based_fpi_fp_determinism(toy_env):
    a = model_based_fpi_fp(toy_env)
    b = model_based_fpi_fp(toy_env)
    np.testing.assert_array_equal(a.mu_star, b.mu_star)
    np.testing.assert_array_equal(a.q_star, b.q_star)
    np.testing.assert_array_equal(a.expl_trace, b.expl_trace)


# -- FPI policy-row cache -------------------------------------------------------


def _uncached_fpi_trace(env, cfg, variant, phi=None, basis=None):
    """Online FPI written out apart from the learners' sample loop, with its
    own chain step (``env.reward``, ``env.sample_next`` and the run's
    ``_draw_action``, at the population ``basis.represent(eta)``), without
    the run-long row cache and without the projection guards: the cache is
    emptied before every draw, so each draw recomputes its policy row from
    theta, which the forward pass does not write; the backward
    pass recomputes step sizes, every sample runs the full simplex test
    (sign and sum) and takes the exact norm of theta, and the simplex
    projection is the frozen oracle.  ``phi`` and ``basis`` default to the
    one-hot map and basis.  Returns the parameter after each pass and the
    sample indices at which the ball projection fired."""
    from mfglearn import learners
    from mfglearn.policy import softmax_operator

    phi, basis, pol = learners._defaults(env, cfg, phi, basis)
    if variant == "er":
        pol = softmax_operator(pol.inverse_temperature / learners.ER_TEMPERATURE_DIVISOR)
    run = learners._OnlineRun(env, phi, basis, pol, cfg.ball_radius)
    state, action = run.init_from_seed(cfg.seed)
    theta, eta = run.theta, run.eta  # theta is written in place only
    eta_hist, theta_hist = eta.copy(), theta.copy()
    trace = []
    fires = []
    outer = 0
    base_t = 0
    while base_t < cfg.total_steps:
        k_eff = min(cfg.inner_k, cfg.total_steps - base_t)
        obs = []
        for i in range(k_eff):
            run.rows.clear()
            m = basis.represent(eta)  # the Dirac basis gives eta's own bytes
            r = env.reward(state, action, m)
            s_next = env.sample_next(state, action, m, run.rng)
            a_next = run._draw_action(s_next)
            obs.append((state, action, r, s_next, a_next))
            state, action = s_next, a_next
            alpha = step_size(cfg.schedule, base_t + i)
            if run.tabular_m:
                eta *= 1.0 - alpha
                eta[s_next] += alpha
            else:
                eta -= alpha * semi_gradient_eta(eta, s_next, basis)
            if not (eta.min() >= 0.0 and abs(float(eta.sum()) - 1.0) <= SIMPLEX_TOL):
                eta = simplex_projection_oracle(eta)
            run.eta = eta  # the next draw reads the population from the run
        if variant == "fp":
            eta = fp_mix(eta_hist, eta, step_size(cfg.schedule, outer))
            eta_hist = eta.copy()
        for i, (s, a, r, s_next, a_next) in enumerate(obs):
            alpha = step_size(cfg.schedule, base_t + i)
            if run.tabular_q:
                q = theta.reshape(env.n_states, env.n_actions)
                q[s, a] -= alpha * ((q[s, a] - env.gamma * q[s_next, a_next]) - r)
            else:
                ob = Observation(s, a, r, s_next, a_next)
                theta -= alpha * semi_gradient_theta(theta, ob, phi, env.gamma)
            norm = float(np.sqrt(theta @ theta))
            if norm > cfg.ball_radius:
                theta *= cfg.ball_radius / norm
                fires.append(base_t + i)
        if variant == "md":
            theta[:] = md_mix(theta_hist, theta, step_size(cfg.schedule, outer))
            theta_hist = theta.copy()
        run.eta = eta
        trace.append(UnifiedParameter(theta.copy(), eta.copy()))
        outer += 1
        base_t += k_eff
    return trace, fires


@pytest.mark.parametrize("env_tag,steps", [
    ("toy", 400), ("ring-road", 300), ("sioux-falls", 300),
])
def test_run_online_fpi_row_cache_is_bit_identical(env_tag, steps):
    from mfglearn.cli import DEFAULT_INVERSE_TEMPERATURE, default_ball_radius
    from mfglearn.envs import ring_road_env, sioux_falls_env

    env = {
        "toy": lambda: toy_finite_env(3, 2, seed=7),
        "ring-road": lambda: ring_road_env(50),
        "sioux-falls": sioux_falls_env,
    }[env_tag]()
    beta = DEFAULT_INVERSE_TEMPERATURE[env_tag]
    # SemiSGD is the shared loop at K = 1; the reference loop is not
    cases = [(f"fpi-{v}", k) for v in ("vanilla", "fp", "md", "er") for k in (1, 2, 10, 100)]
    for algorithm, k in cases + [("semisgd", 1)]:
        cfg = RunConfig(
            total_steps=steps,
            schedule=StepSizeSchedule(0.05),
                inverse_temperature=beta,
            ball_radius=default_ball_radius(env),
            seed=k,
            inner_k=k,
            algorithm=algorithm,
            cadence=100,
            expl_every=None,
        )
        learn = run_semisgd if algorithm == "semisgd" else run_online_fpi
        got = learn(env, cfg, record_params=True).param_trace
        variant = "vanilla" if algorithm == "semisgd" else algorithm[len("fpi-"):]
        want, _ = _uncached_fpi_trace(env, cfg, variant)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.theta.tobytes() == w.theta.tobytes(), (algorithm, k)
            assert g.eta.tobytes() == w.eta.tobytes(), (algorithm, k)


@pytest.mark.parametrize("env_tag,algorithm,k,features,radius", [
    ("toy", "semisgd", 1, None, 0.06),
    ("toy", "fpi-vanilla", 1, None, 0.06),
    ("toy", "fpi-md", 10, None, 0.006),
    ("ring-road", "semisgd", 1, None, 0.008),
    ("ring-road", "fpi-vanilla", 1, None, 0.008),
    ("ring-road", "fpi-md", 10, None, 5e-4),
    ("toy", "semisgd", 1, "identity", 0.06),
    ("toy", "fpi-md", 10, "low-rank", 0.01),
])
def test_ball_guard_matches_the_exact_norm_every_sample(env_tag, algorithm, k, features, radius):
    # a radius at which the ball first fires mid-run: the one-hot path's
    # running bound must rescale theta at exactly the samples where the
    # exact norm exceeds the radius, before and after the first rescaling
    # and across the MD mixing; dense maps take the exact norm every sample
    env = toy_finite_env(3, 2, seed=7) if env_tag == "toy" else ring_road_env(50)
    phi = {
        None: None,
        "identity": identity_features(env.n_states, env.n_actions),
        "low-rank": _low_rank_features(env.n_states, env.n_actions, 4, seed=5),
    }[features]
    cfg = RunConfig(
        total_steps=600,
        schedule=StepSizeSchedule(0.05),
        inverse_temperature=1e2 if env_tag == "toy" else 1e9,
        ball_radius=radius,
        seed=3,
        inner_k=k,
        algorithm=algorithm,
        cadence=100,
        expl_every=None,
    )
    learn = run_semisgd if algorithm == "semisgd" else run_online_fpi
    got = learn(env, cfg, phi=phi, record_params=True).param_trace
    variant = "vanilla" if algorithm == "semisgd" else algorithm[len("fpi-"):]
    want, fires = _uncached_fpi_trace(env, cfg, variant, phi=phi)
    assert 0 < fires[0] and len(fires) > 1, fires
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.theta.tobytes() == w.theta.tobytes()
        assert g.eta.tobytes() == w.eta.tobytes()


def _two_cell_basis(env):
    """Basis measure i puts mass 1/2 on cells i and i + 1 (cyclically): the
    densities are doubly stochastic, so a population step keeps the sum of
    eta at one and only the sign test decides whether eta left the simplex."""
    from mfglearn.lfa import MeasureBasis

    n = env.n_states
    dens = 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1)
    return MeasureBasis(densities=dens, delta=1.0)


@pytest.mark.parametrize("basis_tag", ["tan-normal-5", "tan-normal-20", "two-cell"])
def test_pa_lfa_matches_the_oracle_trace_after_every_pass(basis_tag):
    # a general population basis: tan-normal on ring-road-200, as compare-lfa
    # runs it, and the two-cell basis on ring-road-50; the learners' in-place
    # eta step and the projection's own simplex test against the written-out
    # step, the full test and the frozen projection
    from mfglearn.cli import default_ball_radius
    from mfglearn.lfa import tan_normal_basis

    if basis_tag == "two-cell":
        env = ring_road_env(50)
        basis = _two_cell_basis(env)
    else:
        env = ring_road_env(200)
        basis = tan_normal_basis(env.states, int(basis_tag[len("tan-normal-"):]))
    for algorithm, k in (("semisgd", 1), ("fpi-vanilla", 10), ("fpi-fp", 10)):
        cfg = RunConfig(
            total_steps=200,
            schedule=StepSizeSchedule(0.05),
                inverse_temperature=1e9,
            ball_radius=default_ball_radius(env),
            seed=basis.d2 + k,
            inner_k=k,
            algorithm=algorithm,
            cadence=100,
            expl_every=None,
        )
        learn = run_semisgd if algorithm == "semisgd" else run_online_fpi
        got = learn(env, cfg, basis=basis, record_params=True).param_trace
        variant = "vanilla" if algorithm == "semisgd" else algorithm[len("fpi-"):]
        want, _ = _uncached_fpi_trace(env, cfg, variant, basis=basis)
        assert len(got) == len(want) == 200 // k
        for g, w in zip(got, want):
            assert g.theta.tobytes() == w.theta.tobytes(), (algorithm, basis_tag)
            assert g.eta.tobytes() == w.eta.tobytes(), (algorithm, basis_tag)
        del got, want


def test_run_online_fpi_computes_one_row_per_visited_state_per_pass(toy_env, monkeypatch):
    from mfglearn import learners

    calls = []
    original = learners.policy_row
    monkeypatch.setattr(learners, "policy_row", lambda op, q_row: calls.append(1) or original(op, q_row))
    cfg = small_cfg(toy_env, steps=1000, algorithm="fpi-vanilla", inner_k=100)
    run_online_fpi(toy_env, cfg)
    # the initial draw, then at most one row per state in each of 10 passes
    assert 1 + 10 <= len(calls) <= 1 + 10 * toy_env.n_states


def _check_every_draw(monkeypatch):
    """Make every draw of a run through its own row cache check the row and
    CDF it drew from against the frozen oracle of the current Q row,
    recomputed from theta.  Returns the list of drawn states."""
    original = learners._OnlineRun._draw_action
    drawn = []

    def checked(self, s):
        a = original(self, s)
        row, cdf = self.rows[s]
        q = learners.q_table(self.theta, self.phi, self.env)
        want = policy_row_oracle(self.pol, q[s] if self.feasible is None
                                 else q[s, self.feasible[s]])
        assert row.tobytes() == want.tobytes(), (len(drawn), s)
        assert cdf.tobytes() == want.cumsum().tobytes(), (len(drawn), s)
        drawn.append(s)
        return a

    monkeypatch.setattr(learners._OnlineRun, "_draw_action", checked)
    return drawn


@pytest.mark.parametrize("env_tag,algorithm,k,features,radius", [
    *[(env_tag, algorithm, k, None, None)
      for env_tag in ("toy", "ring-road")
      for algorithm, k in (("semisgd", 1), ("fpi-vanilla", 10), ("fpi-vanilla", 100),
                           ("fpi-md", 10))],
    # the radii at which the ball fires mid-run
    ("toy", "semisgd", 1, None, 0.06),
    ("toy", "fpi-vanilla", 1, None, 0.06),
    ("toy", "fpi-md", 10, None, 0.006),
    ("ring-road", "semisgd", 1, None, 0.008),
    ("ring-road", "fpi-vanilla", 1, None, 0.008),
    ("ring-road", "fpi-md", 10, None, 5e-4),
    ("toy", "semisgd", 1, "identity", 0.06),
    ("toy", "fpi-md", 10, "low-rank", 0.01),
    # a dense identity map, and masked rows
    ("toy", "semisgd", 1, "identity", None),
    ("toy", "fpi-vanilla", 10, "identity", None),
    ("sioux-falls", "semisgd", 1, None, None),
    ("sioux-falls", "fpi-md", 10, None, None),
])
def test_every_draw_uses_the_policy_row_of_the_current_q(
        env_tag, algorithm, k, features, radius, monkeypatch):
    # the run-long row cache across one-entry TD writes, ball rescalings, MD
    # mixing and dense TD steps: no draw may read a row that a write moved
    from mfglearn.cli import DEFAULT_INVERSE_TEMPERATURE, default_ball_radius

    env = {
        "toy": lambda: toy_finite_env(3, 2, seed=7),
        "ring-road": lambda: ring_road_env(50),
        "sioux-falls": sioux_falls_env,
    }[env_tag]()
    phi = {
        None: None,
        "identity": identity_features(env.n_states, env.n_actions),
        "low-rank": _low_rank_features(env.n_states, env.n_actions, 4, seed=5),
    }[features]
    steps = 600 if radius is not None else 2000
    cfg = RunConfig(
        total_steps=steps,
        schedule=StepSizeSchedule(0.05),
        inverse_temperature=DEFAULT_INVERSE_TEMPERATURE[env_tag],
        ball_radius=radius if radius is not None else default_ball_radius(env),
        seed=3,
        inner_k=k,
        algorithm=algorithm,
        cadence=100,
        expl_every=None,
    )
    drawn = _check_every_draw(monkeypatch)
    learn = run_semisgd if algorithm == "semisgd" else run_online_fpi
    learn(env, cfg, phi=phi)
    assert len(drawn) == steps + 1


def test_semisgd_computes_a_policy_row_for_under_a_quarter_of_its_samples(monkeypatch):
    # ring-road-50 at the CLI defaults: a row is recomputed only after a
    # write to its state's Q row, and a refresh takes every such row at once
    from mfglearn.cli import DEFAULT_INVERSE_TEMPERATURE, default_ball_radius

    calls = []
    original = learners.policy_row
    monkeypatch.setattr(learners, "policy_row",
                        lambda op, q_row: calls.append(1) or original(op, q_row))
    env = ring_road_env(50)
    steps = 20_000
    for seed in range(3):
        cfg = RunConfig(
            total_steps=steps,
            schedule=StepSizeSchedule(1e-3),
            inverse_temperature=DEFAULT_INVERSE_TEMPERATURE["ring-road"],
            ball_radius=default_ball_radius(env),
            seed=seed,
            cadence=1000,
            expl_every=None,
        )
        run_semisgd(env, cfg)
    assert len(calls) < 3 * steps / 4, len(calls)


def _exact_drift(eta) -> Fraction:
    """|sum(eta) - 1| in exact rational arithmetic."""
    return abs(sum(map(Fraction, eta.tolist()), Fraction(0)) - 1)


@pytest.mark.parametrize("env_tag,schedule,steps", [
    ("toy", StepSizeSchedule(1e-3), 4000),
    ("toy", StepSizeSchedule(0.05), 2000),
    # falls below the certifiable step size, about 4.5e-4, after t = 120
    ("toy", StepSizeSchedule(1e-3, 1e-2), 12000),
    ("ring-road", StepSizeSchedule(1e-3), 1500),
])
def test_simplex_sum_bound_is_sound_and_decides_as_the_full_test(
        env_tag, schedule, steps, monkeypatch):
    # the tabular population step, one sample at a time: after every step the
    # running bound must cover the exact drift of the sum from one, and the
    # projection must fire exactly when the float sum fails the full test,
    # across FP mixing, a forced projection and a direct assignment of eta
    env = toy_finite_env(3, 2, seed=7) if env_tag == "toy" else ring_road_env(50)
    calls = []

    def projection(v):
        calls.append(1)
        return simplex_projection_oracle(v)

    monkeypatch.setattr(learners, "project_simplex", projection)
    phi, basis, pol = learners._defaults(env, small_cfg(env), None, None)
    run = learners._OnlineRun(env, phi, basis, pol, np.inf)
    s, a = run.init_from_seed(3)
    rng = np.random.default_rng(4)
    writes = {
        steps // 4: lambda: fp_mix(rng.random(env.n_states), run.eta, 0.5),
        steps // 2: lambda: run.eta * (1.0 + 1e-9),  # off the simplex: projects
        3 * steps // 4: lambda: np.full(env.n_states, 1.0 / env.n_states),
    }
    sums = 0
    for t in range(steps):
        if t in writes:
            run.eta = writes[t]()
        alpha = step_size(schedule, t)
        # the chain step without its reward, which nothing here reads
        s_next = env.sample_next(s, a, run.eta, run.rng)
        s, a = s_next, run._draw_action(s_next)
        want = run.eta.copy()
        want *= 1.0 - alpha
        want[s_next] += alpha
        passes = want.min() >= 0.0 and abs(float(want.sum()) - 1.0) <= SIMPLEX_TOL
        carried = run.eta_drift * (1.0 - alpha) + learners.STEP_DRIFT * (1.0 + run.eta_drift)
        n_calls = len(calls)
        run.update_eta(s_next, alpha)
        assert len(calls) - n_calls == (0 if passes else 1), t
        if passes:
            assert run.eta.tobytes() == want.tobytes(), t
            assert _exact_drift(run.eta) <= Fraction(run.eta_drift), t
            sums += run.eta_drift != carried
    # a passing float sum follows the initial projection, the FP write, the
    # projection the forced write causes and the assignment; past the cap,
    # small step sizes add more
    if schedule.b == 0.0:
        assert (sums, len(calls)) == (4, 2)
    else:
        assert sums > 4 and len(calls) == 2
