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
from mfglearn.envs import flocking_env, ring_road_env, toy_finite_env
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

from .conftest import identity_features, simplex_projection_oracle, validate_parameter
from .test_envs import eigen_stationary
from .test_metrics import make_env, seed_value_iteration


def small_cfg(env, seed=0, steps=500, algorithm="semisgd", inner_k=None, alpha=1e-2):
    return RunConfig(
        total_steps=steps,
        schedule=StepSizeSchedule("constant", alpha),
        gamma=env.gamma,
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
    assert step_size(StepSizeSchedule("constant", 1e-3), 999) == 1e-3


def test_step_size_linear_decay():
    sched = StepSizeSchedule("linear-decay", 0.5, b=1.0)
    assert step_size(sched, 0) == 0.5
    assert step_size(sched, 9) == pytest.approx(0.05)


def test_step_size_rejects_negative_index():
    with pytest.raises(ConfigError):
        step_size(StepSizeSchedule("constant", 0.1), -1)


# -- single steps -------------------------------------------------------------


def constant_reward_env(reward_value, n_states=2, gamma=0.0):
    kernel = np.zeros((n_states, 1, n_states))
    kernel[:, 0, 0] = 1.0  # everything moves to state 0
    rewards = np.full((n_states, 1), reward_value)
    return make_env(kernel, rewards, gamma=gamma)


def semisgd_step(env, eta, s, alpha):
    """One SemiSGD step of ``_OnlineRun`` from zero Q, population weights
    ``eta`` and state s with action 0, as ``run_semisgd`` takes it."""
    phi = one_hot_feature_map(env.states, env.actions)
    run = learners._OnlineRun(env, phi, one_hot_measure_basis(env.states),
                              argmax_operator(), env.gamma, np.inf)
    run.eta = np.array(eta)
    run.s, run.a, run.rng = s, 0, np.random.default_rng(0)
    s, a, r, s_next, a_next = run.chain_step(run.q_table_now(), {})
    run.update_eta(s_next, alpha)
    run.update_theta(s, a, r, s_next, a_next, alpha)
    return run


def test_semisgd_step_tabular_q_substitution():
    # gamma = 0, zero Q, r = 1, alpha = 0.5: the visited entry becomes 0.5
    run = semisgd_step(constant_reward_env(1.0), [0.5, 0.5], s=1, alpha=0.5)
    np.testing.assert_array_equal(run.theta, [0.0, 0.5])


def test_semisgd_step_population_arithmetic():
    # alpha = 0.1, eta = (0.5, 0.5), s' = 0 -> (0.55, 0.45), no projection
    run = semisgd_step(constant_reward_env(0.0), [0.5, 0.5], s=1, alpha=0.1)
    np.testing.assert_allclose(run.eta, [0.55, 0.45], atol=1e-15)
    assert run.s == 0


def test_semisgd_step_fixed_point_unchanged():
    # zero rewards, zero Q, eta already the point mass at the absorbing
    # state: both semi-gradients vanish and the parameter stays put
    run = semisgd_step(constant_reward_env(0.0), [1.0, 0.0], s=0, alpha=0.3)
    np.testing.assert_array_equal(run.theta, np.zeros(2))
    np.testing.assert_array_equal(run.eta, [1.0, 0.0])


# -- full runs ------------------------------------------------------------------


def test_run_semisgd_zero_steps_returns_initial(toy_env):
    cfg = small_cfg(toy_env, steps=0)
    rec = run_semisgd(toy_env, cfg)
    np.testing.assert_array_equal(rec.steps, [0])
    phi, basis, pol = learners._defaults(toy_env, cfg, None, None, None)
    init = learners._OnlineRun(toy_env, phi, basis, pol, cfg.gamma, cfg.ball_radius)
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
    pol = learners._defaults(toy_env, cfg, None, None, None)[2]
    assert rec.steps.tolist() == rec.expl_steps.tolist() == [0, 100, 200, 300, 400]
    for i, t in enumerate(rec.steps.tolist()[1:], start=1):
        xi = rec.param_trace[t // k - 1]
        d = xi.eta - mu_ref
        assert rec.mse[i] == d @ d, t
        pi = policy_matrix(pol, xi.theta.reshape(toy_env.n_states, toy_env.n_actions))
        assert rec.expl_values[i] == exploitability(pi, toy_env), t


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


def test_run_online_fpi_er_needs_softmax(toy_env):
    cfg = small_cfg(toy_env, steps=10, algorithm="fpi-er", inner_k=5)
    with pytest.raises(ConfigError):
        run_online_fpi(toy_env, cfg, pol=argmax_operator())
    run_online_fpi(toy_env, cfg)  # softmax default works


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
    assert 100 in rec.expl_steps.tolist()


def test_model_based_fpi_fp_determinism(toy_env):
    a = model_based_fpi_fp(toy_env)
    b = model_based_fpi_fp(toy_env)
    np.testing.assert_array_equal(a.mu_star, b.mu_star)
    np.testing.assert_array_equal(a.q_star, b.q_star)
    np.testing.assert_array_equal(a.expl_trace, b.expl_trace)


# -- FPI policy-row cache -------------------------------------------------------


def _uncached_fpi_trace(env, cfg, variant, phi=None):
    """Online FPI written out apart from the learners' shared pass loop,
    without its per-pass row cache and without its projection guards: every
    draw computes its policy row from a copy of the frozen Q, the backward
    pass recomputes step sizes, every sample runs the full simplex test
    (sign and sum) and takes the exact norm of theta, and the simplex
    projection is the frozen oracle.  Returns the parameter after each pass
    and the sample indices at which the ball projection fired."""
    from mfglearn import learners
    from mfglearn.policy import softmax_operator

    phi, basis, pol = learners._defaults(env, cfg, phi, None, None)
    if variant == "er":
        pol = softmax_operator(pol.inverse_temperature / learners.ER_TEMPERATURE_DIVISOR)
    run = learners._OnlineRun(env, phi, basis, pol, cfg.gamma, cfg.ball_radius)
    run.init_from_seed(cfg.seed)
    theta, eta = run.theta, run.eta  # theta is written in place only
    eta_hist, theta_hist = eta.copy(), theta.copy()
    trace = []
    fires = []
    outer = 0
    base_t = 0
    while base_t < cfg.total_steps:
        k_eff = min(cfg.inner_k, cfg.total_steps - base_t)
        frozen_q = run.q_table_now().copy()
        obs = []
        for i in range(k_eff):
            obs.append(run.chain_step(frozen_q, {}))
            s_next, alpha = obs[-1][3], step_size(cfg.schedule, base_t + i)
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
                q[s, a] -= alpha * ((q[s, a] - cfg.gamma * q[s_next, a_next]) - r)
            else:
                ob = Observation(s, a, r, s_next, a_next)
                theta -= alpha * semi_gradient_theta(theta, ob, phi, cfg.gamma)
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
            schedule=StepSizeSchedule("constant", 0.05),
            gamma=env.gamma,
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
        schedule=StepSizeSchedule("constant", 0.05),
        gamma=env.gamma,
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


def test_run_online_fpi_computes_one_row_per_visited_state_per_pass(toy_env, monkeypatch):
    from mfglearn import learners

    calls = []
    original = learners.policy_row
    monkeypatch.setattr(learners, "policy_row", lambda op, q_row: calls.append(1) or original(op, q_row))
    cfg = small_cfg(toy_env, steps=1000, algorithm="fpi-vanilla", inner_k=100)
    run_online_fpi(toy_env, cfg)
    # the initial draw, then at most one row per state in each of 10 passes
    assert 1 + 10 <= len(calls) <= 1 + 10 * toy_env.n_states
