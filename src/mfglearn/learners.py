"""Online learners and the model-based reference solver.

Both online learners run one sample loop, ``_run_passes``, in passes of K
samples.  A pass draws its samples under the policy of the Q it starts from
and updates the population weights after each sample (forward pass), then
replays the same samples with the same step sizes to update the value
weights (backward pass).  ``run_online_fpi`` is this forward-backward
baseline; ``run_semisgd`` is the case K = 1, in which every observation
updates the value and population weights with the same step size, followed
by the ball and simplex projections.  So online FPI with K = 1 retraces
SemiSGD bit for bit under the same seed.

``model_based_fpi_fp`` computes the reference equilibrium by alternating
exact best responses (policy iteration), induced-population computation,
and fictitious-play averaging of the population iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import (
    ConfigError,
    Observation,
    RunConfig,
    StepSizeSchedule,
    UnifiedParameter,
    SIMPLEX_TOL,
)
from .envs import EnvironmentModel
from .lfa import (
    FeatureMap,
    MeasureBasis,
    one_hot_feature_map,
    one_hot_measure_basis,
    project_simplex,
    semi_gradient_eta,
    semi_gradient_theta,
)
from .metrics import (
    _POP_TOL,
    _exploitability_at,
    induced_population,
    q_table,
    value_iteration,
)
from .policy import PolicyOperator, policy_matrix, policy_row, sample_action, softmax_operator

ER_TEMPERATURE_DIVISOR = 1e5


def step_size(schedule: StepSizeSchedule, t: int) -> float:
    """Step size at step t; raises if the value leaves (0, 1)."""
    if t < 0:
        raise ConfigError(f"step index must be >= 0, got {t}")
    if schedule.kind == "constant":
        alpha = schedule.a0
    else:
        alpha = schedule.a0 / (1.0 + schedule.b * t)
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"step size {alpha} at t={t} is outside (0, 1)")
    return alpha


@dataclass(frozen=True)
class ReferenceSolution:
    """Model-based reference equilibrium."""

    q_star: np.ndarray  # (S, A)
    mu_star: np.ndarray  # (S,)
    iterations: int
    final_exploitability: float
    outer_iters: int = 300  # the solver's iteration budget
    converged: bool = False  # whether the stopping rule fired within it
    expl_iterations: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    expl_trace: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass(frozen=True)
class RunRecord:
    """Metrics of one seeded run, snapshotted at the configured cadence."""

    seed: int
    algorithm: str
    steps: np.ndarray
    mse: Optional[np.ndarray]
    expl_steps: Optional[np.ndarray]
    expl_values: Optional[np.ndarray]
    final: UnifiedParameter
    param_trace: Optional[List[UnifiedParameter]] = None


class _OnlineRun:
    """Chain and update plumbing of the sample loop ``_run_passes``.

    Holds flat parameter vectors plus a tabular (S, A) view of theta when
    the feature map is one-hot, the current chain position, and the run's
    generator.  General bases and feature maps use the
    semi-gradients of ``lfa``; the one-hot cases apply the same rules at a
    single index.
    """

    def __init__(
        self,
        env: EnvironmentModel,
        phi: FeatureMap,
        basis: MeasureBasis,
        pol: PolicyOperator,
        gamma: float,
        radius: float,
        project: bool = True,
    ):
        self.env = env
        self.phi = phi
        self.basis = basis
        self.pol = pol
        self.project = project
        self.gamma = gamma
        self.radius = radius
        self.tabular_q = phi.one_hot
        self.tabular_m = basis.identity_gram and basis.d2 == env.n_states
        self.feasible = env.actions.feasible
        # theta is only ever written in place, so the tabular view stays bound
        self.theta = np.zeros(phi.d1)
        self.theta2d = self.theta.reshape(env.n_states, env.n_actions) if self.tabular_q else None
        # one-hot path: an upper bound on max |theta_i|, and the level up to
        # which sqrt(d1) * bound stays within the radius even after the
        # rounding of the exact norm (at most d1 * 2**-53 relative)
        self.theta_bound = 0.0
        self.bound_cap = float(radius) / (math.sqrt(phi.d1) * (1.0 + 1e-9 + phi.d1 * 2.0 ** -52))
        self.eta = np.full(basis.d2, 1.0 / basis.d2)
        self.s = 0
        self.a = 0
        self.rng = None

    def init_from_seed(self, seed: int):
        """Default initialization: zero Q, random simplex population,
        uniform initial state, on-policy initial action."""
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.set_theta(0.0)
        self.eta = project_simplex(rng.random(self.basis.d2))
        self.s = sample_action(self.env.initial_state, rng)
        self.a = self._draw_action(self.q_table_now(), self.s, rng, {})

    # -- policy / sampling helpers -------------------------------------

    def q_table_now(self) -> np.ndarray:
        if self.tabular_q:
            return self.theta2d
        return q_table(self.theta, self.phi, self.env)

    def _draw_action(self, q2d: np.ndarray, s: int, rng: np.random.Generator, rows: dict) -> int:
        """On-policy action at s, remapped to the feasible actions there.
        ``rows`` caches policy rows by state and is only valid while ``q2d``
        does not change."""
        feasible = self.feasible
        row = rows.get(s)
        if row is None:
            q_row = q2d[s] if feasible is None else q2d[s, feasible[s]]
            row = rows[s] = policy_row(self.pol, q_row)
        j = sample_action(row, rng)
        return j if feasible is None else int(feasible[s][j])

    def represent(self) -> np.ndarray:
        if self.tabular_m:
            return self.eta
        return self.basis.represent(self.eta)

    # -- chain and updates ----------------------------------------------

    def chain_step(self, q2d_policy: np.ndarray, rows: dict):
        """Advance the chain one transition; the chain is never reset.

        The next action is drawn from the supplied Q table, the one the
        current pass started from, with that pass's policy-row cache
        ``rows``.  Returns the observation (s, a, r, s_next, a_next).
        """
        env = self.env
        m = self.represent()
        s, a = self.s, self.a
        r = env.reward(s, a, m)
        s_next = env.sample_next(s, a, m, self.rng)
        a_next = self._draw_action(q2d_policy, s_next, self.rng, rows)
        self.s, self.a = s_next, a_next
        return s, a, r, s_next, a_next

    def update_eta(self, s_next: int, alpha: float):
        """One population step with step size alpha in (0, 1), then the
        simplex projection if eta has left the simplex.

        The one-hot step eta <- (1 - alpha) eta + alpha e_{s'} keeps a
        non-negative eta non-negative, and every eta this run holds is
        non-negative (initial projection, these steps, ``fp_mix``), so only
        the sum is tested there.  A general basis tests the sum first and
        the sign only when the sum passes.  Either way ``project_simplex``
        is called exactly when eta fails the full test (entries >= 0, sum
        within ``SIMPLEX_TOL`` of one).
        """
        eta = self.eta
        if self.tabular_m:
            eta *= 1.0 - alpha
            eta[s_next] += alpha
        else:
            eta -= alpha * semi_gradient_eta(eta, s_next, self.basis)
        if self.project:
            if not (abs(float(eta.sum()) - 1.0) <= SIMPLEX_TOL
                    and (self.tabular_m or eta.min() >= 0.0)):
                self.eta = project_simplex(eta)

    def update_theta(self, s, a, r, s_next, a_next, alpha: float):
        """One TD step with step size alpha, then the ball projection: theta
        is rescaled onto the ball exactly when sqrt(theta @ theta) > radius.

        A one-hot step writes q[s, a] alone, so ``theta_bound``, the running
        maximum of the written |q[s, a]|, bounds max |theta_i| as long as
        every other write to theta goes through ``set_theta`` or this
        rescaling (which scales the bound with theta).  sqrt(d1) * bound
        then bounds the norm, and the exact norm is computed only once the
        bound passes ``bound_cap``.  Dense feature maps take the exact norm
        after every sample.
        """
        if self.tabular_q:
            q = self.theta2d
            td = (q[s, a] - self.gamma * q[s_next, a_next]) - r
            q[s, a] -= alpha * td
            v = abs(q[s, a])
            if v > self.theta_bound:
                self.theta_bound = v
            if self.theta_bound <= self.bound_cap:
                return
        else:
            obs = Observation(s, a, r, s_next, a_next)
            self.theta -= alpha * semi_gradient_theta(self.theta, obs, self.phi, self.gamma)
        if self.project:
            norm = float(np.sqrt(self.theta @ self.theta))
            if norm > self.radius:
                scale = self.radius / norm
                self.theta *= scale
                self.theta_bound *= scale

    def set_theta(self, theta):
        """Overwrite theta in place, so the tabular view stays bound, and
        recompute ``theta_bound``."""
        self.theta[:] = theta
        self.theta_bound = float(np.abs(self.theta).max())

    def parameter(self) -> UnifiedParameter:
        return UnifiedParameter(theta=self.theta.copy(), eta=self.eta.copy())


class _Recorder:
    """Collects MSE / exploitability snapshots at the configured cadences."""

    def __init__(
        self,
        run: _OnlineRun,
        cadence: int,
        expl_every: Optional[int],
        mu_ref: Optional[np.ndarray],
        ref_map: Optional[np.ndarray],
        record_params: bool,
    ):
        self.run = run
        self.cadence = cadence
        self.expl_every = expl_every
        self.mu_ref = mu_ref
        self.ref_map = ref_map
        self.steps: List[int] = []
        self.mse: List[float] = []
        self.expl_steps: List[int] = []
        self.expl: List[float] = []
        self.trace: Optional[List[UnifiedParameter]] = [] if record_params else None

    def snapshot(self, t: int):
        self.steps.append(t)
        if self.mu_ref is not None:
            m = self.run.represent()
            if self.ref_map is not None:
                m = self.ref_map @ m
            d = m - self.mu_ref
            self.mse.append(float(d @ d))
        if self.expl_every and t % self.expl_every == 0:
            pi = policy_matrix(self.run.pol, self.run.q_table_now(), self.run.feasible)
            mu_pi = induced_population(pi, self.run.env)
            self.expl_steps.append(t)
            self.expl.append(_exploitability_at(pi, self.run.env, mu_pi))

    def maybe_snapshot(self, t: int):
        if t % self.cadence == 0:
            self.snapshot(t)

    def record_param(self):
        if self.trace is not None:
            self.trace.append(self.run.parameter())

    def to_record(self, seed: int, algorithm: str) -> RunRecord:
        return RunRecord(
            seed=seed,
            algorithm=algorithm,
            steps=np.array(self.steps, dtype=int),
            mse=np.array(self.mse) if self.mse else None,
            expl_steps=np.array(self.expl_steps, dtype=int) if self.expl else None,
            expl_values=np.array(self.expl) if self.expl else None,
            final=self.run.parameter(),
            param_trace=self.trace,
        )


def _defaults(env, cfg, phi, basis, pol):
    if phi is None:
        phi = one_hot_feature_map(env.states, env.actions)
    if basis is None:
        basis = one_hot_measure_basis(env.states)
    if pol is None:
        pol = softmax_operator(cfg.inverse_temperature)
    return phi, basis, pol


def fp_mix(eta_hist: np.ndarray, eta_new: np.ndarray, alpha: float) -> np.ndarray:
    """Fictitious-play damping of the population estimate toward its history,
    followed by l1 renormalization.  alpha = 1 keeps the fresh estimate."""
    mixed = (1.0 - alpha) * eta_hist + alpha * eta_new
    mass = float(mixed.sum())
    return mixed / mass if mass > 0 else mixed


def md_mix(theta_hist: np.ndarray, theta_new: np.ndarray, alpha: float) -> np.ndarray:
    """Incremental Q mixing of the mirror-descent baseline.  alpha = 0 keeps
    the historical value function unchanged."""
    return (1.0 - alpha) * theta_hist + alpha * theta_new


def _run_passes(
    env: EnvironmentModel,
    cfg: RunConfig,
    algorithm: str,
    k: int,
    phi: Optional[FeatureMap],
    basis: Optional[MeasureBasis],
    pol: Optional[PolicyOperator],
    mu_ref: Optional[np.ndarray],
    ref_map: Optional[np.ndarray],
    record_params: bool,
    project: bool = True,
) -> RunRecord:
    """The sample loop of both learners: T samples in passes of K.

    The forward pass never writes theta, so each pass computes the policy
    row of a visited state once, from the Q the pass started from, and
    reuses it.  A snapshot inside a pass sees that frozen theta; one at a
    pass boundary, t = T included, is taken after the pass's value update
    and mixing.  A parameter is recorded after every pass.
    """
    phi, basis, pol = _defaults(env, cfg, phi, basis, pol)
    if algorithm == "fpi-er":
        if pol.kind != "softmax":
            raise ConfigError("the ER variant needs a softmax policy operator")
        pol = softmax_operator(pol.inverse_temperature / ER_TEMPERATURE_DIVISOR)
    run = _OnlineRun(env, phi, basis, pol, cfg.gamma, cfg.ball_radius, project=project)
    run.init_from_seed(cfg.seed)
    rec = _Recorder(run, cfg.cadence, cfg.expl_every, mu_ref, ref_map, record_params)
    rec.snapshot(0)
    schedule = cfg.schedule
    total = cfg.total_steps
    fp, md = algorithm == "fpi-fp", algorithm == "fpi-md"
    eta_hist = run.eta.copy() if fp else None
    theta_hist = run.theta.copy() if md else None

    for outer, start in enumerate(range(0, total, k)):
        end = min(start + k, total)
        q = run.q_table_now()
        rows = {}  # policy rows of q, for this forward pass only
        obs = []
        for t in range(start, end):
            alpha = step_size(schedule, t)
            ob = run.chain_step(q, rows)
            run.update_eta(ob[3], alpha)
            obs.append((ob, alpha))
            if t + 1 < end:
                rec.maybe_snapshot(t + 1)
        if fp:
            run.eta = fp_mix(eta_hist, run.eta, step_size(schedule, outer))
            eta_hist = run.eta.copy()
        for ob, alpha in obs:
            run.update_theta(*ob, alpha)
        if md:
            run.set_theta(md_mix(theta_hist, run.theta, step_size(schedule, outer)))
            theta_hist = run.theta.copy()
        rec.record_param()
        if end == total:
            rec.snapshot(total)
        else:
            rec.maybe_snapshot(end)
    return rec.to_record(cfg.seed, algorithm)


def run_semisgd(
    env: EnvironmentModel,
    cfg: RunConfig,
    phi: Optional[FeatureMap] = None,
    basis: Optional[MeasureBasis] = None,
    pol: Optional[PolicyOperator] = None,
    mu_ref: Optional[np.ndarray] = None,
    ref_map: Optional[np.ndarray] = None,
    record_params: bool = False,
    project: bool = True,
) -> RunRecord:
    """T sequential SemiSGD steps from the default initialization.

    This is the sample loop with K = 1: each sample updates the population
    and then the value weights with the same step size, and every snapshot
    sees both updates.  Snapshots are taken at t = 0, every ``cfg.cadence``
    steps, and at t = T.  ``project = False`` turns off the ball and simplex
    projections.  The record is a deterministic function of (env, cfg).
    """
    return _run_passes(env, cfg, "semisgd", 1, phi, basis, pol, mu_ref, ref_map,
                       record_params, project)


def run_online_fpi(
    env: EnvironmentModel,
    cfg: RunConfig,
    phi: Optional[FeatureMap] = None,
    basis: Optional[MeasureBasis] = None,
    pol: Optional[PolicyOperator] = None,
    mu_ref: Optional[np.ndarray] = None,
    ref_map: Optional[np.ndarray] = None,
    record_params: bool = False,
) -> RunRecord:
    """Online fixed-point iteration, ``cfg.algorithm``, with K = ``cfg.inner_k``
    samples per outer loop.

    Each outer loop freezes the policy at the current Q, advances the chain
    K steps while updating only the population weights (forward pass), then
    replays the same K observations in order to update only the value
    weights with the rewards as observed (backward pass).  The FP variant
    damps the population toward its history after the forward pass, MD
    damps Q after the backward pass, each with the step size at the outer
    index, and ER runs with the softmax inverse temperature divided by 1e5.
    A snapshot at the end of an outer loop is taken after its value update
    and mixing; one inside a forward pass sees the frozen Q.  The last loop
    is shorter when K does not divide T.
    """
    if not cfg.algorithm.startswith("fpi-"):
        raise ConfigError(f"config algorithm {cfg.algorithm!r} is not an FPI variant")
    # RunConfig holds an FPI variant's inner_k in [1, T]
    return _run_passes(env, cfg, cfg.algorithm, cfg.inner_k, phi, basis, pol, mu_ref, ref_map,
                       record_params)


def model_based_fpi_fp(
    env: EnvironmentModel,
    outer_iters: int = 300,
    expl_every: Optional[int] = 1,
) -> ReferenceSolution:
    """Reference equilibrium by model-based FPI with fictitious play.

    Alternates (i) the best response at the averaged population, by policy
    iteration with exact evaluation (``value_iteration``), (ii) the induced
    population of that greedy policy (population fed back into the kernel),
    and (iii) fictitious-play averaging mu <- (k*mu + mu_new)/(k+1).  Once
    the greedy policy and its induced population stop changing, a final
    consistency pass recomputes Q at the induced population, so the returned
    pair satisfies both fixed points up to the stated tolerances.  The solution
    records the ``outer_iters`` budget and, as ``converged``, whether that
    stopping rule fired within it; otherwise the pass runs at the last
    iterate.
    """
    if outer_iters < 1:
        raise ConfigError("outer_iters must be >= 1")
    mu_avg = env.initial_state.copy()
    expl_iters: List[int] = []
    expl_vals: List[float] = []
    greedy_prev = None
    mu_ind_prev = None
    iterations = 0
    converged = False

    for k in range(outer_iters):
        _, _, pi = value_iteration(env, mu_avg)
        mu_ind = induced_population(pi, env)
        iterations = k + 1
        if expl_every and k % expl_every == 0:
            expl_iters.append(k)
            expl_vals.append(_exploitability_at(pi, env, mu_ind))
        greedy_actions = np.argmax(pi, axis=1)
        if (
            greedy_prev is not None
            and np.array_equal(greedy_actions, greedy_prev)
            and float(np.abs(mu_ind - mu_ind_prev).sum()) < 10.0 * _POP_TOL
        ):
            converged = True
            break
        greedy_prev = greedy_actions
        mu_ind_prev = mu_ind
        mu_avg = (k * mu_avg + mu_ind) / (k + 1.0)

    # consistency pass at the final greedy policy
    pi_last = np.zeros((env.n_states, env.n_actions))
    pi_last[np.arange(env.n_states), greedy_prev] = 1.0
    mu_star = induced_population(pi_last, env)
    _, q_star, pi_star = value_iteration(env, mu_star)
    if np.array_equal(np.argmax(pi_star, axis=1), greedy_prev):
        final_expl = _exploitability_at(pi_star, env, mu_star)
    else:
        mu_pi = induced_population(pi_star, env)
        final_expl = _exploitability_at(pi_star, env, mu_pi)
    return ReferenceSolution(
        q_star=q_star,
        mu_star=mu_star,
        iterations=iterations,
        final_exploitability=final_expl,
        outer_iters=outer_iters,
        converged=converged,
        expl_iterations=np.array(expl_iters, dtype=int),
        expl_trace=np.array(expl_vals),
    )
