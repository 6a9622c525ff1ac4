"""Online learners and the model-based reference solver.

``run_online_fpi`` is the one online learner: it runs the algorithm its
config names in passes of K samples, K = 1 for SemiSGD and ``inner_k`` for
an FPI variant.  A pass draws its samples under the policy of the Q it
starts from and updates the population weights after each sample (forward
pass), then replays the same samples with the same step sizes to update the
value weights (backward pass).  A run keeps one policy-row cache for all its
passes; every write to Q drops the rows it moves, and the next draw that
misses recomputes them together.  At K = 1 every observation updates the
value and population weights with the same step size, followed by the ball
and simplex projections: that is SemiSGD, so online FPI with K = 1 retraces
it bit for bit under the same seed.  ``run_semisgd`` is another name of the
same function.

``model_based_fpi_fp`` computes the reference equilibrium by alternating
exact best responses (policy iteration), induced-population computation,
and fictitious-play averaging of the population iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    _exploitability_at,
    exploitability,
    induced_population,
    q_table,
    value_iteration,
)
from .policy import PolicyOperator, policy_matrix, policy_row, sample_action, softmax_operator

ER_TEMPERATURE_DIVISOR = 1e5

# Doubles a run draws from its generator at a time (see ``_Uniforms``).
UNIFORM_BLOCK = 512

# u, the unit roundoff of float64, and the growth of the tabular simplex-sum
# bound per in-place step (see ``_OnlineRun.update_eta``).  The step moves
# |sum(eta) - 1| from drift to at most (1 - alpha) drift + 3u (1 + drift) up
# to terms of order u**2; a fourth u covers those, subnormal products and the
# rounding of the bound itself.
_U = 2.0 ** -53
STEP_DRIFT = 4.0 * _U


def step_size(schedule: StepSizeSchedule, t: int) -> float:
    """Step size at step t; raises if the value leaves (0, 1)."""
    if t < 0:
        raise ConfigError(f"step index must be >= 0, got {t}")
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
    outer_iters: int  # the solver's iteration budget
    converged: bool  # whether the stopping rule fired within it
    expl_iterations: np.ndarray
    expl_trace: np.ndarray


@dataclass(frozen=True)
class RunRecord:
    """Metrics of one seeded run, snapshotted at the configured cadence."""

    seed: int
    algorithm: str
    steps: np.ndarray
    mse: Optional[np.ndarray]
    expl: List[Optional[float]]  # one cell per snapshot, None where none was taken
    final: UnifiedParameter
    param_trace: Optional[List[UnifiedParameter]] = None


class _Uniforms:
    """The doubles of a generator's ``random()`` calls, drawn in blocks.

    ``rng.random(n)`` returns exactly the doubles of n calls of
    ``rng.random()``, so a run that draws every uniform through one of these
    sources sees its generator's stream in the same order, at a fraction of
    the per-call cost.  The generator itself runs up to ``UNIFORM_BLOCK``
    doubles ahead and must not be drawn from directly afterwards.
    """

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator):
        def doubles():
            while True:
                yield from rng.random(UNIFORM_BLOCK).tolist()

        self.random = doubles().__next__


class _RowCache(dict):
    """Policy rows and their inverse CDFs, ``state -> (row, cdf)``, and the
    ``stale`` states whose rows a write to their Q row dropped.  The next
    miss recomputes the stale rows with its own (``_OnlineRun._draw_action``).
    """

    __slots__ = ("stale",)

    def __init__(self):
        super().__init__()
        self.stale = set()

    def clear(self):
        """Drop every row, after a write that moves all of Q."""
        super().clear()
        self.stale.clear()


class _OnlineRun:
    """Chain and update plumbing of the sample loop ``run_online_fpi``.

    Holds flat parameter vectors plus a tabular (S, A) view of theta when
    the feature map is one-hot, the current chain position, the source
    ``rng`` of every transition and action draw (after ``init_from_seed``,
    the seeded generator's ``_Uniforms``), and ``rows``, the policy rows of
    the current Q.  Every write to theta goes through ``update_theta`` or
    ``set_theta``, which keep ``rows`` valid.  A miss reads Q rows from
    theta through ``q_rows``, so a dense map costs one row per missed state
    and only a snapshot builds the (S, A) table.  The TD discount is the
    game's, ``env.gamma``.  General bases and feature maps use the
    semi-gradients of ``lfa``; the one-hot cases apply the same rules at a
    single index.
    """

    def __init__(
        self,
        env: EnvironmentModel,
        phi: FeatureMap,
        basis: MeasureBasis,
        pol: PolicyOperator,
        radius: float,
        project: bool = True,
    ):
        self.env = env
        self.phi = phi
        self.basis = basis
        self.pol = pol
        self.project = project
        self.gamma = env.gamma
        self.radius = radius
        self.tabular_q = phi.one_hot
        # eta as state masses only for the Dirac basis in state order
        self.tabular_m = basis.identity_gram and np.array_equal(basis.masses, np.eye(env.n_states))
        self.feasible = env.actions.feasible
        # theta is only ever written in place, so the tabular view stays bound
        self.theta = np.zeros(phi.d1)
        self.theta2d = self.theta.reshape(env.n_states, env.n_actions) if self.tabular_q else None
        # one-hot path: an upper bound on max |theta_i|, and the level up to
        # which sqrt(d1) * bound stays within the radius even after the
        # rounding of the exact norm (at most d1 * 2**-53 relative)
        self.theta_bound = 0.0
        self.bound_cap = float(radius) / (math.sqrt(phi.d1) * (1.0 + 1e-9 + phi.d1 * 2.0 ** -52))
        # tabular guard: a sum of n non-negative doubles in any order is within
        # (n - 1) u of the exact one, relative; twice n units also cover the
        # rounding of the bounds below
        self.sum_err = 2.0 * basis.d2 * _U
        self.drift_cap = (SIMPLEX_TOL - self.sum_err) / (1.0 + self.sum_err)
        self.eta = np.full(basis.d2, 1.0 / basis.d2)
        self.rows = _RowCache()
        # the Q rows at a state or a list of states, read from theta itself
        self.q_rows = (self.theta2d.__getitem__ if self.tabular_q
                       else lambda states: phi.features[states] @ self.theta)
        self.s = 0
        self.a = 0
        self.rng = None

    def init_from_seed(self, seed: int):
        """Default initialization: zero Q, random simplex population,
        uniform initial state, on-policy initial action."""
        rng = np.random.default_rng(seed)
        self.set_theta(0.0)
        self.eta = project_simplex(rng.random(self.basis.d2))
        self.rng = _Uniforms(rng)
        self.s = sample_action(self.env.initial_state, self.rng)
        self.a = self._draw_action(self.s)

    @property
    def eta(self) -> np.ndarray:
        return self._eta

    @eta.setter
    def eta(self, value: np.ndarray):
        """Every write to eta but the in-place step of ``update_eta`` comes
        here, and leaves the simplex-sum bound unknown."""
        self._eta = value
        self.eta_drift = math.inf

    # -- policy / sampling helpers -------------------------------------

    def _draw_action(self, s: int) -> int:
        """On-policy action at s from ``rng``, remapped to the feasible
        actions there, through ``rows``.  A miss computes the rows at s and
        at every stale state together from their ``q_rows``: row by row under
        feasibility masks or for one row, one ``policy_row`` call otherwise."""
        pol, feasible, rows, q_rows = self.pol, self.feasible, self.rows, self.q_rows
        entry = rows.get(s)
        if entry is None:
            stale = rows.stale
            stale.add(s)
            if feasible is not None or len(stale) == 1:
                for t in stale:
                    row = policy_row(pol, q_rows(t) if feasible is None else q_rows(t)[feasible[t]])
                    rows[t] = (row, row.cumsum())
            else:
                states = list(stale)
                block = policy_row(pol, q_rows(states))
                cdfs = block.cumsum(axis=1)
                for i, t in enumerate(states):
                    rows[t] = (block[i], cdfs[i])
            stale.clear()
            entry = rows[s]
        j = sample_action(entry[0], self.rng, entry[1])
        return j if feasible is None else int(feasible[s][j])

    def represent(self) -> np.ndarray:
        if self.tabular_m:
            return self._eta
        return self.basis.represent(self._eta)

    # -- chain and updates ----------------------------------------------

    def chain_step(self):
        """Advance the chain one transition; the chain is never reset.

        The next action is drawn under the policy of the current Q, which a
        forward pass never writes, so it is the Q the pass started from.
        Returns the observation (s, a, r, s_next, a_next).
        """
        env = self.env
        m = self.represent()
        s, a = self.s, self.a
        r = env.reward(s, a, m)
        s_next = env.sample_next(s, a, m, self.rng)
        a_next = self._draw_action(s_next)
        self.s, self.a = s_next, a_next
        return s, a, r, s_next, a_next

    def update_eta(self, s_next: int, alpha: float):
        """One population step with step size alpha in (0, 1), then the
        simplex projection if eta has left the simplex.

        The one-hot step eta <- (1 - alpha) eta + alpha e_{s'} keeps a
        non-negative eta non-negative, and every eta this run holds is
        non-negative (initial projection, these steps, ``fp_mix``), so only
        the sum is tested there, and ``project_simplex`` is called exactly
        when eta fails the full test (entries >= 0, float sum within
        ``SIMPLEX_TOL`` of one).

        Invariant: ``eta_drift`` bounds |exact sum(eta) - 1| for the eta the
        run holds.  It is infinite after any write through the ``eta``
        setter, and each in-place step here carries it forward as
        drift (1 - alpha) + ``STEP_DRIFT`` (1 + drift).  The float sum lies
        within ``sum_err`` (1 + drift) of the exact one, so a drift up to
        ``drift_cap`` proves that the test passes.  Only a drift past the
        cap takes the float sum, and a passing sum resets the drift: after
        a write, and, at step sizes below about 4.5e-4 (where the fixed
        point ``STEP_DRIFT`` / alpha lies past the cap), every few thousand
        steps.

        A general basis leaves the test to ``project_simplex`` alone, which
        is called after every step and returns a copy of an eta that passes
        it.
        """
        eta = self._eta
        if self.tabular_m:
            eta *= 1.0 - alpha
            eta[s_next] += alpha
            if not self.project:
                return
            drift = self.eta_drift
            drift = drift * (1.0 - alpha) + STEP_DRIFT * (1.0 + drift)
            if drift <= self.drift_cap:
                self.eta_drift = drift
                return
            total = float(eta.sum())
            if abs(total - 1.0) <= SIMPLEX_TOL:
                self.eta_drift = abs(total - 1.0) + self.sum_err * total
            else:
                self.eta = project_simplex(eta)
            return
        g = semi_gradient_eta(eta, s_next, self.basis)
        g *= alpha
        eta -= g
        if self.project:
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

        A one-hot step drops the row at s from ``rows`` and marks s stale; a
        dense step and a rescaling move every row and empty the cache.
        """
        rows = self.rows
        if self.tabular_q:
            q = self.theta2d
            td = (q[s, a] - self.gamma * q[s_next, a_next]) - r
            q[s, a] -= alpha * td
            if rows.pop(s, None) is not None:
                rows.stale.add(s)
            v = abs(q[s, a])
            if v > self.theta_bound:
                self.theta_bound = v
            if self.theta_bound <= self.bound_cap:
                return
        else:
            obs = Observation(s, a, r, s_next, a_next)
            self.theta -= alpha * semi_gradient_theta(self.theta, obs, self.phi, self.gamma)
            rows.clear()
        if self.project:
            norm = float(np.sqrt(self.theta @ self.theta))
            if norm > self.radius:
                scale = self.radius / norm
                self.theta *= scale
                self.theta_bound *= scale
                rows.clear()

    def set_theta(self, theta):
        """Overwrite theta in place, so the tabular view stays bound,
        recompute ``theta_bound`` and empty the row cache."""
        self.theta[:] = theta
        self.theta_bound = float(np.abs(self.theta).max())
        self.rows.clear()

    def parameter(self) -> UnifiedParameter:
        return UnifiedParameter(theta=self.theta.copy(), eta=self._eta.copy())


class _Recorder:
    """Collects MSE / exploitability snapshots at the steps the sample loop
    passes it, exploitability only at multiples of ``expl_every`` and None
    at the others."""

    def __init__(
        self,
        run: _OnlineRun,
        expl_every: Optional[int],
        mu_ref: Optional[np.ndarray],
        ref_map: Optional[np.ndarray],
        record_params: bool,
    ):
        self.run = run
        self.expl_every = expl_every
        self.mu_ref = mu_ref
        self.ref_map = ref_map
        self.steps: List[int] = []
        self.mse: List[float] = []
        self.expl: List[Optional[float]] = []
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
            run = self.run
            pi = policy_matrix(run.pol, q_table(run.theta, run.phi, run.env), run.feasible)
            mu_pi = induced_population(pi, run.env)
            self.expl.append(_exploitability_at(pi, run.env, mu_pi))
        else:
            self.expl.append(None)

    def to_record(self, seed: int, algorithm: str) -> RunRecord:
        return RunRecord(
            seed=seed,
            algorithm=algorithm,
            steps=np.array(self.steps, dtype=int),
            mse=np.array(self.mse) if self.mse else None,
            expl=self.expl,
            final=self.run.parameter(),
            param_trace=self.trace,
        )


def _defaults(env, cfg, phi, basis):
    """The one-hot feature map and basis where none is given, and the
    softmax policy at ``cfg.inverse_temperature``."""
    if phi is None:
        phi = one_hot_feature_map(env.states, env.actions)
    if basis is None:
        basis = one_hot_measure_basis(env.states)
    return phi, basis, softmax_operator(cfg.inverse_temperature)


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


def run_online_fpi(
    env: EnvironmentModel,
    cfg: RunConfig,
    phi: Optional[FeatureMap] = None,
    basis: Optional[MeasureBasis] = None,
    mu_ref: Optional[np.ndarray] = None,
    ref_map: Optional[np.ndarray] = None,
    record_params: bool = False,
    project: bool = True,
) -> RunRecord:
    """The online learner ``cfg.algorithm``: T samples from the default
    initialization in passes of K, K = 1 for ``semisgd`` and ``cfg.inner_k``
    for an FPI variant.

    A pass advances the chain K steps under the policy of the Q it started
    from, updating only the population weights (forward pass), then replays
    the same observations with the same step sizes to update only the value
    weights (backward pass), so it computes the policy row of a visited
    state at most once.  The last pass is shorter when K does not divide T.
    The FP variant damps the population toward its history after the
    forward pass, MD damps Q after the backward pass, each with the step
    size at the pass index, and ER divides the softmax inverse temperature
    by 1e5.

    Snapshots are taken at t = 0, every ``cfg.cadence`` steps and at t = T:
    one inside a pass sees its frozen theta, one at a pass boundary follows
    the pass's value update and mixing.  A parameter is recorded after
    every pass.  ``project = False`` turns off the ball and simplex
    projections.  The policy is the softmax at ``cfg.inverse_temperature``
    and the discount ``env.gamma``, so the record is a deterministic
    function of (env, cfg).
    """
    algorithm = cfg.algorithm
    # RunConfig holds an FPI variant's inner_k in [1, T]
    k = 1 if algorithm == "semisgd" else cfg.inner_k
    phi, basis, pol = _defaults(env, cfg, phi, basis)
    if algorithm == "fpi-er":
        pol = softmax_operator(pol.inverse_temperature / ER_TEMPERATURE_DIVISOR)
    run = _OnlineRun(env, phi, basis, pol, cfg.ball_radius, project=project)
    run.init_from_seed(cfg.seed)
    rec = _Recorder(run, cfg.expl_every, mu_ref, ref_map, record_params)
    rec.snapshot(0)
    schedule = cfg.schedule
    total = cfg.total_steps
    cadence = cfg.cadence
    trace = rec.trace
    fp, md = algorithm == "fpi-fp", algorithm == "fpi-md"
    eta_hist = run.eta.copy() if fp else None
    theta_hist = run.theta.copy() if md else None

    for outer, start in enumerate(range(0, total, k)):
        end = min(start + k, total)
        obs = []
        for t in range(start, end):
            alpha = step_size(schedule, t)
            ob = run.chain_step()
            run.update_eta(ob[3], alpha)
            obs.append((ob, alpha))
            if (t + 1) % cadence == 0 and t + 1 < end:
                rec.snapshot(t + 1)
        if fp:
            run.eta = fp_mix(eta_hist, run.eta, step_size(schedule, outer))
            eta_hist = run.eta.copy()
        for ob, alpha in obs:
            run.update_theta(*ob, alpha)
        if md:
            run.set_theta(md_mix(theta_hist, run.theta, step_size(schedule, outer)))
            theta_hist = run.theta.copy()
        if trace is not None:
            trace.append(run.parameter())
        if end == total or end % cadence == 0:
            rec.snapshot(end)
    return rec.to_record(cfg.seed, algorithm)


# SemiSGD is online FPI with K = 1; the CLI calls the learner by both names
# (see ``cli._run_seeds``)
run_semisgd = run_online_fpi


def model_based_fpi_fp(
    env: EnvironmentModel,
    outer_iters: int = 300,
    expl_every: Optional[int] = 1,
) -> ReferenceSolution:
    """Reference equilibrium by model-based FPI with fictitious play.

    Alternates (i) the best response at the averaged population, by policy
    iteration with exact evaluation (``value_iteration``), (ii) the induced
    population of that greedy policy (population fed back into the kernel),
    and (iii) fictitious-play averaging mu <- (k*mu + mu_new)/(k+1).  It
    stops once two consecutive greedy policies are equal.  The greedy policy
    is compared before its population is induced: at the repeat, the policy,
    its population and its exploitability are bit-equal to the previous
    iteration's, so the stop iteration reuses them and still gets its trace
    entry.  A final consistency pass takes the last greedy policy's induced
    population as ``mu_star`` and recomputes Q there, so the returned pair
    satisfies both fixed points up to the stated tolerances.  The best
    response solved for the last exploitability, at an induced population,
    is kept and reused where the solve needs one at a population with the
    same bytes: at k = 1, where the average is the first induced
    population, and in the consistency pass.  The solution records the
    ``outer_iters`` budget and, as ``converged``, whether that stopping rule
    fired within it; otherwise the pass runs at the last iterate.
    """
    if outer_iters < 1:
        raise ConfigError("outer_iters must be >= 1")
    mu_avg = env.initial_state.copy()
    expl_iters: List[int] = []
    expl_vals: List[float] = []
    greedy_prev = None
    iterations = 0
    solved = (None, None)  # the last exploitability's population bytes and best response

    def best_response(mu):
        return solved[1] if solved[0] == mu.tobytes() else value_iteration(env, mu)

    for k in range(outer_iters):
        pi = best_response(mu_avg)[2]
        iterations = k + 1
        greedy = np.argmax(pi, axis=1)
        converged = greedy_prev is not None and np.array_equal(greedy, greedy_prev)
        if not converged:
            mu_ind = induced_population(pi, env)
        if expl_every and k % expl_every == 0:
            if converged and expl_iters[-1] == k - 1:  # the same policy, just evaluated
                expl_vals.append(expl_vals[-1])
            else:
                solved = (mu_ind.tobytes(), value_iteration(env, mu_ind))
                expl_vals.append(_exploitability_at(pi, env, mu_ind, solved[1][0]))
            expl_iters.append(k)
        if converged:
            break
        greedy_prev = greedy
        mu_avg = (k * mu_avg + mu_ind) / (k + 1.0)

    # consistency pass at the final greedy policy and its induced population
    mu_star = mu_ind
    v_star, q_star, pi_star = best_response(mu_star)
    if np.array_equal(np.argmax(pi_star, axis=1), greedy):
        final_expl = _exploitability_at(pi_star, env, mu_star, v_star)
    else:
        final_expl = exploitability(pi_star, env)
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
