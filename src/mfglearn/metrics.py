"""Evaluation machinery: MSE, induced populations, value iteration, policy
evaluation, exploitability, the mean-path semi-gradient stationarity
certificate, and span residuals of measure bases.

Stationary and induced distributions are computed by fixed-point iteration
of the transition operator (power sweeps).  For population-independent
kernels the sweeps are accelerated by repeated squaring of the dense
policy kernel, with a damped variant as fallback for periodic chains; the
fixed point is unchanged by either device.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .envs import EnvironmentModel
from .lfa import FeatureMap, MeasureBasis
from .policy import PolicyOperator, policy_matrix

_MAX_SWEEPS = 10**6


class MetricsError(RuntimeError):
    """Raised on non-convergence; carries the last residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


def mse(m: np.ndarray, m_ref: np.ndarray) -> float:
    """Squared l2 distance sum_s (m(s) - m_ref(s))^2 between mass vectors."""
    m = np.asarray(m, dtype=np.float64)
    m_ref = np.asarray(m_ref, dtype=np.float64)
    if m.shape != m_ref.shape:
        raise ValueError(f"length mismatch: {m.shape} vs {m_ref.shape}")
    d = m - m_ref
    return float(d @ d)


def dense_policy_kernel(pi: np.ndarray, env: EnvironmentModel, mu: np.ndarray) -> np.ndarray:
    """Dense state-to-state kernel P_pi[s, s'] under policy pi at population mu."""
    idx, probs = env.kernel_support(mu)
    n_s = env.n_states
    p = np.zeros((n_s, n_s))
    w = pi[:, :, None] * probs
    rows = np.broadcast_to(np.arange(n_s)[:, None, None], idx.shape)
    np.add.at(p, (rows.ravel(), idx.ravel()), w.ravel())
    return p


def _stationary_of_dense(p: np.ndarray, tol: float, plain_limit: int = 200) -> np.ndarray:
    """Fixed point of m <- m @ p from the uniform start.

    Plain sweeps first; if those stall, repeated squaring of the damped
    kernel (I + p)/2, which has the same fixed points and converges for
    periodic chains as well.
    """
    n = p.shape[0]
    m = np.full(n, 1.0 / n)
    for _ in range(plain_limit):
        m_next = m @ p
        if np.abs(m_next - m).sum() < tol:
            return m_next
        m = m_next
    pd = 0.5 * (np.eye(n) + p)
    residual = float("nan")
    for _ in range(64):
        pd = pd @ pd
        m_next = np.full(n, 1.0 / n) @ pd
        residual = float(np.abs(m_next @ p - m_next).sum())
        if residual < tol:
            total = m_next.sum()
            return m_next / total if total > 0 else m_next
    raise MetricsError(
        f"stationary distribution did not converge (residual {residual:.3e})", residual
    )


def stationary_distribution(
    pi: np.ndarray, env: EnvironmentModel, mu_env: np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    """Stationary state distribution of the chain frozen at population mu_env."""
    return _stationary_of_dense(dense_policy_kernel(pi, env, mu_env), tol)


def induced_population(
    pi: np.ndarray,
    env: EnvironmentModel,
    tol: float = 1e-12,
    max_sweeps: int = _MAX_SWEEPS,
) -> np.ndarray:
    """Fixed point of M <- sum_{s,a} M(s) pi(a|s) P(.|s,a,M) from uniform.

    For population-independent kernels this is the stationary distribution
    of the policy's chain; otherwise the population is fed back into the
    kernel on every sweep.
    """
    n = env.n_states
    if env.population_independent:
        return _stationary_of_dense(
            dense_policy_kernel(pi, env, env.initial_state), tol
        )
    m = np.full(n, 1.0 / n)
    damped = False
    sweeps = 0
    residual = float("nan")
    while sweeps < max_sweeps:
        p = dense_policy_kernel(pi, env, m)
        m_next = m @ p
        residual = float(np.abs(m_next - m).sum())
        if damped:
            m_next = 0.5 * (m + m_next)
        if residual < tol:
            return m_next
        m = m_next
        sweeps += 1
        if not damped and sweeps >= 10_000:
            damped = True
    raise MetricsError(
        f"induced population did not converge after {max_sweeps} sweeps "
        f"(residual {residual:.3e})",
        residual,
    )


def _feasibility_mask(env: EnvironmentModel) -> Optional[np.ndarray]:
    if env.actions.feasible is None:
        return None
    mask = np.zeros((env.n_states, env.n_actions), dtype=bool)
    for s, feas in enumerate(env.actions.feasible):
        mask[s, feas] = True
    return mask


def _greedy_from_q(q: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """Deterministic greedy policy, lowest-index tie-break, respecting masks."""
    if mask is None:
        best = np.argmax(q, axis=1)
    else:
        best = np.argmax(np.where(mask, q, -np.inf), axis=1)
    pi = np.zeros_like(q)
    pi[np.arange(q.shape[0]), best] = 1.0
    return pi


def default_max_iters(gamma: float, tol: float, reward_bound: float) -> int:
    """Iteration cap from the standard contraction bound."""
    if gamma == 0.0:
        return 2
    r = max(reward_bound, tol)
    return int(np.ceil(np.log(tol * (1.0 - gamma) / r) / np.log(gamma))) + 10


def _expected_next(idx: np.ndarray, probs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(S, A) table of E[v(s') | s, a] = sum_j probs[..., j] * v[idx[..., j]].

    Adds the successor columns one at a time, starting from +0.0: the order
    and start ``(probs * v[idx]).sum(axis=-1)`` uses for fewer than 8
    successors, so the result is bit-identical to it there (numpy sums 8 or
    more terms pairwise), without numpy's one-reduction-per-(s, a) inner
    loop over the short trailing axis.
    """
    terms = v[idx]
    terms *= probs
    total = terms[..., 0] + 0.0
    for j in range(1, terms.shape[-1]):
        total += terms[..., j]
    return total


def value_iteration(
    env: EnvironmentModel,
    mu_fixed: np.ndarray,
    tol: float = 1e-10,
    max_iters: Optional[int] = None,
    v0: Optional[np.ndarray] = None,
    strict: bool = True,
):
    """Bellman-optimality iteration for the MDP frozen at mu_fixed.

    Returns (V, Q, greedy policy).  Stops when the sup-norm change drops
    below ``tol``; if ``strict`` and ``max_iters`` is exceeded, raises a
    MetricsError carrying the residual, otherwise returns the last iterate.

    Each sweep is Q = r + gamma * E[V(s') | s, a], the expectation taken by
    ``_expected_next``.  With fewer than 8 successors per state-action pair
    (Sioux Falls 1, ring road and flocking 2, the toy game one per state)
    V and Q are bit-identical to sweeps of
    ``r + gamma * (probs * v[idx]).sum(axis=-1)``; with 8 or more they
    agree to rounding only.
    """
    if max_iters is None:
        max_iters = default_max_iters(env.gamma, tol, env.reward_bound)
    r = env.reward_matrix(np.asarray(mu_fixed, dtype=np.float64))
    idx, probs = env.kernel_support(np.asarray(mu_fixed, dtype=np.float64))
    mask = _feasibility_mask(env)
    v = np.zeros(env.n_states) if v0 is None else np.array(v0, dtype=np.float64)
    gamma = env.gamma
    q = r.copy()
    residual = float("inf")
    for _ in range(max_iters):
        q = r + gamma * _expected_next(idx, probs, v)
        v_next = q.max(axis=1) if mask is None else np.where(mask, q, -np.inf).max(axis=1)
        residual = float(np.abs(v_next - v).max())
        v = v_next
        if residual < tol:
            break
    else:
        if strict:
            raise MetricsError(
                f"value iteration exceeded {max_iters} iterations "
                f"(residual {residual:.3e})",
                residual,
            )
    return v, q, _greedy_from_q(q, mask)


def policy_evaluation(
    env: EnvironmentModel,
    pi: np.ndarray,
    mu_fixed: np.ndarray,
    tol: float = 1e-10,
    max_iters: Optional[int] = None,
    v0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Iterative evaluation of a fixed policy on the MDP frozen at mu_fixed."""
    if max_iters is None:
        max_iters = default_max_iters(env.gamma, tol, env.reward_bound)
    mu_fixed = np.asarray(mu_fixed, dtype=np.float64)
    r_pi = (pi * env.reward_matrix(mu_fixed)).sum(axis=1)
    p_pi = dense_policy_kernel(pi, env, mu_fixed)
    v = np.zeros(env.n_states) if v0 is None else np.array(v0, dtype=np.float64)
    gamma = env.gamma
    residual = float("inf")
    for _ in range(max_iters):
        v_next = r_pi + gamma * (p_pi @ v)
        residual = float(np.abs(v_next - v).max())
        v = v_next
        if residual < tol:
            return v
    raise MetricsError(
        f"policy evaluation exceeded {max_iters} iterations (residual {residual:.3e})",
        residual,
    )


def _exploitability_at(
    pi: np.ndarray,
    env: EnvironmentModel,
    mu_pi: np.ndarray,
    tol: float = 1e-10,
    v0: Optional[np.ndarray] = None,
) -> float:
    v_br, _, _ = value_iteration(env, mu_pi, tol=tol, v0=v0, strict=False)
    v_pi = policy_evaluation(env, pi, mu_pi, tol=tol, v0=v0)
    value = float(mu_pi @ (v_br - v_pi))
    floor = 10.0 * tol / max(1.0 - env.gamma, 1e-6)
    if value < -floor:
        raise MetricsError(f"exploitability is negative beyond tolerance: {value:.3e}")
    return max(value, 0.0)


def exploitability(pi: np.ndarray, env: EnvironmentModel, tol: float = 1e-10) -> float:
    """Best-response value gain of the policy under its own induced population.

    Zero exactly at a mean field equilibrium.  Small negatives from value
    iteration noise (within 10*tol/(1-gamma)) are clamped at zero; anything
    below that raises.
    """
    mu_pi = induced_population(pi, env)
    return _exploitability_at(pi, env, mu_pi, tol=tol)


def q_table(theta: np.ndarray, phi: FeatureMap, env: EnvironmentModel) -> np.ndarray:
    """(S, A) table of <phi(s,a), theta>."""
    if phi.one_hot:
        return theta.reshape(env.n_states, env.n_actions)
    q = np.empty((env.n_states, env.n_actions))
    for s in range(env.n_states):
        for a in range(env.n_actions):
            q[s, a] = float(phi.evaluate(s, a) @ theta)
    return q


def mean_path_semigradient(
    xi,
    env: EnvironmentModel,
    phi: FeatureMap,
    basis: MeasureBasis,
    pol: PolicyOperator,
) -> np.ndarray:
    """Exact expectation of both semi-gradients under the steady observation
    distribution induced by the parameter (kernel and reward frozen at the
    represented population).  Zero exactly at an equilibrium parameter.
    """
    m_env = basis.represent(xi.eta)
    q = q_table(xi.theta, phi, env)
    pi = policy_matrix(pol, q, env.actions.feasible)
    mu = stationary_distribution(pi, env, m_env)
    idx, probs = env.kernel_support(m_env)
    r = env.reward_matrix(m_env)
    weight = mu[:, None] * pi  # steady (s, a) distribution

    v_pi = (pi * q).sum(axis=1)  # E[q(s', a') | s'] under the policy
    exp_next = _expected_next(idx, probs, v_pi)
    td = q - r - env.gamma * exp_next
    if phi.one_hot:
        g_theta = (weight * td).ravel()
    else:
        g_theta = np.zeros(phi.d1)
        for s in range(env.n_states):
            for a in range(env.n_actions):
                if weight[s, a] != 0.0:
                    g_theta += weight[s, a] * td[s, a] * phi.evaluate(s, a)

    next_marginal = np.zeros(env.n_states)
    np.add.at(next_marginal, idx.ravel(), (weight[:, :, None] * probs).ravel())
    g_eta = basis.gram @ xi.eta - basis.densities @ next_marginal
    return np.concatenate([g_theta, g_eta])


def span_residual(mu: np.ndarray, basis: MeasureBasis) -> float:
    """l2 norm of the residual of mu after orthogonal projection onto the
    span of the basis measures (computed on the grid, in mass units)."""
    mu = np.asarray(mu, dtype=np.float64)
    coeffs_rhs = basis.densities @ mu
    gram = basis.gram
    try:
        coeffs = np.linalg.solve(gram, coeffs_rhs)
    except np.linalg.LinAlgError:
        coeffs = np.linalg.solve(gram + 1e-12 * np.eye(basis.d2), coeffs_rhs)
    projected = basis.delta * (basis.densities.T @ coeffs)
    return float(np.linalg.norm(mu - projected))


def resample_masses(n_from: int, n_to: int) -> np.ndarray:
    """(n_to, n_from) matrix spreading cell masses between two unit grids
    by interval overlap; columns sum to one, so total mass is preserved."""
    if n_from == n_to:
        return np.eye(n_from)
    w = np.zeros((n_to, n_from))
    width_from = 1.0 / n_from
    width_to = 1.0 / n_to
    for c in range(n_from):
        lo_c, hi_c = c * width_from, (c + 1) * width_from
        first = int(np.floor(lo_c / width_to + 1e-12))
        last = min(int(np.ceil(hi_c / width_to - 1e-12)), n_to)
        for r_cell in range(first, last):
            lo = max(lo_c, r_cell * width_to)
            hi = min(hi_c, (r_cell + 1) * width_to)
            if hi > lo:
                w[r_cell, c] = (hi - lo) / width_from
    return w
