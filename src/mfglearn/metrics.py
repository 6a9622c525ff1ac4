"""Evaluation machinery: induced populations, best responses, policy
evaluation, exploitability, the mean-path semi-gradient stationarity
certificate, and span residuals of measure bases.

Values are exact: a policy is evaluated by one linear solve of
(I - gamma P_pi) v = r_pi, and a best response (``value_iteration``, named
for the Bellman-optimality problem it solves) is found by policy iteration,
a handful of such solves.

Stationary and induced distributions are fixed points of the transition
operator.  For population-independent kernels the stationary vector is the
limit of the population from the uniform start (the Cesaro limit where the
chain is periodic), built exactly from the closed classes of the policy
kernel's support: one linear solve gives every class's stationary vector
and one more the mass the transient states send to each class.  A result
that fails its certificate (a chain that is reducible in its support, with
transient states that are closed in floating point because their only exits
have probabilities near 1e-300) is found instead by repeated squaring of the
damped kernel (I + p)/2.  Population-dependent kernels are swept to their fixed
point.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .envs import EnvironmentModel
from .lfa import FeatureMap, MeasureBasis
from .policy import PolicyOperator, policy_matrix

_POP_TOL = 1e-12  # l1 residual |m @ p - m| at which a population counts as fixed
_MAX_SWEEPS = 10**6
_MAX_POLICY_STEPS = 1000
_PI_SLACK = 1e-13  # times R / (1 - gamma): smallest improvement that switches an action
_ROUNDING = 1e-9  # times R / (1 - gamma): largest negative exploitability taken as zero


class MetricsError(RuntimeError):
    """Raised on non-convergence; carries the last residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


def _dense_rows(rows: np.ndarray, idx: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """(n, n) matrix holding the sum of w[i, j] at [rows[i], idx[i, j]].

    Adds the weights in C order from +0.0, the order ``np.add.at`` uses.
    idx must be a fresh gather: it is overwritten with the flat positions.
    """
    idx += n * rows[:, None]
    return np.bincount(idx.ravel(), weights=w.ravel(), minlength=n * n).reshape(n, n)


def _eye_minus(gamma: float, p: np.ndarray) -> np.ndarray:
    """I - gamma p, built in p with the bits of ``np.eye(n) - gamma * p``:
    -(gamma p) is exact, adding +0.0 turns its -0.0 entries into the +0.0
    of 0.0 - 0.0, and adding 1.0 to the diagonal gives 1.0 - gamma p there."""
    p *= -gamma
    p += 0.0
    p.flat[:: p.shape[0] + 1] += 1.0
    return p


def dense_policy_kernel(pi: np.ndarray, env: EnvironmentModel, mu: np.ndarray) -> np.ndarray:
    """Dense state-to-state kernel P_pi[s, s'] under policy pi at population mu.

    Only the (s, a) pairs that carry mass are gathered and added.  A bin
    misses only zero weights, and adding a zero to a sum that starts at +0.0
    changes no bit, so the matrix is the one all S * A pairs give.  Rows are
    gathered with ``take``, several times faster than fancy indexing here.
    """
    idx, probs = env.kernel_support(mu)
    m = idx.shape[-1]
    pairs = np.flatnonzero(pi.reshape(-1) != 0.0)  # a boolean scan is cheaper than a float one
    w = probs.reshape(-1, m).take(pairs, axis=0)
    w *= pi.reshape(-1).take(pairs)[:, None]
    succ = idx.reshape(-1, m).take(pairs, axis=0)
    pairs //= pi.shape[1]  # now the state of each pair
    return _dense_rows(pairs, succ, w, idx.shape[0])


def _closed_classes(n: int, starts: list, heads: list) -> list:
    """Closed classes of a graph on n nodes whose edges out of node v are
    heads[starts[v]:starts[v + 1]], each a sorted list of its nodes.

    Tarjan's strongly-connected-components search with an explicit stack (no
    recursion).  A component is finished only after every component it
    reaches, so it is closed unless one of its nodes has an edge to a node
    already finished, or is the parent of the root of a finished component.
    """
    index = [-1] * n
    low = [0] * n
    done = [False] * n
    leaves = [False] * n
    classes = []
    stack = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        path = [(root, starts[root])]
        while path:
            v, i = path[-1]
            end = starts[v + 1]
            while i < end:
                w = heads[i]
                i += 1
                if index[w] < 0:
                    break
                if done[w]:
                    leaves[v] = True
                elif index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if low[v] == index[v]:
                    k = len(stack) - 1
                    while stack[k] != v:
                        k -= 1
                    members = stack[k:]
                    del stack[k:]
                    closed = True
                    for w in members:
                        done[w] = True
                        closed = closed and not leaves[w]
                    if closed:
                        members.sort()
                        classes.append(members)
                    if path:
                        leaves[path[-1][0]] = True
                elif low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                continue
            path[-1] = (v, i)  # descend to w, then resume v's edges at i
            index[w] = low[w] = count
            count += 1
            stack.append(w)
            path.append((w, starts[w]))
    return classes


def _closed_class_limit(p: np.ndarray) -> Optional[np.ndarray]:
    """Uniform-start limit of m <- m @ p by the closed classes of p's support
    graph, or None when the result fails its certificate.

    With closed classes C_c, their stationary vectors pi_c and the
    transient states T, the limit is sum_c w_c pi_c with
    w_c = (|C_c| + sum_t B[t, c]) / n, where (I - P_TT) B = P_TC gives the
    probability that a walk from t ends in C_c; it is 0 on T.  All pi_c come
    from one solve of m (P_KK - I) = 0 on the closed states K, the column of
    each class's first state replaced by its class sum = 1.  The result is
    normalised to sum one.  The certificate: both solves succeed, B >= 0
    with rows summing to one, m >= 0, and |m p - m|_1 < ``_POP_TOL``.  It
    fails on chains that are reducible in their support, with transient
    states that are closed in floating point: softmax chains whose only
    exits from those states have probabilities near 1e-300, so a row of
    P_TT sums to exactly 1.0 and I - P_TT can be singular.
    """
    n = p.shape[0]
    flat = np.flatnonzero(p.reshape(-1) != 0.0)
    starts = np.searchsorted(flat, np.arange(0, n * n + 1, n))
    classes = _closed_classes(n, starts.tolist(), (flat % n).tolist())
    sizes = [len(c) for c in classes]
    states = np.array([s for c in classes for s in c])
    cls = np.repeat(np.arange(len(classes)), sizes)  # class of each closed state
    member = (cls[:, None] == np.arange(len(classes))).astype(np.float64)
    reps = np.cumsum(sizes) - sizes
    outside = np.ones(n, dtype=bool)
    outside[states] = False
    transient = np.flatnonzero(outside)

    a = p.take(states, axis=0).take(states, axis=1)
    a.flat[:: states.size + 1] -= 1.0
    a[:, reps] = member
    rhs = np.zeros(states.size)
    rhs[reps] = 1.0
    weight = member.sum(axis=0)
    try:
        pi = np.linalg.solve(a.T, rhs)
        if transient.size:
            p_t = p.take(transient, axis=0)
            b = np.linalg.solve(_eye_minus(1.0, p_t.take(transient, axis=1)),
                                p_t.take(states, axis=1) @ member)
            if not ((b >= 0.0).all() and np.abs(b.sum(axis=1) - 1.0).max() < _POP_TOL):
                return None
            weight += b.sum(axis=0)
    except np.linalg.LinAlgError:
        return None
    m = np.zeros(n)
    m[states] = pi * weight[cls]
    m /= m.sum()
    if (m >= 0.0).all() and np.abs(m @ p - m).sum() < _POP_TOL:
        return m
    return None


def _stationary_of_dense(p: np.ndarray) -> np.ndarray:
    """Limit of the population m <- m @ p from the uniform start (the Cesaro
    limit where p is periodic): ``_closed_class_limit``, or where that fails
    its certificate, repeated squaring of the damped kernel (I + p)/2, which
    has the fixed points of p and whose powers converge for periodic chains
    as well.  Each squaring doubles the number of steps, so the residual is
    tested after 2, 4, 8, ... damped steps, and the result is normalised to
    sum one.
    """
    m = _closed_class_limit(p)
    if m is not None:
        return m
    n = p.shape[0]
    pd = np.eye(n)
    pd += p
    pd *= 0.5
    residual = float("nan")
    for _ in range(64):
        pd = pd @ pd
        m_next = np.full(n, 1.0 / n) @ pd
        residual = float(np.abs(m_next @ p - m_next).sum())
        if residual < _POP_TOL:
            total = m_next.sum()
            return m_next / total if total > 0 else m_next
    raise MetricsError(
        f"stationary distribution did not converge (residual {residual:.3e})", residual
    )


def stationary_distribution(pi: np.ndarray, env: EnvironmentModel, mu_env: np.ndarray) -> np.ndarray:
    """Stationary state distribution of the chain frozen at population mu_env."""
    return _stationary_of_dense(dense_policy_kernel(pi, env, mu_env))


def induced_population(pi: np.ndarray, env: EnvironmentModel) -> np.ndarray:
    """Fixed point of M <- sum_{s,a} M(s) pi(a|s) P(.|s,a,M) from uniform.

    For population-independent kernels this is the stationary distribution
    of the policy's chain; otherwise the population is fed back into the
    kernel on every sweep.
    """
    n = env.n_states
    if env.population_independent:
        return stationary_distribution(pi, env, env.initial_state)
    m = np.full(n, 1.0 / n)
    damped = False
    sweeps = 0
    residual = float("nan")
    while sweeps < _MAX_SWEEPS:
        p = dense_policy_kernel(pi, env, m)
        m_next = m @ p
        residual = float(np.abs(m_next - m).sum())
        if damped:
            m_next = 0.5 * (m + m_next)
        if residual < _POP_TOL:
            return m_next
        m = m_next
        sweeps += 1
        if not damped and sweeps >= 10_000:
            damped = True
    raise MetricsError(
        f"induced population did not converge after {_MAX_SWEEPS} sweeps "
        f"(residual {residual:.3e})",
        residual,
    )


def _greedy_actions(q: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """Lowest-index argmax of each row of q over the feasible actions."""
    return np.argmax(q if mask is None else np.where(mask, q, -np.inf), axis=1)


def _value_scale(env: EnvironmentModel) -> float:
    """R / (1 - gamma), the largest discounted value the game admits."""
    return env.reward_bound / max(1.0 - env.gamma, 1e-6)


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


def value_iteration(env: EnvironmentModel, mu_fixed: np.ndarray):
    """Optimal values of the MDP frozen at mu_fixed, by policy iteration.

    Returns (V, Q, greedy policy).  Starting from the greedy policy of the
    reward, each step evaluates the current deterministic policy exactly,
    by solving (I - gamma P) v = r with P built from the chosen action's
    ``kernel_support`` row alone, and backs Q up with ``_expected_next``.
    I - gamma P is built inside P by ``_eye_minus``, and Q inside the
    expectation as gamma E + r; both are the doubles of the plain formulas.
    A state switches action only when its best Q exceeds the current one
    by more than ``_PI_SLACK`` * R / (1 - gamma), so rounding ties cannot
    make the iteration cycle.  V is the value of the last policy, within
    that slack (times 1 / (1 - gamma)) of V*; the returned policy is the
    lowest-index greedy policy of Q.  Raises ``MetricsError`` if no policy
    is stable within ``_MAX_POLICY_STEPS`` steps.
    """
    mu_fixed = np.asarray(mu_fixed, dtype=np.float64)
    r = env.reward_matrix(mu_fixed)
    idx, probs = env.kernel_support(mu_fixed)
    mask = env.actions.mask
    states = np.arange(env.n_states)
    slack = _PI_SLACK * _value_scale(env)
    actions = _greedy_actions(r, mask)
    for _ in range(_MAX_POLICY_STEPS):
        p = _dense_rows(states, idx[states, actions], probs[states, actions], env.n_states)
        v = np.linalg.solve(_eye_minus(env.gamma, p), r[states, actions])
        del p  # freed before the backup gathers an (S, A, m) array
        q = _expected_next(idx, probs, v)
        q *= env.gamma
        q += r
        best = _greedy_actions(q, mask)
        improve = q[states, best] > q[states, actions] + slack
        if not improve.any():
            pi = np.zeros_like(q)
            pi[states, best] = 1.0
            return v, q, pi
        actions = np.where(improve, best, actions)
    raise MetricsError(f"policy iteration found no stable policy in {_MAX_POLICY_STEPS} steps")


def policy_evaluation(env: EnvironmentModel, pi: np.ndarray, mu_fixed: np.ndarray) -> np.ndarray:
    """Exact value of policy pi on the MDP frozen at mu_fixed: the solution
    of (I - gamma P_pi) v = r_pi, P_pi from ``dense_policy_kernel``, with
    I - gamma P_pi built inside P_pi by ``_eye_minus``."""
    mu_fixed = np.asarray(mu_fixed, dtype=np.float64)
    r_pi = (pi * env.reward_matrix(mu_fixed)).sum(axis=1)
    return np.linalg.solve(_eye_minus(env.gamma, dense_policy_kernel(pi, env, mu_fixed)), r_pi)


def _exploitability_at(
    pi: np.ndarray, env: EnvironmentModel, mu_pi: np.ndarray, v_br: Optional[np.ndarray] = None
) -> float:
    """mu_pi . (V* - V_pi) on the MDP frozen at mu_pi; values below zero by
    no more than ``_ROUNDING`` * R / (1 - gamma) are clamped to zero.  V* is
    v_br when given (``value_iteration``'s V at mu_pi), else solved here."""
    if v_br is None:
        v_br, _, _ = value_iteration(env, mu_pi)
    v_pi = policy_evaluation(env, pi, mu_pi)
    value = float(mu_pi @ (v_br - v_pi))
    if value < -_ROUNDING * _value_scale(env):
        raise MetricsError(f"exploitability is negative beyond rounding: {value:.3e}")
    return max(value, 0.0)


def exploitability(pi: np.ndarray, env: EnvironmentModel) -> float:
    """Best-response value gain of the policy under its own induced population.

    Zero exactly at a mean field equilibrium.  Small negatives from rounding
    and the policy-iteration slack (within 1e-9 * R / (1 - gamma)) are
    clamped at zero; anything below that raises.
    """
    mu_pi = induced_population(pi, env)
    return _exploitability_at(pi, env, mu_pi)


def q_table(theta: np.ndarray, phi: FeatureMap, env: EnvironmentModel) -> np.ndarray:
    """(S, A) table of <phi(s,a), theta>."""
    if phi.one_hot:
        return theta.reshape(env.n_states, env.n_actions)
    return phi.features @ theta


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
        g_theta = np.tensordot(weight * td, phi.features, axes=2)

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
