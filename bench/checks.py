"""Output checks built apart from the program, in the benchmark's own numpy.

The model of a game is taken from the environment's ``kernel_support`` and
``reward_matrix``; everything computed from it here (policy kernels,
stationary populations, best responses, policy values, hull bounds) is
written independently of ``mfglearn.metrics`` and ``mfglearn.learners``:
policy values come from a direct linear solve, best responses from policy
iteration, and stationary populations from repeated squaring of the damped
kernel, where the program uses value iteration and power sweeps.

Every check returns a list of failure messages; an empty list passes.
Tolerances on values scale with R / (1 - gamma), the largest discounted
value the game admits.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

VALUE_TOL = 1e-7  # times R / (1 - gamma)
POPULATION_TOL = 1e-6  # l1 distance between populations


def value_scale(env) -> float:
    return env.reward_bound / (1.0 - env.gamma)


def feasible_mask(env) -> np.ndarray:
    mask = np.ones((env.n_states, env.n_actions), dtype=bool)
    if env.actions.feasible is not None:
        mask[:] = False
        for s, feas in enumerate(env.actions.feasible):
            mask[s, np.asarray(feas)] = True
    return mask


def uniform_policy(env) -> np.ndarray:
    mask = feasible_mask(env)
    return mask / mask.sum(axis=1, keepdims=True)


def greedy_policy(q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    best = np.argmax(np.where(mask, q, -np.inf), axis=1)
    pi = np.zeros(q.shape)
    pi[np.arange(q.shape[0]), best] = 1.0
    return pi


def state_kernel(env, pi: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """P[s, s'] = sum_a pi(a|s) P(s'|s, a, mu)."""
    idx, probs = env.kernel_support(mu)
    n = env.n_states
    p = np.zeros((n, n))
    for s in range(n):
        np.add.at(p[s], idx[s].ravel(), (pi[s][:, None] * probs[s]).ravel())
    return p


def _limit_from_uniform(p: np.ndarray) -> np.ndarray:
    """lim_n u @ ((I + P) / 2)^n from the uniform start u, by repeated squaring.

    The damped chain is aperiodic and has the stationary distributions of P,
    so this is the Cesaro limit of the population started uniform.  Rows are
    renormalized after each squaring so that rounding cannot drain the mass.
    """
    n = p.shape[0]
    d = 0.5 * (np.eye(n) + p)
    u = np.full(n, 1.0 / n)
    for _ in range(64):
        d = d @ d
        d /= d.sum(axis=1, keepdims=True)
        m = u @ d
        if np.abs(m @ p - m).sum() < 1e-14:
            break
    return m / m.sum()


def stationary_population(env, pi: np.ndarray) -> np.ndarray:
    """Population the policy induces from the uniform start."""
    n = env.n_states
    if env.population_independent:
        return _limit_from_uniform(state_kernel(env, pi, env.initial_state))
    m = np.full(n, 1.0 / n)
    for _ in range(200_000):
        m_next = 0.5 * (m + m @ state_kernel(env, pi, m))
        if np.abs(m_next - m).sum() < 1e-15:
            return m_next
        m = m_next
    return m


def policy_value(env, pi: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """V_pi of the MDP frozen at mu, by solving (I - gamma P_pi) v = r_pi."""
    r_pi = (pi * env.reward_matrix(mu)).sum(axis=1)
    p = state_kernel(env, pi, mu)
    return np.linalg.solve(np.eye(env.n_states) - env.gamma * p, r_pi)


def optimal_value(env, mu: np.ndarray) -> np.ndarray:
    """V* of the MDP frozen at mu, by policy iteration."""
    mask = feasible_mask(env)
    r = env.reward_matrix(mu)
    idx, probs = env.kernel_support(mu)
    slack = 1e-13 * value_scale(env)
    pi = greedy_policy(r, mask)
    for _ in range(1000):
        v = policy_value(env, pi, mu)
        q = r + env.gamma * (probs * v[idx]).sum(axis=-1)
        q = np.where(mask, q, -np.inf)
        current = (pi * np.where(mask, q, 0.0)).sum(axis=1)
        improve = q.max(axis=1) > current + slack
        if not improve.any():
            return v
        best = np.argmax(q, axis=1)
        pi[improve] = 0.0
        pi[np.nonzero(improve)[0], best[improve]] = 1.0
    raise RuntimeError("policy iteration did not terminate")


def exploitability(env, pi: np.ndarray) -> float:
    """mu_pi . (V* - V_pi) at the policy's own stationary population."""
    mu = stationary_population(env, pi)
    return float(mu @ (optimal_value(env, mu) - policy_value(env, pi, mu)))


# ---------------------------------------------------------------------------
# reference directories
# ---------------------------------------------------------------------------


def read_reference(ref_dir: Path, env):
    mu = np.array([float(x) for x in (ref_dir / "mu_star.txt").read_text().split()])
    q = np.array([float(x) for x in (ref_dir / "q_star.txt").read_text().split()])
    return q.reshape(env.n_states, env.n_actions), mu


def check_reference(env, q_star: np.ndarray, mu_star: np.ndarray) -> list[str]:
    """An equilibrium pair: q_star is Bellman-optimal at mu_star, its greedy
    policy induces mu_star, and that policy is not exploitable."""
    fails = []
    tol = VALUE_TOL * value_scale(env)
    mask = feasible_mask(env)
    if not (np.all(np.isfinite(q_star)) and np.all(np.isfinite(mu_star))):
        return ["non-finite q_star or mu_star"]
    if abs(mu_star.sum() - 1.0) > 1e-9 or mu_star.min() < -1e-12:
        fails.append(f"mu_star is not a distribution (sum {mu_star.sum():.12f})")
    idx, probs = env.kernel_support(mu_star)
    v = np.where(mask, q_star, -np.inf).max(axis=1)
    backup = env.reward_matrix(mu_star) + env.gamma * (probs * v[idx]).sum(axis=-1)
    residual = float(np.abs(backup - q_star).max())
    if residual > tol:
        fails.append(f"Bellman residual of q_star at mu_star {residual:.3e} > {tol:.3e}")
    greedy = greedy_policy(q_star, mask)
    mu_greedy = stationary_population(env, greedy)
    gap = float(np.abs(mu_greedy - mu_star).sum())
    if gap > POPULATION_TOL:
        fails.append(f"greedy(q_star) induces a population at l1 distance {gap:.3e} "
                     f"from mu_star")
    expl = exploitability(env, greedy)
    if expl > tol:
        fails.append(f"exploitability of greedy(q_star) {expl:.3e} > {tol:.3e}")
    return fails


# ---------------------------------------------------------------------------
# CSV outputs
# ---------------------------------------------------------------------------


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _isclose(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= 1e-9 * abs(b) + 1e-12 * scale


def check_seed_csv(path: Path, expl0: float, env, ring: bool) -> list[str]:
    """t = 0 exploitability of the uniform policy; on the ring road, final
    MSE below the t = 0 MSE."""
    fails = []
    header, rows = read_rows(path)
    if header != ["step", "mse", "exploitability"] or not rows:
        return [f"{path.name}: unexpected header or no rows"]
    values = [float(r[1]) for r in rows] + [float(r[2]) for r in rows if r[2]]
    if not all(math.isfinite(x) and x >= 0.0 for x in values):
        fails.append(f"{path.name}: negative or non-finite metric")
    if rows[0][0] != "0" or not rows[0][2]:
        return fails + [f"{path.name}: no t = 0 exploitability"]
    tol = VALUE_TOL * value_scale(env)
    if abs(float(rows[0][2]) - expl0) > tol:
        fails.append(f"{path.name}: t = 0 exploitability {rows[0][2]} differs from the "
                     f"uniform policy's {expl0!r} by more than {tol:.3e}")
    if ring and not float(rows[-1][1]) < float(rows[0][1]):
        fails.append(f"{path.name}: final MSE {rows[-1][1]} is not below t = 0 MSE {rows[0][1]}")
    return fails


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = math.fsum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (len(values) - 1))


def check_aggregate(out_dir: Path, seeds: list[int]) -> list[str]:
    """aggregate.csv equals the mean and sample std of the per-seed CSVs."""
    per_seed = [read_rows(out_dir / f"run_seed{s}.csv")[1] for s in seeds]
    header, rows = read_rows(out_dir / "aggregate.csv")
    if header != ["step", "mse_mean", "mse_std", "expl_mean", "expl_std"]:
        return ["aggregate.csv: unexpected header"]
    if any(len(p) != len(rows) for p in per_seed):
        return ["aggregate.csv: row count differs from the per-seed CSVs"]
    fails = []
    for i, row in enumerate(rows):
        if any(p[i][0] != row[0] for p in per_seed):
            fails.append(f"aggregate.csv row {i}: step differs from the per-seed CSVs")
            continue
        expected = list(_mean_std([float(p[i][1]) for p in per_seed]))
        expl = [p[i][2] for p in per_seed]
        if all(expl):
            expected += list(_mean_std([float(x) for x in expl]))
        got = [float(x) for x in row[1:] if x]
        if len(got) != len(expected):
            fails.append(f"aggregate.csv step {row[0]}: wrong set of filled columns")
            continue
        scale = max(abs(x) for x in expected) if expected else 0.0
        for g, e in zip(got, expected):
            if not _isclose(g, e, scale):
                fails.append(f"aggregate.csv step {row[0]}: {g!r} != recomputed {e!r}")
    return fails


def check_identical(a: Path, b: Path) -> list[str]:
    if a.read_bytes() != b.read_bytes():
        return [f"{a} and {b} are not byte-identical"]
    return []


def check_k1_row(sweep_csv: Path, aggregate_csv: Path) -> list[str]:
    """The sweep-k K = 1 row equals the final aggregate row of SemiSGD."""
    _, rows = read_rows(sweep_csv)
    k1 = [r for r in rows if r[0] == "1"]
    final = read_rows(aggregate_csv)[1][-1]
    if len(k1) != 1:
        return ["sweep_k.csv: no single K = 1 row"]
    if k1[0][1:] != final[1:]:
        return [f"sweep_k.csv K = 1 row {k1[0][1:]} != final SemiSGD aggregate row {final[1:]}"]
    return []


def check_sweep(sweep_csv: Path, k_list: list[int]) -> list[str]:
    header, rows = read_rows(sweep_csv)
    if header != ["k", "mse_mean", "mse_std", "expl_mean", "expl_std"]:
        return ["sweep_k.csv: unexpected header"]
    if [int(r[0]) for r in rows] != k_list:
        return [f"sweep_k.csv: K column {[r[0] for r in rows]} != {k_list}"]
    values = [float(x) for r in rows for x in r[1:]]
    if not all(math.isfinite(x) and x >= 0.0 for x in values):
        return ["sweep_k.csv: negative, empty or non-finite value"]
    return []


# ---------------------------------------------------------------------------
# PA-LFA: convex hull of the basis masses
# ---------------------------------------------------------------------------


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    k = np.arange(1, v.size + 1)
    rho = np.nonzero(u - (cumulative - 1.0) / k > 0)[0][-1]
    return np.maximum(v - (cumulative[rho] - 1.0) / (rho + 1), 0.0)


def hull_mse_lower_bound(masses: np.ndarray, target: np.ndarray, iters: int = 20_000) -> float:
    """A lower bound on min over the simplex of ||masses.T @ w - target||^2.

    Projected gradient finds a near-minimizer w; the Frank-Wolfe duality gap
    g.w - min_i g_i bounds how far f(w) is above the minimum, so
    f(w) - gap is a certified lower bound.
    """
    m = np.asarray(masses, dtype=np.float64)
    lipschitz = 2.0 * np.linalg.norm(m @ m.T, 2)
    w = np.full(m.shape[0], 1.0 / m.shape[0])
    for _ in range(iters):
        grad = 2.0 * m @ (m.T @ w - target)
        w = _project_simplex(w - grad / lipschitz)
    d = m.T @ w - target
    grad = 2.0 * m @ d
    gap = float(grad @ w - grad.min())
    return float(d @ d) - max(gap, 0.0)


def coarse_to_fine(n_coarse: int, n_fine: int) -> np.ndarray:
    """(n_coarse, n_fine) masses of each coarse cell spread over the fine
    cells of the unit ring by interval overlap."""
    out = np.zeros((n_coarse, n_fine))
    edges_fine = np.arange(n_fine + 1) / n_fine
    for c in range(n_coarse):
        lo, hi = c / n_coarse, (c + 1) / n_coarse
        overlap = np.clip(np.minimum(edges_fine[1:], hi) - np.maximum(edges_fine[:-1], lo), 0, None)
        out[c] = overlap * n_coarse
    return out


def check_compare_lfa(path: Path, d2_list: list[int], bounds: dict) -> list[str]:
    """Each MSE lies at or above the best MSE reachable in its hull."""
    header, rows = read_rows(path)
    if header != ["d2", "method", "mse_mean", "mse_std"]:
        return ["compare_lfa.csv: unexpected header"]
    expected = [(str(d), m) for d in d2_list for m in ("discretization", "pa-lfa")]
    if [(r[0], r[1]) for r in rows] != expected:
        return [f"compare_lfa.csv: rows {[(r[0], r[1]) for r in rows]} != {expected}"]
    fails = []
    for d2, method, mean, std in rows:
        mean, std = float(mean), float(std)
        if not (math.isfinite(mean) and math.isfinite(std) and std >= 0.0):
            fails.append(f"compare_lfa.csv d2={d2} {method}: non-finite value")
            continue
        floor = bounds[(int(d2), method)]
        if mean < floor - 1e-12:
            fails.append(f"compare_lfa.csv d2={d2} {method}: MSE {mean:.6e} is below "
                         f"the best reachable in the hull of its basis {floor:.6e}")
    return fails
