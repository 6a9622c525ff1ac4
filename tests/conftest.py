import tracemalloc

import numpy as np
import pytest

from mfglearn.cli import write_reference
from mfglearn.core import SIMPLEX_TOL
from mfglearn.envs import ring_road_env, toy_finite_env
from mfglearn.learners import model_based_fpi_fp
from mfglearn.lfa import FeatureMap
from mfglearn.metrics import MetricsError


@pytest.fixture(scope="session")
def toy_env():
    return toy_finite_env(3, 2, seed=7)


@pytest.fixture(scope="session")
def toy_reference(toy_env):
    return model_based_fpi_fp(toy_env)


@pytest.fixture(scope="session")
def ring50():
    return ring_road_env(50)


@pytest.fixture(scope="session")
def ring50_reference(ring50):
    return model_based_fpi_fp(ring50, expl_every=1)


@pytest.fixture(scope="session")
def ring200_reference():
    """The 200-cell speed-control game and its reference solution."""
    env = ring_road_env(200)
    return env, model_based_fpi_fp(env, expl_every=None)


@pytest.fixture(scope="session")
def ring200_reference_dir(tmp_path_factory, ring200_reference):
    """200-cell speed-control reference, cached on disk for CLI reuse."""
    out = tmp_path_factory.mktemp("ring200_reference")
    write_reference(out, *ring200_reference)
    return out


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc traced while it ran
    above what was traced before the call)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def write_values_oracle(path, values: np.ndarray) -> None:
    """Frozen copy of how ``write_reference`` wrote ``mu_star.txt`` and
    ``q_star.txt`` before it wrote them in chunks: the text of the whole
    array joined at once.  Its bytes are the contract of the current one."""
    path.write_text("".join(repr(float(x)) + "\n" for x in values.ravel()),
                    encoding="utf-8", newline="\n")


def grid_support_oracle(size: int, delta: float):
    """Frozen copy of the shift grid's ``kernel_support`` arrays as they were
    built from ``np.stack`` of broadcast temporaries; its bytes are the
    contract of the in-place construction."""
    disp = np.arange(size) * delta * delta / delta
    lo = np.floor(disp).astype(np.int64)
    frac = disp - lo
    s = np.arange(size)[:, None]
    base = (s + lo[None, :]) % size
    carry = (s + lo[None, :] + 1) % size
    idx = np.stack([carry, base], axis=-1)
    p1 = np.broadcast_to(frac[None, :], (size, size))
    probs = np.stack([p1, 1.0 - p1], axis=-1)
    return idx, probs


def kernel_row(env, s: int, a: int, mu: np.ndarray) -> np.ndarray:
    """Dense transition row P(. | s, a, mu) built from ``env.kernel_support``."""
    idx, probs = env.kernel_support(mu)
    row = np.zeros(env.n_states)
    np.add.at(row, idx[s, a], probs[s, a])
    return row


def identity_features(n_states: int, n_actions: int) -> FeatureMap:
    """The one-hot feature map as a dense (S, A, S*A) array."""
    d1 = n_states * n_actions
    return FeatureMap(np.eye(d1).reshape(n_states, n_actions, d1))


def kkt_simplex_projection(v: np.ndarray) -> np.ndarray:
    """Brute-force simplex projection by KKT active-set enumeration (d <= 5).

    For every nonempty candidate active set A, solves for the shift that
    makes the entries on A sum to one, keeps the candidates satisfying the
    sign conditions, and returns the closest feasible one.
    """
    d = v.shape[0]
    best = None
    best_dist = np.inf
    for mask in range(1, 2 ** d):
        active = np.array([(mask >> i) & 1 for i in range(d)], dtype=bool)
        tau = (v[active].sum() - 1.0) / active.sum()
        x = np.where(active, v - tau, 0.0)
        if np.any(x[active] < -1e-12) or np.any(v[~active] - tau > 1e-12):
            continue
        x = np.maximum(x, 0.0)
        dist = float(((x - v) ** 2).sum())
        if dist < best_dist:
            best_dist = dist
            best = x
    assert best is not None
    return best


def simplex_projection_oracle(v: np.ndarray) -> np.ndarray:
    """Frozen copy of the sort-based ``project_simplex`` that ran two reductions
    and a full finiteness scan on every call; its outputs and errors are the
    contract of the current one."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("project_simplex requires finite input")
    if v.ndim != 1 or v.size == 0:
        raise ValueError("project_simplex expects a non-empty vector")
    if v.min() >= 0.0 and abs(float(v.sum()) - 1.0) <= SIMPLEX_TOL:
        return v.copy()
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho_idx = np.nonzero(u * np.arange(1, v.size + 1) > css)[0]
    rho = rho_idx[-1] + 1
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def stationary_oracle(p: np.ndarray) -> np.ndarray:
    """Frozen copy of ``_stationary_of_dense`` as it was before its plain
    sweeps stopped at an exact repeat: always all 200 sweeps unless one
    converges, then repeated squaring of (I + p)/2.  The program now solves
    per closed class; this squaring is the reference that solve must lie
    within l1 1e-10 of, and on the numerically reducible chains the tests
    capture its bytes are those the program's squaring fallback returns."""
    n = p.shape[0]
    m = np.full(n, 1.0 / n)
    for _ in range(200):
        m_next = m @ p
        if np.abs(m_next - m).sum() < 1e-12:
            return m_next
        m = m_next
    pd = 0.5 * (np.eye(n) + p)
    residual = float("nan")
    for _ in range(64):
        pd = pd @ pd
        m_next = np.full(n, 1.0 / n) @ pd
        residual = float(np.abs(m_next @ p - m_next).sum())
        if residual < 1e-12:
            total = m_next.sum()
            return m_next / total if total > 0 else m_next
    raise MetricsError(
        f"stationary distribution did not converge (residual {residual:.3e})", residual
    )


class FixedDraws:
    """Minimal rng stub returning a scripted sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def policy_row_oracle(op, q_row: np.ndarray) -> np.ndarray:
    """Frozen copy of ``policy_row`` as it was before the softmax was built
    in place; its bytes are the contract of the current one."""
    if op.kind == "softmax":
        z = np.exp(op.inverse_temperature * (q_row - q_row.max()))
        return z / z.sum()
    out = np.zeros(q_row.shape[0])
    out[int(np.argmax(q_row))] = 1.0
    return out


def sample_action_oracle(dist: np.ndarray, rng: np.random.Generator) -> int:
    """Frozen copy of ``sample_action``: the inverse-CDF draw every seeded
    run's actions come from."""
    cdf = dist.cumsum()
    u = rng.random()
    idx = int(cdf.searchsorted(u, side="right"))
    if idx >= dist.shape[0]:
        idx = dist.shape[0] - 1
    if dist[idx] == 0.0:  # guard against u landing past the float total mass
        idx = int(np.nonzero(dist)[0][-1])
    return idx


def eta_on_simplex(eta: np.ndarray, tol: float = SIMPLEX_TOL) -> bool:
    """True iff every entry is >= 0 and the sum is within ``tol`` of one."""
    eta = np.asarray(eta)
    if eta.ndim != 1 or eta.size == 0 or not np.all(np.isfinite(eta)):
        return False
    return bool(np.all(eta >= 0.0) and abs(float(eta.sum()) - 1.0) <= tol)


def validate_parameter(xi, cfg) -> bool:
    """Both unified-parameter invariants: eta on the simplex, and a finite
    theta inside the configured ball up to a relative slack of 1e-9."""
    if not eta_on_simplex(xi.eta):
        return False
    if not np.all(np.isfinite(xi.theta)):
        return False
    return float(np.linalg.norm(xi.theta)) <= cfg.ball_radius * (1.0 + 1e-9)
