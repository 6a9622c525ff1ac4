import numpy as np
import pytest

from mfglearn.cli import write_reference
from mfglearn.core import SIMPLEX_TOL
from mfglearn.envs import ring_road_env, toy_finite_env
from mfglearn.learners import model_based_fpi_fp
from mfglearn.lfa import FeatureMap


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
def ring200_reference_dir(tmp_path_factory):
    """200-cell speed-control reference, cached on disk for CLI reuse."""
    env = ring_road_env(200)
    ref = model_based_fpi_fp(env, expl_every=None)
    out = tmp_path_factory.mktemp("ring200_reference")
    write_reference(out, env, ref)
    return out


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
