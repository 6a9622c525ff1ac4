import numpy as np
import pytest

from mfglearn.cli import write_reference
from mfglearn.envs import ring_road_env, toy_finite_env
from mfglearn.learners import model_based_fpi_fp


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
