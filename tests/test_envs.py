import dataclasses
from itertools import accumulate

import numpy as np
import pytest

from mfglearn.core import ConfigError
from mfglearn.envs import (
    EnvironmentModel,
    NetworkLoadError,
    _grid_kernel_support,
    _reward_table,
    _support_sampler,
    default_network_path,
    flocking_env,
    ring_road_env,
    sioux_falls_env,
    toy_finite_env,
)
from mfglearn.metrics import dense_policy_kernel

from .conftest import FixedDraws, grid_support_oracle, kernel_row, traced_peak


def eigen_stationary(p):
    """Eigenvector oracle: left eigenvector of the chain for eigenvalue one."""
    w, vecs = np.linalg.eig(p.T)
    idx = int(np.argmin(np.abs(w - 1.0)))
    v = np.real(vecs[:, idx])
    v = np.abs(v)
    return v / v.sum()


def feasible_actions(env, s):
    feasible = env.actions.feasible
    return np.arange(env.n_actions) if feasible is None else feasible[s]


def probe_kernels(env, n_probe=100, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n_probe):
        s = int(rng.integers(env.n_states))
        feas = feasible_actions(env, s)
        a = int(feas[rng.integers(len(feas))])
        mu = rng.dirichlet(np.ones(env.n_states))
        row = kernel_row(env, s, a, mu)
        assert abs(row.sum() - 1.0) <= 1e-12
        assert row.min() >= 0.0


def sampling_matches_kernel(env, s, a, seed=1, n=10_000):
    rng = np.random.default_rng(seed)
    mu = np.full(env.n_states, 1.0 / env.n_states)
    row = kernel_row(env, s, a, mu)
    counts = np.zeros(env.n_states)
    for _ in range(n):
        counts[env.sample_next(s, a, mu, rng)] += 1
    tv = 0.5 * np.abs(counts / n - row).sum()
    assert tv < 0.05


def old_grid_sampler(size):
    """The per-environment shift-grid sampler that ``kernel_support`` replaced."""
    delta = 1.0 / size
    disp = np.arange(size) * delta * delta / delta
    lo = np.floor(disp).astype(np.int64)
    frac = disp - lo

    def sample_next(s, a, mu, rng):
        shift = lo[a]
        if rng.random() < frac[a]:
            shift += 1
        return (s + shift) % size

    return sample_next


def old_toy_sampler(env):
    """The per-environment toy sampler that ``kernel_support`` replaced."""
    p0, eps = env.extras["base_kernel"], env.extras["mix_eps"]

    def sample_next(s, a, mu, rng):
        row = (1.0 - eps) * p0[s, a] + eps * mu
        cdf = row.cumsum()
        idx = int(cdf.searchsorted(rng.random(), side="right"))
        return min(idx, env.n_states - 1)

    return sample_next


@pytest.mark.parametrize(
    "make_env, make_old",
    [
        (lambda: ring_road_env(50), lambda env: old_grid_sampler(50)),
        (lambda: flocking_env(50), lambda env: old_grid_sampler(50)),
        (sioux_falls_env, lambda env: lambda s, a, mu, rng: a),
        (lambda: toy_finite_env(3, 2, seed=7), old_toy_sampler),
        (lambda: toy_finite_env(4, 3, seed=8, eps=0.0, kernel_rank=2), old_toy_sampler),
    ],
    ids=["ring-road-50", "flocking-50", "sioux-falls", "toy-3x2-seed7", "toy-rank2-eps0"],
)
def test_shared_sampler_repeats_the_old_streams(make_env, make_old):
    # same successors and the same generator state after every draw as the
    # per-environment samplers, so every CSV written from a seed is unchanged
    env = make_env()
    old = make_old(env)
    draws = np.random.default_rng(11)
    rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(2000):
        s = int(draws.integers(env.n_states))
        feas = feasible_actions(env, s)
        a = int(feas[draws.integers(len(feas))])
        mu = draws.dirichlet(np.ones(env.n_states))
        got = env.sample_next(s, a, mu, rng_new)
        assert type(got) is int
        assert got == old(s, a, mu, rng_old)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
    if env.name == "sioux-falls":  # deterministic transitions draw nothing
        assert rng_new.bit_generator.state == np.random.default_rng(5).bit_generator.state


@pytest.mark.parametrize("make_env", [
    lambda: ring_road_env(50),
    lambda: flocking_env(50),
    sioux_falls_env,
    lambda: toy_finite_env(3, 2, seed=7),
    lambda: toy_finite_env(6, 6, seed=3, eps=0.5),
    lambda: toy_finite_env(4, 3, seed=8, eps=0.0, kernel_rank=2),
], ids=["ring-road-50", "flocking-50", "sioux-falls", "toy-3x2-seed7", "toy-6x6-eps05",
        "toy-rank2-eps0"])
def test_draws_follow_the_kernel_support_row_exactly(make_env):
    # a uniform at each running sum of the row kernel_support(mu)[s, a], or
    # one ulp below it, selects the successor the inverse CDF over that row
    # selects, so a draw reads running sums equal to that row's bit for bit
    # (a draw that builds its row apart from the whole arrays must keep this)
    env = make_env()
    n = env.n_states
    rng = np.random.default_rng(13)
    mus = [rng.dirichlet(np.ones(n)), np.full(n, 1.0 / n)]
    mus += [np.eye(n)[c] for c in (0, n // 2, n - 1)]
    for mu in mus:
        idx_all, probs_all = env.kernel_support(mu)
        for _ in range(20):
            s = int(rng.integers(n))
            feas = feasible_actions(env, s)
            a = int(feas[rng.integers(len(feas))])
            idx, probs = idx_all[s, a], probs_all[s, a]
            if idx.shape[0] == 1:  # deterministic: no draw
                assert env.sample_next(s, a, mu, FixedDraws([])) == idx[0]
                continue
            sums = list(accumulate(probs.tolist()))
            for acc in sums[:-1]:
                for u in (float(np.nextafter(acc, -np.inf)), acc):
                    want = next((i for i, c in enumerate(sums) if u < c), len(sums) - 1)
                    assert env.sample_next(s, a, mu, FixedDraws([u])) == idx[want]


def reward_test_populations(n, seed):
    """Random and boundary populations: dense, sparse, uniform, and point
    masses at the ends and inside (whole flocking windows without mass)."""
    rng = np.random.default_rng(seed)
    mus = [rng.dirichlet(np.ones(n)), rng.dirichlet(np.full(n, 0.05)), np.full(n, 1.0 / n)]
    for cells in ([0], [n - 1], [n // 2], [1, n - 2]):
        mu = np.zeros(n)
        mu[cells] = 1.0 / len(cells)
        mus.append(mu)
    return mus


@pytest.mark.parametrize(
    "make_env",
    [
        lambda: toy_finite_env(3, 2, seed=7),
        lambda: ring_road_env(50),
        lambda: ring_road_env(200),
        lambda: flocking_env(50),
        sioux_falls_env,
    ],
    ids=["toy-3x2-seed7", "ring-road-50", "ring-road-200", "flocking-50", "sioux-falls"],
)
def test_reward_matches_reward_matrix_exactly(make_env):
    # one reward formula: the solver's table is the sampled reward, bit for bit
    env = make_env()
    for mu in reward_test_populations(env.n_states, seed=env.n_states):
        table = env.reward_matrix(mu)
        assert table.shape == (env.n_states, env.n_actions)
        pointwise = np.array([[env.reward(s, a, mu) for a in range(env.n_actions)]
                              for s in range(env.n_states)])
        assert (pointwise == table).all()
        assert pointwise.tobytes() == table.tobytes()


# -- ring road ---------------------------------------------------------------


def test_ring_road_shapes_and_constants():
    env = ring_road_env()
    assert env.n_states == env.n_actions == 50
    assert env.gamma == pytest.approx(0.98)
    assert env.states.delta == pytest.approx(0.02)


def test_ring_road_stimulus_value_at_origin():
    # b(0) = 0.2 (sin 0 + 2) = 0.4; with mu = mu_jam and a = b(0) the
    # bracket vanishes, so moving at index 20 (speed 0.4) costs nothing
    env = ring_road_env()
    mu = np.full(50, 0.06)
    assert env.reward(0, 20, mu) == pytest.approx(0.0, abs=1e-15)
    assert env.reward(0, 0, mu) == pytest.approx(-0.5 * 0.4 ** 2 * 0.02)


def test_ring_road_displacement_table():
    # action k moves k/50 cells: one cell with probability 0.02k, else none
    env = ring_road_env()
    mu = env.initial_state
    for k in range(50):
        row = kernel_row(env, 10, k, mu)
        frac = k * 0.02 * 0.02 / 0.02
        assert row[(10 + 1) % 50] == pytest.approx(frac, abs=1e-12)
        assert row[10] == pytest.approx(1.0 - frac, abs=1e-12)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_ring_road_population_independent_kernel():
    env = ring_road_env()
    rng = np.random.default_rng(0)
    mu1 = rng.dirichlet(np.ones(50))
    mu2 = rng.dirichlet(np.ones(50))
    for (s, a) in [(0, 0), (7, 25), (49, 49)]:
        np.testing.assert_array_equal(kernel_row(env, s, a, mu1), kernel_row(env, s, a, mu2))


def test_ring_road_kernel_probes_and_sampling():
    env = ring_road_env()
    probe_kernels(env)
    sampling_matches_kernel(env, s=3, a=25)


def test_ring_road_reward_bound_holds():
    env = ring_road_env()
    rng = np.random.default_rng(1)
    for _ in range(200):
        mu = rng.dirichlet(np.ones(50) * 0.1)
        r = env.reward_matrix(mu)
        assert np.abs(r).max() <= env.reward_bound + 1e-12


# -- flocking ----------------------------------------------------------------


def flocking_cost(mean, size=50, speed=0.0, c=0.5, s_det=1.0):
    """Flocking reward of a speed whose neighbors have the given mean location."""
    return -(speed ** 2 + c * (s_det - mean) ** 2) / size


def test_neighbor_uniform_interior_is_identity():
    mu = np.full(50, 0.02)
    assert flocking_env().reward(25, 0, mu) == pytest.approx(flocking_cost(0.5), abs=1e-14)


def test_neighbor_point_mass_inside_window():
    mu = np.zeros(50)
    mu[27] = 1.0
    assert flocking_env().reward(25, 0, mu) == pytest.approx(flocking_cost(27 * 0.02), abs=1e-16)


def test_neighbor_zero_window_mass_returns_location():
    mu = np.zeros(50)
    mu[40] = 1.0
    got = flocking_env().reward(10, 5, mu)
    assert got == pytest.approx(flocking_cost(0.2, speed=0.1), abs=1e-16)


def test_neighbor_boundary_zero_padding():
    # uniform mass, window [0, 0.1] at the left boundary: mean of the six
    # cells {0, 0.02, ..., 0.10} is 0.05; cross-checked on a 0.001 grid
    mu = np.full(50, 0.02)
    assert flocking_env().reward(0, 0, mu) == pytest.approx(flocking_cost(0.05), abs=1e-14)
    fine = np.full(1000, 1.0 / 1000)
    got = flocking_env(1000).reward(0, 0, fine)
    assert got == pytest.approx(flocking_cost(0.05, size=1000), abs=1e-6)


def test_flocking_rejects_non_positive_radius():
    with pytest.raises(ValueError):
        flocking_env(radius=0.0)


def test_flocking_reward_zero_when_aligned_at_destination():
    env = flocking_env(s_det=0.5)
    mu = np.zeros(50)
    mu[25] = 1.0  # point mass exactly at the destination coordinate
    assert env.reward(25, 0, mu) == pytest.approx(0.0, abs=1e-15)


def test_flocking_reward_default_destination():
    env = flocking_env()
    mu = np.zeros(50)
    mu[44] = 1.0
    expected = -(0.5 * (1.0 - 0.88) ** 2) * 0.02
    assert env.reward(40, 0, mu) == pytest.approx(expected, abs=1e-15)


def test_flocking_reward_bound():
    env = flocking_env()
    assert env.reward_bound <= 0.02 * (1 + 0.5)
    rng = np.random.default_rng(3)
    for _ in range(100):
        mu = rng.dirichlet(np.ones(50) * 0.2)
        assert np.abs(env.reward_matrix(mu)).max() <= env.reward_bound + 1e-15


def test_flocking_kernel_same_as_ring_road():
    ring, flock = ring_road_env(), flocking_env()
    mu = ring.initial_state
    for (s, a) in [(0, 10), (30, 49)]:
        np.testing.assert_array_equal(kernel_row(ring, s, a, mu), kernel_row(flock, s, a, mu))


def test_flocking_kernel_probes_and_sampling():
    env = flocking_env()
    probe_kernels(env)
    sampling_matches_kernel(env, s=10, a=40)


# -- routing -----------------------------------------------------------------


def test_sioux_falls_loads_bundled_network():
    env = sioux_falls_env()
    assert env.n_states == env.n_actions == 75
    assert env.gamma == 0.5
    np.testing.assert_allclose(env.initial_state, 1.0 / 75)


def test_sioux_falls_name_says_which_network_it_was_built_on(tmp_path):
    # the bundled edge list keeps the bare name, by default or by path, and
    # comments and blank lines do not change it; any other edge list is named
    # by the digest of its parsed edges
    bundled = default_network_path().read_text(encoding="utf-8")
    annotated = tmp_path / "annotated.txt"
    annotated.write_text("# a copy\n\n" + bundled.replace("\n", "  # edge\n\n"))
    redirected = tmp_path / "redirected.txt"
    redirected.write_text(bundled.replace("\n1 2\n", "\n1 3\n", 1))
    assert sioux_falls_env().name == "sioux-falls"
    assert sioux_falls_env(default_network_path()).name == "sioux-falls"
    assert sioux_falls_env(annotated).name == "sioux-falls"
    assert sioux_falls_env(redirected).name == "sioux-falls-68ee614d45a8"


def test_sioux_falls_rewards():
    env = sioux_falls_env()
    rng = np.random.default_rng(0)
    mu = rng.dirichlet(np.ones(75))
    restart = 74
    feas = env.actions.feasible[restart]
    assert env.reward(restart, int(feas[0]), mu) == 10.0
    mu2 = np.zeros(75)
    mu2[3] = 0.001
    a3 = int(env.actions.feasible[3][0])
    assert env.reward(3, a3, mu2) == pytest.approx(-0.1)


def test_sioux_falls_only_restart_is_rewarding():
    env = sioux_falls_env()
    rng = np.random.default_rng(1)
    mu = rng.dirichlet(np.ones(75))
    r = env.reward_matrix(mu)
    assert np.all(r[:74] <= 0.0)
    assert np.all(r[74] == 10.0)


def test_sioux_falls_restart_feasibility_is_node1_out_edges():
    env = sioux_falls_env()
    # the first two file edges leave node 1: (1,2) and (1,3)
    np.testing.assert_array_equal(env.actions.feasible[74], [0, 1])


def test_sioux_falls_deterministic_transition():
    env = sioux_falls_env()
    mu = env.initial_state
    rng = np.random.default_rng(0)
    for s in (0, 20, 74):
        for a in env.actions.feasible[s]:
            row = kernel_row(env, s, int(a), mu)
            assert row[int(a)] == 1.0 and row.sum() == 1.0
            assert env.sample_next(s, int(a), mu, rng) == int(a)


def test_sioux_falls_kernel_probes():
    probe_kernels(sioux_falls_env())


def test_sioux_falls_rejects_malformed_files(tmp_path):
    bad_count = tmp_path / "bad_count.txt"
    bad_count.write_text("nodes 24\nedges 74\n1 2\n")
    with pytest.raises(NetworkLoadError):
        sioux_falls_env(bad_count)

    bad_node = tmp_path / "bad_node.txt"
    bad_node.write_text("nodes 2\nedges 1\n1 7\n")
    with pytest.raises(NetworkLoadError):
        sioux_falls_env(bad_node)

    no_header = tmp_path / "no_header.txt"
    no_header.write_text("1 2\n2 1\n")
    with pytest.raises(NetworkLoadError):
        sioux_falls_env(no_header)

    # a malformed integer names the file and the line
    for name, text, line_no in (("bad_header_int.txt", "nodes x\nedges 1\n1 2\n", 1),
                                ("bad_edge_int.txt", "nodes 2\nedges 1\n1 x\n", 3)):
        (tmp_path / name).write_text(text)
        with pytest.raises(NetworkLoadError, match=f"{name}:{line_no}: cannot parse"):
            sioux_falls_env(tmp_path / name)

    with pytest.raises(NetworkLoadError):
        sioux_falls_env(tmp_path / "missing.txt")


def test_sioux_falls_rejects_unreachable_destination(tmp_path):
    # 24 nodes, 74 edges, but node 20 is never a head: destination unreachable
    lines = ["nodes 24", "edges 74"]
    edges = []
    for u in range(1, 24):
        v = u + 1 if u + 1 != 20 else 21
        edges.append((u, v))
    edges.append((24, 1))
    k = 2
    while len(edges) < 74:
        edges.append((1, k if k != 20 else 21))
        k = k % 24 + 1
    lines += [f"{u} {v}" for u, v in edges[:74]]
    path = tmp_path / "no_dest.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NetworkLoadError):
        sioux_falls_env(path)


# -- synthetic finite game ---------------------------------------------------


def test_toy_env_reproducible_from_seed():
    a = toy_finite_env(3, 2, seed=9)
    b = toy_finite_env(3, 2, seed=9)
    mu = a.initial_state
    np.testing.assert_array_equal(a.reward_matrix(mu), b.reward_matrix(mu))
    np.testing.assert_array_equal(kernel_row(a, 1, 1, mu), kernel_row(b, 1, 1, mu))


def test_toy_env_eps_zero_population_independent():
    env = toy_finite_env(3, 2, seed=1, eps=0.0)
    assert env.population_independent
    rng = np.random.default_rng(2)
    mu1, mu2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
    np.testing.assert_array_equal(kernel_row(env, 0, 0, mu1), kernel_row(env, 0, 0, mu2))


def test_toy_env_rows_sum_to_one():
    probe_kernels(toy_finite_env(4, 3, seed=5), n_probe=50)


def test_toy_env_sampling_matches_kernel():
    sampling_matches_kernel(toy_finite_env(4, 3, seed=5), s=2, a=1)


def test_toy_env_stationary_matches_eigen_oracle():
    env = toy_finite_env(4, 2, seed=6, eps=0.0)
    rng = np.random.default_rng(7)
    pi = rng.dirichlet(np.ones(2), size=4)
    p = dense_policy_kernel(pi, env, env.initial_state)
    from mfglearn.metrics import induced_population

    got = induced_population(pi, env)
    np.testing.assert_allclose(got, eigen_stationary(p), atol=1e-9)


def test_toy_env_low_rank_kernel_lies_in_factor_span():
    env = toy_finite_env(4, 3, seed=8, kernel_rank=2)
    factors = env.extras["kernel_factors"]
    p0 = env.extras["base_kernel"]
    coeffs, residuals, *_ = np.linalg.lstsq(factors.T, p0.reshape(-1, 4).T, rcond=None)
    recon = (factors.T @ coeffs).T.reshape(4, 3, 4)
    np.testing.assert_allclose(recon, p0, atol=1e-12)


def test_toy_env_size_limit():
    with pytest.raises(ValueError):
        toy_finite_env(7, 2, seed=0)


def test_discount_outside_unit_interval_is_a_config_error():
    # the game holds the one discount that the learners and the solver read
    with pytest.raises(ConfigError, match="discount"):
        toy_finite_env(3, 2, 7, gamma=1.0)
    env = toy_finite_env(3, 2, 7)
    model = {f.name: getattr(env, f.name) for f in dataclasses.fields(env) if f.init}
    for gamma in (1.0, -0.1, float("nan")):
        with pytest.raises(ConfigError, match="discount"):
            EnvironmentModel(**{**model, "gamma": gamma})
    assert EnvironmentModel(**{**model, "gamma": 0.0}).gamma == 0.0


DERIVED_FIELDS = ("reward_matrix", "sample_next")


@pytest.mark.parametrize("make_env", [
    lambda: ring_road_env(20),
    lambda: flocking_env(20),
    sioux_falls_env,
    lambda: toy_finite_env(3, 2, seed=7),
], ids=["ring-road-20", "flocking-20", "sioux-falls", "toy-3x2-seed7"])
def test_a_model_derives_the_fields_it_is_not_given_and_keeps_those_it_is(make_env):
    env = make_env()
    model = {f.name: getattr(env, f.name) for f in dataclasses.fields(env) if f.init}
    bare = EnvironmentModel(**{k: v for k, v in model.items() if k not in DERIVED_FIELDS})
    n_s, n_a = env.n_states, env.n_actions
    mu = np.random.default_rng(5).dirichlet(np.ones(n_s))
    assert (bare.reward_matrix(mu).tobytes()
            == _reward_table(env.reward, n_s, n_a)(mu).tobytes())
    sampler = _support_sampler(env.kernel_support)
    uniforms = np.random.default_rng(6).random(n_s * n_a)
    got, want = FixedDraws(uniforms), FixedDraws(uniforms)
    for s in range(n_s):
        for a in range(n_a):
            assert bare.sample_next(s, a, mu, got) == sampler(s, a, mu, want)
    assert got.values == want.values
    assert bare.initial_state.tobytes() == np.full(n_s, 1.0 / n_s).tobytes()

    given = {"reward_matrix": lambda mu: None, "sample_next": lambda s, a, mu, rng: 0}
    kept = EnvironmentModel(**{**model, **given})
    assert all(getattr(kept, k) is v for k, v in given.items())


MODEL_CALLABLES = ("reward", "sample_next", "reward_matrix", "kernel_support")


@pytest.mark.parametrize("make_env", [
    lambda: ring_road_env(20),
    lambda: flocking_env(20),
    sioux_falls_env,
    lambda: toy_finite_env(3, 2, seed=7),
], ids=["ring-road-20", "flocking-20", "sioux-falls", "toy-3x2-seed7"])
def test_replace_swaps_in_the_model_callables(make_env):
    # dataclasses.replace builds each game with wrapped callables, as the
    # benchmark's tracer does, and leaves the rest of the game as it was
    env = make_env()
    calls = []

    def wrap(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    swapped = dataclasses.replace(
        env, **{name: wrap(name, getattr(env, name)) for name in MODEL_CALLABLES})
    assert swapped.gamma == env.gamma and swapped.states == env.states
    mu = env.initial_state
    a = int(feasible_actions(env, 0)[0])
    assert swapped.reward(0, a, mu) == env.reward(0, a, mu)
    assert swapped.reward_matrix(mu).tobytes() == env.reward_matrix(mu).tobytes()
    assert (swapped.sample_next(0, a, mu, np.random.default_rng(3))
            == env.sample_next(0, a, mu, np.random.default_rng(3)))
    for got, want in zip(swapped.kernel_support(mu), env.kernel_support(mu)):
        assert got.tobytes() == want.tobytes()
    assert sorted(set(calls)) == sorted(MODEL_CALLABLES)


# -- kernel support arrays ------------------------------------------------------


@pytest.mark.parametrize("size", [1, 2, 3, 50, 200])
def test_grid_support_matches_the_stack_construction(size):
    idx, probs = _grid_kernel_support(size, 1.0 / size)(None)
    want_idx, want_probs = grid_support_oracle(size, 1.0 / size)
    for got, want in ((idx, want_idx), (probs, want_probs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "make_env",
    [
        lambda: toy_finite_env(3, 2, seed=7),
        lambda: ring_road_env(50),
        lambda: ring_road_env(200),
        lambda: flocking_env(50),
        sioux_falls_env,
    ],
    ids=["toy-3x2-seed7", "ring-road-50", "ring-road-200", "flocking-50", "sioux-falls"],
)
def test_kernel_support_arrays_are_contiguous_without_zero_strides(make_env):
    env = make_env()
    for arr in env.kernel_support(env.initial_state):
        assert arr.flags.c_contiguous
        assert 0 not in arr.strides


@pytest.mark.parametrize("make_env, n_cached", [
    (lambda: ring_road_env(20), 2),
    (lambda: flocking_env(20), 2),
    (sioux_falls_env, 2),
    (lambda: toy_finite_env(3, 2, seed=7), 1),  # its probabilities follow mu
], ids=["ring-road-20", "flocking-20", "sioux-falls", "toy-3x2-seed7"])
def test_cached_kernel_support_arrays_are_read_only(make_env, n_cached):
    # the arrays every call returns are one object: a write would change the
    # game for every later caller
    env = make_env()
    first = env.kernel_support(env.initial_state)
    second = env.kernel_support(np.roll(env.initial_state, 1))
    cached = [arr for arr, again in zip(first, second) if arr is again]
    assert len(cached) == n_cached
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 0


def test_ring_road_200_build_peaks_within_ten_percent_of_its_supports():
    # a memory gate: the build makes no temporary of the supports' size
    env, peak = traced_peak(ring_road_env, 200)
    idx, probs = env.kernel_support(env.initial_state)
    assert peak <= 1.1 * (idx.nbytes + probs.nbytes)
