"""Benchmark environments: speed control on a ring road, flocking on the
unit interval, routing on a 24-node road network, and a small synthetic
finite game for tests and stationarity checks.

Every environment defines its transition kernel once, as the sparse
``kernel_support(mu)`` arrays, and its reward once, as the pointwise
``reward(s, a, mu)``; ``EnvironmentModel`` derives the inverse-CDF
``sample_next``, the (S, A) ``reward_matrix(mu)``, which evaluates
``reward`` on broadcast index arrays and so agrees with every sampled
reward bit for bit, and the uniform start.  The solver and the
exploitability metric read the support arrays directly.  A game's name
identifies it, the network of a routing game included.

Grid dynamics: the continuous move s' = s + a*dt (mod 1) is mapped back to
the grid by stochastic rounding of the displacement in cells, which keeps
the mean displacement exact and the chain ergodic.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

import numpy as np

from .core import ActionSpace, ConfigError, StateSpace


class NetworkLoadError(ValueError):
    """Raised when a routing network file is malformed or unusable."""


@dataclass(frozen=True)
class EnvironmentModel:
    """A mean field game environment on finite state and action spaces.

    ``reward`` and ``sample_next`` take the population as a per-cell mass
    vector.  ``reward(s, a, mu)`` takes int indices or broadcastable index
    arrays and applies only elementwise operations to them, so the (S, A)
    table ``reward_matrix(mu)``, which is ``_reward_table(reward)``, equals
    it exactly at every (s, a).  ``sample_next(s, a, mu, rng)`` takes any
    source of uniforms with a ``random()`` method returning one double in
    [0, 1), such as a ``numpy.random.Generator``, and calls it at most once.

    ``kernel_support(mu)`` returns ``(idx, probs)`` of shape (S, A, m): the
    m possible successors of each state-action pair and their
    probabilities.  It is the only transition kernel an environment
    defines: ``sample_next`` is ``_support_sampler(kernel_support)``, which
    walks the support row in its stored order, so the order of the m
    successors fixes which successor each uniform draw selects.  A support
    with m = 1 is deterministic and its draw consumes no random number.
    An array returned on every call is built once, C-contiguous and
    read-only, so no caller can change the game for the others.

    ``gamma``, in [0, 1), is the one discount that the learners, the
    reference solver and the metrics all read.

    ``reward_matrix`` and ``sample_next`` left at None are derived as
    above.  A value passed is kept, so ``dataclasses.replace`` can wrap
    each callable and leave the others be.  ``initial_state`` is always the
    uniform start and is not an argument.
    """

    name: str
    states: StateSpace
    actions: ActionSpace
    gamma: float
    reward: Callable[[Any, Any, np.ndarray], Any]
    kernel_support: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    reward_bound: float
    population_independent: bool
    reward_matrix: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sample_next: Optional[Callable[[int, int, np.ndarray, Any], int]] = None
    extras: Optional[dict] = None
    initial_state: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError(f"discount must lie in [0,1), got {self.gamma}")
        if self.reward_matrix is None:
            object.__setattr__(self, "reward_matrix",
                               _reward_table(self.reward, self.n_states, self.n_actions))
        if self.sample_next is None:
            object.__setattr__(self, "sample_next", _support_sampler(self.kernel_support))
        object.__setattr__(self, "initial_state", np.full(self.n_states, 1.0 / self.n_states))

    @property
    def n_states(self) -> int:
        return self.states.size

    @property
    def n_actions(self) -> int:
        return self.actions.size


def _reward_table(reward, n_states: int, n_actions: int):
    """``reward_matrix``: ``reward`` at a state column and an action row,
    broadcast to an (S, A) array."""
    s_col = np.arange(n_states)[:, None]
    a_row = np.arange(n_actions)[None, :]

    def reward_matrix(mu):
        return np.broadcast_to(reward(s_col, a_row, mu), (n_states, n_actions)).copy()

    return reward_matrix


def _support_sampler(kernel_support):
    """``sample_next`` drawn by inverse CDF over ``kernel_support``.

    Returns the first successor of (s, a) whose running sum of support
    probabilities exceeds one uniform draw, else the last one.  The running
    sum adds the probabilities in support order, exactly as ``cumsum``
    does.  A support with one successor returns it without drawing.
    """

    def sample_next(s, a, mu, rng):
        idx, probs = kernel_support(mu)
        last = idx.shape[2] - 1
        if last == 0:
            return idx.item(s, a, 0)
        u = rng.random()
        j = 0
        acc = probs.item(s, a, 0)
        while u >= acc and j < last:
            j += 1
            acc += probs.item(s, a, j)
        return idx.item(s, a, j)

    return sample_next


def _grid_kernel_support(size: int, delta: float):
    """``kernel_support`` of a wrap-around shift grid, (S, A, 2) arrays.

    Action a moves a*delta cells per step of length delta, rounded
    stochastically: the successors are ordered [+1 cell, base shift] with
    probabilities [frac, 1 - frac], so a draw u < frac moves one cell
    further.  Both arrays are filled in place, C-contiguous and read-only.
    """
    # cells moved: speed a*delta times dt = delta over cells of width delta
    disp = np.arange(size) * delta * delta / delta
    lo = np.floor(disp).astype(np.int64)
    frac = disp - lo
    idx = np.empty((size, size, 2), dtype=np.int64)
    idx[..., 0] = lo + 1
    idx[..., 1] = lo
    idx += np.arange(size)[:, None, None]
    idx %= size
    probs = np.empty((size, size, 2))
    probs[..., 0] = frac
    probs[..., 1] = 1.0 - frac
    idx.flags.writeable = probs.flags.writeable = False

    def kernel_support(mu):
        return idx, probs

    return kernel_support


def _grid_game(name: str, size: int, make_reward) -> EnvironmentModel:
    """The game ``<name>-<size>`` on the shift grid of ``_grid_kernel_support``:
    locations and speeds share ``coords`` = {0, 1/size, ...}, a step covers
    delta = 1/size, the discount is 1 - delta, and ``make_reward(coords,
    delta)`` returns the game's ``(reward, reward_bound)``."""
    states = StateSpace(size=size, kind="grid")
    delta = states.delta
    coords = np.arange(size) * delta
    reward, bound = make_reward(coords, delta)
    return EnvironmentModel(
        name=f"{name}-{size}",
        states=states,
        actions=ActionSpace(size=size),
        gamma=1.0 - delta,
        reward=reward,
        kernel_support=_grid_kernel_support(size, delta),
        reward_bound=bound,
        population_independent=True,
    )


def ring_road_env(size: int = 50) -> EnvironmentModel:
    """Speed control on a ring road discretized into ``size`` cells.

    On the grid of ``_grid_game``, the cost penalizes deviation from a
    location-dependent stimulus speed corrected by local congestion:

        r(s, a, mu) = -1/2 (b(s) + 1/2 (1 - mu(s)/mu_jam) - a)^2 ds

    with b(s) = 0.2 (sin(4 pi s) + 2), mu_jam = 3/size, and discount
    gamma = 1 - ds.
    """

    def make_reward(coords, delta):  # coords are the speeds too; a_max = 1
        b = 0.2 * (np.sin(4.0 * np.pi * coords) + 2.0)
        mu_jam = 3.0 / size

        def reward(s, a, mu):
            bracket = b[s] + 0.5 * (1.0 - mu[s] / mu_jam) - coords[a]
            return -0.5 * bracket * bracket * delta

        # worst case over mu(s) in [0, 1] and the action grid
        lo_term = 0.5 * (1.0 - 1.0 / mu_jam)
        worst = max(
            abs(b.max() + 0.5 - coords.min()),
            abs(b.min() + lo_term - coords.max()),
        )
        return reward, 0.5 * worst * worst * delta

    return _grid_game("ring-road", size, make_reward)


def flocking_env(
    size: int = 50,
    c: float = 0.5,
    radius: float = 0.1,
    s_det: float = 1.0,
) -> EnvironmentModel:
    """Flocking on [0, 1] with the destination wrapped back to the start.

    Same grid and shift dynamics as the ring road.  The cost charges the
    squared speed plus ``c`` times the squared distance between the
    destination ``s_det`` and the mean location of the neighbors within
    ``radius`` (population zero-padded beyond the boundary):

        r(s, a, mu) = -(a^2 + c (s_det - m(mu, s))^2) ds

    where m(mu, s) is the mass-weighted mean location of the cells within
    ``radius`` of s, or the location of s itself if they hold no mass.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")

    def make_reward(coords, delta):  # coords are the speeds too
        speed_cost = coords * coords
        half = int(np.floor(radius / delta + 1e-9))
        win_lo = np.maximum(0, np.arange(size) - half)
        win_hi = np.minimum(size - 1, np.arange(size) + half)
        before = win_lo - 1  # running sum just before the window; zeroed where win_lo == 0
        has_before = win_lo > 0

        def reward(s, a, mu):
            # window mass and moment as differences of running sums
            cs_mass = np.cumsum(mu)
            cs_mom = np.cumsum(coords * mu)
            lo, hi, keep = before[s], win_hi[s], has_before[s]
            mass = cs_mass[hi] - cs_mass[lo] * keep
            mom = cs_mom[hi] - cs_mom[lo] * keep
            empty = mass == 0.0  # then the mean is the location of s
            mean = (mom * ~empty + coords[s] * empty) / (mass + empty)
            gap = s_det - mean
            return -(speed_cost[a] + c * gap * gap) * delta

        worst_gap = max(abs(s_det), abs(s_det - coords.max()))
        return reward, (coords.max() ** 2 + c * worst_gap * worst_gap) * delta

    return _grid_game("flocking", size, make_reward)


def default_network_path() -> Path:
    """Path of the bundled 24-node, 74-edge routing network."""
    return Path(importlib.resources.files("mfglearn.data") / "sioux_falls_24x74.txt")


def _parse_network_file(path) -> tuple[int, list]:
    n_nodes = n_edges = None
    edges = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise NetworkLoadError(f"cannot read network file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, value = line.split()
            value = int(value)
            if key == "nodes":
                n_nodes = value
            elif key == "edges":
                n_edges = value
            else:
                edges.append((int(key), value))
        except ValueError:
            raise NetworkLoadError(f"{path}:{line_no}: cannot parse {raw!r}") from None
    if n_nodes is None or n_edges is None:
        raise NetworkLoadError(f"{path}: missing 'nodes'/'edges' header lines")
    if len(edges) != n_edges:
        raise NetworkLoadError(
            f"{path}: header declares {n_edges} edges, found {len(edges)}"
        )
    for u, v in edges:
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise NetworkLoadError(f"{path}: edge ({u}, {v}) has node out of range")
    return n_nodes, edges


def sioux_falls_env(path=None) -> EnvironmentModel:
    """Routing game on a 24-node, 74-edge network with a restart edge.

    States and actions are the 75 directed edges (the loader appends the
    restart edge from node 20 back to node 1).  From an edge, a vehicle may
    only select among the outgoing edges of that edge's head node, and the
    transition to the chosen edge is deterministic.  The cost is a quadratic
    congestion cost off the restart edge plus a terminal reward on it:

        r(s, a, mu) = -c1 * mu(s)^2 * 1{s != restart} + c2 * 1{s == restart}

    with c1 = 1e5, c2 = 10, discount gamma = 0.5, uniform initial state.
    The game is named ``sioux-falls`` on the bundled edge list, whose digest
    is d875700ef975, and ``sioux-falls-<digest>`` on any other, with the
    first 12 hex digits of the SHA-256 of the parsed edge list as digest.
    """
    if path is None:
        path = default_network_path()
    n_nodes, edges = _parse_network_file(path)
    import hashlib  # here: loading it costs every CLI start-up some milliseconds
    digest = hashlib.sha256(repr(edges).encode()).hexdigest()[:12]
    if n_nodes != 24 or len(edges) != 74:
        raise NetworkLoadError(
            f"{path}: expected 24 nodes / 74 edges, got {n_nodes} nodes / {len(edges)} edges"
        )

    start_node, dest_node = 1, 20
    edges = edges + [(dest_node, start_node)]  # restart edge, index 74
    n_e = len(edges)
    tails = np.array([u - 1 for u, v in edges])
    heads = np.array([v - 1 for u, v in edges])
    restart = n_e - 1

    out_edges = [np.nonzero(tails == node)[0] for node in range(n_nodes)]
    # reachability of the destination from the start along directed edges
    seen = {start_node - 1}
    frontier = [start_node - 1]
    while frontier:
        node = frontier.pop()
        for e in out_edges[node]:
            h = int(heads[e])
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    if (dest_node - 1) not in seen:
        raise NetworkLoadError(f"{path}: destination node {dest_node} unreachable")

    feasible = tuple(out_edges[int(heads[e])] for e in range(n_e))
    for e, feas in enumerate(feasible):
        if len(feas) == 0:
            raise NetworkLoadError(
                f"{path}: edge {e + 1} ends at node {heads[e] + 1} with no outgoing edge"
            )

    states = StateSpace(size=n_e, kind="edges")
    actions = ActionSpace(size=n_e, feasible=feasible)
    c1, c2 = 1e5, 10.0

    # -c1 mu(s)^2 off the restart edge and c2 on it, by arithmetic alone;
    # subtracting a zero keeps the sign of a zero congestion cost
    on_restart = np.arange(n_e) == restart
    congestion = np.where(on_restart, 0.0, -c1)
    restart_loss = np.where(on_restart, -c2, 0.0)

    def reward(s, a, mu):
        return congestion[s] * mu[s] * mu[s] - restart_loss[s]

    idx_cache = np.broadcast_to(np.arange(n_e)[None, :, None], (n_e, n_e, 1)).copy()
    prob_cache = np.ones((n_e, n_e, 1))
    idx_cache.flags.writeable = prob_cache.flags.writeable = False

    def kernel_support(mu):
        return idx_cache, prob_cache

    return EnvironmentModel(
        name="sioux-falls" if digest == "d875700ef975" else f"sioux-falls-{digest}",
        states=states,
        actions=actions,
        gamma=0.5,
        reward=reward,
        kernel_support=kernel_support,
        reward_bound=max(c1, c2),
        population_independent=True,
    )


def toy_finite_env(
    n_states: int,
    n_actions: int,
    seed: int,
    eps: float = 0.1,
    gamma: float = 0.5,
    kernel_rank: Optional[int] = None,
    reward_pop_scale: float = 0.02,
) -> EnvironmentModel:
    """Small random finite game, fully reproducible from the seed.

    The kernel mixes a fixed random base kernel with the population,
    P(s'|s,a,mu) = (1-eps) P0(s'|s,a) + eps mu(s'), and the reward is
    linear in mu.  With eps = 0 the kernel is population independent.
    ``kernel_rank`` restricts the rows of P0 to the span of that many
    random base measures, which keeps every induced population inside a
    low-dimensional span.
    """
    if n_states > 6 or n_actions > 6:
        raise ConfigError("toy environment is limited to at most 6 states/actions")
    if not (0.0 <= eps < 1.0):
        raise ConfigError(f"eps must lie in [0,1), got {eps}")
    if seed < 0:
        raise ConfigError(f"toy seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    if kernel_rank is not None:
        if not (1 <= kernel_rank <= n_states):
            raise ConfigError(f"kernel_rank must lie in [1, {n_states}]")
        factors = rng.random((kernel_rank, n_states)) + 0.2
        factors /= factors.sum(axis=1, keepdims=True)
        weights = rng.random((n_states, n_actions, kernel_rank)) + 0.2
        weights /= weights.sum(axis=2, keepdims=True)
        p0 = np.einsum("sar,rn->san", weights, factors)
    else:
        factors = None
        p0 = rng.random((n_states, n_actions, n_states)) + 0.1
        p0 /= p0.sum(axis=2, keepdims=True)

    r_base = 0.05 * rng.random((n_states, n_actions))
    r_pop = reward_pop_scale * (2.0 * rng.random((n_states, n_actions, n_states)) - 1.0)

    states = StateSpace(size=n_states, kind="edges")
    actions = ActionSpace(size=n_actions)

    pop_columns = tuple(r_pop[:, :, j] for j in range(n_states))

    def reward(s, a, mu):
        # r_base + r_pop @ mu, one population cell at a time
        total = r_base[s, a]
        for column, m in zip(pop_columns, mu):
            total = total + column[s, a] * m
        return total

    idx_cache = np.broadcast_to(
        np.arange(n_states)[None, None, :], (n_states, n_actions, n_states)
    ).copy()
    idx_cache.flags.writeable = False

    kept = (1.0 - eps) * p0  # the population-free part, built once

    def kernel_support(mu):
        return idx_cache, kept + eps * mu

    bound = float(np.max(np.abs(r_base)[..., None] + np.abs(r_pop)))

    return EnvironmentModel(
        name=f"toy-{n_states}x{n_actions}-seed{seed}",
        states=states,
        actions=actions,
        gamma=gamma,
        reward=reward,
        kernel_support=kernel_support,
        reward_bound=bound,
        population_independent=(eps == 0.0),
        extras={"base_kernel": p0, "kernel_factors": factors, "mix_eps": eps},
    )
