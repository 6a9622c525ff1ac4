"""Shared domain types: discretized spaces, parameters, observations, run config.

Conventions used throughout the package:

* States and actions are dense 0-based integer indices.  For interval grids
  the continuous coordinate of state ``i`` is ``i * delta``.
* A population measure is a vector of per-cell masses summing to one.
* All types here are immutable values once constructed; they are safe to
  share read-only across concurrent runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

SIMPLEX_TOL = 1e-12


class ConfigError(ValueError):
    """Raised when a space, schedule, or run configuration is invalid."""


@dataclass(frozen=True)
class StateSpace:
    """Finite state space, either an interval grid or a set of graph edges.

    For ``kind="grid"`` the grid covers the unit interval, so ``delta`` is
    ``1 / size``.  Graph-edge spaces use ``delta = 1``.
    """

    size: int
    kind: str = "grid"  # "grid" | "edges"
    delta: float = field(init=False)

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"state space size must be >= 1, got {self.size}")
        if self.kind not in ("grid", "edges"):
            raise ConfigError(f"unknown state space kind {self.kind!r}")
        object.__setattr__(self, "delta", 1.0 / self.size if self.kind == "grid" else 1.0)


@dataclass(frozen=True)
class ActionSpace:
    """Finite action space with an optional per-state feasibility mask.

    ``feasible[s]`` is an increasing int array of the actions allowed at
    state ``s``; ``None`` means every action is feasible everywhere.
    """

    size: int
    feasible: Optional[tuple] = None  # tuple of np.ndarray, one per state

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"action space size must be >= 1, got {self.size}")
        if self.feasible is not None:
            for s, acts in enumerate(self.feasible):
                if len(acts) == 0:
                    raise ConfigError(f"state {s} has no feasible action")
                if np.any(acts < 0) or np.any(acts >= self.size):
                    raise ConfigError(f"state {s} has out-of-range feasible actions")

    @cached_property
    def mask(self) -> Optional[np.ndarray]:
        """Read-only (S, A) table of ``feasible``, built once; None if every
        action is feasible everywhere."""
        if self.feasible is None:
            return None
        mask = np.zeros((len(self.feasible), self.size), dtype=bool)
        for s, acts in enumerate(self.feasible):
            mask[s, acts] = True
        mask.flags.writeable = False
        return mask


@dataclass(frozen=True)
class Observation:
    """One online sample tuple (s, a, r, s', a')."""

    s: int
    a: int
    r: float
    s_next: int
    a_next: int


@dataclass(frozen=True)
class UnifiedParameter:
    """Concatenated (value-function, population-measure) parameter.

    ``theta`` holds the value-function weights, ``eta`` the population
    weights.  ``eta`` is expected to live on the probability simplex and
    ``theta`` inside the configured Euclidean ball.
    """

    theta: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=np.float64))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=np.float64))


@dataclass(frozen=True)
class StepSizeSchedule:
    """Step size a0/(1 + b*t): linear decay at rate b, constant at b = 0."""

    a0: float
    b: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.a0 < 1.0):
            raise ConfigError(f"initial step size must lie in (0,1), got {self.a0}")
        if not (np.isfinite(self.b) and self.b >= 0):
            raise ConfigError(f"decay rate b must be finite and >= 0, got {self.b}")


ALGORITHMS = ("semisgd", "fpi-vanilla", "fpi-fp", "fpi-md", "fpi-er")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one learning run.  The discount is the game's
    (``EnvironmentModel.gamma``)."""

    total_steps: int
    schedule: StepSizeSchedule
    inverse_temperature: float
    ball_radius: float
    seed: int
    inner_k: Optional[int] = None
    algorithm: str = "semisgd"
    cadence: int = 100
    expl_every: Optional[int] = 5000  # None disables exploitability snapshots

    def __post_init__(self):
        if self.total_steps < 0:
            raise ConfigError("total_steps must be >= 0")
        if not (np.isfinite(self.inverse_temperature) and self.inverse_temperature > 0):
            raise ConfigError(
                f"inverse temperature must be finite and positive, got {self.inverse_temperature}"
            )
        if not self.ball_radius > 0:  # NaN fails; inf is a ball that never projects
            raise ConfigError(f"ball radius must be positive, got {self.ball_radius}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm != "semisgd":
            if self.inner_k is None or self.inner_k < 1:
                raise ConfigError("FPI variants need inner_k >= 1")
            if self.inner_k > self.total_steps:
                raise ConfigError(
                    f"inner_k = {self.inner_k} exceeds the sample budget T = {self.total_steps}"
                )
        if self.cadence < 1:
            raise ConfigError("cadence must be >= 1")
        if self.expl_every is not None and self.expl_every < 1:
            raise ConfigError("expl_every must be >= 1, or None for no exploitability")

