"""Policy operators mapping Q-values to per-state action distributions."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConfigError


@dataclass(frozen=True)
class PolicyOperator:
    """Softmax (with inverse temperature) or argmax policy operator."""

    kind: str  # "softmax" | "argmax"
    inverse_temperature: float = 1.0

    def __post_init__(self):
        if self.kind not in ("softmax", "argmax"):
            raise ConfigError(f"unknown policy operator {self.kind!r}")
        if self.kind == "softmax" and self.inverse_temperature <= 0:
            raise ConfigError("softmax inverse temperature must be positive")


def softmax_operator(inverse_temperature: float) -> PolicyOperator:
    return PolicyOperator(kind="softmax", inverse_temperature=inverse_temperature)


def argmax_operator() -> PolicyOperator:
    return PolicyOperator(kind="argmax")


def policy_row(op: PolicyOperator, q_row: np.ndarray) -> np.ndarray:
    """Distribution over the entries of one Q row (all entries feasible).

    Softmax subtracts the row max before exponentiating so that huge inverse
    temperatures (e.g. 1e9) cannot overflow.  Argmax puts probability one on
    the lowest-index maximizer.

    The softmax is built in place on one float64 temporary (so an integer
    row gives a float distribution), and the max and sum are the ufunc
    reductions that ``ndarray.max`` and ``ndarray.sum`` call.
    """
    if op.kind == "softmax":
        z = np.subtract(q_row, np.maximum.reduce(q_row), dtype=np.float64)
        z *= op.inverse_temperature
        np.exp(z, out=z)
        z /= np.add.reduce(z)
        return z
    out = np.zeros(q_row.shape[0])
    out[int(np.argmax(q_row))] = 1.0
    return out


def sample_action(dist: np.ndarray, rng, cdf: Optional[np.ndarray] = None) -> int:
    """Inverse-CDF sample over action indices in increasing order: the first
    index whose running sum of ``dist`` exceeds one uniform ``rng.random()``.

    ``cdf`` is ``dist.cumsum()``; a caller drawing from one row many times
    passes the one it holds, and it is computed here otherwise.  A zero
    entry repeats the running sum before it, so an index found this way has
    nonzero mass.  Only a draw at or past the float total mass ``cdf[-1]``
    finds none, and takes the last action of nonzero mass.  ``rng`` is any
    source with ``.random()``.
    """
    if cdf is None:
        cdf = dist.cumsum()
    idx = bisect_right(cdf, rng.random())
    if idx == cdf.shape[0]:
        idx = int(np.flatnonzero(dist)[-1])
    return idx


def policy_matrix(
    op: PolicyOperator,
    q_matrix: np.ndarray,
    feasible: Optional[tuple] = None,
) -> np.ndarray:
    """Full (S, A) policy table from a Q table, respecting feasibility masks."""
    n_s, n_a = q_matrix.shape
    pi = np.zeros((n_s, n_a))
    for s in range(n_s):
        if feasible is None:
            pi[s] = policy_row(op, q_matrix[s])
        else:
            feas = feasible[s]
            pi[s, feas] = policy_row(op, q_matrix[s, feas])
    return pi
