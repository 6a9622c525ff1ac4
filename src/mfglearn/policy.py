"""Policy operators mapping Q-values to per-state action distributions."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

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
        if self.kind == "softmax" and not 0.0 < self.inverse_temperature < math.inf:
            raise ConfigError("softmax inverse temperature must be finite and positive")


def softmax_operator(inverse_temperature: float) -> PolicyOperator:
    return PolicyOperator(kind="softmax", inverse_temperature=inverse_temperature)


def argmax_operator() -> PolicyOperator:
    return PolicyOperator(kind="argmax")


def policy_row(op: PolicyOperator, q_row: np.ndarray) -> np.ndarray:
    """Distribution over the last axis of one Q row, or of each row of an
    (n, A) block of rows (all entries feasible).

    Softmax subtracts the row max before exponentiating so that huge inverse
    temperatures (e.g. 1e9) cannot overflow.  Argmax puts probability one on
    the lowest-index maximizer.

    The softmax is built in place on one float64 temporary (so an integer
    row gives a float distribution), and the max and sum are the ufunc
    reductions that ``ndarray.max`` and ``ndarray.sum`` call, along the last
    axis: row i of a block has the bytes of the same row passed alone.
    """
    if op.kind == "softmax":
        # one row takes the scalar reductions, which cost less than kept axes
        one = q_row.ndim == 1
        top = np.maximum.reduce(q_row) if one else np.maximum.reduce(q_row, axis=-1, keepdims=True)
        z = np.subtract(q_row, top, dtype=np.float64)
        z *= op.inverse_temperature
        np.exp(z, out=z)
        z /= np.add.reduce(z) if one else np.add.reduce(z, axis=-1, keepdims=True)
        return z
    out = np.zeros(q_row.shape)
    np.put_along_axis(out, np.argmax(q_row, axis=-1, keepdims=True), 1.0, axis=-1)
    return out


def sample_action(dist: np.ndarray, rng, cdf: Optional[Sequence[float]] = None) -> int:
    """Inverse-CDF sample over action indices in increasing order: the first
    index whose running sum of ``dist`` exceeds one uniform ``rng.random()``.

    ``cdf`` is any indexable sequence of the running sums, the doubles of
    ``dist.cumsum()``, such as that array or a ``memoryview`` of it, which
    ``bisect`` reads as Python floats instead of boxing a numpy scalar per
    probe; a caller drawing from one row many times passes the one it
    holds, and it is computed here otherwise.  A zero entry repeats the
    running sum before it, so an index found this way has nonzero mass.
    Only a draw at or past the float total mass ``cdf[-1]`` finds none, and
    takes the last action of nonzero mass.  ``rng`` is any source with
    ``.random()``.
    """
    if cdf is None:
        cdf = dist.cumsum()
    idx = bisect_right(cdf, rng.random())
    if idx == len(cdf):
        idx = int(np.flatnonzero(dist)[-1])
    return idx


def policy_matrix(
    op: PolicyOperator,
    q_matrix: np.ndarray,
    feasible: Optional[tuple] = None,
) -> np.ndarray:
    """Full (S, A) policy table from a Q table, respecting feasibility masks:
    one ``policy_row`` call on the whole table, or one per state under
    masks, with zero mass on the infeasible actions."""
    if feasible is None:
        return policy_row(op, q_matrix)
    pi = np.zeros(q_matrix.shape)
    for s, feas in enumerate(feasible):
        pi[s, feas] = policy_row(op, q_matrix[s, feas])
    return pi
