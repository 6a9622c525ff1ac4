"""Linear function approximation machinery.

Feature maps for the value function, measure bases for the population,
Gram matrices, the two semi-gradients, and the simplex projection.

Measure convention: ``MeasureBasis.evaluate`` returns per-cell *density*
values normalized so that ``delta * sum_s psi_i(s) == 1``.  Finite (graph
or tabular) spaces use ``delta = 1``, which makes densities and masses
coincide and the one-hot Gram matrix exactly the identity.  The represented
population as a mass vector is ``basis.represent(eta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ActionSpace, Observation, StateSpace, SIMPLEX_TOL


class BasisError(ValueError):
    """Raised when a measure basis cannot be constructed."""


@dataclass(frozen=True)
class FeatureMap:
    """State-action feature map phi with sup_{s,a} ||phi(s,a)||_2 <= 1.

    Either the one-hot map over the d1 = S*A pairs in row-major order, which
    stores no array (``features`` is None), or the dense (S, A, d1) array
    ``features`` of the vectors phi(s, a), whose last axis gives d1.
    """

    features: Optional[np.ndarray] = None
    d1: int = 0

    def __post_init__(self):
        if self.features is not None:
            features = np.asarray(self.features, dtype=np.float64)
            object.__setattr__(self, "features", features)
            object.__setattr__(self, "d1", features.shape[2])

    @property
    def one_hot(self) -> bool:
        return self.features is None


@dataclass(frozen=True)
class MeasureBasis:
    """Family of d2 probability measures over the grid plus its Gram matrix.

    ``densities`` has shape (d2, n_states); row i holds the density values
    of basis measure i (so ``delta * densities[i].sum() == 1``).  ``d2`` and
    ``gram``, which is ``gram_matrix(densities, delta)``, derive from them.
    ``masses`` is ``delta * densities``; each row sums to one.
    """

    densities: np.ndarray
    delta: float
    d2: int = field(init=False)
    gram: np.ndarray = field(init=False)
    masses: np.ndarray = field(init=False)
    identity_gram: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "d2", self.densities.shape[0])
        object.__setattr__(self, "gram", gram_matrix(self.densities, self.delta))
        object.__setattr__(self, "masses", self.densities * self.delta)
        object.__setattr__(self, "identity_gram", np.array_equal(self.gram, np.eye(self.d2)))

    def evaluate(self, s: int) -> np.ndarray:
        """Density values of the d2 basis measures at state s."""
        return self.densities[:, s]

    def represent(self, eta: np.ndarray) -> np.ndarray:
        """Per-cell mass vector of the measure <psi, eta>."""
        return self.masses.T @ eta


def one_hot_feature_map(states: StateSpace, actions: ActionSpace) -> FeatureMap:
    """One-hot feature map over state-action pairs, row-major (s,a) indexing."""
    return FeatureMap(d1=states.size * actions.size)


def gram_matrix(densities: np.ndarray, delta: float) -> np.ndarray:
    """Gram matrix G[i,j] = delta * sum_s psi_i(s) psi_j(s).

    Symmetry is enforced exactly by averaging the product with its
    transpose.
    """
    densities = np.asarray(densities, dtype=np.float64)
    g = delta * (densities @ densities.T)
    return (g + g.T) / 2.0


def one_hot_measure_basis(states: StateSpace) -> MeasureBasis:
    """Dirac basis: one unit mass per state; Gram matrix is the identity."""
    return MeasureBasis(densities=np.eye(states.size), delta=1.0)


def tan_normal_basis(
    states: StateSpace, d2: int, c: float = 1.2, v: float | None = None
) -> MeasureBasis:
    """Ring-periodic measure basis built from a tan-composed normal density.

    Raw basis function i is ``c*f(0) - f(tan((s - s_i) * pi))`` with f the
    zero-mean normal density of variance ``v`` (default d2/2) and centers
    s_i evenly spaced on [0, 1).  Raw values are clamped at zero from below,
    then each function is normalized to integrate to one over the grid.
    """
    if states.kind != "grid":
        raise BasisError("tan-normal basis requires an interval-grid state space")
    if d2 < 1:
        raise BasisError(f"d2 must be >= 1, got {d2}")
    if v is None:
        v = d2 / 2.0
    if not (np.isfinite(v) and v > 0):
        raise BasisError(f"variance must be finite and positive, got {v}")
    if not np.isfinite(c):
        raise BasisError(f"c must be finite, got {c}")

    n = states.size
    delta = states.delta
    grid = np.arange(n) * delta
    centers = np.arange(d2) / d2

    def normal_pdf(x):
        return np.exp(-(x ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)

    # tan(u*pi) has period 1 in u, so the basis is well defined on the ring.
    u = grid[None, :] - centers[:, None]
    with np.errstate(over="ignore"):
        raw = c * normal_pdf(0.0) - normal_pdf(np.tan(u * np.pi))
    raw = np.maximum(raw, 0.0)

    totals = raw.sum(axis=1) * delta
    if np.any(totals <= 0.0):
        bad = int(np.argmin(totals))
        raise BasisError(f"basis function {bad} is identically <= 0 after clamping")
    return MeasureBasis(densities=raw / totals[:, None], delta=delta)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-based threshold rule, O(d log d).  Inputs already on the simplex
    (entries >= 0, sum within 1e-12 of one) are returned unchanged, which
    makes the projection exactly idempotent.  Non-finite input, and finite
    input whose sorted cumulative sum overflows to inf, raise ``ValueError``.

    The sum is taken once and serves both tests: an inf or NaN entry always
    makes the sum inf or NaN, so only a non-finite sum needs the entrywise
    finiteness scan (a finite input whose sum overflows passes it and goes
    on to the threshold rule), and a sum off one skips the sign test.

    The threshold is found by one scan over the entries sorted in decreasing
    order, in Python floats: rho is the last i with u_i * i > css_i, where
    css_i = (u_1 + ... + u_i) - 1, and tau = css_rho / rho.  The running sum
    adds the entries one at a time in sorted order, which is how ``cumsum``
    accumulates, and each sum, product, comparison and the division is one
    rounded IEEE double operation, so every value equals its numpy
    counterpart bit for bit.  Entries that compare equal may be ordered
    differently by the two sorts, but only +0.0 and -0.0 differ in bits, and
    their order decides nothing: a zero leaves a nonzero sum unchanged, a
    zero sum less one is -1.0 whatever its sign, and the two zeros compare
    equal.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("project_simplex expects a non-empty vector")
    total = float(np.add.reduce(v))  # the reduction v.sum() calls, without its wrapper
    if not math.isfinite(total) and not np.all(np.isfinite(v)):
        raise ValueError("project_simplex requires finite input")
    if abs(total - 1.0) <= SIMPLEX_TOL and v.min() >= 0.0:
        return v.copy()
    rho, css_rho, acc = 0, 0.0, 0.0
    for i, u in enumerate(sorted(v.tolist(), reverse=True), 1):
        acc += u
        css = acc - 1.0
        if u * i > css:
            rho, css_rho = i, css
    if rho == 0:
        raise ValueError("project_simplex input overflows its cumulative sum")
    return np.maximum(v - css_rho / rho, 0.0)


def semi_gradient_theta(
    theta: np.ndarray, obs: Observation, phi: FeatureMap, gamma: float
) -> np.ndarray:
    """TD semi-gradient phi(s,a) * (<phi(s,a) - gamma*phi(s',a'), theta> - r)
    of a dense feature map.

    With the identity as ``features`` this reduces to the tabular on-policy
    TD (SARSA) error placed at index (s,a), which is how the learner applies
    the one-hot map.
    """
    f = phi.features[obs.s, obs.a]
    f_next = phi.features[obs.s_next, obs.a_next]
    # expanded as <f, theta> - gamma <f_next, theta> so identity features
    # reproduce the tabular TD error bit for bit
    td = (float(f @ theta) - gamma * float(f_next @ theta)) - obs.r
    return f * td


def semi_gradient_eta(eta: np.ndarray, s_next: int, basis: MeasureBasis) -> np.ndarray:
    """Population semi-gradient G_psi @ eta - psi(s').

    With the one-hot basis this is exactly the tabular Monte Carlo rule
    eta - e_{s'}.
    """
    return basis.gram @ eta - basis.evaluate(s_next)
