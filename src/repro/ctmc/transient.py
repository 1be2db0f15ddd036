"""Transient analysis of CTMCs by uniformisation.

``transient_distribution(ctmc, t)`` returns the state-probability vector at
time ``t`` starting from the chain's initial distribution.  The computation
uses the classical uniformisation (Jensen / randomisation) method:

    pi(t) = sum_k  PoissonPMF(k; Lambda * t) * pi(0) * P^k

with ``P = I + Q / Lambda`` and a truncation window chosen so that the
neglected Poisson mass is below a configurable error bound.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse, stats

from ..errors import AnalysisError
from .ctmc import CTMC


def transient_distribution(
    ctmc: CTMC,
    time: float,
    *,
    initial: np.ndarray | None = None,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """Probability vector of the chain at ``time``.

    Parameters
    ----------
    ctmc:
        The chain to analyse.
    time:
        Time horizon (finite, ``>= 0``).
    initial:
        Optional alternative initial distribution (defaults to the chain's).
    epsilon:
        Bound on the truncated Poisson probability mass.
    """
    if not np.isfinite(time):
        raise AnalysisError(
            f"transient analysis requires a finite time horizon, got {time}"
        )
    if time < 0:
        raise AnalysisError("transient analysis requires a non-negative time horizon")
    distribution = (
        np.array(ctmc.initial_distribution, dtype=float)
        if initial is None
        else np.asarray(initial, dtype=float)
    )
    if distribution.shape != (ctmc.num_states,):
        raise AnalysisError("initial distribution has the wrong length")
    if time == 0 or ctmc.num_transitions == 0:
        return distribution.copy()

    rate = ctmc.uniformization_rate()
    if rate <= 0:
        return distribution.copy()
    probability_matrix = _uniformized_matrix(ctmc, rate)
    left, right, weights = poisson_window(rate * time, epsilon)

    result = np.zeros_like(distribution)
    current = distribution.copy()
    for step in range(right + 1):
        if step >= left:
            result += weights[step - left] * current
        if step < right:
            current = current @ probability_matrix
    total = result.sum()
    if total <= 0 or not np.isfinite(total):
        raise AnalysisError("uniformisation produced an invalid distribution")
    # The truncation error only ever loses mass; renormalise it away.
    return result / total


def transient_probability_of(
    ctmc: CTMC, label: str, time: float, *, epsilon: float = 1e-12
) -> float:
    """Probability of being in a state labelled ``label`` at ``time``."""
    distribution = transient_distribution(ctmc, time, epsilon=epsilon)
    states = ctmc.states_with_label(label)
    return float(distribution[states].sum()) if states else 0.0


def poisson_window(mean: float, epsilon: float) -> tuple[int, int, np.ndarray]:
    """Left/right truncation points and weights of a Poisson(mean) distribution.

    The returned weights cover ``left .. right`` inclusive and sum to at least
    ``1 - epsilon``.
    """
    if mean <= 0:
        return 0, 0, np.array([1.0])
    left = int(stats.poisson.ppf(epsilon / 2.0, mean))
    right = int(stats.poisson.ppf(1.0 - epsilon / 2.0, mean))
    right = max(right, left + 1)
    ks = np.arange(left, right + 1)
    weights = stats.poisson.pmf(ks, mean)
    return left, right, weights


def _uniformized_matrix(ctmc: CTMC, rate: float) -> sparse.csr_matrix:
    """The DTMC matrix ``P = I + Q / Lambda`` of the uniformised chain."""
    generator = ctmc.generator_matrix()
    identity = sparse.identity(ctmc.num_states, format="csr")
    return (identity + generator / rate).tocsr()


__all__ = ["transient_distribution", "transient_probability_of", "poisson_window"]
