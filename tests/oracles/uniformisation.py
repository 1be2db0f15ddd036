"""Full-window reference for the uniformisation solver.

The executable specification of
:func:`repro.ctmc.transient.transient_distribution`: every Poisson weight of
the truncation window is applied to its own iterate ``pi(0) P^k``, with
``P = I + Q / Lambda`` built from the generator matrix and each step taken as
``current @ P``.  There is no steady-state detection, so the cost is the
full ``right + 1`` steps.  ``tests/test_transient_oracle.py`` compares the
library solver with it: bit for bit where detection does not fire, within
``epsilon`` times the stationary vector where it does.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse, stats

from repro.ctmc import CTMC
from repro.errors import AnalysisError


def transient_distribution_reference(
    ctmc: CTMC,
    time: float,
    *,
    initial: np.ndarray | None = None,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """Probability vector of the chain at ``time`` over the full Poisson window."""
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

    rate = uniformization_rate(ctmc)
    if rate <= 0:
        return distribution.copy()
    probability_matrix = _uniformized_matrix(ctmc, rate)
    left, right, weights = poisson_window_reference(rate * time, epsilon)

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


def poisson_window_reference(mean: float, epsilon: float) -> tuple[int, int, np.ndarray]:
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


def uniformization_rate(ctmc: CTMC) -> float:
    """A uniformisation constant (strictly larger than every exit rate)."""
    rate_matrix = ctmc.rate_matrix()
    exit_rates = np.asarray(rate_matrix.sum(axis=1)).flatten()
    maximum = float(exit_rates.max()) if ctmc.num_states else 0.0
    return maximum * 1.02 + 1e-12


def _generator_matrix(ctmc: CTMC) -> sparse.csr_matrix:
    """Infinitesimal generator ``Q = R - diag(exit rates)``."""
    rate_matrix = ctmc.rate_matrix().tolil()
    exit_rates = np.asarray(rate_matrix.sum(axis=1)).flatten()
    for state in range(ctmc.num_states):
        rate_matrix[state, state] -= exit_rates[state]
    return rate_matrix.tocsr()


def _uniformized_matrix(ctmc: CTMC, rate: float) -> sparse.csr_matrix:
    """The DTMC matrix ``P = I + Q / Lambda`` of the uniformised chain."""
    generator = _generator_matrix(ctmc)
    identity = sparse.identity(ctmc.num_states, format="csr")
    return (identity + generator / rate).tocsr()
