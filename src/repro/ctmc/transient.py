"""Transient analysis of CTMCs by uniformisation with steady-state detection.

``transient_distribution(ctmc, t)`` returns the state-probability vector at
time ``t`` starting from the chain's initial distribution.  The computation
uses the classical uniformisation (Jensen / randomisation) method:

    pi(t) = sum_k  PoissonPMF(k; Lambda * t) * pi(0) * P^k

with ``P = I + Q / Lambda`` and a truncation window ``left .. right`` chosen
so that the neglected Poisson mass is below ``epsilon``.

The kernel builds ``P^T`` once per call as a CSR matrix, so each step is one
``P^T @ v`` product; it adds the same terms in the same order as ``v @ P``,
so the iterates are bit-identical to the textbook loop.

When the window is longer than the chain has states, the solver also checks
the iterates against the stationary vector ``pi`` of
:func:`~repro.ctmc.steady_state.steady_state_distribution` (safe on-the-fly
steady-state detection, Katoen & Zapreev, QEST 2006).  Once
``|v_k - pi| <= epsilon * pi`` holds componentwise it holds for every later
iterate (``P`` is non-negative and ``pi P = pi``), so the rest of the Poisson
sum is ``pi`` times the remaining weight, with componentwise relative error
at most ``epsilon`` plus the error of the steady-state solve.  The cost of a
long horizon is then bounded by the chain's mixing time instead of by
``Lambda * t``.  The full-window loop is kept as the test oracle
``tests/oracles/uniformisation.py``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import sparse, stats

from ..errors import AnalysisError
from ..telemetry.trace import span as telemetry_span
from .ctmc import CTMC
from .steady_state import steady_state_distribution

#: Steps between two steady-state checks; a check costs a few vector passes,
#: a step one sparse product.
_CHECK_EVERY = 16


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
        Bound on the truncated Poisson probability mass, and the
        componentwise relative tolerance of steady-state detection.
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

    transposed, rate = _uniformized_transpose(ctmc)
    mean = rate * time
    left, right = _poisson_bounds(mean, epsilon)
    with telemetry_span(
        "solve.transient",
        states=ctmc.num_states,
        uniformization_rate=rate,
        left=left,
        right=right,
    ) as solve_span:
        # Detection pays for a steady-state solve only when the window is
        # longer than the chain; the choice depends on the input alone.
        stationary = (
            steady_state_distribution(ctmc) if right > ctmc.num_states else None
        )
        tolerance = None if stationary is None else epsilon * stationary
        result = np.zeros_like(distribution)
        current = distribution.copy()
        weights = None
        detected_at = -1
        for step in range(right + 1):
            if (
                tolerance is not None
                and step % _CHECK_EVERY == 0
                and np.all(np.abs(current - stationary) <= tolerance)
            ):
                detected_at = step
                break
            if step >= left:
                if weights is None:
                    weights = poisson_window(mean, epsilon)[2]
                result += weights[step - left] * current
            if step < right:
                current = transposed @ current
        if detected_at < 0:
            solve_span.set(steps=right, detected_at=-1)
        else:
            solve_span.set(steps=detected_at, detected_at=detected_at)
            if weights is None:
                # Every remaining weight multiplies pi: the normalised sum is pi.
                result = stationary
            else:
                result += weights[detected_at - left:].sum() * stationary
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

    The Poisson mass outside ``left .. right`` is below ``epsilon``; the
    returned weights cover ``left .. right`` inclusive and carry the rounding
    of SciPy's pmf (their sum falls short of one by ~2e-11 at a mean of 5e4,
    which the solver's final renormalisation absorbs).  Raises :class:`AnalysisError` for a non-finite mean, an
    ``epsilon`` outside ``(0, 1)`` or a window beyond the int64 range.
    """
    left, right = _poisson_bounds(mean, epsilon)
    if mean <= 0:
        return left, right, np.array([1.0])
    if right >= np.iinfo(np.int64).max:
        raise AnalysisError(f"the Poisson window of mean {mean} is too wide to tabulate")
    weights = stats.poisson.pmf(np.arange(left, right + 1), mean)
    return left, right, weights


@functools.lru_cache(maxsize=1)
def _poisson_bounds(mean: float, epsilon: float) -> tuple[int, int]:
    """Truncation points of :func:`poisson_window`.

    Memoised for the last call: the solver asks for the bounds before it
    asks for the weights.  SciPy's Poisson quantile is NaN for means beyond
    about 1e11; there the Chernoff tail bounds
    ``P(X <= m - x) <= exp(-x^2 / 2m)`` and
    ``P(X >= m + x) <= exp(-x^2 / (2 (m + x / 3)))`` give the points instead.
    """
    if not math.isfinite(mean):
        raise AnalysisError(f"the Poisson window needs a finite mean, got {mean}")
    if not 0.0 < epsilon < 1.0:
        raise AnalysisError(f"the truncation bound must lie in (0, 1), got {epsilon}")
    if mean <= 0:
        return 0, 0
    left = stats.poisson.ppf(epsilon / 2.0, mean)
    right = stats.poisson.ppf(1.0 - epsilon / 2.0, mean)
    if not (np.isfinite(left) and np.isfinite(right)):
        log_term = math.log(2.0 / epsilon)
        left = max(0.0, math.floor(mean - math.sqrt(2.0 * log_term * mean)))
        right = math.ceil(
            mean + log_term / 3.0 + math.sqrt(log_term**2 / 9.0 + 2.0 * log_term * mean)
        )
    left = int(left)
    return left, max(int(right), left + 1)


def _uniformized_transpose(ctmc: CTMC) -> tuple[sparse.csr_matrix, float]:
    """``P^T`` of the uniformised chain as CSR, and its rate ``Lambda``.

    Built from one rate matrix with the arithmetic of ``I + Q * (1 / Lambda)``
    (``P[i, j] = R[i, j] * (1 / Lambda)``, ``P[i, i] = 1 + (-exit_i) *
    (1 / Lambda)``), so every entry and ``Lambda`` equal those of the
    generator-built reference ``tests/oracles/uniformisation.py``: ``Lambda``
    is 1.02 times the largest row sum of ``rates.sum`` plus 1e-12, and the
    diagonal takes row sums added in column order, as a generator built
    through ``lil_matrix`` has them.
    """
    rates = ctmc.rate_matrix()
    rate = float(np.asarray(rates.sum(axis=1)).max()) * 1.02 + 1e-12
    exit_rates = rates @ np.ones(ctmc.num_states)
    scale = 1 / rate
    diagonal = sparse.diags(1.0 + (-exit_rates) * scale, format="csr")
    return rates.T.tocsr() * scale + diagonal, rate


__all__ = ["transient_distribution", "transient_probability_of", "poisson_window"]
