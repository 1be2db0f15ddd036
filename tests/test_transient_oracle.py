"""The uniformisation solver against its full-window reference.

``repro.ctmc.transient.transient_distribution`` iterates with a transposed
kernel and stops once the iterate is within ``epsilon`` of the stationary
vector componentwise.  On seeded random chains, at horizons whose Poisson
window is shorter and longer than the chain, it must be bit-identical to
``tests/oracles/uniformisation.py`` where detection does not fire, within
``epsilon`` times the reference where it does, and independent of whether
the steady state was solved before.
"""

import numpy as np
import pytest

from oracles.uniformisation import transient_distribution_reference, uniformization_rate
from repro.ctmc import CTMC, steady_state_distribution, transient_distribution
from repro.ctmc.transient import poisson_window
from repro.telemetry import MemorySink, Telemetry

EPSILON = 1e-12


def random_transitions(seed: int, *, irreducible: bool):
    """A seeded chain of 8-24 states with rates spread over one decade.

    An irreducible chain gets a cycle through every state; a reducible one
    gets a one-way path and a few absorbing states.
    """
    rng = np.random.default_rng(seed)
    size = int(rng.integers(8, 25))
    count = int(rng.integers(size, 4 * size))
    sources = rng.integers(0, size, count)
    targets = rng.integers(0, size, count)
    rates = 10.0 ** rng.uniform(-0.5, 0.5, count)
    transitions = list(zip(sources.tolist(), rates.tolist(), targets.tolist()))
    if irreducible:
        transitions += [(state, 1.0, (state + 1) % size) for state in range(size)]
    else:
        absorbing = set(rng.choice(size, 2, replace=False).tolist())
        transitions = [edge for edge in transitions if edge[0] not in absorbing]
        transitions += [
            (state, 0.5, state + 1) for state in range(size - 1) if state not in absorbing
        ]
    return size, transitions


def solve_traced(chain: CTMC, time: float) -> tuple[np.ndarray, dict]:
    """The solver's result and the attributes of its ``solve.transient`` span."""
    telemetry = Telemetry(MemorySink())
    with telemetry.activate():
        result = transient_distribution(chain, time)
    (event,) = [e for e in telemetry.export_events() if e["name"] == "solve.transient"]
    return result, event["attrs"]


def horizons(chain: CTMC) -> list[float]:
    """One horizon whose window stays inside the chain, two that outgrow it."""
    rate = uniformization_rate(chain)
    return [scale * chain.num_states / rate for scale in (0.3, 4.0, 40.0)]


CHAINS = [(seed, irreducible) for seed in range(12) for irreducible in (True, False)]


@pytest.mark.parametrize("seed,irreducible", CHAINS)
def test_matches_the_full_window_reference(seed, irreducible):
    size, transitions = random_transitions(seed, irreducible=irreducible)
    chain = CTMC(size, transitions)
    for time in horizons(chain):
        result, attrs = solve_traced(chain, time)
        reference = transient_distribution_reference(chain, time)
        assert attrs["states"] == size
        if attrs["right"] <= size:
            assert attrs["detected_at"] == -1
        if attrs["detected_at"] == -1:
            assert attrs["steps"] == attrs["right"]
            assert np.array_equal(result, reference)
        else:
            assert attrs["steps"] == attrs["detected_at"]
            assert np.all(np.abs(result - reference) <= EPSILON * reference)


def test_detection_fires_and_is_skipped_across_the_corpus():
    """The corpus exercises both branches, so the comparisons above mean something."""
    fired = skipped = 0
    for seed, irreducible in CHAINS:
        chain = CTMC(*random_transitions(seed, irreducible=irreducible))
        for time in horizons(chain):
            detected_at = solve_traced(chain, time)[1]["detected_at"]
            fired += detected_at >= 0
            skipped += detected_at < 0
    assert fired >= 10 and skipped >= 10


@pytest.mark.parametrize("seed,irreducible", CHAINS[:8])
def test_result_does_not_depend_on_a_prior_steady_state_solve(seed, irreducible):
    size, transitions = random_transitions(seed, irreducible=irreducible)
    for time in horizons(CTMC(size, transitions)):
        cold = CTMC(size, transitions)
        warm = CTMC(size, transitions)
        steady_state_distribution(warm)
        assert np.array_equal(
            transient_distribution(cold, time), transient_distribution(warm, time)
        )


def test_detection_with_a_custom_initial_distribution():
    """Any stationary vector keeps the invariant, whatever the start."""
    size, transitions = random_transitions(3, irreducible=True)
    chain = CTMC(size, transitions)
    start = np.full(size, 1.0 / size)
    time = 400.0 / uniformization_rate(chain)
    result = transient_distribution(chain, time, initial=start)
    reference = transient_distribution_reference(chain, time, initial=start)
    assert np.all(np.abs(result - reference) <= EPSILON * reference)


def test_rcs_pump_chain_never_detects_and_matches_bit_for_bit(rcs_modular_evaluator):
    """The pump chain's stationary vector spans 4e-44 .. 1: the componentwise
    criterion does not hold within the window, so the full window runs."""
    pumps = rcs_modular_evaluator.evaluators["pumps"].ctmc
    result, attrs = solve_traced(pumps, 1e4)
    assert attrs["right"] > pumps.num_states
    assert attrs["detected_at"] == -1
    assert np.array_equal(result, transient_distribution_reference(pumps, 1e4))


def test_window_weights_are_built_only_when_the_iteration_reaches_them():
    chain = CTMC(2, [(0, 1.0, 1), (1, 10.0, 0)], 0, {1: frozenset({"down"})})
    left, right, _ = poisson_window(uniformization_rate(chain) * 1e6, EPSILON)
    result, attrs = solve_traced(chain, 1e6)
    assert (attrs["left"], attrs["right"]) == (left, right)
    assert 0 <= attrs["detected_at"] < left
    assert result == pytest.approx([10.0 / 11.0, 1.0 / 11.0], rel=1e-12)
