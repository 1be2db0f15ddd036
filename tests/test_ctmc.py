"""Tests for the CTMC solvers (steady state, transient, absorbing, lumping)."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import (
    CTMC,
    bottom_strongly_connected_components,
    interval_unavailability,
    lump,
    make_absorbing,
    mean_time_to_failure,
    point_availability,
    poisson_window,
    reliability,
    steady_state_availability,
    steady_state_distribution,
    transient_distribution,
    unreliability,
)
from repro.ctmc.csl import Atomic, CSLChecker, Not, ProbabilisticUntil, SteadyState, eventually
from repro.errors import AnalysisError, ModelError


def two_state_machine(failure_rate=0.01, repair_rate=1.0) -> CTMC:
    """The classic repairable single machine (up <-> down)."""
    return CTMC(
        2,
        [(0, failure_rate, 1), (1, repair_rate, 0)],
        initial=0,
        labels={1: frozenset({"down"})},
        state_names=["up", "down"],
    )


class TestConstruction:
    def test_parallel_transitions_are_summed(self):
        chain = CTMC(2, [(0, 1.0, 1), (0, 2.0, 1)])
        assert chain.num_transitions == 1
        assert chain.exit_rate(0) == pytest.approx(3.0)

    def test_self_loops_dropped(self):
        chain = CTMC(2, [(0, 1.0, 0), (0, 1.0, 1)])
        assert chain.num_transitions == 1

    def test_rejects_negative_rate(self):
        with pytest.raises(ModelError):
            CTMC(2, [(0, -1.0, 1)])

    def test_rejects_bad_initial_distribution(self):
        with pytest.raises(ModelError):
            CTMC(2, [(0, 1.0, 1)], initial=[0.5, 0.2])

    def test_absorbing_states(self):
        chain = CTMC(3, [(0, 1.0, 1), (1, 1.0, 2)])
        assert chain.absorbing_states() == [2]


class TestSteadyState:
    def test_two_state_machine(self):
        chain = two_state_machine(0.01, 1.0)
        distribution = steady_state_distribution(chain)
        expected_down = 0.01 / 1.01
        assert distribution[1] == pytest.approx(expected_down, rel=1e-9)
        assert steady_state_availability(chain) == pytest.approx(1 - expected_down, rel=1e-9)

    def test_birth_death_chain(self):
        # M/M/1/3 queue: arrivals 1, service 2 => pi_i ~ (1/2)^i
        rates = []
        for i in range(3):
            rates.append((i, 1.0, i + 1))
            rates.append((i + 1, 2.0, i))
        chain = CTMC(4, rates)
        distribution = steady_state_distribution(chain)
        weights = np.array([0.5**i for i in range(4)])
        expected = weights / weights.sum()
        assert np.allclose(distribution, expected, rtol=1e-9)

    def test_reducible_chain_with_two_bsccs(self):
        # State 0 jumps to absorbing state 1 or 2 with equal rates.
        chain = CTMC(3, [(0, 1.0, 1), (0, 1.0, 2)], initial=0)
        distribution = steady_state_distribution(chain)
        assert distribution[1] == pytest.approx(0.5)
        assert distribution[2] == pytest.approx(0.5)

    def test_bscc_detection(self):
        chain = CTMC(3, [(0, 1.0, 1), (1, 1.0, 0), (0, 1.0, 2)])
        bsccs = bottom_strongly_connected_components(chain)
        assert [2] in bsccs
        assert all([0, 1] != sorted(b) or False for b in bsccs) or True
        # the {0,1} class leaks into 2, so it must not be a BSCC
        assert sorted(map(tuple, bsccs)) == [(2,)]

    def test_large_chain_uses_sparse_path(self):
        # Chain of 2000 states in a ring: uniform stationary distribution.
        size = 2000
        transitions = [(i, 1.0, (i + 1) % size) for i in range(size)]
        chain = CTMC(size, transitions)
        distribution = steady_state_distribution(chain)
        assert distribution[0] == pytest.approx(1.0 / size, rel=1e-6)


@pytest.fixture(scope="module")
def quickstart_chain() -> CTMC:
    from repro import quickstart_model
    from repro.analysis import ArcadeEvaluator

    return ArcadeEvaluator(quickstart_model()).ctmc


class TestTransient:
    def test_two_state_closed_form(self):
        failure, repair = 0.2, 1.0
        chain = two_state_machine(failure, repair)
        total = failure + repair
        for t in (0.1, 1.0, 5.0):
            expected_down = failure / total * (1 - math.exp(-total * t))
            distribution = transient_distribution(chain, t)
            assert distribution[1] == pytest.approx(expected_down, rel=1e-7)

    def test_time_zero_returns_initial(self):
        chain = two_state_machine()
        assert transient_distribution(chain, 0.0)[0] == 1.0

    def test_point_availability(self):
        chain = two_state_machine(0.5, 0.0001)
        assert point_availability(chain, 100.0) < 0.01 + 0.05

    def test_negative_time_rejected(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            transient_distribution(two_state_machine(), -1.0)

    def test_huge_horizon_returns_steady_state(self):
        """At 1e12 h the Poisson window has ~1e13 steps; detection ends it."""
        chain = CTMC(2, [(0, 1.0, 1), (1, 10.0, 0)], 0, {1: frozenset({"down"})})
        started = time.perf_counter()
        availability = point_availability(chain, 1e12)
        assert time.perf_counter() - started < 1.0
        assert availability == pytest.approx(10.0 / 11.0, rel=1e-12)

    def test_interval_unavailability_two_state_closed_form(self):
        failure, repair, horizon = 0.2, 1.0, 5.0
        total = failure + repair
        steady = failure / total
        # Mean of steady * (1 - exp(-total t)) over [0, horizon].
        expected = steady * (1.0 - (1.0 - math.exp(-total * horizon)) / (total * horizon))
        # Trapezoid error bound on a 200-point grid: h^2 / 12 * max |U''|.
        step = horizon / 199
        bound = step**2 / 12 * steady * total**2
        value = interval_unavailability(two_state_machine(failure, repair), horizon)
        assert abs(value - expected) <= bound

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "measure", [reliability, unreliability, point_availability, transient_distribution]
    )
    def test_non_finite_horizon_rejected(self, quickstart_chain, measure, horizon):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="finite time horizon"):
            measure(quickstart_chain, horizon)


class TestPoissonWindow:
    @pytest.mark.parametrize("mean", [0.5, 30.0, 1e3, 5e4, 1e9])
    def test_bounds_are_the_scipy_quantiles(self, mean):
        from scipy import stats

        left, right, weights = poisson_window(mean, 1e-12)
        assert left == int(stats.poisson.ppf(5e-13, mean))
        assert right == max(int(stats.poisson.ppf(1 - 5e-13, mean)), left + 1)
        assert len(weights) == right - left + 1

    @pytest.mark.parametrize("mean", [3e11, 1e13, 1e300])
    def test_bounds_stay_finite_beyond_the_quantile_range(self, mean):
        from repro.ctmc.transient import _poisson_bounds

        left, right = _poisson_bounds(mean, 1e-12)
        assert 0 <= left < right
        assert left <= mean <= right

    def test_tail_bounds_cover_the_window(self):
        """Where both apply, the Chernoff points lie outside the quantiles."""
        from scipy import stats

        mean, log_term = 1e11, math.log(2e12)
        assert math.floor(mean - math.sqrt(2 * log_term * mean)) <= stats.poisson.ppf(5e-13, mean)
        upper = mean + log_term / 3 + math.sqrt(log_term**2 / 9 + 2 * log_term * mean)
        assert math.ceil(upper) >= stats.poisson.ppf(1 - 5e-13, mean)

    @pytest.mark.parametrize(
        "mean,epsilon",
        [(math.nan, 1e-12), (math.inf, 1e-12), (1e20, 1e-12), (10.0, 0.0), (10.0, 1.0), (10.0, math.nan)],
    )
    def test_bad_arguments_raise_a_typed_error(self, mean, epsilon):
        with pytest.raises(AnalysisError):
            poisson_window(mean, epsilon)


class TestAbsorbing:
    def test_unreliability_of_single_component(self):
        chain = two_state_machine(0.1, 5.0)
        # With "down" made absorbing, unreliability is 1 - exp(-0.1 t).
        for t in (1.0, 10.0):
            assert unreliability(chain, t) == pytest.approx(1 - math.exp(-0.1 * t), rel=1e-7)
            assert reliability(chain, t) == pytest.approx(math.exp(-0.1 * t), rel=1e-7)

    def test_mttf_single_component(self):
        chain = two_state_machine(0.1, 5.0)
        assert mean_time_to_failure(chain) == pytest.approx(10.0, rel=1e-9)

    def test_mttf_infinite_when_unreachable(self):
        chain = CTMC(2, [(0, 1.0, 1), (1, 1.0, 0)], labels={})
        assert mean_time_to_failure(chain) == math.inf

    def test_make_absorbing_removes_exits(self):
        chain = two_state_machine()
        absorbing = make_absorbing(chain, [1])
        assert absorbing.exit_rate(1) == 0.0

    def test_two_component_series_mttf(self):
        # Two independent exponential failures in series: MTTF = 1/(l1+l2).
        chain = CTMC(
            2,
            [(0, 0.3, 1), (0, 0.2, 1)],
            labels={1: frozenset({"down"})},
        )
        assert mean_time_to_failure(chain) == pytest.approx(2.0, rel=1e-9)


class TestLumping:
    def test_symmetric_states_merge(self):
        # Two parallel identical components with dedicated repair: the states
        # "only A down" and "only B down" are lumpable.
        rate, repair = 0.1, 1.0
        transitions = [
            (0, rate, 1),
            (0, rate, 2),
            (1, repair, 0),
            (2, repair, 0),
            (1, rate, 3),
            (2, rate, 3),
            (3, repair, 1),
            (3, repair, 2),
        ]
        chain = CTMC(4, transitions, labels={3: frozenset({"down"})})
        result = lump(chain)
        assert result.quotient.num_states == 3
        assert steady_state_availability(result.quotient) == pytest.approx(
            steady_state_availability(chain), rel=1e-9
        )

    def test_labels_respected(self):
        chain = CTMC(
            2,
            [(0, 1.0, 1), (1, 1.0, 0)],
            labels={1: frozenset({"down"})},
        )
        result = lump(chain)
        assert result.quotient.num_states == 2


class TestCSL:
    def test_steady_state_operator(self):
        chain = two_state_machine(0.01, 1.0)
        checker = CSLChecker(chain)
        formula = SteadyState("<", 0.02, Atomic("down"))
        assert checker.holds_initially(formula)

    def test_bounded_eventually(self):
        chain = two_state_machine(0.1, 5.0)
        checker = CSLChecker(chain)
        probabilities = checker.until_probabilities(Not(Atomic("down")), Atomic("down"), 10.0)
        assert probabilities[0] == pytest.approx(1 - math.exp(-1.0), rel=1e-6)

    def test_probabilistic_until_satisfaction_set(self):
        chain = two_state_machine(0.1, 5.0)
        checker = CSLChecker(chain)
        formula = eventually(">=", 0.99, Atomic("down"), time=None)
        assert 0 in checker.satisfaction_set(formula)


@settings(max_examples=25, deadline=None)
@given(
    failure=st.floats(min_value=1e-4, max_value=2.0),
    repair=st.floats(min_value=0.1, max_value=10.0),
    t=st.floats(min_value=0.01, max_value=50.0),
)
def test_transient_matches_closed_form_property(failure, repair, t):
    """Uniformisation agrees with the closed-form 2-state solution everywhere."""
    chain = two_state_machine(failure, repair)
    total = failure + repair
    expected_down = failure / total * (1 - math.exp(-total * t))
    assert transient_distribution(chain, t)[1] == pytest.approx(expected_down, rel=1e-6, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=0.01, max_value=5.0),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_steady_state_is_probability_vector(data):
    """For any generated chain the long-run distribution is a valid distribution."""
    transitions = [(s, r, t) for s, r, t in data if s != t]
    chain = CTMC(6, transitions)
    distribution = steady_state_distribution(chain)
    assert abs(distribution.sum() - 1.0) < 1e-8
    assert (distribution >= -1e-12).all()


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=0.01, max_value=5.0),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=0,
        max_size=30,
    )
)
def test_from_arrays_matches_loop_constructor(data):
    """CTMC.from_arrays is bit-identical to the triple-loop constructor.

    Same pair interning order (first occurrence), same rate accumulation
    order (edge order), same self-loop dropping — pinned because
    extract_ctmc now builds every chain through the array path.
    """
    loop_built = CTMC(6, list(data), labels={1: frozenset({"down"})})
    array_built = CTMC.from_arrays(
        6,
        np.array([s for s, _, _ in data], dtype=np.int64),
        np.array([r for _, r, _ in data], dtype=np.float64),
        np.array([t for _, _, t in data], dtype=np.int64),
        labels={1: frozenset({"down"})},
    )
    assert list(array_built._rates.items()) == list(loop_built._rates.items())
    assert array_built.labels == loop_built.labels
    assert (array_built.initial_distribution == loop_built.initial_distribution).all()
