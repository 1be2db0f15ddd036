"""Tests for the phase-type distribution substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Erlang, Exponential, HyperExponential, PhaseType
from repro.errors import ModelError


class TestExponential:
    def test_mean(self):
        assert Exponential(0.5).mean() == pytest.approx(2.0)

    def test_variance(self):
        assert Exponential(0.5).variance() == pytest.approx(4.0)

    def test_cdf_matches_closed_form(self):
        distribution = Exponential(0.25)
        for t in (0.1, 1.0, 5.0, 20.0):
            assert distribution.cdf(t) == pytest.approx(1 - math.exp(-0.25 * t), rel=1e-9)

    def test_cdf_at_zero(self):
        assert Exponential(1.0).cdf(0.0) == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ModelError):
            Exponential(0.0)
        with pytest.raises(ModelError):
            Exponential(-1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ModelError):
            Exponential(rate)

    def test_single_phase(self):
        assert Exponential(3.0).num_phases == 1


class TestErlang:
    def test_mean(self):
        assert Erlang(3, 0.5).mean() == pytest.approx(6.0)

    def test_variance(self):
        assert Erlang(3, 0.5).variance() == pytest.approx(12.0)

    def test_one_stage_is_exponential(self):
        erlang = Erlang(1, 2.0)
        exponential = Exponential(2.0)
        for t in (0.1, 0.7, 3.0):
            assert erlang.cdf(t) == pytest.approx(exponential.cdf(t), rel=1e-9)

    def test_cdf_matches_closed_form(self):
        # Erlang-2 CDF: 1 - e^{-lt}(1 + lt)
        rate = 0.3
        distribution = Erlang(2, rate)
        for t in (0.5, 2.0, 10.0):
            expected = 1 - math.exp(-rate * t) * (1 + rate * t)
            assert distribution.cdf(t) == pytest.approx(expected, rel=1e-9)

    def test_rejects_zero_stages(self):
        with pytest.raises(ModelError):
            Erlang(0, 1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ModelError):
            Erlang(2, rate)

    def test_phase_count(self):
        assert Erlang(4, 1.0).num_phases == 4


class TestHyperExponential:
    def test_mean(self):
        distribution = HyperExponential([0.25, 0.75], [1.0, 2.0])
        assert distribution.mean() == pytest.approx(0.25 * 1.0 + 0.75 * 0.5)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ModelError):
            HyperExponential([0.3, 0.3], [1.0, 2.0])

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ModelError):
            HyperExponential([0.5, 0.5], [1.0, rate])

    def test_rejects_nan_probability(self):
        with pytest.raises(ModelError):
            HyperExponential([math.nan, 0.5], [1.0, 2.0])

    def test_cdf_is_mixture(self):
        distribution = HyperExponential([0.5, 0.5], [1.0, 3.0])
        for t in (0.2, 1.0, 4.0):
            expected = 0.5 * (1 - math.exp(-t)) + 0.5 * (1 - math.exp(-3 * t))
            assert distribution.cdf(t) == pytest.approx(expected, rel=1e-9)


class TestPhaseTypeValidation:
    def test_requires_completion(self):
        with pytest.raises(ModelError):
            PhaseType((1.0,), (), ())

    def test_rejects_phase_self_loop(self):
        with pytest.raises(ModelError):
            PhaseType((1.0, 0.0), ((0, 1.0, 0),), ((1, 1.0),))

    def test_rejects_bad_initial(self):
        with pytest.raises(ModelError):
            PhaseType((0.5, 0.4), (), ((0, 1.0),))

    def test_scaled_mean(self):
        base = Erlang(2, 1.0)
        assert base.scaled(2.0).mean() == pytest.approx(base.mean() / 2.0)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ModelError):
            Exponential(1.0).scaled(0.0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_scaled_rejects_non_finite(self, factor):
        with pytest.raises(ModelError):
            Exponential(1.0).scaled(factor)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rejects_non_finite_transition_and_completion_rates(self, rate):
        with pytest.raises(ModelError):
            PhaseType((1.0, 0.0), ((0, rate, 1),), ((1, 1.0),))
        with pytest.raises(ModelError):
            PhaseType((1.0,), (), ((0, rate),))


class TestSampling:
    def test_sample_mean_close_to_analytic(self):
        rng = np.random.default_rng(7)
        distribution = Erlang(2, 0.5)
        samples = [distribution.sample(rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(distribution.mean(), rel=0.1)

    def test_hyperexponential_sampling(self):
        rng = np.random.default_rng(11)
        distribution = HyperExponential([0.5, 0.5], [1.0, 10.0])
        samples = [distribution.sample(rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(distribution.mean(), rel=0.15)


@settings(max_examples=40, deadline=None)
@given(stages=st.integers(min_value=1, max_value=6), rate=st.floats(min_value=0.01, max_value=50.0))
def test_erlang_moment_properties(stages, rate):
    """Erlang mean and variance follow k/lambda and k/lambda^2 for any parameters."""
    distribution = Erlang(stages, rate)
    assert distribution.mean() == pytest.approx(stages / rate, rel=1e-6)
    assert distribution.variance() == pytest.approx(stages / rate**2, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(rate=st.floats(min_value=0.01, max_value=20.0), t=st.floats(min_value=0.0, max_value=100.0))
def test_cdf_bounded_and_monotone(rate, t):
    """CDF values lie in [0, 1] and are monotone in time."""
    distribution = Exponential(rate)
    value = distribution.cdf(t)
    later = distribution.cdf(t + 1.0)
    assert 0.0 <= value <= 1.0
    assert later >= value - 1e-12
