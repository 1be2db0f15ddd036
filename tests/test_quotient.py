"""The array-based tau-abstracting quotient against its scalar reference.

:func:`repro.lumping.closure.quotient_modulo_inert_tau` builds the quotient
of a weak or branching partition from the edge arrays in one pass; the
state-by-state loop it replaced is kept as
:func:`oracles.quotient.quotient_modulo_inert_tau_reference`.  The two must
agree structurally — row views in order, labels, names and initial state —
so the quotient's state numbering and edge order, which the quotient cache
and the goldens depend on, are pinned.
"""

import pytest

from oracles.quotient import quotient_modulo_inert_tau_reference
from test_branching import _random_tau_automaton, classic_weak_vs_branching

import repro.lumping.branching
import repro.lumping.weak
from repro.arcade.semantics import translate_model
from repro.casestudies.dds import build_dds_subsystem_models
from repro.composer import compose_model
from repro.errors import LumpingError
from repro.lumping import branching_bisimulation_partition, weak_bisimulation_partition
from repro.lumping.closure import quotient_modulo_inert_tau

PARTITIONS = {
    "weak": weak_bisimulation_partition,
    "branching": branching_bisimulation_partition,
}


def assert_same_structure(actual, expected):
    assert actual.num_states == expected.num_states
    assert actual.initial == expected.initial
    assert actual.interactive == expected.interactive
    assert actual.markovian == expected.markovian
    assert actual.labels == expected.labels
    assert actual.state_names == expected.state_names
    assert actual.signature == expected.signature


def checked_quotient(automaton, partition):
    """The library quotient, asserted equal to the reference on the way."""
    quotient = quotient_modulo_inert_tau(automaton, partition)
    assert_same_structure(
        quotient, quotient_modulo_inert_tau_reference(automaton, partition)
    )
    return quotient


@pytest.mark.parametrize("mode", sorted(PARTITIONS))
def test_matches_reference_on_random_tau_graphs(mode):
    compared = 0
    for seed in range(40):
        automaton = _random_tau_automaton(seed)
        try:
            partition = PARTITIONS[mode](automaton)
        except LumpingError:
            continue  # tau-nondeterministic rate attribution (weak only)
        checked_quotient(automaton, partition)
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("mode", sorted(PARTITIONS))
def test_matches_reference_on_hand_example(mode):
    automaton = classic_weak_vs_branching()
    checked_quotient(automaton, PARTITIONS[mode](automaton))


@pytest.mark.parametrize("mode", sorted(PARTITIONS))
def test_matches_reference_on_every_dds_cluster_step(mode, monkeypatch):
    """Every quotient the composer builds for a DDS disk cluster."""
    calls = []

    def recording_quotient(automaton, partition):
        calls.append(automaton.num_states)
        return checked_quotient(automaton, partition)

    module = {"weak": repro.lumping.weak, "branching": repro.lumping.branching}[mode]
    monkeypatch.setattr(module, "quotient_modulo_inert_tau", recording_quotient)
    subsystems, _ = build_dds_subsystem_models()
    compose_model(translate_model(subsystems["cluster_1"]), reduction=mode)
    assert len(calls) >= 5
