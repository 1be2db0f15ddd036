"""Tests for branching-bisimulation minimisation.

Three layers, mirroring how the strong and weak engines are pinned:

* hand-computed minimal examples that separate the three equivalences
  (branching is strictly finer than weak and strictly coarser than strong);
* tau-cycle, divergence and maximal-progress edge cases;
* a differential property test of the vectorised engine against the scalar
  round-based reference (:func:`oracles.branching.branching_partition_reference`)
  on random tau-heavy automata, block-for-block including the canonical
  first-occurrence numbering.
"""

import random

import pytest

from oracles.branching import branching_partition_reference

from repro.ctmc import extract_ctmc, steady_state_availability
from repro.ioimc import IOIMCBuilder, Signature, hide
from repro.lumping import (
    branching_bisimulation_partition,
    maximal_progress_cut,
    minimize_branching,
    minimize_strong,
    minimize_weak,
    weak_bisimulation_partition,
)


def classic_weak_vs_branching():
    """Van Glabbeek's classic: ``b + tau.c + c`` vs ``b + tau.c``.

    State ``r`` offers ``b``, ``c`` and an internal step to ``u`` (which can
    only do ``c``); state ``s`` offers only ``b`` and the internal step.
    The pair is weakly bisimilar (``s``'s weak ``c``-move goes through the
    tau) but *not* branching bisimilar: matching ``r --c-->`` requires ``s``
    to take its tau first, and that tau is not inert (``u`` cannot do ``b``,
    so ``u`` is not equivalent to ``s``).
    """
    builder = IOIMCBuilder(
        "classic", Signature.create(outputs={"b", "c"}, internals={"tau"})
    )
    builder.state("r", initial=True)
    builder.interactive("r", "b", "d1")
    builder.interactive("r", "c", "d2")
    builder.interactive("r", "tau", "u")
    builder.state("s")
    builder.interactive("s", "b", "d1")
    builder.interactive("s", "tau", "u")
    builder.interactive("u", "c", "d2")
    return builder.build()


def by_name(automaton):
    return {automaton.state_name(state): state for state in automaton.states()}


class TestThreeEquivalencesSeparate:
    def test_weak_merges_what_branching_separates(self):
        automaton = classic_weak_vs_branching()
        names = by_name(automaton)
        weak = weak_bisimulation_partition(automaton)
        branching = branching_bisimulation_partition(automaton)
        assert weak.block_of[names["r"]] == weak.block_of[names["s"]]
        assert branching.block_of[names["r"]] != branching.block_of[names["s"]]

    def test_partition_sizes_are_strictly_ordered(self):
        automaton = classic_weak_vs_branching()
        strong = minimize_strong(automaton).quotient.num_states
        branching = branching_bisimulation_partition(automaton).num_blocks
        weak = weak_bisimulation_partition(automaton).num_blocks
        # d1 and d2 are deadlocks: strong merges them, and so do the others;
        # weak additionally merges r with s.
        assert weak < branching <= strong

    def test_branching_merges_inert_tau_predecessor(self):
        """``a --tau--> b`` with ``b --x--> b`` collapses to one state: the
        tau is inert once a and b share a block (strong keeps two states)."""
        builder = IOIMCBuilder(
            "inert", Signature.create(outputs={"x"}, internals={"tau"})
        )
        builder.state("a", initial=True)
        builder.interactive("a", "tau", "b")
        builder.interactive("b", "x", "b")
        automaton = builder.build()
        assert minimize_strong(automaton).quotient.num_states == 2
        assert minimize_branching(automaton).quotient.num_states == 1
        assert minimize_weak(automaton).quotient.num_states == 1

    def test_branching_coarser_than_strong_finer_than_weak_on_random_models(self):
        from repro.errors import LumpingError

        for seed in range(10):
            automaton = _random_tau_automaton(seed)
            strong = minimize_strong(automaton).quotient.num_states
            branching = branching_bisimulation_partition(automaton).num_blocks
            assert branching <= strong, f"seed {seed}"
            try:
                weak = weak_bisimulation_partition(automaton).num_blocks
            except LumpingError:
                # The weak engine rejects tau-nondeterministic rate
                # attribution; branching has no such failure mode.
                continue
            assert weak <= branching, f"seed {seed}"


class TestTauCyclesAndMaximalProgress:
    def test_tau_cycle_states_merge(self):
        """States on an inert tau-cycle are branching bisimilar (the
        divergence-blind notion), and the quotient drops the cycle."""
        builder = IOIMCBuilder(
            "cycle", Signature.create(outputs={"x"}, internals={"tau"})
        )
        builder.state("p", initial=True)
        builder.interactive("p", "tau", "q")
        builder.interactive("q", "tau", "p")
        builder.interactive("q", "x", "r")
        automaton = builder.build()
        partition = branching_bisimulation_partition(automaton)
        names = by_name(automaton)
        assert partition.block_of[names["p"]] == partition.block_of[names["q"]]
        quotient = minimize_branching(automaton).quotient
        assert quotient.num_states == 2
        # The inert cycle is gone: the merged class keeps only the x-move.
        assert all(
            action != "tau" for action, _ in quotient.interactive[quotient.initial]
        )

    def test_divergent_state_not_merged_with_stabilising_state(self):
        """A state on a sink-free tau-cycle can never let time pass; a
        deadlocked stable state can.  The two must not be identified."""
        builder = IOIMCBuilder("diverge", Signature.create(internals={"tau"}))
        builder.state("spin1", initial=True)
        builder.interactive("spin1", "tau", "spin2")
        builder.interactive("spin2", "tau", "spin1")
        builder.state("halt")
        automaton = builder.build()
        partition = branching_bisimulation_partition(automaton)
        names = by_name(automaton)
        assert partition.block_of[names["spin1"]] == partition.block_of[names["spin2"]]
        assert partition.block_of[names["spin1"]] != partition.block_of[names["halt"]]

    def test_markovian_rates_of_unstable_states_are_ignored(self):
        """Maximal progress: an enabled tau makes a state's Markovian
        transitions unfireable, so they must not distinguish it."""
        builder = IOIMCBuilder("mp", Signature.create(internals={"tau"}))
        builder.state("s1", initial=True)
        builder.interactive("s1", "tau", "t")
        builder.markovian("s1", 42.0, "v")
        builder.state("s2")
        builder.interactive("s2", "tau", "t")
        builder.markovian("t", 1.0, "v")
        automaton = builder.build()
        partition = branching_bisimulation_partition(automaton)
        names = by_name(automaton)
        assert partition.block_of[names["s1"]] == partition.block_of[names["s2"]]

    def test_stable_states_with_distinct_rates_are_separated(self):
        builder = IOIMCBuilder("rates", Signature.create())
        builder.state("a", initial=True)
        builder.markovian("a", 1.0, "sink")
        builder.state("b")
        builder.markovian("b", 2.0, "sink")
        automaton = builder.build()
        partition = branching_bisimulation_partition(automaton)
        names = by_name(automaton)
        assert partition.block_of[names["a"]] != partition.block_of[names["b"]]

    def test_rate_attribution_is_to_the_direct_target_class(self):
        """Unlike the weak engine, a Markovian move into a vanishing state is
        *not* redistributed to the tau-sinks: the target's own class receives
        the rate, so the nondeterministic-attribution failure mode of the
        weak engine cannot arise."""
        builder = IOIMCBuilder(
            "nondet", Signature.create(outputs={"x"}, internals={"tau"})
        )
        builder.state("s", initial=True)
        builder.markovian("s", 1.0, "t")
        # t branches internally into two inequivalent states: the weak engine
        # rejects this model (ambiguous sink attribution); branching handles
        # it by attributing the rate to t's own class.
        builder.interactive("t", "tau", "u")
        builder.interactive("t", "tau", "v")
        builder.interactive("u", "x", "u")
        automaton = builder.build()
        result = minimize_branching(automaton)
        quotient = result.quotient
        initial_rates = quotient.markovian[quotient.initial]
        assert len(initial_rates) == 1
        rate, target = initial_rates[0]
        assert rate == pytest.approx(1.0)
        assert target == result.block_of_state[by_name(automaton)["t"]]

    def test_measure_preservation_on_composed_model(self):
        """Minimising before CTMC extraction does not change availability."""
        machine = IOIMCBuilder("m", Signature.create(outputs={"f", "r"}))
        machine.state("up", initial=True)
        machine.markovian("up", 0.05, "pf")
        machine.interactive("pf", "f", "down")
        machine.label("pf", "down")
        machine.label("down", "down")
        machine.markovian("down", 1.0, "pr")
        machine.interactive("pr", "r", "up")
        automaton = maximal_progress_cut(hide(machine.build(), {"f", "r"}))
        direct = extract_ctmc(automaton)
        reduced = extract_ctmc(minimize_branching(automaton).quotient)
        assert steady_state_availability(direct) == pytest.approx(
            steady_state_availability(reduced), rel=1e-12
        )


def _random_tau_automaton(seed: int):
    """A random automaton with a heavy share of internal transitions."""
    rng = random.Random(seed)
    num_states = rng.randint(2, 26)
    builder = IOIMCBuilder(
        f"rand{seed}", Signature.create(outputs={"a", "b"}, internals={"tau"})
    )
    names = [f"n{index}" for index in range(num_states)]
    builder.state(names[0], initial=True)
    for name in names[1:]:
        builder.state(name)
    for source in names:
        for _ in range(rng.randint(0, 3)):
            builder.interactive(
                source, rng.choice(["a", "b", "tau", "tau"]), rng.choice(names)
            )
        if rng.random() < 0.5:
            builder.markovian(
                source, rng.choice([0.5, 1.0, 2.0]), rng.choice(names)
            )
        if rng.random() < 0.25:
            builder.label(source, "down")
    return builder.build()


class TestScalarVsVectorised:
    """The vectorised worklist engine must agree with the round-based scalar
    reference — same blocks, same first-occurrence numbering."""

    def test_matches_reference_on_hand_examples(self):
        for automaton in (classic_weak_vs_branching(),):
            vectorised = branching_bisimulation_partition(automaton)
            reference = branching_partition_reference(automaton)
            assert vectorised.block_of == reference.block_of

    def test_matches_reference_on_random_tau_graphs(self):
        for seed in range(40):
            automaton = _random_tau_automaton(seed)
            vectorised = branching_bisimulation_partition(automaton)
            reference = branching_partition_reference(automaton)
            assert vectorised.block_of == reference.block_of, f"seed {seed}"

    def test_respect_labels_false_ignores_propositions(self):
        builder = IOIMCBuilder("labels", Signature.create())
        builder.state("a", initial=True, labels={"down"})
        builder.state("b")
        builder.markovian("a", 1.0, "b")
        builder.markovian("b", 1.0, "a")
        automaton = builder.build()
        respectful = branching_bisimulation_partition(automaton)
        oblivious = branching_bisimulation_partition(automaton, respect_labels=False)
        assert respectful.num_blocks == 2
        assert oblivious.num_blocks == 1
        reference = branching_partition_reference(automaton, respect_labels=False)
        assert oblivious.block_of == reference.block_of
