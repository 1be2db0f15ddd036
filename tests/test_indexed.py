"""Tests for the interned-action transition index (repro.ioimc.indexed)."""

import pytest

from repro.ioimc import ActionKind, IOIMCBuilder, Signature, TransitionIndex
from repro.lumping import maximal_progress_cut


@pytest.fixture()
def automaton():
    builder = IOIMCBuilder(
        "idx",
        Signature.create(inputs={"go"}, outputs={"done"}, internals={"tau"}),
    )
    builder.state("a", initial=True)
    builder.interactive("a", "tau", "b")
    builder.interactive("a", "go", "a")
    builder.interactive("b", "done", "c")
    builder.markovian("c", 2.0, "a")
    builder.interactive("c", "go", "c")
    return builder.build()


class TestTransitionIndex:
    def test_action_interning_is_deterministic(self, automaton):
        index = automaton.index()
        assert index.actions == sorted(automaton.signature.all_actions)
        for action, action_id in index.id_of.items():
            assert index.actions[action_id] == action
            assert index.kinds[action_id] is automaton.signature.kind_of(action)

    def test_index_is_cached_on_the_automaton(self, automaton):
        assert automaton.index() is automaton.index()

    def test_stability_bits_match_is_stable(self, automaton):
        index = automaton.index()
        for state in automaton.states():
            assert index.stable[state] == automaton.is_stable(state)

    def test_internal_successors(self, automaton):
        index = automaton.index()
        by_name = {automaton.state_name(s): s for s in automaton.states()}
        assert index.internal_successors[by_name["a"]] == [by_name["b"]]
        assert index.internal_successors[by_name["b"]] == []

    def test_interactive_ids_align_with_transition_order(self, automaton):
        index = automaton.index()
        for state in automaton.states():
            row = automaton.interactive[state]
            id_row = index.interactive_ids()[state]
            assert len(row) == len(id_row)
            for (action, target), (action_id, id_target) in zip(row, id_row):
                assert index.actions[action_id] == action
                assert id_target == target

    def test_predecessors_cover_both_transition_kinds(self, automaton):
        index = automaton.index()
        by_name = {automaton.state_name(s): s for s in automaton.states()}
        indptr, sources = index.predecessor_csr()

        def predecessors(name):
            state = by_name[name]
            return sources[indptr[state] : indptr[state + 1]].tolist()

        # a is reached by c's Markovian transition and its own input self-loop.
        assert by_name["c"] in predecessors("a")
        assert by_name["a"] in predecessors("a")
        # b is reached from a (plus its own materialised input self-loop).
        assert predecessors("b") == sorted({by_name["a"], by_name["b"]})

    def test_tau_closure(self, automaton):
        index = automaton.index()
        by_name = {automaton.state_name(s): s for s in automaton.states()}
        closure = index.tau_closure()
        assert closure[by_name["a"]] == sorted({by_name["a"], by_name["b"]})
        assert closure[by_name["c"]] == [by_name["c"]]

    def test_cut_shares_interactive_csr(self):
        builder = IOIMCBuilder("cut", Signature.create(outputs={"done"}))
        builder.state("a", initial=True)
        builder.interactive("a", "done", "b")
        builder.markovian("a", 1.0, "b")  # a is unstable: this rate is cut
        builder.markovian("b", 2.0, "a")
        automaton = builder.build()
        index = automaton.index()
        cut = maximal_progress_cut(automaton)
        # The cut only filters Markovian edges: it shares the interactive
        # CSR and the interning tables, and stability is unchanged.
        assert cut.num_markovian_transitions() == 1
        assert cut.index().interactive_csr is index.interactive_csr
        assert cut.index().id_of is index.id_of
        assert cut.index().stable == index.stable

    def test_visibility_flags(self, automaton):
        index = automaton.index()
        tau = index.id_of["tau"]
        go = index.id_of["go"]
        done = index.id_of["done"]
        assert index.is_internal[tau] and not index.is_visible[tau]
        assert index.is_input[go] and index.is_visible[go]
        assert not index.is_input[done] and index.is_visible[done]
        assert index.kinds[done] is ActionKind.OUTPUT

    def test_summary_matches_automaton(self, automaton):
        assert automaton.index().summary() == automaton.summary()
