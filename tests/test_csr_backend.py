"""Property tests: the CSR tables round-trip with the row views.

An I/O-IMC stores its transitions only as the flat CSR arrays of its
:class:`repro.ioimc.TransitionIndex`; the validating constructor converts
per-state rows into them once, and ``interactive``/``markovian`` are
read-only row views rebuilt from them.  These tests pin the equivalence on
the differential-suite model generator:

* the views describe exactly the CSR edges, in transition order, with
  deterministic action interning;
* rows -> CSR -> rows -> CSR is the identity, for automata built from rows
  (building blocks) and for automata built from arrays (products,
  quotients) alike, and the views pass full validation;
* pickling ships the CSR tables and restores an equal automaton.
"""

import pickle

import numpy as np
import pytest

from differential.generators import random_arcade_model

from repro.arcade.semantics import translate_model
from repro.ioimc import IOIMC, ActionKind, compose, hide
from repro.lumping import eliminate_vanishing_chains, maximal_progress_cut, minimize_strong

SEEDS = range(8)


def blocks_of(seed):
    return list(translate_model(random_arcade_model(seed)).blocks.values())


def rows_from_csr(automaton):
    """Reconstruct (interactive, markovian) list-of-rows from the CSR arrays."""
    index = automaton.index()
    icsr = index.interactive_csr
    mcsr = index.markovian_csr
    interactive = [[] for _ in automaton.states()]
    for source, action, target in zip(
        icsr.source.tolist(), icsr.action.tolist(), icsr.target.tolist()
    ):
        interactive[source].append((index.actions[action], target))
    markovian = [[] for _ in automaton.states()]
    for source, rate, target in zip(
        mcsr.source.tolist(), mcsr.rate.tolist(), mcsr.target.tolist()
    ):
        markovian[source].append((rate, target))
    return interactive, markovian


def rebuilt(automaton):
    """The automaton rebuilt by the validating constructor from its views."""
    return IOIMC(
        automaton.name,
        automaton.signature,
        automaton.num_states,
        automaton.initial,
        automaton.interactive,
        automaton.markovian,
        automaton.labels,
        automaton.state_names,
    )


def assert_same_tables(left, right):
    for name in ("indptr", "source", "action", "target"):
        a = getattr(left.index().interactive_csr, name)
        b = getattr(right.index().interactive_csr, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("indptr", "source", "rate", "target"):
        a = getattr(left.index().markovian_csr, name)
        b = getattr(right.index().markovian_csr, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_csr_matches_rows(automaton):
    index = automaton.index()
    interactive, markovian = rows_from_csr(automaton)
    assert interactive == [list(row) for row in automaton.interactive]
    assert markovian == [list(row) for row in automaton.markovian]
    # Row offsets are consistent with the per-edge source column.
    icsr = index.interactive_csr
    for state in automaton.states():
        span = icsr.source[icsr.indptr[state] : icsr.indptr[state + 1]]
        assert (span == state).all()
    # Interning is deterministic: sorted action names, ids by position.
    assert index.actions == sorted(automaton.signature.all_actions)
    assert all(index.actions[aid] == act for act, aid in index.id_of.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_building_block_round_trip(seed):
    """Automata built from rows: rows -> CSR -> rows -> CSR is the identity."""
    for block in blocks_of(seed):
        assert_csr_matches_rows(block)
        assert_same_tables(rebuilt(block), block)


@pytest.mark.parametrize("seed", SEEDS)
def test_product_round_trip_and_validation(seed):
    """Products built from arrays have views that rebuild the same tables."""
    blocks = blocks_of(seed)
    composite = compose(blocks[0], blocks[1])
    assert_csr_matches_rows(composite)
    # The views pass the full (validating) constructor.
    assert_same_tables(rebuilt(composite), composite)


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_stages_round_trip(seed):
    """Hide/cut/vanishing/quotient outputs agree with their CSR tables."""
    blocks = blocks_of(seed)
    composite = compose(blocks[0], blocks[1])
    hidden = hide(composite, composite.signature.outputs)
    cut = maximal_progress_cut(hidden)
    reduced = eliminate_vanishing_chains(cut)
    quotient = minimize_strong(reduced.restrict_to_reachable()).quotient
    for automaton in (hidden, cut, reduced, quotient):
        assert_csr_matches_rows(automaton)
        assert_same_tables(rebuilt(automaton), automaton)


@pytest.mark.parametrize("seed", SEEDS)
def test_stability_and_predecessors_match_scalar_queries(seed):
    for block in blocks_of(seed):
        index = block.index()
        interactive, markovian = block.interactive, block.markovian
        for state in block.states():
            urgent = any(
                block.kind_of(action) is not ActionKind.INPUT
                for action, _ in interactive[state]
            )
            assert index.stable[state] == (not urgent)
        indptr, sources = index.predecessor_csr()
        for state in block.states():
            span = sources[indptr[state] : indptr[state + 1]].tolist()
            expected = sorted(
                {
                    source
                    for source in block.states()
                    if any(t == state for _, t in interactive[source])
                    or any(t == state for _, t in markovian[source])
                }
            )
            assert span == expected


def test_summary_counts_match_csr_tables():
    blocks = blocks_of(0)
    composite = compose(blocks[0], blocks[1])
    summary = composite.summary()
    index = composite.index()
    assert summary["interactive_transitions"] == index.interactive_csr.num_edges
    assert summary["markovian_transitions"] == index.markovian_csr.num_edges
    assert summary["interactive_transitions"] == sum(map(len, composite.interactive))
    assert summary["markovian_transitions"] == sum(map(len, composite.markovian))
    assert summary["states"] == composite.num_states


class TestPickleRoundTrip:
    """Pickling ships the CSR tables; the index is rebuilt from them.

    The parallel composer ships automata between processes, so an unpickled
    automaton must carry equal tables and equal derived data.
    """

    @staticmethod
    def assert_round_trip(automaton):
        restored = pickle.loads(pickle.dumps(automaton))
        assert restored.index() is not automaton.index()
        assert_same_tables(restored, automaton)
        assert restored.labels == automaton.labels
        assert restored.state_names == automaton.state_names
        assert restored.index().stable == automaton.index().stable
        assert_csr_matches_rows(restored)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eager_round_trip(self, seed):
        """Automata built by the validating constructor from rows."""
        for block in blocks_of(seed):
            self.assert_round_trip(block)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_product_round_trip(self, seed):
        """Automata built from arrays by a transformation."""
        blocks = blocks_of(seed)
        self.assert_round_trip(compose(blocks[0], blocks[1]))

    def test_payload_stays_single_representation(self):
        """Building row views or predecessors must not grow the pickle.

        An automaton pickles its CSR tables only; the derived structures
        (row views, predecessor CSR, stability) are rebuilt on demand after
        unpickling.
        """
        blocks = blocks_of(0)
        composite = compose(blocks[0], blocks[1])
        baseline = len(pickle.dumps(composite))
        _ = composite.interactive
        composite.index().predecessor_csr()
        composite.index().interactive_ids()
        assert len(pickle.dumps(composite)) == baseline
