"""Differential property tests: batched compose() == pairwise product.

The batched frontier-expansion engine of :mod:`repro.ioimc.composition`
numbers composite states in BFS-level order while the scalar reference
explores depth-first, so the two products are compared *state-for-state
through the pair-code bijection*: every composite state is identified by the
``int64`` code of its component-state pair, which is representation
independent.  Models come from the differential-suite generator
(:mod:`differential.generators`), which exercises shared FCFS repair queues,
spare management and gate synchronisation — i.e. products with non-trivial
shared-action joins.
"""

import pytest

from differential.generators import random_arcade_model
from oracles.composition import product_tables_pairwise

from repro.arcade.semantics import translate_model
from repro.ioimc import compose
from repro.ioimc.composition import _product_tables_batched

SEEDS = range(10)


def block_pairs(seed):
    blocks = list(translate_model(random_arcade_model(seed)).blocks.values())
    pairs = [(blocks[0], blocks[1])]
    if len(blocks) > 2:
        # A deeper stack: compose the first pair, then merge in a third block
        # so the left operand is itself a (lazily materialised) product.
        pairs.append((compose(blocks[0], blocks[1]), blocks[2]))
    return pairs


def tables_from_csr(interactive_csr, markovian_csr, index_actions):
    interactive = {}
    for source, action, target in zip(
        interactive_csr.source.tolist(),
        interactive_csr.action.tolist(),
        interactive_csr.target.tolist(),
    ):
        interactive.setdefault(source, []).append((index_actions[action], target))
    markovian = {}
    for source, rate, target in zip(
        markovian_csr.source.tolist(),
        markovian_csr.rate.tolist(),
        markovian_csr.target.tolist(),
    ):
        markovian.setdefault(source, []).append((rate, target))
    return interactive, markovian


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_product_matches_pairwise_state_for_state(seed):
    for left, right in block_pairs(seed):
        left = left.ensure_input_enabled()
        right = right.ensure_input_enabled()
        action_names = sorted(
            left.signature.all_actions | right.signature.all_actions
        )
        batched_pairs, interactive_csr, markovian_csr = _product_tables_batched(
            left, right
        )
        pairwise_pairs, pairwise_interactive, pairwise_markovian = (
            product_tables_pairwise(left, right)
        )

        # Same reachable set of component-state pairs, same initial pair.
        assert set(batched_pairs) == set(pairwise_pairs)
        assert batched_pairs[0] == pairwise_pairs[0]

        # The bijection between the two state numberings.
        pairwise_id = {pair: state for state, pair in enumerate(pairwise_pairs)}
        to_pairwise = [pairwise_id[pair] for pair in batched_pairs]

        batched_interactive, batched_markovian = tables_from_csr(
            interactive_csr, markovian_csr, action_names
        )
        for state, pair in enumerate(batched_pairs):
            image = to_pairwise[state]
            # Interactive rows: identical transition *sets* (both engines
            # deduplicate; ordering is representation specific).
            batched_moves = {
                (action, to_pairwise[target])
                for action, target in batched_interactive.get(state, [])
            }
            assert batched_moves == set(pairwise_interactive[image]), (
                f"seed {seed}: interactive rows differ on pair {pair}"
            )
            # Markovian rows: identical (rate, target) multisets — duplicates
            # are semantically relevant (parallel rates add) and must survive.
            batched_rates = sorted(
                (rate, to_pairwise[target])
                for rate, target in batched_markovian.get(state, [])
            )
            assert batched_rates == sorted(pairwise_markovian[image]), (
                f"seed {seed}: Markovian rows differ on pair {pair}"
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_public_compose_summary_is_numbering_independent(seed):
    """State/transition counts of compose() match the scalar reference."""
    for left, right in block_pairs(seed):
        composite = compose(left, right)
        enabled_left = left.ensure_input_enabled()
        enabled_right = right.ensure_input_enabled()
        pairs, interactive, markovian = product_tables_pairwise(
            enabled_left, enabled_right
        )
        assert composite.num_states == len(pairs)
        assert composite.num_interactive_transitions() == sum(
            len(row) for row in interactive
        )
        assert composite.num_markovian_transitions() == sum(
            len(row) for row in markovian
        )
