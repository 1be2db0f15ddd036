"""Strong bisimulation minimisation for I/O-IMCs.

Two states are strongly bisimilar when they carry the same atomic
propositions, enable exactly the same interactive transitions into the same
equivalence classes, and have the same cumulative Markovian rate into every
equivalence class.  Strong bisimilarity is finer than the weak/branching
notions used by CADP, so quotienting by it is always sound: every measure
defined on the I/O-IMC (and on the CTMC eventually extracted from it) is
preserved.

The implementation runs on the vectorised worklist engine of
:mod:`repro.lumping.refinement` over the flat CSR adjacency of
:class:`~repro.ioimc.indexed.TransitionIndex`: a strong interactive move is
encoded as the ``int64`` key ``action_id * num_blocks + block_of[target]``,
Markovian behaviour as a ``(target block, quantised cumulative rate)`` key,
and the states of the re-examined blocks are grouped by their key sets with
``np.unique``-based grouping instead of per-state Python tuples.  After a
block splits only the blocks containing predecessors of its states are
re-examined.  This replaces the seed's per-round full recomputation and runs
in near-linear time in the size of the transition system; the computed
partition (including block numbering) is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ioimc import IOIMC
from ..nputil import gather_row_indices, round_rates_to_ids
from ..telemetry.trace import span as telemetry_span
from .partition import Partition
from .refinement import refine_partition_vectorized


@dataclass(frozen=True)
class LumpingResult:
    """Outcome of a minimisation: the quotient and the state mapping."""

    quotient: IOIMC
    block_of_state: tuple[int, ...]

    @property
    def reduction_factor(self) -> float:
        """How many original states one quotient state represents on average."""
        if self.quotient.num_states == 0:
            return 1.0
        return len(self.block_of_state) / self.quotient.num_states

    @property
    def num_blocks(self) -> int:
        """Number of states of the quotient."""
        return self.quotient.num_states


def strong_bisimulation_partition(
    automaton: IOIMC, *, respect_labels: bool = True
) -> Partition:
    """Compute the coarsest strong-bisimulation partition of ``automaton``.

    States start grouped by their atomic propositions (unless
    ``respect_labels`` is ``False``) and are refined until every block agrees
    on enabled interactive moves per target block and on cumulative Markovian
    rates per target block (quantised to 10 significant digits, see
    :func:`repro.nputil.round_rates_to_ids`).
    """
    index = automaton.index()
    if respect_labels:
        initial_keys = [automaton.label_of(state) for state in automaton.states()]
    else:
        initial_keys = [frozenset()] * automaton.num_states

    interactive = index.interactive_csr
    markovian = index.markovian_csr
    num_actions = len(index.actions)

    def signature_edges(
        block: np.ndarray, num_blocks: int, states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # Interactive moves: one code per (action, target block) pair.
        picked = gather_row_indices(interactive.indptr, states)
        move_src = interactive.source[picked].astype(np.int64)
        move_code = (
            interactive.action[picked].astype(np.int64) * num_blocks
            + block[interactive.target[picked]]
        )
        picked = gather_row_indices(markovian.indptr, states)
        if not len(picked):
            return move_src, move_code
        # Markovian behaviour: cumulative rate per (state, target block),
        # summed in transition order (bit-identical to the dict-based
        # accumulation), quantised, and encoded as one code per pair.
        pair = markovian.source[picked].astype(np.int64) * num_blocks + block[
            markovian.target[picked]
        ]
        unique_pairs, pair_index = np.unique(pair, return_inverse=True)
        sums = np.bincount(pair_index, weights=markovian.rate[picked])
        rate_ids, distinct = round_rates_to_ids(sums)
        rate_code = (
            num_actions * num_blocks  # disjoint from the interactive code range
            + (unique_pairs % num_blocks) * max(distinct, 1)
            + rate_ids
        )
        return (
            np.concatenate([move_src, unique_pairs // num_blocks]),
            np.concatenate([move_code, rate_code]),
        )

    return refine_partition_vectorized(
        automaton.num_states, initial_keys, signature_edges, index.predecessor_csr()
    )


def quotient_by_partition(automaton: IOIMC, partition: Partition) -> IOIMC:
    """Build the quotient I/O-IMC for a (bisimulation) partition."""
    mapping = {state: partition.block_of[state] for state in automaton.states()}
    return automaton.relabel_states(mapping, partition.num_blocks)


def minimize_strong(automaton: IOIMC, *, respect_labels: bool = True) -> LumpingResult:
    """Minimise ``automaton`` modulo strong bisimulation."""
    with telemetry_span("reduce.strong", states=automaton.num_states) as reduce_span:
        partition = strong_bisimulation_partition(
            automaton, respect_labels=respect_labels
        )
        quotient = quotient_by_partition(automaton, partition)
        reduce_span.set(blocks=partition.num_blocks)
        return LumpingResult(quotient=quotient, block_of_state=tuple(partition.block_of))


__all__ = [
    "LumpingResult",
    "minimize_strong",
    "quotient_by_partition",
    "strong_bisimulation_partition",
]
