"""Scalar reference for branching-bisimulation refinement.

The executable specification of the vectorised engine in
:mod:`repro.lumping.branching`; ``tests/test_branching.py`` compares the two
partitions block for block.
"""

from __future__ import annotations

from repro.ioimc import IOIMC
from repro.lumping.partition import Partition


def branching_partition_reference(
    automaton: IOIMC, *, respect_labels: bool = True
) -> Partition:
    """Naive round-based branching-bisimulation refinement.

    The executable specification of the vectorised engine: every round
    recomputes every state's inert closure with a DFS restricted to the
    state's current block and regroups the whole state space by frozenset
    signatures, using the same 9-significant-digit rate quantisation.
    Quadratic, but obviously correct; ``tests/test_branching.py`` checks the
    two engines agree block-for-block (including numbering) on random
    tau-heavy automata.
    """
    index = automaton.index()
    interactive = index.interactive_ids()
    internal_successors = index.internal_successors
    is_visible = index.is_visible
    stable = index.stable
    markovian = automaton.markovian

    if respect_labels:
        keys = [automaton.label_of(state) for state in automaton.states()]
    else:
        keys = [frozenset()] * automaton.num_states
    partition = Partition.from_keys(keys)

    def signature(state: int):
        block_of = partition.block_of
        home = block_of[state]
        members = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for successor in internal_successors[current]:
                if block_of[successor] == home and successor not in members:
                    members.add(successor)
                    stack.append(successor)
        elements: set = set()
        for member in members:
            for action_id, target in interactive[member]:
                if is_visible[action_id]:
                    elements.add((action_id, block_of[target]))
                elif block_of[target] != home:
                    elements.add(("tau", block_of[target]))
            if stable[member]:
                rates: dict[int, float] = {}
                for rate, target in markovian[member]:
                    landing = block_of[target]
                    rates[landing] = rates.get(landing, 0.0) + rate
                elements.add(
                    (
                        "rates",
                        tuple(
                            sorted(
                                (landing, float(f"{rate:.9e}"))
                                for landing, rate in rates.items()
                            )
                        ),
                    )
                )
        return frozenset(elements)

    while partition.refine(signature):
        pass
    return partition
