"""Scalar reference for the tau-abstracting quotient.

The executable specification of the array-based
:func:`repro.lumping.closure.quotient_modulo_inert_tau`;
``tests/test_quotient.py`` compares the two structurally (rows, labels,
names, initial state).
"""

from __future__ import annotations

from repro.ioimc import IOIMC


def quotient_modulo_inert_tau_reference(automaton: IOIMC, partition) -> IOIMC:
    """State-by-state quotient for a weak or branching partition.

    Walks the states in order: the interactive moves of a class are the
    union of its members' moves, minus internal moves that stay inside the
    class (inert), each ``(action, target class)`` kept at its first
    occurrence.  The representative of a class — whose name, labels and
    Markovian rates describe it — is its first stable member, else its
    first member; its rates are summed per target class, in transition
    order, and listed by ascending target class.
    """
    block_of = partition.block_of
    num_blocks = partition.num_blocks
    stable = automaton.index().stable
    internals = automaton.signature.internals
    interactive_rows = automaton.interactive
    markovian_rows = automaton.markovian

    representative: list[int | None] = [None] * num_blocks
    interactive: list[list[tuple[str, int]]] = [[] for _ in range(num_blocks)]
    seen: list[set[tuple[str, int]]] = [set() for _ in range(num_blocks)]
    for state in automaton.states():
        block = block_of[state]
        current = representative[block]
        if current is None or (stable[state] and not stable[current]):
            representative[block] = state
        for action, target in interactive_rows[state]:
            target_block = block_of[target]
            if target_block == block and action in internals:
                continue  # inert: internal move inside the class
            entry = (action, target_block)
            if entry not in seen[block]:
                seen[block].add(entry)
                interactive[block].append(entry)

    markovian: list[list[tuple[float, int]]] = [[] for _ in range(num_blocks)]
    labels: dict[int, frozenset[str]] = {}
    names: list[str] = []
    for block, state in enumerate(representative):
        assert state is not None
        names.append(automaton.state_name(state))
        props = automaton.label_of(state)
        if props:
            labels[block] = props
        rates: dict[int, float] = {}
        for rate, target in markovian_rows[state]:
            rates[block_of[target]] = rates.get(block_of[target], 0.0) + rate
        markovian[block] = [(rate, target) for target, rate in sorted(rates.items())]

    quotient = IOIMC(
        automaton.name,
        automaton.signature,
        num_blocks,
        block_of[automaton.initial],
        interactive,
        markovian,
        labels,
        names,
    )
    return quotient.restrict_to_reachable()
