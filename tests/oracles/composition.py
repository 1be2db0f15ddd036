"""Scalar reference product of two I/O-IMCs.

The executable specification of the batched frontier expansion in
:mod:`repro.ioimc.composition`; ``tests/test_compose_equivalence.py``
compares the two state for state.
"""

from __future__ import annotations

from repro.ioimc import IOIMC


def product_tables_pairwise(
    left: IOIMC, right: IOIMC
) -> tuple[list[int], list[list[tuple[str, int]]], list[list[tuple[float, int]]]]:
    """Scalar pair-by-pair product (reference for the batched engine).

    The original depth-first frontier loop, kept as the executable
    specification: ``tests/test_compose_equivalence.py`` asserts that the
    batched engine produces an identical product up to the (canonical) pair
    bijection between their state numberings.
    """
    shared = left.signature.visible & right.signature.visible
    left_buckets = _action_buckets(left)
    right_buckets = _action_buckets(right)
    left_markovian = left.markovian
    right_markovian = right.markovian

    width = right.num_states
    index: dict[int, int] = {}
    pairs: list[int] = []
    interactive: list[list[tuple[str, int]]] = []
    markovian: list[list[tuple[float, int]]] = []

    def discover(pair: int) -> int:
        state = len(pairs)
        index[pair] = state
        pairs.append(pair)
        interactive.append([])
        markovian.append([])
        return state

    index_get = index.get

    initial = discover(left.initial * width + right.initial)
    frontier = [initial]
    while frontier:
        state = frontier.pop()
        left_state, right_state = divmod(pairs[state], width)
        before = len(pairs)
        out_interactive: list[tuple[str, int]] = []
        out_markovian: list[tuple[float, int]] = []

        left_by_action = left_buckets[left_state]
        right_by_action = right_buckets[right_state]
        left_base = left_state * width

        for action, left_targets in left_by_action.items():
            if action in shared:
                for left_target in left_targets:
                    target_base = left_target * width
                    for right_target in right_by_action.get(action, ()):
                        code = target_base + right_target
                        successor = index_get(code)
                        if successor is None:
                            successor = discover(code)
                        out_interactive.append((action, successor))
            else:
                for left_target in left_targets:
                    code = left_target * width + right_state
                    successor = index_get(code)
                    if successor is None:
                        successor = discover(code)
                    out_interactive.append((action, successor))
        for action, right_targets in right_by_action.items():
            if action in shared:
                continue  # handled above (synchronised) or controlled by the left
            for right_target in right_targets:
                code = left_base + right_target
                successor = index_get(code)
                if successor is None:
                    successor = discover(code)
                out_interactive.append((action, successor))

        for rate, target in left_markovian[left_state]:
            code = target * width + right_state
            successor = index_get(code)
            if successor is None:
                successor = discover(code)
            out_markovian.append((rate, successor))
        for rate, target in right_markovian[right_state]:
            code = left_base + target
            successor = index_get(code)
            if successor is None:
                successor = discover(code)
            out_markovian.append((rate, successor))

        interactive[state] = _dedupe(out_interactive)
        markovian[state] = out_markovian
        frontier.extend(range(before, len(pairs)))

    return pairs, interactive, markovian


def _action_buckets(automaton: IOIMC) -> list[dict[str, list[int]]]:
    """Per state: targets grouped by action, in transition order."""
    buckets: list[dict[str, list[int]]] = []
    for row in automaton.interactive:
        by_action: dict[str, list[int]] = {}
        for action, target in row:
            by_action.setdefault(action, []).append(target)
        buckets.append(by_action)
    return buckets


def _dedupe(transitions: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """Remove duplicate interactive transitions while preserving order."""
    return list(dict.fromkeys(transitions))
