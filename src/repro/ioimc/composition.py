"""Parallel composition of I/O-IMCs.

The parallel composition operator ``||`` (Section 2 of the paper) builds the
joint behaviour of two I/O-IMCs:

1. actions that are not shared between the two signatures (and all Markovian
   transitions) interleave;
2. shared *visible* actions synchronise: both automata take their transition
   simultaneously, and the synchronisation of an output with an input yields
   an output;
3. internal actions never synchronise.

Only the part of the product that is reachable from the pair of initial
states is constructed.  Reachability must take the environment into account:
input actions of the composition may arrive at any time, hence every enabled
input transition is explored.

Construction is a **batched frontier expansion** over flat numpy arrays: a
composite state is the ``int64`` code ``left_state * right.num_states +
right_state``, a whole BFS level of codes is expanded at once by gathering
the component CSR rows (non-shared moves interleave, shared moves are joined
per ``(state, action)`` run and crossed), and newly reached codes are
deduplicated with ``np.unique`` against a sorted table of known codes.  The
batched engine is differentially tested against a scalar pair-by-pair
reference product in the test suite (``tests/test_compose_equivalence.py``).
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from ..errors import CompositionError
from ..nputil import csr_indptr, dedupe_packed_triples, gather_row_indices
from .actions import Signature
from .indexed import InteractiveCSR, MarkovianCSR, TransitionIndex
from .ioimc import IOIMC


def compose(left: IOIMC, right: IOIMC, name: str | None = None) -> IOIMC:
    """Return the parallel composition ``left || right``.

    Both operands are made input-enabled first (implicit self-loops are
    materialised) so that synchronisation on shared input actions is always
    possible, as required by the I/O-IMC framework.
    """
    left = left.ensure_input_enabled()
    right = right.ensure_input_enabled()
    reason = left.signature.incompatibility_reason(right.signature)
    if reason is not None:
        raise CompositionError(
            f"cannot compose {left.name!r} and {right.name!r}: {reason}"
        )
    signature = left.signature.compose(right.signature)
    composite_name = name if name is not None else f"({left.name} || {right.name})"

    pairs, interactive_csr, markovian_csr = _product_tables_batched(left, right)

    width = right.num_states
    labels: dict[int, frozenset[str]] = {}
    if left.labels or right.labels:
        left_labels = left.labels
        right_labels = right.labels
        empty: frozenset[str] = frozenset()
        for state, pair in enumerate(pairs):
            left_state, right_state = divmod(pair, width)
            merged = left_labels.get(left_state, empty) | right_labels.get(
                right_state, empty
            )
            if merged:
                labels[state] = merged
    left_names = [left.state_name(state) for state in left.states()]
    right_names = [right.state_name(state) for state in right.states()]
    state_names = [
        f"{left_names[pair // width]}|{right_names[pair % width]}" for pair in pairs
    ]

    composite = IOIMC.trusted(
        composite_name,
        signature,
        len(pairs),
        0,
        None,  # rows materialise lazily from the CSR tables attached below
        None,
        labels,
        state_names,
    )
    # The product was built from flat arrays; hand them straight to the
    # transition index instead of re-deriving them from the Python rows.
    # The composed signature's action universe is exactly the (sorted) union
    # the batched engine interned, so the ids line up.
    composite._index = TransitionIndex.from_tables(
        composite, interactive_csr, markovian_csr
    )
    return composite


def _product_tables_batched(
    left: IOIMC, right: IOIMC
) -> tuple[list[int], list[list[tuple[str, int]]], list[list[tuple[float, int]]]]:
    """Reachable product of two (input-enabled, compatible) I/O-IMCs.

    Returns ``(pairs, interactive_csr, markovian_csr)`` where ``pairs[s]``
    is the ``int64`` pair code of composite state ``s`` (the initial state is
    state 0) and the transition tables are flat CSR adjacency arrays.  States
    are numbered in BFS-level order, codes ascending within a level.
    """
    shared = left.signature.visible & right.signature.visible
    width = right.num_states

    # Pair codes are int32 when the full code space fits — halves the memory
    # traffic of the np.unique/searchsorted dedupe that dominates large
    # products.  All code arithmetic below stays within `code_span`, so the
    # narrow dtype cannot overflow.
    code_span = left.num_states * width
    code_dtype = np.int32 if code_span <= np.iinfo(np.int32).max else np.int64

    # A shared interned action space for both operands.
    action_names = sorted(left.signature.all_actions | right.signature.all_actions)
    action_id = {act: aid for aid, act in enumerate(action_names)}
    num_actions = len(action_names)
    shared_flags = np.zeros(num_actions, dtype=bool)
    for act in shared:
        shared_flags[action_id[act]] = True

    left_free, left_sync = _split_component_edges(left, action_id, shared_flags, code_dtype)
    right_free, right_sync = _split_component_edges(right, action_id, shared_flags, code_dtype)
    left_markov = left.index().markovian_csr()
    right_markov = right.index().markovian_csr()

    initial = np.array([left.initial * width + right.initial], dtype=code_dtype)
    known_codes = initial.copy()  # sorted pair codes
    known_ids = np.zeros(1, dtype=np.int64)  # composite state id per known code
    pair_of_state = [int(initial[0])]

    int_chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (src, act, code)
    mkv_chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (src, rate, code)

    frontier_codes = initial
    frontier_ids = known_ids
    while len(frontier_codes):
        lefts, rights = np.divmod(frontier_codes, width)

        move_src: list[np.ndarray] = []
        move_act: list[np.ndarray] = []
        move_code: list[np.ndarray] = []

        # Non-shared interactive moves interleave.
        for free, own, is_left in (
            (left_free, lefts, True),
            (right_free, rights, False),
        ):
            picked = gather_row_indices(free.indptr, own)
            if not len(picked):
                continue
            batch = np.repeat(
                np.arange(len(own), dtype=np.int64), free.row_counts(own)
            )
            target = free.target[picked]
            move_src.append(frontier_ids[batch])
            move_act.append(free.action[picked].astype(np.int64))
            if is_left:
                move_code.append(target * width + rights[batch])
            else:
                move_code.append(lefts[batch] * width + target)

        # Shared visible moves synchronise: join the two operands' shared
        # edges on (frontier position, action) and cross the target runs.
        sync = _join_synchronised(
            left_sync, right_sync, lefts, rights, num_actions, width
        )
        if sync is not None:
            batch, act, code = sync
            move_src.append(frontier_ids[batch])
            move_act.append(act)
            move_code.append(code)

        # Markovian transitions always interleave (rates are kept verbatim,
        # duplicates included — parallel rates add).
        rate_src: list[np.ndarray] = []
        rate_val: list[np.ndarray] = []
        rate_code: list[np.ndarray] = []
        for markov, own, is_left in (
            (left_markov, lefts, True),
            (right_markov, rights, False),
        ):
            picked = gather_row_indices(markov.indptr, own)
            if not len(picked):
                continue
            counts = markov.indptr[own + 1] - markov.indptr[own]
            batch = np.repeat(np.arange(len(own), dtype=np.int64), counts)
            target = markov.target[picked].astype(code_dtype, copy=False)
            rate_src.append(frontier_ids[batch])
            rate_val.append(markov.rate[picked])
            if is_left:
                rate_code.append(target * width + rights[batch])
            else:
                rate_code.append(lefts[batch] * width + target)

        # Deduplicate interactive moves per (source, action, successor) —
        # set semantics, matching the scalar reference product.
        if move_src:
            src, act, code = dedupe_packed_triples(
                np.concatenate(move_src),
                np.concatenate(move_act),
                np.concatenate(move_code),
                num_actions,
                code_span,
            )
            code = code.astype(code_dtype, copy=False)
        else:
            src = act = np.empty(0, dtype=np.int64)
            code = np.empty(0, dtype=code_dtype)
        if rate_src:
            msrc = np.concatenate(rate_src)
            mval = np.concatenate(rate_val)
            mcode = np.concatenate(rate_code)
        else:
            msrc = np.empty(0, dtype=np.int64)
            mcode = np.empty(0, dtype=code_dtype)
            mval = np.empty(0, dtype=np.float64)

        # Register newly reached pair codes; they form the next BFS level.
        # The sorted known-code table is extended with np.insert — O(known)
        # memcpy per BFS level, which is fine for the wide, shallow levels of
        # real products but degrades to quadratic on chain-shaped operands
        # (O(states) levels of O(1) fresh states); swap in a chunked merge if
        # such models ever show up in a profile.
        reached = np.unique(np.concatenate([code, mcode]))
        position = np.searchsorted(known_codes, reached)
        position = np.minimum(position, len(known_codes) - 1)
        fresh = reached[known_codes[position] != reached]
        if len(fresh):
            fresh_ids = len(pair_of_state) + np.arange(len(fresh), dtype=np.int64)
            pair_of_state.extend(fresh.tolist())
            insert_at = np.searchsorted(known_codes, fresh)
            known_codes = np.insert(known_codes, insert_at, fresh)
            known_ids = np.insert(known_ids, insert_at, fresh_ids)
            frontier_codes, frontier_ids = fresh, fresh_ids
        else:
            frontier_codes = frontier_codes[:0]
            frontier_ids = frontier_ids[:0]

        # Resolve successor codes to composite state ids.
        int_chunks.append((src, act, known_ids[np.searchsorted(known_codes, code)]))
        mkv_chunks.append((msrc, mval, known_ids[np.searchsorted(known_codes, mcode)]))

    interactive_csr = _csr_from_chunks_interactive(int_chunks, len(pair_of_state))
    markovian_csr = _csr_from_chunks_markovian(mkv_chunks, len(pair_of_state))
    return pair_of_state, interactive_csr, markovian_csr


class _ComponentEdges:
    """One operand's interactive edges (one shared/non-shared family).

    ``indptr`` offsets rows by component state; ``action`` carries ids of the
    composition-wide action space; ``target`` is pre-cast to the product's
    pair-code dtype so the code arithmetic stays narrow.
    """

    __slots__ = ("indptr", "action", "target")

    def __init__(self, num_states: int, source, action, target) -> None:
        self.indptr = csr_indptr(source, num_states)
        order = np.argsort(source, kind="stable")
        self.action = action[order]
        self.target = target[order]

    def row_counts(self, states: np.ndarray) -> np.ndarray:
        return self.indptr[states + 1] - self.indptr[states]


def _split_component_edges(
    automaton: IOIMC,
    action_id: dict[str, int],
    shared_flags: np.ndarray,
    code_dtype: type,
) -> tuple[_ComponentEdges, _ComponentEdges]:
    """Split an operand's interactive CSR into non-shared and shared families."""
    csr = automaton.index().interactive_csr
    index_actions = automaton.index().actions
    remap = np.array([action_id[a] for a in index_actions], dtype=np.int64)
    action = remap[csr.action]
    is_shared = shared_flags[action]
    families = []
    for mask in (~is_shared, is_shared):
        families.append(
            _ComponentEdges(
                automaton.num_states,
                csr.source[mask],
                action[mask],
                csr.target[mask].astype(code_dtype, copy=False),
            )
        )
    return families[0], families[1]


def _join_synchronised(
    left_sync: _ComponentEdges,
    right_sync: _ComponentEdges,
    lefts: np.ndarray,
    rights: np.ndarray,
    num_actions: int,
    width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Cross the shared-action edges of both operands per frontier pair.

    Returns ``(batch, action, successor_code)`` arrays for all synchronised
    moves of the frontier, or ``None`` when either side has no shared edge.
    """
    sides = []
    for family, own in ((left_sync, lefts), (right_sync, rights)):
        picked = gather_row_indices(family.indptr, own)
        if not len(picked):
            return None
        counts = family.row_counts(own)
        batch = np.repeat(np.arange(len(own), dtype=np.int64), counts)
        key = batch * num_actions + family.action[picked]
        order = np.argsort(key, kind="stable")
        keys, starts, run_lengths = np.unique(
            key[order], return_index=True, return_counts=True
        )
        sides.append((keys, starts, run_lengths, family.target[picked][order]))

    (lkeys, lstart, lcount, ltargets), (rkeys, rstart, rcount, rtargets) = sides
    common, in_left, in_right = np.intersect1d(
        lkeys, rkeys, assume_unique=True, return_indices=True
    )
    if not len(common):
        return None
    n_left = lcount[in_left]
    n_right = rcount[in_right]
    pairs_per_key = n_left * n_right
    total = int(pairs_per_key.sum())
    key_of_pair = np.repeat(np.arange(len(common), dtype=np.int64), pairs_per_key)
    ends = np.cumsum(pairs_per_key)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        ends - pairs_per_key, pairs_per_key
    )
    n_right_rep = n_right[key_of_pair]
    left_pos = lstart[in_left][key_of_pair] + within // n_right_rep
    right_pos = rstart[in_right][key_of_pair] + within % n_right_rep
    batch = common[key_of_pair] // num_actions
    action = common[key_of_pair] % num_actions
    code = ltargets[left_pos] * width + rtargets[right_pos]
    return batch, action, code


def _csr_from_chunks_interactive(
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], num_states: int
) -> InteractiveCSR:
    """Assemble the composite's interactive CSR from batched edge arrays."""
    if chunks:
        src = np.concatenate([c[0] for c in chunks])
        act = np.concatenate([c[1] for c in chunks])
        tgt = np.concatenate([c[2] for c in chunks])
    else:  # pragma: no cover - a product always has at least one level
        src = act = tgt = np.empty(0, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    src, act, tgt = src[order], act[order], tgt[order]
    indptr = csr_indptr(src, num_states)
    return InteractiveCSR(
        indptr, src.astype(np.int32), act.astype(np.int32), tgt.astype(np.int32)
    )


def _csr_from_chunks_markovian(
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], num_states: int
) -> MarkovianCSR:
    """Assemble the composite's Markovian CSR from batched edge arrays."""
    if chunks:
        src = np.concatenate([c[0] for c in chunks])
        rate = np.concatenate([c[1] for c in chunks])
        tgt = np.concatenate([c[2] for c in chunks])
    else:  # pragma: no cover
        src = tgt = np.empty(0, dtype=np.int64)
        rate = np.empty(0, dtype=np.float64)
    order = np.argsort(src, kind="stable")
    src, rate, tgt = src[order], rate[order], tgt[order]
    indptr = csr_indptr(src, num_states)
    return MarkovianCSR(indptr, src.astype(np.int32), rate, tgt.astype(np.int32))


def compose_many(components: Sequence[IOIMC], name: str | None = None) -> IOIMC:
    """Left fold of :func:`compose` over a sequence of I/O-IMCs."""
    if not components:
        raise CompositionError("cannot compose an empty list of I/O-IMCs")
    if len(components) == 1:
        return components[0]
    composite = reduce(compose, components)
    if name is not None:
        composite = composite.renamed(name)
    return composite


__all__ = ["compose", "compose_many"]
