"""Tau-closure and rate-quantisation machinery shared by the abstracting
(weak and branching) bisimulation engines.

Both tau-abstracting minimisation passes of this package are built from the
same three ingredients, factored out here so the engines differ only in
*which* internal moves they abstract from:

* :func:`flatten_rows` — CSR flattening of the per-state closure/move lists
  the engines precompute once per automaton;
* :func:`markovian_profile_ids` — per-round grouping of stable states by
  their quantised cumulative-rate profiles.  A *profile* is the set of
  ``(landing block, quantised rate sum)`` pairs of one stable state, where
  the landing state of a Markovian edge is supplied by the caller: the weak
  engine redistributes a rate to the tau-sinks of its target
  (:mod:`repro.lumping.weak`), the branching engine attributes it to the
  direct target (:mod:`repro.lumping.branching`).  Rates are summed in
  transition order with ``np.bincount`` and quantised with
  :func:`repro.nputil.round_rates_to_ids` (``float(f"{rate:.9e}")`` applied
  to the unique sums), so every engine — scalar or vectorised — groups rates
  identically;
* :func:`quotient_modulo_inert_tau` — the quotient construction both
  notions share: internal moves that stay inside an equivalence class are
  inert and dropped, the interactive moves of a class are the *union* of its
  members' non-inert moves, and the Markovian behaviour of a class is taken
  from one of its stable members.
"""

from __future__ import annotations

import numpy as np

from ..ioimc import IOIMC
from ..ioimc.indexed import InteractiveCSR
from ..nputil import gather_row_indices, round_rates_to_ids
from .refinement import group_states_by_code_sets


def flatten_rows(rows: list, dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, flat values)`` of a list-of-lists (CSR layout)."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    flat = np.fromiter(
        (value for row in rows for value in row), dtype=dtype, count=int(indptr[-1])
    )
    return indptr, flat


def markovian_profile_ids(
    posts: np.ndarray,
    markovian_csr,
    landing_of_edge: np.ndarray,
    block: np.ndarray,
    num_blocks: int,
    num_states: int,
) -> tuple[np.ndarray, int]:
    """Group the stable states ``posts`` by their quantised rate profiles.

    ``landing_of_edge`` maps every edge of ``markovian_csr`` to the state
    whose current block receives the edge's rate.  Returns a dense
    ``profile_of_post`` array (``int64`` per state, meaningful at ``posts``)
    and the number of distinct profile groups; two posts share a profile id
    iff their ``{(block[landing], quantised cumulative rate)}`` sets are
    equal.  Profiles are grouped per call with the same ``np.unique``-based
    set grouping the refinement engine itself uses.
    """
    profile_of_post = np.zeros(num_states, dtype=np.int64)
    profile_groups = 1
    if len(posts):
        picked_rates = gather_row_indices(markovian_csr.indptr, posts)
        if len(picked_rates):
            pair = markovian_csr.source[picked_rates].astype(np.int64) * num_blocks + block[
                landing_of_edge[picked_rates]
            ]
            unique_pairs, pair_index = np.unique(pair, return_inverse=True)
            sums = np.bincount(pair_index, weights=markovian_csr.rate[picked_rates])
            rate_ids, distinct = round_rates_to_ids(sums)
            profile_codes = (unique_pairs % num_blocks) * max(distinct, 1) + rate_ids
            profile_sources = np.searchsorted(posts, unique_pairs // num_blocks)
        else:
            profile_codes = np.empty(0, dtype=np.int64)
            profile_sources = np.empty(0, dtype=np.int64)
        gids = group_states_by_code_sets(
            len(posts),
            profile_sources,
            profile_codes,
            np.zeros(len(posts), dtype=np.int64),
        )
        profile_of_post[posts] = gids
        profile_groups = int(gids.max()) + 1 if len(gids) else 1
    return profile_of_post, profile_groups


def quotient_modulo_inert_tau(automaton: IOIMC, partition) -> IOIMC:
    """Quotient for a tau-abstracting partition: union of non-inert moves,
    stable rates.

    The interactive moves of a class are the union of its members' moves into
    *other* classes (plus non-internal self-class moves): under a weak or
    branching partition two members need not enable the same direct
    transitions — one may reach a class only through a tau-chain passing
    another member — so taking a single representative's outgoing transitions
    can disconnect weakly-reachable classes (that bug survived in the seed
    until the differential suite caught it).

    The Markovian behaviour of a class is taken from one of its *stable*
    members: all stable members of a class agree on their cumulative rates by
    construction of either partition, and unstable members cannot let time
    pass (maximal progress).

    Built from the partition in one pass over the edge arrays (Derisavi,
    Hermanns & Sanders, "Optimal state-space lumping in Markov chains", IPL
    2003): each class's moves are listed in order of first occurrence over
    its members in state order, and its representative — the first stable
    member, else the first member — supplies name, labels and rates.
    """
    index = automaton.index()
    block = np.asarray(partition.block_of, dtype=np.int64)
    num_blocks = partition.num_blocks
    states = np.arange(automaton.num_states, dtype=np.int64)

    # Representative per class: sort by (class, unstable, state), take heads.
    order = np.lexsort((states, ~index.stable_flags, block))
    heads = np.ones(len(order), dtype=bool)
    heads[1:] = block[order[1:]] != block[order[:-1]]
    representative = order[heads]

    # Interactive moves: drop inert ones, keep each (class, action, target
    # class) at its first occurrence, then group by class (stable sort).
    # The packed int64 code needs num_blocks**2 * num_actions < 2**63,
    # i.e. below ~10**8 classes even with a thousand actions.
    csr = index.interactive_csr
    source_block = block[csr.source]
    target_block = block[csr.target]
    action = csr.action.astype(np.int64)
    moves = np.flatnonzero(
        (source_block != target_block) | ~index.internal_flags[csr.action]
    )
    code = (
        source_block[moves] * len(index.actions) + action[moves]
    ) * num_blocks + target_block[moves]
    _, first = np.unique(code, return_index=True)
    moves = moves[np.sort(first)]
    moves = moves[np.argsort(source_block[moves], kind="stable")]

    names = [automaton.state_name(state) for state in representative.tolist()]
    labels = {
        klass: automaton.label_of(state)
        for klass, state in enumerate(representative.tolist())
    }
    quotient = IOIMC.trusted(
        automaton.name,
        automaton.signature,
        num_blocks,
        int(block[automaton.initial]),
        InteractiveCSR.from_edges(
            source_block[moves], action[moves], target_block[moves], num_blocks
        ),
        index.markovian_csr.lumped(block, representative, num_blocks),
        labels,
        names,
        interned=index,
    )
    return quotient.restrict_to_reachable()


__all__ = ["flatten_rows", "markovian_profile_ids", "quotient_modulo_inert_tau"]
