"""Interned-action, integer-indexed CSR transition tables of an I/O-IMC.

The refinement and reduction algorithms spend most of their time asking the
same questions about an automaton over and over: what kind is this action,
which internal transitions leave this state, is this state stable, who are a
state's predecessors.  Answering them through the string-keyed
:class:`~repro.ioimc.actions.Signature` (frozenset membership per query) is
what made the seed implementation quadratic in practice.

:class:`TransitionIndex` is the *only* transition storage of an
:class:`~repro.ioimc.IOIMC` and answers those questions in O(1) array
lookups; the vectorised engines of :mod:`repro.lumping` and
:mod:`repro.ioimc.composition` read its arrays directly:

* action names are *interned* to consecutive integer ids (sorted order, so
  ids are deterministic for a given signature);
* the interactive relation is a flat **CSR adjacency**
  (:class:`InteractiveCSR`): an ``int64`` row-offset array plus aligned
  ``int32`` source/action/target columns in the automaton's transition
  order — the layout the ``np.unique``-based signature grouping and the
  batched product construction operate on directly;
* the Markovian relation is stored the same way (:class:`MarkovianCSR`,
  ``float64`` rate column);
* a stability bit per state is derived when the index is built; internal
  (tau) successor lists, the per-state ``(action_id, target)`` lists the
  tau-closure precomputations walk, and the predecessor CSR are derived
  from the arrays on first use and cached.

Every automaton is born with its index; I/O-IMCs are immutable after
construction, so the cached derived tables can never go stale.
"""

from __future__ import annotations

import numpy as np

from ..nputil import csr_indptr, gather_row_indices
from .actions import ActionKind


class InteractiveCSR:
    """Flat-array (CSR) form of an automaton's interactive relation.

    The edges of state ``s`` occupy positions ``indptr[s]:indptr[s + 1]`` of
    the aligned columns, in the automaton's transition order:

    ``indptr``
        ``int64`` row offsets, length ``num_states + 1``.
    ``source``
        ``int32`` source state per edge (the CSR expansion of ``indptr``,
        stored because every vectorised consumer needs it).
    ``action``
        ``int32`` interned action id per edge.
    ``target``
        ``int32`` target state per edge.
    """

    __slots__ = ("indptr", "source", "action", "target")

    def __init__(
        self,
        indptr: np.ndarray,
        source: np.ndarray,
        action: np.ndarray,
        target: np.ndarray,
    ) -> None:
        self.indptr = indptr
        self.source = source
        self.action = action
        self.target = target

    @classmethod
    def from_edges(cls, source, action, target, num_rows: int) -> "InteractiveCSR":
        """CSR from aligned edge columns (``source`` grouped ascending)."""
        return cls(
            csr_indptr(source, num_rows),
            source.astype(np.int32),
            action.astype(np.int32),
            target.astype(np.int32),
        )

    @property
    def num_edges(self) -> int:
        return len(self.target)


class MarkovianCSR:
    """Flat-array (CSR) form of an automaton's Markovian relation.

    Same layout as :class:`InteractiveCSR` with a ``float64`` ``rate`` column
    instead of the action column.
    """

    __slots__ = ("indptr", "source", "rate", "target")

    def __init__(
        self,
        indptr: np.ndarray,
        source: np.ndarray,
        rate: np.ndarray,
        target: np.ndarray,
    ) -> None:
        self.indptr = indptr
        self.source = source
        self.rate = rate
        self.target = target

    @classmethod
    def from_edges(cls, source, rate, target, num_rows: int) -> "MarkovianCSR":
        """CSR from aligned edge columns (``source`` grouped ascending)."""
        return cls(
            csr_indptr(source, num_rows),
            source.astype(np.int32),
            np.asarray(rate, dtype=np.float64),
            target.astype(np.int32),
        )

    def lumped(
        self, block: np.ndarray, representative: np.ndarray, num_blocks: int
    ) -> "MarkovianCSR":
        """Quotient rates: each block's representative's rates per target block.

        ``block`` maps old states to blocks and ``representative`` lists one
        old state per block, in ascending block order (blocks may be missing:
        they get an empty row).  Parallel rates into one target block are
        summed with ``np.bincount`` in transition order, i.e. exactly as a
        left-to-right scalar accumulation would sum them; each row is sorted
        by target block.
        """
        picked = gather_row_indices(self.indptr, representative)
        pair = block[self.source[picked]] * num_blocks + block[self.target[picked]]
        unique_pairs, pair_index = np.unique(pair, return_inverse=True)
        rate = np.bincount(pair_index, weights=self.rate[picked])
        source, target = np.divmod(unique_pairs, num_blocks)
        return MarkovianCSR.from_edges(source, rate, target, num_blocks)

    @property
    def num_edges(self) -> int:
        return len(self.target)


class TransitionIndex:
    """Integer-indexed transition tables of one (immutable) I/O-IMC."""

    __slots__ = (
        "num_states",
        "actions",
        "id_of",
        "kinds",
        "is_input",
        "is_internal",
        "is_visible",
        "input_flags",
        "internal_flags",
        "visible_flags",
        "interactive_csr",
        "markovian_csr",
        "stable",
        "stable_flags",
        "_internal_successors",
        "_id_rows",
        "_predecessor_csr",
    )

    def __init__(
        self,
        signature,
        num_states: int,
        interactive_csr: InteractiveCSR,
        markovian_csr: MarkovianCSR,
        interned: "TransitionIndex | None" = None,
    ) -> None:
        """Index ``num_states`` states over CSR tables.

        The action ids of ``interactive_csr`` index
        ``sorted(signature.all_actions)``.  ``interned``, when given, is an
        index over the same action universe: its interning tables are
        shared instead of rebuilt from ``signature``.
        """
        self.num_states = num_states
        if interned is None:
            #: Interned action names; the id of an action is its position here.
            self.actions: list[str] = sorted(signature.all_actions)
            self.id_of: dict[str, int] = {
                action: aid for aid, action in enumerate(self.actions)
            }
            self.kinds: list[ActionKind] = [
                signature.kind_of(action) for action in self.actions
            ]
            #: Per-action-id kind masks, as Python lists and numpy bool arrays.
            self.is_input = [k is ActionKind.INPUT for k in self.kinds]
            self.is_internal = [k is ActionKind.INTERNAL for k in self.kinds]
            self.is_visible = [k is not ActionKind.INTERNAL for k in self.kinds]
            self.input_flags = np.array(self.is_input, dtype=bool)
            self.internal_flags = np.array(self.is_internal, dtype=bool)
            self.visible_flags = np.array(self.is_visible, dtype=bool)
        else:
            self.actions = interned.actions
            self.id_of = interned.id_of
            self.kinds = interned.kinds
            self.is_input = interned.is_input
            self.is_internal = interned.is_internal
            self.is_visible = interned.is_visible
            self.input_flags = interned.input_flags
            self.internal_flags = interned.internal_flags
            self.visible_flags = interned.visible_flags
        self.interactive_csr = interactive_csr
        self.markovian_csr = markovian_csr
        # Stable: no urgent (output or internal) transition is enabled.
        urgent = ~self.input_flags[interactive_csr.action]
        unstable = np.zeros(num_states, dtype=bool)
        unstable[interactive_csr.source[urgent]] = True
        self.stable_flags = ~unstable
        self.stable = self.stable_flags.tolist()
        self._internal_successors = None
        self._id_rows = None
        self._predecessor_csr = None

    # ------------------------------------------------------------------ #
    # derived, lazily cached tables
    # ------------------------------------------------------------------ #
    @property
    def internal_successors(self) -> list[list[int]]:
        """Per state: targets of internal (tau) transitions."""
        if self._internal_successors is None:
            csr = self.interactive_csr
            internal = self.internal_flags[csr.action]
            successors: list[list[int]] = [
                [] for _ in range(self.num_states)
            ]
            for source, tgt in zip(
                csr.source[internal].tolist(), csr.target[internal].tolist()
            ):
                successors[source].append(tgt)
            self._internal_successors = successors
        return self._internal_successors

    def interactive_ids(self) -> list[list[tuple[int, int]]]:
        """Per-state ``(action_id, target)`` pairs in the automaton's order."""
        if self._id_rows is None:
            csr = self.interactive_csr
            indptr = csr.indptr
            pairs = list(zip(csr.action.tolist(), csr.target.tolist()))
            self._id_rows = [
                pairs[indptr[state] : indptr[state + 1]]
                for state in range(self.num_states)
            ]
        return self._id_rows

    def predecessor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, source)`` CSR of the *observer* relation, deduplicated.

        For every state, the sources of incoming transitions of either kind:
        any predecessor's refinement signature reads the block of this state,
        so this is exactly the observer relation the worklist refinement
        engine needs.  Sources of a state are sorted ascending.
        """
        if self._predecessor_csr is None:
            icsr = self.interactive_csr
            mcsr = self.markovian_csr
            num_states = self.num_states
            target = np.concatenate([icsr.target, mcsr.target])
            source = np.concatenate([icsr.source, mcsr.source])
            # Dedupe (target, source) pairs, then split runs by target.
            code = target.astype(np.int64) * num_states + source
            code = np.unique(code)
            by_target, sources = np.divmod(code, num_states)
            indptr = csr_indptr(by_target, num_states)
            self._predecessor_csr = (indptr, sources.astype(np.int32))
        return self._predecessor_csr

    def tau_closure(self) -> list[list[int]]:
        """For every state, the sorted list of states reachable by ``tau*``."""
        internal_successors = self.internal_successors
        closure: list[list[int]] = []
        for state in range(self.num_states):
            reached = {state}
            stack = [state]
            while stack:
                current = stack.pop()
                for successor in internal_successors[current]:
                    if successor not in reached:
                        reached.add(successor)
                        stack.append(successor)
            closure.append(sorted(reached))
        return closure

    def summary(self) -> dict[str, int]:
        """Size statistics (see :meth:`repro.ioimc.IOIMC.summary`)."""
        interactive = self.interactive_csr.num_edges
        markovian = self.markovian_csr.num_edges
        return {
            "states": self.num_states,
            "interactive_transitions": interactive,
            "markovian_transitions": markovian,
            "transitions": interactive + markovian,
        }


__all__ = ["InteractiveCSR", "MarkovianCSR", "TransitionIndex"]
