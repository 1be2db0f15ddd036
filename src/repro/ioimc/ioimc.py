"""Core data structure for Input/Output Interactive Markov Chains.

An I/O-IMC (Section 2 of the paper) is a transition system with two kinds of
transitions:

* *interactive* transitions, labelled with an action name whose kind (input,
  output or internal) is determined by the automaton's :class:`Signature`;
* *Markovian* transitions, labelled with a rate ``lambda`` of an exponential
  delay.

States are represented as integers ``0 .. num_states - 1``; an optional list
of human readable state names can be attached for debugging and
visualisation.  Each state may additionally carry a set of atomic
propositions (*labels*) such as ``"down"`` — labels survive composition and
minimisation and are used to identify system-failure states when the final
model is converted into a labelled CTMC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..errors import InputEnablednessError, ModelError
from ..nputil import dedupe_packed_triples, gather_row_indices
from .actions import ActionKind, Signature, natural_sort_key
from .indexed import InteractiveCSR, MarkovianCSR, TransitionIndex


@dataclass(frozen=True)
class InteractiveTransition:
    """One interactive transition ``source --action--> target``."""

    source: int
    action: str
    target: int


@dataclass(frozen=True)
class MarkovianTransition:
    """One Markovian transition ``source --rate--> target``."""

    source: int
    rate: float
    target: int


class IOIMC:
    """An Input/Output Interactive Markov Chain.

    The transitions live in the flat CSR tables of the automaton's
    :class:`~repro.ioimc.indexed.TransitionIndex` (see :meth:`index`); the
    row tables passed here are converted and validated once.

    Parameters
    ----------
    name:
        Human readable name of the automaton (used in diagnostics only).
    signature:
        Partition of the action names into inputs, outputs and internals.
    num_states:
        Number of states; states are the integers ``0 .. num_states - 1``.
    initial:
        Index of the initial state.
    interactive:
        For every state, a list of ``(action, target)`` pairs.
    markovian:
        For every state, a list of ``(rate, target)`` pairs.
    labels:
        Optional mapping from state index to a set of atomic propositions.
    state_names:
        Optional human readable state names (one per state).
    """

    __slots__ = (
        "name",
        "signature",
        "num_states",
        "initial",
        "labels",
        "state_names",
        "_index",
    )

    def __init__(
        self,
        name: str,
        signature: Signature,
        num_states: int,
        initial: int,
        interactive: Sequence[Sequence[tuple[str, int]]],
        markovian: Sequence[Sequence[tuple[float, int]]],
        labels: Mapping[int, frozenset[str]] | None = None,
        state_names: Sequence[str] | None = None,
    ) -> None:
        if num_states <= 0:
            raise ModelError("an I/O-IMC needs at least one state")
        if not 0 <= initial < num_states:
            raise ModelError(f"initial state {initial} out of range 0..{num_states - 1}")
        if len(interactive) != num_states or len(markovian) != num_states:
            raise ModelError("transition tables must have exactly one entry per state")
        self.name = name
        self.signature = signature
        self.num_states = num_states
        self.initial = initial
        self.labels: dict[int, frozenset[str]] = {
            state: frozenset(props) for state, props in (labels or {}).items() if props
        }
        self.state_names = list(state_names) if state_names is not None else None
        for state in self.labels:
            if not 0 <= state < num_states:
                raise ModelError(f"{name}: label attached to unknown state {state}")
        if self.state_names is not None and len(self.state_names) != num_states:
            raise ModelError(f"{name}: need exactly one state name per state")
        interactive_csr, markovian_csr = self._tables_from_rows(interactive, markovian)
        self._index = TransitionIndex(signature, num_states, interactive_csr, markovian_csr)

    def _tables_from_rows(self, interactive, markovian):
        """Validated CSR tables of per-state ``(action|rate, target)`` rows."""
        id_of = {action: aid for aid, action in enumerate(sorted(self.signature.all_actions))}
        names, action_targets, action_indptr, action_source = _flatten(interactive)
        action = np.array([id_of.get(name, -1) for name in names], dtype=np.int32)
        rates, rate_targets, rate_indptr, rate_source = _flatten(markovian)
        rate = np.array(rates, dtype=np.float64)
        if len(action) and action.min() < 0:
            edge = int(np.argmin(action))
            raise ModelError(
                f"{self.name}: state {action_source[edge]} uses action "
                f"{names[edge]!r} which is not declared in the signature"
            )
        invalid = ~((rate > 0) & (rate < np.inf))
        if invalid.any():
            edge = int(np.argmax(invalid))
            raise ModelError(
                f"{self.name}: state {rate_source[edge]} has a non-positive "
                f"or non-finite Markovian rate {rate[edge]}"
            )
        for kind, targets in (("interactive", action_targets), ("Markovian", rate_targets)):
            if len(targets) and (targets.min() < 0 or targets.max() >= self.num_states):
                outside = (targets < 0) | (targets >= self.num_states)
                raise ModelError(
                    f"{self.name}: {kind} target {targets[np.argmax(outside)]} out of range"
                )
        return (
            InteractiveCSR(action_indptr, action_source, action, action_targets.astype(np.int32)),
            MarkovianCSR(rate_indptr, rate_source, rate, rate_targets.astype(np.int32)),
        )

    @classmethod
    def trusted(
        cls,
        name: str,
        signature: Signature,
        num_states: int,
        initial: int,
        interactive_csr: InteractiveCSR,
        markovian_csr: MarkovianCSR,
        labels: Mapping[int, frozenset[str]] | None = None,
        state_names: list[str] | None = None,
        *,
        interned: TransitionIndex | None = None,
    ) -> "IOIMC":
        """Construct from CSR tables without validation (internal use only).

        The library's own transformations (composition, hiding, reductions,
        quotients) produce transition tables that are valid by construction.
        Callers hand over ownership of the tables and ``state_names`` and
        must guarantee every invariant that ``__init__`` checks; the action
        ids of ``interactive_csr`` index ``sorted(signature.all_actions)``.
        ``interned`` is an index over the same action universe whose
        interning tables the new automaton's index shares.
        """
        self = cls.__new__(cls)
        self.name = name
        self.signature = signature
        self.num_states = num_states
        self.initial = initial
        self.labels = {
            state: props for state, props in (labels or {}).items() if props
        }
        self.state_names = state_names
        self._index = TransitionIndex(
            signature, num_states, interactive_csr, markovian_csr, interned
        )
        return self

    def index(self) -> TransitionIndex:
        """The :class:`~repro.ioimc.indexed.TransitionIndex` holding the transitions."""
        return self._index

    # ------------------------------------------------------------------ #
    # row views
    # ------------------------------------------------------------------ #
    # Read-only per-state views of the CSR tables, rebuilt on every access
    # (in CSR edge order) for tests and rendering.  Library code works on
    # the CSR tables of ``index()`` instead.

    @property
    def interactive(self) -> list[list[tuple[str, int]]]:
        """Per state, the ``(action, target)`` interactive transitions."""
        csr = self._index.interactive_csr
        names = self._index.actions
        return _split_rows(
            csr.indptr, [names[aid] for aid in csr.action.tolist()], csr.target.tolist()
        )

    @property
    def markovian(self) -> list[list[tuple[float, int]]]:
        """Per state, the ``(rate, target)`` Markovian transitions."""
        csr = self._index.markovian_csr
        return _split_rows(csr.indptr, csr.rate.tolist(), csr.target.tolist())

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    def states(self) -> range:
        """Iterate over all state indices."""
        return range(self.num_states)

    def state_name(self, state: int) -> str:
        """Human readable name of ``state`` (falls back to the index)."""
        if self.state_names is not None:
            return self.state_names[state]
        return f"s{state}"

    def label_of(self, state: int) -> frozenset[str]:
        """Atomic propositions attached to ``state``."""
        return self.labels.get(state, frozenset())

    def kind_of(self, action: str) -> ActionKind:
        """Kind of ``action`` in this automaton's signature."""
        return self.signature.kind_of(action)

    def _action_row(self, state: int) -> list[tuple[str, int]]:
        csr = self._index.interactive_csr
        start, end = csr.indptr[state], csr.indptr[state + 1]
        names = self._index.actions
        return [
            (names[aid], target)
            for aid, target in zip(
                csr.action[start:end].tolist(), csr.target[start:end].tolist()
            )
        ]

    def interactive_successors(self, state: int, action: str) -> list[int]:
        """Targets of all ``action`` transitions leaving ``state``."""
        return [target for act, target in self._action_row(state) if act == action]

    def enabled_actions(self, state: int) -> set[str]:
        """All actions with at least one transition leaving ``state``."""
        return {action for action, _ in self._action_row(state)}

    def is_stable(self, state: int) -> bool:
        """A state is *stable* when no output or internal transition is enabled.

        Only stable states may let time pass (maximal progress assumption);
        Markovian transitions are therefore only meaningful in stable states.
        """
        return self._index.stable[state]

    def exit_rate(self, state: int) -> float:
        """Sum of the Markovian rates leaving ``state``."""
        csr = self._index.markovian_csr
        return sum(csr.rate[csr.indptr[state] : csr.indptr[state + 1]].tolist())

    def num_interactive_transitions(self) -> int:
        """Total number of interactive transitions."""
        return self._index.interactive_csr.num_edges

    def num_markovian_transitions(self) -> int:
        """Total number of Markovian transitions."""
        return self._index.markovian_csr.num_edges

    def num_transitions(self) -> int:
        """Total number of transitions of either kind."""
        return self.num_interactive_transitions() + self.num_markovian_transitions()

    def iter_interactive(self) -> Iterator[InteractiveTransition]:
        """Iterate over all interactive transitions."""
        for source, row in enumerate(self.interactive):
            for action, target in row:
                yield InteractiveTransition(source, action, target)

    def iter_markovian(self) -> Iterator[MarkovianTransition]:
        """Iterate over all Markovian transitions."""
        for source, row in enumerate(self.markovian):
            for rate, target in row:
                yield MarkovianTransition(source, rate, target)

    # ------------------------------------------------------------------ #
    # input enabledness
    # ------------------------------------------------------------------ #
    def _input_present(self) -> tuple[np.ndarray, np.ndarray]:
        """Input action ids, and per state which of them have a transition."""
        index = self._index
        inputs = np.flatnonzero(index.input_flags)
        column = np.zeros(len(index.actions), dtype=np.int64)
        column[inputs] = np.arange(len(inputs))
        csr = index.interactive_csr
        is_input = index.input_flags[csr.action]
        present = np.zeros((self.num_states, len(inputs)), dtype=bool)
        present[csr.source[is_input], column[csr.action[is_input]]] = True
        return inputs, present

    def missing_inputs(self, state: int) -> set[str]:
        """Input actions for which ``state`` has no explicit transition."""
        return set(self.signature.inputs) - self.enabled_actions(state)

    def check_input_enabled(self) -> None:
        """Raise :class:`InputEnablednessError` unless every state accepts every input."""
        _, present = self._input_present()
        lacking = np.flatnonzero(~present.all(axis=1))
        if len(lacking):
            state = int(lacking[0])
            raise InputEnablednessError(
                f"{self.name}: state {self.state_name(state)} has no transition "
                f"for input action(s) {sorted(self.missing_inputs(state))}"
            )

    def ensure_input_enabled(self) -> "IOIMC":
        """Return an equivalent I/O-IMC with explicit input self-loops added.

        The paper omits these self-loops in figures "for the sake of clarity";
        semantically a state without an explicit ``a?`` transition simply stays
        put when ``a`` occurs.  This helper materialises that convention: the
        missing self-loops of a state follow its own edges, in natural action
        name order.
        """
        inputs, present = self._input_present()
        if present.all():
            return self
        # Natural name order (not set hash order): the self-loop positions
        # then depend only on the naming scheme, keeping replicated blocks
        # structurally aligned for the cache.
        names = self._index.actions
        natural = sorted(
            range(len(inputs)), key=lambda k: natural_sort_key(names[inputs[k]])
        )
        missing_state, missing_column = np.nonzero(~present[:, natural])
        csr = self._index.interactive_csr
        source = np.concatenate([csr.source, missing_state])
        order = np.argsort(source, kind="stable")
        action = np.concatenate([csr.action, inputs[natural][missing_column]])
        target = np.concatenate([csr.target, missing_state])
        return IOIMC.trusted(
            self.name,
            self.signature,
            self.num_states,
            self.initial,
            InteractiveCSR.from_edges(
                source[order], action[order], target[order], self.num_states
            ),
            self._index.markovian_csr,
            self.labels,
            self.state_names,
            interned=self._index,
        )

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def relabel_states(self, mapping: Mapping[int, int], num_new_states: int) -> "IOIMC":
        """Quotient/rename states according to ``mapping`` (old -> new index).

        Interactive transitions of all merged states are unioned (duplicates
        are dropped).  Markovian rates are taken from a single *representative*
        state per block (the first state of the block in state order), with
        parallel rates into the same target block summed — this is the
        quotient construction used by (bi)simulation lumping, where all
        states of a block have, by definition, the same cumulative rate into
        every other block.

        Runs over the flat CSR arrays: the unioned interactive rows are one
        ``np.unique`` over packed ``(new source, action, new target)``
        triples.
        """
        index = self._index
        interactive_csr = index.interactive_csr
        block = np.fromiter(
            (mapping[old] for old in self.states()),
            dtype=np.int64,
            count=self.num_states,
        )

        new_src, action, new_tgt = dedupe_packed_triples(
            block[interactive_csr.source],
            interactive_csr.action.astype(np.int64),
            block[interactive_csr.target],
            len(index.actions),
            num_new_states,
        )

        # One representative old state per new state: the first occurrence in
        # state order (new states without a preimage keep an empty row).
        present, representative = np.unique(block, return_index=True)

        labels: dict[int, set[str]] = {}
        for old, props in self.labels.items():
            labels.setdefault(int(block[old]), set()).update(props)
        names = [f"s{index}" for index in range(num_new_states)]
        for new, old in zip(present.tolist(), representative.tolist()):
            names[new] = self.state_name(old)
        return IOIMC.trusted(
            self.name,
            self.signature,
            num_new_states,
            mapping[self.initial],
            InteractiveCSR.from_edges(new_src, action, new_tgt, num_new_states),
            index.markovian_csr.lumped(block, representative, num_new_states),
            {state: frozenset(props) for state, props in labels.items()},
            names,
            interned=index,
        )

    def restrict_to_reachable(self) -> "IOIMC":
        """Drop states that are unreachable from the initial state."""
        reachable = self._reachable_mask()
        num_reachable = int(reachable.sum())
        if num_reachable == self.num_states:
            return self
        index = self._index
        order = np.flatnonzero(reachable)  # ascending old state ids
        new_of_old = np.full(self.num_states, -1, dtype=np.int64)
        new_of_old[order] = np.arange(num_reachable, dtype=np.int64)

        interactive_csr = index.interactive_csr
        picked = gather_row_indices(interactive_csr.indptr, order)
        interactive = InteractiveCSR.from_edges(
            new_of_old[interactive_csr.source[picked]],
            interactive_csr.action[picked],
            new_of_old[interactive_csr.target[picked]],
            num_reachable,
        )
        markovian_csr = index.markovian_csr
        picked = gather_row_indices(markovian_csr.indptr, order)
        markovian = MarkovianCSR.from_edges(
            new_of_old[markovian_csr.source[picked]],
            markovian_csr.rate[picked],
            new_of_old[markovian_csr.target[picked]],
            num_reachable,
        )
        labels = {
            int(new_of_old[old]): props
            for old, props in self.labels.items()
            if reachable[old]
        }
        names = (
            [self.state_name(old) for old in order.tolist()]
            if self.state_names
            else None
        )
        return IOIMC.trusted(
            self.name,
            self.signature,
            num_reachable,
            int(new_of_old[self.initial]),
            interactive,
            markovian,
            labels,
            names,
            interned=index,
        )

    def _reachable_mask(self):
        """Boolean mask of states reachable from the initial state.

        Batched BFS over the CSR adjacency: a whole frontier level is
        expanded per step, so the cost is a few array operations per level of
        the reachability tree instead of Python work per transition.
        """
        interactive_csr = self._index.interactive_csr
        markovian_csr = self._index.markovian_csr
        seen = np.zeros(self.num_states, dtype=bool)
        seen[self.initial] = True
        frontier = np.array([self.initial], dtype=np.int64)
        while len(frontier):
            targets = np.concatenate(
                [
                    interactive_csr.target[
                        gather_row_indices(interactive_csr.indptr, frontier)
                    ],
                    markovian_csr.target[
                        gather_row_indices(markovian_csr.indptr, frontier)
                    ],
                ]
            ).astype(np.int64)
            targets = np.unique(targets)
            frontier = targets[~seen[targets]]
            seen[frontier] = True
        return seen

    def renamed(self, name: str) -> "IOIMC":
        """Return a shallow copy carrying a different automaton name.

        The copy shares the (immutable) transition index, labels and names.
        """
        clone = IOIMC.__new__(IOIMC)
        for slot in IOIMC.__slots__:
            setattr(clone, slot, getattr(self, slot))
        clone.name = name
        return clone

    # ------------------------------------------------------------------ #
    # pickling
    # ------------------------------------------------------------------ #
    # An automaton crosses process boundaries (the composer's worker pool)
    # as its CSR tables.  Derived caches (stability bits, predecessor
    # tables, tau successor lists) are never serialised — they are cheap to
    # rebuild and would multiply the payload.

    def __getstate__(self) -> dict:
        icsr = self._index.interactive_csr
        mcsr = self._index.markovian_csr
        return {
            "name": self.name,
            "signature": self.signature,
            "num_states": self.num_states,
            "initial": self.initial,
            "labels": self.labels,
            "state_names": self.state_names,
            "interactive_csr": (icsr.indptr, icsr.source, icsr.action, icsr.target),
            "markovian_csr": (mcsr.indptr, mcsr.source, mcsr.rate, mcsr.target),
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.signature = state["signature"]
        self.num_states = state["num_states"]
        self.initial = state["initial"]
        self.labels = state["labels"]
        self.state_names = state["state_names"]
        self._index = TransitionIndex(
            self.signature,
            self.num_states,
            InteractiveCSR(*state["interactive_csr"]),
            MarkovianCSR(*state["markovian_csr"]),
        )

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IOIMC({self.name!r}, states={self.num_states}, "
            f"interactive={self.num_interactive_transitions()}, "
            f"markovian={self.num_markovian_transitions()})"
        )

    def summary(self) -> dict[str, int]:
        """Size statistics used by the benchmarks."""
        return self._index.summary()



def _flatten(rows) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """``(first components, int64 targets, indptr, int32 sources)`` of per-state rows."""
    edges = [edge for row in rows for edge in row]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    source = np.repeat(np.arange(len(rows), dtype=np.int32), np.diff(indptr))
    targets = np.array([target for _, target in edges], dtype=np.int64)
    return [first for first, _ in edges], targets, indptr, source


def _split_rows(indptr: np.ndarray, first: list, second: list) -> list[list]:
    """Per-row lists of ``(first, second)`` pairs of aligned CSR edge columns."""
    flat = list(zip(first, second))
    bounds = indptr.tolist()  # plain ints: list slicing is ~2x faster than int64
    return [flat[start:end] for start, end in zip(bounds, bounds[1:])]
