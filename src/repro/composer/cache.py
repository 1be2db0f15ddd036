"""Isomorphism-aware memoisation of compositional-aggregation steps.

The paper's case studies are built from *replicated* subsystems — six
identical disk clusters in the DDS, duplicated pump lines in the RCS — yet
the plain :class:`~repro.composer.Composer` composes and minimises every
copy from scratch.  :class:`QuotientCache` removes that redundancy: each
composition step (parallel product, hiding, reduction pipeline) is memoised
under a key that identifies the step *up to consistent signal renaming*, so
the second through N-th copies of a replicated subtree are served from the
cache and merely *rebased* onto their concrete signal names.

How a step is identified
------------------------
Every cached subtree carries a :class:`SubtreeFingerprint`:

* ``key`` — for a leaf block, the *positional-form* digest of its I/O-IMC:
  a name-free encoding in which actions are numbered by first structural
  use (the order their edges appear in the state-numbered transition
  tables).  Unlike the search-based canonical form of
  :mod:`repro.ioimc.canonical`, the positional form costs one pass even on
  automata with large symmetry orbits (an 8-disk FCFS repair queue has
  10^5 states and a full automorphism group over the disks — refining that
  to a discrete canonical partition is more expensive than composing it),
  and its slot order follows the generation order of the translator, which
  is exactly how replicated instances align.  Because the positional form
  is *not* a decision procedure for isomorphism, every leaf joining an
  existing digest class is **verified**: its edges are renamed through the
  slot pairing and compared, exactly, against the class representative —
  a failed verification simply disables caching through that leaf.  For a
  composite, the key is a hash derived *algebraically* from the operand
  keys and the step descriptor (below) — large intermediate products are
  never themselves fingerprinted.
* ``slots`` — the concrete visible action names of this instance, listed in
  slot order.  Two subtrees with equal keys are isomorphic via the
  slot-wise pairing of their ``slots`` (the renaming witness).

A binary step ``left || right ; hide H ; reduce`` is keyed on

* the operand keys,
* the synchronisation pattern expressed in canonical coordinates — the set
  of ``(left slot, right slot)`` pairs that carry the same concrete name,
* the hidden-signal set expressed as slots of the (pre-hiding) composite
  alphabet, and
* the bisimulation mode of the reduction that follows every step.

Soundness
---------
Equal keys mean both subtrees were built by the *identical* sequence of
compose/hide/reduce operations (in slot coordinates) from leaves whose
isomorphism was explicitly verified.  All three operations commute with
consistent action renaming, and none of the engines' results depend on
concrete names (state numbering comes from exploration and
first-occurrence orders over states; partitions are unique coarsest
fixpoints), so the cached result differs from a recomputation by exactly
the slot-wise renaming — which
:func:`repro.ioimc.canonical.rebase_actions` applies on a hit.  A cache hit
therefore returns precisely what the uncached pipeline would have built;
the differential suite pins this (cache on vs off) across the full corpus.

Entries additionally remember the step's pre-reduction sizes and the
wall-clock originally spent, so statistics recorded on a hit reproduce the
uncached trajectory (the golden ``largest_intermediate_states`` is
unchanged) and the per-step ``saved_seconds`` can be reported.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..ioimc import IOIMC, TAU
from ..ioimc.actions import ActionKind, natural_sort_key
from ..ioimc.canonical import _KIND_CODE, encode_renumbered


@dataclass(frozen=True)
class SubtreeFingerprint:
    """Renaming-invariant identity of one composed (or leaf) subtree."""

    #: Canonical digest (leaf) or derived step hash (composite).
    key: str
    #: Concrete visible action names of this instance, in canonical slot order.
    slots: tuple[str, ...]


@dataclass(frozen=True)
class StepPlan:
    """A composition step expressed in canonical (slot) coordinates."""

    #: Hash over (operand keys, sync pairs, hidden slots): the mode-free part
    #: of the step identity (see :meth:`QuotientCache.result_key`).
    base: str
    #: Concrete visible names of the resulting composite (post-hiding).
    slots: tuple[str, ...]


@dataclass(frozen=True)
class CacheEntry:
    """One memoised step result, in its store-time concrete names."""

    automaton: IOIMC
    slots: tuple[str, ...]
    states_before: int
    transitions_before: int
    states_after: int
    transitions_after: int
    compose_seconds: float
    reduce_seconds: float

    @property
    def cost_seconds(self) -> float:
        """Wall-clock originally paid for this step (what a hit saves)."""
        return self.compose_seconds + self.reduce_seconds


class QuotientCache:
    """Memoises composition-step results up to consistent signal renaming.

    A single instance may be shared across several :class:`Composer` runs
    (e.g. the availability and no-repair reliability pipelines of one
    evaluator, or the instances of a growth-curve sweep); sharing is safe
    because keys identify steps structurally, independent of the model they
    came from.
    """

    def __init__(self) -> None:
        self._entries: dict[str, CacheEntry] = {}
        #: Keyed by the automaton *object* (identity hash): keeps the leaf
        #: alive while memoised, so a recycled ``id()`` can never serve a
        #: stale fingerprint for a structurally unrelated automaton.
        self._leaf_fingerprints: dict[IOIMC, SubtreeFingerprint | None] = {}
        #: First leaf seen per positional digest: the representative every
        #: later leaf of the class is verified against.
        self._leaf_representatives: dict[str, tuple[IOIMC, tuple[str, ...]]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Lifetime *net* savings: for every hit this cache ever served —
        #: across all runs sharing it — the original computation's cost
        #: minus the serve (rebase) time, floored at 0.  By construction
        #: this equals the sum of the per-run
        #: ``CompositionStatistics.cache_saved_seconds``, so the two reports
        #: reconcile exactly however many runs share the instance.
        self.saved_seconds = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # fingerprints and keys
    # ------------------------------------------------------------------ #
    def leaf_fingerprint(self, automaton: IOIMC) -> SubtreeFingerprint | None:
        """Fingerprint of a leaf block (cached per automaton object).

        Returns ``None`` — disabling caching for every subtree containing
        this leaf — when the block owns internal actions other than ``tau``
        (such names could not be rebased: internals are never renamed) or
        when the leaf's positional digest collides with a class whose
        representative it does not verify against.  Translator-built
        replicas pass both guards; anything else just forgoes caching.
        """
        cached = self._leaf_fingerprints.get(automaton, _UNSET)
        if cached is not _UNSET:
            return cached
        fingerprint = self._fingerprint_leaf(automaton)
        self._leaf_fingerprints[automaton] = fingerprint
        return fingerprint

    def _fingerprint_leaf(self, automaton: IOIMC) -> SubtreeFingerprint | None:
        if automaton.signature.internals - {TAU}:
            return None
        digest, slots = positional_form(automaton)
        representative = self._leaf_representatives.get(digest)
        if representative is None:
            self._leaf_representatives[digest] = (automaton, slots)
        else:
            reference, reference_slots = representative
            if reference is not automaton and not _verified_isomorphic(
                automaton, slots, reference, reference_slots
            ):
                return None
        return SubtreeFingerprint(key="leaf:" + digest, slots=slots)

    def plan_step(
        self,
        left: SubtreeFingerprint,
        right: SubtreeFingerprint,
        hidable: list[str],
    ) -> StepPlan | None:
        """Express one binary step in canonical coordinates.

        ``hidable`` is the (sorted) list of output signals the composer will
        hide right after the product.  Returns ``None`` when the step cannot
        be canonicalised (a hidable name missing from the operand slots —
        impossible for composer-generated steps, guarded defensively).
        """
        right_index = {name: position for position, name in enumerate(right.slots)}
        sync = tuple(
            (position, right_index[name])
            for position, name in enumerate(left.slots)
            if name in right_index
        )
        shared = {left.slots[position] for position, _ in sync}
        union = list(left.slots) + [
            name for name in right.slots if name not in shared
        ]
        slot_of = {name: position for position, name in enumerate(union)}
        hidden_slots = []
        for name in hidable:
            position = slot_of.get(name)
            if position is None:
                return None
            hidden_slots.append(position)
        # Hiding is applied as a set: the key must not depend on the order
        # the concrete names happen to sort in (replicas sort differently).
        hidden_slots.sort()
        hidden = set(hidable)
        digest = hashlib.sha256(
            f"step|{left.key}|{right.key}|sync={sync}|hide={tuple(hidden_slots)}".encode()
        ).hexdigest()
        return StepPlan(
            base=digest,
            slots=tuple(name for name in union if name not in hidden),
        )

    @staticmethod
    def result_key(plan: StepPlan, *, reduction: str) -> str:
        """Dictionary key of one step under the given bisimulation mode."""
        # "|v=1" is kept so persisted caches and sweep checkpoints stay valid.
        return plan.base + f"|{reduction}|v=1"

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> CacheEntry | None:
        return self._entries.get(key)

    def store(
        self,
        key: str,
        plan: StepPlan,
        automaton: IOIMC,
        *,
        states_before: int,
        transitions_before: int,
        compose_seconds: float,
        reduce_seconds: float,
    ) -> bool:
        """Memoise a freshly computed step result.

        Returns ``False`` — and poisons nothing — when the result violates a
        cacheability guard (non-tau internal actions, or a visible alphabet
        diverging from the planned slots, which would mean the slot algebra
        no longer mirrors the real composition).  A ``False`` return tells
        the composer to drop the subtree's fingerprint so no descendant key
        is derived from an unverified identity.
        """
        signature = automaton.signature
        if signature.internals - {TAU}:
            return False
        if set(plan.slots) != set(signature.visible):
            return False
        summary = automaton.summary()
        self._entries[key] = CacheEntry(
            automaton=automaton,
            slots=plan.slots,
            states_before=states_before,
            transitions_before=transitions_before,
            states_after=summary["states"],
            transitions_after=summary["transitions"],
            compose_seconds=compose_seconds,
            reduce_seconds=reduce_seconds,
        )
        self.stores += 1
        return True

    # ------------------------------------------------------------------ #
    # merging (parallel subtree aggregation)
    # ------------------------------------------------------------------ #
    def merge_from(self, other: "QuotientCache") -> bool:
        """Import a worker cache's entries and counters into this cache.

        The parallel composer gives every worker a fresh cache and merges
        them back in deterministic (spine) order, so duplicate subtrees the
        dispatcher did not send out are served in the parent exactly as a
        serial run would have served them.

        Digest classes are anchored by their first representative.  Where
        both caches know a digest, the two representatives are verified
        isomorphic *before anything is imported*; a failed verification —
        a cross-process digest collision — aborts the whole import (the
        worker's step keys were derived from the colliding identity) and
        returns ``False`` so the caller can drop the worker's fingerprint.
        Entries already present keep the incumbent: first-stored witnesses
        stay authoritative for later rebasing.
        """
        for digest, (candidate, candidate_slots) in other._leaf_representatives.items():
            mine = self._leaf_representatives.get(digest)
            if mine is not None and not _verified_isomorphic(
                candidate, candidate_slots, mine[0], mine[1]
            ):
                return False
        for digest, representative in other._leaf_representatives.items():
            self._leaf_representatives.setdefault(digest, representative)
        for key, entry in other._entries.items():
            self._entries.setdefault(key, entry)
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.saved_seconds += other.saved_seconds
        return True

    # ------------------------------------------------------------------ #
    # persistence hooks (see repro.resilience.diskcache)
    # ------------------------------------------------------------------ #
    def entries(self) -> dict[str, CacheEntry]:
        """Snapshot of the memoised step entries, keyed as stored.

        The on-disk persistence layer iterates this; leaf fingerprints and
        representatives are *not* part of the snapshot — they recompute
        deterministically from the actual leaves of the next run, and the
        algebraic step keys derived from them match by construction.
        """
        return dict(self._entries)

    def restore(self, key: str, entry: CacheEntry) -> None:
        """Re-insert one persisted entry without touching the counters.

        Counter state travels separately (the persistence layer restores the
        saved ``hits``/``misses``/``stores`` block), so re-loading a cache
        and then resuming a run reproduces the per-evaluation counter deltas
        of the uninterrupted run exactly.
        """
        self._entries[key] = entry

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, float | int]:
        """Hit/miss counters (for benchmarks and the CLIs)."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "saved_seconds": round(self.saved_seconds, 4),
        }

    def snapshot(self) -> tuple[int, int, int, float]:
        """Current ``(hits, misses, stores, saved_seconds)`` counters.

        Callers that share one cache across many evaluations (the sweep
        engine evaluates thousands of points against a single instance) take
        a snapshot before and after each evaluation and report the
        difference as that evaluation's cache traffic.
        """
        return (self.hits, self.misses, self.stores, self.saved_seconds)


_UNSET = object()


def positional_form(automaton: IOIMC) -> tuple[str, tuple[str, ...]]:
    """Name-free digest + slot order of a leaf block, in one pass.

    Actions are renumbered by first structural use — the position of their
    first edge in the state-numbered transition tables — with ties (unused
    actions) broken by kind and natural name order.  The digest encodes the
    renumbered structure exactly (states, initial, labels, kinds, every
    edge, every rate bit) through the shared
    :func:`repro.ioimc.canonical.encode_renumbered`; equal digests are a
    *candidate* match that :func:`_verified_isomorphic` confirms before the
    class is trusted.
    """
    index = automaton.index()
    interactive = index.interactive_csr
    num_actions = len(index.actions)

    first_use = np.full(num_actions, interactive.num_edges, dtype=np.int64)
    actions = interactive.action.astype(np.int64)
    if len(actions):
        np.minimum.at(first_use, actions, np.arange(len(actions), dtype=np.int64))
    order = sorted(
        range(num_actions),
        key=lambda aid: (
            int(first_use[aid]),
            _KIND_CODE.get(index.kinds[aid], ";"),
            natural_sort_key(index.actions[aid]),
        ),
    )
    slot_of = np.empty(num_actions, dtype=np.int64)
    slot_of[order] = np.arange(num_actions, dtype=np.int64)

    digest = encode_renumbered(
        automaton,
        index,
        version="ioimc-positional-v1",
        state_of=None,  # leaves keep their generation state numbering
        action_of=slot_of,
        action_order=order,
    )
    slots = tuple(
        index.actions[aid]
        for aid in order
        if index.kinds[aid] is not ActionKind.INTERNAL
    )
    return digest, slots


def _verified_isomorphic(
    candidate: IOIMC,
    candidate_slots: tuple[str, ...],
    reference: IOIMC,
    reference_slots: tuple[str, ...],
) -> bool:
    """Check that renaming ``candidate`` slot-wise yields exactly ``reference``.

    Exact check over the identity state numbering (replicated instances are
    generated in the same state order): equal state counts, initial states,
    labels, slot kinds, interactive edge sets under the renaming, and
    bit-equal Markovian rows.  Deliberately strict — a failure only costs
    caching, never correctness.
    """
    if (
        candidate.num_states != reference.num_states
        or candidate.initial != reference.initial
        or candidate.labels != reference.labels
        or len(candidate_slots) != len(reference_slots)
    ):
        return False
    candidate_signature = candidate.signature
    reference_signature = reference.signature
    rename = dict(zip(candidate_slots, reference_slots))
    for old, new in rename.items():
        if candidate_signature.kind_of(old) is not reference_signature.kind_of(new):
            return False
    candidate_index = candidate.index()
    reference_index = reference.index()
    c_int = candidate_index.interactive_csr
    r_int = reference_index.interactive_csr
    if c_int.num_edges != r_int.num_edges:
        return False
    remap = np.fromiter(
        (
            reference_index.id_of.get(rename.get(name, name), -1)
            for name in candidate_index.actions
        ),
        dtype=np.int64,
        count=len(candidate_index.actions),
    )
    if (remap[c_int.action] < 0).any():
        return False

    def sorted_triples(source, action, target):
        order = np.lexsort((target, action, source))
        return source[order], action[order], target[order]

    c_triples = sorted_triples(
        c_int.source.astype(np.int64), remap[c_int.action], c_int.target.astype(np.int64)
    )
    r_triples = sorted_triples(
        r_int.source.astype(np.int64),
        r_int.action.astype(np.int64),
        r_int.target.astype(np.int64),
    )
    if not all(np.array_equal(a, b) for a, b in zip(c_triples, r_triples)):
        return False
    c_markov = candidate_index.markovian_csr()
    r_markov = reference_index.markovian_csr()
    if c_markov.num_edges != r_markov.num_edges:
        return False

    def sorted_rates(csr):
        order = np.lexsort((csr.rate, csr.target, csr.source))
        return (
            csr.source[order].astype(np.int64),
            csr.target[order].astype(np.int64),
            csr.rate[order],
        )

    return all(
        np.array_equal(a, b) for a, b in zip(sorted_rates(c_markov), sorted_rates(r_markov))
    )


def resolve_cache(cache: "QuotientCache | str | None") -> QuotientCache | None:
    """Normalise the ``cache=`` policy argument of the composer stack.

    ``"on"`` creates a fresh :class:`QuotientCache`, ``"off"``/``None``
    disables caching, and an existing instance is passed through (sharing
    it across runs compounds the hits).
    """
    if cache is None:
        return None
    if isinstance(cache, QuotientCache):
        return cache
    if cache == "on":
        return QuotientCache()
    if cache == "off":
        return None
    raise ValueError(
        f'unknown cache policy {cache!r} (expected "on", "off", None or a '
        "QuotientCache instance)"
    )


__all__ = [
    "CacheEntry",
    "QuotientCache",
    "StepPlan",
    "SubtreeFingerprint",
    "positional_form",
    "resolve_cache",
]
