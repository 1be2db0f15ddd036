"""The hiding operator for I/O-IMCs.

``hide A in P`` (Section 2 of the paper) turns the output actions in the set
``A`` into internal actions, so that no further synchronisation over them is
possible.  In the compositional aggregation pipeline an action is hidden as
soon as every component that listens to it has been composed in — this is
what makes the subsequent minimisation step effective.

Hidden actions are renamed to the anonymous internal action ``tau``: internal
actions are unobservable, so their identity is irrelevant for every measure
computed downstream, and a single anonymous name lets the minimisation merge
states that only differ in the *name* of a hidden signal.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .actions import TAU, Signature
from .indexed import InteractiveCSR
from .ioimc import IOIMC


def hide(automaton: IOIMC, actions: Iterable[str]) -> IOIMC:
    """Return ``hide actions in automaton`` with the hidden actions renamed to ``tau``.

    Parameters
    ----------
    automaton:
        The I/O-IMC to transform.
    actions:
        Output actions to hide.  Actions not present in the signature are
        silently ignored (this keeps the composer's hiding schedule simple).
    """
    signature = automaton.signature
    to_hide = frozenset(actions) & signature.outputs
    if not to_hide:
        return automaton
    hidden_signature = Signature(
        signature.inputs, signature.outputs - to_hide, signature.internals | {TAU}
    )
    # Hiding only renames actions: the transition structure (row offsets,
    # sources, targets, rates) is shared, only the action column is remapped.
    index = automaton.index()
    new_id_of = {
        action: aid for aid, action in enumerate(sorted(hidden_signature.all_actions))
    }
    remap = np.fromiter(
        (new_id_of[TAU if action in to_hide else action] for action in index.actions),
        dtype=np.int32,
        count=len(index.actions),
    )
    old = index.interactive_csr
    return IOIMC.trusted(
        automaton.name,
        hidden_signature,
        automaton.num_states,
        automaton.initial,
        InteractiveCSR(old.indptr, old.source, remap[old.action], old.target),
        index.markovian_csr,
        automaton.labels,
        automaton.state_names,
    )


def hide_all_outputs(automaton: IOIMC) -> IOIMC:
    """Hide every output action (used on the fully composed, closed system)."""
    return hide(automaton, automaton.signature.outputs)


__all__ = ["hide", "hide_all_outputs"]
