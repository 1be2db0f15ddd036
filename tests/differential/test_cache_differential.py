"""Cache-vs-no-cache differential property suite.

For every model of the 54-model corpus (four generator families) and every
reduction mode, the pipeline with the isomorphism-aware quotient cache
enabled must be **bit-identical** to the uncached pipeline: the same
per-step state/transition trajectory (including the hidden-action schedule
and the reduce decisions), the same final CTMC, and the exact same
steady-state measure — not merely within tolerance.  A cache hit rebases a
memoised quotient through a renaming witness, so any unsoundness in the
fingerprinting, the witness derivation or the rebase shows up here as a
hard inequality on some family/seed.

Run with ``pytest tests/differential --run-differential``.
"""

import pytest

from repro.arcade.semantics import translate_model
from repro.composer import compose_model
from repro.ctmc import steady_state_unavailability

from .test_differential import CORPUS, REDUCTIONS, build_model

pytestmark = pytest.mark.differential

#: Translated models, built once per module (shared across the three modes).
_translated_cache: dict = {}


def translated_of(family: str, seed: int):
    key = (family, seed)
    if key not in _translated_cache:
        _translated_cache[key] = translate_model(build_model(family, seed))
    return _translated_cache[key]


def _trajectory(system):
    return [
        (
            step.states_before_reduction,
            step.transitions_before_reduction,
            step.states_after_reduction,
            step.transitions_after_reduction,
            step.hidden_actions,
        )
        for step in system.statistics.steps
    ]


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("family,seed", CORPUS)
def test_cached_pipeline_is_bit_identical(family, seed, reduction):
    translated = translated_of(family, seed)
    uncached = compose_model(translated, reduction=reduction)
    cached = compose_model(translated, reduction=reduction, cache="on")

    assert _trajectory(cached) == _trajectory(uncached)
    assert cached.ioimc.summary() == uncached.ioimc.summary()
    assert cached.ctmc.summary() == uncached.ctmc.summary()
    # Bit-identical, not approximately equal: the rebased quotients must be
    # exactly what the uncached pipeline computes.
    assert steady_state_unavailability(cached.ctmc) == steady_state_unavailability(
        uncached.ctmc
    )
