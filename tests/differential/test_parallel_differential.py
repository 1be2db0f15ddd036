"""Parallel-vs-serial differential property suite.

For every model of the corpus (and a reduction-mode sweep on a subset), a
``jobs > 1`` compositional pipeline must produce exactly what the serial
pipeline produces: the same per-step shape trajectory (descriptions, sizes,
hidden-action schedule, reduce decisions), the same final CTMC, and the
bit-identical steady-state measure.  The worker count to exercise comes
from ``--compose-jobs`` (default 1, in which case the parallel run *is* the
serial run and the suite degenerates to a smoke test); CI runs it with
``--compose-jobs 2``.

Cache-hit flags are deliberately excluded from the comparison: on orders
whose isomorphic subtrees straddle the join spine the parallel dispatch
legitimately books hits on different steps than the serial walk (the result
is identical either way — see ``tests/test_parallel.py`` for where flags
*are* pinned).

Run with ``pytest tests/differential --run-differential --compose-jobs 2``.
"""

import pytest

from repro.arcade.semantics import translate_model
from repro.composer import compose_model
from repro.ctmc import steady_state_unavailability

from .test_differential import CORPUS, REDUCTIONS, build_model

pytestmark = pytest.mark.differential

_translated_cache: dict = {}


def translated_of(family: str, seed: int):
    key = (family, seed)
    if key not in _translated_cache:
        _translated_cache[key] = translate_model(build_model(family, seed))
    return _translated_cache[key]


def _shape_trajectory(system):
    return [
        (
            step.description,
            step.operand_blocks,
            step.states_before_reduction,
            step.transitions_before_reduction,
            step.states_after_reduction,
            step.transitions_after_reduction,
            step.hidden_actions,
        )
        for step in system.statistics.steps
    ]


@pytest.mark.parametrize("family,seed", CORPUS)
def test_parallel_pipeline_is_bit_identical(family, seed, compose_jobs):
    translated = translated_of(family, seed)
    serial = compose_model(translated)
    parallel = compose_model(translated, jobs=compose_jobs)

    assert _shape_trajectory(parallel) == _shape_trajectory(serial)
    assert parallel.ioimc.summary() == serial.ioimc.summary()
    assert parallel.ctmc.summary() == serial.ctmc.summary()
    assert steady_state_unavailability(parallel.ctmc) == steady_state_unavailability(
        serial.ctmc
    )


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("family,seed", CORPUS[::9])
def test_parallel_with_cache_across_reductions(family, seed, reduction, compose_jobs):
    """Cache + parallelism + every reduction mode on a corpus subset."""
    translated = translated_of(family, seed)
    serial = compose_model(translated, reduction=reduction, cache="on")
    parallel = compose_model(
        translated, reduction=reduction, cache="on", jobs=compose_jobs
    )

    assert _shape_trajectory(parallel) == _shape_trajectory(serial)
    assert parallel.ctmc.summary() == serial.ctmc.summary()
    assert steady_state_unavailability(parallel.ctmc) == steady_state_unavailability(
        serial.ctmc
    )
