"""Closed-form DDS measures, independent of the compositional pipeline.

The DDS subsystems (the processor pair, each controller set, each disk
cluster) share no components and no repair units, so the system is up
exactly when every subsystem is up, and the subsystems evolve independently.
Within a subsystem every component has the same failure rate and the one
FCFS repair unit repairs at one rate, so the subsystem is a birth-death
chain on its number of failed components.  (The spare processor fails at
the same rate dormant or active, so the spare management unit changes no
rate.)  Each subsystem is down from ``down_from`` failed components on.

These formulas serve as the correctness oracle for every seed, because the
seed rescales the failure rates and the pinned seed-commit values hold only
for the paper's rates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm


def subsystems(parameters) -> list[tuple[int, float, int]]:
    """``(components, failure rate, down_from)`` per DDS subsystem."""
    p = parameters
    return (
        [(2, p.processor_failure_rate, 2)]
        + [(p.controllers_per_set, p.processor_failure_rate, p.controllers_per_set)]
        * p.num_controller_sets
        + [(p.disks_per_cluster, p.disk_failure_rate, p.disks_down_for_cluster_failure)]
        * p.num_clusters
    )


def _system_down(down_probabilities) -> float:
    """``1 - prod(1 - q)``, kept accurate for tiny ``q``."""
    return -math.expm1(sum(math.log1p(-q) for q in down_probabilities))


def _generator(size: int, failure_rate: float, repair_rate: float) -> np.ndarray:
    """Birth-death generator on ``0 .. size`` failed components."""
    q = np.zeros((size + 1, size + 1))
    for failed in range(size):
        q[failed, failed + 1] = (size - failed) * failure_rate
        q[failed + 1, failed] = repair_rate
    q -= np.diag(q.sum(axis=1))
    return q


def steady_unavailability(parameters) -> float:
    """Long-run probability that the system is down."""
    down = []
    for size, failure_rate, down_from in subsystems(parameters):
        weights = [1.0]
        for failed in range(size):
            weights.append(
                weights[-1] * (size - failed) * failure_rate / parameters.repair_rate
            )
        down.append(sum(weights[down_from:]) / sum(weights))
    return _system_down(down)


def point_unavailability(parameters, time: float) -> float:
    """Probability that the system is down at ``time``, starting all up."""
    down = []
    for size, failure_rate, down_from in subsystems(parameters):
        row = expm(_generator(size, failure_rate, parameters.repair_rate) * time)[0]
        down.append(float(row[down_from:].sum()))
    return _system_down(down)


def no_repair_unreliability(parameters, time: float) -> float:
    """Probability of a system failure within ``time`` when nothing is repaired."""
    down = []
    for size, failure_rate, down_from in subsystems(parameters):
        failed = -math.expm1(-failure_rate * time)
        down.append(
            sum(
                math.comb(size, k) * failed**k * (1.0 - failed) ** (size - k)
                for k in range(down_from, size + 1)
            )
        )
    return _system_down(down)
