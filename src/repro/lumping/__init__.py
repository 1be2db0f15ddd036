"""State-space reduction: bisimulation lumping and structural reductions.

This package plays the role of CADP's aggregation step in the paper's tool
chain (Section 4): after every composition step the intermediate I/O-IMC is
reduced so that the state-space explosion is kept in check.

All three minimisation passes (strong, weak and branching — the notion
CADP's minimisation in the paper actually uses) run on the vectorised
worklist refinement engine of :mod:`repro.lumping.refinement`, operating on
the flat CSR adjacency of :class:`repro.ioimc.TransitionIndex`: block
signatures are encoded as integer keys and grouped with ``np.unique``
instead of per-state Python tuples — near-linear in the transition system
instead of the per-round full recomputation a naive implementation
performs, with numpy constants on the inner loop.  The two tau-abstracting
passes share their closure/quantisation/quotient machinery through
:mod:`repro.lumping.closure`.  See ``docs/architecture.md`` for the engine
and backend layout.
"""

from .branching import (
    branching_bisimulation_partition,
    minimize_branching,
)
from .partition import Partition
from .refinement import refine_partition_vectorized, refine_with_worklist
from .reductions import (
    eliminate_vanishing_chains,
    maximal_progress_cut,
    prune_unreachable,
)
from .strong import (
    LumpingResult,
    minimize_strong,
    quotient_by_partition,
    strong_bisimulation_partition,
)
from .weak import minimize_weak, weak_bisimulation_partition

__all__ = [
    "Partition",
    "LumpingResult",
    "branching_bisimulation_partition",
    "refine_partition_vectorized",
    "refine_with_worklist",
    "eliminate_vanishing_chains",
    "maximal_progress_cut",
    "prune_unreachable",
    "minimize_branching",
    "minimize_strong",
    "minimize_weak",
    "quotient_by_partition",
    "strong_bisimulation_partition",
    "weak_bisimulation_partition",
]
