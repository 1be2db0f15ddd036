"""Compositional aggregation: composing and reducing the block I/O-IMCs."""

from .cache import CacheEntry, QuotientCache, SubtreeFingerprint, resolve_cache
from .composer import (
    REDUCTION_MODES,
    ComposedSystem,
    CompositionOrder,
    CompositionStatistics,
    CompositionStep,
    Composer,
    compose_model,
)
from .ordering import GateScheduler, flatten_order, hierarchical_order

__all__ = [
    "REDUCTION_MODES",
    "CacheEntry",
    "ComposedSystem",
    "CompositionOrder",
    "CompositionStatistics",
    "CompositionStep",
    "Composer",
    "GateScheduler",
    "QuotientCache",
    "SubtreeFingerprint",
    "compose_model",
    "flatten_order",
    "hierarchical_order",
    "resolve_cache",
]
