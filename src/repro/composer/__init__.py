"""Compositional aggregation: composing and reducing the block I/O-IMCs."""

from ..config import REDUCTION_MODES
from .cache import CacheEntry, QuotientCache, SubtreeFingerprint, resolve_cache
from .composer import (
    ComposedSystem,
    CompositionOrder,
    CompositionStatistics,
    CompositionStep,
    Composer,
    compose_model,
)
from .ordering import (
    ORDER_POLICIES,
    GateScheduler,
    flatten_order,
    hierarchical_order,
    order_hook,
)

__all__ = [
    "ORDER_POLICIES",
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
    "order_hook",
    "resolve_cache",
]
