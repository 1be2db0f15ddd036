"""Small shared numpy helpers for the CSR-based engines.

The vectorised refinement (:mod:`repro.lumping.refinement`) and the batched
product construction (:mod:`repro.ioimc.composition`) both operate on flat
CSR adjacency arrays (see :mod:`repro.ioimc.indexed`).  The helpers here are
the handful of index-arithmetic idioms they share.
"""

from __future__ import annotations

import numpy as np


def gather_row_indices(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Edge indices of the CSR ``rows``, concatenated in row order.

    For ``rows = [r0, r1, ...]`` returns
    ``[indptr[r0] .. indptr[r0+1]-1, indptr[r1] .. indptr[r1+1]-1, ...]`` —
    the standard repeat/arange expansion, entirely vectorised.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)


def first_occurrence_renumber(values: np.ndarray) -> np.ndarray:
    """Renumber integer ``values`` to 0..k-1 by order of first occurrence.

    Matches the ``dict.setdefault`` numbering the dict-based engines produce
    (:meth:`repro.lumping.partition.Partition.from_keys`).
    """
    _, first_index, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank[inverse]


def csr_indptr(source: np.ndarray, num_rows: int) -> np.ndarray:
    """Row-offset array of a CSR table from its per-edge source column.

    ``source`` must already be grouped by row (ascending); the result has
    ``num_rows + 1`` ``int64`` entries with the usual
    ``indptr[r]:indptr[r+1]`` row spans.
    """
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=num_rows), out=indptr[1:])
    return indptr


def dedupe_packed_triples(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    b_span: int,
    c_span: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``(a, b, c)`` int64 triples lexicographically and drop duplicates.

    ``b_span``/``c_span`` are exclusive upper bounds on ``b``/``c``.  Packs
    the triple into one ``int64`` key when the ranges allow it (a single
    ``np.unique`` sort); falls back to ``np.lexsort`` when packing would
    overflow.
    """
    ab = a * b_span + b
    max_ab = int(ab.max()) + 1 if len(ab) else 1
    if c_span <= (2**62) // max_ab:
        packed = np.unique(ab * c_span + c)
        ab, c = np.divmod(packed, c_span)
    else:
        order = np.lexsort((c, ab))
        ab, c = ab[order], c[order]
        keep = np.empty(len(c), dtype=bool)
        keep[:1] = True
        np.logical_or(np.diff(ab) != 0, np.diff(c) != 0, out=keep[1:])
        ab, c = ab[keep], c[keep]
    a, b = np.divmod(ab, b_span)
    return a, b, c


def round_rates_to_ids(sums: np.ndarray) -> tuple[np.ndarray, int]:
    """Intern float rate sums to small ids after 10-significant-digit rounding.

    Applies exactly the ``float(f"{rate:.9e}")`` quantisation of the
    dict-based signature code (so vectorised and scalar engines group rates
    identically), formatting only the *unique* sums through Python.
    Returns ``(id_per_sum, number_of_distinct_ids)``.
    """
    unique_sums, inverse = np.unique(sums, return_inverse=True)
    rounded = np.array(
        [float(f"{value:.9e}") for value in unique_sums.tolist()], dtype=np.float64
    )
    _, rate_ids = np.unique(rounded, return_inverse=True)
    distinct = int(rate_ids.max()) + 1 if len(rate_ids) else 0
    return rate_ids[inverse], distinct


__all__ = [
    "csr_indptr",
    "dedupe_packed_triples",
    "first_occurrence_renumber",
    "gather_row_indices",
    "round_rates_to_ids",
]
