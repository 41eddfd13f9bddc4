"""Multi-index enumeration in graded reverse-lexicographic order.

Multi-indices of a fixed dimension are ordered by total order, and graded
reverse-lexicographic (grevlex) within each total order: the last entry
descending, ties broken the same way on the entries before it.  The
flattened layout concatenates the orders 0, 1, ..., k - 1; it is the slot
order of the symbol tables and of :func:`symalg.coefficient_recursion`'s
(alpha, beta) keys.
"""
from __future__ import annotations

from functools import lru_cache


MultiIndex = tuple[int, ...]


def _grevlex(total: int, parts: int):
    """Yield the `parts`-tuples of nonnegative ints summing to `total`, in
    grevlex order: the last entry descending, then the prefix's order."""
    if parts == 1:
        yield (total,)
        return
    for last in range(total, -1, -1):
        for prefix in _grevlex(total - last, parts - 1):
            yield prefix + (last,)


@lru_cache(maxsize=None)
def enumerate_indices(d: int, k: int) -> tuple[MultiIndex, ...]:
    """The d-dimensional multi-indices of order exactly k, in grevlex order.

    There are C(k + d - 1, d - 1) of them (stars and bars).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    return tuple(_grevlex(k, d))


@lru_cache(maxsize=None)
def flattened_indices(d: int, max_order: int) -> tuple[MultiIndex, ...]:
    """Concatenated enumerations of orders 0, 1, ..., max_order - 1."""
    out: list[MultiIndex] = []
    for k in range(max_order):
        out.extend(enumerate_indices(d, k))
    return tuple(out)


@lru_cache(maxsize=None)
def flattened_position(d: int, eps: MultiIndex) -> int:
    """Position of a multi-index in the flattened layout."""
    k = sum(eps)
    return len(flattened_indices(d, k)) + enumerate_indices(d, k).index(eps)
