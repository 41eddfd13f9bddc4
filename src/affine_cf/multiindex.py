"""Multi-index enumeration in graded reverse-lexicographic order.

Multi-indices of a fixed dimension are ordered by total order, and graded
reverse-lexicographic (grevlex) within each total order: the last entry
descending, ties broken the same way on the entries before it.  The
flattened layout concatenates the orders 0, 1, ..., k - 1; it is the slot
order of the symbol's derivative rows and of
:func:`symalg.coefficient_recursion`'s (alpha, beta) keys.
:func:`_checked_order` is the one check of an integer argument (an order,
a dimension), for the exact engine and the numeric modes alike.
"""
from __future__ import annotations

import operator
from functools import lru_cache


MultiIndex = tuple[int, ...]


def _checked_order(order, lowest: int = 1,
                   name: str = "truncation order") -> int:
    """An integer argument as a Python int (a numpy int too); a bool,
    anything else that is not an integer (2.5, 4.0, "8") and a value
    below ``lowest`` are refused with a ValueError naming ``name``."""
    try:
        value = operator.index(order)
    except TypeError:
        value = None
    if value is None or isinstance(order, bool):
        raise ValueError(f"{name} must be an int, got {order!r}")
    if value < lowest:
        raise ValueError(f"{name} must be >= {lowest}")
    return value


def _grevlex(total: int, parts: int):
    """Yield the `parts`-tuples of nonnegative ints summing to `total`, in
    grevlex order: the last entry descending, then the prefix's order."""
    if parts == 1:
        yield (total,)
        return
    for last in range(total, -1, -1):
        for prefix in _grevlex(total - last, parts - 1):
            yield prefix + (last,)


@lru_cache(maxsize=None, typed=True)  # True and 4.0 miss 1's and 4's rows
def enumerate_indices(d: int, k: int) -> tuple[MultiIndex, ...]:
    """The d-dimensional multi-indices of order exactly k, in grevlex order.

    There are C(k + d - 1, d - 1) of them (stars and bars).
    """
    d = _checked_order(d, name="dimension")
    return tuple(_grevlex(_checked_order(k, 0, "order"), d))


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
