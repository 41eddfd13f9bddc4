"""Retired: the compiled-series evaluator.

Every evaluation mode runs on the flow jet of :mod:`series_eval`, and the
exact series of :mod:`symalg` are read through ``SymPoly.eval``.  Only
``USING_NUMBA`` is left, for the benchmark's machine facts; no path of the
package uses numba.
"""

USING_NUMBA = False
