"""Deterministic helper for optionally-threaded sweeps."""

from __future__ import annotations

__all__ = ["map_ordered"]


def map_ordered(fn, items, threads: int = 1) -> list:
    """Apply ``fn`` to every item, preserving input order in the result.

    With ``threads > 1`` evaluation runs on a thread pool (the heavy
    work is inside LAPACK, which releases the GIL); assembly order is
    by input index either way, so results are deterministic.  The pool
    module is imported only then, so ``import strainkp`` does not load
    ``concurrent.futures`` and its ``threading``/``logging`` imports.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
