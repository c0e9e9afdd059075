"""Shared plumbing: an order-preserving parallel map.

The caller passes the worker count (the CLI's `--workers`); nothing here reads
the environment.
"""

from __future__ import annotations

__all__ = ["pmap"]


def pmap(fn, items, workers: int = 1):
    """Order-preserving map; results are identical for any worker count."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    import multiprocessing as mp

    with mp.Pool(min(workers, len(items))) as pool:
        return pool.map(fn, items)
