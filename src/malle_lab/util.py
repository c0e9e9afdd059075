"""Shared plumbing: an order-preserving parallel map and exact JSON typing.

The caller passes the worker count (the CLI's `--workers`); nothing here reads
the environment.  `json_typed` is the one type check for numbers and strings
read from input files (JSONL field lists, wild, r_k and scheme files).
"""

from __future__ import annotations

__all__ = ["json_typed", "json_typed_items", "pmap"]


def pmap(fn, items, workers: int = 1):
    """Order-preserving map; results are identical for any worker count."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    import multiprocessing as mp

    with mp.Pool(min(workers, len(items))) as pool:
        return pool.map(fn, items)


def json_typed(value, kind: type, what: str):
    """`value` if its type is exactly `kind`, else TypeError.

    Outside values are never coerced: int admits neither 1.0 nor True (both
    compare equal to 1), and str admits no number.
    """
    if type(value) is not kind:
        raise _type_error(value, kind, what)
    return value


def json_typed_items(values, kind: type, what: str) -> tuple:
    """tuple(values) if the type of every item is exactly `kind`, else TypeError."""
    items = tuple(values)
    for value in items:
        if type(value) is not kind:
            raise _type_error(value, kind, what)
    return items


def _type_error(value, kind: type, what: str) -> TypeError:
    name = "integer" if kind is int else "string"
    return TypeError(f"{what} must be a JSON {name}, got {value!r}")
