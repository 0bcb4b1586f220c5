"""
The table cache of Goettsche's product (product) and of the strata side,
which never imports it: goettsche (strata, symmetric products) and counts
(K-theory, Euler, punctual).  Every table lives in the one dict _TABLES,
looked up here at call time, so replacing it empties them all.
"""

from functools import wraps

_TABLES = {}  # (rows, state) per (builder, key); one value per (f, *args)


def cached_table(build):
    """
    build(key, order, kept) as a cached table of rows 0..order; kept, the
    (rows, state) of the longest build or None, stays unchanged.
    """
    @wraps(build)
    def table(key, order):
        if order < 0:
            raise ValueError("order must be non-negative")
        kept = _TABLES.get((build, key))
        if kept is None or order >= len(kept[0]):
            kept = _TABLES[build, key] = build(key, order, kept)
        return kept[0][:order + 1]
    return table


def cached(key, build):
    """The value kept under key, made by build() on the first call."""
    value = _TABLES.get(key)
    if value is None:
        value = _TABLES[key] = build()
    return value
