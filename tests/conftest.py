from collections import Counter

import pytest

from hilbfock import counts, partitions, tables

# Every lru_cache of the package; with tables._TABLES these are all its
# module-level caches (tests/test_layering.py pins that set).
LRU_CACHES = (partitions.partitions_of, partitions._fill,
              partitions.partition_census, partitions.splitting_drops,
              counts.sym_total_dim)


@pytest.fixture
def reset_caches(monkeypatch):
    """Empty every module-level cache; call the value to empty them again."""
    def reset():
        monkeypatch.setattr(tables, "_TABLES", {})
        for cached in LRU_CACHES:
            cached.cache_clear()
    reset()
    return reset


@pytest.fixture
def table_writes(monkeypatch, reset_caches):
    """From empty caches on, a Counter of the writes to each _TABLES key."""
    writes = Counter()

    class CountedWrites(dict):
        def __setitem__(self, key, value):
            writes[key] += 1
            super().__setitem__(key, value)

    monkeypatch.setattr(tables, "_TABLES", CountedWrites())
    return writes
