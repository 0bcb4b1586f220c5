import sys

import pytest

from hilbfock import tables


def package_lru_caches():
    """Every lru_cache defined in a loaded hilbfock module."""
    return [obj for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "hilbfock"
            for obj in vars(module).values()
            if hasattr(obj, "cache_clear") and obj.__module__ == name]


@pytest.fixture
def reset_caches(monkeypatch):
    """Empty every module-level cache; call the value to empty them again."""
    def reset():
        monkeypatch.setattr(tables, "_TABLES", {})
        for cached in package_lru_caches():
            cached.cache_clear()
    reset()
    return reset
