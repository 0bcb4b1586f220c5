from collections import Counter
from math import prod
from sys import getsizeof

import pytest

from hilbfock import partitions, stratification
from hilbfock.counts import punctual_poincare
from hilbfock.partitions import (Partition, partitions_of, refines,
                                 splittings_merging_to, splittings_with_drop)
from hilbfock.selfcheck import check_local_stalks, check_punctual
from hilbfock.poly import CoeffPoly
from hilbfock.stratification import (StalkTable, global_degeneration_check,
                                     local_fiber_check, stalk_table,
                                     support_strata)
from hilbfock.surfaces import ABELIAN, DELTA, K3, P2, P1XP1

PRESETS = (DELTA, P2, P1XP1, K3, ABELIAN)


def test_support_strata_examples():
    assert support_strata(5, 0) == list(partitions_of(5))
    assert support_strata(3, 2) == [Partition((3,))]
    for n in range(1, 9):
        assert support_strata(n, n) == []
        assert support_strata(n, n + 3) == []


def test_support_strata_lists_the_filtered_partitions_in_order():
    # the listing walks only the partitions it keeps; the oracle filters all
    for n in range(1, 17):
        for h in range(n + 2):
            assert support_strata(n, h) == [
                a for a in partitions_of(n) if a.length <= n - h]


def test_support_strata_claims_each_row_at_its_length(monkeypatch):
    # the claim once sized every row at n - h parts, whatever its length
    claims = []
    monkeypatch.setattr(stratification, "bytearray", claims.append,
                        raising=False)
    base = getsizeof(Partition(())) + getsizeof(())
    for n in range(1, 17):
        for h in range(n + 1):
            claims.clear()
            rows = support_strata(n, h)
            assert sum(claims) == sum(base + 8 * (nu.length + 1)
                                      for nu in rows), (n, h)


def test_support_strata_monotone():
    for n in range(1, 9):
        for h in range(n):
            larger = set(map(repr, support_strata(n, h)))
            smaller = set(map(repr, support_strata(n, h + 1)))
            assert smaller <= larger


def test_stalk_table_examples():
    n = 6
    ones = Partition((1,) * n)
    assert stalk_table(ones).rows == (1,) + (0,) * (n - 1)
    assert stalk_table(Partition((2, 1))).rows == (1, 1, 0)
    # single point: rows count partitions by length
    for n in range(1, 8):
        rows = stalk_table(Partition((n,))).rows
        for h in range(n):
            expect = sum(1 for p in partitions_of(n) if p.length == n - h)
            assert rows[h] == expect
        assert stalk_table(Partition((n,))).poincare() == punctual_poincare(n)


def test_stalk_table_validation():
    with pytest.raises(ValueError):
        StalkTable(Partition((2,)), (1,))
    with pytest.raises(ValueError):
        StalkTable(Partition((2,)), (0, 1))


def test_stalk_positive_iff_supported():
    # rows[h] > 0 exactly when some length-(n-h) partition refines to nu
    for n in range(1, 9):
        for nu in partitions_of(n):
            rows = stalk_table(nu).rows
            for h in range(n):
                witness = any(
                    a.length == n - h and refines(a, nu)
                    for a in partitions_of(n))
                assert (rows[h] > 0) == witness
                strata = support_strata(n, h)
                if rows[h] > 0:
                    assert any(a.length == n - h and refines(a, nu)
                               for a in strata)


def test_stalk_rows_split_by_target():
    for n in range(1, 8):
        for nu in partitions_of(n):
            rows = stalk_table(nu).rows
            for h in range(n):
                total = sum(len(splittings_merging_to(a, nu))
                            for a in partitions_of(n) if a.length == n - h)
                assert rows[h] == total


def test_stalk_rows_count_splittings_by_drop():
    for n in range(1, 9):
        for nu in partitions_of(n):
            assert list(stalk_table(nu).rows) == [
                len(splittings_with_drop(h, nu)) for h in range(n)]


@pytest.mark.parametrize("n", range(1, 11))
def test_local_fiber_check_all(n):
    for nu in partitions_of(n):
        assert local_fiber_check(nu)


def test_local_fiber_check_examples():
    assert local_fiber_check(Partition((2, 1)))
    assert stalk_table(Partition((2, 1))).poincare() == \
        CoeffPoly({(0,): 1, (2,): 1})
    assert local_fiber_check(Partition((1, 1, 1, 1)))
    assert local_fiber_check(Partition((7,)))


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_global_degeneration(model):
    for n in range(9):
        assert global_degeneration_check(model, n)


def test_global_degeneration_trivial_cases():
    for model in PRESETS:
        assert global_degeneration_check(model, 0)
        assert global_degeneration_check(model, 1)


def test_stalk_tuples_are_enumerated_once_per_partition(monkeypatch,
                                                         reset_caches):
    product = partitions.product
    hosts = Counter()

    def counted(*pools):
        hosts[tuple(len(pool) for pool in pools)] += 1  # p(v) for each part v
        return product(*pools)

    monkeypatch.setattr(partitions, "product", counted)
    assert check_local_stalks(8) == (True, "all strata, n <= 8")
    strata = [nu for n in range(1, 9) for nu in partitions_of(n)]
    assert all(local_fiber_check(nu) for nu in strata)
    assert all(stalk_table(nu).poincare()
               == prod(map(punctual_poincare, nu), start=CoeffPoly.one())
               for nu in strata)
    assert hosts == Counter({tuple(len(partitions_of(v)) for v in nu): 1
                             for nu in strata})


def test_each_punctual_polynomial_is_computed_once(reset_caches):
    assert check_punctual(12)[0]
    assert check_local_stalks(8)[0]
    assert check_punctual(10)[0]
    built = punctual_poincare.cache_info()
    assert built.misses == built.currsize == 12
    for n in range(1, 13):  # the keys built are exactly n = 1..12
        punctual_poincare(n)
    assert punctual_poincare.cache_info().misses == 12
