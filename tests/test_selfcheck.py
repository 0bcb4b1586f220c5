"""
The two-route checks of the selfcheck battery: each reports the first row
where its routes disagree, naming the surface, the row and both routes, and
the battery prints the same table with assertions stripped (python -O).
"""

import os
import subprocess
import sys
from collections import Counter

import pytest

import hilbfock
from hilbfock import (counts, goettsche, heisenberg, partitions, product,
                      selfcheck, stratification, tables)
from hilbfock.series import QTSeries
from hilbfock.surfaces import P2

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hilbfock.__file__)))


def break_row_3(monkeypatch, module, name, key):
    """Patch the route module.name so that its row 3 for key is off by one."""
    real = getattr(module, name)

    def broken(model, order):
        rows = real(model, order)
        if model != key:
            return rows
        coeffs = rows.coeffs if isinstance(rows, QTSeries) else rows
        bumped = [c + 1 if n == 3 else c for n, c in enumerate(coeffs)]
        if isinstance(rows, QTSeries):
            return QTSeries(order, bumped, rows.nvars)
        return bumped

    monkeypatch.setattr(module, name, broken)


@pytest.mark.parametrize("check, module, route, key, expect", [
    (selfcheck.check_goettsche, goettsche, "strata_poincare_table", P2,
     ("p2 n=3: ", "product ", " vs strata ")),
    (selfcheck.check_fock_character, heisenberg, "graded_character", P2,
     ("p2 n=3: ", "character ", " vs product ")),
    (selfcheck.check_sym_routes, goettsche, "sym_poincare_table", P2,
     ("p2 m=3: ", "stepping ", " vs product ")),
    (selfcheck.check_ktheory, counts, "equivariant_k_table", P2,
     ("p2 n=3: ", "K-dim ", " vs total Betti ")),
    (selfcheck.check_hodge, product, "hilbert_hodge_table", P2,
     ("p2 n=3: ", "collapsed ", " vs strata ")),
    # the Euler check runs over Euler numbers; 3 is that of P2
    (selfcheck.check_euler, selfcheck, "_orbifold_rows", P2.euler,
     ("e=3 n=3: ", "product ", " vs orbifold ")),
], ids=["goettsche", "fock", "sym", "ktheory", "hodge", "euler"])
def test_check_reports_the_first_differing_row(monkeypatch, check, module,
                                               route, key, expect):
    assert check(5)[0] is True
    break_row_3(monkeypatch, module, route, key)
    ok, detail = check(5)
    assert ok is False
    where, left, right = expect
    assert detail.startswith(where)
    assert left in detail and right in detail


def run_selfcheck(*flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-m", "hilbfock", "selfcheck", "--order",
         "4"], capture_output=True, text=True, env=env)


def test_selfcheck_output_does_not_rely_on_assert():
    plain = run_selfcheck()
    optimized = run_selfcheck("-O")
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


CHECKS = ("goettsche", "fock_character", "sym_routes", "commutators",
          "local_stalks", "punctual", "euler", "ktheory", "hodge", "adhm",
          "leray")


@pytest.mark.parametrize("order, capped", [
    (4, {"punctual": 12}),
    (12, {}),
])
def test_run_all_holds_every_bound(monkeypatch, order, capped):
    received = {}
    for name in CHECKS:
        def recorder(*args, name=name):
            received[name] = args
            return True, "recorded"
        monkeypatch.setattr(selfcheck, "check_" + name, recorder)
    rows = selfcheck.run_all(order, seed=7)
    assert [ok for _, ok, _ in rows] == [True] * len(CHECKS)
    assert received.pop("commutators") == (50, 7, selfcheck.ALL_PRESETS)
    assert received == {name: (capped.get(name, order),)
                        for name in CHECKS if name != "commutators"}


@pytest.mark.parametrize("bound", (0, -3))
def test_a_battery_of_zero_cases_is_refused(bound):
    # a check that ran no case must not report a pass
    with pytest.raises(ValueError, match="order must be at least 1"):
        selfcheck.run_all(bound)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        selfcheck.check_commutators(bound, 0, selfcheck.ALL_PRESETS)


def refuse(*args, **kwargs):
    raise AssertionError("the other Euler route was called")


def test_orbifold_route_shares_no_code_with_the_product(monkeypatch):
    monkeypatch.setattr(tables, "_TABLES", {})
    rows = {e: counts.hilbert_euler_table(e, 12) for e in (-4, 0, 24)}
    monkeypatch.setattr(counts, "_strata_sums", refuse)
    monkeypatch.setattr(counts, "general_binomial", refuse)
    for e, table in rows.items():
        assert selfcheck._orbifold_rows(e, 12) == table


def test_product_route_walks_no_partitions(monkeypatch, reset_caches):
    # the orbifold route reaches partitions_of through the census, built anew
    monkeypatch.setattr(selfcheck, "partitions_of", refuse)
    monkeypatch.setattr(partitions, "partitions_of", refuse)
    assert counts.hilbert_euler_table(24, 3) == [1, 24, 324, 3200]
    with pytest.raises(AssertionError):
        selfcheck._orbifold_rows(24, 3)


def test_leray_walk_shares_no_code_with_the_convolution(monkeypatch,
                                                        reset_caches):
    lhs = {s: goettsche.strata_poincare_table(s, 10)
           for s in selfcheck.ALL_PRESETS}
    for module, name in ((goettsche, "_strata_sums"),
                         (counts, "_strata_sums"),
                         (counts, "general_binomial")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(product, "product_table", refuse)
    assert selfcheck.check_leray(10) == (True, "5 presets, n <= 10")
    assert all(goettsche.strata_poincare_table(s, 10) == rows
               for s, rows in lhs.items())


# each fault changes the census of 5 only: (5) dropped, or the class of
# (4,1) and (3,2), length 2 and signature (1, 1), counted three times
CENSUS_FAULTS = {"drop": ((1, (1,)), -1), "off_by_one": ((2, (1, 1)), 1)}


@pytest.mark.parametrize("fault", CENSUS_FAULTS)
def test_a_census_fault_fails_both_walks_at_its_row(monkeypatch, fault):
    key, step = CENSUS_FAULTS[fault]
    census = partitions.partition_census

    def faulty(n):
        rows = dict(census(n))
        if n == 5:
            rows[key] += step
            if not rows[key]:
                del rows[key]
        return rows

    for module in (selfcheck, stratification):
        monkeypatch.setattr(module, "partition_census", faulty)
    assert selfcheck.check_leray(8) == (False, "delta n=5")
    euler = counts.hilbert_euler(-10, 5)
    term = step * (-10) ** len(key[1])  # prod of C(e + a - 1, a), a = 1
    assert selfcheck.check_euler(8) == (
        False, "e=-10 n=5: product %d vs orbifold %d" % (euler, euler + term))


def test_leray_builds_each_stratum_product_once(monkeypatch, reset_caches):
    factors = Counter()
    sym_poincare = goettsche.sym_poincare

    def counted(model, m):
        factors[model] += 1
        return sym_poincare(model, m)

    monkeypatch.setattr(goettsche, "sym_poincare", counted)
    assert selfcheck.check_leray(8) == (True, "5 presets, n <= 8")
    assert selfcheck.check_leray(10) == (True, "5 presets, n <= 10")
    signatures = {p.signature for n in range(11)
                  for p in partitions.partitions_of(n)}
    expected = len(selfcheck.ALL_PRESETS) * len(signatures)
    built = goettsche.stratum_product.cache_info()
    assert built.misses == built.currsize == expected
    for s in selfcheck.ALL_PRESETS:  # the keys built are exactly these
        for sig in signatures:
            goettsche.stratum_product(s, sig)
    assert goettsche.stratum_product.cache_info().misses == built.misses
    assert factors == Counter({s: sum(map(len, signatures))
                               for s in selfcheck.ALL_PRESETS})


def test_each_census_is_built_once(reset_caches):
    assert selfcheck.check_euler(6)[0]
    assert selfcheck.check_leray(8)[0]
    assert selfcheck.check_euler(10)[0]
    info = partitions.partition_census.cache_info()
    assert (info.misses, info.currsize) == (11, 11)
    assert info.hits > 0
