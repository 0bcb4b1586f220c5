"""
Tables that grow: a per-n walk extends each cached table row by row from
the state its kernel keeps, instead of rebuilding it at every n.  The
grown rows must equal the rows of one build at the final order, across
the digit widths where the kept packed state is re-spaced and the y-widths
where kept rows in x, y are re-laid, and a failed growth must leave the
kept table as it was.
"""

import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy

import pytest

from hilbfock import counts, goettsche, product, series, tables
from hilbfock._base import IdentityFailed
from hilbfock.counts import (equivariant_k_dim, equivariant_k_table,
                             hilbert_euler, hilbert_euler_table)
from hilbfock.goettsche import (hilbert_poincare_from_strata, hodge_sym,
                                hodge_sym_table, strata_hodge_table,
                                strata_poincare_table, sym_poincare,
                                sym_poincare_product, sym_poincare_table)
from hilbfock.product import (hilbert_hodge, hilbert_hodge_table,
                              hilbert_poincare_series)
from hilbfock.selfcheck import (ALL_PRESETS, EULER_RANGE, HODGE_PRESETS,
                                check_goettsche)
from hilbfock.series import FactorFamily
from hilbfock.surfaces import ABELIAN, K3, P2


def newton_rows(model, order):
    return [sym_poincare_product(model, m) for m in range(order + 1)]


def product_row(model, n):
    return hilbert_poincare_series(model, n).coeff(n)


# every growing table of a surface in one variable, with its per-n reader
GROWING = [
    (sym_poincare_table, sym_poincare),
    (goettsche._newton_table, sym_poincare_product),
    (strata_poincare_table, hilbert_poincare_from_strata),
    (equivariant_k_table, equivariant_k_dim),
    (product._product_table, product_row),
]
GROWING_IDS = [reader.__name__ for _, reader in GROWING]


@pytest.fixture
def row_steps(monkeypatch, reset_caches):
    """
    From empty caches on, the rows each kernel computes: a Counter of
    ("strata", n) for the part-size convolution, the row counts of each
    continued stepping pass under "stepping", the Newton rows, one per
    division by n, as ("newton", n), and the product rows as ("product", n).
    """
    steps = Counter()
    strata, stepping = goettsche._strata_sums, series.super_power_table
    expand = product.product_table

    def counted_strata(term, order, *rest):  # rest: shift, state
        state = rest[1] if len(rest) > 1 else None
        start = len(state[0]) if state else 0  # f has one entry per row
        steps.update(("strata", n) for n in range(start, order + 1))
        return strata(term, order, *rest)

    def counted_stepping(gens, order, *rest):  # rest: last
        steps["stepping"] += order
        return stepping(gens, order, *rest)

    def counted_divmod(acc, n):
        steps["newton", n] += 1
        return divmod(acc, n)

    def counted_product(families, order, kept=None, nvars=None):
        start = len(kept[0]) if kept else 1  # row 0 is the constant 1
        steps.update(("product", n) for n in range(start, order + 1))
        return expand(families, order, kept, nvars)

    # goettsche reads the stepping kernel from series at call time
    for module in (goettsche, counts):  # each binds the one convolution
        monkeypatch.setattr(module, "_strata_sums", counted_strata)
    monkeypatch.setattr(product, "product_table", counted_product)
    monkeypatch.setattr(series, "super_power_table", counted_stepping)
    # the module-level name shadows the builtin inside goettsche
    monkeypatch.setattr(goettsche, "divmod", counted_divmod, raising=False)
    return steps


def rows_once(kind, lo, hi, tables=1):
    return Counter({(kind, n): tables for n in range(lo, hi + 1)})


@pytest.mark.parametrize("model", (P2, K3), ids=lambda m: m.name)
def test_a_walk_of_both_sym_routes_computes_each_row_once(row_steps, model):
    walk = [sym_poincare(model, m) for m in range(31)]
    assert newton_rows(model, 30) == walk
    assert row_steps == Counter({"stepping": 30}) + rows_once("newton", 1, 30)
    walk += [sym_poincare(model, m) for m in range(31, 41)]
    assert newton_rows(model, 40) == walk
    assert row_steps == Counter({"stepping": 40}) + rows_once("newton", 1, 40)
    assert walk == sym_poincare_table(model, 40)


def test_a_k_walk_convolves_each_row_once(row_steps):
    walk = [equivariant_k_dim(K3, n) for n in range(31)]
    assert row_steps == rows_once("strata", 0, 30)
    walk += [equivariant_k_dim(K3, n) for n in range(31, 41)]
    assert row_steps == rows_once("strata", 0, 40)
    assert walk == equivariant_k_table(K3, 40)


def test_a_strata_walk_convolves_each_row_once(row_steps):
    # the totals come in closed form: no K table grows beside the strata
    walk = [hilbert_poincare_from_strata(K3, n) for n in range(31)]
    assert row_steps == rows_once("strata", 0, 30) + Counter(
        {"stepping": 30})
    walk += [hilbert_poincare_from_strata(K3, n) for n in range(31, 41)]
    assert row_steps == rows_once("strata", 0, 40) + Counter(
        {"stepping": 40})
    assert walk == strata_poincare_table(K3, 40)


@pytest.mark.parametrize("model", (P2, K3), ids=lambda m: m.name)
def test_a_product_series_walk_computes_each_row_once(row_steps, model):
    walk = [hilbert_poincare_series(model, n) for n in range(31)]
    assert row_steps == rows_once("product", 1, 30)
    walk += [hilbert_poincare_series(model, n) for n in range(31, 41)]
    assert row_steps == rows_once("product", 1, 40)
    top = hilbert_poincare_series(model, 40)
    assert walk == [top.truncate(n) for n in range(41)]


@pytest.mark.parametrize("model", (P2, K3), ids=lambda m: m.name)
def test_a_hodge_walk_computes_each_product_row_once(row_steps, model):
    walk = [hilbert_hodge(model, n) for n in range(13)]
    assert row_steps == rows_once("product", 1, 12)
    walk += [hilbert_hodge(model, n) for n in range(13, 17)]
    assert row_steps == rows_once("product", 1, 16)
    assert walk == hilbert_hodge_table(model, 16)


def test_an_euler_walk_convolves_each_row_once(row_steps):
    walk = [hilbert_euler(-4, n) for n in range(31)]
    assert row_steps == rows_once("strata", 0, 30)
    walk += [hilbert_euler(-4, n) for n in range(31, 41)]
    assert row_steps == rows_once("strata", 0, 40)
    assert walk == hilbert_euler_table(-4, 40)


@pytest.mark.parametrize("table, reader", GROWING, ids=GROWING_IDS)
@pytest.mark.parametrize("model", ALL_PRESETS, ids=lambda m: m.name)
def test_grown_rows_equal_one_shot_rows(monkeypatch, reset_caches, model,
                                        table, reader):
    widened = []
    respace = series.respace

    def counted(state, bits, wider):
        widened.append(wider > bits)
        return respace(state, bits, wider)

    monkeypatch.setattr(series, "respace", counted)
    walk = [reader(model, n) for n in range(41)]
    reset_caches()
    assert walk == list(table(model, 40))
    if model is K3 and table is not equivariant_k_table:
        # K3's totals pass several byte boundaries by n = 40
        assert widened.count(True) >= 3


@pytest.mark.parametrize("model", HODGE_PRESETS, ids=lambda m: m.name)
def test_grown_hodge_rows_equal_one_shot_rows(reset_caches, model):
    walk, packings = [], []
    for n in range(17):
        walk.append(hilbert_hodge(model, n))
        bits, width, _ = kept(hilbert_hodge_table, model)[1]
        packings.append((bits, width))
    reset_caches()
    assert walk == hilbert_hodge_table(model, 16)
    # the kept rows were re-spaced at least once, as the totals grow, and
    # re-laid at every growth, since the y-width grows with the order,
    # unless the product, with only h^(p,p), is packed in w = xy alone
    bits, widths = zip(*packings)
    assert len(set(bits)) >= 2
    if all(p == q for p, q in model.class_bidegrees):
        assert set(widths) == {None}
    else:
        assert widths == tuple(sorted(set(widths)))


def test_a_hodge_sym_walk_steps_each_row_once(row_steps):
    walk = [hodge_sym(K3, m) for m in range(21)]
    assert row_steps == Counter({"stepping": 20})
    assert walk == hodge_sym_table(K3, 20)


def test_a_strata_hodge_walk_convolves_each_row_once(row_steps):
    # the Hodge strata table grows alone, over the bigraded sym table
    walk = [strata_hodge_table(K3, n)[n] for n in range(17)]
    assert row_steps == rows_once("strata", 0, 16) + Counter(
        {"stepping": 16})
    assert walk == strata_hodge_table(K3, 16)


@pytest.mark.parametrize("table, top", [(hodge_sym_table, 20),
                                        (strata_hodge_table, 16)],
                         ids=["hodge_sym", "strata_hodge"])
@pytest.mark.parametrize("model", (K3, ABELIAN), ids=lambda m: m.name)
def test_grown_second_route_rows_equal_one_shot_rows(reset_caches, model,
                                                     table, top):
    walk, packings = [], []
    for n in range(top + 1):
        walk.append(table(model, n)[n])
        bits, width, _ = kept(table, model)[1]
        packings.append((bits, width))
    reset_caches()
    assert walk == table(model, top)
    # the kept state was re-laid at every growth, since the y-width grows
    # with the order, and re-spaced at least once, as the totals grow
    bits, widths = zip(*packings)
    assert widths == tuple(sorted(set(widths))) and len(set(bits)) >= 2


def test_grown_euler_rows_equal_one_shot_rows(reset_caches):
    walks = {e: [hilbert_euler(e, n) for n in range(41)] for e in EULER_RANGE}
    reset_caches()
    assert walks == {e: hilbert_euler_table(e, 40) for e in EULER_RANGE}


def kept(table, model):
    return tables._TABLES[getattr(table, "__wrapped__", table), model]


@pytest.mark.parametrize("reader, table, patched", [
    (sym_poincare, sym_poincare_table, "sym_total_dim"),
    (sym_poincare_product, goettsche._newton_table, "sym_total_dim"),
    (hilbert_poincare_from_strata, strata_poincare_table, "coefficient_sums"),
    (product_row, product._product_table, "coefficient_sums"),
    (hilbert_hodge, hilbert_hodge_table, "coefficient_sums"),
], ids=["stepping", "newton", "strata", "product", "hodge"])
def test_a_corrupted_total_fails_its_row_and_keeps_the_table(
        monkeypatch, reset_caches, reader, table, patched):
    want = [reader(K3, n) for n in range(13)]
    reset_caches()
    walk = [reader(K3, n) for n in range(7)]
    before = kept(table, K3)
    snapshot = list(before[0]), deepcopy(before[1])
    # each table reads its closed form where it is built: sym_total_dim in
    # goettsche, coefficient_sums from series (the strata at call time, the
    # products inside series.product_table)
    module = goettsche if patched == "sym_total_dim" else series
    real = getattr(module, patched)

    def corrupted(*args):
        if patched == "sym_total_dim":
            return real(*args) + (args[1] == 7)
        rows = real(*args)
        return rows[:7] + [rows[7] + 1] + rows[8:] if len(rows) > 7 else rows

    with monkeypatch.context() as m:
        m.setattr(module, patched, corrupted)
        with pytest.raises(IdentityFailed, match="in row 7$"):
            reader(K3, 7)
        # the kept table is the same value, unchanged: no row of the failed
        # growth and no half-moved state
        assert kept(table, K3) is before
        assert (before[0], before[1]) == snapshot
    walk += [reader(K3, n) for n in range(7, 13)]
    assert walk == want


def test_concurrent_walks_read_the_right_rows(reset_caches):
    # the cache takes no lock: a growth copies what it extends, so threads
    # that grow one table side by side each read rows equal to one build
    walked = [(table, reader, model)
              for table, reader in GROWING + [(hilbert_hodge_table,
                                               hilbert_hodge)]
              for model in (P2, K3)]
    want = [list(table(model, 24)) for table, _, model in walked]

    def walk(reader, model):
        return [reader(model, n) for n in range(25)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(10):
                reset_caches()
                walks = [pool.submit(walk, reader, model)
                         for _ in range(3) for _, reader, model in walked]
                got = [w.result(timeout=120) for w in walks]
                assert got == want * 3
    finally:
        sys.setswitchinterval(interval)


def test_strata_catch_a_wrong_product_whose_totals_agree(monkeypatch,
                                                         reset_caches):
    # the digit totals read only the weights and signs of the families; a
    # family moved from t^(2m) to t^(2m+1) keeps them, so only the strata
    # route sees the wrong S_k
    assert check_goettsche(6) == (True, "5 presets, n <= 6")
    reset_caches()
    real = product.goettsche_families

    def moved(model):
        return [FactorFamily(f.sign, f.weight, ((2, 1),))
                if f.exps == ((2, 0),) else f for f in real(model)]

    monkeypatch.setattr(product, "goettsche_families", moved)
    assert check_goettsche(6) == (
        False, "p2 n=1: product 1 + t^3 + t^4 vs strata 1 + t^2 + t^4")
