from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

import pytest

from hilbfock import counts, goettsche, product, series, tables
from hilbfock._base import IdentityFailed
from hilbfock.cli import main
from hilbfock.counts import (equivariant_k_dim, equivariant_k_table,
                             general_binomial, hilbert_euler,
                             hilbert_euler_table, orbifold_euler,
                             punctual_poincare, sym_total_dim)
from hilbfock.goettsche import (strata_hodge_table,
                                hilbert_poincare_from_strata, hodge_sym,
                                hodge_sym_table, strata_poincare_table,
                                stratum_poincare, sym_poincare,
                                sym_poincare_product, sym_poincare_table)
from hilbfock.partitions import Partition, count_with_length, partitions_of
from hilbfock.product import (hilbert_hodge, hilbert_hodge_table,
                              hilbert_poincare_series)
from hilbfock.selfcheck import check_goettsche, check_sym_routes
from hilbfock.poly import CoeffPoly
from hilbfock.series import FactorFamily, QTSeries, product_expand
from hilbfock.surfaces import (ABELIAN, DELTA, K3, P2, P1XP1,
                               MissingHodgeData, SurfaceModel)

PRESETS = (DELTA, P2, P1XP1, K3, ABELIAN)


# independent oracle: the super-symmetric power by literal multiset
# enumeration over the graded basis (odd generators without repetition)
def oracle_sym(model, m):
    basis = list(enumerate(model.ordinary_degrees))
    out = {}
    for combo in combinations_with_replacement(basis, m):
        ok = True
        for i in range(1, len(combo)):
            if combo[i] == combo[i - 1] and combo[i][1] % 2:
                ok = False
                break
        if ok:
            d = sum(deg for _, deg in combo)
            out[(d,)] = out.get((d,), 0) + 1
    return CoeffPoly(out)


def oracle_hodge_sym(model, m):
    basis = list(enumerate(model.class_bidegrees))
    out = {}
    for combo in combinations_with_replacement(basis, m):
        ok = True
        for i in range(1, len(combo)):
            if combo[i] == combo[i - 1] and sum(combo[i][1]) % 2:
                ok = False
                break
        if ok:
            p = sum(pq[0] for _, pq in combo)
            q = sum(pq[1] for _, pq in combo)
            out[(p, q)] = out.get((p, q), 0) + 1
    return CoeffPoly(out, nvars=2)


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_sym_matches_multiset_oracle(model):
    limit = 4 if model.total_dim > 10 else 6
    for m in range(limit + 1):
        assert sym_poincare(model, m) == oracle_sym(model, m)


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_sym_two_routes_agree(model):
    for m in range(11):
        assert sym_poincare(model, m) == sym_poincare_product(model, m)


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_sym_table_matches_product_route(model):
    table = sym_poincare_table(model, 12)
    assert table == [sym_poincare_product(model, m) for m in range(13)]


def test_sym_and_hodge_sym_reject_negative_index():
    for model in (P2, ABELIAN):
        for m in (-1, -2):
            with pytest.raises(ValueError):
                sym_poincare(model, m)
            with pytest.raises(ValueError):
                sym_poincare_table(model, m)
            with pytest.raises(ValueError):
                hodge_sym(model, m)
            with pytest.raises(ValueError):
                sym_total_dim(model, m)


def test_sym_examples():
    assert sym_poincare(P2, 1) == CoeffPoly({(0,): 1, (2,): 1, (4,): 1})
    assert sym_poincare(P2, 2) == CoeffPoly(
        {(0,): 1, (2,): 1, (4,): 2, (6,): 1, (8,): 1})
    for m in range(7):
        assert sym_poincare(DELTA, m) == CoeffPoly.one()


def test_stratum_space_examples():
    n = 5
    ones = Partition((1,) * n)
    assert stratum_poincare(P2, ones) == sym_poincare(P2, n)
    assert stratum_poincare(P2, Partition((2, 1))) == \
        sym_poincare(P2, 1) * sym_poincare(P2, 1)
    assert stratum_poincare(P2, Partition((n,))) == sym_poincare(P2, 1)


def test_decomposition_examples():
    assert hilbert_poincare_from_strata(P2, 0) == CoeffPoly.one()
    assert hilbert_poincare_from_strata(P2, 2) == CoeffPoly(
        {(0,): 1, (2,): 2, (4,): 3, (6,): 2, (8,): 1})
    for n in range(9):
        expect = CoeffPoly({(2 * p.drop,): 1 for p in partitions_of(n)})
        got = hilbert_poincare_from_strata(DELTA, n)
        # partitions with equal drop accumulate
        acc = {}
        for p in partitions_of(n):
            acc[(2 * p.drop,)] = acc.get((2 * p.drop,), 0) + 1
        assert got == CoeffPoly(acc)


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_goettsche_identity(model):
    series = hilbert_poincare_series(model, 8)
    for n in range(9):
        assert series.coeff(n) == hilbert_poincare_from_strata(model, n)


def test_product_q0_is_one():
    for model in PRESETS:
        assert hilbert_poincare_series(model, 4).coeff(0) == CoeffPoly.one()


def test_punctual():
    assert punctual_poincare(1) == CoeffPoly.one()
    assert punctual_poincare(3) == CoeffPoly({(0,): 1, (2,): 1, (4,): 1})
    assert punctual_poincare(4) == CoeffPoly(
        {(0,): 1, (2,): 1, (4,): 2, (6,): 1})
    for n in range(1, 13):
        poly = punctual_poincare(n)
        assert poly.coefficient((2 * (n - 1),)) == 1
        assert poly.total_degree() == 2 * (n - 1)


def test_punctual_counts_partitions_by_length():
    for n in range(1, 21):
        assert punctual_poincare(n) == CoeffPoly(
            {(2 * (n - l),): count_with_length(n, l) for l in range(1, n + 1)})


def test_euler_examples():
    assert [hilbert_euler(24, n) for n in range(4)] == [1, 24, 324, 3200]
    assert hilbert_euler(-7, 0) == 1
    assert hilbert_euler(0, 0) == 1
    assert hilbert_euler(0, 3) == 0


def test_euler_equals_orbifold():
    for e in range(-10, 31):
        for n in range(11):
            assert hilbert_euler(e, n) == orbifold_euler(e, n)


def test_euler_table_rows_equal_per_n_values():
    for e in range(-10, 31):
        assert hilbert_euler_table(e, 12) == [hilbert_euler(e, n)
                                              for n in range(13)]
    with pytest.raises(ValueError):
        hilbert_euler_table(2, -1)
    with pytest.raises(ValueError):
        hilbert_euler(2, -1)


def test_euler_request_runs_the_product_loop_once(monkeypatch, capsys):
    orders = []
    real = counts.hilbert_euler_table

    def counting(euler, order):
        orders.append(order)
        return real(euler, order)

    monkeypatch.setattr(counts, "hilbert_euler_table", counting)
    assert main(["euler", "--surface", "k3", "--order", "24"]) == 0
    assert orders == [24]
    assert len(capsys.readouterr().out.splitlines()) == 26


def test_euler_tables_are_cached(monkeypatch):
    def expansion(*args):
        raise AssertionError("a per-n call started a new expansion")

    monkeypatch.setattr(tables, "_TABLES", {})
    for e in (-4, 0, 24):
        table = hilbert_euler_table(e, 20)
        with monkeypatch.context() as m:
            m.setattr(counts, "general_binomial", expansion)
            assert [hilbert_euler(e, n) for n in range(21)] == table


def test_euler_table_computes_each_binomial_once(monkeypatch):
    calls = []

    def counting(a, k):
        calls.append((a, k))
        return general_binomial(a, k)

    monkeypatch.setattr(tables, "_TABLES", {})
    monkeypatch.setattr(counts, "general_binomial", counting)
    table = hilbert_euler_table(24, 60)
    assert table[:4] == [1, 24, 324, 3200]
    assert len(calls) <= 61


def test_orbifold_examples():
    for n in range(9):
        assert orbifold_euler(1, n) == len(partitions_of(n))
    assert orbifold_euler(24, 2) == comb(25, 2) + 24
    assert orbifold_euler(17, 0) == 1


def test_general_binomial():
    assert general_binomial(5, 2) == 10
    assert general_binomial(-2, 1) == -2
    assert general_binomial(-1, 2) == 1
    assert general_binomial(0, 0) == 1
    assert general_binomial(0, 3) == 0


def test_general_binomial_matches_falling_factorial():
    for a in range(-12, 13):
        for k in range(11):
            num = 1
            for i in range(k):
                num *= a - i
            got = general_binomial(a, k)
            assert type(got) is int
            assert got == Fraction(num, factorial(k))


def test_sym_total_dim_matches_poly():
    for model in PRESETS:
        for m in range(9):
            at_one = sym_poincare(model, m).specialize({"t": 1})
            assert sym_total_dim(model, m) == at_one.constant_value()


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_equivariant_k_dim(model):
    series = hilbert_poincare_series(model, 10)
    for n in range(11):
        total = series.coeff(n).specialize({"t": 1}).constant_value()
        assert equivariant_k_dim(model, n) == total
        strata_total = hilbert_poincare_from_strata(model, n) \
            .specialize({"t": 1}).constant_value()
        assert equivariant_k_dim(model, n) == strata_total


def test_equivariant_k_examples():
    assert equivariant_k_dim(P2, 1) == 3
    # both sides of the n=2 projective-plane value, computed independently
    assert equivariant_k_dim(P2, 2) == 9
    for n in range(9):
        assert equivariant_k_dim(DELTA, n) == len(partitions_of(n))


def test_hodge_sym_matches_oracle():
    for model in (P2, K3, ABELIAN):
        limit = 3 if model.total_dim > 10 else 5
        for m in range(limit + 1):
            assert hodge_sym(model, m) == oracle_hodge_sym(model, m)


def test_hodge_hilbert_p2_diamond():
    assert hilbert_hodge(P2, 2) == CoeffPoly(
        {(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 3): 2, (4, 4): 1}, nvars=2)
    assert hilbert_hodge(P2, 0) == CoeffPoly.one(2)


@pytest.mark.parametrize("model", (P2, P1XP1, K3, ABELIAN),
                         ids=lambda m: m.name)
def test_hodge_collapse_to_poincare(model):
    for n in range(7):
        collapsed = hilbert_hodge(model, n).specialize({"x": "t", "y": "t"})
        assert collapsed == hilbert_poincare_from_strata(model, n)


# the Goettsche-Soergel product, written out from model.hodge, against the
# strata route in full resolution:
# prod_m prod_{p,q} (1 - (-1)^(p+q) x^(p+m-1) y^(q+m-1) q^m)^(-(-1)^(p+q) h^{p,q})
@pytest.mark.parametrize("model,order", ((P2, 6), (P1XP1, 6), (ABELIAN, 6),
                                         (K3, 5)),
                         ids=lambda v: getattr(v, "name", str(v)))
def test_hodge_product_formula_full_bigrading(model, order):
    families = [FactorFamily(1 if (p + q) % 2 else -1, h,
                             ((1, p - 1), (1, q - 1)))
                for (p, q), h in model.hodge]
    series = product_expand(families, order, nvars=2)
    assert list(series.coeffs) == strata_hodge_table(model, order)


def test_hodge_requires_data():
    with pytest.raises(MissingHodgeData):
        hilbert_hodge(DELTA, 2)


def test_hodge_symmetry():
    for n in range(5):
        poly = hilbert_hodge(K3, n)
        for (p, q), c in poly.terms.items():
            assert poly.terms[(q, p)] == c


def test_surface_model_validation():
    with pytest.raises(ValueError):
        SurfaceModel("bad", (1, 0, 1, 0))
    with pytest.raises(ValueError):
        SurfaceModel("bad", (1, 0, 1, 0, 2),
                     betti_c=(1, 0, 1, 0, 2))     # b0 != b4^c
    with pytest.raises(ValueError):
        SurfaceModel("bad", (1, 0, 1, 0, 1), hodge={(0, 0): 1, (1, 1): 2,
                                                    (2, 2): 1})
    with pytest.raises(ValueError):
        SurfaceModel("bad", (1, 0, 1, 0, 1), euler=5)
    m = SurfaceModel("ok", (1, 0, 2, 0, 1))
    assert m.euler == 4
    assert m.pairing_value(0, 3) == 1     # H^0 against H^4_c
    assert m.pairing_value(0, 0) == 0


def test_surface_model_explicit_pairing():
    ident = ((1,),)
    hyperbolic = SurfaceModel("hyp", (1, 0, 2, 0, 1),
                              pairing=(ident, (), ((0, 1), (1, 0)), (), ident))
    assert hyperbolic.pairing_value(1, 2) == 1     # first H^2 class vs second
    assert hyperbolic.pairing_value(1, 1) == 0
    scaled = SurfaceModel("scaled", (1, 0, 2, 0, 1),
                          pairing=(((2,),), (), ((Fraction(1, 2), 3), (1, 0)),
                                   (), ident))
    assert scaled.pairing_value(0, 3) == 2
    assert scaled.pairing_value(1, 1) == Fraction(1, 2)
    with pytest.raises(ValueError, match="block 2 is degenerate"):
        SurfaceModel("deg", (1, 0, 2, 0, 1),
                     pairing=(ident, (), ((1, 1), (1, 1)), (), ident))
    with pytest.raises(ValueError, match="block 0 is degenerate"):
        SurfaceModel("deg0", (1, 0, 2, 0, 1),
                     pairing=(((0,),), (), ((1, 0), (0, 1)), (), ident))
    with pytest.raises(ValueError, match="block 2 has wrong shape"):
        SurfaceModel("shape", (1, 0, 2, 0, 1),
                     pairing=(ident, (), ((1, 0, 0), (0, 1, 0)), (), ident))


def test_open_surface_pairing():
    assert DELTA.betti_c == (0, 0, 0, 0, 1)
    assert DELTA.pairing_value(0, 0) == 1
    assert DELTA.euler == 1


def count_stepping_tables(monkeypatch):
    """Empty the table cache and record the order of every stepping pass."""
    orders = []
    real = series.super_power_table

    def counting(gens, order, last=None):
        orders.append(order)
        return real(gens, order, last)

    monkeypatch.setattr(tables, "_TABLES", {})
    # goettsche reads the stepping kernel from series at call time
    monkeypatch.setattr(series, "super_power_table", counting)
    return orders


def series_rows(model, order):
    return hilbert_poincare_series(model, order).coeffs


def series_row(model, n):
    return hilbert_poincare_series(model, n).coeff(n)


# every cached table with its per-n reader and the key it is asked for
TABLES = [
    (series_rows, series_row, ABELIAN),
    (sym_poincare_table, sym_poincare, ABELIAN),
    (hodge_sym_table, hodge_sym, ABELIAN),
    (strata_poincare_table, hilbert_poincare_from_strata, ABELIAN),
    (hilbert_hodge_table, hilbert_hodge, ABELIAN),
    (equivariant_k_table, equivariant_k_dim, ABELIAN),
    (hilbert_euler_table, hilbert_euler, 24),
]
TABLE_IDS = [t[0].__name__ for t in TABLES]


@pytest.mark.parametrize("table, reader, key", TABLES, ids=TABLE_IDS)
def test_table_rows_match_per_n_reader(monkeypatch, table, reader, key):
    monkeypatch.setattr(tables, "_TABLES", {})
    cold = [reader(key, n) for n in range(7)]
    monkeypatch.setattr(tables, "_TABLES", {})
    rows = table(key, 6)
    assert list(rows) == cold
    assert len(table(key, 9)) == 10
    assert list(table(key, 6)) == cold
    assert [reader(key, n) for n in range(7)] == cold
    for ask in (table, reader):
        with pytest.raises(ValueError, match="order must be non-negative"):
            ask(key, -1)


def count_builds(monkeypatch):
    """Empty the table cache and record every kernel run that builds a table."""
    calls = []
    for module, name in ((series, "super_power_table"),
                         (goettsche, "_strata_sums"),
                         (counts, "_strata_sums"),
                         (product, "product_table")):
        def counting(*args, _real=getattr(module, name), _name=name,
                     **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(tables, "_TABLES", {})
    return calls


@pytest.mark.parametrize("table, reader, key", TABLES, ids=TABLE_IDS)
def test_public_table_is_built_once(monkeypatch, table, reader, key):
    calls = count_builds(monkeypatch)
    rows = table(key, 8)
    built = len(calls)
    assert built
    assert table(key, 8) == rows
    assert table(key, 5) == rows[:6]
    assert reader(key, 7) == rows[7]
    assert len(calls) == built


def test_a_caller_cannot_change_a_cached_table(monkeypatch):
    monkeypatch.setattr(tables, "_TABLES", {})
    rows = sym_poincare_table(P2, 4)
    rows[2] = None
    assert sym_poincare_table(P2, 4)[2] == sym_poincare_product(P2, 2)


def test_newton_walk_builds_each_row_once(monkeypatch):
    calls = []

    def counting(acc, n):
        calls.append(n)
        return divmod(acc, n)

    monkeypatch.setattr(tables, "_TABLES", {})
    # the module-level name shadows the builtin inside goettsche
    monkeypatch.setattr(goettsche, "divmod", counting, raising=False)
    walks = {model: [sym_poincare_product(model, m) for m in range(13)]
             for model in (P2, ABELIAN)}
    # row n is one packed sum divided once by n, even where a wider digit
    # repacks the rows below it
    assert calls == list(range(1, 13)) * 2
    for model, walk in walks.items():
        for m in (12, 0, 7, 3, 12):
            assert sym_poincare_product(model, m) == walk[m]
    assert calls == list(range(1, 13)) * 2
    with pytest.raises(TypeError):  # the cached row is read-only
        walks[P2][2].terms[(0,)] = 99
    assert sym_poincare_product(P2, 2) == sym_poincare(P2, 2)
    assert sym_poincare_product(P2, 13) == sym_poincare(P2, 13)


def test_newton_route_shares_no_code_with_the_stepping_kernel(monkeypatch):
    monkeypatch.setattr(tables, "_TABLES", {})
    recorded = sym_poincare_table(ABELIAN, 8)
    monkeypatch.setattr(tables, "_TABLES", {})

    def shared(*args, **kwargs):
        raise AssertionError("the Newton route reached shared code")

    for owner, name in ((series, "super_power_table"),
                        (goettsche, "sym_poincare_table"),
                        (QTSeries, "__mul__"),
                        (FactorFamily, "factor_series")):
        monkeypatch.setattr(owner, name, shared)
    assert sym_poincare_product(P2, 2) == CoeffPoly(
        {(0,): 1, (2,): 1, (4,): 2, (6,): 1, (8,): 1})
    assert [sym_poincare_product(ABELIAN, m) for m in range(9)] == recorded


def test_each_newton_row_checks_its_division(monkeypatch):
    monkeypatch.setattr(tables, "_TABLES", {})
    good = [sym_poincare_product(K3, m) for m in range(5)]
    bumped = []

    def bumping(acc, n):
        if not bumped:  # once: the packed m H_m is off by 1
            bumped.append(n)
            acc += 1
        return divmod(acc, n)

    monkeypatch.setattr(goettsche, "divmod", bumping, raising=False)
    assert sym_poincare_product(K3, 4) == good[4]  # cached rows: no division
    with pytest.raises(IdentityFailed, match="m = 5"):
        sym_poincare_product(K3, 6)
    assert bumped == [5]
    monkeypatch.delattr(goettsche, "divmod")
    # the failed extension stored nothing
    assert sym_poincare_product(K3, 6) == sym_poincare(K3, 6)


def test_newton_rows_are_checked_against_their_totals(monkeypatch):
    monkeypatch.setattr(tables, "_TABLES", {})
    real = goettsche.sym_total_dim
    monkeypatch.setattr(goettsche, "sym_total_dim",
                        lambda model, m: real(model, m) + (m == 3))
    with pytest.raises(IdentityFailed, match="do not sum to 11"):
        sym_poincare_product(P2, 4)
    assert tables._TABLES == {}


def test_the_only_lru_cache_is_on_sym_total_dim():
    cached = [name for name, obj in vars(goettsche).items()
              if hasattr(obj, "cache_info")]
    assert cached == ["sym_total_dim"]


def test_hodge_request_expands_one_product(monkeypatch, capsys):
    orders = count_stepping_tables(monkeypatch)
    expanded = []
    real = product.product_table

    def counting(families, order, kept=None, nvars=None):
        expanded.append(order)
        return real(families, order, kept, nvars)

    monkeypatch.setattr(product, "product_table", counting)
    assert main(["hodge", "--surface", "k3", "--order", "10"]) == 0
    assert (orders, expanded) == ([], [10])
    assert len(capsys.readouterr().out.splitlines()) == 12


def test_selfcheck_builds_one_symmetric_product_table_per_preset(monkeypatch):
    orders = count_stepping_tables(monkeypatch)
    assert check_goettsche(8) == (True, "5 presets, n <= 8")
    assert check_sym_routes(8) == (True, "5 presets, m <= 8")
    assert orders == [8] * 5


def test_strata_sums_share_one_table_per_model(monkeypatch):
    orders = count_stepping_tables(monkeypatch)
    for model in (P2, ABELIAN):
        rows = strata_hodge_table(model, 7)
        assert rows == [hilbert_hodge(model, n) for n in range(8)]
        assert [hodge_sym(model, m) for m in range(8)] == [
            oracle_hodge_sym(model, m) for m in range(8)]
        sym_poincare(model, 7)
        assert [hilbert_poincare_from_strata(model, n) for n in range(8)] == [
            hilbert_poincare_series(model, 7).coeff(n) for n in range(8)]
    assert orders == [7, 7, 7, 7]
    # a longer order grows by its new rows; shorter ones then read the
    # longer table
    assert hodge_sym(P2, 9) == oracle_hodge_sym(P2, 9)
    assert strata_hodge_table(P2, 7) == [hilbert_hodge(P2, n)
                                         for n in range(8)]
    assert orders == [7, 7, 7, 7, 2]


# oracles: the per-n partition walks that the convolution over part sizes
# replaced, kept literally
def walk_poincare(model, n):
    out = CoeffPoly.zero()
    for a in partitions_of(n):
        out = out + CoeffPoly.monomial((2 * a.drop,)) * stratum_poincare(model, a)
    return out


def walk_hodge(model, n):
    out = CoeffPoly.zero(2)
    for a in partitions_of(n):
        term = CoeffPoly.monomial((a.drop, a.drop))
        for ai in a.multiplicities:
            if ai:
                term = term * hodge_sym(model, ai)
        out = out + term
    return out


def walk_k_dim(model, n):
    total = 0
    for a in partitions_of(n):
        term = 1
        for ai in a.multiplicities:
            if ai:
                term *= sym_total_dim(model, ai)
        total += term
    return total


def walk_orbifold(euler, n):
    total = 0
    for a in partitions_of(n):
        term = 1
        for ai in a.multiplicities:
            if ai:
                term *= general_binomial(euler + ai - 1, ai)
        total += term
    return total


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_strata_convolution_matches_partition_walk(model):
    for n in range(13):
        assert hilbert_poincare_from_strata(model, n) == walk_poincare(model, n)
        assert equivariant_k_dim(model, n) == walk_k_dim(model, n)
    if model.has_hodge:
        table = strata_hodge_table(model, 12)
        assert table == [walk_hodge(model, n) for n in range(13)]


def test_orbifold_convolution_matches_partition_walk():
    for e in range(-4, 25):
        assert [orbifold_euler(e, n) for n in range(13)] == [
            walk_orbifold(e, n) for n in range(13)]


# classes of bidegree (0,4) and (4,0): the y-exponent reaches 4n, twice the
# 2n of a preset, so a packing width taken from 2 * order + 1 would alias
SKEW = SurfaceModel("skew", (1, 0, 0, 0, 3), betti_c=(3, 0, 0, 0, 1),
                    hodge={(0, 0): 1, (0, 4): 1, (4, 0): 1, (2, 2): 1})


def test_skew_surface_hodge_matches_oracle_and_product():
    assert hodge_sym(SKEW, 1) == CoeffPoly(
        {(0, 0): 1, (0, 4): 1, (4, 0): 1, (2, 2): 1}, nvars=2)
    families = [FactorFamily(1 if (p + q) % 2 else -1, h,
                             ((1, p - 1), (1, q - 1)))
                for (p, q), h in SKEW.hodge]
    series = product_expand(families, 4, nvars=2)
    for n in range(5):
        assert hodge_sym(SKEW, n) == oracle_hodge_sym(SKEW, n)
        assert hilbert_hodge(SKEW, n) == series.coeff(n)
        assert hilbert_hodge(SKEW, n) == walk_hodge(SKEW, n)


def test_skew_config_file_prints_unaliased_hodge_rows(tmp_path, capsys):
    cfg = tmp_path / "skew.cfg"
    cfg.write_text("name=skew\nbetti=1,0,0,0,3\nbetti_c=3,0,0,0,1\n"
                   "hodge=0,0,1\nhodge=0,4,1\nhodge=4,0,1\nhodge=2,2,1\n")
    assert main(["hodge", "--surface", str(cfg), "--order", "4"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[2] == "1\t1 + y^4 + x^2y^2 + x^4"
    assert rows[1:] == ["%d\t%s" % (n, hilbert_hodge(SKEW, n))
                        for n in range(5)]


def test_ktheory_request_builds_one_k_table(monkeypatch, capsys):
    built = []
    real = counts._strata_sums

    def counting(term, order, shift=0, state=None):
        built.append(order)
        return real(term, order, shift, state)

    monkeypatch.setattr(tables, "_TABLES", {})
    monkeypatch.setattr(counts, "_strata_sums", counting)
    assert main(["ktheory", "--surface", "k3", "--order", "20"]) == 0
    assert built == [20]
    assert len(capsys.readouterr().out.splitlines()) == 22


def test_surface_without_classes_has_trivial_tables():
    empty = SurfaceModel("empty", (0, 0, 0, 0, 0), hodge={})
    assert hilbert_hodge_table(empty, 3) == [CoeffPoly.one(2)] + [
        CoeffPoly.zero(2)] * 3
    assert sym_poincare_table(empty, 3) == [CoeffPoly.one()] + [
        CoeffPoly.zero()] * 3
    assert [equivariant_k_dim(empty, n) for n in range(4)] == [1, 0, 0, 0]


def test_surface_without_even_classes_has_total_dims():
    odd = SurfaceModel("odd", (0, 1, 0, 1, 0))
    assert [sym_total_dim(odd, m) for m in range(4)] == [1, 2, 1, 0]
    series = hilbert_poincare_series(odd, 6)
    for n in range(7):
        assert sym_poincare(odd, n) == oracle_sym(odd, n)
        assert equivariant_k_dim(odd, n) == \
            series.coeff(n).specialize({"t": 1}).constant_value()


def test_cached_rows_are_read_only():
    want = str(sym_poincare(P2, 2))
    with pytest.raises(TypeError):
        sym_poincare_table(P2, 4)[2].terms[(0,)] = 99
    with pytest.raises(TypeError):
        sym_poincare_product(P2, 2).terms[(0,)] = 99
    assert str(sym_poincare(P2, 2)) == want == "1 + t^2 + 2t^4 + t^6 + t^8"
    assert str(sym_poincare_product(P2, 2)) == want
