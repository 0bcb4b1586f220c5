import random
from fractions import Fraction

import pytest

from hilbfock import heisenberg, poly, product, series, tables
from hilbfock._base import IdentityFailed
from hilbfock.cli import main
from hilbfock.partitions import partitions_of
from hilbfock.product import goettsche_families
from hilbfock.poly import CoeffPoly, UnknownVariable
from hilbfock.series import (FactorFamily, IndexOutOfRange, OrderMismatch,
                             QTSeries, digit_bits, digit_offset, pack,
                             product_expand, super_power_table, unpack)
from hilbfock.surfaces import K3


def rand_poly(rng, nvars=1, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return CoeffPoly(terms, nvars)


def rand_series(rng, order, nvars=1):
    return QTSeries(order, [rand_poly(rng, nvars) for _ in range(order + 1)],
                    nvars)


def test_coeffpoly_basic():
    p = CoeffPoly({(2,): 3, (0,): 1})
    q = CoeffPoly({(2,): -3})
    assert (p + q) == CoeffPoly({(0,): 1})
    assert str(p) == "1 + 3t^2"
    assert p.coefficient((2,)) == 3
    assert not CoeffPoly({(1,): 0})
    assert p * 0 == CoeffPoly.zero()


def test_coeffpoly_rendering():
    assert str(CoeffPoly.zero()) == "0"
    assert str(CoeffPoly({(0,): -1, (1,): 1})) == "-1 + t"
    assert str(CoeffPoly({(1,): Fraction(1, 2)})) == "(1/2)t"
    assert str(CoeffPoly({(0, 0): 1, (1, 1): 2, (3, 0): 1}, nvars=2)) == \
        "1 + 2xy + x^3"
    assert str(CoeffPoly({(2,): -2})) == "-2t^2"


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(25):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * CoeffPoly.one() == a
    for _ in range(15):
        a, b, c = (rand_series(rng, 4) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * QTSeries.one(4) == a


def _canonical(p):
    # no stored coefficient is an integral Fraction, and p prints as the
    # constructor, which normalises every coefficient, renders it
    assert not any(isinstance(c, Fraction) and c.denominator == 1
                   for c in p.terms.values()), p.terms
    assert str(p) == str(CoeffPoly(p.terms, p.nvars))
    return p


def test_fraction_arithmetic_keeps_integral_coefficients_int():
    half = CoeffPoly({(1,): Fraction(1, 2)})
    assert str(half * CoeffPoly({(1,): 4})) == "2t^2"
    assert str(CoeffPoly({(1,): Fraction(3, 2)}) * 2) == "3t"
    assert str(half + half) == "t"
    rng = random.Random(16)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for lhs, rhs in ((a + b, b + a), (a * b * c, c * (b * a)),
                         (a * k, k * a), (a * (b + c), a * b + a * c),
                         (a + b - b, a)):
            assert lhs == rhs
            assert str(_canonical(lhs)) == str(_canonical(rhs))
    for _ in range(30):
        a, b = rand_series(rng, 3), rand_series(rng, 3)
        k = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        for product in (a * b, a * k):
            for coeff in product.coeffs:
                _canonical(coeff)


class _One:
    """Integral, but neither equal to nor hashing like the int 1."""

    def __index__(self):
        return 1


def test_coeffpoly_refuses_non_integral_exponents_and_normalises_merges():
    for bad in (1.5, 1.0, Fraction(1, 1)):
        with pytest.raises(TypeError):
            CoeffPoly({(bad,): Fraction(1, 2), (1,): Fraction(1, 2)})
    with pytest.raises(TypeError):
        CoeffPoly({(0, 2.5): 1}, nvars=2)
    merged = CoeffPoly({(1,): Fraction(1, 2), (_One(),): Fraction(1, 2)})
    assert merged.terms == {(1,): 1} and type(merged.terms[(1,)]) is int
    assert not CoeffPoly({(1,): Fraction(1, 2), (_One(),): Fraction(-1, 2)})


def test_series_mul_example():
    # (1 - q) * sum p(n) q^n has coefficients p(n) - p(n-1)
    N = 12
    ps = product_expand([FactorFamily(-1, 1, ((0, 0),))], N)
    prod = QTSeries(N, [1, -1]) * ps
    counts = [len(partitions_of(n)) for n in range(N + 1)]
    for n in range(N + 1):
        expect = counts[n] - (counts[n - 1] if n else 0)
        assert prod.coeff(n).constant_value() == expect


def test_series_order_and_index_errors():
    a = QTSeries.one(3)
    b = QTSeries.one(4)
    with pytest.raises(OrderMismatch):
        a * b
    with pytest.raises(OrderMismatch):
        a + b
    with pytest.raises(IndexOutOfRange):
        a.coeff(4)
    with pytest.raises(IndexOutOfRange):
        a.coeff(-1)
    with pytest.raises(ValueError):
        QTSeries(2, [1, 1, 1, 1])
    with pytest.raises(OrderMismatch):
        a.truncate(7)


def test_partition_family_matches_enumeration():
    fam = FactorFamily(-1, 1, ((0, 0),))
    s = product_expand([fam], 20)
    for n in range(21):
        assert s.coeff(n).constant_value() == len(partitions_of(n))


def test_empty_product_is_one():
    s = product_expand([], 5)
    assert s == QTSeries.one(5)


def test_k3_weight_family():
    # (1-q)^-24 (1-q^2)^-24 ... : q^2 coefficient is C(25,2) + 24
    fam = FactorFamily(-1, 24, ((0, 0),))
    s = product_expand([fam], 2)
    assert s.coeff(2).constant_value() == 324


def test_truncation_consistency():
    fams = [FactorFamily(-1, 2, ((2, -2),)), FactorFamily(1, 3, ((2, -1),))]
    big = product_expand(fams, 9)
    for smaller in range(10):
        assert big.truncate(smaller) == product_expand(fams, smaller)


def test_factor_family_validation():
    with pytest.raises(ValueError):
        FactorFamily(0, 1, ((0, 0),))
    with pytest.raises(ValueError):
        FactorFamily(1, -1, ((0, 0),))
    with pytest.raises(ValueError):
        FactorFamily(1, 1, ((0, -1),))     # exponent -1 at every m
    with pytest.raises(ValueError):
        FactorFamily(1, 1, ((-1, 0),))     # exponent negative for large m
    FactorFamily(1, 1, ((2, -2),))         # 2m-2 >= 0 is fine


def test_specialize_values():
    fam = FactorFamily(-1, 1, ((2, -2),))
    s = product_expand([fam], 6)
    total = s.specialize({"t": 1})
    for n in range(7):
        assert total.coeff(n).constant_value() == len(partitions_of(n))
    with pytest.raises(UnknownVariable):
        s.specialize({"x": 1})


def test_specialize_two_variables():
    p = CoeffPoly({(1, 1): 2, (2, 0): 1}, nvars=2)
    assert p.specialize({"x": "t", "y": "t"}) == CoeffPoly({(2,): 3})
    assert p.specialize({"x": 1, "y": -1}) == CoeffPoly({(0,): -1})
    assert p.specialize({"x": Fraction(1, 2), "y": 2}) == \
        CoeffPoly({(0,): Fraction(9, 4)})
    with pytest.raises(UnknownVariable):
        p.specialize({"x": "t"})


def test_coefficients_stay_exact():
    # an integer-heavy product has exact integer coefficients
    fam = FactorFamily(-1, 24, ((0, 0),))
    s = product_expand([fam], 10)
    assert s.coeff(10).constant_value() == 639249300


def test_two_variable_family_collapses_to_one_variable():
    # prod (1 - (xy)^(m-1) q^m)^-1 at x=y=t equals prod (1 - t^(2m-2) q^m)^-1
    fam2 = FactorFamily(-1, 1, ((1, -1), (1, -1)))
    fam1 = FactorFamily(-1, 1, ((2, -2),))
    s2 = product_expand([fam2], 7)
    assert s2.nvars == 2
    assert s2.specialize({"x": "t", "y": "t"}) == product_expand([fam1], 7)


def test_super_power_table_counts():
    # two even generators repeat freely: multisets of size j
    assert super_power_table([(0, 1, 0)] * 2, 5) == [1, 2, 3, 4, 5, 6]
    # three odd generators are used at most once: subsets of size j
    assert super_power_table([(0, 1, 1)] * 3, 5) == [1, 3, 3, 1, 0, 0]
    # stride 2: the even generator lands on even levels only
    assert super_power_table([(0, 2, 0)], 5) == [1, 0, 1, 0, 1, 0]
    # packed: t at offset 8, one odd and one even, gives 2 t^2 at level 2
    table = super_power_table([(8, 1, 1), (8, 1, 0)], 2)
    assert unpack(table[2], 8, 2) == CoeffPoly({(2,): 2})


# oracle: the product as a chain of QTSeries products of single factors
def factor_chain(families, order, nvars):
    out = QTSeries.one(order, nvars)
    for f in families:
        for m in range(1, order + 1):
            out = out * f.factor_series(m, order)
    return out


def rand_family(rng, nvars):
    # d may be negative (down to -c), which keeps c*m + d >= 0 for m >= 1;
    # weights up to 24 put w both below and above k/m in the division
    exps = []
    for _ in range(nvars):
        c = rng.randint(0, 3)
        exps.append((c, rng.randint(-c, 3)))
    return FactorFamily(rng.choice((1, -1)), rng.randint(0, 24), exps)


# weight 0, both signs, and a negative d in each variable: the packed index
# width must follow the largest exponent, c + max(d, 0) per unit of q; the
# weights 22 and 24 (K3's b2 and Euler number) exceed k/m at small m only
FIXED_FAMILIES = {
    1: [FactorFamily(1, 0, ((2, 1),)), FactorFamily(-1, 2, ((3, -3),)),
        FactorFamily(1, 3, ((1, -1),)), FactorFamily(-1, 1, ((0, 2),)),
        FactorFamily(-1, 22, ((2, 0),)), FactorFamily(1, 24, ((1, 1),))],
    2: [FactorFamily(1, 0, ((1, 1), (1, 1))),
        FactorFamily(-1, 2, ((2, -2), (0, 1))),
        FactorFamily(1, 3, ((0, 2), (3, -2))),
        FactorFamily(-1, 1, ((1, -1), (1, -1))),
        FactorFamily(-1, 22, ((1, 0), (1, 0))),
        FactorFamily(1, 24, ((0, 1), (1, -1)))],
}


@pytest.mark.parametrize("nvars", (1, 2))
def test_product_expand_matches_factor_chain(nvars):
    rng = random.Random(40 + nvars)
    for order in range(13):
        fixed = FIXED_FAMILIES[nvars]
        assert product_expand(fixed, order, nvars) == \
            factor_chain(fixed, order, nvars)
        for _ in range(2):
            fams = [rand_family(rng, nvars) for _ in range(rng.randint(1, 3))]
            assert product_expand(fams, order, nvars) == \
                factor_chain(fams, order, nvars)


def coefficient_sums(series):
    return [c.specialize(dict.fromkeys(("x", "y") if series.nvars == 2
                                       else ("t",), 1)).constant_value()
            for c in series.coeffs]


@pytest.mark.parametrize("nvars", (1, 2))
def test_closed_form_totals_are_the_coefficient_sums(nvars):
    rng = random.Random(70 + nvars)
    assert series.coefficient_sums(0, 0, 9) == [1] + [0] * 9
    for order in range(11):
        for _ in range(2):
            fams = [rand_family(rng, nvars) for _ in range(rng.randint(1, 3))]
            a, b = (sum(f.weight for f in fams if f.sign == sign)
                    for sign in (-1, 1))
            assert series.coefficient_sums(a, b, order) == coefficient_sums(
                factor_chain(fams, order, nvars))


def test_coefficient_sums_rejects_a_negative_order():
    # order -1 once returned [1], a row 0 that no table of order -1 has
    assert series.coefficient_sums(1, 0, 0) == [1]
    for order in (-1, -7):
        with pytest.raises(ValueError, match="order must be non-negative"):
            series.coefficient_sums(1, 0, order)


def test_a_corrupted_total_fails_the_identity(monkeypatch):
    real = series.coefficient_sums

    def corrupted(a, b, order):
        totals = real(a, b, order)
        totals[6] += 1
        return totals

    families = goettsche_families(K3)
    product_expand(families, 8)
    monkeypatch.setattr(series, "coefficient_sums", corrupted)
    with pytest.raises(IdentityFailed, match="do not sum to"):
        product_expand(families, 8)


def crossed(*args, **kwargs):
    raise AssertionError("one route called the other's stepping")


def test_product_and_character_routes_step_apart(monkeypatch):
    """fock_character_vs_product proves something only if they share no step."""
    families = goettsche_families(K3)
    with monkeypatch.context() as m:
        for module in (series, heisenberg):
            m.setattr(module, "super_power_table", crossed)
        expanded = product_expand(families, 8)
    assert expanded == factor_chain(families, 8, 1)
    monkeypatch.setattr(tables, "_TABLES", {})
    for module in (series, product):
        monkeypatch.setattr(module, "product_table", crossed)
    assert heisenberg.graded_character(K3, 8) == expanded


def test_a_carry_in_the_product_series_fails_the_identity(monkeypatch,
                                                           capsys):
    # K3's Betti numbers pass 255 by n = 10, so one-byte digits carry
    monkeypatch.setattr(series, "digit_bits", lambda total: 8)
    with pytest.raises(IdentityFailed):
        product_expand(goettsche_families(K3), 10)
    monkeypatch.setattr(tables, "_TABLES", {})
    assert main(["goettsche", "--surface", "k3", "--order", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "identity failed" in err


@pytest.mark.parametrize("request_args", (
    "sym --surface k3 --order 10", "hodge --surface k3 --order 8",
    "goettsche --surface k3 --order 10", "fock --surface k3 --order 10"))
def test_every_packed_table_takes_its_digit_size_from_series(
        monkeypatch, capsys, request_args):
    # one-byte digits carry in each of these K3 tables; a table that sized
    # its digits anywhere but series.digit_bits would still pass
    monkeypatch.setattr(series, "digit_bits", lambda total: 8)
    monkeypatch.setattr(tables, "_TABLES", {})
    assert main(request_args.split()) == 1
    out, err = capsys.readouterr()
    assert out == "" and "identity failed" in err


def rand_count_poly(rng, nvars, max_deg, max_coeff):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exps] = rng.randint(0, max_coeff)
    return CoeffPoly(terms, nvars)


def offsets(bits, width=None):
    """The offset function grow hands its steps, for these digits."""
    return lambda exps: digit_offset(exps, bits, width)


def packed_product(a, b, nvars):
    """a * b through pack, one int product and unpack, digits sized by it."""
    want = a * b
    total = sum(want.terms.values())
    bits = digit_bits(max(want.terms.values(), default=0))
    # x^p y^q with q below width; the product reaches the sum of the degrees
    width = None if nvars == 1 else max(
        (e[1] for e in want.terms), default=0) + 1
    offset = offsets(bits, width)
    return unpack(pack(a, offset) * pack(b, offset), bits, total,
                  width), want


@pytest.mark.parametrize("nvars", (1, 2))
def test_packed_product_matches_dict_product(nvars):
    rng = random.Random(70 + nvars)
    for _ in range(200):
        a = rand_count_poly(rng, nvars, 6, rng.choice((3, 40, 3000)))
        b = rand_count_poly(rng, nvars, 6, rng.choice((3, 40, 3000)))
        got, want = packed_product(a, b, nvars)
        assert got == want


@pytest.mark.parametrize("nvars", (1, 2))
def test_packed_digits_reach_the_top_of_their_width(nvars):
    # 255 = 15 * 17 and 65535 = 255 * 257 fill a digit of 8 and 16 bits
    mono = (lambda *e: e[:nvars])
    for c1, c2, bits in ((15, 17, 8), (255, 257, 16), (1, 255, 8)):
        a = CoeffPoly({mono(0, 2): c1, mono(3, 0): 1}, nvars)
        b = CoeffPoly({mono(2, 1): c2}, nvars)
        got, want = packed_product(a, b, nvars)
        assert got == want
        assert max(want.terms.values()) == 2 ** bits - 1
        assert digit_bits(max(want.terms.values())) == bits


def test_digit_bits_are_whole_bytes_above_the_total():
    assert [digit_bits(v) for v in (0, 1, 255, 256, 65535, 65536)] == \
        [8, 8, 8, 16, 16, 24]


def test_pack_layout_and_empty_values():
    bits, width = 8, 5
    assert digit_offset((1, 4), bits, width) == 8 * 9
    assert digit_offset((3,), 0) == 0  # no digits: plain counts
    assert pack(CoeffPoly({(2,): 3}), offsets(bits)) == 3 << 16
    assert pack(CoeffPoly({(1, 4): 7}, 2), offsets(bits, width)) == 7 << 8 * 9
    assert pack(CoeffPoly.zero(2), offsets(bits, width)) == 0
    assert unpack(0, bits, 0) == CoeffPoly.zero()
    assert unpack(0, bits, 0, width) == CoeffPoly.zero(2)
    assert unpack(7 << 8 * 9, bits, 7, width) == CoeffPoly({(1, 4): 7}, 2)


def per_digit(value, step, count):
    """The digits of a packed int, one int.from_bytes per digit."""
    raw = value.to_bytes(count * step, "little")
    return [int.from_bytes(raw[k * step:(k + 1) * step], "little")
            for k in range(count)]


@pytest.mark.parametrize("step", range(1, 10))
def test_unpack_matches_a_per_digit_oracle(step):
    bits, rng = 8 * step, random.Random(step)
    for count in (1, 2, 3, 7, 40):
        value = rng.randrange(1 << bits * (count - 1), 1 << bits * count)
        if count == 3:  # full, zero and top digits
            value = ((1 << bits) - 1) | 1 << bits * 2
        digits = per_digit(value, step, count)
        total = sum(digits)
        assert unpack(value, bits, total) == CoeffPoly(
            {(k,): c for k, c in enumerate(digits) if c})
        assert unpack(value, bits, total, 3) == CoeffPoly(
            {divmod(k, 3): c for k, c in enumerate(digits) if c}, 2)
        with pytest.raises(IdentityFailed):
            unpack(value, bits, total + 1)


def test_unpack_with_a_wrong_total_raises_identity_failed():
    poly = CoeffPoly({(0,): 2, (3,): 5})
    value = pack(poly, offsets(8))
    assert unpack(value, 8, 7) == poly
    for total in (6, 8, 0):
        with pytest.raises(IdentityFailed):
            unpack(value, 8, total)
    # a carry out of a digit changes the digit sum, so it cannot pass
    carried = pack(CoeffPoly({(0,): 300}), offsets(8))
    with pytest.raises(IdentityFailed):
        unpack(carried, 8, 300)


# A plain-dict reference for the sparse product, sharing no code with the
# kernel in poly: every pair of terms, exponents added per variable.
def dict_product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(sum, zip(ea, eb)))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def signed_terms(rng, nvars, integral):
    """Random terms: negative values, Fractions unless integral, and each
    term often paired with its negative one degree up, so products cancel."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(0, 3) for _ in range(nvars))
        c = rng.choice((-3, -2, -1, 1, 2, 5))
        if not integral and rng.random() < 0.5:
            c = Fraction(c, rng.choice((2, 3, 6)))
        terms[e] = c
        if rng.random() < 0.4:  # (1 - t) style pairs make terms cancel
            terms[tuple(x + 1 for x in e)] = -c
    return terms


def assert_product_terms(got, want, integral):
    assert got == want
    assert all(c != 0 for c in got.values())
    if integral:
        assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("nvars", (1, 2))
@pytest.mark.parametrize("integral", (True, False), ids=("int", "fraction"))
def test_coeffpoly_product_matches_the_dict_reference(nvars, integral):
    rng = random.Random(90 + nvars + 2 * integral)
    for _ in range(150):
        a = signed_terms(rng, nvars, integral)
        b = signed_terms(rng, nvars, integral)
        got = CoeffPoly(a, nvars) * CoeffPoly(b, nvars)
        assert_product_terms(got.terms, dict_product(a, b), integral)
    one, t = ((0,) * nvars), ((1,) * nvars)
    diff = CoeffPoly({one: 1, t: -1}, nvars)
    total = CoeffPoly({one: 1, t: 1}, nvars)
    # (1 - t)(1 + t): the middle terms cancel and leave no zero behind
    assert (diff * total).terms == {one: 1, (2,) * nvars: -1}


@pytest.mark.parametrize("nvars", (1, 2))
@pytest.mark.parametrize("integral", (True, False), ids=("int", "fraction"))
def test_qtseries_product_matches_the_dict_reference(nvars, integral):
    rng = random.Random(80 + nvars + 2 * integral)
    for _ in range(40):
        order = rng.randint(0, 5)
        a = [signed_terms(rng, nvars, integral) for _ in range(order + 1)]
        b = [signed_terms(rng, nvars, integral) for _ in range(order + 1)]
        got = (QTSeries(order, [CoeffPoly(t, nvars) for t in a], nvars)
               * QTSeries(order, [CoeffPoly(t, nvars) for t in b], nvars))
        for k in range(order + 1):
            want = {}
            for i in range(k + 1):
                for e, c in dict_product(a[i], b[k - i]).items():
                    want[e] = want.get(e, 0) + c
            assert_product_terms(got.coeffs[k].terms,
                                 {e: c for e, c in want.items() if c},
                                 integral)


def test_both_products_run_through_the_one_kernel(monkeypatch):
    def broken(bucket, a, b, nvars):
        raise RuntimeError("kernel called")

    monkeypatch.setattr(poly, "mul_into", broken)
    for nvars in (1, 2):
        p = CoeffPoly({(1,) * nvars: 2}, nvars)
        with pytest.raises(RuntimeError, match="kernel called"):
            p * p
        s = QTSeries(2, [p, p], nvars)
        with pytest.raises(RuntimeError, match="kernel called"):
            s * s


def dict_series(families, order):
    """The product of all factor_series as {(k, p, q): c}, by dict_product."""
    out = {(0, 0, 0): 1}
    for f in families:
        for m in range(1, order + 1):
            factor = {(k,) + e: c for k, poly in enumerate(
                f.factor_series(m, order).coeffs)
                for e, c in poly.terms.items()}
            out = {e: c for e, c in dict_product(out, factor).items()
                   if e[0] <= order}
    return out


def test_a_product_in_xy_alone_is_stepped_in_one_variable():
    # equal x- and y-forms make a product in w = xy: series packs it in one
    # variable, keeps no y-width, and reads each w^k back as x^k y^k
    families = [FactorFamily(-1, 3, ((1, 0), (1, 0))),
                FactorFamily(1, 2, ((2, -1), (2, -1))),
                FactorFamily(-1, 22, ((1, 1), (1, 1))),
                FactorFamily(1, 0, ((3, 2), (3, 2)))]
    got = product_expand(families, 10)
    assert got.nvars == 2
    assert {(k,) + e: c for k, poly in enumerate(got.coeffs)
            for e, c in poly.terms.items()} == dict_series(families, 10)
    kept = series.product_table(families, 4)
    rows, (_, width, state) = series.product_table(families, 10, kept)
    assert rows == list(got.coeffs) and kept[0] == rows[:5]
    assert width is None and kept[1][1] is None
    # the kept packed rows are those of the one-variable product
    one = [FactorFamily(f.sign, f.weight, f.exps[:1]) for f in families]
    assert state == series.product_table(one, 10)[1][2]
    assert series.product_table([], 3, nvars=2)[0] == [
        CoeffPoly.one(2)] + [CoeffPoly.zero(2)] * 3
