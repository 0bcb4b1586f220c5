"""Property tests, run where hypothesis is installed (the test extra)."""

import random
from collections import Counter
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from hilbfock.adhm import (MatrixTriple, from_monomial_ideal,  # noqa: E402
                           read_triple, support_cycle, trace_table,
                           write_triple)
from hilbfock.linalg import GaussianRational  # noqa: E402
from hilbfock.matrices import invert  # noqa: E402
from hilbfock.partitions import Partition, partitions_of, refines  # noqa: E402
from hilbfock.series import CoeffPoly, super_power_table  # noqa: E402

EXAMPLES = settings(max_examples=60, deadline=None, database=None,
                    derandomize=True)

fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
scalars = st.builds(GaussianRational, fractions, fractions)


@st.composite
def triples(draw):
    n = draw(st.integers(0, 3))
    square = st.lists(st.lists(scalars, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return MatrixTriple(draw(square), draw(square),
                        draw(st.lists(scalars, min_size=n, max_size=n)))


@EXAMPLES
@given(triples())
def test_triple_text_round_trip(tr):
    assert read_triple(write_triple(tr)) == tr


@st.composite
def chains(draw):
    """Partitions a, b, c of one n <= 8: b merges parts of a, c of b."""
    n = draw(st.integers(0, 8))
    chain = [draw(st.sampled_from(partitions_of(n)))]
    for _ in range(2):
        parts = list(chain[-1])
        for _ in range(draw(st.integers(0, max(len(parts) - 1, 0)))):
            i, j = draw(st.lists(st.integers(0, len(parts) - 1), min_size=2,
                                 max_size=2, unique=True))
            parts.append(parts[i] + parts[j])
            del parts[max(i, j)], parts[min(i, j)]
        chain.append(Partition(sorted(parts, reverse=True)))
    return chain


@EXAMPLES
@given(chains())
def test_refinement_is_a_partial_order(chain):
    a, b, c = chain
    assert refines(a, a) and refines(a, b) and refines(b, c)
    assert refines(a, c)
    assert refines(b, a) == (a == b)


# halves, thirds and quarters: many sums and products come out integral
coefficients = st.one_of(st.integers(-6, 6),
                         st.builds(Fraction, st.integers(-6, 6),
                                   st.sampled_from([2, 3, 4])))


def polys(nvars):
    exponents = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(exponents, coefficients, max_size=4).map(
        lambda terms: CoeffPoly(terms, nvars))


poly_triples = st.integers(1, 2).flatmap(
    lambda nvars: st.tuples(*[polys(nvars)] * 3))


def assert_exact(poly):
    """Every coefficient is a nonzero int, or a Fraction that is not one."""
    for c in poly.terms.values():
        assert c and (type(c) is int
                      or type(c) is Fraction and c.denominator != 1), c


@EXAMPLES
@given(poly_triples)
@example((CoeffPoly({(1,): Fraction(1, 2)}), CoeffPoly({(0,): 2}),
          CoeffPoly({(1,): Fraction(-1, 2), (0,): Fraction(3, 2)})))
@example((CoeffPoly({(1, 0): Fraction(2, 3)}, 2),
          CoeffPoly({(0, 1): Fraction(3, 2)}, 2),
          CoeffPoly({(1, 0): Fraction(1, 3)}, 2)))
def test_coeffpoly_ring_laws_are_exact(triple):
    p, q, r = triple
    results = [p + q, q + p, (p + q) + r, p + (q + r), p * q, q * p,
               (p * q) * r, p * (q * r), p * (q + r), p * q + p * r]
    for result in results:
        assert_exact(result)
    assert all(left == right
               for left, right in zip(results[::2], results[1::2]))


UNITS = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
         GaussianRational(0, -1))


def unimodular(seed, n):
    """
    A seeded n x n Gaussian-integer matrix of unit determinant: a diagonal
    of units, row additions row_i += c row_j, then a row permutation.
    """
    rng = random.Random(seed)
    g = [[rng.choice(UNITS) if i == j else GaussianRational(0)
          for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
    rng.shuffle(g)
    return g


def assert_conjugation_keeps_support_and_traces(tr, seed):
    g = unimodular(seed, tr.n)
    # unit determinant: the inverse has Gaussian-integer entries too
    assert all(z.re.denominator == z.im.denominator == 1
               for row in invert(g) for z in row)
    conj = tr.conjugate_by(g)
    assert trace_table(conj, tr.n) == trace_table(tr, tr.n)
    assert support_cycle(conj) == support_cycle(tr)


@EXAMPLES
@given(st.integers(1, 5).flatmap(lambda n: st.sampled_from(partitions_of(n))),
       st.integers(0, 2 ** 32))
def test_conjugation_keeps_monomial_support_and_traces(mu, seed):
    assert_conjugation_keeps_support_and_traces(from_monomial_ideal(mu), seed)


points = st.tuples(*[st.builds(GaussianRational, st.builds(
    Fraction, st.integers(-3, 3), st.sampled_from([1, 2])),
    st.integers(-1, 1))] * 2)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 3).flatmap(
    lambda n: st.sampled_from(partitions_of(n))), points),
    min_size=1, max_size=3, unique_by=lambda block: block[1]),
    st.integers(0, 2 ** 32))
def test_conjugation_keeps_block_sum_support_and_traces(blocks, seed):
    """Monomial triples moved to distinct points, summed block-diagonally."""
    n = sum(mu.n for mu, _ in blocks)
    zero = GaussianRational(0)
    a = [[zero] * n for _ in range(n)]
    b = [[zero] * n for _ in range(n)]
    v = []
    for mu, (x, y) in blocks:
        tr, off = from_monomial_ideal(mu), len(v)
        ta, tb = tr.a, tr.b  # each read builds its grid anew
        for i in range(tr.n):
            for j in range(tr.n):
                a[off + i][off + j] = ta[i][j] + (x if i == j else zero)
                b[off + i][off + j] = tb[i][j] + (y if i == j else zero)
        v += tr.v
    tr = MatrixTriple(a, b, v)
    assert support_cycle(tr).points == {
        point: mu.n for mu, point in blocks}
    assert_conjugation_keeps_support_and_traces(tr, seed)


def stepping_gens(strides):
    """Up to four (k, s, odd) generators, k an offset of 0..6 8-bit digits."""
    return st.lists(st.tuples(st.integers(0, 6).map(lambda d: 8 * d),
                              strides, st.integers(0, 1)), max_size=4)


def multiset_digits(gens, order):
    """
    Per level 0..order, {digit: count} over the multisets of generators
    (odd ones at most once) whose strides sum to the level, each multiset
    at the digit its offsets sum to.
    """
    levels = [Counter() for _ in range(order + 1)]

    def walk(c, level, digit):
        if c == len(gens):
            levels[level][digit] += 1
            return
        k, s, odd = gens[c]
        for m in range(2 if odd else order + 1):
            if level + m * s <= order:
                walk(c + 1, level + m * s, digit + m * k // 8)

    walk(0, 0, 0)
    return levels


def digits(value):
    """{digit: count} of a packed int of 8-bit digits."""
    return Counter({d: value >> 8 * d & 255
                    for d in range((value.bit_length() + 7) // 8)
                    if value >> 8 * d & 255})


@EXAMPLES
@given(stepping_gens(st.integers(1, 3)), st.integers(0, 6))
def test_stepping_counts_the_multisets_of_its_generators(gens, order):
    table = super_power_table(gens, order)
    assert list(map(digits, table)) == multiset_digits(gens, order)


@EXAMPLES
@given(stepping_gens(st.just(1)), st.integers(0, 6), st.integers(0, 6))
def test_stepping_grown_through_last_equals_one_build(gens, n, m):
    n, m = sorted((n, m))
    last = [1] * len(gens)
    short = super_power_table(gens, n, last)
    grown = super_power_table(gens, m - n, last)  # rows n..m
    assert short + grown[1:] == super_power_table(gens, m)
