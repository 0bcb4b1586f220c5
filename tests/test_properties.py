"""Property tests, run where hypothesis is installed (the test extra)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from hilbfock.adhm import MatrixTriple, read_triple, write_triple  # noqa: E402
from hilbfock.linalg import GaussianRational  # noqa: E402
from hilbfock.partitions import Partition, partitions_of, refines  # noqa: E402
from hilbfock.series import CoeffPoly  # noqa: E402

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
