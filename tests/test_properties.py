"""Property tests, run where hypothesis is installed (the test extra)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hilbfock.adhm import MatrixTriple, read_triple, write_triple  # noqa: E402
from hilbfock.linalg import GaussianRational  # noqa: E402

fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
scalars = st.builds(GaussianRational, fractions, fractions)


@st.composite
def triples(draw):
    n = draw(st.integers(0, 3))
    square = st.lists(st.lists(scalars, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return MatrixTriple(draw(square), draw(square),
                        draw(st.lists(scalars, min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(triples())
def test_triple_text_round_trip(tr):
    assert read_triple(write_triple(tr)) == tr
