"""
The root search (roots): roots are searched once each on the
square-free part of the polynomial, made monic, and their multiplicities
come from deflating the polynomial itself.  Roots at zero are counted
without it, so a monomial triple never reaches the search.
"""

from fractions import Fraction

import pytest

from hilbfock import roots as search
from hilbfock.cli import main
from hilbfock.roots import gaussian_integer_divisors
from hilbfock.linalg import (GaussianRational, SpectrumNotSplit,
                             gaussian_rational_roots)

G = GaussianRational


def expand(roots):
    """The monic polynomial prod (z - r)^m, coefficients ascending."""
    p = [G(1)]
    for r, m in roots:
        for _ in range(m):
            out = [G(0)] * (len(p) + 1)
            for i, c in enumerate(p):
                out[i + 1] = out[i + 1] + c
                out[i] = out[i] - c * r
            p = out
    return p


def counting_divisors(monkeypatch):
    """Record the argument of every gaussian_integer_divisors call."""
    real = search.gaussian_integer_divisors
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(search, "gaussian_integer_divisors", counting)
    return calls


@pytest.mark.parametrize("x, m", [
    (G(Fraction(1, 3), Fraction(1, 2)), 4),
    (G(10 ** 7), 2),
], ids=["gaussian_fraction_m4", "large_integer_m2"])
def test_a_single_repeated_root_needs_no_divisor_search(monkeypatch, x, m):
    calls = counting_divisors(monkeypatch)
    assert gaussian_rational_roots(expand([(x, m)])) == [(x, m)]
    assert calls == []


MIXED = [(G(1), 2), (G(0, -1), 3), (G(Fraction(1, 2)), 1),
         (G(Fraction(2, 5), Fraction(-3, 5)), 1), (G(0), 2)]


def test_a_mixed_product_gives_each_root_with_its_multiplicity():
    want = sorted(MIXED, key=lambda kv: (kv[0].re, kv[0].im))
    assert gaussian_rational_roots(expand(MIXED)) == want


def test_scaling_the_polynomial_changes_neither_roots_nor_search(
        monkeypatch):
    calls = counting_divisors(monkeypatch)
    p = expand(MIXED)
    roots = gaussian_rational_roots(p)
    unscaled = list(calls)
    assert unscaled  # three distinct nonzero roots: a real search
    calls.clear()
    assert gaussian_rational_roots([c * G(3, -2) for c in p]) == roots
    assert calls == unscaled


@pytest.mark.parametrize("p", [
    [G(-2), G(0), G(1)],                      # z^2 - 2
    [G(1), G(1), G(1)],                       # z^2 + z + 1
    [G(-2), G(4), G(-1), G(-2), G(1)],        # (z^2 - 2)(z - 1)^2
], ids=["z2-2", "cyclotomic", "z2-2_times_square"])
def test_an_irrational_spectrum_is_not_split(p):
    with pytest.raises(SpectrumNotSplit):
        gaussian_rational_roots(p)


def test_the_not_split_message_counts_the_roots_found():
    # (z^2 - 2)(z - 1)^2 z: the roots 0 and 1 (twice) are found
    p = [G(0), G(-2), G(4), G(-1), G(-2), G(1)]
    with pytest.raises(SpectrumNotSplit,
                       match="degree 5 has 3 discoverable roots"):
        gaussian_rational_roots(p)


def test_roots_round_trip_through_the_expanded_polynomial():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    parts = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    roots = st.dictionaries(st.builds(G, parts, parts), st.integers(1, 3),
                            min_size=1, max_size=3)

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(roots)
    def round_trip(mult):
        want = sorted(mult.items(), key=lambda kv: (kv[0].re, kv[0].im))
        assert gaussian_rational_roots(expand(want)) == want

    round_trip()


def test_a_large_single_eigenvalue_gets_a_verified_support(tmp_path,
                                                           capsys):
    # the characteristic polynomial z - 10^7 has a constant of norm 10^14,
    # above the divisor search bound; a linear square-free part needs none
    path = tmp_path / "triple.txt"
    path.write_text("1\n10000000\n0\n1\n")
    assert main(["adhm", "--triple", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "support\t1*(10000000,0)" in out
    assert "in_bidisk\tFalse" in out


@pytest.mark.parametrize("g, name", [
    (G(Fraction(3, 2)), "3/2"),
    (G(Fraction(1, 2)), "1/2"),
    (G(2, Fraction(1, 3)), "2+1/3i"),
])
def test_divisors_of_a_non_integral_value_raise_naming_it(g, name):
    # 3/2 was truncated to 1 (divisors [1, 1+i]), and 1/2 to 0
    with pytest.raises(ValueError, match="^%s is not a Gaussian integer$"
                       % name.replace("+", r"\+")):
        gaussian_integer_divisors(g)


# the distinct partitions of the benchmark's adhm --mu requests
BENCHMARK_PARTITIONS = ("1", "2", "1,1", "2,1", "1,1,1", "3", "2,2", "3,1",
                        "2,1,1", "3,2", "2,2,1", "3,2,1", "4,2", "3,3,1",
                        "3,3,3")


def test_a_monomial_triple_never_reaches_the_search(monkeypatch, tmp_path):
    def adhm_bytes(argv):
        path = tmp_path / "out.tsv"
        assert main(argv + ["--output", str(path)]) == 0
        return path.read_bytes()

    want = {mu: adhm_bytes(["adhm", "--mu", mu])
            for mu in BENCHMARK_PARTITIONS}

    def no_search(p):
        raise AssertionError("the root search ran on %r" % (p,))

    monkeypatch.setattr(search, "nonzero_roots", no_search)
    for mu in BENCHMARK_PARTITIONS:
        assert adhm_bytes(["adhm", "--mu", mu]) == want[mu], mu
    # the positive control: a nonzero eigenvalue does reach the search
    with pytest.raises(AssertionError, match="the root search ran"):
        gaussian_rational_roots([G(-1), G(1)])
