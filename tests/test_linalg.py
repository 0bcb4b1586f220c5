"""
The one elimination routine of linalg, against oracles written here on
plain Fraction pairs: the reduced row-echelon form of _echelon, rank and
kernels, the two failures of solve_columns, singular inverses, and the
invariant span behind adhm.is_stable.
"""

import random
from fractions import Fraction

import pytest

from hilbfock.adhm import MatrixTriple, from_monomial_ideal, is_stable
from hilbfock.linalg import GaussianRational
from hilbfock.matrices import (_echelon, identity, invariant_span_dim, invert,
                               kernel_basis, mat_mul, rank, solve_columns)
from hilbfock.partitions import partitions_of

G = GaussianRational


# ------------------------------------------------- plain-Fraction oracle


def _pair(z):
    return (Fraction(z.re), Fraction(z.im))


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def gauss_jordan(rows):
    """Column-by-column Gauss-Jordan on (re, im) Fraction pairs."""
    rows = [[_pair(z) for z in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    zero = (Fraction(0), Fraction(0))
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != zero),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = _inv(rows[r][col])
        rows[r] = [_mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != r and f != zero:
                rows[i] = [(x[0] - p[0], x[1] - p[1]) for x, p in
                           zip(rows[i], (_mul(f, y) for y in rows[r]))]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def rand_scalar(rng):
    if rng.random() < 0.3:
        return G(0)
    return G(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
             Fraction(rng.randint(-2, 2), rng.randint(1, 3)))


def rand_matrix(rng, n_rows, n_cols):
    return [[rand_scalar(rng) for _ in range(n_cols)] for _ in range(n_rows)]


def sample_matrices(seed):
    rng = random.Random(seed)
    square = rand_matrix(rng, 4, 4)
    wide = [row + list(e) for row, e in zip(rand_matrix(rng, 3, 3),
                                            identity(3))]
    tall = rand_matrix(rng, 6, 3)
    low_rank = mat_mul(rand_matrix(rng, 5, 2), rand_matrix(rng, 2, 5))
    repeated = rand_matrix(rng, 2, 4)
    repeated = repeated + [repeated[0], repeated[1]]
    zero_rows = rand_matrix(rng, 4, 5)
    zero_rows[1] = zero_rows[3] = [G(0)] * 5
    return {"square": square, "wide": wide, "tall": tall,
            "low_rank": low_rank, "repeated": repeated,
            "zero_rows": zero_rows, "all_zero": [[G(0)] * 3] * 2}


CASES = [(seed, name) for seed in range(6)
         for name in sorted(sample_matrices(0))]


@pytest.mark.parametrize("seed,name", CASES)
def test_echelon_matches_plain_gauss_jordan(seed, name):
    a = sample_matrices(seed)[name]
    rows, pivots = _echelon(a)
    want_rows, want_pivots = gauss_jordan(a)
    assert pivots == want_pivots
    assert [[_pair(z) for z in row] for row in rows] == want_rows


def test_echelon_of_empty_matrix():
    assert _echelon([]) == ([], [])


def mat_vec(a, v):
    """A v, as mat_mul of A and the column v."""
    return tuple(row[0] for row in mat_mul(a, [(x,) for x in v]))


@pytest.mark.parametrize("seed,name", CASES)
def test_rank_plus_kernel_is_the_column_count(seed, name):
    a = sample_matrices(seed)[name]
    kernel = kernel_basis(a)
    assert rank(a) + len(kernel) == len(a[0])
    for v in kernel:
        assert all(x.is_zero() for x in mat_vec(a, v))


def test_rank_examples():
    assert [rank(sample_matrices(0)[name]) for name in
            ("low_rank", "repeated", "all_zero")] == [2, 2, 0]


def test_solve_columns_solves_and_rejects():
    rng = random.Random(11)
    v = rand_matrix(rng, 3, 5)  # the three columns of V
    m = rand_matrix(rng, 3, 2)
    w = [[sum((v[j][i] * m[j][c] for j in range(3)), G(0))
          for i in range(5)] for c in range(2)]
    assert solve_columns(v, w) == tuple(tuple(row) for row in m)
    with pytest.raises(ValueError, match="columns are not independent"):
        solve_columns([v[0], v[1], [2 * x for x in v[0]]], w)
    with pytest.raises(ValueError, match="system is inconsistent"):
        solve_columns([[G(1), G(0)]], [[G(0), G(1)]])


def test_invert_and_singular_matrices():
    a = [[G(1), G(0, 1)], [G(2), G(Fraction(1, 2))]]
    assert mat_mul(a, invert(a)) == identity(2)
    assert invert([]) == ()
    for singular in ([[G(1), G(2)], [G(2), G(4)]], [[G(0)]],
                     sample_matrices(3)["low_rank"]):
        with pytest.raises(ZeroDivisionError, match="matrix is singular"):
            invert(singular)


# ----------------------------------------------------- stability oracle


def word_span_rank(tr):
    """Rank of the words A^i B^j v with i + j < n."""
    words, a, b = [], tr.a, tr.b
    bv = tr.v
    for j in range(tr.n):
        w = bv
        for _ in range(tr.n - j):
            words.append(w)
            w = mat_vec(a, w)
        bv = mat_vec(b, bv)
    return len(gauss_jordan(words)[1])


def with_vector(tr, v):
    return MatrixTriple(tr.a, tr.b, v)


def check_against_words(tr, seen):
    want = word_span_rank(tr)
    assert invariant_span_dim((tr.a, tr.b), tr.v) == want
    assert is_stable(tr) == (want == tr.n)
    seen.add(want == tr.n)


def test_is_stable_matches_word_span_on_monomial_triples():
    seen = set()
    for n in range(1, 7):
        for mu in partitions_of(n):
            tr = from_monomial_ideal(mu)
            for e in identity(n):
                check_against_words(with_vector(tr, e), seen)
    assert seen == {True, False}


def test_is_stable_matches_word_span_on_conjugated_triples():
    rng = random.Random(5)
    seen = set()
    for n in range(1, 5):
        for mu in partitions_of(n):
            while True:
                g = rand_matrix(rng, n, n)
                if rank(g) == n:
                    break
            tr = from_monomial_ideal(mu).conjugate_by(g)
            check_against_words(tr, seen)
            for e in identity(n):
                check_against_words(with_vector(tr, e), seen)
    assert seen == {True, False}


def test_invariant_span_of_the_empty_space():
    assert invariant_span_dim(((), ()), ()) == 0
    assert is_stable(MatrixTriple([], [], []))
