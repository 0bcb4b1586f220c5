"""
The matrix kernels that run on the sparse split form, char_poly and
trace_table, against oracles written here on dense (re, im) Fraction
pairs: the characteristic polynomial by interpolating determinants, and
traces of plainly multiplied powers.
"""

import random
from fractions import Fraction

import pytest

from hilbfock.adhm import MatrixTriple, from_monomial_ideal, trace_table
from hilbfock.linalg import GaussianRational
from hilbfock.matrices import char_poly
from hilbfock.partitions import partitions_of

G = GaussianRational
ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def pair(z):
    return (Fraction(z.re), Fraction(z.im))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return mul(a, (b[0] / n, -b[1] / n))


def det(m):
    """Determinant by Gaussian elimination with row swaps."""
    m = [list(row) for row in m]
    out = ONE
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] != ZERO), None)
        if piv is None:
            return ZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = (-out[0], -out[1])
        out = mul(out, m[c][c])
        for r in range(c + 1, len(m)):
            f = div(m[r][c], m[c][c])
            m[r] = [sub(x, mul(f, y)) for x, y in zip(m[r], m[c])]
    return out


def oracle_char_poly(a):
    """
    det(z I - A) = z^n + sum_{k<n} c_k z^k: the c_k solve the Vandermonde
    system at z = 0, ..., n-1, real and imaginary parts separately.
    """
    n = len(a)
    rows = []
    for t in range(n):
        zi_a = [[sub((Fraction(t * (i == j)), Fraction(0)), a[i][j])
                 for j in range(n)] for i in range(n)]
        rhs = sub(det(zi_a), (Fraction(t) ** n, Fraction(0)))
        rows.append([Fraction(t) ** k for k in range(n)] + list(rhs))
    for c in range(n):  # Gauss-Jordan on the real Vandermonde matrix
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [(row[n], row[n + 1]) for row in rows] + [ONE]


def oracle_mat_mul(a, b):
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            s = ZERO
            for t, x in enumerate(row):
                s = add(s, mul(x, b[t][j]))
            new.append(s)
        out.append(new)
    return out


def oracle_traces(a, b, max_total):
    n = len(a)
    eye = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    a_pows, b_pows = [eye], [eye]
    for _ in range(max_total):
        a_pows.append(oracle_mat_mul(a_pows[-1], a))
        b_pows.append(oracle_mat_mul(b_pows[-1], b))
    out = {}
    for k in range(max_total + 1):
        for l in range(max_total + 1 - k):
            m = oracle_mat_mul(a_pows[k], b_pows[l])
            t = ZERO
            for i in range(n):
                t = add(t, m[i][i])
            out[(k, l)] = t
    return out


def rand_scalar(rng):
    if rng.random() < 0.25:
        return G(0)
    im = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    if rng.random() < 0.3:
        im = 0
    return G(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), im)


def rand_matrix(rng, n):
    return [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]


def pairs(m):
    return [[pair(x) for x in row] for row in m]


@pytest.mark.parametrize("seed", range(12))
def test_char_poly_matches_interpolated_determinants(seed):
    rng = random.Random(seed)
    n = 1 + seed % 5
    a = rand_matrix(rng, n)
    assert [pair(c) for c in char_poly(a)] == oracle_char_poly(pairs(a))


@pytest.mark.parametrize("seed", range(12))
def test_trace_table_matches_plain_powers(seed):
    rng = random.Random(100 + seed)
    n = 1 + seed % 4
    tr = MatrixTriple(rand_matrix(rng, n), rand_matrix(rng, n),
                      [G(1)] * n)
    want = oracle_traces(pairs(tr.a), pairs(tr.b), n + 1)
    assert {key: pair(val) for key, val in trace_table(tr, n + 1).items()} \
        == want


MONOMIAL = [mu for n in range(1, 7) for mu in partitions_of(n)]


@pytest.mark.parametrize("mu", MONOMIAL, ids=str)
def test_kernels_on_monomial_triples(mu):
    tr = from_monomial_ideal(mu)
    a, b = pairs(tr.a), pairs(tr.b)
    assert [pair(c) for c in char_poly(tr.a)] == oracle_char_poly(a)
    assert [pair(c) for c in char_poly(tr.b)] == oracle_char_poly(b)
    assert {key: pair(val) for key, val in trace_table(tr, tr.n).items()} \
        == oracle_traces(a, b, tr.n)
