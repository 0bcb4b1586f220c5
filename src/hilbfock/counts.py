"""
The integer counts of the Hilbert schemes of points and their relatives:
Euler numbers (hilbert_euler_table, orbifold_euler), total dimensions of
the symmetric products (sym_total_dim) and of equivariant K-theory
(equivariant_k_table), and punctual Poincare polynomials, counted by
partition length.  _strata_sums is the one convolution over part sizes
that goettsche's packed stratum sums run too.  No table here loads series:
only punctual_poincare builds a polynomial (poly.CoeffPoly).  Tables are
cached in tables, per surface or Euler number, at the longest order asked.
"""

from functools import lru_cache, partial
from math import comb

from .tables import cached, cached_table


def _strata_sums(term, order, shift=0, state=None):
    """
    Sum over partitions of n of w^drop prod_i f[a_i], n <= order, and the
    state [f, parts] it extends on copies: f[a] = term(a), f[0] = 1, w =
    2^shift, parts[i] the product over j <= i of sum_a f[a] w^((j-1)a) q^(ja).
    """
    f, kept = state or ([], [[1]])
    f = f + [term(a) for a in range(len(f), order + 1)]
    parts = [[1] + [0] * order]
    for i in range(1, order + 1):
        below, s = parts[i - 1], shift * (i - 1)
        col = kept[i][:] if i < len(kept) else below[:i]
        parts.append(col)
        for n in range(len(col), order + 1):
            col.append(below[n] + sum(f[a] * below[n - i * a] << s * a
                                      for a in range(1, n // i + 1)))
    return [col[n] for n, col in enumerate(parts)], [f, parts]


def punctual_poincare(n):
    """
    Poincare polynomial of the punctual fiber: sum over partitions of n of
    t^(2 drop).  Top coefficient sits at t^(2(n-1)) and equals 1.  Counted
    by length l = n - drop, with the recurrence
    p(k, l) = p(k-1, l-1) + p(k-l, l) for partitions of k into l parts
    (remove a part 1, or subtract 1 from every part).  Computed once per n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    def build():
        from .poly import CoeffPoly
        p = [[1] + [0] * n]
        for k in range(1, n + 1):
            p.append([0] + [p[k - 1][l - 1] + p[k - l][l]
                            for l in range(1, k + 1)] + [0] * (n - k))
        return CoeffPoly._make(
            {(2 * (n - l),): p[n][l] for l in range(1, n + 1)}, 1)
    return cached((punctual_poincare, n), build)


def general_binomial(a, k):
    """
    Binomial coefficient with arbitrary integer top, exact integer:
    C(a, k) = (-1)^k C(k - a - 1, k) for a < 0.
    """
    if a < 0:
        return -comb(k - a - 1, k) if k % 2 else comb(k - a - 1, k)
    return comb(a, k)


@cached_table
def hilbert_euler_table(euler, order, kept):
    """
    Euler numbers of the Hilbert schemes of points, n = 0..order: the
    coefficients of prod_m (1 - q^m)^(-e) up to q^order, e the Euler number
    of the surface (negative e allowed), as the strata convolution of
    C(e+a-1, a), since sum_a C(e+a-1, a) x^a = (1 - x)^(-e).
    """
    return _strata_sums(lambda a: general_binomial(euler + a - 1, a), order,
                        0, kept and kept[1])


def hilbert_euler(euler, n):
    """Euler number of the n-th Hilbert scheme (see hilbert_euler_table)."""
    return hilbert_euler_table(euler, n)[n]


def orbifold_euler(euler, n):
    """
    Orbifold Euler number of the n-fold product modulo permutations: the
    sum over partitions of n of prod_i C(e + a_i - 1, a_i).  That sum is
    the convolution that expands the Euler product, so it reads the Euler
    table; selfcheck walks the partitions as the second route.
    """
    return hilbert_euler_table(euler, n)[n]


@lru_cache(maxsize=None)
def sym_total_dim(model, m):
    """
    Total cohomology dimension of the m-th symmetric product, by the closed
    multiset count: choose j of the odd classes (no repeats) and a multiset
    of m-j even classes.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    b_even, b_odd = sum(model.betti[::2]), sum(model.betti[1::2])
    total = 0
    for j in range(min(b_odd, m) + 1):
        # max(., 0): with no even class only the empty multiset is left
        total += comb(b_odd, j) * comb(max(b_even + m - j - 1, 0), m - j)
    return total


def equivariant_k_dim(model, n):
    """
    Dimension of the rational equivariant K-theory of the n-fold product
    under the permutation action: sum over partitions of n of the product
    of total cohomology dimensions of the attached symmetric products.
    Equals the total Betti number of the n-th Hilbert scheme.
    """
    return equivariant_k_table(model, n)[n]


@cached_table
def equivariant_k_table(model, order, kept):
    """[equivariant_k_dim(model, n) for n in 0..order] from one convolution."""
    return _strata_sums(partial(sym_total_dim, model), order, 0,
                        kept and kept[1])
