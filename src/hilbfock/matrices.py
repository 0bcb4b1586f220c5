"""
Gaussian-rational matrices: tuples of tuples of GaussianRational, taken
and returned by thin wrappers over linalg's split-row kernels.  Each
wrapper splits its input once, runs the kernel and joins the result, so
an exact result is the kernel's own.  The adhm request path runs on split
rows and never loads this module; a surface's custom pairing, the
conjugation and torus action of adhm, and the tests use it.
"""

from .linalg import (ONE, ZERO, char_poly_rows, cleared_rows, echelon_insert,
                     join_rows, kernel_rows, mul_rows, pow_rows,
                     span_dim_rows, split_rows)


def matrix(rows):
    return tuple(join_rows(split_rows([row]), len(row))[0]
                 for row in map(tuple, rows))


def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n))
                 for i in range(n))


def mat_mul(a, b):
    return join_rows(mul_rows(split_rows(a), split_rows(b)),
                     len(b[0]) if b else 0)


def mat_pow(a, k):
    return join_rows(pow_rows(split_rows(a), k), len(a))


def char_poly(a):
    return char_poly_rows(split_rows(a))


def invariant_span_dim(mats, v):
    return span_dim_rows([split_rows(zip(*m)) for m in mats],
                         split_rows([v])[0])


def _echelon(rows):
    # (reduced row-echelon rows, their pivot columns), by ascending pivot:
    # the fraction-free rows, each divided by its pivot as it is joined
    basis = {}
    for row in cleared_rows(split_rows(rows))[0]:
        echelon_insert(basis, row)
    pivots = sorted(basis)
    ncols = len(rows[0]) if rows else 0
    return [join_rows([basis[p]], ncols, basis[p][0][p])[0]
            for p in pivots], pivots


def rank(a):
    return len(_echelon(a)[1])


def kernel_basis(a):
    """Basis of the right kernel, as a list of column vectors."""
    w, free, d = kernel_rows(cleared_rows(split_rows(a))[0],
                             len(a[0]) if a else 0)
    return list(zip(*join_rows(w, len(free), d)))


def invert(a):
    try:
        return solve_columns(tuple(zip(*a)), identity(len(a)))
    except ValueError:
        raise ZeroDivisionError("matrix is singular") from None


def solve_columns(v_cols, w_cols):
    """
    Solve V * M = W column by column, where V is given by columns and has
    full column rank.  Returns M (len(v_cols) x len(w_cols)).
    """
    n, k = len(v_cols[0]) if v_cols else 0, len(v_cols)
    aug = [[v_cols[j][i] for j in range(k)] + [w[i] for w in w_cols]
           for i in range(n)]
    ech, pivots = _echelon(aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("columns are not independent")
    if len(pivots) > k:
        raise ValueError("system is inconsistent")
    return tuple(tuple(ech[i][k:]) for i in range(k))
