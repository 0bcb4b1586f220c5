"""
Goettsche's product route: the Poincare and Hodge polynomials of the
Hilbert schemes of points of a surface, as the coefficients of the product
generating functions over q of Goettsche and of Goettsche-Soergel.

goettsche holds the other route, the stratum decomposition, and the two
never import each other, so their agreement (selfcheck) checks two codes.
The expansion is series.product_table; series sizes and checks its packed
digits against series.coefficient_sums.  Tables are cached in tables, per
surface, at the longest order asked so far.
"""

from collections import Counter

from .series import FactorFamily, QTSeries, product_table
from .tables import cached_table


def goettsche_families(model):
    """
    The five factor families of the product formula: numerator factors
    (1 + t^(2m-1) q^m)^b1 and (1 + t^(2m+1) q^m)^b3, denominator factors
    (1 - t^(2m-2) q^m)^-b0, (1 - t^(2m) q^m)^-b2, (1 - t^(2m+2) q^m)^-b4.
    """
    b = model.betti
    specs = [(-1, b[0], (2, -2)), (1, b[1], (2, -1)), (-1, b[2], (2, 0)),
             (1, b[3], (2, 1)), (-1, b[4], (2, 2))]
    return [FactorFamily(sign, w, (exp,)) for sign, w, exp in specs if w]


@cached_table
def _product_table(model, order, kept):
    return product_table(goettsche_families(model), order, kept)


def hilbert_poincare_series(model, order):
    """Generating function of Hilbert-scheme Poincare polynomials up to q^order."""
    return QTSeries(order, _product_table(model, order))


def hilbert_hodge(model, n):
    """Hodge polynomial sum h^{p,q} x^p y^q of the n-th Hilbert scheme."""
    return hilbert_hodge_table(model, n)[n]


@cached_table
def hilbert_hodge_table(model, order, kept):
    """
    [hilbert_hodge(model, n) for n in 0..order] from the Goettsche-Soergel
    product prod_m prod_(p,q) (1 - (-1)^(p+q) x^(p+m-1) y^(q+m-1) q^m)
    ^(-(-1)^(p+q) h^(p,q)), h^(p,q) counted from class_bidegrees (with
    only h^(p,p), series packs it in w = xy).
    """
    return product_table([
        FactorFamily(1 if (p + q) % 2 else -1, h, ((1, p - 1), (1, q - 1)))
        for (p, q), h in Counter(model.class_bidegrees).items()],
        order, kept, nvars=2)
