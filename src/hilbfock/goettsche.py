"""
Closed-form invariants of the Hilbert schemes of points of a surface and
of its symmetric products, each computed by two independent routes
wherever possible.

This module holds the stratum decomposition of the Hilbert scheme: a
degree-shifted sum over partitions of n of the Poincare polynomials of
products of symmetric products (hilbert_poincare_from_strata), and in x, y
of their Hodge polynomials (strata_hodge_table).  Goettsche's product, the
other route, is the module product; the two never import each other.
Their agreement, coefficient by coefficient, is the numerical content of
the decomposition of the direct image under the support morphism.

The stratum sums (Poincare, Hodge) run counts._strata_sums, the one
convolution over part sizes, on packed polynomials; counts owns it and the
integer tables (Euler, K-theory, sym_total_dim, punctual), so those load
neither this module nor series.  The literal partition walks stay apart:
stratum_product for the regrouping check of stratification, selfcheck's
route to the orbifold Euler numbers.  Packed rows grow through series.grow
from exponents, independent totals and, in x, y, a y-slope; series alone
sizes, lays out, re-spaces and checks their digits against closed forms
(sym_total_dim; for the strata, series.coefficient_sums).  Newton rows
are checked by remainders too.

Every table grows in tables, per surface, to the longest order asked so
far, keeping the state its kernel goes on from, so a per-n walk computes
each row once; stratum_product, one value per key, uses lru_cache.
"""

from functools import lru_cache, partial
from math import prod

from ._base import IdentityFailed
from .counts import _strata_sums, sym_total_dim
from .tables import cached_table


def _sym_table(model, order, kept, slope=None):
    """The stepping kernel, keeping a row per class; sym_total_dim totals."""
    from .series import grow, super_power_table
    exps = model.class_bidegrees if slope else list(zip(model.ordinary_degrees))
    def step(offset, last, n):
        gens = [(offset(e), 1, odd)
                for e, odd in zip(exps, model.ordinary_parities)]
        last = list(last)
        return super_power_table(gens, order + 1 - n, last), last
    return grow(kept, order, partial(sym_total_dim, model), [1] * len(exps),
                step, slope)


@cached_table
def sym_poincare_table(model, order, kept):
    """
    The list [sym_poincare(model, m) for m in 0..order], from one pass of
    the stepping kernel: the Poincare polynomials of the symmetric
    products as graded dimensions of the super-symmetric powers of the
    cohomology of the surface.  Each class is one generator (even classes
    repeat freely, odd classes at most once), which enumerates the same
    multisets as the naive count without materializing them.
    """
    return _sym_table(model, order, kept)


def sym_poincare(model, m):
    """Poincare polynomial of the m-th symmetric product."""
    return sym_poincare_table(model, m)[m]


def sym_poincare_product(model, m):
    """
    Independent route to sym_poincare: the q^m coefficient H_m of
    prod_d (1 - (-1)^d t^d q)^(-(-1)^d b_d), by Newton's identity
    m H_m = sum_{i=1..m} P_i H_(m-i) with P_i = sum_d s b_d t^(d i), where
    s = -1 for odd d at even i, else 1, each P_i H_(m-i) summed as shifted
    copies of a packed row, the rows kept as the table's state; a remainder
    or a wrong digit total raises IdentityFailed.
    """
    return _newton_table(model, m)[m]


@cached_table
def _newton_table(model, order, kept):
    from .series import grow
    b = model.betti
    def step(offset, packed, n):
        p = [[(s ** d * c, offset((d,))) for d, c in enumerate(b)
              if c] for s in (-1, 1)]  # P_i's (coeff, offset / i), i even, odd
        packed = list(packed)
        for m in range(n, order + 1):
            h, r = divmod(sum(c * h << e * i
                              for i, h in enumerate(reversed(packed), 1)
                              for c, e in p[i % 2]), m)
            if r or h < 0:
                raise IdentityFailed("Newton's identity fails at m = %d" % m)
            packed.append(h)
        return packed, packed
    return grow(kept, order, partial(sym_total_dim, model), [1], step)


def stratum_poincare(model, a):
    """
    Poincare polynomial of the product of symmetric products attached to a
    partition in multiplicity notation: one factor per multiplicity a_i
    (zero multiplicities contribute a point factor).
    """
    from .poly import CoeffPoly
    return CoeffPoly({(d,): c for d, c in enumerate(
        stratum_product(model, a.signature))})


@lru_cache(maxsize=None)
def stratum_product(model, signature):
    """
    The product of sym_poincare(model, m) over a Partition.signature, as its
    coefficients of t^0, t^1, ..: built once per surface and signature.
    """
    from .poly import CoeffPoly
    out = prod((sym_poincare(model, m) for m in signature),
               start=CoeffPoly.one())
    return tuple(out.coefficient((d,)) for d in range(out.total_degree() + 1))


def _strata_table(model, order, kept, sym, slope=None):
    """Strata sums of a sym table times t^(2 drop) or (xy)^drop; Betti sums."""
    from .series import coefficient_sums, grow, pack
    def step(offset, state, n):
        return _strata_sums(lambda a: pack(sym[a], offset), order,
                            offset((1, 1) if slope else (2,)), state)
    b = model.betti
    totals = coefficient_sums(sum(b[::2]), sum(b[1::2]), order)
    return grow(kept, order, totals.__getitem__, [[], [[1]]], step, slope)


@cached_table
def strata_poincare_table(model, order, kept):
    """[hilbert_poincare_from_strata(model, n) for n in 0..order]."""
    return _strata_table(model, order, kept, sym_poincare_table(model, order))


def hilbert_poincare_from_strata(model, n):
    """
    Poincare polynomial of the n-th Hilbert scheme as the stratum sum
    sum_a t^(2 drop(a)) * P_t(stratum space of a) over partitions of n.
    """
    return strata_poincare_table(model, n)[n]


def _hodge_slope(model):
    """The largest y-exponent per power of q of a Hodge table: max(1, q)."""
    return max([1] + [q for _, q in model.class_bidegrees])


@cached_table
def hodge_sym_table(model, order, kept):
    """The list [hodge_sym(model, m) for m in 0..order], grown in x, y."""
    return _sym_table(model, order, kept, _hodge_slope(model))


def hodge_sym(model, m):
    """
    Hodge polynomial of the m-th symmetric product: the bigraded
    super-symmetric power, classes of odd total degree used at most once.
    """
    return hodge_sym_table(model, m)[m]


@cached_table
def strata_hodge_table(model, order, kept):
    """
    The Hodge polynomials of product.hilbert_hodge_table as the sum of
    hodge_sym strata times (xy)^drop.
    """
    return _strata_table(model, order, kept, hodge_sym_table(model, order),
                         _hodge_slope(model))
