"""
Stalk-level bookkeeping for the support morphism from the Hilbert scheme
to the symmetric product: which strata support the even direct images,
the stalk dimension table over a stratum, and the two dimension identities
(local, over a basic neighborhood; global, regrouping the stratum sum)
that express the degeneration of the associated spectral sequence.

Everything here is a dimension count over partitions; no sheaf data
structure exists, by design.  The walks stay literal: a stalk table counts
every partition tuple over its stratum, once per partition, and the
regrouping walks the census of n, one stratum product per signature.
"""

from collections import Counter
from sys import getsizeof

from ._base import Frozen
from .partitions import Partition, partition_census, splitting_drops


class StalkTable(Frozen):
    """Stalk dimensions of the even direct images over one stratum."""

    __slots__ = ("nu", "rows")

    def __init__(self, nu, rows):
        rows = tuple(int(r) for r in rows)
        if len(rows) != nu.n:
            raise ValueError("need one row per half-degree 0..n-1")
        if rows and rows[0] != 1:
            raise ValueError("degree-0 stalk must be 1 (connected fibers)")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "rows", rows)

    def poincare(self):
        """Sum of rows[h] t^(2h), the stalk Poincare polynomial."""
        from .poly import CoeffPoly
        return CoeffPoly({(2 * h,): r for h, r in enumerate(self.rows)})

    def __repr__(self):
        return "StalkTable(%r, rows=%r)" % (self.nu, self.rows)


def support_strata(n, h):
    """
    The strata supporting the direct image in degree 2h: all partitions of
    n with length at most n - h, in the order of partitions_of(n), their
    memory claimed from their counts by length before any row.  Empty
    when h >= n.  Odd degrees have no table at all: the odd direct images
    vanish.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if h < 0:
        raise ValueError("h must be non-negative")
    most = n - h
    if most < 1:
        return []
    # count[k]: partitions of k into parts of size <= j, as many as into at
    # most j parts (conjugation); at_most[j] is count[n]
    count, at_most = [1] + [0] * n, [0]
    for j in range(1, most + 1):
        for k in range(j, n + 1):
            count[k] += count[k - j]
        at_most.append(count[n])
    # claimed first, so rows memory cannot hold fail now: a row of l parts
    # is a Partition, a tuple of l parts and its list slot, 8 B each
    bytearray(sum((at_most[l] - at_most[l - 1])
                  * (getsizeof(Partition(())) + getsizeof(()) + 8 * (l + 1))
                  for l in range(1, most + 1)))

    def parts(k, top, slots):  # of k, each part <= top, at most slots parts
        if not k:
            yield ()
        # down to ceil(k / slots): a smaller first part leaves too much
        for first in range(min(k, top), k and (k - 1) // slots, -1):
            for rest in parts(k - first, first, slots - 1):
                yield (first,) + rest

    return [Partition(nu) for nu in parts(n, n, most)]


def stalk_table(nu):
    """
    The stalk dimensions over the stratum of nu: in degree 2h, the number
    of partition tuples over nu whose merged partition has drop h.
    """
    if nu.n < 1:
        raise ValueError("partition must be non-empty")
    return StalkTable(nu, splitting_drops(nu))


def local_fiber_check(nu):
    """
    The local dimension identity over a basic neighborhood of a point of
    the stratum of nu: the stalk Poincare polynomial must equal the
    product of the punctual polynomials of the parts.  Both sides are
    computed independently (tuple enumeration vs polynomial product).
    """
    from .counts import punctual_poincare
    from .poly import CoeffPoly
    lhs = stalk_table(nu).poincare()
    rhs = CoeffPoly.one()
    for part in nu:
        rhs = rhs * punctual_poincare(part)
    return lhs == rhs


def global_degeneration_check(model, n):
    """
    The global regrouping identity: the stratum-decomposition Poincare
    polynomial of the n-th Hilbert scheme equals the sum over h of
    t^(2h) times the total stratum polynomial in length n - h.
    """
    from .goettsche import hilbert_poincare_from_strata, stratum_product
    from .poly import CoeffPoly
    if n < 0:
        raise ValueError("n must be non-negative")
    lhs = hilbert_poincare_from_strata(model, n)
    rhs = Counter()  # each census class at h = n - length, shifted by t^(2h)
    for (length, signature), count in partition_census(n).items():
        for d, c in enumerate(stratum_product(model, signature)):
            rhs[2 * (n - length) + d] += count * c
    return lhs == CoeffPoly({(e,): c for e, c in rhs.items()})
