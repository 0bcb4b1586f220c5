"""
Partitions of n, their refinement order, and tuple splittings.

A partition is kept in two synchronized notations: the weakly decreasing
list of parts, and the dense multiplicity vector (a_1, ..., a_n) where a_i
counts the parts equal to i (so sum of i*a_i is n and the length is the
sum of the a_i).  The quantity n - length, called the *drop* here, is the
half cohomological degree attached to a stratum everywhere in this
package.

The refinement order: p' >= p when the parts of p' can be regrouped into
len(p) blocks summing to the parts of p.  Geometrically this is closure
containment of the diagonal strata of the n-th symmetric product.
"""

from functools import lru_cache
from itertools import product
from math import factorial

from ._base import Frozen


class MismatchedWeight(ValueError):
    """Two partitions that should partition the same n do not."""


class Partition(Frozen):
    """An integer partition, weakly decreasing tuple of positive parts."""

    __slots__ = ("nu",)

    def __init__(self, parts):
        nu = tuple(int(p) for p in parts)
        for i, p in enumerate(nu):
            if p < 1:
                raise ValueError("parts must be positive, got %r" % (p,))
            if i and nu[i - 1] < p:
                raise ValueError("parts must be weakly decreasing: %r" % (nu,))
        object.__setattr__(self, "nu", nu)

    @classmethod
    def from_multiplicities(cls, mult):
        """Build from the dense vector (a_1, ..., a_n), trailing zeros optional."""
        parts = []
        for i in range(len(mult), 0, -1):
            parts.extend([i] * mult[i - 1])
        return cls(parts)

    @property
    def n(self):
        return sum(self.nu)

    @property
    def length(self):
        return len(self.nu)

    @property
    def drop(self):
        """n - length; the class of this stratum lives in degree 2*drop."""
        return self.n - len(self.nu)

    @property
    def multiplicities(self):
        """Dense multiplicity vector of length n (entries may be 0)."""
        n = self.n
        a = [0] * n
        for p in self.nu:
            a[p - 1] += 1
        return tuple(a)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.nu == other.nu

    def __hash__(self):
        return hash(self.nu)

    def __iter__(self):
        return iter(self.nu)

    def __len__(self):
        return len(self.nu)

    def __repr__(self):
        return "(%s)" % ",".join(str(p) for p in self.nu)


@lru_cache(maxsize=None)
def partitions_of(n):
    """All partitions of n, descending lexicographic in the parts notation."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(Partition(p) for p in _raw_partitions(n, n))


@lru_cache(maxsize=None)
def _raw_partitions(n, max_part):
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _raw_partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def count_with_length(n, l):
    """Number of partitions of n with exactly l parts."""
    return sum(1 for p in partitions_of(n) if p.length == l)


def multiplicity_factorial(p):
    """Product of the factorials of the multiplicities a_i."""
    out = 1
    for a in p.multiplicities:
        out *= factorial(a)
    return out


def refines(finer, coarser):
    """
    Refinement test: can the parts of `finer` be split into len(coarser)
    disjoint groups, group j summing to the j-th part of `coarser`?

    This is the stratum closure order; (1,...,1) is the unique maximum and
    (n) the unique minimum.  Decided by a memoized exact-fill search over
    the multiset of parts; exponential in the worst case, intended for
    n up to a few tens.
    """
    if not isinstance(finer, Partition) or not isinstance(coarser, Partition):
        raise TypeError("refines expects two Partition values")
    if finer.n != coarser.n:
        raise MismatchedWeight(
            "partitions of different weights: %r vs %r" % (finer, coarser))
    return _fill(finer.nu, tuple(sorted(coarser.nu, reverse=True)))


@lru_cache(maxsize=None)
def _fill(parts, capacities):
    # parts, capacities: weakly decreasing tuples; place each part into some
    # capacity bucket so that every bucket is filled exactly.
    if not parts:
        return all(c == 0 for c in capacities)
    head, rest = parts[0], parts[1:]
    tried = set()
    for i, c in enumerate(capacities):
        if c < head or c in tried:
            continue
        tried.add(c)
        remaining = tuple(sorted(capacities[:i] + (c - head,) + capacities[i + 1:],
                                 reverse=True))
        if _fill(rest, remaining):
            return True
    return False


class PartitionTuple(Frozen):
    """A tuple of partitions, one for each part of a host partition."""

    __slots__ = ("host", "parts")

    def __init__(self, host, parts):
        parts = tuple(parts)
        if len(parts) != host.length:
            raise ValueError("need one partition per part of %r" % (host,))
        for b, v in zip(parts, host.nu):
            if b.n != v:
                raise MismatchedWeight("component %r does not partition %d" % (b, v))
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "parts", parts)

    def merged(self):
        """
        The partition of n whose i-th multiplicity is the sum of the i-th
        multiplicities of the components.  Always refines the host.
        """
        n = self.host.n
        a = [0] * n
        for b in self.parts:
            for p in b.nu:
                a[p - 1] += 1
        return Partition.from_multiplicities(a)

    @property
    def total_length(self):
        return sum(b.length for b in self.parts)

    @property
    def drop(self):
        """Sum of component drops; equals the drop of merged()."""
        return self.host.n - self.total_length

    def __eq__(self, other):
        return (isinstance(other, PartitionTuple)
                and self.host == other.host and self.parts == other.parts)

    def __hash__(self):
        return hash((self.host, self.parts))

    def __repr__(self):
        return "[%s]" % ", ".join(repr(b) for b in self.parts)


def splittings(host):
    """All partition tuples over the parts of `host`, in deterministic order."""
    pools = [partitions_of(v) for v in host.nu]
    return [PartitionTuple(host, combo) for combo in product(*pools)]


def splittings_merging_to(target, host):
    """
    The tuples over `host` merging to `target`; nonempty exactly when
    `target` refines `host`.
    """
    if target.n != host.n:
        raise MismatchedWeight(
            "partitions of different weights: %r vs %r" % (target, host))
    return [beta for beta in splittings(host) if beta.merged() == target]


def splittings_with_drop(h, host):
    """The tuples over `host` whose merged partition has drop h."""
    return [beta for beta in splittings(host) if beta.drop == h]
