"""
Graded super vector-space data of a surface.

A SurfaceModel records the ordinary and compact-support Betti numbers in
degrees 0..4 (by default b^c_d = b_(4-d), Poincare duality), the pairing
between degree d and compact degree 4-d, and an optional Hodge bigrading.
Cohomology classes get flat indices: ordinary classes are numbered degree
by degree, compact-support classes likewise.  The parity of a class is its
degree mod 2.  Derived at construction, so outside equality and the hash:
ordinary_parities and compact_parities in flat order, and pairing_columns,
for each compact class a read-only {ordinary index: nonzero pairing}.

Shipped presets: the open bidisk/affine-plane model ("delta"), the
projective plane, the quadric, a K3 and an abelian surface.  All pairings
are identity blocks in the chosen bases.  surface_file.parse_surface_file
reads any other surface from a configuration file.
"""

from types import MappingProxyType

from ._base import Frozen, exact


class MissingHodgeData(ValueError):
    """Hodge-mode operation on a model without a Hodge bigrading."""


class SurfaceModel(Frozen):
    # ordinary_degrees, compact_degrees: each class's degree, flat order
    __slots__ = ("name", "betti", "betti_c", "pairing", "hodge", "euler",
                 "ordinary_degrees", "compact_degrees", "ordinary_parities",
                 "compact_parities", "pairing_columns", "_bidegrees", "_hash")

    def __init__(self, name, betti, betti_c=None, pairing=None, hodge=None,
                 euler=None):
        betti = tuple(int(b) for b in betti)
        if len(betti) != 5 or any(b < 0 for b in betti):
            raise ValueError("betti must be 5 non-negative integers")
        betti_c = betti[::-1] if betti_c is None else tuple(map(int, betti_c))
        if len(betti_c) != 5 or any(b < 0 for b in betti_c):
            raise ValueError("betti_c must be 5 non-negative integers")
        for d in range(5):
            if betti[d] != betti_c[4 - d]:
                raise ValueError(
                    "pairing block %d cannot be square: b_%d=%d vs b^c_%d=%d"
                    % (d, d, betti[d], 4 - d, betti_c[4 - d]))
        if pairing is None:
            pairing = tuple(
                tuple(tuple(int(i == j) for j in range(betti_c[4 - d]))
                      for i in range(betti[d]))
                for d in range(5))
        else:
            from fractions import Fraction
            from .matrices import matrix, rank
            pairing = tuple(
                tuple(tuple(exact(Fraction(v)) for v in row) for row in block)
                for block in pairing)
            for d, block in enumerate(pairing):
                if len(block) != betti[d] or any(
                        len(row) != betti_c[4 - d] for row in block):
                    raise ValueError("pairing block %d has wrong shape" % d)
                if betti[d] and rank(matrix(block)) != betti[d]:
                    raise ValueError("pairing block %d is degenerate" % d)
        if hodge is not None:
            hodge = {(int(p), int(q)): int(h) for (p, q), h in dict(hodge).items()
                     if int(h)}
            for (p, q), h in hodge.items():
                if h < 0 or p < 0 or q < 0 or p + q > 4:
                    raise ValueError("bad hodge entry (%d,%d): %d" % (p, q, h))
                if hodge.get((q, p), 0) != h:
                    raise ValueError("hodge numbers must be symmetric")
            for d in range(5):
                s = sum(h for (p, q), h in hodge.items() if p + q == d)
                if s != betti[d]:
                    raise ValueError(
                        "hodge numbers in degree %d sum to %d, betti is %d"
                        % (d, s, betti[d]))
            hodge = tuple(sorted(hodge.items()))
        e = betti[0] - betti[1] + betti[2] - betti[3] + betti[4]
        if euler is not None and int(euler) != e:
            raise ValueError("euler=%d inconsistent with betti (expect %d)"
                             % (int(euler), e))
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "betti_c", betti_c)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "euler", e)
        degrees = tuple(d for d in range(5) for _ in range(betti[d]))
        compact = tuple(d for d in range(5) for _ in range(betti_c[d]))
        object.__setattr__(self, "ordinary_degrees", degrees)
        object.__setattr__(self, "compact_degrees", compact)
        object.__setattr__(self, "ordinary_parities",
                           tuple(d % 2 for d in degrees))
        object.__setattr__(self, "compact_parities",
                           tuple(d % 2 for d in compact))
        # compact class j of degree dc pairs with the rows of block 4 - dc
        object.__setattr__(self, "pairing_columns", tuple(
            MappingProxyType({sum(betti[:4 - dc]) + i: row[j]
                              for i, row in enumerate(pairing[4 - dc])
                              if row[j]})
            for dc in range(5) for j in range(betti_c[dc])))
        object.__setattr__(self, "_bidegrees", None if hodge is None else tuple(
            pq for pq, h in sorted(hodge, key=lambda kv: (sum(kv[0]), kv[0]))
            for _ in range(h)))
        # hashed once: every cache lookup would otherwise rehash the pairing
        object.__setattr__(self, "_hash", hash(self._key()))

    def __eq__(self, other):
        return self is other or (isinstance(other, SurfaceModel)
                                 and self._key() == other._key())

    def _key(self):
        return (self.name, self.betti, self.betti_c, self.pairing, self.hodge)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "SurfaceModel(%r, betti=%r)" % (self.name, self.betti)

    @property
    def has_hodge(self):
        return self.hodge is not None

    @property
    def total_dim(self):
        return sum(self.betti)

    def class_degree(self, idx):
        degs = self.ordinary_degrees
        if not 0 <= idx < len(degs):
            raise IndexError("no ordinary class %d" % idx)
        return degs[idx]

    def compact_class_degree(self, idx):
        degs = self.compact_degrees
        if not 0 <= idx < len(degs):
            raise IndexError("no compact-support class %d" % idx)
        return degs[idx]

    def pairing_value(self, ord_idx, c_idx):
        """Pairing of ordinary class ord_idx with compact class c_idx."""
        self.class_degree(ord_idx)  # both raise IndexError out of range
        self.compact_class_degree(c_idx)
        return self.pairing_columns[c_idx].get(ord_idx, 0)

    @property
    def class_bidegrees(self):
        """
        Hodge bidegrees of the ordinary classes, aligned with the flat
        order; within a degree, classes are sorted by ascending p.
        """
        if self._bidegrees is None:
            raise MissingHodgeData("model %r carries no Hodge data" % self.name)
        return self._bidegrees


DELTA = SurfaceModel("delta", (1, 0, 0, 0, 0))

P2 = SurfaceModel("p2", (1, 0, 1, 0, 1),
                  hodge={(0, 0): 1, (1, 1): 1, (2, 2): 1})

P1XP1 = SurfaceModel("p1xp1", (1, 0, 2, 0, 1),
                     hodge={(0, 0): 1, (1, 1): 2, (2, 2): 1})

K3 = SurfaceModel("k3", (1, 0, 22, 0, 1),
                  hodge={(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1,
                         (2, 2): 1})

ABELIAN = SurfaceModel("abelian", (1, 4, 6, 4, 1),
                       hodge={(0, 0): 1,
                              (1, 0): 2, (0, 1): 2,
                              (2, 0): 1, (1, 1): 4, (0, 2): 1,
                              (2, 1): 2, (1, 2): 2,
                              (2, 2): 1})

PRESETS = {
    "delta": DELTA,
    "c2": DELTA,
    "p2": P2,
    "p1xp1": P1XP1,
    "k3": K3,
    "abelian": ABELIAN,
}
