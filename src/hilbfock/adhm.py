"""
The commuting-matrix model of the Hilbert scheme of points of the plane:
triples (A, B, v) with [A, B] = 0 and v cyclic, over exact Gaussian
rationals.  The quotient by simultaneous conjugation is never formed;
points are handled through conjugation-invariant data (trace invariants
and support cycles), computed by linalg's split-row kernels: only a
nonzero eigenvalue loads the root search (roots), and only conjugate_by
and torus_scale load the Gaussian-rational matrix wrappers (matrices).

Triple text format: whitespace-separated tokens; first the size n, then
the n*n entries of A row-major, then B, then the n entries of v, each a
token "a/b", "c/di" or "a/b+c/di" (see linalg.scalar_from_str).  The adhm
subcommand reads its triple with requested_triple and prints report.
"""

from math import isqrt
from sys import getsizeof, maxsize
from types import MappingProxyType

from ._base import ConfigError, Frozen
from .linalg import (GaussianRational, IdentityFailed, SpectrumNotSplit,
                     ZERO, affine_rows, char_poly_rows, cleared_rows,
                     gaussian_rational_roots, join_rows, mul_rows, parse_rows,
                     pow_rows, power_traces, restrict_rows, scalar_to_str,
                     span_dim_rows, split_rows, trace_rows)


class NotCommuting(ValueError):
    """The two matrices of a triple do not commute."""


class NotInBidisk(ValueError):
    """Some eigenvalue has modulus at least one."""


class ZeroScalar(ValueError):
    """Torus scaling by zero is not invertible."""


class MatrixTriple(Frozen):
    """
    A matrix pair with marked vector: (A, B, v), all of size n, given as
    GaussianRational, int or Fraction entries.  The checks run on `cols`,
    (A^T, B^T, v) split once (linalg): A w is the row product w A^T, and
    the transposes have the traces, characteristic polynomials and joint
    spectrum of A and B.  The linalg kernels clear their denominators, so
    a rational triple is worked on in Gaussian integers and an integer
    one loads no rational arithmetic.  `commuting` is whether AB = BA,
    multiplied on the cleared columns; the grids `a`, `b` and `v` are
    built anew on each read.
    """

    __slots__ = ("n", "cols", "commuting")

    def __new__(cls, a, b, v):
        n = len(v)
        for m in (a, b):
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError("matrices must be %d x %d" % (n, n))
        return cls.of_cols(split_rows(zip(*a)), split_rows(zip(*b)),
                           split_rows([v])[0])

    @classmethod
    def of_cols(cls, a, b, v):
        """The triple of A^T = a and B^T = b (split matrices) and v."""
        tr = object.__new__(cls)
        object.__setattr__(tr, "n", len(a))
        object.__setattr__(tr, "cols", (a, b, v))
        (ca, _), (cb, _) = cleared_rows(a), cleared_rows(b)
        object.__setattr__(tr, "commuting",
                           mul_rows(ca, cb) == mul_rows(cb, ca))
        return tr

    a = property(lambda self: tuple(zip(*join_rows(self.cols[0], self.n))))
    b = property(lambda self: tuple(zip(*join_rows(self.cols[1], self.n))))
    v = property(lambda self: join_rows([self.cols[2]], self.n)[0])

    def __eq__(self, other):
        return isinstance(other, MatrixTriple) and self.cols == other.cols

    def __repr__(self):
        return "MatrixTriple(n=%d)" % self.n

    def conjugate_by(self, g):
        """G (A, B, v) G^-1, v as G v: on cols, G^-T A^T G^T and v G^T."""
        from .matrices import invert
        if len(g) != self.n or any(len(row) != self.n for row in g):
            raise ValueError("conjugator must be %d x %d" % (self.n, self.n))
        gt, git = (split_rows(zip(*m)) for m in (g, invert(g)))
        a, b = (mul_rows(mul_rows(git, m), gt) for m in self.cols[:2])
        return MatrixTriple.of_cols(a, b, mul_rows(self.cols[2:], gt)[0])


class SupportCycle(Frozen):
    """A multiset of plane points (x, y) with multiplicities summing to n."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = {point: m for point, m in dict(points).items() if m}
        if any(m < 0 for m in pts.values()):
            raise ValueError("negative multiplicity")
        object.__setattr__(self, "points", MappingProxyType(pts))

    @property
    def total(self):
        return sum(self.points.values())

    def power_sum(self, k, l):
        """Sum over the cycle of x^k y^l with multiplicity."""
        return sum((x ** k * y ** l * m for (x, y), m in self.points.items()
                    if not (k and x.is_zero() or l and y.is_zero())), ZERO)

    def __eq__(self, other):
        return isinstance(other, SupportCycle) and self.points == other.points

    def __repr__(self):
        return " + ".join(
            "%d*(%s,%s)" % (m, scalar_to_str(x), scalar_to_str(y))
            for (x, y), m in sorted(self.points.items(), key=lambda kv: (
                kv[0][0].re, kv[0][0].im, kv[0][1].re, kv[0][1].im))) or "0"


def is_commuting(tr):
    return tr.commuting


def is_stable(tr):
    """Cyclicity of v: the words in A and B applied to v span the space."""
    if not tr.commuting:
        raise NotCommuting("triple does not commute")
    return span_dim_rows(tr.cols[:2], tr.cols[2]) == tr.n


def trace_invariant(tr, k, l):
    """The conjugation invariant Tr(A^k B^l) = Tr((A^T)^k (B^T)^l)."""
    if k < 0 or l < 0:
        raise ValueError("exponents must be non-negative")
    a, b, _ = tr.cols
    return trace_rows(mul_rows(pow_rows(a, k), pow_rows(b, l)))


def trace_table(tr, max_total):
    """All Tr(A^k B^l), k + l <= max_total: linalg.power_traces."""
    return power_traces(*tr.cols[:2], max_total)


def support_cycle(tr, traces=None):
    """
    The support of the triple with multiplicities: split the space into
    the generalized eigenspaces ker (A - x)^mx of A and restrict B to each
    (on the transposes); (x, y) gets the multiplicity of y that the root
    search returns for the restriction, the dimension of the joint piece.
    Both characteristic polynomials must split over the Gaussian rationals
    (SpectrumNotSplit).

    Self-check: the multiplicities sum to n, and the power sums of the
    cycle equal the trace invariants in all bidegrees k + l <= n, which
    verifies every point and multiplicity; raises IdentityFailed otherwise.
    `traces` is the triple's `trace_table(tr, tr.n)` if the caller has it.
    """
    if not tr.commuting:
        raise NotCommuting("triple does not commute")
    n, (a, b, _) = tr.n, tr.cols
    points = {}
    for x, mx in gaussian_rational_roots(char_poly_rows(a)):
        block = restrict_rows(b, a, x, mx)
        for y, my in gaussian_rational_roots(char_poly_rows(block)):
            points[(x, y)] = my
    cycle = SupportCycle(points)
    if cycle.total != n:
        raise IdentityFailed("support multiplicities sum to %d, not %d"
                             % (cycle.total, n))
    if traces is None:
        traces = trace_table(tr, n)
    for (k, l), trace in traces.items():
        if (power_sum := cycle.power_sum(k, l)) != trace:
            raise IdentityFailed("support/trace mismatch at (%d, %d): power "
                                 "sum %s, trace %s" % (k, l, power_sum, trace))
    return cycle


def in_bidisk(tr, cycle=None):
    """
    Whether every support point has both coordinates of modulus < 1;
    `cycle` is the triple's `support_cycle` if the caller has it.
    """
    if cycle is None:
        cycle = support_cycle(tr)
    return all(x.norm_sq() < 1 and y.norm_sq() < 1 for x, y in cycle.points)


def _sqrt_upper(s, precision):
    """
    A rational r with sqrt(s) <= r < sqrt(s) + precision, s in [0, 1);
    a precision of None means 1/10^6.
    """
    from fractions import Fraction
    p, q = isqrt(s.numerator), isqrt(s.denominator)
    if p * p == s.numerator and q * q == s.denominator:
        return Fraction(p, q)
    # (isqrt(floor(s d^2)) + 1) / d is within 1/d
    d = (10 ** 6 if precision is None else int(1 / precision)) + 1
    return Fraction(isqrt(s.numerator * d * d // s.denominator) + 1, d)


def retract(tr, precision=None):
    """
    Rescale a bidisk triple to the whole plane: the torus action at (s, s)
    with s = 1/(1 - phi), phi the largest eigenvalue modulus of A and B.
    When phi^2 is a perfect rational square the scale is exact; otherwise
    phi is replaced by a one-sided rational upper approximation within
    `precision`, 1/10^6 when None (so the computed scale is >= the exact
    one).  Commuting, stability and the marked vector are untouched by
    scaling.
    """
    if precision is not None and precision <= 0:
        raise ValueError("precision must be positive")
    phi_sq = max((z.norm_sq() for point in support_cycle(tr).points
                  for z in point), default=0)
    if phi_sq >= 1:
        raise NotInBidisk("largest squared eigenvalue modulus is %s" % phi_sq)
    scale = 1 / (1 - _sqrt_upper(phi_sq, precision))
    return torus_scale(scale, scale, tr)


def torus_scale(l1, l2, tr):
    """The torus action (l1, l2) . (A, B, v) = (l1 A, l2 B, v)."""
    from .matrices import matrix
    ((l1, l2),) = matrix([(l1, l2)])
    if l1.is_zero() or l2.is_zero():
        raise ZeroScalar("torus scalars must be nonzero")
    a, b, v = tr.cols
    return MatrixTriple.of_cols(affine_rows(a, l1, 0), affine_rows(b, l2, 0),
                                v)


def staircase_cells(mu):
    """
    The staircase of a partition: row i gives the y-degree bound for
    x-degree i-1, so the cells are (i-1, j) for j < mu_i, listed sorted.
    Raises ValueError unless mu has parts, positive and weakly decreasing.
    The memory of the monomial triple on the cells (from_monomial_ideal)
    is claimed from their count before any cell is listed.
    """
    mu = tuple(mu)
    if not mu:
        raise ValueError("a partition needs at least one part")
    for before, part in zip(mu[:1] + mu, mu):
        if not 0 < part <= before:
            raise ValueError("bad part %r in %r: parts must be positive and "
                             "weakly decreasing" % (part, mu))
    # so a triple memory cannot hold fails now (a claim of maxsize bytes or
    # more cannot fit): per cell, the pair, its two coordinates and its list
    # slot; its index entry, a dict slot of three words in a table at most
    # half full, and the int index; and in each of the two column lists a
    # (dict, None) pair, its one-entry dict and its slot
    word, num = 8, getsizeof(1 << 30)
    per_cell = (getsizeof((0, 0)) + 2 * num + word + 6 * word + num
                + 2 * (getsizeof(({}, None)) + getsizeof({0: 1}) + word))
    bytearray(min(sum(mu) * per_cell, maxsize))
    return [(i, j) for i, part in enumerate(mu) for j in range(part)]


def from_monomial_ideal(mu):
    """
    The torus-fixed triple of a partition: the quotient ring basis is the
    staircase monomials x^a y^b, A and B multiply by x and y (truncating
    to zero outside the staircase), and v marks the constant monomial 1.
    """
    cells = staircase_cells(mu)
    index = {c: i for i, c in enumerate(cells)}
    # the column of x^a y^b in A has a 1 at x^(a+1) y^b, in B at x^a y^(b+1)
    a, b = ([({index[(x + dx, y + dy)]: 1} if (x + dx, y + dy) in index
              else {}, None) for x, y in cells] for dx, dy in ((1, 0), (0, 1)))
    return MatrixTriple.of_cols(a, b, ({index[(0, 0)]: 1}, None))


def read_triple(text):
    """Parse a triple from its text format (see the module docstring)."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty triple file")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValueError("first token must be the size, got %r" % tokens[0])
    if n < 0:
        raise ValueError("the size must be non-negative, got %d" % n)
    need = 1 + 2 * n * n + n
    if len(tokens) != need:
        raise ValueError("expected %d tokens for size %d, got %d"
                         % (need, n, len(tokens)))
    # column j of a row-major block starting at s: every n-th token from s + j
    a, b = (parse_rows(tokens[s + j:s + n * n:n] for j in range(n))
            for s in (1, 1 + n * n))
    return MatrixTriple.of_cols(a, b, parse_rows([tokens[1 + 2 * n * n:]])[0])


def write_triple(tr):
    """Render a triple in its text format."""
    rows = [" ".join(map(scalar_to_str, row)) for row in tr.a + tr.b + (tr.v,)]
    return "\n".join([str(tr.n)] + rows) + "\n"


def requested_triple(path, mu):
    """
    The triple of exactly one of the file path (--triple) or the monomial
    ideal of mu (--mu), comma-separated parts in any order.  Its n cells'
    (n + 1)(n + 2)/2 trace rows (at most maxsize) are claimed first.
    """
    if bool(path) == bool(mu):
        raise ConfigError("give exactly one of --triple or --mu")
    if path:
        try:
            with open(path) as fh:
                return read_triple(fh.read())
        except (OSError, ValueError) as exc:
            raise ConfigError("--triple: %s" % exc)
    try:
        parts = [int(x) for x in mu.split(",")]  # an empty field fails
        if (n := sum(parts)) < maxsize:
            [None] * min((n + 1) * (n + 2) // 2, maxsize)
            return from_monomial_ideal(sorted(parts, reverse=True))
    except ValueError as exc:
        raise ConfigError("bad partition for --mu: %s" % exc)
    except MemoryError:
        raise ConfigError("out of memory: --mu is too large")
    raise ConfigError("--mu must sum below %d, got %d" % (maxsize, n))


def report(tr):
    """
    The rows the adhm subcommand prints: size, commuting and, if so,
    stable, support (or why it does not split), in_bidisk and the traces.
    """
    commuting = is_commuting(tr)
    rows = [("key", "value"), ("size", tr.n), ("commuting", commuting)]
    if not commuting:
        return rows
    rows.append(("stable", is_stable(tr)))
    traces = trace_table(tr, tr.n)
    try:
        cycle = support_cycle(tr, traces)
        rows.append(("support", cycle))
        rows.append(("in_bidisk", in_bidisk(tr, cycle)))
    except SpectrumNotSplit as exc:
        rows.append(("support", "not split (%s)" % exc))
    rows += [("trace[%d,%d]" % (k, l), traces[(k, l)])
             for k in range(tr.n + 1) for l in range(tr.n + 1 - k)]
    return rows
