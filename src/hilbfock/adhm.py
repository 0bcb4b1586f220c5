"""
The commuting-matrix model of the Hilbert scheme of points of the plane:
triples (A, B, v) with [A, B] = 0 and v cyclic, over exact Gaussian
rationals.  The quotient by simultaneous conjugation is never formed;
points are handled through conjugation-invariant data (trace invariants
and support cycles).

Triple text format: whitespace-separated tokens; first the size n, then
the n*n entries of A row-major, then B, then the n entries of v.  Each
scalar is written without internal whitespace as "a/b", "c/di" or
"a/b+c/di" (see linalg.scalar_from_str).
"""

from fractions import Fraction
from math import isqrt
from types import MappingProxyType

from . import linalg
from ._base import Frozen
from .linalg import (GaussianRational, IdentityFailed, SpectrumNotSplit,
                     ZERO, ONE, add_scalar, char_poly, gaussian_rational_roots,
                     invariant_span_dim, kernel_basis, mat_mul, mat_pow,
                     mat_vec, matrix, power_traces, scalar_from_str,
                     scalar_to_str, solve_columns)


class NotCommuting(ValueError):
    """The two matrices of a triple do not commute."""


class NotInBidisk(ValueError):
    """Some eigenvalue has modulus at least one."""


class ZeroScalar(ValueError):
    """Torus scaling by zero is not invertible."""


class MatrixTriple(Frozen):
    """
    A matrix pair with marked vector: (A, B, v), all of size n.  `commuting`
    is whether AB = BA, computed once here.
    """

    __slots__ = ("n", "a", "b", "v", "commuting")

    def __init__(self, a, b, v):
        a, b, (v,) = matrix(a), matrix(b), matrix([v])
        n = len(v)
        for m in (a, b):
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError("matrices must be %d x %d" % (n, n))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "commuting", mat_mul(a, b) == mat_mul(b, a))

    def __eq__(self, other):
        return (isinstance(other, MatrixTriple) and self.a == other.a
                and self.b == other.b and self.v == other.v)

    def __repr__(self):
        return "MatrixTriple(n=%d)" % self.n

    def conjugate_by(self, g):
        """G (A, B, v) G^-1 with the vector transformed as G v."""
        gi = linalg.invert(g)
        return MatrixTriple(mat_mul(mat_mul(g, self.a), gi),
                            mat_mul(mat_mul(g, self.b), gi),
                            mat_vec(g, self.v))


class SupportCycle(Frozen):
    """A multiset of plane points (x, y) with multiplicities summing to n."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = {}
        for (x, y), m in dict(points).items():
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                pts[(x, y)] = pts.get((x, y), 0) + m
        object.__setattr__(self, "points", MappingProxyType(pts))

    @property
    def total(self):
        return sum(self.points.values())

    def power_sum(self, k, l):
        """Sum over the cycle of x^k y^l with multiplicity."""
        out = ZERO
        for (x, y), m in self.points.items():
            if not (k and x.is_zero() or l and y.is_zero()):  # else 0^k = 0
                out = out + x ** k * y ** l * GaussianRational(m)
        return out

    def __eq__(self, other):
        return isinstance(other, SupportCycle) and self.points == other.points

    def __repr__(self):
        bits = []
        for (x, y), m in sorted(self.points.items(),
                                key=lambda kv: (kv[0][0].re, kv[0][0].im,
                                                kv[0][1].re, kv[0][1].im)):
            bits.append("%d*(%s,%s)" % (m, scalar_to_str(x), scalar_to_str(y)))
        return " + ".join(bits) if bits else "0"


def is_commuting(tr):
    return tr.commuting


def is_stable(tr):
    """
    Cyclicity of v: the smallest subspace that contains v and is invariant
    under A and B is the whole space, i.e. the words in A and B applied to
    v span it (linalg.invariant_span_dim).
    """
    if not tr.commuting:
        raise NotCommuting("triple does not commute")
    return invariant_span_dim((tr.a, tr.b), tr.v) == tr.n


def trace_invariant(tr, k, l):
    """The conjugation invariant Tr(A^k B^l)."""
    if k < 0 or l < 0:
        raise ValueError("exponents must be non-negative")
    m = mat_mul(mat_pow(tr.a, k), mat_pow(tr.b, l))
    return sum((m[i][i] for i in range(tr.n)), ZERO)


def trace_table(tr, max_total):
    """
    All invariants Tr(A^k B^l) with k + l <= max_total at once, as a dict
    (k, l) -> GaussianRational: linalg.power_traces on A and B.
    """
    return power_traces(tr.a, tr.b, max_total)


def support_cycle(tr, traces=None):
    """
    The support of the triple with multiplicities: split the space into
    the generalized eigenspaces ker (A - x)^mx of A and restrict B to each;
    (x, y) gets the multiplicity of y that the root search returns for the
    restriction, the dimension of the joint piece.  Both characteristic
    polynomials must split over the Gaussian rationals (SpectrumNotSplit).

    Self-check: the multiplicities sum to n, and the power sums of the
    cycle equal the trace invariants in all bidegrees k + l <= n, which
    verifies every point and multiplicity; raises IdentityFailed otherwise.
    `traces` is the triple's `trace_table(tr, tr.n)` when the caller
    already has it; otherwise it is computed here.
    """
    if not tr.commuting:
        raise NotCommuting("triple does not commute")
    n = tr.n
    points = {}
    for x, mx in gaussian_rational_roots(char_poly(tr.a)):
        cols = kernel_basis(mat_pow(add_scalar(tr.a, -x), mx))
        b_restricted = solve_columns(
            cols, tuple(zip(*mat_mul(tr.b, tuple(zip(*cols))))))
        for y, my in gaussian_rational_roots(char_poly(b_restricted)):
            points[(x, y)] = my
    cycle = SupportCycle(points)
    if cycle.total != n:
        raise IdentityFailed("support multiplicities sum to %d, not %d"
                             % (cycle.total, n))
    if traces is None:
        traces = trace_table(tr, n)
    for k in range(n + 1):
        for l in range(n + 1 - k):
            power_sum = cycle.power_sum(k, l)
            if power_sum != traces[(k, l)]:
                raise IdentityFailed(
                    "support/trace mismatch at (%d, %d): power sum %s, "
                    "trace %s" % (k, l, power_sum, traces[(k, l)]))
    return cycle


def in_bidisk(tr, cycle=None):
    """
    Whether every support point has both coordinates of modulus < 1.
    `cycle` is the triple's `support_cycle` when the caller already has it;
    otherwise it is computed here.
    """
    if cycle is None:
        cycle = support_cycle(tr)
    one = Fraction(1)
    for (x, y) in cycle.points:
        if x.norm_sq() >= one or y.norm_sq() >= one:
            return False
    return True


def _sqrt_upper(s, precision):
    """A rational r with sqrt(s) <= r < sqrt(s) + precision, s in [0, 1)."""
    p, q = isqrt(s.numerator), isqrt(s.denominator)
    if p * p == s.numerator and q * q == s.denominator:
        return Fraction(p, q)
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if mid * mid < s:
            lo = mid
        else:
            hi = mid
    return hi


def retract(tr, precision=Fraction(1, 10 ** 6)):
    """
    Rescale a bidisk triple to the whole plane: the torus action at (s, s)
    with s = 1/(1 - phi), phi the largest eigenvalue modulus of A and B.
    When phi^2 is a perfect rational square the scale is exact; otherwise
    phi is replaced by a one-sided rational upper approximation within
    `precision` (so the computed scale is >= the exact one).  Commuting,
    stability and the marked vector are untouched by scaling.
    """
    if precision <= 0:
        raise ValueError("precision must be positive")
    cycle = support_cycle(tr)
    phi_sq = Fraction(0)
    for (x, y) in cycle.points:
        phi_sq = max(phi_sq, x.norm_sq(), y.norm_sq())
    if phi_sq >= 1:
        raise NotInBidisk("largest squared eigenvalue modulus is %s" % phi_sq)
    phi = _sqrt_upper(phi_sq, precision)
    scale = Fraction(1) / (Fraction(1) - phi)
    return torus_scale(scale, scale, tr)


def torus_scale(l1, l2, tr):
    """The torus action (l1, l2) . (A, B, v) = (l1 A, l2 B, v)."""
    ((l1, l2),) = matrix([(l1, l2)])
    if l1.is_zero() or l2.is_zero():
        raise ZeroScalar("torus scalars must be nonzero")
    a, b = (tuple(tuple(x * c for x in row) for row in m)
            for c, m in ((l1, tr.a), (l2, tr.b)))
    return MatrixTriple(a, b, tr.v)


def staircase_cells(mu):
    """
    The staircase of a partition: row i gives the y-degree bound for
    x-degree i-1, so the cells are (i-1, j) for j < mu_i, listed sorted.
    """
    cells = []
    for i, part in enumerate(mu):
        for j in range(part):
            cells.append((i, j))
    return sorted(cells)


def from_monomial_ideal(mu):
    """
    The torus-fixed triple of a partition: the quotient ring basis is the
    staircase monomials x^a y^b, A and B multiply by x and y (truncating
    to zero outside the staircase), and v marks the constant monomial 1.
    """
    cells = staircase_cells(mu)
    index = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    a = [[ZERO] * n for _ in range(n)]
    b = [[ZERO] * n for _ in range(n)]
    for (x, y), j in index.items():
        if (x + 1, y) in index:
            a[index[(x + 1, y)]][j] = ONE
        if (x, y + 1) in index:
            b[index[(x, y + 1)]][j] = ONE
    v = [ZERO] * n
    v[index[(0, 0)]] = ONE
    return MatrixTriple(a, b, v)


def staircase_weight_matrix(mu, l1, l2):
    """The diagonal matrix of torus weights l1^x l2^y over the staircase."""
    cells = staircase_cells(mu)
    ((l1, l2),) = matrix([(l1, l2)])
    n = len(cells)
    g = [[ZERO] * n for _ in range(n)]
    for i, (x, y) in enumerate(cells):
        g[i][i] = l1 ** x * l2 ** y
    return matrix(g)


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
    vals = [scalar_from_str(t) for t in tokens[1:]]
    a = [vals[i * n:(i + 1) * n] for i in range(n)]
    b = [vals[n * n + i * n:n * n + (i + 1) * n] for i in range(n)]
    v = vals[2 * n * n:]
    return MatrixTriple(a, b, v)


def write_triple(tr):
    """Render a triple in its text format."""
    lines = [str(tr.n)]
    for m in (tr.a, tr.b):
        for row in m:
            lines.append(" ".join(scalar_to_str(x) for x in row))
    lines.append(" ".join(scalar_to_str(x) for x in tr.v))
    return "\n".join(lines) + "\n"
