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

from . import linalg
from ._base import Frozen
from .linalg import (GaussianRational, IdentityFailed, SpectrumNotSplit,
                     ZERO, ONE, add_scalar, char_poly, gaussian_rational_roots,
                     identity, invariant_span_dim, kernel_basis, mat_mul,
                     mat_pow, mat_scale, mat_vec, matrix, scalar_from_str,
                     scalar_to_str, solve_columns, trace)


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
        a = matrix(a)
        b = matrix(b)
        v = tuple(linalg._coerce(x) for x in v)
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
        object.__setattr__(self, "points", pts)

    @property
    def total(self):
        return sum(self.points.values())

    def power_sum(self, k, l):
        """Sum over the cycle of x^k y^l with multiplicity."""
        out = ZERO
        for (x, y), m in self.points.items():
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
    return trace(mat_mul(mat_pow(tr.a, k), mat_pow(tr.b, l)))


def trace_table(tr, max_total):
    """
    All invariants Tr(A^k B^l) with k + l <= max_total at once, from cached
    power lists.  Returns a dict (k, l) -> GaussianRational.
    """
    n = tr.n
    a_pows = [identity(n)]
    b_pows = [identity(n)]
    for _ in range(max_total):
        a_pows.append(mat_mul(a_pows[-1], tr.a))
        b_pows.append(mat_mul(b_pows[-1], tr.b))
    out = {}
    for k in range(max_total + 1):
        # Tr(A^k B^l) = sum over the nonzero entries x = A^k[i][j] of
        # x * B^l[j][i]
        ak = [(i, j, x) for i, row in enumerate(a_pows[k])
              for j, x in enumerate(row) if not x.is_zero()]
        for l in range(max_total + 1 - k):
            bl = b_pows[l]
            t = ZERO
            for i, j, x in ak:
                y = bl[j][i]
                if not y.is_zero():
                    t = t + x * y
            out[(k, l)] = t
    return out


def support_cycle(tr, traces=None):
    """
    The support of the triple with multiplicities: split the space into
    generalized eigenspaces of A, restrict B to each and split again; a
    point (x, y) gets the dimension of the joint piece.  Requires both
    characteristic polynomials (of A and of each restriction of B) to
    split over the Gaussian rationals; raises SpectrumNotSplit otherwise.

    Self-check: the multiplicities sum to n, and the power sums of the
    cycle equal the trace invariants in all bidegrees k + l <= n; raises
    IdentityFailed otherwise.  `traces` is the triple's
    `trace_table(tr, tr.n)` when the caller already has it; otherwise it
    is computed here.
    """
    if not tr.commuting:
        raise NotCommuting("triple does not commute")
    n = tr.n
    points = {}
    for x, _mult in gaussian_rational_roots(char_poly(tr.a)):
        cols = kernel_basis(mat_pow(add_scalar(tr.a, -x), n))
        b_cols = [mat_vec(tr.b, c) for c in cols]
        b_restricted = solve_columns(cols, b_cols)
        dim = len(cols)
        for y, my in gaussian_rational_roots(char_poly(b_restricted)):
            joint = len(kernel_basis(mat_pow(add_scalar(b_restricted, -y),
                                             dim)))
            points[(x, y)] = points.get((x, y), 0) + joint
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


def _is_rational_square(f):
    p, q = f.numerator, f.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def _sqrt_upper(s, precision):
    """A rational r with sqrt(s) <= r < sqrt(s) + precision, s in [0, 1)."""
    exact = _is_rational_square(s)
    if exact is not None:
        return exact
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
    Rescale a bidisk triple to the whole plane: multiply A and B by
    1/(1 - phi) where phi is the largest eigenvalue modulus of A and B.
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
    return MatrixTriple(mat_scale(tr.a, scale), mat_scale(tr.b, scale), tr.v)


def torus_scale(l1, l2, tr):
    """The torus action (l1, l2) . (A, B, v) = (l1 A, l2 B, v)."""
    l1, l2 = linalg._coerce(l1), linalg._coerce(l2)
    if l1.is_zero() or l2.is_zero():
        raise ZeroScalar("torus scalars must be nonzero")
    return MatrixTriple(mat_scale(tr.a, l1), mat_scale(tr.b, l2), tr.v)


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
    l1, l2 = linalg._coerce(l1), linalg._coerce(l2)
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
