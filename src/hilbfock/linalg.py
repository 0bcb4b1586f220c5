"""
Exact arithmetic over the Gaussian rationals and the small amount of
linear algebra the commuting-matrix model needs: products, powers,
echelon/kernel/inverse, characteristic polynomials, and a bounded root
search for polynomials that split over the Gaussian rationals.

All row reduction is one routine, _insert, which adds one vector to a
basis kept in reduced row-echelon form.  Rank, kernels, solves and
inverses fold it over the rows of a matrix (_echelon); invariant_span_dim
grows a basis with it breadth-first.

Matrices are tuples of tuples of GaussianRational; everything is pure.
"""

from fractions import Fraction
from math import gcd, isqrt, prod
import re

from ._base import Frozen, IdentityFailed, exact


class SpectrumNotSplit(ArithmeticError):
    """A characteristic polynomial has no full Gaussian-rational root set
    discoverable by the configured root search."""


# Gaussian integers with norm above this bound are not searched for roots.
ROOT_SEARCH_NORM_BOUND = 10 ** 12


class GaussianRational(Frozen):
    """An exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", exact(re))
        object.__setattr__(self, "im", exact(im))

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.norm_sq()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        inv = Fraction(1) / Fraction(n)
        return self * other.conjugate() * GaussianRational(inv)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k):
        """The k-th power, k a non-negative integer."""
        if k < 0:
            raise ValueError("negative exponent %r" % (k,))
        return prod([self] * k, start=ONE)  # a TypeError unless k is an int

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def norm_sq(self):
        return self.re * self.re + self.im * self.im

    def is_zero(self):
        return not self.re and not self.im

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        return (isinstance(other, GaussianRational)
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return scalar_to_str(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError("cannot coerce %r" % (x,))


_RAT = r"\d+(?:/\d*[1-9]\d*)?"  # no zero denominator
_IMAG_ONLY = re.compile(r"([+-]?(?:%s)?)i" % _RAT)
_FULL = re.compile(r"([+-]?%s)(?:([+-](?:%s)?)i)?" % (_RAT, _RAT))


def _parse_rat(s):
    if s in ("", "+"):
        return Fraction(1)
    if s == "-":
        return Fraction(-1)
    return Fraction(s)


def scalar_from_str(token):
    """Parse "a/b", "c/di" or "a/b+c/di" (no whitespace inside a token)."""
    m = _IMAG_ONLY.fullmatch(token)
    if m:
        return GaussianRational(0, _parse_rat(m.group(1)))
    m = _FULL.fullmatch(token)
    if m:
        im = _parse_rat(m.group(2)) if m.group(2) is not None else Fraction(0)
        return GaussianRational(Fraction(m.group(1)), im)
    raise ValueError("cannot parse scalar %r" % (token,))


def scalar_to_str(z):
    if not z.im:
        return str(z.re)
    im = ("" if abs(z.im) == 1 else str(abs(z.im))) + "i"
    if not z.re:
        return ("-" if z.im < 0 else "") + im
    return str(z.re) + ("-" if z.im < 0 else "+") + im


# ---------------------------------------------------------------------------
# matrices


def matrix(rows):
    return tuple(tuple(_coerce(v) for v in row) for row in rows)


def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n))
                 for i in range(n))


def add_scalar(a, c):
    """a + c*I for a square matrix a."""
    c = _coerce(c)
    return tuple(tuple(x + c if i == j else x for j, x in enumerate(row))
                 for i, row in enumerate(a))


def mat_scale(a, c):
    c = _coerce(c)
    return tuple(tuple(x * c for x in row) for row in a)


def _nonzero_parts(row):
    # (column, re, im) of each nonzero entry
    return [(j, y.re, y.im) for j, y in enumerate(row) if not y.is_zero()]


def mat_mul(a, b):
    """
    The product a * b.  Only pairs of nonzero entries are multiplied: each
    nonzero x in a row of a scales the precomputed nonzero entries of the
    matching row of b.
    """
    width = len(b[0]) if b else 0
    b_rows = [_nonzero_parts(row) for row in b]
    out = []
    for row in a:
        re_acc = [0] * width
        im_acc = [0] * width
        for x, b_row in zip(row, b_rows):
            xr, xi = x.re, x.im
            if not b_row or not (xr or xi):
                continue
            for j, yr, yi in b_row:
                re_acc[j] += xr * yr - xi * yi
                im_acc[j] += xr * yi + xi * yr
        out.append(tuple(GaussianRational(r, i) if r or i else ZERO
                         for r, i in zip(re_acc, im_acc)))
    return tuple(out)


def mat_vec(a, v):
    v_parts = _nonzero_parts(v)
    out = []
    for row in a:
        re_acc = im_acc = 0
        for j, yr, yi in v_parts:
            xr, xi = row[j].re, row[j].im
            if xr or xi:
                re_acc += xr * yr - xi * yi
                im_acc += xr * yi + xi * yr
        out.append(GaussianRational(re_acc, im_acc) if re_acc or im_acc
                   else ZERO)
    return tuple(out)


def mat_pow(a, k):
    n = len(a)
    out = identity(n)
    base = a
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def _insert(basis, v):
    # add v to a reduced row-echelon basis {pivot column: row}: reduce v
    # against the rows, scale its first nonzero entry to 1 and clear that
    # column from the other rows; False, basis unchanged, if v is dependent
    v = list(v)
    for p, row in basis.items():
        f = v[p]
        if not f.is_zero():
            v = [x - f * y for x, y in zip(v, row)]
    col = next((j for j, x in enumerate(v) if not x.is_zero()), None)
    if col is None:
        return False
    inv = ONE / v[col]
    v = [x * inv for x in v]
    for p, row in basis.items():
        f = row[col]
        if not f.is_zero():
            basis[p] = [x - f * y for x, y in zip(row, v)]
    basis[col] = v
    return True


def _echelon(rows):
    # (reduced row-echelon rows, their pivot columns), by ascending pivot
    basis = {}
    for row in rows:
        _insert(basis, row)
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def invariant_span_dim(mats, v):
    """
    The dimension of the smallest subspace that contains v and is invariant
    under every matrix in mats, grown breadth-first: each vector that
    enlarges the span sends its images under mats to the next round.
    """
    basis = {}
    frontier = [v]
    while frontier and len(basis) < len(v):
        frontier = [mat_vec(m, w) for w in frontier if _insert(basis, w)
                    for m in mats]
    return len(basis)


def rank(a):
    return len(_echelon(a)[1])


def kernel_basis(a):
    """Basis of the right kernel, as a list of column vectors."""
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    ech, pivots = _echelon(a)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * n_cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][fc]
        basis.append(tuple(v))
    return basis


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
    n = len(v_cols[0]) if v_cols else 0
    k = len(v_cols)
    aug = [[v_cols[j][i] for j in range(k)] + [w[i] for w in w_cols]
           for i in range(n)]
    ech, pivots = _echelon(aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("columns are not independent")
    if len(pivots) > k:
        raise ValueError("system is inconsistent")
    return tuple(tuple(ech[i][k:]) for i in range(k))


def char_poly(a):
    """
    Characteristic polynomial det(z*I - A), monic, coefficients ascending,
    by the trace recursion (exact division by the step index).
    """
    n = len(a)
    coeffs = [ZERO] * n + [ONE]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        ck = -(trace(am) * GaussianRational(Fraction(1, k)))
        coeffs[n - k] = ck
        m = add_scalar(am, ck)
    return coeffs


# ---------------------------------------------------------------------------
# polynomials (coefficients ascending, GaussianRational)


def poly_eval(p, z):
    out = ZERO
    for c in reversed(p):
        out = out * z + c
    return out


def poly_deflate(p, r):
    """Divide p by (z - r) synthetically; returns (quotient, remainder)."""
    d = len(p) - 1
    q = [ZERO] * d
    acc = p[d]
    for i in range(d - 1, -1, -1):
        q[i] = acc
        acc = p[i] + acc * r
    return q, acc


def _factor(n):
    # {prime: exponent} of a positive integer, by trial division
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _two_squares(p):
    # (a, b) with a*a + b*b == p for a prime p = 1 (mod 4): a square root
    # of -1 mod p, then the Euclidean algorithm on (p, root) down to sqrt(p)
    c = 2
    while True:
        r = pow(c, (p - 1) // 4, p)
        if r * r % p == p - 1:
            break
        c += 1
    a, b = p, r
    while b * b > p:
        a, b = b, a % b
    return b, isqrt(p - b * b)


def _powers(q, k):
    # [q^0, ..., q^k] for a Gaussian integer q given as (re, im)
    out = [(1, 0)]
    for _ in range(k):
        r, i = out[-1]
        out.append((r * q[0] - i * q[1], r * q[1] + i * q[0]))
    return out


def gaussian_integer_divisors(g):
    """
    Divisors of a nonzero Gaussian integer, one per associate class
    (normalized to the closed first quadrant minus the positive imaginary
    axis), sorted by norm, then real and imaginary part.  Built from the
    factorisation of the norm N(g): 2 gives powers of 1+i, a prime
    p = 3 (mod 4) divides g as p^(e/2), and a prime p = 1 (mod 4) splits as
    (a+bi)(a-bi), with the exponent of each factor in g found by exact
    division.
    """
    n = int(g.norm_sq())
    if n == 0:
        raise ValueError("zero has no divisor list")
    if n > ROOT_SEARCH_NORM_BOUND:
        raise SpectrumNotSplit(
            "norm %d exceeds the root search bound %d"
            % (n, ROOT_SEARCH_NORM_BOUND))
    # each entry: the powers 1, q, q^2, ... of one Gaussian prime q in g,
    # as (re, im) integer pairs
    prime_powers = []
    for p, e in _factor(n).items():
        if p == 2:
            prime_powers.append(_powers((1, 1), e))
        elif p % 4 == 3:
            prime_powers.append(_powers((p, 0), e // 2))
        else:
            a, b = _two_squares(p)
            rest = (int(g.re), int(g.im))
            for q in ((a, b), (a, -b)):
                k = 0
                while k < e:
                    # rest / q = rest * conj(q) / p, exact when p divides both
                    re = rest[0] * q[0] + rest[1] * q[1]
                    im = rest[1] * q[0] - rest[0] * q[1]
                    if re % p or im % p:
                        break
                    rest = (re // p, im // p)
                    k += 1
                prime_powers.append(_powers(q, k))
    divisors = [(1, 0)]
    for powers in prime_powers:
        divisors = [(dr * qr - di * qi, dr * qi + di * qr)
                    for dr, di in divisors for qr, qi in powers]
    out = {_canonical_associate(GaussianRational(re, im))
           for re, im in divisors}
    return sorted(out, key=lambda z: (z.norm_sq(), z.re, z.im))


def _canonical_associate(z):
    # the unique unit multiple with re > 0 and im >= 0; None for zero
    if z.is_zero():
        return None
    for u in _UNITS:
        w = z * u
        if w.re > 0 and w.im >= 0:
            return w
    raise AssertionError("unreachable")


_UNITS = (ONE, -ONE, I, -I)


def gaussian_rational_roots(p):
    """
    All roots of the polynomial with multiplicity, provided it splits over
    the Gaussian rationals within the configured search; otherwise raises
    SpectrumNotSplit.  Returns a list of (root, multiplicity).
    """
    # strip leading zeros (highest coefficients)
    while len(p) > 1 and p[-1].is_zero():
        p = p[:-1]
    degree = len(p) - 1
    if degree == 0:
        return []
    roots = []
    work = list(p)
    # factor out roots at zero
    while len(work) > 1 and work[0].is_zero():
        roots.append(ZERO)
        work = work[1:]
    candidates = _root_candidates(work)
    for cand in candidates:
        while len(work) > 1 and poly_eval(work, cand).is_zero():
            work, rem = poly_deflate(work, cand)
            if not rem.is_zero():
                raise IdentityFailed(
                    "deflating the root %s left the remainder %s"
                    % (cand, rem))
            roots.append(cand)
    if len(work) > 1:
        raise SpectrumNotSplit(
            "polynomial of degree %d has %d discoverable roots"
            % (degree, len(roots)))
    mult = {}
    for r in roots:
        mult[r] = mult.get(r, 0) + 1
    return sorted(mult.items(), key=lambda kv: (kv[0].re, kv[0].im))


def _root_candidates(p):
    # clear denominators to a Gaussian-integer polynomial
    lcm = 1
    for c in p:
        for f in (c.re, c.im):
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ip = [c * GaussianRational(lcm) for c in p]
    lead, const = ip[-1], ip[0]  # both nonzero: the caller strips zero roots
    cands = set()
    for num in gaussian_integer_divisors(const):
        for den in gaussian_integer_divisors(lead):
            base = num / den
            for u in _UNITS:
                cands.add(base * u)
    return sorted(cands, key=lambda z: (z.norm_sq(), z.re, z.im))
