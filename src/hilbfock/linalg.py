"""
Exact arithmetic over the Gaussian rationals and the small amount of
linear algebra the commuting-matrix model needs: products, powers,
echelon/kernel/inverse, characteristic polynomials, and a bounded root
search for polynomials that split over the Gaussian rationals.

The kernels run on split rows, the form adhm keeps its triples in: a
split row is a pair (re, im) of sparse dicts {column: int or Fraction} of
the nonzero parts, im None for a real row, and a split matrix is a list
of split rows.  Each kernel clears its input's denominators on entry
(cleared_rows) and works on Gaussian integers; a Fraction appears only in
a result that really has a denominator.  The matrix helpers (mat_mul,
rank, char_poly, ...) are thin wrappers that take and return tuples of
tuples of GaussianRational.  All row reduction is one routine, _insert,
which adds one integer vector to a fraction-free echelon basis.  fractions
is imported only where a rational is built, so integer matrices never load
it.  Everything is pure.
"""

from itertools import count
from math import gcd, isqrt, lcm, prod
import re

from ._base import Frozen, IdentityFailed, exact, rational_types


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

    def __sub__(self, other):
        return self + -_coerce(other)

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
        z = self * other.conjugate()
        return _scalar(z.re, z.im, n)

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
        return (isinstance(other, GaussianRational)
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return scalar_to_str(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, rational_types()):
        return GaussianRational(x)
    raise TypeError("cannot coerce %r" % (x,))


# scalar patterns, compiled (and cached by re) at the first parse, so a
# request that parses no scalar compiles none
_RAT = r"\d+(?:/\d*[1-9]\d*)?"  # no zero denominator
_IMAG_ONLY = r"([+-]?(?:%s)?)i" % _RAT
_FULL = r"([+-]?%s)(?:([+-](?:%s)?)i)?" % (_RAT, _RAT)


def _parse_rat(s):
    s = s + "1" if s in ("", "+", "-") else s
    if "/" not in s:
        return int(s)
    from fractions import Fraction
    return exact(Fraction(s))


def _parse(token):
    # the exact (re, im) of a scalar token
    m = re.fullmatch(_IMAG_ONLY, token)
    if m:
        return 0, _parse_rat(m.group(1))
    m = re.fullmatch(_FULL, token)
    if m:
        return _parse_rat(m.group(1)), _parse_rat(m.group(2) or "0")
    raise ValueError("cannot parse scalar %r" % (token,))


def scalar_from_str(token):
    """Parse "a/b", "c/di" or "a/b+c/di" (no whitespace inside a token)."""
    return GaussianRational(*_parse(token))


def scalar_to_str(z):
    if not z.im:
        return str(z.re)
    im = ("" if abs(z.im) == 1 else str(abs(z.im))) + "i"
    if not z.re:
        return ("-" if z.im < 0 else "") + im
    return str(z.re) + ("-" if z.im < 0 else "+") + im


# ---------------------------------------------------------------------------
# matrices: the split-row kernels, then the GaussianRational helpers


def _row(pairs):
    # the split row of a list of exact (re, im) pairs
    return ({j: x for j, (x, _) in enumerate(pairs) if x},
            {j: y for j, (_, y) in enumerate(pairs) if y} or None)


def split_rows(rows):
    """The split matrix of rows of GaussianRational, int or Fraction."""
    return [_row([(z.re, z.im) for z in map(_coerce, row)]) for row in rows]


def parse_rows(rows):
    """The split matrix of rows of scalar tokens (see scalar_from_str)."""
    return [_row([_parse(token) for token in row]) for row in rows]


def join_rows(s, ncols, d=1):
    """
    The GaussianRational matrix of a split matrix with `ncols` columns,
    divided by the integer d.
    """
    return tuple(tuple(_scalar(*_entry(row, j), d) for j in range(ncols))
                 for row in s)


def cleared_rows(s):
    """
    (d s, d): the split matrix s times the least common denominator d of
    its entries, with int parts; s itself when they are ints already.
    """
    parts = [part for row in s for part in row if part]
    if all(type(x) is int for part in parts for x in part.values()):
        return s, 1
    d = lcm(*(x.denominator for part in parts for x in part.values()))
    return [tuple(part and {j: x.numerator * (d // x.denominator)
                            for j, x in part.items()} for part in row)
            for row in s], d


def _div(x, d):
    # the exact quotient x / d: an int when d divides x, else a Fraction
    if not x % d:
        return x // d
    from fractions import Fraction
    return Fraction(x, d)


def _scalar(re, im, d=1):
    # the GaussianRational (re + i im) / d, ZERO itself for zero
    if not (re or im):
        return ZERO
    if d != 1:
        re, im = _div(re, d), _div(im, d)
    return GaussianRational(re, im)


def _over(s, d):
    # the split matrix s / d, for the integer d
    return s if d == 1 else [tuple(part and {j: _div(x, d) for j, x in
                                             part.items()} for part in row)
                             for row in s]


def _cols(row):
    return row[0].keys() | (row[1] or {}).keys()


def _entry(row, j):
    return row[0].get(j, 0), row[1].get(j, 0) if row[1] else 0


def _comb(terms):
    # the split row sum of (xr + i xi) * row over (xr, xi, row) in terms;
    # a lone row with factor 1 is itself (rows are never changed in place)
    if len(terms) == 1 and terms[0][:2] == (1, 0):
        return terms[0][2]
    re, im = {}, {}
    for xr, xi, (rr, ri) in terms:
        parts = ((re, xr, rr),)
        if xi or ri:
            parts += ((im, xi, rr), (im, xr, ri), (re, -xi, ri))
        for out, x, part in parts:
            if x and part:
                for j, y in part.items():
                    out[j] = out.get(j, 0) + x * y
    return ({j: x for j, x in re.items() if x},
            {j: x for j, x in im.items() if x} or None)


def _terms(row, b):
    # the terms of the split row times the split matrix b, for _comb
    out = [(x, 0, b[j]) for j, x in row[0].items()]
    return out + [(0, x, b[j]) for j, x in row[1].items()] if row[1] else out


def mul_rows(x, y):
    """The product x y of split matrices: only nonzero parts multiply."""
    return [_comb(_terms(row, y)) if row[0] or row[1] else row for row in x]


def pow_rows(s, k):
    """The k-th power of a square split matrix, by repeated squaring."""
    if k in (0, 1):
        return s if k else _eye(len(s))
    half = pow_rows(mul_rows(s, s), k >> 1)
    return mul_rows(half, s) if k & 1 else half


def _eye(n):
    # the n x n identity split matrix
    return [({i: 1}, None) for i in range(n)]


def affine_rows(s, c, d):
    """c s + d I for a square split matrix s and scalars c and d."""
    c, d = _coerce(c), _coerce(d)
    return [_comb([(c.re, c.im, row), (d.re, d.im, e)])
            for row, e in zip(s, _eye(len(s)))]


def _is_zero(s):
    return not any(re or im for re, im in s)


def power_traces(a, b, max_total):
    """
    All Tr(A^k B^l), k + l <= max_total, of square split matrices at once,
    integral on the power lists of d A and e B: the entries of each power,
    laid out once as {(i, j): (re, im)} with B's transposed, multiply on
    the keys two such dicts share.  A power list stops at its first zero
    power, and a trace past it is 0.  A dict (k, l) -> GaussianRational.
    """
    entries, dens = [], []
    for m, swap in ((a, False), (b, True)):
        s, d = cleared_rows(m)
        dens.append(d)
        pows = [_eye(len(m))]
        while len(pows) <= max_total and not _is_zero(pows[-1]):
            pows.append(mul_rows(pows[-1], s))
        entries.append([{(j, i) if swap else (i, j):
                         (re.get(j, 0), im.get(j, 0) if im else 0)
                         for i, (re, im) in enumerate(p) if re or im
                         for j in (re.keys() | im.keys() if im else re)}
                        for p in pows] + [{}] * (max_total + 1 - len(pows)))
    out = {}
    for k, ak in enumerate(entries[0]):
        for l, bl in enumerate(entries[1][:max_total + 1 - k]):
            re = im = 0
            for key in ak.keys() & bl.keys():
                (xr, xi), (yr, yi) = ak[key], bl[key]
                re, im = re + xr * yr - xi * yi, im + xr * yi + xi * yr
            out[(k, l)] = _scalar(re, im, dens[0] ** k * dens[1] ** l)
    return out


def _primitive(row, p):
    # the integer split row, positive at p, divided by the gcd of its parts
    if row[0][p] == 1:
        return row
    g = gcd(*row[0].values(), *(row[1] or {}).values())
    return row if g == 1 else tuple(part and {j: x // g for j, x in
                                              part.items()} for part in row)


def _insert(basis, v):
    # add the integer split row v to a fraction-free reduced echelon basis
    # {pivot: split row}: each row is primitive (its parts have gcd 1), a
    # positive integer at its pivot and zero at the other pivots.  Reduce v
    # against the rows by cross-multiplying, make its first nonzero entry a
    # positive integer (times its conjugate) and clear that column from
    # the other rows the same way; False, basis unchanged, if v is
    # dependent
    for p, row in basis.items():
        fr, fi = _entry(v, p)
        if fr or fi:
            v = _comb([(row[0][p], 0, v), (-fr, -fi, row)])
    col = min(_cols(v), default=None)
    if col is None:
        return False
    xr, xi = _entry(v, col)
    v = _primitive(_comb([(xr, -xi, v)]) if xi or xr < 0 else v, col)
    for p, row in basis.items():
        fr, fi = _entry(row, col)
        if fr or fi:
            basis[p] = _primitive(_comb([(v[0][col], 0, row), (-fr, -fi, v)]),
                                  p)
    basis[col] = v
    return True


def _kernel(s, ncols):
    # (w, free, d): the columns of the integer split matrix w / d are a
    # basis of the right kernel of the integer split matrix s, one per free
    # column f of its echelon basis: 1 at f, 0 at the other free columns,
    # minus the echelon row p at f over its pivot at each pivot p
    basis = {}
    for row in s:
        _insert(basis, row)
    free = [c for c in range(ncols) if c not in basis]
    at = {c: i for i, c in enumerate(free)}
    d = lcm(*(row[0][p] for p, row in basis.items()))
    return [({at[c]: d}, None) if c in at else
            tuple(part and {at[j]: -x * (d // basis[c][0][c])
                            for j, x in part.items() if j != c}
                  for part in basis[c]) for c in range(ncols)], free, d


def restrict_rows(b, a, x, m):
    """
    The split matrix of b on the generalized eigenspace, the right kernel
    of (a - x)^m, of the square split matrix a, which b must preserve, in
    the basis of kernel_basis: a kernel vector's coordinates are its
    entries at the free columns.  The power and the kernel are taken on
    d (a - x) for the common denominator d of a (d x is a Gaussian
    integer when x is an eigenvalue of a).
    """
    a, d = cleared_rows(a)
    k = a if x.is_zero() else cleared_rows(affine_rows(a, 1, -x * d))[0]
    w, free, e = _kernel(pow_rows(k, m), len(k))
    b, f = cleared_rows(b)
    return _over(mul_rows([b[c] for c in free], w), e * f)


def span_dim_rows(cols, v):
    """
    The dimension of the smallest subspace that contains the split row v
    and is invariant under each m with m^T in cols, grown breadth-first on
    cleared rows: each vector w that enlarges it sends m w = w m^T to the
    next round.
    """
    cols = [cleared_rows(c)[0] for c in cols]
    basis, frontier = {}, cleared_rows([v])[0]
    while frontier and len(basis) < len(cols[0]):
        frontier = [_comb(_terms(w, c)) for w in frontier
                    if _insert(basis, w) for c in cols]
    return len(basis)


def trace_rows(s):
    """The trace of a square split matrix: its (re, im) diagonal, summed."""
    return _scalar(*map(sum, zip((0, 0), *map(_entry, s, range(len(s))))))


def char_poly_rows(s):
    """
    det(z*I - A) of a square split matrix, monic, GaussianRational
    coefficients ascending, by the trace recursion on d A, integral:
    A M_k = A (A M_(k-1) + c_k I), c_k = -Tr(A M_k) / k exactly (else
    IdentityFailed), and the coefficient c_k / d^k.  It stops at a zero
    A M_k, after which every coefficient is 0.
    """
    n, (s, d) = len(s), cleared_rows(s)
    coeffs, am = [ZERO] * n + [ONE], s
    for k in range(1, n + 1):
        if _is_zero(am):
            break
        t = trace_rows(am)
        if t.re % k or t.im % k:
            raise IdentityFailed("the trace %s of step %d of the "
                                 "characteristic polynomial is not a "
                                 "multiple of %d" % (t, k, k))
        cr, ci = -t.re // k, -t.im // k
        coeffs[n - k] = _scalar(cr, ci, d ** k)
        if k < n:
            am = mul_rows(s, affine_rows(am, 1, _scalar(cr, ci))
                          if cr or ci else am)
    return coeffs


def matrix(rows):
    return tuple(tuple(_coerce(v) for v in row) for row in rows)


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
        _insert(basis, row)
    pivots = sorted(basis)
    ncols = len(rows[0]) if rows else 0
    return [join_rows([basis[p]], ncols, basis[p][0][p])[0]
            for p in pivots], pivots


def rank(a):
    return len(_echelon(a)[1])


def kernel_basis(a):
    """Basis of the right kernel, as a list of column vectors."""
    w, free, d = _kernel(cleared_rows(split_rows(a))[0], len(a[0]) if a else 0)
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


# ---------------------------------------------------------------------------
# polynomials (coefficients ascending, GaussianRational)


def _poly_divmod(a, b):
    # (quotient, remainder without leading zeros) of a by b, by long division
    a, inv = list(a), ONE / b[-1]
    quot = [ZERO] * (len(a) + 1 - len(b))
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = a.pop() * inv
        for j, y in enumerate(b[:-1], i):
            a[j] = a[j] - c * y
    while a and a[-1].is_zero():
        a.pop()
    return quot, a


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
    a, b = p, next(r for r in (pow(c, (p - 1) // 4, p) for c in count(2))
                   if r * r % p == p - 1)
    while b * b > p:
        a, b = b, a % b
    return b, isqrt(p - b * b)


def _times(divisors, q, k):
    # each Gaussian integer d of divisors times q^0, ..., q^k, all (re, im)
    out = []
    for dr, di in divisors:
        for _ in range(k + 1):
            out.append((dr, di))
            dr, di = dr * q[0] - di * q[1], dr * q[1] + di * q[0]
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
    divisors = [(1, 0)]
    for p, e in _factor(n).items():
        if p == 2:
            divisors = _times(divisors, (1, 1), e)
        elif p % 4 == 3:
            divisors = _times(divisors, (p, 0), e // 2)
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
                divisors = _times(divisors, q, k)
    out = set()
    for re, im in divisors:
        while re <= 0 or im < 0:  # the associate with re > 0, im >= 0
            re, im = -im, re
        out.add(GaussianRational(re, im))
    return sorted(out, key=lambda z: (z.norm_sq(), z.re, z.im))


def gaussian_rational_roots(p):
    """
    All roots of the polynomial with multiplicity, provided it splits over
    the Gaussian rationals within the configured search; otherwise raises
    SpectrumNotSplit.  Returns a list of (root, multiplicity).  Each root is
    found once (_distinct_roots); exact divisions of p by z - root count it.
    """
    while len(p) > 1 and p[-1].is_zero():  # leading zeros
        p = p[:-1]
    degree, mult = len(p) - 1, {}
    while len(p) > 1 and p[0].is_zero():  # roots at zero
        mult[ZERO] = mult.get(ZERO, 0) + 1
        p = p[1:]
    for root in _distinct_roots(p) if len(p) > 1 else ():
        while len(p) > 1 and not (div := _poly_divmod(p, [-root, ONE]))[1]:
            p, mult[root] = div[0], mult.get(root, 0) + 1
        if root not in mult:
            raise IdentityFailed("the root %s of the square-free part does "
                                 "not divide the polynomial" % (root,))
    if len(p) > 1:
        raise SpectrumNotSplit(
            "polynomial of degree %d has %d discoverable roots"
            % (degree, sum(mult.values())))
    return sorted(mult.items(), key=lambda kv: (kv[0].re, kv[0].im))


def _distinct_roots(p):
    # the roots of p, p(0) != 0, that the bounded search finds, each once,
    # on the square-free part q = p / gcd(p, p') made monic (so cleared, it
    # has no Gaussian content): a root num/den has num | q(0), den | lead
    # over Z[i] and lies in Cauchy's bound; Horner tests it on int pairs
    g, b = p, [c * k for k, c in enumerate(p)][1:]
    while b:
        g, b = b, _poly_divmod(g, b)[1]
    q = _poly_divmod(p, g)[0]
    q = [c / q[-1] for c in reversed(q)]  # highest first, monic
    if len(q) == 2:
        return [-q[1]]
    lead = lcm(*(f.denominator for c in q for f in (c.re, c.im)))
    ip = [(int(c.re * lead), int(c.im * lead)) for c in q]
    # each root has modulus < 1 + max |q_i| <= bound
    bound = 2 + isqrt(-(-max(c.norm_sq() for c in q[1:]) // 1))
    nums = gaussian_integer_divisors(GaussianRational(*ip[-1]))
    roots = set()
    for den in gaussian_integer_divisors(GaussianRational(lead)):
        # t[i] = ip[i] den^i, so den^d q(num/den) = sum_i t[i] num^(d-i)
        t = [(cr * pr - ci * pi, cr * pi + ci * pr) for (cr, ci), (pr, pi)
             in zip(ip, _times([(1, 0)], (den.re, den.im), len(ip) - 1))]
        for num in nums:
            if num.norm_sq() >= bound * bound * den.norm_sq():
                break  # nums ascend by norm
            nr, ni = int(num.re), int(num.im)
            for ur, ui in ((nr, ni), (-ni, nr), (-nr, -ni), (ni, -nr)):
                ar = ai = 0
                for cr, ci in t:
                    ar, ai = ar * ur - ai * ui + cr, ar * ui + ai * ur + ci
                if not (ar or ai):
                    roots.add(GaussianRational(ur, ui) / den)
                    if len(roots) == len(q) - 1:
                        return roots
    return roots
