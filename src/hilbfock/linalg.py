"""
Exact arithmetic over the Gaussian rationals and the linear algebra the
commuting-matrix model needs: products, powers, echelon bases, kernels,
traces, characteristic polynomials and their Gaussian-rational roots.

The kernels run on split rows, the form adhm keeps its triples in: a
split row is a pair (re, im) of sparse dicts {column: int or Fraction} of
the nonzero parts, im None for a real row, and a split matrix is a list
of split rows.  Each kernel clears its input's denominators on entry
(cleared_rows) and works on Gaussian integers; a Fraction appears only in
a result that really has a denominator.  All row reduction is one
routine, echelon_insert.  The bounded root search (roots) loads only for
a factor with no root at zero, and the wrappers over tuples of
GaussianRational (matrices) only for their callers, so a monomial triple
compiles neither.  fractions is imported only where a rational is built.
Everything is pure.
"""

from math import gcd, lcm, prod
import re

from ._base import Frozen, IdentityFailed, exact, rational_types


class SpectrumNotSplit(ArithmeticError):
    """A characteristic polynomial has no full Gaussian-rational root set
    discoverable by the configured root search."""


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
# matrices: the split-row kernels


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


def echelon_insert(basis, v):
    """
    Add the integer split row v to a fraction-free reduced echelon basis
    {pivot: split row} of primitive rows (parts of gcd 1), each a positive
    integer at its pivot and zero at the other pivots: reduce v by
    cross-multiplying, make its first nonzero entry a positive integer
    (times its conjugate) and clear that column from the other rows.
    Whether v was independent (if not, the basis is unchanged).
    """
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


def kernel_rows(s, ncols):
    """
    (w, free, d): the columns of the integer split matrix w / d are a basis
    of the right kernel of the integer split matrix s, one per free column
    f of its echelon basis: 1 at f, 0 at the other free columns, minus the
    echelon row p at f over its pivot at each pivot p.
    """
    basis = {}
    for row in s:
        echelon_insert(basis, row)
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
    w, free, e = kernel_rows(pow_rows(k, m), len(k))
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
                    if echelon_insert(basis, w) for c in cols]
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


# ---------------------------------------------------------------------------
# polynomials (coefficients ascending, GaussianRational)


def gaussian_rational_roots(p):
    """
    All roots of the polynomial with multiplicity, provided it splits over
    the Gaussian rationals within the configured search; otherwise raises
    SpectrumNotSplit.  Returns a list of (root, multiplicity).  Roots at
    zero are counted here; a factor of degree >= 1 left after them goes to
    the bounded search (roots.nonzero_roots).
    """
    while len(p) > 1 and p[-1].is_zero():  # leading zeros
        p = p[:-1]
    degree, mult = len(p) - 1, {}
    while len(p) > 1 and p[0].is_zero():  # roots at zero
        mult[ZERO] = mult.get(ZERO, 0) + 1
        p = p[1:]
    if len(p) > 1:
        from .roots import nonzero_roots
        p, found = nonzero_roots(p)
        mult.update(found)
    if len(p) > 1:
        raise SpectrumNotSplit(
            "polynomial of degree %d has %d discoverable roots"
            % (degree, sum(mult.values())))
    return sorted(mult.items(), key=lambda kv: (kv[0].re, kv[0].im))
