"""
Exact truncated power series in q with polynomial coefficients.

The coefficients are poly.CoeffPoly, sparse polynomials over exact
rationals in t or in x, y; poly owns them and the one term-product kernel,
poly.mul_into, which QTSeries products also run through (read at call
time).  Series carry a hard truncation order; combining series of
different orders is an error rather than a silent re-truncation.

Infinite products of the shape prod_{m>=1} (1 +- t^(c*m+d) q^m)^(+-w) are
expanded row by row from their logarithmic derivative, each row from the
rows below it; factors with m > N cannot touch coefficients up to q^N, so
the product is finite.  coefficient_sums, the totals of every Hilbert-scheme
table, come in closed form from the log-derivative of prod_m (1 - q^m)^(-a)
(1 + q^m)^b.  product_table keeps the packed rows; product_expand a QTSeries.

Dimension counts and the product are stepped on one packed int per q-power
(Kronecker substitution), in a layout only this module knows: callers give
exponents, exact totals and, in x, y, a y-slope (largest y-exponent per
q-power).  grow hands each step offset(exps), from digit_offset: t^e at bit
bits*e, x^p y^q at bits*(p*width + q), so an int product is a polynomial
product and a monomial times a row is a shift.  No digit may carry: bits is
whole bytes above an exact total that bounds every coefficient, width is
order * slope + 1, and unpack raises IdentityFailed unless the digits sum
to that total.  Evaluation at 2^bits is a ring map, so a signed sum, as in
a division step, is exactly its polynomial's value, and a finished row,
with digits in [0, 2^bits), unpacks without carry.  grow owns the protocol
of every packed table: the new rows' totals size the digits, the kept state
is re-laid for a wider width and re-spaced for wider digits (respace), and
each new row is unpacked against its total.  Rational data is never packed.
The graded super-symmetric powers (symmetric products, their Hodge
refinement, the Fock character) come from one stepping kernel,
super_power_table: a generator at offset k steps the table by
1/(1 - 2^k q^s) if even, (1 + 2^k q^s) if odd, a shift and an add per row.
"""

from math import comb
from sys import byteorder

from . import poly
from ._base import Frozen, IdentityFailed
from .poly import CoeffPoly


class OrderMismatch(ValueError):
    """Arithmetic between series of different truncation orders."""


class IndexOutOfRange(IndexError):
    """Coefficient index outside 0..order."""


class QTSeries(Frozen):
    """Power series in q truncated at a fixed order, CoeffPoly coefficients."""

    __slots__ = ("order", "nvars", "coeffs")

    def __init__(self, order, coeffs, nvars=1):
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(coeffs) > order + 1:
            raise ValueError("%d coefficients exceed order %d"
                             % (len(coeffs), order))
        cs = []
        for i in range(order + 1):
            c = coeffs[i] if i < len(coeffs) else CoeffPoly.zero(nvars)
            if not isinstance(c, CoeffPoly):
                c = CoeffPoly.constant(c, nvars)
            if c.nvars != nvars:
                raise ValueError("coefficient in wrong variables")
            cs.append(c)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls, order, nvars=1):
        return cls(order, [], nvars)

    @classmethod
    def one(cls, order, nvars=1):
        return cls(order, [CoeffPoly.one(nvars)], nvars)

    def coeff(self, m):
        if not 0 <= m <= self.order:
            raise IndexOutOfRange("q-power %d outside 0..%d" % (m, self.order))
        return self.coeffs[m]

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatch(
                "orders differ: %d vs %d" % (self.order, other.order))
        if self.nvars != other.nvars:
            raise ValueError("mixing series in different variables")

    def __add__(self, other):
        if not isinstance(other, QTSeries):
            other = QTSeries(self.order, [other], self.nvars)
        self._check(other)
        return QTSeries(self.order,
                        [a + b for a, b in zip(self.coeffs, other.coeffs)],
                        self.nvars)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if not isinstance(other, QTSeries):
            return QTSeries(self.order, [c * other for c in self.coeffs],
                            self.nvars)
        self._check(other)
        nvars = self.nvars
        acc = [{} for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if not a.terms:
                continue
            for j, b in enumerate(other.coeffs[:self.order + 1 - i]):
                if b.terms:
                    poly.mul_into(acc[i + j], a.terms, b.terms, nvars)
        return QTSeries(self.order, [CoeffPoly._make(poly.exact_terms(
            {e: c for e, c in d.items() if c}), nvars) for d in acc], nvars)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, QTSeries) and self.order == other.order
                and self.nvars == other.nvars and self.coeffs == other.coeffs)

    def truncate(self, new_order):
        if new_order > self.order:
            raise OrderMismatch("cannot extend a truncated series")
        return QTSeries(new_order, self.coeffs[:new_order + 1], self.nvars)

    def specialize(self, assignment):
        return QTSeries(self.order,
                        [c.specialize(assignment) for c in self.coeffs], 1)


class FactorFamily(Frozen):
    """
    One family of factors of an infinite product: for every m >= 1 the
    factor (1 + u_m q^m)^w when sign is +1, or (1 - u_m q^m)^(-w) when sign
    is -1, where u_m is the monomial with exponent c*m + d in each variable
    (affine forms given per variable).
    """

    __slots__ = ("sign", "weight", "exps")

    def __init__(self, sign, weight, exps):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if weight < 0:
            raise ValueError("weight must be non-negative")
        exps = tuple((int(c), int(d)) for c, d in exps)
        if len(exps) not in (1, 2):
            raise ValueError("one affine exponent form per variable")
        for c, d in exps:
            if c < 0 or c + d < 0:
                raise ValueError("exponent %d*m%+d negative for some m >= 1" % (c, d))
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "exps", exps)

    @property
    def nvars(self):
        return len(self.exps)

    def factor_series(self, m, order):
        """The single factor at product index m, expanded to the given order."""
        nvars = self.nvars
        if self.weight == 0 or m > order:
            return QTSeries.one(order, nvars)
        u = tuple(c * m + d for c, d in self.exps)
        coeffs = [CoeffPoly.zero(nvars) for _ in range(order + 1)]
        jmax = order // m
        if self.sign == 1:
            jmax = min(jmax, self.weight)
        for j in range(jmax + 1):
            if self.sign == 1:
                c = comb(self.weight, j)
            else:
                c = comb(self.weight + j - 1, j)
            exps = tuple(e * j for e in u)
            coeffs[j * m] = CoeffPoly.monomial(exps, c, nvars)
        return QTSeries(order, coeffs, nvars)


def product_expand(families, order, nvars=None):
    """
    Expand prod_{m>=1} prod_{f in families} f(m) exactly to the given order,
    a QTSeries (the empty product is 1), from product_table.
    """
    rows = product_table(families, order, nvars=nvars)[0]
    return QTSeries(order, rows, rows[0].nvars)


def product_table(families, order, kept=None, nvars=None):
    """
    The rows 0..order of the product and its state, the packed rows, grown
    from kept (see grow); nvars names an empty product's variables.  By
    q d/dq log, n F_n sums H_j T_j(n) over j and the slopes c: for U of
    exponents c, u_f(m) = U^(m-1) u_f(1), H_j = sum_f e w_f u_f(1)^j (e = 1
    if f divides, else (-1)^(j+1)) and T_j(n) = sum_(m>=1) m U^((m-1)j)
    F_(n-mj).  Equal x- and y-forms make a product in w = xy alone.
    """
    families = list(families)
    nvars = nvars or (families[0].nvars if families else 1)
    if any(f.nvars != nvars for f in families):
        raise ValueError("families in different variables")
    diagonal = nvars == 2 and all(f.exps[0] == f.exps[1] for f in families)
    # at q^k the y-exponent j(c m + d) is at most k (c + max(d, 0))
    slope = None if nvars == 1 or diagonal else max(
        c + max(d, 0) for f in families for c, d in f.exps[1:])
    def step(offset, rows, start):
        slopes = {}  # offset of U: the (sign, weight, offset of u_f(1)) of
        for f in families:  # its families, u_f(1) being U times that of d
            c, d = (offset(e) for e in zip(*f.exps[diagonal:]))  # w: y-form
            slopes.setdefault(c, []).append((f.sign, f.weight, c + d))
        # (j, offset of U^j, the (coefficient, offset) terms of H_j)
        terms = [(j, c * j, [(w if sign < 0 or j % 2 else -w, e * j)
                             for sign, w, e in fs if w])
                 for c, fs in slopes.items() for j in range(1, order + 1)]
        rows = list(rows)
        for n in range(start, order + 1):
            acc = 0
            for j, s, h in terms:
                if j <= n:
                    t = rows[n - j]
                    for m in range(2, n // j + 1):
                        t += m * rows[n - m * j] << s * (m - 1)
                    for c, e in h:
                        acc += (t if c == 1 else c * t) << e
            row, r = divmod(acc, n)
            if r or row < 0:
                raise IdentityFailed("product log-derivative fails at q^%d"
                                     % n)
            rows.append(row)
        return rows, rows
    a, b = (sum(f.weight for f in families if f.sign == sg) for sg in (-1, 1))
    rows, state = grow(kept, order, coefficient_sums(a, b, order).__getitem__,
                       [1], step, slope)
    return [r if r.nvars == nvars else CoeffPoly._make(  # w^k as x^k y^k
        {(k, k): c for (k,), c in r.terms.items()}, 2) for r in rows], state


def coefficient_sums(a, b, order):
    """
    T_0..T_order of prod_m (1 - q^m)^(-a) (1 + q^m)^b: the coefficient sums
    of a product of - and + families of weights a, b, the total Betti numbers
    of the Hilbert schemes of a surface of a even, b odd classes.  By q d/dq
    log, n T_n = sum_k s_k T_(n-k), where s_k = sum_(m|k) m (a - (-1)^(k/m) b).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    s = [0] * (order + 1)
    for m in range(1, order + 1):
        for j, k in enumerate(range(m, order + 1, m), 1):
            s[k] += m * (a - (-1) ** j * b)
    totals = [1]
    for n in range(1, order + 1):
        t, r = divmod(sum(s[k] * totals[n - k] for k in range(1, n + 1)), n)
        if r:
            raise IdentityFailed("coefficient sum not integral at q^%d" % n)
        totals.append(t)
    return totals


def super_power_table(gens, order, last=None):
    """
    Graded super-symmetric powers on packed ints: table[0..order] of the
    product over gens, (k, s, odd) with k a bit offset (0: plain counts),
    of 1/(1 - 2^k q^s) if even, (1 + 2^k q^s) if odd.  table[j] +=
    table[j - s] << k runs upward if even, so it may repeat, and downward
    if odd, used at most once.  With last (all s = 1) it goes on from kept
    row N: last[c] is row N as generator c's step reads it (through c if
    even, else before c), moved on in place.
    """
    table = [1] + [0] * order
    for c, (k, s, odd) in enumerate(gens):
        if last is not None:
            table[0] = last[c]
            last[c] = table[-1]
        for j in range(order, s - 1, -1) if odd else range(s, order + 1):
            table[j] = table[j] + (table[j - s] << k)
        if last is not None and not odd:
            last[c] = table[-1]
    return table


def digit_bits(total):
    """Bits of a packed digit: whole bytes, enough to hold total."""
    return 8 * max(1, (total.bit_length() + 7) // 8)


def digit_offset(exps, bits, width=None):
    """Bit offset of the digit of t^e, or of x^p y^q when width is given."""
    return bits * (exps[0] if width is None else exps[0] * width + exps[1])


def pack(poly, offset):
    """The packed int of a CoeffPoly, each term at offset(exponents)."""
    return sum(c << offset(e) for e, c in poly.terms.items())


def _widen(raw, step, wide):
    """Little-endian digits of step bytes each as digits of wide bytes."""
    out = bytearray(len(raw) // step * wide)
    for b in range(step):
        out[b::wide] = raw[b::step]
    return out


def respace(state, bits, wider):
    """Nested lists of packed ints, each digit moved to wider bits if wider."""
    if wider == bits or not state or isinstance(state[0], list):
        return state if wider == bits else [respace(v, bits, wider)
                                            for v in state]
    size = (max(state).bit_length() // bits + 1) * (bits // 8)
    raw = _widen(b"".join(v.to_bytes(size, "little") for v in state),
                 bits // 8, wider // 8)
    return [int.from_bytes(raw[k:k + len(raw) // len(state)], "little")
            for k in range(0, len(raw), len(raw) // len(state))]


def grow(kept, order, total, start, step, slope=None):
    """
    A packed table at order, (rows, (bits, width, state)), grown from kept
    or from row 0 and state start, in x, y if slope is given.  The exact
    totals total(n) of the new rows size the digits, never narrower than
    kept; the kept state is re-laid and re-spaced, and step(offset, state,
    n) gives packed rows ending in rows n..order and the new state.  Each
    new row is unpacked against its own total.
    """
    width = None if slope is None else order * slope + 1
    rows, (bits, was, state) = kept or ([CoeffPoly.one(2 if width else 1)],
                                        (8, width, start))
    n = len(rows)
    totals = [total(m) for m in range(n, order + 1)]
    wider = max(bits, digit_bits(max(totals, default=0)))
    if width:  # each x-block of was digits moved to width digits
        state = respace(state, bits * was, bits * width)
    packed, state = step(lambda exps: digit_offset(exps, wider, width),
                         respace(state, bits, wider), n)
    return rows + [unpack(v, wider, t, width, m) for m, (v, t) in enumerate(
        zip(packed[n - order - 1:], totals), n)], (wider, width, state)


_WORD = {2: "H", 4: "I", 8: "Q"}  # native formats by byte size


def unpack(value, bits, total, width=None, row=None):
    """The CoeffPoly (in t, or x, y if width) of a packed int of sum total."""
    # each digit is widened to `wide` bytes, a power of two, and read as
    # native words of up to 8 bytes (big-endian hosts read the reversed
    # bytes): one word per digit, or wide // 8 words joined by shifts
    step, count = bits // 8, -(-value.bit_length() // bits)
    raw = value.to_bytes(count * step, "little")
    wide = 1 << (step - 1).bit_length()
    if wide != step:
        raw = _widen(raw, step, wide)
    if wide > 1:
        word = _WORD[min(wide, 8)]
        raw = (memoryview(raw[::-1]).cast(word).tolist()[::-1]
               if byteorder == "big" else memoryview(raw).cast(word).tolist())
    parts = max(wide // 8, 1)
    digits = raw[::parts]
    for j in range(1, parts):
        digits = [d | w << 64 * j for d, w in zip(digits, raw[j::parts])]
    if sum(digits) != total:
        at = "" if row is None else " in row %d" % row
        raise IdentityFailed("packed digits do not sum to %d%s" % (total, at))
    return CoeffPoly._make({(k,) if width is None else divmod(k, width): c
                            for k, c in enumerate(digits) if c},
                           1 if width is None else 2)
