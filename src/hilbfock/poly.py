"""
Sparse polynomials over exact rationals in one variable (t) or two (x, y):
CoeffPoly, the coefficient ring of every table and series.  Integer values
stay machine integers until a denominator appears.  Every product of
sparse polynomials, alone or as series coefficients (series.QTSeries),
runs through the one term-product kernel mul_into.
"""

from operator import index
from types import MappingProxyType

from ._base import Frozen, exact, rational_types


class UnknownVariable(KeyError):
    """Specialization mentions a variable the series does not have."""


_VARS = {1: ("t",), 2: ("x", "y")}


def mul_into(bucket, a, b, nvars):
    """Add the product of term dicts a, b to bucket, zeros kept; return it."""
    if len(a) > len(b):
        a, b = b, a
    get = bucket.get
    if nvars == 1:
        for (i,), c in a.items():
            for (j,), d in b.items():
                e = (i + j,)
                bucket[e] = get(e, 0) + c * d
    else:
        for (i, k), c in a.items():
            for (j, l), d in b.items():
                e = (i + j, k + l)
                bucket[e] = get(e, 0) + c * d
    return bucket


def exact_terms(terms):
    """terms through exact if a Fraction, perhaps integral, is among them."""
    fraction = rational_types()[1]
    if fraction and fraction in map(type, terms.values()):
        return {e: exact(c) for e, c in terms.items()}
    return terms


class CoeffPoly(Frozen):
    """Sparse polynomial: map from exponent tuple to nonzero exact rational."""

    __slots__ = ("nvars", "terms")

    def __init__(self, terms=None, nvars=1):
        if nvars not in (1, 2):
            raise ValueError("nvars must be 1 or 2")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(map(index, exps))
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent tuple %r" % (exps,))
            c = exact(c)
            if c:
                clean[exps] = exact(clean[exps] + c) if exps in clean else c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", MappingProxyType(
            {e: c for e, c in clean.items() if c}))

    @classmethod
    def _make(cls, terms, nvars):
        # trusted constructor: terms already normalized and zero-free; the
        # read-only view lets a cached table hand out its own rows
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", MappingProxyType(terms))
        return self

    @classmethod
    def zero(cls, nvars=1):
        return cls._make({}, nvars)

    @classmethod
    def constant(cls, c, nvars=1):
        c = exact(c)
        return cls._make({(0,) * nvars: c} if c else {}, nvars)

    @classmethod
    def one(cls, nvars=1):
        return cls.constant(1, nvars)

    @classmethod
    def monomial(cls, exps, coeff=1, nvars=None):
        exps = tuple(exps)
        return cls({exps: coeff}, nvars if nvars else len(exps))

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, 0)

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixing polynomials in different variables")

    def __add__(self, other):
        if not isinstance(other, CoeffPoly):
            other = CoeffPoly.constant(other, self.nvars)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            elif e in terms:
                del terms[e]
        return CoeffPoly._make(exact_terms(terms), self.nvars)

    def __neg__(self):
        return CoeffPoly._make({e: -c for e, c in self.terms.items()},
                               self.nvars)

    def __sub__(self, other):
        if not isinstance(other, CoeffPoly):
            other = CoeffPoly.constant(other, self.nvars)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CoeffPoly):
            c = exact(other)
            if not c:
                return CoeffPoly.zero(self.nvars)
            terms = {e: v * c for e, v in self.terms.items()}
        else:
            self._check(other)
            terms = mul_into({}, self.terms, other.terms, self.nvars)
            terms = {e: c for e, c in terms.items() if c}
        return CoeffPoly._make(exact_terms(terms), self.nvars)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, rational_types()):
            other = CoeffPoly.constant(other, self.nvars)
        return (isinstance(other, CoeffPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def specialize(self, assignment):
        """
        Substitute each variable by an exact rational or by the single
        target variable "t".  Returns a polynomial in t (possibly constant).
        """
        names = _VARS[self.nvars]
        for k in assignment:
            if k not in names:
                raise UnknownVariable("no variable %r in %s" % (k, names))
        out = {}
        for exps, c in self.terms.items():
            t_exp = 0
            val = c
            for name, e in zip(names, exps):
                target = assignment.get(name, name if name == "t" else None)
                if target is None:
                    raise UnknownVariable("variable %r left unassigned" % (name,))
                if target == "t":
                    t_exp += e
                elif isinstance(target, str):
                    raise UnknownVariable("unknown target variable %r" % (target,))
                else:
                    val *= exact(target) ** e
            key = (t_exp,)
            out[key] = out.get(key, 0) + val
        return CoeffPoly(out, 1)

    def __str__(self):
        if not self.terms:
            return "0"
        names = _VARS[self.nvars]
        bits = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exps]
            mono = "".join(
                "" if e == 0 else (name if e == 1 else "%s^%d" % (name, e))
                for name, e in zip(names, exps))
            if not mono:
                bits.append((c < 0, str(abs(c))))
            elif abs(c) == 1:
                bits.append((c < 0, mono))
            else:
                a = abs(c)
                cs = str(a) if isinstance(a, int) else "(%s)" % a
                bits.append((c < 0, "%s%s" % (cs, mono)))
        first_neg, first = bits[0]
        out = ("-" if first_neg else "") + first
        for neg, s in bits[1:]:
            out += (" - " if neg else " + ") + s
        return out

    __repr__ = __str__
