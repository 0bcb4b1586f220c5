"""
Heisenberg/Clifford superalgebra acting on the direct sum of the
cohomologies of all Hilbert schemes of points, realized on its Fock model:
the free supercommutative algebra on creation generators (mode i >= 1,
ordinary class), with annihilation operators acting as super-derivations.

Conventions fixed here:

  * A monomial is stored with factors sorted by (mode, class index); the
    coefficient of a state absorbs the Koszul sign of sorting.  An odd
    class repeated at the same mode kills the monomial.
  * Creation multiplies on the left; the sign for moving the new factor
    into place is (-1) per odd factor it crosses (odd-odd crossings only).
  * Annihilation with compact class beta at mode i contracts each factor
    (i, alpha) to (-1)^(i-1) * i * <alpha, beta>, with the Koszul sign of
    the factors to its left; the normalization (-1)^(i-1) * i is kept
    exactly as in the defining bracket.
  * A factor (mode i, class of degree d) has cohomological degree
    d + 2(i-1); in Hodge mode, bidegree (p + i - 1, q + i - 1).

Invariant: a FockState maps monomials with sorted positive factors to
nonzero int or Fraction coefficients; the public constructors normalise
through _base.exact, and the operators keep it by construction (insertion
at the sorted position, removal of one factor, a coefficient times an
exact weight, zeros dropped once), building results through _make.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

from ._base import Frozen, exact
from .partitions import multiplicity_factorial
from .series import QTSeries, checked_rows, packed_monomial, super_power_table
from .surfaces import MissingHodgeData


class UnknownClass(IndexError):
    """Class index outside the model's basis."""


class ModeNonPositive(ValueError):
    """Operator mode must be a positive integer."""


class WrongModel(ValueError):
    """Operation requires the one-class degree-zero model."""


class _Mixed:
    def __repr__(self):
        return "Mixed"


MIXED = _Mixed()


class FockMonomial(Frozen):
    """A normal-ordered product of creation factors (mode, class index)."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors):
        factors = tuple((int(m), int(c)) for m, c in factors)
        for i, (m, c) in enumerate(factors):
            if m < 1:
                raise ModeNonPositive("mode %d must be positive" % m)
            if c < 0:
                raise UnknownClass("negative class index %d" % c)
            if i and factors[i - 1] > (m, c):
                raise ValueError("factors must be sorted: %r" % (factors,))
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_hash", hash(factors))

    @classmethod
    def _make(cls, factors):
        # trusted constructor: factors already a sorted tuple of int pairs;
        # the slot descriptors set the slots past Frozen's guard
        self = object.__new__(cls)
        _set_factors(self, factors)
        _set_hash(self, hash(factors))
        return self

    @property
    def level(self):
        return sum(m for m, _ in self.factors)

    def degree(self, model):
        return sum(model.class_degree(c) + 2 * (m - 1) for m, c in self.factors)

    def bidegree(self, model):
        bidegs = model.class_bidegrees
        p = sum(bidegs[c][0] + m - 1 for m, c in self.factors)
        q = sum(bidegs[c][1] + m - 1 for m, c in self.factors)
        return (p, q)

    def __eq__(self, other):
        return isinstance(other, FockMonomial) and self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.factors:
            return "1"
        return "".join("a%d[%d]" % (m, c) for m, c in self.factors)


VACUUM_MONOMIAL = FockMonomial(())


class FockState(Frozen):
    """Finite rational linear combination of Fock monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, c in (terms or {}).items():
            if not isinstance(mono, FockMonomial):
                mono = FockMonomial(mono)
            clean[mono] = clean.get(mono, 0) + exact(c)
        object.__setattr__(self, "terms",
                           {m: exact(c) for m, c in clean.items() if c})

    @classmethod
    def _make(cls, terms):
        # trusted constructor: FockMonomial keys, nonzero int/Fraction values
        self = object.__new__(cls)
        _set_terms(self, terms)
        return self

    @classmethod
    def vacuum(cls):
        return cls._make({VACUUM_MONOMIAL: 1})

    @classmethod
    def zero(cls):
        return cls._make({})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            if m in terms:
                c += terms.pop(m)
            if c:
                terms[m] = c
        return FockState._make(terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = exact(c)
        return FockState._make({m: v * c for m, v in self.terms.items() if c})

    def __eq__(self, other):
        return isinstance(other, FockState) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%s*%r" % (c, m) for m, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].factors))


_set_factors = FockMonomial.factors.__set__
_set_hash = FockMonomial._hash.__set__
_set_terms = FockState.terms.__set__


def _check_mode_class(mode, cls, n_classes):
    if mode < 1:
        raise ModeNonPositive("mode %d must be positive" % mode)
    if not 0 <= cls < n_classes:
        raise UnknownClass("class index %d outside 0..%d" % (cls, n_classes - 1))


@lru_cache(maxsize=None)
def _odd(model):
    """Odd flag of each ordinary class, by flat index."""
    return tuple(bool(d % 2) for d in model.ordinary_degrees)


@lru_cache(maxsize=None)
def _weights(model, mode, cls):
    """{alpha: (-1)^(mode-1) * mode * <alpha, cls>} over nonzero pairings."""
    norm = (-1) ** (mode - 1) * mode
    return {a: exact(norm * model.pairing_value(a, cls))
            for a in range(len(model.ordinary_degrees))
            if model.pairing_value(a, cls)}


class _Operator(Frozen):
    """A mode operator on one class; subclasses declare (mode, cls) slots."""

    __slots__ = ()

    def __init__(self, mode, cls):
        object.__setattr__(self, "mode", int(mode))
        object.__setattr__(self, "cls", int(cls))

    def __repr__(self):
        return "%s(%d, %d)" % (type(self).__name__, self.mode, self.cls)


class Create(_Operator):
    """Creation operator: left multiplication by the generator (mode, class)."""

    __slots__ = ("mode", "cls")

    def parity(self, model):
        return model.class_degree(self.cls) % 2

    def apply(self, state, model):
        _check_mode_class(self.mode, self.cls, len(model.ordinary_degrees))
        odd = _odd(model)
        signed = odd[self.cls]  # an even factor is inserted with no sign
        key = (self.mode, self.cls)
        make = FockMonomial._make
        out = {}
        for mono, coeff in state.terms.items():
            factors = mono.factors
            pos = bisect_left(factors, key)
            if signed:
                if factors[pos:pos + 1] == (key,):
                    continue
                if sum(odd[c] for _, c in factors[:pos]) % 2:
                    coeff = -coeff
            # insertion is injective: no two terms land on one monomial
            out[make(factors[:pos] + (key,) + factors[pos:])] = coeff
        return FockState._make(out)


class Annihilate(_Operator):
    """Annihilation operator: contraction super-derivation for (mode, class)."""

    __slots__ = ("mode", "cls")

    def parity(self, model):
        return model.compact_class_degree(self.cls) % 2

    def apply(self, state, model):
        _check_mode_class(self.mode, self.cls, len(model.compact_degrees))
        odd = _odd(model) if self.parity(model) else None
        weights = _weights(model, self.mode, self.cls)
        # the factors at this mode lie between these keys in sort order
        first, past = (self.mode,), (self.mode + 1,)
        make = FockMonomial._make
        out = {}
        merged = False  # two contributions met: only then can one cancel
        for mono, coeff in state.terms.items():
            factors = mono.factors
            lo = bisect_left(factors, first)
            hi = bisect_left(factors, past, lo)
            if odd and lo < hi and sum(odd[c] for _, c in factors[:lo]) % 2:
                coeff = -coeff
            for s in range(lo, hi):
                c = factors[s][1]
                if c in weights:
                    new = make(factors[:s] + factors[s + 1:])
                    val = coeff * weights[c]
                    if new in out:
                        val += out[new]
                        merged = True
                    out[new] = val
                if odd and odd[c]:
                    coeff = -coeff
        return FockState._make(
            {m: c for m, c in out.items() if c} if merged else out)


class Central:
    """The central element; acts as the identity."""

    __slots__ = ()

    def parity(self, model):
        return 0

    def apply(self, state, model):
        return state

    def __repr__(self):
        return "Central()"


def commutator(op1, op2, state, model):
    """Supercommutator op1 op2 - (-1)^(|op1||op2|) op2 op1 applied to state."""
    terms = dict(op1.apply(op2.apply(state, model), model).terms)
    sign = 1 if op1.parity(model) * op2.parity(model) % 2 else -1
    for m, c in op2.apply(op1.apply(state, model), model).terms.items():
        c = terms.pop(m, 0) + sign * c
        if c:
            terms[m] = c
    return FockState._make(terms)


def stratum_class(nu, model=None):
    """
    The Fock representative of the closure of the stratum of a partition
    on the one-class model: the product of creation operators at the parts
    applied to the vacuum, divided by the multiplicity factorial.  Lives in
    level n and degree 2*drop.
    """
    if model is None:
        from .surfaces import DELTA
        model = DELTA
    degs = model.ordinary_degrees
    if len(degs) != 1 or degs[0] != 0:
        raise WrongModel(
            "stratum classes need the single degree-0 class model, got %r"
            % (model.name,))
    st = FockState.vacuum()
    for part in nu:
        st = Create(part, 0).apply(st, model)
    return st.scale(Fraction(1, multiplicity_factorial(nu)))


def degree_of(state, model, hodge=False):
    """
    The common cohomological degree of all monomials of the state, or the
    MIXED marker; with hodge=True, the common bidegree instead.
    """
    if hodge and model.hodge is None:
        raise MissingHodgeData("model %r carries no Hodge data" % model.name)
    degs = {mono.bidegree(model) if hodge else mono.degree(model)
            for mono in state.terms}
    return MIXED if len(degs) > 1 else next(iter(degs), None)


def _level_table(model, order, bits=0):
    """One stepping pass, t^degree packed at bits per digit (0: counts)."""
    gens = ((packed_monomial((d + 2 * (mode - 1),), bits), mode, d % 2)
            for mode in range(1, order + 1) for d in model.ordinary_degrees)
    return super_power_table(gens, order, 1, 0)


def graded_character(model, order):
    """
    Character of the Fock space: the coefficient of q^n is the sum of
    t^degree over all level-n monomials.  Evaluated generator by generator
    (geometric step for even classes, two-term step for odd ones), which
    sums over exactly the admissible monomials without listing them: one
    pass with plain counts sizes the digits of one packed pass.
    """
    return QTSeries(order,
                    checked_rows(lambda bits: _level_table(model, order, bits),
                                 _level_table(model, order)))


def level_dim(model, n):
    """Number of level-n monomials, by the same stepping with plain counts."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _level_table(model, n)[n]


def enumerate_monomials(model, n):
    """
    All level-n monomials, listed explicitly.  Exponential in n; meant for
    small levels (cross-checks and sampling), not for production counts.
    """
    degs = model.ordinary_degrees
    gens = [(mode, cls) for mode in range(1, n + 1) for cls in range(len(degs))]

    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(FockMonomial(acc))
            return
        for gi in range(start, len(gens)):
            mode, cls = gens[gi]
            if mode > remaining:
                continue
            odd = degs[cls] % 2
            nxt = gi if not odd else gi + 1
            rec(nxt, remaining - mode, acc + ((mode, cls),))

    rec(0, n, ())
    return out


def random_state(model, level, rng, n_terms=3):
    """
    A random exact state of the given level: a few random admissible
    monomials with small random rational coefficients.  Sampling is by
    random walk over generators; it need not be uniform.
    """
    degs = model.ordinary_degrees
    terms = {}
    for _ in range(n_terms):
        for _attempt in range(50):
            remaining, factors = level, []
            while remaining:
                mode = rng.randint(1, remaining)
                cls = rng.randrange(len(degs))
                if degs[cls] % 2 and (mode, cls) in factors:
                    break  # an odd class repeated at one mode: try again
                factors.append((mode, cls))
                remaining -= mode
            else:
                mono = FockMonomial(sorted(factors))
                num = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5])
                den = rng.choice([1, 2, 3])
                terms[mono] = terms.get(mono, 0) + Fraction(num, den)
                break
    return FockState(terms)
