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

Invariant: a FockState maps raw factor tuples, sorted tuples of (mode >= 1,
class >= 0) int pairs, to nonzero coefficients, ints when integral, else
Fractions.  Its public constructor checks keys through FockMonomial and
values through exact; the operators keep it by construction (tuple slices
insert at the sorted position or drop one factor, a product or sum that
may hold a Fraction goes through exact, zeros dropped once), and only the
.terms view wraps keys into FockMonomials.
Operators read the model's class parities and pairing columns, fields fixed
at its construction: they call no SurfaceModel method and hash no model.
Each checks its class (UnknownClass), then returns a zero state as it is.
A FockState is not tied to a model: an even operator passes a factor of
a class the model lacks through; an odd one reading its parity raises.
"""

from bisect import bisect_left
from operator import index

from ._base import Frozen, exact
from .series import QTSeries, coefficient_sums, grow, super_power_table
from .surfaces import DELTA, MissingHodgeData


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

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple((index(m), index(c)) for m, c in factors)
        for i, (m, c) in enumerate(factors):
            if m < 1:
                raise ModeNonPositive("mode %d must be positive" % m)
            if c < 0:
                raise UnknownClass("negative class index %d" % c)
            if i and factors[i - 1] > (m, c):
                raise ValueError("factors must be sorted: %r" % (factors,))
        object.__setattr__(self, "factors", factors)

    @classmethod
    def _make(cls, factors):
        # trusted: a sorted tuple of int pairs, set past Frozen's guard
        _set_factors(self := object.__new__(cls), factors)
        return self

    @property
    def level(self):
        return sum(m for m, _ in self.factors)

    def degree(self, model):
        return _degree(self.factors, model, False)

    def bidegree(self, model):
        return _degree(self.factors, model, True)

    def __eq__(self, other):
        return isinstance(other, FockMonomial) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return "".join("a%d[%d]" % (m, c) for m, c in self.factors) or "1"


def _degree(factors, model, hodge):
    if hodge:
        bidegs = model.class_bidegrees
        return (sum(bidegs[c][0] + m - 1 for m, c in factors),
                sum(bidegs[c][1] + m - 1 for m, c in factors))
    return sum(model.class_degree(c) + 2 * (m - 1) for m, c in factors)


class FockState(Frozen):
    """Finite rational linear combination of Fock monomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, c in (terms or {}).items():
            key = (mono if isinstance(mono, FockMonomial)
                   else FockMonomial(mono)).factors
            clean[key] = clean.get(key, 0) + exact(c)
        _set_terms(self, {k: exact(c) for k, c in clean.items() if c})

    @property
    def terms(self):
        """{FockMonomial: coefficient}, built afresh on each read."""
        make = FockMonomial._make
        return {make(k): c for k, c in self._terms.items()}

    @classmethod
    def vacuum(cls):
        return _state({(): 1})

    @classmethod
    def zero(cls):
        return _state({})

    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        terms = dict(self._terms)
        for k, c in other._terms.items():
            if k in terms:
                c = exact(c + terms.pop(k))
            if c:
                terms[k] = c
        return _state(terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = exact(c)
        return _state({k: exact(v * c) for k, v in self._terms.items() if c})

    def __eq__(self, other):
        return isinstance(other, FockState) and self._terms == other._terms

    def __repr__(self):
        return " + ".join("%s*%r" % (c, m) for m, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].factors)) or "0"


def _parity(cls, parities):
    """The parity of class cls; UnknownClass outside the basis."""
    if not 0 <= cls < len(parities):
        raise UnknownClass("class index %d outside 0..%d"
                           % (cls, len(parities) - 1))
    return parities[cls]


class _Operator(Frozen):
    """A mode operator on one class."""

    __slots__ = ("mode", "cls")

    def __init__(self, mode, cls):
        mode = index(mode)
        if mode < 1:
            raise ModeNonPositive("mode %d must be positive" % mode)
        _set_mode(self, mode)
        _set_cls(self, index(cls))

    def __repr__(self):
        return "%s(%d, %d)" % (type(self).__name__, self.mode, self.cls)


_set_factors = FockMonomial.factors.__set__
_set_terms = FockState._terms.__set__
_set_mode, _set_cls = _Operator.mode.__set__, _Operator.cls.__set__


def _state(terms):
    # trusted: the FockState of a well-formed key dict (module docstring)
    _set_terms(self := object.__new__(FockState), terms)
    return self


class Create(_Operator):
    """Creation operator: left multiplication by the generator (mode, class)."""

    __slots__ = ()

    def parity(self, model):
        return _parity(self.cls, model.ordinary_parities)

    def apply(self, state, model):
        parities, cls, terms = model.ordinary_parities, self.cls, state._terms
        if not 0 <= cls < len(parities):
            _parity(cls, parities)
        if not terms:
            return state
        odd, key, out = parities[cls], (self.mode, cls), {}
        try:
            for factors, coeff in terms.items():
                pos = bisect_left(factors, key)
                if odd and factors[pos:pos + 1] == (key,):
                    continue  # an odd factor repeated at one mode
                if odd and sum(parities[c] for _, c in factors[:pos]) % 2:
                    coeff = -coeff
                # insertion is injective: no two terms land on one monomial
                out[factors[:pos] + (key,) + factors[pos:]] = coeff
        except IndexError:  # a class outside the basis; the largest raises
            _parity(max(c for f in terms for _, c in f), parities)
        _set_terms(result := object.__new__(FockState), out)
        return result


class Annihilate(_Operator):
    """Annihilation operator: contraction super-derivation for (mode, class)."""

    __slots__ = ()

    def parity(self, model):
        return _parity(self.cls, model.compact_parities)

    def apply(self, state, model):
        compact, cls, terms = model.compact_parities, self.cls, state._terms
        if not 0 <= cls < len(compact):
            _parity(cls, compact)
        if not terms:
            return state
        parities, mode, odd = model.ordinary_parities, self.mode, compact[cls]
        column = model.pairing_columns[cls]
        norm = mode if mode & 1 else -mode  # (-1)^(mode-1) * mode
        # the factors at this mode lie between these keys in sort order
        first, past, out = (mode,), (mode + 1,), {}
        merged = False  # two contributions met: only then can one cancel
        try:
            for factors, coeff in terms.items():
                lo = bisect_left(factors, first)
                hi = bisect_left(factors, past, lo)
                if lo == hi:
                    continue
                if odd and sum(parities[c] for _, c in factors[:lo]) % 2:
                    coeff = -coeff
                for s in range(lo, hi):
                    c = factors[s][1]
                    if c in column:
                        new = factors[:s] + factors[s + 1:]
                        val = coeff * (norm * column[c])
                        if new in out:
                            val += out[new]
                            merged = True
                        out[new] = val if type(val) is int else exact(val)
                    if odd and parities[c]:
                        coeff = -coeff
        except IndexError:  # a class outside the basis; the largest raises
            _parity(max(c for f in terms for _, c in f), parities)
        _set_terms(result := object.__new__(FockState),
                   {k: c for k, c in out.items() if c} if merged else out)
        return result


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
    first = op1.apply(op2.apply(state, model), model)
    second = op2.apply(op1.apply(state, model), model)._terms
    if not second:
        return first
    terms = dict(first._terms)
    sign = 1 if op1.parity(model) * op2.parity(model) % 2 else -1
    for k, c in second.items():
        c = exact(terms.pop(k, 0) + sign * c)
        if c:
            terms[k] = c
    return _state(terms)


def stratum_class(nu, model=DELTA):
    """
    The Fock representative of the closure of the stratum of a partition
    on the one-class model: the product of creation operators at the parts
    applied to the vacuum, divided by the multiplicity factorial.  Lives in
    level n and degree 2*drop.
    """
    from fractions import Fraction
    from .partitions import multiplicity_factorial
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
    degs = {_degree(factors, model, hodge) for factors in state._terms}
    return MIXED if len(degs) > 1 else next(iter(degs), None)


def _level_dims(model, order):
    """Level dimensions 0..order: coefficient_sums of even and odd classes."""
    odd = sum(model.ordinary_parities)
    return coefficient_sums(len(model.ordinary_parities) - odd, odd, order)


def graded_character(model, order):
    """
    Character of the Fock space: the coefficient of q^n is the sum of
    t^degree over all level-n monomials.  Evaluated generator by generator
    (geometric step for even classes, two-term step for odd ones), which
    sums over exactly the admissible monomials without listing them: one
    packed pass, each row's digits checked against its level dimension.
    """
    def step(offset, *_):
        return super_power_table(((offset((d + 2 * (mode - 1),)), mode, d % 2)
                                  for mode in range(1, order + 1)
                                  for d in model.ordinary_degrees), order), []
    return QTSeries(order, grow(None, order, _level_dims(model, order)
                                .__getitem__, [], step)[0])


def level_dim(model, n):
    """Number of level-n monomials, from the same closed form."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _level_dims(model, n)[n]


def enumerate_monomials(model, n):
    """
    All level-n monomials, listed explicitly.  Exponential in n; meant for
    small levels (cross-checks and sampling), not for production counts.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    odd = model.ordinary_parities
    gens = [(mode, cls) for mode in range(1, n + 1) for cls in range(len(odd))]

    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(FockMonomial(acc))
            return
        for gi in range(start, len(gens)):
            mode, cls = gens[gi]
            if mode > remaining:
                continue
            nxt = gi + odd[cls]
            rec(nxt, remaining - mode, acc + ((mode, cls),))

    rec(0, n, ())
    return out


def random_state(model, level, rng, n_terms=3):
    """
    A random exact state of the given level: a few random admissible
    monomials with small random rational coefficients.  Sampling is by
    random walk over generators; it need not be uniform.
    """
    from fractions import Fraction
    odd = model.ordinary_parities
    terms = {}
    for _ in range(n_terms):
        for _attempt in range(50):
            remaining, factors = level, []
            while remaining:
                mode = rng.randint(1, remaining)
                cls = rng.randrange(len(odd))
                if odd[cls] and (mode, cls) in factors:
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
