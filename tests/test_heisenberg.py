import random
from fractions import Fraction
from itertools import product

import pytest

from hilbfock import heisenberg
from hilbfock.cli import main
from hilbfock.heisenberg import (MIXED, Annihilate, Central, Create,
                                 FockMonomial, FockState, ModeNonPositive,
                                 UnknownClass, WrongModel, commutator,
                                 degree_of, enumerate_monomials,
                                 graded_character, level_dim, random_state,
                                 stratum_class)
from hilbfock.partitions import (Partition, multiplicity_factorial,
                                 partitions_of)
from hilbfock.product import hilbert_poincare_series
from hilbfock.series import CoeffPoly
from hilbfock.surfaces import ABELIAN, DELTA, K3, P2, P1XP1, SurfaceModel

PRESETS = (DELTA, P2, P1XP1, K3, ABELIAN)
VAC = FockState.vacuum()


def test_monomial_invariants():
    m = FockMonomial(((1, 0), (2, 1), (2, 1)))
    assert m.level == 5
    with pytest.raises(ValueError):
        FockMonomial(((2, 0), (1, 0)))
    with pytest.raises(ModeNonPositive):
        FockMonomial(((0, 0),))
    assert FockMonomial(()).level == 0


def test_annihilate_vacuum_is_zero():
    for model in PRESETS:
        for i in (1, 2, 3):
            assert Annihilate(i, 0).apply(VAC, model).is_zero()


def test_relation_on_vacuum():
    # R_2 P_2 on vacuum: (-1)^1 * 2 * <[X], point> = -2
    up = Create(2, 0).apply(VAC, DELTA)
    down = Annihilate(2, 0).apply(up, DELTA)
    assert down == VAC.scale(-2)


def test_odd_square_is_zero():
    # abelian: class 1 sits in degree 1
    assert ABELIAN.class_degree(1) == 1
    once = Create(1, 1).apply(VAC, ABELIAN)
    twice = Create(1, 1).apply(once, ABELIAN)
    assert twice.is_zero()


def test_create_create_commutator_zero():
    st = Create(3, 0).apply(VAC, DELTA)
    assert commutator(Create(2, 0), Create(3, 0), st, DELTA).is_zero()


def test_mixed_commutator_on_vacuum():
    got = commutator(Annihilate(3, 0), Create(3, 0), VAC, DELTA)
    assert got == VAC.scale(3)
    got = commutator(Annihilate(2, 0), Create(5, 0), VAC, DELTA)
    assert got.is_zero()


def test_central_acts_as_identity():
    rng = random.Random(5)
    for model in PRESETS:
        st = random_state(model, 4, rng)
        assert Central().apply(st, model) == st
        assert commutator(Central(), Create(2, 0), st, model).is_zero()


def test_annihilate_kills_low_levels():
    rng = random.Random(6)
    for model in PRESETS:
        for level in range(4):
            st = random_state(model, level, rng)
            for cls in range(len(model.compact_degrees)):
                assert Annihilate(level + 1, cls).apply(st, model).is_zero()


def test_operator_validation():
    with pytest.raises(UnknownClass):
        Create(1, 5).apply(VAC, DELTA)
    with pytest.raises(ModeNonPositive):
        Create(0, 0).apply(VAC, DELTA)
    with pytest.raises(UnknownClass):
        Annihilate(1, 3).apply(VAC, P2)


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_supercommuting_random(model):
    rng = random.Random(hash(model.name) & 0xffff)
    n_ord = len(model.ordinary_degrees)
    n_com = len(model.compact_degrees)
    for _ in range(60):
        st = random_state(model, rng.randint(1, 6), rng)
        k, l = rng.randint(1, 5), rng.randint(1, 5)
        a1, a2 = rng.randrange(n_ord), rng.randrange(n_ord)
        b1, b2 = rng.randrange(n_com), rng.randrange(n_com)
        assert commutator(Create(k, a1), Create(l, a2), st, model).is_zero()
        assert commutator(Annihilate(k, b1), Annihilate(l, b2), st,
                          model).is_zero()
        mixed = commutator(Annihilate(k, b1), Create(l, a1), st, model)
        if k == l:
            expect = st.scale(
                Fraction((-1) ** (k - 1) * k) * model.pairing_value(a1, b1))
        else:
            expect = FockState.zero()
        assert mixed == expect


def test_supercommuting_exhaustive_small_models():
    # every class pair and every mode pair up to 4, on a fixed basis state
    for model in (DELTA, P2):
        n_ord = len(model.ordinary_degrees)
        n_com = len(model.compact_degrees)
        st = Create(2, 0).apply(Create(1, n_ord - 1).apply(VAC, model), model)
        for k in range(1, 5):
            for l in range(1, 5):
                for a1 in range(n_ord):
                    for a2 in range(n_ord):
                        assert commutator(Create(k, a1), Create(l, a2),
                                          st, model).is_zero()
                for b1 in range(n_com):
                    for b2 in range(n_com):
                        assert commutator(Annihilate(k, b1),
                                          Annihilate(l, b2),
                                          st, model).is_zero()
                for a1 in range(n_ord):
                    for b1 in range(n_com):
                        got = commutator(Annihilate(k, b1), Create(l, a1),
                                         st, model)
                        if k == l:
                            expect = st.scale(Fraction((-1) ** (k - 1) * k)
                                              * model.pairing_value(a1, b1))
                        else:
                            expect = FockState.zero()
                        assert got == expect


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_relations_on_every_basis_monomial_to_level_3(model):
    # Every basis monomial of level <= 3 meets every mode pair k, l <= 4.
    # The class pairs step by 17, prime to each preset's count of pairs, so
    # across the monomials each mode pair meets every class pair as well.
    basis = [FockState({mono: 1}) for level in range(4)
             for mono in enumerate_monomials(model, level)]
    ordinary = range(len(model.ordinary_degrees))
    compact = range(len(model.compact_degrees))
    pairs = [list(product(ordinary, ordinary)),
             list(product(compact, compact)), list(product(ordinary, compact))]
    seen = [set(), set(), set()]
    for i, st in enumerate(basis):
        for k, l in product(range(1, 5), repeat=2):
            (a1, a2), (b1, b2), (a, b) = (
                kind[(17 * i + 4 * k + l) % len(kind)] for kind in pairs)
            for met, classes in zip(seen, ((a1, a2), (b1, b2), (a, b))):
                met.add((k, l, classes))
            assert commutator(Create(k, a1), Create(l, a2), st,
                              model).is_zero()
            assert commutator(Annihilate(k, b1), Annihilate(l, b2), st,
                              model).is_zero()
            weight = (-1) ** (k - 1) * k * model.pairing_value(a, b)
            assert commutator(Annihilate(k, b), Create(l, a), st,
                              model) == st.scale(weight if k == l else 0)
    assert [len(met) for met in seen] == [16 * len(kind) for kind in pairs]


def test_annihilation_sign_through_odd_factor():
    # abelian: ordinary classes 1..4 have degree 1; compact classes 11..14
    # have degree 3 and pair identically with them.  The state
    # a[1,cls2] a[2,cls1] contracts at mode 2 only, crossing one odd
    # factor: sign (-1), normalization (-1)^(2-1) * 2, total +2.
    assert ABELIAN.class_degree(1) == 1 and ABELIAN.class_degree(2) == 1
    assert ABELIAN.compact_class_degree(11) == 3
    assert ABELIAN.pairing_value(1, 11) == 1
    st = FockState({FockMonomial(((1, 2), (2, 1))): 1})
    got = Annihilate(2, 11).apply(st, ABELIAN)
    assert got == FockState({FockMonomial(((1, 2),)): 2})
    # no odd factor to the left: plain -2
    st = FockState({FockMonomial(((2, 1), (3, 2))): 1})
    got = Annihilate(2, 11).apply(st, ABELIAN)
    assert got == FockState({FockMonomial(((3, 2),)): -2})


def test_mixed_commutator_on_state_with_odd_factors():
    # the mixed bracket acts as a scalar even on states with odd content
    st = FockState({FockMonomial(((1, 1), (1, 2), (2, 5))): Fraction(3, 2)})
    for k in (1, 2, 3):
        for a1, b1 in ((3, 13), (4, 14), (0, 15)):
            got = commutator(Annihilate(k, b1), Create(k, a1), st, ABELIAN)
            factor = Fraction((-1) ** (k - 1) * k) * ABELIAN.pairing_value(a1, b1)
            assert got == st.scale(factor)


def test_koszul_exchange_of_creations():
    # odd-odd creations anticommute, anything else commutes
    rng = random.Random(9)
    model = ABELIAN
    degs = model.ordinary_degrees
    for _ in range(40):
        st = random_state(model, rng.randint(0, 4), rng)
        i, j = rng.randint(1, 4), rng.randint(1, 4)
        a, g = rng.randrange(len(degs)), rng.randrange(len(degs))
        lhs = Create(i, a).apply(Create(j, g).apply(st, model), model)
        rhs = Create(j, g).apply(Create(i, a).apply(st, model), model)
        sign = (-1) ** (degs[a] * degs[g])
        assert lhs == rhs.scale(sign)


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_character_equals_product(model):
    assert graded_character(model, 8) == hilbert_poincare_series(model, 8)


def test_character_examples():
    assert graded_character(DELTA, 3).coeff(3) == CoeffPoly(
        {(0,): 1, (2,): 1, (4,): 1})
    assert graded_character(ABELIAN, 2).coeff(2).specialize(
        {"t": 1}).constant_value() == 144
    for model in PRESETS:
        assert graded_character(model, 2).coeff(0) == CoeffPoly.one()


def test_character_matches_literal_enumeration():
    for model in (DELTA, P2, ABELIAN):
        for n in range(5):
            monos = enumerate_monomials(model, n)
            acc = {}
            for m in monos:
                d = (m.degree(model),)
                acc[d] = acc.get(d, 0) + 1
            assert graded_character(model, 4).coeff(n) == CoeffPoly(acc)
            assert level_dim(model, n) == len(monos)


def test_level_dim_values():
    for n in range(9):
        assert level_dim(DELTA, n) == len(partitions_of(n))
    assert level_dim(K3, 2) == 324
    assert level_dim(K3, 0) == 1


def test_level_dim_rejects_negative_level():
    for model in (P2, ABELIAN):
        for n in (-1, -2):
            with pytest.raises(ValueError):
                level_dim(model, n)
            with pytest.raises(ValueError):
                enumerate_monomials(model, n)


def test_stratum_class_examples():
    n = 5
    ones = Partition((1,) * n)
    st = stratum_class(ones)
    mono = FockMonomial(((1, 0),) * n)
    assert st == FockState({mono: Fraction(1, 120)})
    assert degree_of(st, DELTA) == 0

    single = Partition((n,))
    st = stratum_class(single)
    assert st == FockState({FockMonomial(((n, 0),)): 1})
    assert degree_of(st, DELTA) == 2 * (n - 1)

    st = stratum_class(Partition((2, 1)))
    assert st == FockState({FockMonomial(((1, 0), (2, 0))): 1})
    assert degree_of(st, DELTA) == 2


def test_stratum_class_wrong_model():
    with pytest.raises(WrongModel):
        stratum_class(Partition((2, 1)), P2)


def test_stratum_classes_form_basis():
    for n in range(9):
        classes = [stratum_class(p) for p in partitions_of(n)]
        monos = set()
        for st, p in zip(classes, partitions_of(n)):
            (mono, coeff), = st.terms.items()
            assert coeff == Fraction(1, multiplicity_factorial(p))
            assert mono.level == n
            assert mono.degree(DELTA) == 2 * p.drop
            monos.add(mono)
        assert len(monos) == len(partitions_of(n)) == level_dim(DELTA, n)


def test_degree_of():
    assert degree_of(VAC, DELTA) == 0
    st = Create(3, 0).apply(VAC, DELTA)
    assert degree_of(st, DELTA) == 4
    mixed = st + Create(1, 0).apply(Create(2, 0).apply(VAC, DELTA), DELTA)
    assert degree_of(mixed, DELTA) is MIXED


def test_degree_of_hodge():
    # K3: class index 1 is the (0,2) class; create at mode k shifts by k-1
    st = Create(3, 1).apply(VAC, K3)
    assert K3.class_bidegrees[1] == (0, 2)
    assert degree_of(st, K3, hodge=True) == (2, 4)
    st2 = Create(2, 0).apply(VAC, K3)
    assert degree_of(st2, K3, hodge=True) == (1, 1)
    assert degree_of(st + st2, K3, hodge=True) is MIXED


def test_fock_state_arithmetic():
    a = Create(1, 0).apply(VAC, DELTA)
    b = Create(2, 0).apply(VAC, DELTA)
    assert (a + b) - b == a
    assert a.scale(0).is_zero()
    assert (a + a) == a.scale(2)


# Definitional reference operators, written from the conventions in the
# module docstring and sharing no code with Create/Annihilate.apply.  Each
# returns the terms of the result: validated monomials, zeros dropped.
def ref_create(mode, cls, state, model):
    """Put the factor on the left and bubble it into place; each swap of
    two odd factors flips the sign, and a repeated odd factor kills."""
    odd = [model.class_degree(c) % 2
           for c in range(len(model.ordinary_degrees))]
    out = {}
    for mono, coeff in state.terms.items():
        factors = [(mode, cls)] + list(mono.factors)
        if odd[cls] and factors.count((mode, cls)) > 1:
            continue
        for i in range(len(factors)):
            for j in range(len(factors) - 1 - i):
                if factors[j] > factors[j + 1]:
                    if odd[factors[j][1]] and odd[factors[j + 1][1]]:
                        coeff = -coeff
                    factors[j], factors[j + 1] = factors[j + 1], factors[j]
        key = FockMonomial(factors)
        out[key] = out[key] + coeff if key in out else coeff
    return {m: c for m, c in out.items() if c}


def ref_annihilate(mode, cls, state, model):
    """Contract each factor of the mode in turn, through pairing_value,
    with the Koszul sign of the odd factors to its left."""
    odd_op = model.compact_class_degree(cls) % 2
    out = {}
    for mono, coeff in state.terms.items():
        for s, (m, c) in enumerate(mono.factors):
            if m != mode:
                continue
            left_odd = sum(model.class_degree(a) % 2
                           for _, a in mono.factors[:s])
            sign = (-1) ** left_odd if odd_op else 1
            value = (sign * (-1) ** (mode - 1) * mode
                     * model.pairing_value(c, cls) * coeff)
            key = FockMonomial(mono.factors[:s] + mono.factors[s + 1:])
            out[key] = out[key] + value if key in out else value
    return {m: c for m, c in out.items() if c}


def assert_well_formed(state):
    for mono, coeff in state.terms.items():
        assert type(coeff) in (int, Fraction) and coeff != 0
        assert list(mono.factors) == sorted(mono.factors)
        assert all(type(m) is type(c) is int and m >= 1
                   for m, c in mono.factors)
    # the internal key dict, and the .terms view rebuilding it one-to-one
    keys = state._terms
    for factors, coeff in keys.items():
        assert type(factors) is tuple and list(factors) == sorted(factors)
        assert all(type(pair) is tuple and len(pair) == 2
                   and type(pair[0]) is type(pair[1]) is int and pair[0] >= 1
                   for pair in factors)
        assert type(coeff) in (int, Fraction) and coeff != 0
    view = state.terms
    assert all(type(mono) is FockMonomial for mono in view)
    assert len(view) == len(keys)
    assert {mono.factors: c for mono, c in view.items()} == keys


def operators_of(model, max_mode=4):
    for mode in range(1, max_mode + 1):
        for cls in range(len(model.ordinary_degrees)):
            yield Create(mode, cls), ref_create
        for cls in range(len(model.compact_degrees)):
            yield Annihilate(mode, cls), ref_annihilate


# (model, top level): K3 is the heaviest preset, DELTA the deepest cheap one
BASIS_LEVELS = ((P2, 3), (P1XP1, 3), (ABELIAN, 3), (K3, 2), (DELTA, 6))


@pytest.mark.parametrize("model, top", BASIS_LEVELS,
                         ids=[model.name for model, _ in BASIS_LEVELS])
def test_operators_match_reference_on_every_basis_monomial(model, top):
    basis = [FockState({mono: 1}) for level in range(top + 1)
             for mono in enumerate_monomials(model, level)]
    ops = list(operators_of(model))
    assert len(ops) == 4 * (len(model.ordinary_degrees)
                            + len(model.compact_degrees))
    for op, ref in ops:
        for st in basis:
            got = op.apply(st, model)
            assert got.terms == ref(op.mode, op.cls, st, model), (op, st)
            assert_well_formed(got)


@pytest.mark.parametrize("model", (P2, P1XP1, ABELIAN), ids=lambda m: m.name)
def test_operators_match_reference_on_random_states(model):
    rng = random.Random(17)
    for _ in range(40):
        st = random_state(model, rng.randint(0, 5), rng, n_terms=4)
        st = st + random_state(model, rng.randint(0, 5), rng).scale(
            Fraction(rng.choice([-7, 2, 5]), rng.choice([1, 3, 4])))
        for op, ref in operators_of(model):
            got = op.apply(st, model)
            assert got.terms == ref(op.mode, op.cls, st, model), (op, st)
            assert_well_formed(got)
        assert_well_formed(st)


# a skew, non-integral pairing on the degree-2 classes 1, 2: two factors
# contract against one compact class, and weights are proper fractions
SKEW = SurfaceModel("skew", (1, 0, 2, 0, 1), pairing=(
    ((1,),), (), ((1, Fraction(1, 2)), (1, 3)), (), ((1,),)))


def test_operators_match_reference_with_skew_pairing():
    rng = random.Random(29)
    for _ in range(30):
        st = random_state(SKEW, rng.randint(0, 5), rng, n_terms=6)
        for op, ref in operators_of(SKEW):
            got = op.apply(st, SKEW)
            assert got.terms == ref(op.mode, op.cls, st, SKEW), (op, st)
            assert_well_formed(got)


def test_contractions_that_cancel_leave_no_term():
    st = FockState({FockMonomial(((1, 1), (2, 0))): 1,
                    FockMonomial(((1, 2), (2, 0))): -1})
    assert Annihilate(1, 1).apply(st, SKEW).is_zero()
    got = Annihilate(1, 2).apply(st, SKEW)
    assert got.terms == {FockMonomial(((2, 0),)): Fraction(-5, 2)}
    assert_well_formed(got)


def test_state_arithmetic_keeps_fractions_and_drops_zeros():
    rng = random.Random(23)
    for _ in range(30):
        a = random_state(ABELIAN, 3, rng)
        b = random_state(ABELIAN, 3, rng)
        for st in (a + b, a - b, a.scale(Fraction(-2, 3)), a.scale(3)):
            assert_well_formed(st)
        assert (a - a).terms == {} and a.scale(0).terms == {}
        assert (a + b) - b == a


def test_public_monomial_constructor_still_validates():
    with pytest.raises(ValueError):
        FockMonomial(((1, 1), (1, 0)))
    with pytest.raises(ValueError):
        FockMonomial(((3, 0), (2, 4)))
    with pytest.raises(ModeNonPositive):
        FockMonomial(((0, 2),))
    with pytest.raises(ModeNonPositive):
        FockMonomial(((-1, 0), (2, 0)))
    with pytest.raises(UnknownClass):
        FockMonomial(((1, -1),))
    assert FockState({((1, 0),): 2}).terms == {
        FockMonomial(((1, 0),)): Fraction(2)}


def test_commutator_builds_no_validated_monomial(monkeypatch):
    rng = random.Random(31)
    states = [random_state(ABELIAN, 4, rng) for _ in range(5)]
    calls = []
    real = FockMonomial.__init__

    def counting(self, factors):
        calls.append(factors)
        real(self, factors)

    monkeypatch.setattr(FockMonomial, "__init__", counting)
    for st in states:
        for k in (1, 2, 3):
            got = commutator(Annihilate(k, 11), Create(k, 1), st, ABELIAN)
            assert got == st.scale((-1) ** (k - 1) * k)
            assert commutator(Create(k, 2), Create(1, 3), st,
                              ABELIAN).is_zero()
    assert calls == []


def test_fock_request_makes_one_packed_pass(monkeypatch, capsys):
    # the digits are checked against the closed form, not a plain pass
    passes = []
    real = heisenberg.super_power_table

    def counting(gens, order):
        gens = list(gens)
        passes.append((order, all(k == 0 for k, _, _ in gens)))
        return real(gens, order)

    monkeypatch.setattr(heisenberg, "super_power_table", counting)
    assert main(["fock", "--surface", "abelian", "--order", "12"]) == 0
    assert passes == [(12, False)]
    assert len(capsys.readouterr().out.splitlines()) == 14
    assert [level_dim(ABELIAN, n) for n in (0, 1, 12)] == [1, 16, 155341248]
    assert passes == [(12, False)]  # level_dim steps nothing


def test_monomial_hash_is_the_hash_of_its_factors():
    factors = ((1, 0), (2, 3), (2, 5))
    checked = FockMonomial(factors)
    trusted = FockMonomial._make(factors)
    assert hash(checked) == hash(trusted) == hash(factors)
    assert {checked: 1}[trusted] == 1
    with pytest.raises(AttributeError):
        checked._hash = 0


def test_integer_relations_stay_on_ints():
    n_ord, n_com = len(ABELIAN.ordinary_degrees), len(ABELIAN.compact_degrees)
    for mono in enumerate_monomials(ABELIAN, 2):
        st = FockState({mono: 1})
        assert type(st.terms[mono]) is int
        for k in (1, 2, 3):
            for a in range(n_ord):
                for b in range(n_com):
                    got = commutator(Annihilate(k, b), Create(k, a), st,
                                     ABELIAN)
                    assert all(type(c) is int for c in got.terms.values())
                    pairing = ABELIAN.pairing_value(a, b)
                    assert got == st.scale((-1) ** (k - 1) * k * pairing)
    assert type(VAC.terms[FockMonomial(())]) is int


def test_coefficients_are_normalised_and_floats_refused():
    mono = FockMonomial(((1, 0),))
    one = FockState({mono: Fraction(4, 4)})
    assert type(one.terms[mono]) is int
    assert FockState({mono: Fraction(1, 2)}).scale(Fraction(6, 3)) == one
    with pytest.raises(TypeError):
        FockState({mono: 0.5})
    with pytest.raises(TypeError):
        one.scale(2.0)


def composed_commutator(op1, op2, st, model):
    """op1 op2 - (-1)^(|op1||op2|) op2 op1 from two compositions, + and
    scale."""
    sign = (-1) ** (op1.parity(model) * op2.parity(model))
    return (op1.apply(op2.apply(st, model), model)
            + op2.apply(op1.apply(st, model), model).scale(-sign))


@pytest.mark.parametrize("model", PRESETS + (SKEW,), ids=lambda m: m.name)
def test_commutator_equals_its_two_compositions(model):
    rng = random.Random(53)
    ops = [op for op, _ in operators_of(model, max_mode=3)] + [Central()]
    cancelled = 0
    for level in range(1, 5):
        for _ in range(3):
            st = random_state(model, level, rng, n_terms=4)
            pairs = [(rng.choice(ops), rng.choice(ops)) for _ in range(40)]
            # creators supercommute: every term of these pairs cancels
            last = len(model.ordinary_degrees) - 1
            pairs += [(Create(1, 0), Create(level, last)), (ops[0], ops[0])]
            for op1, op2 in pairs:
                got = commutator(op1, op2, st, model)
                assert got.terms == composed_commutator(op1, op2, st,
                                                        model).terms
                assert_well_formed(got)
                if not op1.apply(op2.apply(st, model), model).is_zero():
                    cancelled += got.terms == {}
    assert cancelled >= 4


@pytest.mark.parametrize("model", PRESETS + (SKEW,), ids=lambda m: m.name)
def test_trusted_monomials_equal_checked_ones(model):
    rng = random.Random(59)
    for level in range(1, 5):
        st = random_state(model, level, rng, n_terms=4)
        for op, _ in operators_of(model, max_mode=level):
            for mono, coeff in op.apply(st, model).terms.items():
                checked = FockMonomial(mono.factors)
                assert type(mono) is FockMonomial
                assert mono == checked and checked == mono
                assert hash(mono) == hash(checked)
                assert {checked: coeff}[mono] == coeff


def test_non_integral_fock_indices_are_refused():
    with pytest.raises(TypeError):
        FockMonomial(((1.5, 0),))
    with pytest.raises(TypeError):
        FockMonomial(((2, Fraction(1)),))
    with pytest.raises(TypeError):
        Create(2.7, 0)
    with pytest.raises(TypeError):
        Annihilate(1, 0.5)
    with pytest.raises(TypeError):
        FockState({((1, 0),): 1, ((1.5, 0),): -1})
    with pytest.raises(ModeNonPositive):
        Annihilate(0, 0)
    assert Create(True, 0).mode == 1 and type(Create(True, 0).mode) is int


def test_commutator_applies_four_times_and_builds_no_monomial(monkeypatch):
    st = FockState({((1, 0), (1, 5)): Fraction(3, 2)})
    counts = {"apply": 0, "_make": 0, "__init__": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for cls in (Create, Annihilate):
        monkeypatch.setattr(cls, "apply", counted("apply", cls.apply))
    monkeypatch.setattr(FockMonomial, "_make", classmethod(
        counted("_make", FockMonomial._make.__func__)))
    monkeypatch.setattr(FockMonomial, "__init__",
                        counted("__init__", FockMonomial.__init__))
    got = commutator(Annihilate(1, 23), Create(1, 0), st, K3)
    assert counts == {"apply": 4, "_make": 0, "__init__": 0}
    zero = commutator(Annihilate(2, 23), Create(1, 0), st, K3)
    assert counts == {"apply": 8, "_make": 0, "__init__": 0}
    monkeypatch.undo()
    assert got.terms == {FockMonomial(((1, 0), (1, 5))): Fraction(3, 2)}
    assert all(type(mono) is FockMonomial for mono in got.terms)
    assert zero.terms == {} and repr(got) == "3/2*a1[0]a1[5]"
    assert_well_formed(got)


def test_warm_operators_call_no_surface_model_method(monkeypatch):
    # (model, mode, created class, annihilated class, parity, <a, b>)
    cases = ((K3, 1, 5, 5, 0, 1), (ABELIAN, 2, 1, 11, 1, 1))
    states = {K3: FockState({((1, 0), (1, 5), (2, 7)): Fraction(3, 2),
                             ((1, 5), (1, 5)): -1}),
              ABELIAN: FockState({((1, 2), (2, 1), (2, 3)): 2,
                                  ((1, 0), (2, 1)): Fraction(-1, 3)})}
    for model, k, a, b, _, pair in cases:
        st = states[model]
        got = commutator(Annihilate(k, b), Create(k, a), st, model)
        assert got == st.scale((-1) ** (k - 1) * k * pair)

    def refused(*args):
        raise AssertionError("a warm operator called the model")

    for name in ("class_degree", "compact_class_degree", "pairing_value"):
        monkeypatch.setattr(SurfaceModel, name, refused)
    for model, k, a, b, parity, pair in cases:
        st, scalar = states[model], (-1) ** (k - 1) * k * pair
        create, annihilate = Create(k, a), Annihilate(k, b)
        assert commutator(annihilate, create, st, model) == st.scale(scalar)
        assert create.parity(model) == annihilate.parity(model) == parity
        assert type(create.parity(model)) is int
        once = Annihilate(k, b).apply(Create(k, a).apply(VAC, model), model)
        assert once == VAC.scale(scalar)
        for _ in range(2):  # a failed lookup is not cached
            with pytest.raises(UnknownClass):
                Create(k, len(model.ordinary_degrees)).parity(model)
            with pytest.raises(UnknownClass):
                Annihilate(k, -1).apply(st, model)


def test_cold_operators_call_no_surface_model_method(monkeypatch):
    # fresh models: nothing keyed by them can be warm
    abelian = SurfaceModel("abelian-cold", ABELIAN.betti,
                           hodge=dict(ABELIAN.hodge))
    skew = SurfaceModel("skew-cold", SKEW.betti, pairing=SKEW.pairing)
    # (model, mode, created class, annihilated class, parity, <a, b>)
    cases = ((abelian, 2, 1, 11, 1, 1), (skew, 2, 1, 2, 0, Fraction(1, 2)))
    st = FockState({((1, 0), (1, 1), (2, 3)): Fraction(3, 2),
                    ((1, 2), (2, 0)): -1})

    def refused(*args):
        raise AssertionError("an operator called the model")

    for name in ("__hash__", "__eq__", "class_degree", "compact_class_degree",
                 "pairing_value"):
        monkeypatch.setattr(SurfaceModel, name, refused)
    for model, k, a, b, parity, pair in cases:
        create, annihilate = Create(k, a), Annihilate(k, b)
        n_ord = len(model.ordinary_degrees)
        got = commutator(annihilate, create, st, model)
        assert got == st.scale((-1) ** (k - 1) * k * pair)
        assert commutator(Create(1, 0), create, st, model).is_zero()
        assert create.parity(model) == annihilate.parity(model) == parity
        with pytest.raises(UnknownClass, match="outside 0..%d" % (n_ord - 1)):
            Create(k, n_ord).parity(model)
        with pytest.raises(UnknownClass):
            Annihilate(k, -1).apply(st, model)


def test_contraction_skips_a_class_foreign_to_the_model():
    # the pairing columns hold only the nonzero entries, so a factor whose
    # class the model does not have contracts to nothing
    assert Annihilate(1, 0).apply(FockState({((1, 5),): 1}), P2).is_zero()


def test_integral_results_are_stored_as_ints():
    m = ((1, 0),)
    st = FockState({m: Fraction(1, 2)})
    for got in (st.scale(2), st + st, FockState({m: Fraction(3, 2)}) - st,
                commutator(Annihilate(2, 2), Create(2, 0), st, P2)):
        assert [type(c) for c in got.terms.values()] == [int], got


def test_odd_operator_reading_a_foreign_class_raises_unknown_class():
    # a FockState is not tied to a model: an odd operator that reads the
    # parity of a factor the model lacks refuses it, an even one passes it
    st = FockState({((1, 20), (2, 0)): 1})
    for op in (Annihilate(2, 12), Create(2, 1)):  # odd, right of (1, 20)
        assert op.parity(ABELIAN) == 1
        with pytest.raises(UnknownClass, match="class index 20 outside 0..15"):
            op.apply(st, ABELIAN)
    assert Create(2, 0).apply(st, ABELIAN).terms == {
        FockMonomial(((1, 20), (2, 0), (2, 0))): 1}
    assert Annihilate(2, 15).apply(st, ABELIAN).terms == {
        FockMonomial(((1, 20),)): -2}
    # an odd factor inserted left of the foreign one reads no parity of it
    assert Create(1, 1).apply(st, ABELIAN).terms == {
        FockMonomial(((1, 1), (1, 20), (2, 0))): 1}


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_every_operator_maps_the_zero_state_to_zero(model):
    zero = FockState.zero()
    for op, _ in operators_of(model):
        assert op.apply(zero, model).is_zero(), op
    assert Central().apply(zero, model).is_zero()
    # the class check comes before the zero state is handed back
    n_ord, n_comp = len(model.ordinary_degrees), len(model.compact_degrees)
    for op in (Create(1, n_ord), Create(2, -1), Annihilate(1, n_comp),
               Annihilate(3, -1)):
        with pytest.raises(UnknownClass, match="outside 0.."):
            op.apply(zero, model)
