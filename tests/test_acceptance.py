"""
Acceptance battery: one test per criterion, each exact, each printing a
single pass/fail line (run with -s to see them on success).
"""

import random
from fractions import Fraction

from hilbfock import matrices
from hilbfock.adhm import (MatrixTriple, from_monomial_ideal, in_bidisk,
                           is_commuting, is_stable, support_cycle,
                           trace_invariant, trace_table)
from hilbfock.counts import equivariant_k_dim, hilbert_euler, punctual_poincare
from hilbfock.goettsche import hilbert_poincare_from_strata
from hilbfock.heisenberg import (Annihilate, Create, FockState, commutator,
                                 graded_character, random_state)
from hilbfock.linalg import GaussianRational as G
from hilbfock.product import hilbert_hodge, hilbert_poincare_series
from hilbfock.partitions import partitions_of
from hilbfock.poly import CoeffPoly
from hilbfock.stratification import (global_degeneration_check,
                                     local_fiber_check)
from hilbfock.surfaces import ABELIAN, DELTA, K3, P2, P1XP1

PRESETS = (DELTA, P2, P1XP1, K3, ABELIAN)


def report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print("[%s] criterion %d: %s" % (status, num, name))
    assert not failures, "criterion %d: %s" % (num, "; ".join(failures))


def test_criterion_01_goettsche_identity():
    failures = []
    for s in PRESETS:
        series = hilbert_poincare_series(s, 8)
        for n in range(9):
            if series.coeff(n) != hilbert_poincare_from_strata(s, n):
                failures.append("%s n=%d" % (s.name, n))
    report(1, "product expansion equals stratum decomposition "
           "(5 presets, n <= 8, exact)", failures)


def test_criterion_02_character_identity():
    failures = []
    for s in PRESETS:
        if graded_character(s, 8) != hilbert_poincare_series(s, 8):
            failures.append(s.name)
    report(2, "Fock character equals the product series "
           "(5 presets, n <= 8, exact)", failures)


def test_criterion_03_commutation_relations():
    failures = []
    rng = random.Random(20260809)
    for s in PRESETS:
        n_ord = len(s.ordinary_degrees)
        n_com = len(s.compact_degrees)
        for trial in range(200):
            st = random_state(s, rng.randint(1, 6), rng)
            k, l = rng.randint(1, 5), rng.randint(1, 5)
            a1, a2 = rng.randrange(n_ord), rng.randrange(n_ord)
            b1, b2 = rng.randrange(n_com), rng.randrange(n_com)
            if not commutator(Create(k, a1), Create(l, a2), st, s).is_zero():
                failures.append("%s create/create trial %d" % (s.name, trial))
            if not commutator(Annihilate(k, b1), Annihilate(l, b2), st,
                              s).is_zero():
                failures.append("%s annih/annih trial %d" % (s.name, trial))
            mixed = commutator(Annihilate(k, b1), Create(l, a1), st, s)
            if k == l:
                expect = st.scale(Fraction((-1) ** (k - 1) * k)
                                  * s.pairing_value(a1, b1))
            else:
                expect = FockState.zero()
            if mixed != expect:
                failures.append("%s mixed trial %d" % (s.name, trial))
            if failures:
                break
    report(3, "all three commutation relations on 200 random states per "
           "preset, modes <= 5, exact", failures)


def test_criterion_04_local_stalk_identity():
    failures = []
    for n in range(1, 11):
        for nu in partitions_of(n):
            if not local_fiber_check(nu):
                failures.append(repr(nu))
    report(4, "local stalk table equals the product of punctual "
           "polynomials (all strata, n <= 10, exact)", failures)


def test_criterion_05_punctual_betti():
    failures = []
    for n in range(1, 13):
        poly = punctual_poincare(n)
        if poly.coefficient((2 * (n - 1),)) != 1:
            failures.append("top coefficient n=%d" % n)
        if poly.total_degree() > 2 * (n - 1):
            failures.append("degree overflow n=%d" % n)
    if punctual_poincare(4) != CoeffPoly({(0,): 1, (2,): 1, (4,): 2, (6,): 1}):
        failures.append("n=4 value")
    report(5, "punctual fibers: top Betti number 1 at degree 2(n-1), "
           "nothing above (n <= 12); n=4 value reproduced", failures)


def orbifold_walk(e, n):
    """Sum over partitions of n of prod_i e(e+1)...(e+a_i-1) / a_i!."""
    total = 0
    for nu in partitions_of(n):
        term = Fraction(1)
        for a in nu.multiplicities:
            for j in range(a):
                term *= Fraction(e + j, j + 1)
        total += term
    return total


def test_criterion_06_euler_numbers():
    failures = []
    if [hilbert_euler(24, n) for n in (1, 2, 3)] != [24, 324, 3200]:
        failures.append("K3 values 24/324/3200")
    for e in range(-10, 31):
        for n in range(11):
            if hilbert_euler(e, n) != orbifold_walk(e, n):
                failures.append("e=%d n=%d" % (e, n))
    report(6, "Euler numbers: K3 checkpoints and product = orbifold sum "
           "for e in -10..30, n <= 10, exact", failures)


def test_criterion_07_ktheory_dimensions():
    failures = []
    for s in PRESETS:
        series = hilbert_poincare_series(s, 10)
        for n in range(11):
            total = series.coeff(n).specialize({"t": 1}).constant_value()
            if equivariant_k_dim(s, n) != total:
                failures.append("%s n=%d" % (s.name, n))
    report(7, "equivariant K-theory dimension equals the total Betti "
           "number (all presets, n <= 10, exact)", failures)


def test_criterion_08_hodge_decomposition():
    failures = []
    for s in (P2, K3, ABELIAN):
        for n in range(7):
            collapsed = hilbert_hodge(s, n).specialize({"x": "t", "y": "t"})
            if collapsed != hilbert_poincare_from_strata(s, n):
                failures.append("%s n=%d" % (s.name, n))
    diamond = hilbert_hodge(P2, 2)
    diag = [diamond.coefficient((k, k)) for k in range(5)]
    if diag != [1, 2, 3, 2, 1]:
        failures.append("P2 n=2 diagonal %r" % (diag,))
    report(8, "Hodge polynomials collapse to Poincare at x=y=t "
           "(P2, K3, abelian, n <= 6, exact); P2 n=2 diagonal (1,2,3,2,1)",
           failures)


def test_criterion_09_adhm_model():
    failures = []
    rng = random.Random(97)
    origin = (G(0), G(0))
    for n in range(1, 9):
        for mu in partitions_of(n):
            tr = from_monomial_ideal(mu)
            if not is_commuting(tr):
                failures.append("%r not commuting" % (mu,))
            if not is_stable(tr):
                failures.append("%r not stable" % (mu,))
            if support_cycle(tr).points != {origin: n}:
                failures.append("%r support" % (mu,))
            if not in_bidisk(tr):
                failures.append("%r bidisk" % (mu,))
            for (k, l), val in trace_table(tr, n).items():
                want = G(n) if (k, l) == (0, 0) else G(0)
                if val != want:
                    failures.append("%r invariant (%d,%d)" % (mu, k, l))

    def rand_invertible(size):
        while True:
            g = [[G(rng.randint(-2, 2), rng.randint(-1, 1))
                  for _ in range(size)] for _ in range(size)]
            try:
                matrices.invert(g)
                return g
            except ZeroDivisionError:
                continue

    # 100 random split diagonalizable commuting pairs: support power sums
    # must reproduce every trace invariant (support_cycle asserts it too)
    for trial in range(100):
        size = rng.choice((2, 3))
        xs = [G(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(size)]
        ys = [G(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(size)]
        da = [[xs[i] if i == j else G(0) for j in range(size)]
              for i in range(size)]
        db = [[ys[i] if i == j else G(0) for j in range(size)]
              for i in range(size)]
        tr = MatrixTriple(da, db, [G(1)] * size).conjugate_by(
            rand_invertible(size))
        cycle = support_cycle(tr)
        for (k, l), val in trace_table(tr, size).items():
            if cycle.power_sum(k, l) != val:
                failures.append("trace/support trial %d (%d,%d)"
                                % (trial, k, l))

    # 50 random conjugations leave the invariants unchanged
    base = MatrixTriple([[1, 1], [0, 2]], [[3, 1], [0, 4]], [1, 1])
    table = trace_table(base, 4)
    for trial in range(50):
        conj = base.conjugate_by(rand_invertible(2))
        if trace_table(conj, 4) != table:
            failures.append("conjugation trial %d" % trial)
    report(9, "monomial triples (n <= 8) commuting/stable/origin-supported/"
           "bidisk with vanishing invariants; trace-support identity on 100 "
           "random split pairs; invariance under 50 conjugations, exact",
           failures)


def test_criterion_10_leray_degeneration():
    failures = []
    for s in PRESETS:
        for n in range(9):
            if not global_degeneration_check(s, n):
                failures.append("%s n=%d" % (s.name, n))
    report(10, "regrouped stratum sum equals the decomposition polynomial "
           "(all presets, n <= 8, exact)", failures)
