"""
Cross-identity battery: every identity the library asserts between two
independently computed quantities, run over the shipped presets up to a
given order.  Each check returns (ok, detail), run_all names the rows,
and the CLI turns the battery into a pass/fail table.
"""

import random
from collections import Counter
from fractions import Fraction

from . import heisenberg
from .partitions import partitions_of
from .series import CoeffPoly
from .surfaces import ABELIAN, DELTA, K3, P2, P1XP1

ALL_PRESETS = (DELTA, P2, P1XP1, K3, ABELIAN)
HODGE_PRESETS = (P2, P1XP1, K3, ABELIAN)
EULER_RANGE = range(-10, 31)
MAX_MODE = 5  # the largest Heisenberg mode of the random relation battery


def _compare(models, order, lhs, rhs, names):
    """
    (ok, detail) of two routes: lhs(s, order) and rhs(s, order) give rows
    0..order for every s in models (surfaces or a range of Euler numbers);
    names = (row symbol, lhs route, rhs route).  The detail names the first
    row where they disagree, or the bound they agree to.
    """
    row, left, right = names
    for s in models:
        label = s.name if hasattr(s, "name") else "e=%d" % s
        for n, (a, b) in enumerate(zip(lhs(s, order), rhs(s, order),
                                       strict=True)):
            if a != b:
                return False, "%s %s=%d: %s %s vs %s %s" % (
                    label, row, n, left, a, right, b)
    scope = ("e in %d..%d" % (models[0], models[-1])
             if isinstance(models, range) else "%d presets" % len(models))
    return True, "%s, %s <= %d" % (scope, row, order)


def _product_rows(s, order):
    from .goettsche import hilbert_poincare_series
    return hilbert_poincare_series(s, order).coeffs


def check_goettsche(order):
    from .goettsche import strata_poincare_table
    return _compare(ALL_PRESETS, order, _product_rows, strata_poincare_table,
                    ("n", "product", "strata"))


def check_fock_character(order):
    return _compare(
        ALL_PRESETS, order,
        lambda s, n: heisenberg.graded_character(s, n).coeffs, _product_rows,
        ("n", "character", "product"))


def check_sym_routes(order):
    from .goettsche import sym_poincare_product, sym_poincare_table
    return _compare(
        ALL_PRESETS, order, sym_poincare_table,
        lambda s, n: [sym_poincare_product(s, m) for m in range(n + 1)],
        ("m", "stepping", "product"))


def check_commutators(trials, seed, models):
    rng = random.Random(seed)
    for s in models:
        n_ord = len(s.ordinary_degrees)
        n_com = len(s.compact_degrees)
        for _ in range(trials):
            st = heisenberg.random_state(s, rng.randint(1, 5), rng)
            k = rng.randint(1, MAX_MODE)
            l = rng.randint(1, MAX_MODE)
            a1, a2 = rng.randrange(n_ord), rng.randrange(n_ord)
            b1, b2 = rng.randrange(n_com), rng.randrange(n_com)
            cc = heisenberg.commutator(heisenberg.Create(k, a1),
                                       heisenberg.Create(l, a2), st, s)
            if not cc.is_zero():
                return False, "%s: [create,create] != 0" % s.name
            aa = heisenberg.commutator(heisenberg.Annihilate(k, b1),
                                       heisenberg.Annihilate(l, b2), st, s)
            if not aa.is_zero():
                return False, "%s: [annihilate,annihilate] != 0" % s.name
            mixed = heisenberg.commutator(heisenberg.Annihilate(k, b1),
                                          heisenberg.Create(l, a1), st, s)
            if k == l:
                factor = Fraction((-1) ** (k - 1) * k) * s.pairing_value(a1, b1)
                expect = st.scale(factor)
            else:
                expect = heisenberg.FockState.zero()
            if mixed != expect:
                return False, "%s: mixed relation failed at k=%d l=%d" % (
                    s.name, k, l)
    return True, "%d random checks per preset" % trials


def check_local_stalks(order):
    from .stratification import local_fiber_check
    for n in range(1, order + 1):
        for nu in partitions_of(n):
            if not local_fiber_check(nu):
                return False, "stalk identity failed at %r" % (nu,)
    return True, "all strata, n <= %d" % order


def check_punctual(order):
    from .goettsche import punctual_poincare
    for n in range(1, order + 1):
        poly = punctual_poincare(n)
        drops = Counter(p.drop for p in partitions_of(n))
        listed = CoeffPoly({(2 * d,): c for d, c in drops.items()})
        if poly != listed:
            return False, "n=%d: by length %s vs listed partitions %s" % (
                n, poly, listed)
        top = 2 * (n - 1)
        if poly.coefficient((top,)) != 1:
            return False, "top coefficient at n=%d is %s" % (
                n, poly.coefficient((top,)))
        if poly.total_degree() > top:
            return False, "degree above 2(n-1) at n=%d" % n
    return True, "n <= %d" % order


def check_euler(order):
    from .goettsche import hilbert_euler_table, orbifold_euler_table
    return _compare(EULER_RANGE, order, hilbert_euler_table,
                    orbifold_euler_table, ("n", "product", "orbifold"))


def check_ktheory(order):
    from .goettsche import equivariant_k_table
    return _compare(
        ALL_PRESETS, order, equivariant_k_table,
        lambda s, n: [c.specialize({"t": 1}).constant_value()
                      for c in _product_rows(s, n)],
        ("n", "K-dim", "total Betti"))


def check_hodge(order):
    from .goettsche import hilbert_hodge_table, strata_poincare_table
    return _compare(
        HODGE_PRESETS, order,
        lambda s, n: [h.specialize({"x": "t", "y": "t"})
                      for h in hilbert_hodge_table(s, n)],
        strata_poincare_table, ("n", "collapsed", "strata"))


def check_adhm(order):
    from . import adhm
    for n in range(1, order + 1):
        for mu in partitions_of(n):
            tr = adhm.from_monomial_ideal(mu)
            if not adhm.is_commuting(tr):
                return False, "%r triple does not commute" % (mu,)
            if not adhm.is_stable(tr):
                return False, "%r triple is not stable" % (mu,)
            traces = adhm.trace_table(tr, n)
            cycle = adhm.support_cycle(tr, traces)
            if cycle.points != {(adhm.ZERO, adhm.ZERO): n}:
                return False, "%r not supported at the origin" % (mu,)
            if not adhm.in_bidisk(tr, cycle):
                return False, "%r not in the bidisk" % (mu,)
            for (k, l), val in traces.items():
                want = adhm.GaussianRational(n if k == l == 0 else 0)
                if val != want:
                    return False, "%r invariant (%d,%d) = %r" % (
                        mu, k, l, val)
    return True, "monomial triples, n <= %d" % order


def check_leray(order):
    from .stratification import global_degeneration_check
    for s in ALL_PRESETS:
        for n in range(order + 1):
            if not global_degeneration_check(s, n):
                return False, "%s n=%d" % (s.name, n)
    return True, "%d presets, n <= %d" % (len(ALL_PRESETS), order)


def run_all(order, seed=0):
    """
    Run the whole battery; returns a list of (name, ok, detail).  Each row
    is (name, check, its arguments), so every bound derived from `order`
    is here.
    """
    battery = [
        ("goettsche_product_vs_strata", check_goettsche, order),
        ("fock_character_vs_product", check_fock_character, order),
        ("sym_two_routes", check_sym_routes, order),
        ("heisenberg_commutators", check_commutators, 50, seed, ALL_PRESETS),
        ("local_stalk_identity", check_local_stalks, order),
        ("punctual_top_betti", check_punctual, max(order, 12)),
        ("euler_product_vs_orbifold", check_euler, min(order, 10)),
        ("ktheory_vs_total_betti", check_ktheory, order),
        ("hodge_specialization", check_hodge, min(order, 6)),
        ("adhm_monomial_triples", check_adhm, min(order, 8)),
        ("leray_regrouping", check_leray, order),
    ]
    return [(name, *check(*args)) for name, check, *args in battery]
