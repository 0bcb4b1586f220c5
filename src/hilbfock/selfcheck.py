"""
Cross-identity battery: every identity the library asserts between two
independently computed quantities, run over the shipped presets up to a
given order.  Each check returns (name, ok, detail); the CLI turns the
battery into a pass/fail table.
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


def _first_difference(models, order, lhs, rhs, names):
    """
    The first row where two routes disagree, as a failure detail, or None.
    lhs(s, order) and rhs(s, order) give rows 0..order of each route for
    every s in models; names = (row symbol, lhs route, rhs route).
    """
    row, left, right = names
    for s in models:
        label = s.name if hasattr(s, "name") else "e=%d" % s
        for n, (a, b) in enumerate(zip(lhs(s, order), rhs(s, order),
                                       strict=True)):
            if a != b:
                return "%s %s=%d: %s %s vs %s %s" % (label, row, n, left, a,
                                                     right, b)
    return None


def _product_rows(s, order):
    from .goettsche import hilbert_poincare_series
    return hilbert_poincare_series(s, order).coeffs


def check_goettsche(order, models=ALL_PRESETS):
    from .goettsche import strata_poincare_table
    bad = _first_difference(models, order, _product_rows,
                            strata_poincare_table, ("n", "product", "strata"))
    return not bad, bad or "%d presets, n <= %d" % (len(models), order)


def check_fock_character(order, models=ALL_PRESETS):
    bad = _first_difference(
        models, order, lambda s, n: heisenberg.graded_character(s, n).coeffs,
        _product_rows, ("n", "character", "product"))
    return not bad, bad or "%d presets, n <= %d" % (len(models), order)


def check_sym_routes(order, models=ALL_PRESETS):
    from .goettsche import sym_poincare_product, sym_poincare_table
    bad = _first_difference(
        models, order, sym_poincare_table,
        lambda s, n: [sym_poincare_product(s, m) for m in range(n + 1)],
        ("m", "stepping", "product"))
    return not bad, bad or "%d presets, m <= %d" % (len(models), order)


def check_commutators(trials=50, seed=0, models=ALL_PRESETS, max_mode=5):
    rng = random.Random(seed)
    for s in models:
        n_ord = len(s.ordinary_degrees)
        n_com = len(s.compact_degrees)
        for _ in range(trials):
            st = heisenberg.random_state(s, rng.randint(1, 5), rng)
            k = rng.randint(1, max_mode)
            l = rng.randint(1, max_mode)
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


def check_euler(order, euler_range=range(-10, 31)):
    from .goettsche import hilbert_euler_table, orbifold_euler_table
    bad = _first_difference(euler_range, order, hilbert_euler_table,
                            orbifold_euler_table, ("n", "product", "orbifold"))
    return not bad, bad or "e in %d..%d, n <= %d" % (
        euler_range[0], euler_range[-1], order)


def check_ktheory(order, models=ALL_PRESETS):
    from .goettsche import equivariant_k_table
    bad = _first_difference(
        models, order, equivariant_k_table,
        lambda s, n: [c.specialize({"t": 1}).constant_value()
                      for c in _product_rows(s, n)],
        ("n", "K-dim", "total Betti"))
    return not bad, bad or "%d presets, n <= %d" % (len(models), order)


def check_hodge(order, models=HODGE_PRESETS):
    from .goettsche import hilbert_hodge_table, strata_poincare_table
    bad = _first_difference(
        models, order,
        lambda s, n: [h.specialize({"x": "t", "y": "t"})
                      for h in hilbert_hodge_table(s, n)],
        strata_poincare_table, ("n", "collapsed", "strata"))
    return not bad, bad or "%d presets, n <= %d" % (len(models), order)


def check_adhm(order):
    from . import adhm
    order = min(order, 8)
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


def check_leray(order, models=ALL_PRESETS):
    from .stratification import global_degeneration_check
    for s in models:
        for n in range(order + 1):
            if not global_degeneration_check(s, n):
                return False, "%s n=%d" % (s.name, n)
    return True, "%d presets, n <= %d" % (len(models), order)


def run_all(order, seed=0):
    """Run the whole battery; returns a list of (name, ok, detail)."""
    euler_order = min(order, 10)
    battery = [
        ("goettsche_product_vs_strata", lambda: check_goettsche(order)),
        ("fock_character_vs_product", lambda: check_fock_character(order)),
        ("sym_two_routes", lambda: check_sym_routes(order)),
        ("heisenberg_commutators", lambda: check_commutators(seed=seed)),
        ("local_stalk_identity", lambda: check_local_stalks(order)),
        ("punctual_top_betti", lambda: check_punctual(max(order, 12))),
        ("euler_product_vs_orbifold", lambda: check_euler(euler_order)),
        ("ktheory_vs_total_betti", lambda: check_ktheory(order)),
        ("hodge_specialization", lambda: check_hodge(min(order, 6))),
        ("adhm_monomial_triples", lambda: check_adhm(order)),
        ("leray_regrouping", lambda: check_leray(order)),
    ]
    results = []
    for name, fn in battery:
        ok, detail = fn()
        results.append((name, ok, detail))
    return results
