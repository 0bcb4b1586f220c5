"""
The library_session query pool.  Each query is a bundle of public API calls
that computes some identity by two routes and returns (agree, result):
`agree` says the routes gave the same answer, and `result` is digested and
compared with the digest recorded at the seed commit.

Queries overlap on purpose: the Goettsche series, the strata sums and the
symmetric-product polynomials are shared through the library's caches, so
the query that runs first pays for them.  No query touches adhm or linalg.

All calls go through the `hilbfock` package namespace at call time, so the
tracing wrappers see them.
"""

from fractions import Fraction

import hilbfock as hf
import hilbfock.selfcheck  # binds hf.selfcheck


def series_orders(model, orders):
    """hilbert_poincare_series at ascending orders; truncations must agree."""
    got = [hf.hilbert_poincare_series(model, n) for n in orders]
    top = got[-1]
    return all(top.truncate(n) == s for n, s in zip(orders, got)), top


def goettsche_vs_strata(model, order):
    series = hf.hilbert_poincare_series(model, order)
    strata = [hf.hilbert_poincare_from_strata(model, n)
              for n in range(order + 1)]
    return series.coeffs == tuple(strata), strata


def sym_routes(model, order):
    lhs = [hf.sym_poincare(model, m) for m in range(order + 1)]
    rhs = [hf.sym_poincare_product(model, m) for m in range(order + 1)]
    return lhs == rhs, lhs


def fock_vs_product(model, order):
    lhs = hf.graded_character(model, order)
    return lhs == hf.hilbert_poincare_series(model, order), lhs


def hodge_vs_poincare(model, order):
    hodge = [hf.hilbert_hodge(model, n) for n in range(order + 1)]
    collapsed = [h.specialize({"x": "t", "y": "t"}) for h in hodge]
    strata = [hf.hilbert_poincare_from_strata(model, n)
              for n in range(order + 1)]
    return collapsed == strata, hodge


def ktheory_vs_betti(model, order):
    series = hf.hilbert_poincare_series(model, order)
    dims = [hf.equivariant_k_dim(model, n) for n in range(order + 1)]
    betti = [c.specialize({"t": 1}).constant_value() for c in series.coeffs]
    return dims == betti, dims


def stalks(n):
    """Stalk tables over every stratum of n against the punctual product."""
    ok = True
    tables = []
    for nu in hf.partitions_of(n):
        table = hf.stalk_table(nu)
        rhs = hf.CoeffPoly.one()
        for part in nu:
            rhs = rhs * hf.punctual_poincare(part)
        ok = ok and table.poincare() == rhs and hf.local_fiber_check(nu)
        tables.append((nu, table.rows))
    return ok, tables


def leray(model, order):
    ok = all(hf.global_degeneration_check(model, n) for n in range(order + 1))
    return ok, [hf.hilbert_poincare_from_strata(model, n)
                for n in range(order + 1)]


def euler_routes(euler, order):
    lhs = [hf.hilbert_euler(euler, n) for n in range(order + 1)]
    rhs = [hf.orbifold_euler(euler, n) for n in range(order + 1)]
    return lhs == rhs, lhs


def fock_relations(model, level):
    """
    The mixed Heisenberg relation on every basis monomial of one level:
    [a_k(b), a_-k(a)] acts as (-1)^(k-1) k <a, b>, and creators commute.
    The basis size must match the closed count level_dim.
    """
    basis = hf.enumerate_monomials(model, level)
    ok = len(basis) == hf.level_dim(model, level)
    n_ord = len(model.ordinary_degrees)
    dual = [(a, b, model.pairing_value(a, b)) for a in range(n_ord)
            for b in range(len(model.compact_degrees))
            if model.pairing_value(a, b)]
    creators_commute = []
    for mono in basis:
        st = hf.FockState({mono: 1})
        for k in range(1, level + 1):
            for a, b, pair in dual:
                got = hf.commutator(hf.Annihilate(k, b), hf.Create(k, a),
                                    st, model)
                want = st.scale(Fraction((-1) ** (k - 1) * k) * pair)
                ok = ok and got == want
            creators = (hf.Create(k, 0), hf.Create(1, n_ord - 1))
            creators_commute.append(
                hf.commutator(*creators, st, model).is_zero())
    return ok and all(creators_commute), len(basis)


def selfcheck_battery(order):
    checks = [hf.selfcheck.check_sym_routes(order),
              hf.selfcheck.check_local_stalks(order),
              hf.selfcheck.check_punctual(order),
              hf.selfcheck.check_leray(order)]
    return all(ok for ok, _ in checks), [detail for _, detail in checks]


def _pool():
    p2, p1, k3, ab, delta = hf.P2, hf.P1XP1, hf.K3, hf.ABELIAN, hf.DELTA
    q = []

    def add(name, fn, *args):
        key = name + "(" + ",".join(
            a.name if isinstance(a, hf.SurfaceModel) else
            "-".join(map(str, a)) if isinstance(a, tuple) else str(a)
            for a in args) + ")"
        q.append((key, lambda: fn(*args)))

    for model, orders in ((p2, (10, 20, 30)), (k3, (10, 20, 30)),
                          (ab, (10, 20, 30)), (p1, (15, 25)),
                          (delta, (20, 40))):
        add("series", series_orders, model, orders)
    for model, order in ((p2, 14), (p1, 12), (k3, 12), (ab, 10),
                         (delta, 16)):
        add("goettsche", goettsche_vs_strata, model, order)
    for model, order in ((p2, 25), (p1, 25), (k3, 20), (ab, 20)):
        add("sym", sym_routes, model, order)
    for model, order in ((p2, 20), (k3, 20), (ab, 20), (delta, 30)):
        add("fock", fock_vs_product, model, order)
    for model, order in ((p2, 10), (p1, 8), (k3, 8), (ab, 6)):
        add("hodge", hodge_vs_poincare, model, order)
    for model, order in ((p2, 20), (k3, 16), (ab, 16), (delta, 25)):
        add("ktheory", ktheory_vs_betti, model, order)
    for n in (6, 8, 10, 12):
        add("stalks", stalks, n)
    for model, order in ((p2, 12), (k3, 10), (ab, 8)):
        add("leray", leray, model, order)
    for euler, order in ((3, 14), (24, 12), (0, 14), (-4, 12)):
        add("euler", euler_routes, euler, order)
    # Six runs of one uncached query of about the median cost: a plateau
    # that holds p50 steady whatever order the seed picks.
    for _ in range(6):
        add("euler", euler_routes, 2, 24)
    # abelian level 2 four times: with stalks(12) it makes a plateau of like,
    # uncached queries around p90, below the three heaviest queries.
    for model, level in ((p2, 4), (p1, 3), (ab, 2), (ab, 2), (ab, 2),
                         (ab, 2), (k3, 2), (delta, 6)):
        add("fock_relations", fock_relations, model, level)
    for order in (6, 8):
        add("selfcheck", selfcheck_battery, order)
    return q


QUERIES = _pool()
QUERY_FNS = dict(QUERIES)


def canon(obj):
    """A deterministic text form of a query result, for digesting."""
    if isinstance(obj, hf.QTSeries):
        return "[" + "; ".join(str(c) for c in obj.coeffs) + "]"
    if isinstance(obj, (list, tuple)):
        return "[" + "; ".join(canon(x) for x in obj) + "]"
    return str(obj)
