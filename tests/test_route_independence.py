"""
Route independence: a fault in one kernel must fail a check, not pass it
because the check runs the faulty kernel too.  The digit totals of the
packed tables come in closed form, so a mis-stepped row fails its own
table; a fault in the shared decoder, series.unpack, shows only where the
two routes of an identity do not both decode through it.
"""

import pytest

from hilbfock import counts, goettsche, heisenberg, product, series
from hilbfock._base import IdentityFailed
from hilbfock.cli import main
from hilbfock.selfcheck import run_all
from hilbfock.series import CoeffPoly
from hilbfock.surfaces import K3

# the rows an unpack that swaps t^2 and t^4 fails: each compares a row
# decoded once with one decoded, re-packed and decoded again, or with a
# row in x, y that the swap does not touch
PROBE_FAILS = {"goettsche_product_vs_strata", "hodge_specialization",
               "leray_regrouping"}
# every row it passes, and why that row cannot see the swap
UNPACKS_NOTHING = "neither route decodes a packed row"
PROBE_PASSES = {
    "fock_character_vs_product": "both routes decode through series.unpack",
    "sym_two_routes": "both routes decode through series.unpack",
    "ktheory_vs_total_betti": "t = 1 collapses the swap",
    "heisenberg_commutators": UNPACKS_NOTHING,
    "local_stalk_identity": UNPACKS_NOTHING,
    "punctual_top_betti": UNPACKS_NOTHING,
    "euler_product_vs_orbifold": UNPACKS_NOTHING,
    "adhm_monomial_triples": UNPACKS_NOTHING,
}


def swap_t2_t4(real):
    """series.unpack with the t^2 and t^4 digits of a t-row swapped."""
    def swapped(value, bits, total, width=None, row=None):
        poly = real(value, bits, total, width, row)
        if width is not None:
            return poly
        terms = dict(poly.terms)
        t2, t4 = terms.pop((2,), 0), terms.pop((4,), 0)
        terms.update({e: c for e, c in (((2,), t4), ((4,), t2)) if c})
        return CoeffPoly._make(terms, 1)
    return swapped


def test_a_swapped_decoder_fails_exactly_the_independent_rows(
        monkeypatch, reset_caches):
    assert all(ok for _, ok, _ in run_all(8))
    reset_caches()
    with monkeypatch.context() as m:
        m.setattr(series, "unpack", swap_t2_t4(series.unpack))
        rows = run_all(8)
    reset_caches()
    assert {name for name, ok, _ in rows if not ok} == PROBE_FAILS
    assert {name for name, ok, _ in rows if ok} == set(PROBE_PASSES)
    assert all(ok for _, ok, _ in run_all(8))


def test_a_dropped_generator_fails_the_fock_request(monkeypatch, capsys):
    real = heisenberg.super_power_table

    def dropped(gens, order, *rest):
        return real(list(gens)[:-1], order, *rest)

    monkeypatch.setattr(heisenberg, "super_power_table", dropped)
    assert main(["fock", "--surface", "k3", "--order", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "do not sum to 1073720 in row 6" in err


def test_a_wrong_strata_term_fails_its_row(monkeypatch, reset_caches):
    real = goettsche._strata_sums

    def no_f2(term, order, *rest):
        return real(lambda a: 0 if a == 2 else term(a), order, *rest)

    monkeypatch.setattr(goettsche, "_strata_sums", no_f2)
    with pytest.raises(IdentityFailed, match="to 324 in row 2$"):
        goettsche.strata_poincare_table(K3, 6)


def refuse(*args, **kwargs):
    raise AssertionError("the strata tables built the K table")


def test_strata_tables_build_no_k_table(monkeypatch, reset_caches):
    monkeypatch.setattr(counts, "equivariant_k_table", refuse)
    poincare = goettsche.strata_poincare_table(K3, 12)
    hodge = goettsche.strata_hodge_table(K3, 8)
    assert poincare == list(product.hilbert_poincare_series(K3, 12).coeffs)
    assert hodge == product.hilbert_hodge_table(K3, 8)
