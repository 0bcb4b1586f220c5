"""
The two Hodge routes: hilbert_hodge_table is the Goettsche-Soergel product
and strata_hodge_table the strata convolution of bigraded symmetric powers.
They must agree in full bigrading, each row must have the Hodge symmetries
of a compact Kaehler manifold of dimension 2n, and neither route may reach
the other's code.
"""

import pytest

from hilbfock import goettsche, product, series
from hilbfock.goettsche import strata_hodge_table
from hilbfock.product import hilbert_hodge_table
from hilbfock.selfcheck import HODGE_PRESETS
from hilbfock.surfaces import DELTA, MissingHodgeData

ORDER = 12


@pytest.mark.parametrize("model", HODGE_PRESETS, ids=lambda m: m.name)
def test_product_equals_strata_in_full_bigrading(model):
    assert list(hilbert_hodge_table(model, ORDER)) == list(
        strata_hodge_table(model, ORDER))


@pytest.mark.parametrize("model", HODGE_PRESETS, ids=lambda m: m.name)
def test_rows_have_complex_conjugation_and_serre_symmetry(model):
    for n, row in enumerate(hilbert_hodge_table(model, ORDER)):
        terms = row.terms
        assert terms
        for (p, q), h in terms.items():
            assert terms.get((q, p)) == h, (n, p, q)
            assert terms.get((2 * n - p, 2 * n - q)) == h, (n, p, q)


def shared(*args, **kwargs):
    raise AssertionError("one Hodge route reached the other's code")


@pytest.mark.parametrize("model", HODGE_PRESETS, ids=lambda m: m.name)
def test_the_routes_share_no_code(monkeypatch, reset_caches, model):
    want = strata_hodge_table(model, 8)
    reset_caches()
    with monkeypatch.context() as m:
        for name in ("_strata_sums", "hodge_sym_table"):
            m.setattr(goettsche, name, shared)
        # goettsche reads the stepping kernel from series at call time
        m.setattr(series, "super_power_table", shared)
        assert hilbert_hodge_table(model, 8) == want
    reset_caches()
    monkeypatch.setattr(product, "product_table", shared)
    assert strata_hodge_table(model, 8) == want


@pytest.mark.parametrize("route", (hilbert_hodge_table, strata_hodge_table))
def test_a_model_without_hodge_data_raises(route):
    with pytest.raises(MissingHodgeData):
        route(DELTA, 2)
