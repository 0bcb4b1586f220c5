from fractions import Fraction

import pytest

from hilbfock.surfaces import ABELIAN, DELTA, K3, P2, P1XP1, SurfaceModel

PRESETS = (DELTA, P2, P1XP1, K3, ABELIAN)


def rebuild(model, **kwargs):
    hodge = dict(model.hodge) if model.hodge else None
    return SurfaceModel(model.name, model.betti, betti_c=model.betti_c,
                        hodge=hodge, **kwargs)


def identity_pairing(model):
    return tuple(tuple(tuple(int(i == j) for j in range(model.betti_c[4 - d]))
                       for i in range(model.betti[d]))
                 for d in range(5))


@pytest.mark.parametrize("model", PRESETS, ids=lambda m: m.name)
def test_rebuilt_model_is_equal_and_hashes_equal(model):
    for again in (rebuild(model),
                  rebuild(model, pairing=identity_pairing(model))):
        assert again is not model
        assert again == model and model == again
        assert hash(again) == hash(model)


def test_model_differing_only_in_pairing_is_unequal():
    ident = ((1,),)
    swapped = rebuild(P1XP1, pairing=(ident, (), ((0, 1), (1, 0)), (), ident))
    assert swapped != P1XP1 and P1XP1 != swapped
    assert swapped.betti == P1XP1.betti and swapped.hodge == P1XP1.hodge
    assert P2 != "p2"


def test_hash_slot_cannot_be_assigned():
    with pytest.raises(AttributeError):
        K3._hash = 0
    assert hash(K3) == hash(rebuild(K3))


def test_preset_pairing_blocks_are_ints():
    entries = [v for block in K3.pairing for row in block for v in row]
    assert len(entries) == 1 + 22 * 22 + 1
    assert all(type(v) is int for v in entries)
    assert type(K3.pairing_value(0, 0)) is int


def test_supplied_pairing_entries_are_normalised():
    skew = rebuild(P1XP1, pairing=(((1,),), (), (("1/2", 0), (0, 2.0)), (),
                                   ((1,),)))
    assert skew.pairing[2] == ((Fraction(1, 2), 0), (0, 2))
    assert [type(v) for v in skew.pairing[2][1]] == [int, int]


@pytest.mark.parametrize("pq", [(3, 3), (5, 0), (0, 5)])
def test_hodge_entry_above_degree_4_is_refused(pq):
    p, q = pq
    with pytest.raises(ValueError, match="bad hodge entry"):
        SurfaceModel("x", (1, 0, 1, 0, 1),
                     hodge={(0, 0): 1, (1, 1): 1, (2, 2): 1, (p, q): 5,
                            (q, p): 5})
