from fractions import Fraction

import pytest

from hilbfock.surface_file import parse_surface_file
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


# a non-integral pairing with a zero inside a block, which no column holds
SKEW = SurfaceModel("skew", (1, 0, 2, 0, 1), pairing=(
    ((1,),), (), ((1, Fraction(1, 2)), (0, 3)), (), ((1,),)))


def open_surface(tmp_path):
    cfg = tmp_path / "torus.surface"
    cfg.write_text("name=torus\nbetti=1,2,1,0,0\nbetti_c=0,0,1,2,1\n")
    return parse_surface_file(str(cfg))


def test_betti_c_defaults_to_the_reverse_of_betti(tmp_path):
    cfg = tmp_path / "dual.surface"
    cfg.write_text("name=torus\nbetti=1,2,1,0,0\n")
    model = parse_surface_file(str(cfg))
    assert model.betti_c == (0, 0, 1, 2, 1)
    assert model == open_surface(tmp_path)  # the explicit dual, same model
    assert SurfaceModel("delta", (1, 0, 0, 0, 0)) == DELTA


def pairing_oracle(model):
    """{(ordinary index, compact index): value}, nonzero entries only, read
    off the pairing blocks with the flat offsets of each degree."""
    out = {}
    for d, block in enumerate(model.pairing):
        rows, cols = sum(model.betti[:d]), sum(model.betti_c[:4 - d])
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                if v:
                    out[rows + i, cols + j] = v
    return out


@pytest.mark.parametrize("model", PRESETS + (SKEW, None),
                         ids=lambda m: m.name if m else "open-file")
def test_derived_fields_match_the_pairing_blocks(model, tmp_path):
    model = model or open_surface(tmp_path)
    n_ord, n_com = sum(model.betti), sum(model.betti_c)
    assert model.ordinary_parities == tuple(
        d % 2 for d in range(5) for _ in range(model.betti[d]))
    assert model.compact_parities == tuple(
        d % 2 for d in range(5) for _ in range(model.betti_c[d]))
    assert all(type(p) is int for p in model.ordinary_parities
               + model.compact_parities)
    want = pairing_oracle(model)
    assert [dict(col) for col in model.pairing_columns] == [
        {a: v for (a, c), v in want.items() if c == j} for j in range(n_com)]
    for a in range(n_ord):
        for c in range(n_com):
            assert model.pairing_value(a, c) == want.get((a, c), 0)
    for a, c in ((n_ord, 0), (-1, 0), (0, n_com), (0, -1)):
        with pytest.raises(IndexError):
            model.pairing_value(a, c)


def test_derived_fields_are_read_only():
    for name in ("ordinary_parities", "compact_parities", "pairing_columns"):
        with pytest.raises(AttributeError):
            setattr(K3, name, ())
        with pytest.raises(TypeError):
            getattr(K3, name)[0] = 1
    with pytest.raises(TypeError):
        K3.pairing_columns[0][23] = 2
    assert K3.pairing_value(23, 0) == 1 and K3 == rebuild(K3)
