from fractions import Fraction

import pytest

from hilbfock._base import exact
from hilbfock.adhm import MatrixTriple, SupportCycle
from hilbfock.heisenberg import Annihilate, Create, FockMonomial, FockState
from hilbfock.linalg import ZERO, GaussianRational
from hilbfock.partitions import Partition, PartitionTuple
from hilbfock.series import CoeffPoly, FactorFamily, QTSeries
from hilbfock.stratification import StalkTable
from hilbfock.surfaces import P2

VALUES = (
    lambda: MatrixTriple(((0,),), ((0,),), (1,)),
    lambda: SupportCycle({(ZERO, ZERO): 1}),
    lambda: FockMonomial(((1, 0),)),
    FockState.vacuum,
    lambda: Create(1, 0),
    lambda: Annihilate(1, 0),
    lambda: GaussianRational(1, 2),
    lambda: Partition((2, 1)),
    lambda: PartitionTuple(Partition((2,)), (Partition((1, 1)),)),
    CoeffPoly.one,
    lambda: QTSeries.one(2),
    lambda: FactorFamily(1, 1, ((1, 0),)),
    lambda: StalkTable(Partition((2,)), (1, 1)),
    lambda: P2,
)


@pytest.mark.parametrize("make", VALUES,
                         ids=lambda make: type(make()).__name__)
def test_value_classes_are_immutable(make):
    value = make()
    name = type(value).__name__
    # the first slot declared along the MRO (operators inherit theirs)
    first = next(slot for klass in type(value).__mro__
                 for slot in vars(klass).get("__slots__", ()))
    before = getattr(value, first)
    with pytest.raises(AttributeError, match="%s is immutable" % name):
        setattr(value, first, None)
    with pytest.raises(AttributeError, match="%s is immutable" % name):
        value.extra = 1
    assert getattr(value, first) is before
    assert not hasattr(value, "__dict__")


def test_exact_normalises_rationals():
    assert exact(3) == 3
    assert type(exact(Fraction(6, 3))) is int
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        exact(0.5)


def test_exact_turns_bools_into_plain_ints():
    assert type(exact(True)) is int and exact(True) == 1
    assert type(exact(Fraction(True))) is int
    (c,) = CoeffPoly({(1,): True}).terms.values()
    assert type(c) is int and c == 1
    (c,) = FockState({((1, 0),): True}).terms.values()
    assert type(c) is int and c == 1
