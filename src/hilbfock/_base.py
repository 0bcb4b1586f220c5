"""The frozen value base, the exact normaliser and IdentityFailed."""

from fractions import Fraction


class IdentityFailed(ArithmeticError):
    """Two independently computed quantities that must agree do not."""


class Frozen:
    """
    Base of the immutable value classes.  Subclasses declare __slots__ and
    set each slot once, in __init__, through object.__setattr__ (the Fock
    classes call the slot descriptor's __set__ directly); any later
    assignment raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


def exact(c):
    """
    Normalize an exact rational: int stays int, a bool, int subclass or
    integral Fraction becomes its plain int numerator, so arithmetic stays
    on machine integers until a denominator appears.
    """
    if type(c) is int:
        return c
    if isinstance(c, (int, Fraction)):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("exact rational expected, got %r" % (c,))
