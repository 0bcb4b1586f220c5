"""The frozen base, the exact normaliser, IdentityFailed and ConfigError."""

import sys


class IdentityFailed(ArithmeticError):
    """Two independently computed quantities that must agree do not."""


class ConfigError(ValueError):
    """A request names a bad option value or an invalid surface file."""


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


def rational_types():
    """
    The exact rational types, for isinstance: int, and Fraction once
    fractions is loaded.  No value can be a Fraction before that, so the
    integer tables never load rational arithmetic.
    """
    return int, getattr(sys.modules.get("fractions"), "Fraction", ())


def exact(c):
    """
    Normalize an exact rational: int stays int, a bool, int subclass or
    integral Fraction becomes its plain int numerator, so arithmetic stays
    on machine integers until a denominator appears.
    """
    if type(c) is int:
        return c
    # rational_types, inlined because exact runs on every coefficient
    fractions = sys.modules.get("fractions")
    if isinstance(c, int) or fractions and isinstance(c, fractions.Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("exact rational expected, got %r" % (c,))
