"""Exact rational numbers and the unit-fraction sums the scribes wrote.

Every quantity in this package is a ``fractions.Fraction`` (re-exported as
``Rational``), so arithmetic is exact and results are always in canonical
form: positive denominator, numerator and denominator coprime. No float
ever enters a computation here.

``UnitFractionSum`` is the scribal notation for a value: a whole part, an
optional 2/3 term (the one non-unit fraction the notation treats as a
primitive), and a strictly increasing run of unit-fraction denominators,
e.g. ``16 + 1/2 + 1/8``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

Rational = Fraction

# one term between "+" signs, with the whitespace str.strip() takes off
_TERM_RE = re.compile(r"\s*(-?[0-9]+)(?:/([0-9]+))?\s*")
# the tokens render writes, in ASCII digits with no leading zero; 1/0 passes
# so that UnitFractionSum names the bad denominator
_INTEGER_RE = re.compile(r"0|[1-9][0-9]*")
_NEGATIVE_RE = re.compile(r"-[0-9]+")
_UNIT_RE = re.compile(r"1/(0|[1-9][0-9]*)")


def as_rational(x: int | Fraction) -> Fraction:
    """Coerce an int (or Fraction) to Fraction; floats and bools are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def validating_namedtuple(typename: str, field_names: str) -> type:
    """A ``namedtuple`` base for a subclass that validates in ``__new__``.

    ``_replace`` builds its copy with ``_make``, which would skip the
    subclass's checks; here ``_make`` calls the constructor instead.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class UnitFractionSum:
    """A value in scribal notation: whole part + optional 2/3 + unit fractions.

    ``denominators`` must be strictly increasing integers >= 2; the 2/3 term
    is kept as a separate marker rather than in the list, mirroring the
    historical treatment of 2/3 as its own symbol. Values are never
    negative; there is no sign in the notation.

    Immutable, and equal to another ``UnitFractionSum`` with the same
    fields. It is a slotted class rather than a named tuple so that a
    checker can build an invalid value field by field, with
    ``object.__new__`` and ``object.__setattr__``, to test its own checks.
    """

    __slots__ = ("integer_part", "two_thirds", "denominators")

    def __init__(
        self, integer_part: int = 0, two_thirds: bool = False, denominators: tuple[int, ...] = ()
    ) -> None:
        denominators = tuple(denominators)
        if not isinstance(integer_part, int) or isinstance(integer_part, bool) or integer_part < 0:
            raise ValueError(f"integer part must be a non-negative integer, got {integer_part!r}")
        if not isinstance(two_thirds, bool):
            raise ValueError(f"two_thirds must be a bool, got {two_thirds!r}")
        prev = 1
        for d in denominators:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"unit-fraction denominator must be an integer >= 2, got {d!r}")
            if d <= prev:
                raise ValueError(f"denominators must be strictly increasing, got {denominators}")
            prev = d
        object.__setattr__(self, "integer_part", integer_part)
        object.__setattr__(self, "two_thirds", two_thirds)
        object.__setattr__(self, "denominators", denominators)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: UnitFractionSum is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: UnitFractionSum is immutable")

    def _fields_tuple(self) -> tuple[int, bool, tuple[int, ...]]:
        return (self.integer_part, self.two_thirds, self.denominators)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields_tuple() == other._fields_tuple()

    def __hash__(self) -> int:
        return hash(self._fields_tuple())

    def __reduce__(self):
        return (UnitFractionSum, self._fields_tuple())  # copy and pickle through the checks

    def __repr__(self) -> str:
        return (
            f"UnitFractionSum(integer_part={self.integer_part!r}, "
            f"two_thirds={self.two_thirds!r}, denominators={self.denominators!r})"
        )

    def value(self) -> Fraction:
        """The exact Rational this notation denotes."""
        # sum over plain integers; one Fraction, reduced once, at the end
        num, den = self.integer_part, 1
        if self.two_thirds:
            num, den = 3 * num + 2, 3
        for d in self.denominators:
            num, den = num * d + den, den * d
        return Fraction(num, den)

    @property
    def term_count(self) -> int:
        """Number of fraction terms, the 2/3 marker counting as one."""
        return len(self.denominators) + (1 if self.two_thirds else 0)

    def render(self) -> str:
        parts: list[str] = []
        if self.integer_part or (not self.two_thirds and not self.denominators):
            parts.append(str(self.integer_part))
        if self.two_thirds:
            parts.append("2/3")
        parts.extend(f"1/{d}" for d in self.denominators)
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


def parse_rational(text: str) -> Fraction:
    """Parse ``133/8``-style fractions and ``16 + 1/2 + 1/8``-style sums.

    Both forms are accepted anywhere a rational is read back in; the sum
    form is evaluated exactly, so parse(render(x)) == x for either writer.
    Every number is ASCII digits, with an optional minus sign on each term.
    """
    tokens = text.split("+")
    # sum over plain integers; one Fraction, reduced once, at the end
    num, den = 0, 1
    try:
        for tok in tokens:
            m = _TERM_RE.fullmatch(tok)
            if m is None:
                raise ValueError(f"cannot parse rational term {tok.strip()!r} in {text!r}")
            n, d = int(m[1]), int(m[2] or 1)
            if d == 0:
                raise ValueError(f"zero denominator in {text!r}")
            num, den = num * d + n * den, den * d
    except ValueError:
        if any(not t.strip() for t in tokens):  # an empty term is named first
            raise ValueError(f"cannot parse rational from {text!r}") from None
        raise
    return Fraction(num, den)


def parse_unit_fraction_sum(text: str) -> UnitFractionSum:
    """Strictly parse scribal notation back into a UnitFractionSum.

    Accepts exactly the shapes ``render`` produces: an optional leading
    integer, an optional single ``2/3``, then unit fractions ``1/d`` with
    strictly increasing denominators, every number in ASCII digits with no
    leading zero. Round-trips exactly.
    """
    tokens = [t.strip() for t in text.strip().split("+")]
    if any(not t for t in tokens):
        raise ValueError(f"cannot parse unit-fraction sum from {text!r}")
    if _NEGATIVE_RE.fullmatch(tokens[0]):
        raise ValueError(f"unit-fraction sums are non-negative, got {text!r}")
    integer_part = int(tokens.pop(0)) if _INTEGER_RE.fullmatch(tokens[0]) else 0
    two_thirds = tokens[:1] == ["2/3"]
    denominators = []
    for tok in tokens[1:] if two_thirds else tokens:
        m = _UNIT_RE.fullmatch(tok)
        if m is None:
            raise ValueError(f"term {tok!r} is not a unit fraction in {text!r}")
        denominators.append(int(m.group(1)))
    return UnitFractionSum(integer_part, two_thirds, tuple(denominators))
