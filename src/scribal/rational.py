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
from dataclasses import dataclass, field
from fractions import Fraction

Rational = Fraction

TWO_THIRDS = Fraction(2, 3)

_TERM_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def as_rational(x: int | Fraction) -> Fraction:
    """Coerce an int (or Fraction) to Fraction; floats are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class UnitFractionSum:
    """A value in scribal notation: whole part + optional 2/3 + unit fractions.

    ``denominators`` must be strictly increasing integers >= 2; the 2/3 term
    is kept as a separate marker rather than in the list, mirroring the
    historical treatment of 2/3 as its own symbol. Values are never
    negative; there is no sign in the notation.
    """

    integer_part: int = 0
    two_thirds: bool = False
    denominators: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "denominators", tuple(self.denominators))
        if not isinstance(self.integer_part, int) or self.integer_part < 0:
            raise ValueError(f"integer part must be a non-negative integer, got {self.integer_part!r}")
        prev = 1
        for d in self.denominators:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"unit-fraction denominator must be an integer >= 2, got {d!r}")
            if d <= prev:
                raise ValueError(f"denominators must be strictly increasing, got {self.denominators}")
            prev = d

    def value(self) -> Fraction:
        """The exact Rational this notation denotes."""
        total = Fraction(self.integer_part)
        if self.two_thirds:
            total += TWO_THIRDS
        for d in self.denominators:
            total += Fraction(1, d)
        return total

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


def render_rational(x: Fraction) -> str:
    """Canonical text form: ``133/8``, ``-3/4``, or ``5`` for integers."""
    return str(as_rational(x))


def parse_rational(text: str) -> Fraction:
    """Parse ``133/8``-style fractions and ``16 + 1/2 + 1/8``-style sums.

    Both forms are accepted anywhere a rational is read back in; the sum
    form is evaluated exactly, so parse(render(x)) == x for either writer.
    """
    tokens = [t.strip() for t in text.strip().split("+")]
    if not tokens or any(not t for t in tokens):
        raise ValueError(f"cannot parse rational from {text!r}")
    # sum over plain integers; one Fraction, reduced once, at the end
    num, den = 0, 1
    for tok in tokens:
        m = _TERM_RE.fullmatch(tok)
        if m is None:
            raise ValueError(f"cannot parse rational term {tok!r} in {text!r}")
        n, d = m.groups(default="1")
        n, d = int(n), int(d)
        if d == 0:
            raise ValueError(f"zero denominator in {text!r}")
        num, den = num * d + n * den, den * d
    return Fraction(num, den)


def parse_unit_fraction_sum(text: str) -> UnitFractionSum:
    """Strictly parse scribal notation back into a UnitFractionSum.

    Accepts exactly the shapes ``render`` produces: an optional leading
    integer, an optional single ``2/3``, then unit fractions ``1/d`` with
    strictly increasing denominators. Round-trips exactly.
    """
    tokens = [t.strip() for t in text.strip().split("+")]
    if not tokens or any(not t for t in tokens):
        raise ValueError(f"cannot parse unit-fraction sum from {text!r}")
    integer_part = 0
    two_thirds = False
    denominators: list[int] = []
    state = "integer"  # integer -> two_thirds -> units
    for tok in tokens:
        if state == "integer" and "/" not in tok:
            integer_part = int(tok)
            if integer_part < 0:
                raise ValueError(f"unit-fraction sums are non-negative, got {text!r}")
            state = "two_thirds"
            continue
        if state in ("integer", "two_thirds") and tok == "2/3":
            two_thirds = True
            state = "units"
            continue
        m = re.match(r"^1/(\d+)$", tok)
        if not m:
            raise ValueError(f"term {tok!r} is not a unit fraction in {text!r}")
        denominators.append(int(m.group(1)))
        state = "units"
    return UnitFractionSum(integer_part, two_thirds, tuple(denominators))
