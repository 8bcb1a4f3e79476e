"""Unknown-quantity (hau) problems, progression sharing, and the ladder.

A hau problem is a linear equation in one unknown: some aggregate multiple
of the quantity equals a target. It is solved both algebraically and by
false position, the trial-value technique the problem texts actually used;
for linear problems the rescaled trial is exact, so the two always agree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .rational import as_rational, validating_namedtuple

# Names attached to the rungs of the classic base-7 ladder, lowest power first.
LADDER_LABELS = ("an", "Katze", "Maus", "Gerste", "Maass")

# A ladder is built whole before it is shown, so its size is capped: at
# most this many rungs, and a top rung of at most this many decimal digits.
LADDER_MAX_RUNGS = 1000
LADDER_MAX_DIGITS = 1000
_LADDER_TOP_LIMIT = 10**LADDER_MAX_DIGITS


class HauProblem(validating_namedtuple("HauProblem", "multiplier target")):
    """multiplier * x = target, with multiplier the summed coefficient.

    ``from_terms`` builds the multiplier from the problem statement's list
    (e.g. a quantity and its seventh: terms 1 and 1/7).
    """

    __slots__ = ()

    def __new__(cls, multiplier: Fraction | int, target: Fraction | int) -> HauProblem:
        multiplier = as_rational(multiplier)
        target = as_rational(target)
        if multiplier == 0:
            raise ValueError("hau problem needs a nonzero multiplier")
        return super().__new__(cls, multiplier, target)

    @classmethod
    def from_terms(cls, terms: Iterable[Fraction | int], target: Fraction | int) -> "HauProblem":
        total = sum((as_rational(t) for t in terms), Fraction(0))
        return cls(total, as_rational(target))


def solve_hau(problem: HauProblem) -> Fraction:
    """The unknown quantity; multiplier * result = target exactly."""
    return problem.target / problem.multiplier


class FalsePositionTrace(NamedTuple):
    """The worked steps: trial value, its outcome, and the exact rescale."""

    guess: Fraction
    trial_result: Fraction
    scale_factor: Fraction
    answer: Fraction

    def render(self) -> str:
        return (
            f"assume {self.guess}: gives {self.trial_result}; "
            f"scale by {self.scale_factor}; answer {self.answer}"
        )

    def as_dict(self) -> dict[str, str]:
        return {name: str(value) for name, value in self._asdict().items()}


def solve_hau_false_position(
    problem: HauProblem, guess: Fraction | int
) -> tuple[Fraction, FalsePositionTrace]:
    """Solve by a convenient trial value, then rescale to hit the target.

    Exact for any nonzero guess; returns the same value as ``solve_hau``.
    """
    guess = as_rational(guess)
    if guess == 0:
        raise ValueError("false position needs a nonzero trial value")
    trial = guess * problem.multiplier
    factor = problem.target / trial
    answer = guess * factor
    return answer, FalsePositionTrace(guess, trial, factor, answer)


# The shares are built whole, some 10 us each, so their count is capped:
# 10**4 shares take about 0.1 s.
SHARES_MAX_COUNT = 10**4


def arithmetic_shares(
    term_count: int, total: Fraction | int, common_difference: Fraction | int
) -> list[Fraction]:
    """Split a total into shares in arithmetic progression.

    Shares are returned smallest first and re-sum to the total exactly;
    a large difference can push early shares negative, which is left to
    the caller to accept or reject. More than ``SHARES_MAX_COUNT`` shares
    are refused before any is built.
    """
    # a count of any other type is refused by smallest_share, with one message
    if isinstance(term_count, int) and term_count > SHARES_MAX_COUNT:
        raise ValueError(f"share count must be at most {SHARES_MAX_COUNT}, got {term_count}")
    first = smallest_share(term_count, total, common_difference)
    diff = as_rational(common_difference)
    return [first + i * diff for i in range(term_count)]


def smallest_share(
    term_count: int, total: Fraction | int, common_difference: Fraction | int
) -> Fraction:
    """The first share of ``arithmetic_shares``, without building the others."""
    if not isinstance(term_count, int) or isinstance(term_count, bool):
        raise ValueError("share count must be an integer")
    if term_count < 1:
        raise ValueError("need at least one share")
    total = as_rational(total)
    diff = as_rational(common_difference)
    return total / term_count - Fraction(term_count - 1, 2) * diff


class LadderRung(NamedTuple):
    exponent: int
    value: int
    label: str


class GeometricLadder(NamedTuple):
    rungs: tuple[LadderRung, ...]
    total: int

    def render(self) -> str:
        width = max(len(str(r.value)) for r in self.rungs)
        lines = [f"{r.label or '-':>6}  {r.value:>{width}}" for r in self.rungs]
        lines.append(f"{'total':>6}  {self.total:>{width}}")
        return "\n".join(lines)


def geometric_ladder(base: int, top_exponent: int) -> GeometricLadder:
    """The powers base^1 .. base^top and their sum, rungs labeled in order.

    The five classic rung names attach from the lowest power up; rungs
    past the fifth go unnamed. A ladder of more than ``LADDER_MAX_RUNGS``
    rungs, or with a top rung of more than ``LADDER_MAX_DIGITS`` digits,
    is refused before any rung is computed.
    """
    if any(not isinstance(n, int) or isinstance(n, bool) for n in (base, top_exponent)):
        raise ValueError("ladder takes integer base and exponent")
    if base < 1 or top_exponent < 1:
        raise ValueError("ladder needs base >= 1 and top exponent >= 1")
    if top_exponent > LADDER_MAX_RUNGS:
        raise ValueError(f"ladder takes at most {LADDER_MAX_RUNGS} rungs, got top exponent {top_exponent}")
    # 2**(4*d) > 10**d: the bit count alone rules out a huge top rung before
    # it is computed, and below that count the exact comparison is cheap
    if ((base.bit_length() - 1) * top_exponent >= 4 * LADDER_MAX_DIGITS
            or base**top_exponent >= _LADDER_TOP_LIMIT):
        raise ValueError(f"ladder's top rung base^{top_exponent} has more than {LADDER_MAX_DIGITS} digits")
    rungs = tuple(
        LadderRung(e, base**e, LADDER_LABELS[e - 1] if e <= len(LADDER_LABELS) else "")
        for e in range(1, top_exponent + 1)
    )
    return GeometricLadder(rungs, sum(r.value for r in rungs))
