"""Surveyor rules beside the exact computations that grade them.

Every historical area, volume, and slope rule lives here next to an exact
check: the quadrilateral opposite-side-means rule against the shoelace
area, the two-side triangle rule against base-times-height, the circle
quadrature against pi. Rational quantities stay exact; the few genuinely
irrational ones (pi, square-root side lengths) are carried as certified
lower bounds with a stated number of correct decimal digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import NamedTuple, Sequence

from .rational import as_rational, validating_namedtuple

# 50 decimal digits of pi; truncated, they give lower bounds.
_PI_DIGITS = "314159265358979323846264338327950288419716939937510"

# Working precision for square-root bounds; far beyond the 12 digits the
# reports promise, so interval width never masks a genuine inequality.
SQRT_DIGITS = 80


def _sqrt_lower(p: int, q: int, digits: int) -> tuple[int, int, bool]:
    # (s, t, is_exact) for p/q >= 0 in lowest terms: s/t is sqrt(p/q) when
    # p and q are perfect squares, else s/t <= sqrt(p/q) < (s + 1)/t with
    # t = q*10**digits
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return rp, rq, True
    scale = 10**digits
    return math.isqrt(p * q * scale * scale), q * scale, False


def sqrt_bounds(x: Fraction | int, digits: int = SQRT_DIGITS) -> tuple[Fraction, Fraction, bool]:
    """(lo, hi, is_exact) with lo <= sqrt(x) <= hi and hi - lo <= 10**-digits.

    Perfect rational squares come back exact (lo == hi).
    """
    x = as_rational(x)
    if x < 0:
        raise ValueError("square root of a negative value")
    s, t, is_exact = _sqrt_lower(x.numerator, x.denominator, digits)
    lo = Fraction(s, t)
    return lo, lo if is_exact else Fraction(s + 1, t), is_exact


def decimal_string(x: Fraction, places: int = 12) -> str:
    """Plain decimal rendering, truncated toward zero at ``places`` digits."""
    sign = "-" if x < 0 else ""
    ax = -x if x < 0 else x
    scaled = (ax.numerator * 10**places) // ax.denominator
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


class ErrorReport(NamedTuple):
    """A historical value against its exact counterpart.

    ``absolute_error`` is historical - exact and ``relative_error`` divides
    that by the exact value (None when the exact value is zero). When
    ``approx_digits`` is set, the irrational side was computed as a
    certified lower bound correct to that many decimal digits; otherwise
    every field is an exact rational.
    """

    historical: Fraction
    exact: Fraction
    absolute_error: Fraction
    relative_error: Fraction | None
    approx_digits: int | None = None

    @classmethod
    def build(
        cls, historical: Fraction, exact: Fraction, approx_digits: int | None = None
    ) -> "ErrorReport":
        abs_err = historical - exact
        rel = abs_err / exact if exact != 0 else None
        return cls(historical, exact, abs_err, rel, approx_digits)

    def as_dict(self) -> dict[str, object]:
        return {
            "historical": str(self.historical),
            "exact": str(self.exact),
            "abs_error": str(self.absolute_error),
            "rel_error": str(self.relative_error) if self.relative_error is not None else None,
            "historical_decimal": decimal_string(self.historical),
            "exact_decimal": decimal_string(self.exact),
            "abs_error_decimal": decimal_string(self.absolute_error),
            "approx_digits": self.approx_digits,
        }

    def render(self) -> str:
        def show(x: Fraction) -> str:
            # long exact fractions (high-precision brackets) read better as decimals
            text = str(x)
            return f"{text} ({decimal_string(x)})" if len(text) <= 24 else decimal_string(x)

        lines = [
            f"historical: {show(self.historical)}",
            f"exact:      {show(self.exact)}",
            f"abs error:  {decimal_string(self.absolute_error)}",
        ]
        if self.relative_error is not None:
            lines.append(f"rel error:  {decimal_string(self.relative_error)}")
        if self.approx_digits is not None:
            lines.append(f"(irrational side certified to {self.approx_digits} decimal digits, lower bound)")
        return "\n".join(lines)


def _positive(name: str, value: Fraction) -> Fraction:
    value = as_rational(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


# -- circle quadrature --------------------------------------------------


def circle_area_egyptian(diameter: Fraction | int) -> Fraction:
    """Quadrature rule: the square on eight ninths of the diameter."""
    d = _positive("diameter", diameter)
    return (Fraction(8, 9) * d) ** 2


def _pi_truncated(report_digits: int) -> Fraction:
    # pi truncated to report_digits decimals, a lower bound
    if not 1 <= report_digits <= len(_PI_DIGITS) - 1:
        raise ValueError(f"report_digits must be in 1..{len(_PI_DIGITS) - 1}")
    return Fraction(int(_PI_DIGITS[: report_digits + 1]), 10**report_digits)


def implied_pi_error(report_digits: int = 15) -> ErrorReport:
    """How far the quadrature rule's implied pi (256/81) overshoots pi."""
    return ErrorReport.build(Fraction(256, 81), _pi_truncated(report_digits), approx_digits=report_digits)


def pi_comparison_set(report_digits: int = 15) -> list[tuple[str, ErrorReport]]:
    """The quadrature value beside the neighbouring traditions' constants."""
    pi_lo = _pi_truncated(report_digits)
    values = [
        ("egyptian 256/81", Fraction(256, 81)),
        ("babylonian 3", Fraction(3)),
        ("roman 4", Fraction(4)),
    ]
    return [(label, ErrorReport.build(v, pi_lo, approx_digits=report_digits)) for label, v in values]


# -- rectilinear areas ---------------------------------------------------


def square_area(side: Fraction | int) -> Fraction:
    return _positive("side", side) ** 2


def rect_area(width: Fraction | int, height: Fraction | int) -> Fraction:
    return _positive("width", width) * _positive("height", height)


def triangle_area(base: Fraction | int, height: Fraction | int) -> Fraction:
    """The sound rule: half of base times height."""
    return _positive("base", base) * _positive("height", height) / 2


def triangle_area_two_sides(s1: Fraction | int, s2: Fraction | int) -> Fraction:
    """The disputed rule: half the product of two side lengths.

    Exact when the two sides enclose a right angle; an over-estimate for
    any other triangle.
    """
    return _positive("side", s1) * _positive("side", s2) / 2


def trapezoid_area(p1: Fraction | int, p2: Fraction | int, height: Fraction | int) -> Fraction:
    """Mean of the parallel sides times height; p2 = 0 degenerates to a triangle."""
    p1, p2 = as_rational(p1), as_rational(p2)
    if p1 < 0 or p2 < 0 or (p1 == 0 and p2 == 0):
        raise ValueError("parallel sides must be >= 0 and not both zero")
    return (p1 + p2) / 2 * _positive("height", height)


def granary_volume(floor_area: Fraction | int, length: Fraction | int) -> Fraction:
    """Capacity as floor area times length; the floor's shape is opaque here."""
    return _positive("floor_area", floor_area) * _positive("length", length)


# -- the quadrilateral donation-text rule --------------------------------


class SideQuad(validating_namedtuple("SideQuad", "a b c d")):
    """A quadrilateral by cyclic side lengths; opposite pairs (a,c), (b,d).

    One side may be zero, which is how the donation texts book triangles.
    """

    __slots__ = ()

    def __new__(
        cls, a: Fraction | int, b: Fraction | int, c: Fraction | int, d: Fraction | int
    ) -> SideQuad:
        sides = [as_rational(s) for s in (a, b, c, d)]
        for name, s in zip("abcd", sides):
            if s < 0:
                raise ValueError(f"side {name} must be >= 0, got {s}")
        if sum(1 for s in sides if s == 0) > 1:
            raise ValueError("at most one side may be zero")
        return super().__new__(cls, *sides)


def edfu_area(q: SideQuad) -> Fraction:
    """Product of the means of the two opposite-side pairs.

    Exact for rectangles, an over-estimate for every other shape.
    """
    return (q.a + q.c) / 2 * ((q.b + q.d) / 2)


def edfu_area_via_diagonal_split(q: SideQuad) -> Fraction:
    """The same value derived the long way round.

    Cut along one diagonal and add the two half-side-product triangle
    areas; do the same along the other diagonal; average the two sums.
    Algebraically identical to ``edfu_area``.
    """
    first_cut = (q.a * q.b + q.c * q.d) / 2
    second_cut = (q.b * q.c + q.d * q.a) / 2
    return (first_cut + second_cut) / 2


# Each field shape: its dimensions, in order, and the rule that takes them
# (positionally or by those names) to the area.
AREA_RULES = {
    "square": (("side",), square_area),
    "rectangle": (("width", "height"), rect_area),
    "triangle": (("base", "height"), triangle_area),
    "two_sides": (("s1", "s2"), triangle_area_two_sides),
    "trapezoid": (("p1", "p2", "height"), trapezoid_area),
    "circle": (("diameter",), circle_area_egyptian),
    "edfu": (("a", "b", "c", "d"), lambda a, b, c, d: edfu_area(SideQuad(a, b, c, d))),
}


# -- exact polygon oracle -------------------------------------------------
#
# The checks below run on a lattice: every vertex is scaled by the least
# common denominator of all coordinates, which turns the points into
# integers and keeps equality, collinearity and the sign of every
# orientation. Areas and squared lengths are divided by the scale once.

LatticePoint = tuple[int, int]


def _orient(a: LatticePoint, b: LatticePoint, c: LatticePoint) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a: LatticePoint, b: LatticePoint, p: LatticePoint) -> bool:
    # collinearity assumed; is p within the bounding box of ab?
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_intersect(p1: LatticePoint, p2: LatticePoint, q1: LatticePoint, q2: LatticePoint) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def _simple_lattice(
    vertices: Sequence[tuple[Fraction | int, Fraction | int]],
) -> tuple[list[LatticePoint], int]:
    """Validate a simple polygon; return its lattice points and scale."""
    pts = [(as_rational(x), as_rational(y)) for x, y in vertices]
    n = len(pts)
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    lattice = [
        (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
        for x, y in pts
    ]
    if len(set(lattice)) != n:
        raise ValueError("polygon vertices must be distinct")
    for i in range(n):
        a1, a2 = lattice[i], lattice[(i + 1) % n]
        # adjacent edges may meet only at the shared vertex, not fold back
        b1, b2 = lattice[(i + 1) % n], lattice[(i + 2) % n]
        if _orient(a1, a2, b2) == 0:
            along = (a1[0] - b1[0]) * (b2[0] - b1[0]) + (a1[1] - b1[1]) * (b2[1] - b1[1])
            if along > 0:
                raise ValueError("polygon folds back on itself")
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # these edges are adjacent around the wrap
            c1, c2 = lattice[j], lattice[(j + 1) % n]
            if _segments_intersect(a1, a2, c1, c2):
                raise ValueError("polygon edges intersect; not a simple polygon")
    return lattice, scale


def _shoelace_area(lattice: list[LatticePoint], scale: int) -> Fraction:
    """The shoelace sum over lattice points, divided by the scale once."""
    twice = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(lattice, lattice[1:] + lattice[:1]))
    return Fraction(abs(twice), 2 * scale * scale)


def exact_polygon_area(vertices: Sequence[tuple[Fraction | int, Fraction | int]]) -> Fraction:
    """Shoelace area of a simple polygon, exact and orientation-free."""
    return _shoelace_area(*_simple_lattice(vertices))


# -- grading the donation-text rule ---------------------------------------


def _squared_side_lengths(lattice: list[LatticePoint]) -> list[int]:
    return [
        (x2 - x1) ** 2 + (y2 - y1) ** 2
        for (x1, y1), (x2, y2) in zip(lattice, lattice[1:] + lattice[:1])
    ]


def edfu_error_report(
    vertices: Sequence[tuple[Fraction | int, Fraction | int]],
    digits: int = SQRT_DIGITS,
) -> ErrorReport:
    """Grade the opposite-side-means rule on a real figure.

    Takes a simple quadrilateral (or triangle, booked as a quadrilateral
    with one vanishing side), reads the side lengths off the vertices in
    cyclic order, and compares the rule's area with the shoelace area.
    The rule never under-estimates. Side lengths are square roots; the
    computation expands the rule into the four side-product terms, so any
    term whose squared product is a perfect square stays exact (this
    covers every rectangle, however it is rotated), and the rest are
    bounded to ``digits`` correct decimals, reported as a lower bound.
    The vertex count is checked before the quadratic simple-polygon check.
    """
    if len(vertices) > 4:
        raise ValueError("the rule applies to quadrilaterals and triangles only")
    lattice, scale = _simple_lattice(vertices)
    sq = _squared_side_lengths(lattice)
    if len(sq) == 3:
        sq.append(0)
    sa, sb, sc, sd = sq
    # (a+c)(b+d)/4 = (ab + ad + cb + cd)/4, each product a single square root;
    # a product of two squared lattice lengths carries the scale to the fourth
    scale4 = scale**4
    bounds = []
    for prod in (sa * sb, sa * sd, sc * sb, sc * sd):
        g = math.gcd(prod, scale4)
        bounds.append(_sqrt_lower(prod // g, scale4 // g, digits))
    # the four lower bounds summed over one common denominator
    common = math.lcm(*(t for _, t, _ in bounds))
    lo_sum = sum(s * (common // t) for s, t, _ in bounds)
    historical = Fraction(lo_sum, 4 * common)
    approx_digits = None if all(is_exact for _, _, is_exact in bounds) else digits
    return ErrorReport.build(historical, _shoelace_area(lattice, scale), approx_digits)


def random_convex_quadrilateral(rng: Random, max_coord: int = 50) -> list[tuple[int, int]]:
    """A random strictly convex integer-coordinate quadrilateral (ccw)."""
    if max_coord < 1:
        raise ValueError("max_coord must be >= 1 to fit a convex quadrilateral")
    while True:
        pts = [(rng.randint(0, max_coord), rng.randint(0, max_coord)) for _ in range(4)]
        hull = _convex_hull(pts)
        if len(hull) == 4:
            return hull


def _convex_hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # monotone chain, strict turns only: collinear points are dropped
    pts = sorted(set(pts))
    if len(pts) < 3:
        return pts

    def build(seq):
        chain: list[tuple[int, int]] = []
        for p in seq:
            while len(chain) >= 2 and _orient(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


# -- the flawed isoceles rule ---------------------------------------------


def gerbert_isoceles_area(leg: Fraction | int, base: Fraction | int) -> ErrorReport:
    """Grade the medieval leg-times-half-base rule for isoceles triangles.

    The true area drops the height, base/4 * sqrt(4 leg^2 - base^2); the
    rule replaces the height with the leg and so never under-estimates.
    """
    leg = _positive("leg", leg)
    base = as_rational(base)
    if base < 0:
        raise ValueError("base must be >= 0")
    if 2 * leg <= base:
        raise ValueError("triangle inequality needs 2*leg > base")
    historical = leg * base / 2
    square = 4 * leg**2 - base**2
    s, t, is_exact = _sqrt_lower(square.numerator, square.denominator, SQRT_DIGITS)
    return ErrorReport.build(historical, base * s / (4 * t), None if is_exact else SQRT_DIGITS)


# -- right angles by rope -------------------------------------------------


def is_right_triangle(a: Fraction | int, b: Fraction | int, c: Fraction | int) -> bool:
    """Whether the three sides close into a right triangle (exact test)."""
    sides = sorted(_positive(n, s) for n, s in zip("abc", (a, b, c)))
    if sides[0] + sides[1] <= sides[2]:
        raise ValueError("side lengths do not form a triangle")
    return sides[0] ** 2 + sides[1] ** 2 == sides[2] ** 2


# The triples are built whole and sorted before they are shown, so the
# perimeter limit is capped: 10**6 gives 70,229 triples.
TRIPLES_MAX_PERIMETER = 10**6


def rational_right_triangles(perimeter_limit: int) -> list[tuple[int, int, int]]:
    """All primitive integer right triangles with perimeter within the limit.

    Sorted by perimeter, then by the shorter leg. The smallest has
    perimeter 12, so smaller limits are rejected, and a limit above
    ``TRIPLES_MAX_PERIMETER`` is refused before any triple is built.
    """
    if not isinstance(perimeter_limit, int) or perimeter_limit < 12:
        raise ValueError("perimeter limit must be an integer >= 12")
    if perimeter_limit > TRIPLES_MAX_PERIMETER:
        raise ValueError(f"perimeter limit must be at most {TRIPLES_MAX_PERIMETER}, got {perimeter_limit}")
    triples: list[tuple[int, int, tuple[int, int, int]]] = []
    m = 2
    while 2 * m * (m + 1) <= perimeter_limit:
        for n in range(1, m):
            if (m - n) % 2 == 1 and math.gcd(m, n) == 1:
                a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
                if a > b:
                    a, b = b, a
                if a + b + c <= perimeter_limit:
                    triples.append((a + b + c, a, (a, b, c)))
        m += 1
    return [t for _, _, t in sorted(triples)]


# -- slope of a pyramid face ----------------------------------------------


def _check_parts(parts: int) -> int:
    if not isinstance(parts, int) or isinstance(parts, bool) or parts < 1:
        raise ValueError("parts per unit must be an integer >= 1")
    return parts


def seked_from(base: Fraction | int, height: Fraction | int, parts: int = 7) -> Fraction:
    """Horizontal run per unit rise: half the base over the height, in parts."""
    return _positive("base", base) / 2 / _positive("height", height) * _check_parts(parts)


def seked_to_height(base: Fraction | int, seked: Fraction | int, parts: int = 7) -> Fraction:
    return _positive("base", base) / 2 * _check_parts(parts) / _positive("seked", seked)


def seked_to_base(height: Fraction | int, seked: Fraction | int, parts: int = 7) -> Fraction:
    return 2 * _positive("height", height) * _positive("seked", seked) / _check_parts(parts)


def seked_cotangent(seked: Fraction | int, parts: int = 7) -> Fraction:
    """The slope as a pure ratio: cotangent of the face's inclination."""
    seked = as_rational(seked)
    if seked < 0:
        raise ValueError("seked must be >= 0")
    return seked / _check_parts(parts)


# -- heights from shadows --------------------------------------------------


def shadow_height(
    object_shadow: Fraction | int,
    reference_height: Fraction | int,
    reference_shadow: Fraction | int,
) -> Fraction:
    """Similar triangles: scale the object's shadow by the reference stick.

    At the moment the stick's shadow equals the stick, the answer is the
    shadow itself.
    """
    object_shadow = as_rational(object_shadow)
    if object_shadow < 0:
        raise ValueError("shadow length must be >= 0")
    return (
        object_shadow
        * _positive("reference_height", reference_height)
        / _positive("reference_shadow", reference_shadow)
    )
