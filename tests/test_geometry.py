import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scribal import geometry
from scribal.geometry import (
    SideQuad,
    circle_area_egyptian,
    decimal_string,
    edfu_area,
    edfu_area_via_diagonal_split,
    edfu_error_report,
    exact_polygon_area,
    gerbert_isoceles_area,
    granary_volume,
    implied_pi_error,
    is_right_triangle,
    pi_comparison_set,
    random_convex_quadrilateral,
    rational_right_triangles,
    rect_area,
    seked_cotangent,
    seked_from,
    seked_to_base,
    seked_to_height,
    shadow_height,
    sqrt_bounds,
    square_area,
    trapezoid_area,
    triangle_area,
    triangle_area_two_sides,
)
from scribal.rational import as_rational

F = Fraction

positive_fractions = st.fractions(min_value=F(1, 50), max_value=100, max_denominator=50)


def scan_primitive_triples(limit):
    """Oracle: every primitive right triple by direct search over all sides."""
    out = []
    for a in range(1, limit):
        for b in range(a + 1, limit):
            c =  math.isqrt(a * a + b * b)
            if c * c == a * a + b * b and a + b + c <= limit:
                if math.gcd(math.gcd(a, b), c) == 1:
                    out.append((a, b, c))
    return sorted(out, key=lambda t: (sum(t), t[0]))


class TestCircle:
    def test_diameter_nine(self):
        assert circle_area_egyptian(9) == 64

    def test_unit_diameter(self):
        assert circle_area_egyptian(1) == F(64, 81)

    def test_diameter_two(self):
        assert circle_area_egyptian(2) == F(256, 81)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            circle_area_egyptian(0)

    @given(positive_fractions)
    def test_constant_ratio(self, d):
        assert circle_area_egyptian(d) / d**2 == F(64, 81)


class TestImpliedPi:
    def test_historical_value(self):
        report = implied_pi_error()
        assert report.historical == F(256, 81)

    def test_absolute_error_near_paper_figure(self):
        report = implied_pi_error()
        assert abs(report.absolute_error - F(18901, 10**6)) < F(5, 10**6)
        assert report.absolute_error > 0

    def test_pi_correct_to_twelve_digits(self):
        report = implied_pi_error(report_digits=12)
        assert report.approx_digits >= 12
        assert abs(report.exact - geometry._pi_truncated(50)) < F(1, 10**12)

    def test_comparison_set(self):
        reports = dict(pi_comparison_set())
        babylonian = reports["babylonian 3"].absolute_error
        roman = reports["roman 4"].absolute_error
        assert abs(babylonian + F(141593, 10**6)) < F(1, 10**6)
        assert abs(roman - F(858407, 10**6)) < F(1, 10**6)

    @pytest.mark.parametrize("fn", [implied_pi_error, pi_comparison_set])
    @pytest.mark.parametrize("digits", [0, 51, -3])
    def test_digits_outside_the_table_refused(self, fn, digits):
        # 50 digits of pi are stored; a count outside 1..50 would report a
        # bound off by a power of ten, or no bound at all
        with pytest.raises(ValueError, match=r"^report_digits must be in 1\.\.50$"):
            fn(digits)

    def test_report_fields_consistent(self):
        report = implied_pi_error()
        assert report.absolute_error == report.historical - report.exact
        assert report.relative_error == report.absolute_error / report.exact
        d = report.as_dict()
        assert d["abs_error_decimal"].startswith("0.018901")


class TestRectilinear:
    def test_unit_square(self):
        assert square_area(1) == 1

    def test_rectangle(self):
        assert rect_area(3, 4) == 12

    def test_square_ties_to_circle_rule(self):
        assert square_area(F(8, 9) * 9) == 64

    def test_triangle_base_height(self):
        assert triangle_area(4, 3) == 6
        assert triangle_area(1, 2) == 1
        assert triangle_area(10, 10) == 50

    def test_two_side_rule_right_angle_reading(self):
        assert triangle_area_two_sides(3, 4) == 6
        assert triangle_area_two_sides(1, 1) == F(1, 2)

    def test_two_side_rule_overestimates_isoceles(self):
        # legs 5, base 6: true height is 4, true area 12
        rule = triangle_area_two_sides(5, 5)
        exact = exact_polygon_area([(0, 0), (6, 0), (3, 4)])
        assert rule == F(25, 2) and exact == 12
        assert rule > exact

    @given(positive_fractions, positive_fractions)
    def test_two_side_rule_exact_on_right_triangles(self, s1, s2):
        legs = triangle_area_two_sides(s1, s2)
        assert legs == exact_polygon_area([(0, 0), (s1, 0), (0, s2)])

    def test_trapezoid(self):
        assert trapezoid_area(3, 3, 2) == 6
        assert trapezoid_area(6, 4, 20) == 100

    def test_trapezoid_degenerates_to_triangle(self):
        assert trapezoid_area(4, 0, 3) == triangle_area(4, 3) == 6

    def test_rejects_bad_dimensions(self):
        for call in (
            lambda: square_area(0),
            lambda: rect_area(3, 0),
            lambda: triangle_area(-1, 2),
            lambda: triangle_area_two_sides(0, 1),
            lambda: trapezoid_area(0, 0, 5),
            lambda: trapezoid_area(3, 4, 0),
        ):
            with pytest.raises(ValueError):
                call()

    def test_granary(self):
        assert granary_volume(1, 1) == 1
        assert granary_volume(square_area(8), 10) == 640
        assert granary_volume(F(64, 81), 9) == F(64, 9)
        with pytest.raises(ValueError):
            granary_volume(0, 3)


class TestSideQuad:
    def test_validates_sides(self):
        with pytest.raises(ValueError):
            SideQuad(1, 2, 3, -1)
        with pytest.raises(ValueError):
            SideQuad(1, 0, 3, 0)

    def test_one_zero_side_allowed(self):
        assert tuple(SideQuad(3, 4, 5, 0)) == (3, 4, 5, 0)


class TestEdfuRule:
    def test_square(self):
        assert edfu_area(SideQuad(10, 10, 10, 10)) == 100

    def test_rectangle(self):
        assert edfu_area(SideQuad(3, 4, 3, 4)) == 12

    def test_degenerate_triangle_overbooked(self):
        assert edfu_area(SideQuad(3, 4, 5, 0)) == 8

    def test_diagonal_split_examples(self):
        for quad in (SideQuad(10, 10, 10, 10), SideQuad(3, 4, 3, 4)):
            assert edfu_area_via_diagonal_split(quad) == edfu_area(quad)

    def test_diagonal_split_identity_seeded(self):
        rng = random.Random(414)
        for _ in range(500):
            sides = [F(rng.randint(1, 400), rng.randint(1, 40)) for _ in range(4)]
            if rng.random() < 0.1:
                sides[rng.randrange(4)] = F(0)
            quad = SideQuad(*sides)
            assert edfu_area_via_diagonal_split(quad) == edfu_area(quad)


class TestShoelaceOracle:
    def test_unit_square(self):
        assert exact_polygon_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == 1

    def test_right_triangle(self):
        assert exact_polygon_area([(0, 0), (3, 0), (3, 4)]) == 6

    def test_orientation_invariance(self):
        ccw = [(0, 0), (3, 0), (3, 4)]
        assert exact_polygon_area(ccw) == exact_polygon_area(list(reversed(ccw)))

    def test_rational_coordinates(self):
        assert exact_polygon_area([(0, 0), (F(1, 2), 0), (F(1, 2), F(1, 3)), (0, F(1, 3))]) == F(1, 6)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            exact_polygon_area([(0, 0), (1, 1)])

    def test_rejects_bowtie(self):
        with pytest.raises(ValueError):
            exact_polygon_area([(0, 0), (2, 2), (2, 0), (0, 2)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError):
            exact_polygon_area([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_rejects_fold_back(self):
        with pytest.raises(ValueError):
            exact_polygon_area([(0, 0), (2, 0), (1, 0), (1, 1)])

    def test_collinear_pass_through_is_fine(self):
        assert exact_polygon_area([(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)]) == 2

    def test_rejects_vertex_touching_far_edge(self):
        with pytest.raises(ValueError):
            exact_polygon_area([(0, 0), (4, 0), (2, 0), (2, 3)])

    def test_rejects_edge_crossing_far_edge(self):
        with pytest.raises(ValueError):
            exact_polygon_area([(0, 0), (4, 0), (4, 4), (0, 4), (0, 2), (5, 2)])

    def test_rejects_fully_collinear(self):
        with pytest.raises(ValueError):
            exact_polygon_area([(0, 0), (2, 0), (4, 0), (3, 0)])


class TestSqrtBounds:
    def test_perfect_square_exact(self):
        lo, hi, exact = sqrt_bounds(F(9, 4))
        assert exact and lo == hi == F(3, 2)

    def test_irrational_bracket(self):
        lo, hi, exact = sqrt_bounds(2, digits=30)
        assert not exact
        assert hi - lo == F(1, 10**30)
        assert lo * lo <= 2 <= hi * hi

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt_bounds(-1)

    def test_brackets_decimal_oracle(self):
        from decimal import Decimal, getcontext

        getcontext().prec = 80
        rng = random.Random(31415)
        for _ in range(300):
            x = F(rng.randint(0, 10**6), rng.randint(1, 10**4))
            lo, hi, exact = sqrt_bounds(x, digits=40)
            if exact:
                assert lo == hi and lo * lo == x
                continue
            assert lo * lo <= x <= hi * hi
            assert hi - lo <= F(1, 10**40)
            ref = (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()
            assert Decimal(lo.numerator) / Decimal(lo.denominator) <= ref
            assert ref <= Decimal(hi.numerator) / Decimal(hi.denominator)


class TestEdfuErrorReport:
    def test_axis_rectangle_exact_zero(self):
        report = edfu_error_report([(0, 0), (7, 0), (7, 3), (0, 3)])
        assert report.absolute_error == 0
        assert report.approx_digits is None

    def test_rotated_square_exact_zero(self):
        # sides are sqrt(2): the rule's value is still rational and exact
        report = edfu_error_report([(0, 0), (1, 1), (0, 2), (-1, 1)])
        assert report.absolute_error == 0
        assert report.approx_digits is None
        assert report.exact == 2

    def test_degenerate_345_triangle(self):
        report = edfu_error_report([(0, 0), (3, 0), (3, 4)])
        assert report.historical == 8
        assert report.exact == 6
        assert report.absolute_error == 2

    def test_never_underestimates_seeded(self):
        rng = random.Random(2718)
        for _ in range(300):
            quad = random_convex_quadrilateral(rng, 50)
            report = edfu_error_report(quad)
            assert report.absolute_error >= 0
            assert report.exact == exact_polygon_area(quad)

    def test_pentagon_rejected(self):
        with pytest.raises(ValueError):
            edfu_error_report([(0, 0), (4, 0), (5, 2), (2, 4), (0, 2)])

    def test_irrational_sides_reported_as_bounded(self):
        report = edfu_error_report([(0, 0), (4, 1), (3, 5), (0, 4)])
        assert report.approx_digits == geometry.SQRT_DIGITS
        assert report.absolute_error > 0

    def test_matches_decimal_recomputation(self):
        from decimal import Decimal, getcontext

        getcontext().prec = 120
        rng = random.Random(27182)
        for _ in range(100):
            quad = random_convex_quadrilateral(rng, 60)
            report = edfu_error_report(quad)
            pts = [(Decimal(x), Decimal(y)) for x, y in quad]
            lengths = [
                ((pts[(i + 1) % 4][0] - pts[i][0]) ** 2
                 + (pts[(i + 1) % 4][1] - pts[i][1]) ** 2).sqrt()
                for i in range(4)
            ]
            ref = (lengths[0] + lengths[2]) / 2 * ((lengths[1] + lengths[3]) / 2)
            got = Decimal(report.historical.numerator) / Decimal(report.historical.denominator)
            assert Decimal("-1e-100") <= ref - got < Decimal("1e-60")


class TestRandomQuadGenerator:
    def test_deterministic_and_convex(self):
        first = [random_convex_quadrilateral(random.Random(9), 50) for _ in range(5)]
        second = [random_convex_quadrilateral(random.Random(9), 50) for _ in range(5)]
        assert first == second
        for quad in first:
            assert len(quad) == 4
            exact_polygon_area(quad)  # simple by construction


class TestGerbertRule:
    def test_five_six(self):
        report = gerbert_isoceles_area(5, 6)
        assert report.historical == 15
        assert report.exact == 12
        assert report.approx_digits is None

    def test_five_eight(self):
        report = gerbert_isoceles_area(5, 8)
        assert report.historical == 20
        assert report.exact == 12

    def test_degenerate_base(self):
        report = gerbert_isoceles_area(5, 0)
        assert report.historical == 0 and report.exact == 0
        assert report.relative_error is None
        assert "rel error:" not in report.render()
        assert report.as_dict()["rel_error"] is None

    def test_triangle_inequality_enforced(self):
        with pytest.raises(ValueError):
            gerbert_isoceles_area(3, 6)
        with pytest.raises(ValueError):
            gerbert_isoceles_area(3, 7)

    @given(positive_fractions, positive_fractions)
    @settings(max_examples=200)
    def test_never_underestimates(self, leg, base):
        if 2 * leg <= base:
            return
        report = gerbert_isoceles_area(leg, base)
        assert report.absolute_error >= 0


class TestRopeStretchers:
    def test_three_four_five(self):
        assert is_right_triangle(3, 4, 5) is True

    def test_equilateral(self):
        assert is_right_triangle(1, 1, 1) is False

    def test_five_twelve_thirteen(self):
        assert is_right_triangle(5, 12, 13) is True

    def test_order_does_not_matter(self):
        assert is_right_triangle(13, 5, 12) is True

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            is_right_triangle(1, 2, 3)
        with pytest.raises(ValueError):
            is_right_triangle(1, 1, 5)

    def test_triples_smallest_limit(self):
        assert rational_right_triangles(12) == [(3, 4, 5)]

    def test_triples_limit_thirty(self):
        assert rational_right_triangles(30) == [(3, 4, 5), (5, 12, 13)]

    def test_triples_below_smallest_rejected(self):
        with pytest.raises(ValueError):
            rational_right_triangles(11)

    def test_triples_over_cap_rejected(self):
        cap = geometry.TRIPLES_MAX_PERIMETER
        with pytest.raises(ValueError, match=rf"^perimeter limit must be at most {cap}, got {cap + 1}$"):
            rational_right_triangles(cap + 1)

    def test_triples_match_exhaustive_scan(self):
        assert rational_right_triangles(200) == scan_primitive_triples(200)

    def test_triples_all_right_and_primitive(self):
        for a, b, c in rational_right_triangles(500):
            assert is_right_triangle(a, b, c)
            assert math.gcd(math.gcd(a, b), c) == 1
            assert a + b + c <= 500


class TestSeked:
    def test_forty_five_degree_pyramid(self):
        assert seked_from(2, 1, 7) == 7

    def test_worked_example(self):
        assert seked_from(360, 250, 7) == F(126, 25)

    def test_inverses(self):
        seked = seked_from(360, 250)
        assert seked_to_height(360, seked) == 250
        assert seked_to_base(250, seked) == 360

    def test_cotangent(self):
        assert seked_cotangent(7, 7) == 1
        assert seked_cotangent(F(126, 25), 7) == F(18, 25)
        assert seked_cotangent(0, 7) == 0

    def test_round_trips_seeded(self):
        rng = random.Random(31)
        for _ in range(1000):
            base = F(rng.randint(1, 600), rng.randint(1, 60))
            height = F(rng.randint(1, 600), rng.randint(1, 60))
            parts = rng.choice([1, 5, 7, 14])
            seked = seked_from(base, height, parts)
            assert seked_to_height(base, seked, parts) == height
            assert seked_to_base(height, seked, parts) == base

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            seked_from(0, 1)
        with pytest.raises(ValueError):
            seked_from(2, 1, 0)
        with pytest.raises(ValueError):
            seked_to_height(2, 0)


class TestShadow:
    def test_equal_shadow_moment(self):
        assert shadow_height(100, 1, 1) == 100

    def test_double_height_stick(self):
        assert shadow_height(100, 2, 1) == 200

    def test_zero_shadow(self):
        assert shadow_height(0, 1, 1) == 0

    def test_zero_reference_shadow_rejected(self):
        with pytest.raises(ValueError):
            shadow_height(10, 1, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: random_convex_quadrilateral(random.Random(0), 0),
     "max_coord must be >= 1 to fit a convex quadrilateral"),
    (lambda: gerbert_isoceles_area(5, -1), "base must be >= 0"),
    (lambda: seked_cotangent(-1), "seked must be >= 0"),
    (lambda: shadow_height(-1, 1, 1), "shadow length must be >= 0"),
], ids=["max_coord", "gerbert_base", "seked", "shadow"])
def test_refusal_messages(call, message):
    with pytest.raises(ValueError) as exc_info:
        call()
    assert str(exc_info.value) == message


class TestDecimalString:
    def test_truncates_toward_zero(self):
        assert decimal_string(F(1, 3), 6) == "0.333333"
        assert decimal_string(F(-1, 3), 6) == "-0.333333"
        assert decimal_string(F(5, 2), 3) == "2.500"


# -- the Fraction kernel the lattice kernel replaced, kept as a reference --


def ref_orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def ref_on_segment(a, b, p):
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def ref_segments_intersect(p1, p2, q1, q2):
    d1 = ref_orient(q1, q2, p1)
    d2 = ref_orient(q1, q2, p2)
    d3 = ref_orient(p1, p2, q1)
    d4 = ref_orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    if d1 == 0 and ref_on_segment(q1, q2, p1):
        return True
    if d2 == 0 and ref_on_segment(q1, q2, p2):
        return True
    if d3 == 0 and ref_on_segment(p1, p2, q1):
        return True
    if d4 == 0 and ref_on_segment(p1, p2, q2):
        return True
    return False


def ref_validate(vertices):
    pts = [(as_rational(x), as_rational(y)) for x, y in vertices]
    n = len(pts)
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    if len(set(pts)) != n:
        raise ValueError("polygon vertices must be distinct")
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        b1, b2 = pts[(i + 1) % n], pts[(i + 2) % n]
        if ref_orient(a1, a2, b2) == 0:
            along = (a1[0] - b1[0]) * (b2[0] - b1[0]) + (a1[1] - b1[1]) * (b2[1] - b1[1])
            if along > 0:
                raise ValueError("polygon folds back on itself")
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            c1, c2 = pts[j], pts[(j + 1) % n]
            if ref_segments_intersect(a1, a2, c1, c2):
                raise ValueError("polygon edges intersect; not a simple polygon")
    return pts


def ref_area(vertices):
    pts = ref_validate(vertices)
    twice = F(0)
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        twice += x1 * y2 - x2 * y1
    return abs(twice) / 2


def ref_edfu_report(vertices, digits=geometry.SQRT_DIGITS):
    # the vertex count first: more than four is refused before validation
    if len(vertices) > 4:
        raise ValueError("the rule applies to quadrilaterals and triangles only")
    pts = ref_validate(vertices)
    sq = [(x2 - x1) ** 2 + (y2 - y1) ** 2 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1])]
    if len(pts) == 3:
        sq.append(F(0))
    sa, sb, sc, sd = sq
    lo_sum = F(0)
    all_exact = True
    for prod in (sa * sb, sa * sd, sc * sb, sc * sd):
        lo, _, is_exact = sqrt_bounds(prod, digits)
        lo_sum += lo
        all_exact = all_exact and is_exact
    exact_area = ref_area(pts)
    if all_exact:
        return geometry.ErrorReport.build(lo_sum / 4, exact_area)
    return geometry.ErrorReport.build(lo_sum / 4, exact_area, approx_digits=digits)


def outcome(fn, *args):
    """('ok', value) or (exception type, message): the verdict to compare."""
    try:
        return "ok", fn(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def simple_polygon_points(vertices):
    # the checked points, rebuilt from the lattice every polygon oracle reads
    lattice, scale = geometry._simple_lattice(vertices)
    return [(F(x, scale), F(y, scale)) for x, y in lattice]


# Small numerators over mixed denominators: lattice scales from 1 to 84,
# and enough coincidences for collinear runs, touching and crossing edges.
coords = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12]))
points = st.tuples(coords, coords)
free_polygons = st.lists(points, min_size=3, max_size=7, unique=True)


@st.composite
def shaped_polygons(draw):
    """A polygon with one planted feature, or none, at a random vertex."""
    pts = draw(st.lists(points, min_size=3, max_size=6, unique=True))
    i = draw(st.integers(0, len(pts) - 1))
    a, b = pts[i], pts[(i + 1) % len(pts)]
    t = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(5, 4), F(-1, 2)]))
    on_line = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    feature = draw(st.sampled_from(["repeat", "collinear", "fold", "cross", "none"]))
    if feature == "repeat":
        pts.insert(draw(st.integers(0, len(pts))), a)
    elif feature == "collinear":  # a vertex on the edge a-b (or its extension)
        pts.insert(i + 1, on_line)
    elif feature == "fold":  # run on to b, then turn back along the same line
        pts.insert(i + 2, on_line)
    elif feature == "cross" and len(pts) >= 4:
        pts[i], pts[(i + 1) % len(pts)] = b, a
    return pts


polygons = st.one_of(free_polygons, shaped_polygons())


class TestLatticeKernelAgainstFractionKernel:
    @given(polygons)
    @settings(max_examples=400)
    def test_validate_verdict_and_points(self, pts):
        got, want = outcome(simple_polygon_points, pts), outcome(ref_validate, pts)
        assert got == want
        if got[0] == "ok":
            assert all(type(c) is F for p in got[1] for c in p)

    @given(polygons)
    @settings(max_examples=400)
    def test_exact_area(self, pts):
        got, want = outcome(exact_polygon_area, pts), outcome(ref_area, pts)
        assert got == want
        if got[0] == "ok":
            assert type(got[1]) is F

    @given(polygons, st.sampled_from([3, 12, geometry.SQRT_DIGITS]))
    @settings(max_examples=400)
    def test_edfu_report_every_field(self, pts, digits):
        got, want = outcome(edfu_error_report, pts, digits), outcome(ref_edfu_report, pts, digits)
        assert got == want
        if got[0] == "ok":
            assert got[1].as_dict() == want[1].as_dict()

    def test_seeded_convex_quadrilaterals(self):
        rng = random.Random(1618)
        for _ in range(200):
            quad = random_convex_quadrilateral(rng, 60)
            scale = F(rng.randint(1, 12), rng.randint(1, 12))
            scaled = [(x * scale, y / scale) for x, y in quad]
            for pts in (quad, scaled, scaled[:3]):
                assert edfu_error_report(pts) == ref_edfu_report(pts)
                assert exact_polygon_area(pts) == ref_area(pts)

    def test_float_coordinate_refused_alike(self):
        pts = [(0, 0), (1.5, 0), (1, 1)]
        assert outcome(simple_polygon_points, pts) == outcome(ref_validate, pts)
        assert outcome(simple_polygon_points, pts)[0] is TypeError


lattice_points = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


class TestSegmentsIntersect:
    """The lattice predicate on its own: no polygon check reaches its d3
    branch, since the fold-back check or an earlier pair fires first."""

    @given(lattice_points, lattice_points, lattice_points, lattice_points, st.integers(1, 12))
    @settings(max_examples=400)
    def test_matches_the_fraction_kernel(self, p1, p2, q1, q2, scale):
        got = geometry._segments_intersect(p1, p2, q1, q2)
        scaled = [(F(x, scale), F(y, scale)) for x, y in (p1, p2, q1, q2)]
        assert got == ref_segments_intersect(*scaled)
        assert got == geometry._segments_intersect(q1, q2, p1, p2)

    @pytest.mark.parametrize("p1, p2, q1, q2", [
        ((1, 0), (1, 1), (0, 0), (2, 0)),  # d1: p1 on q1-q2
        ((1, 1), (1, 0), (0, 0), (2, 0)),  # d2: p2 on q1-q2
        ((0, 0), (2, 0), (1, 0), (1, 1)),  # d3: q1 on p1-p2
        ((0, 0), (2, 0), (1, 1), (1, 0)),  # d4: q2 on p1-p2
    ])
    def test_touching_ends(self, p1, p2, q1, q2):
        assert geometry._segments_intersect(p1, p2, q1, q2)
        assert geometry._segments_intersect(q1, q2, p1, p2)

    def test_end_on_the_line_past_the_segment(self):
        assert not geometry._segments_intersect((0, 0), (2, 0), (3, 0), (3, 1))


def test_edfu_report_validates_once(monkeypatch):
    # every polygon check runs in _simple_lattice
    calls = []
    validate = geometry._simple_lattice

    def counted(vertices):
        calls.append(1)
        return validate(vertices)

    monkeypatch.setattr(geometry, "_simple_lattice", counted)
    rng = random.Random(7)
    figures = [random_convex_quadrilateral(rng, 50) for _ in range(20)]
    figures += [[(0, 0), (F(3, 2), 0), (F(3, 2), F(4, 3))], [(0, 0), (1, 1), (0, 2), (-1, 1)]]
    for n, figure in enumerate(figures, 1):
        edfu_error_report(figure)
        assert len(calls) == n


def test_edfu_report_counts_vertices_before_validating(monkeypatch):
    # the simple-polygon check is quadratic in the vertex count; five or
    # more vertices, simple or not, are refused before it runs
    def unused(vertices):
        raise AssertionError("polygon validated")

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_simple_lattice", unused)
        for figure in ([(0, 0), (2, 0), (3, 1), (1, 2), (-1, 1)], [(0, 0), (2, 2), (2, 0), (0, 2), (1, 3)]):
            with pytest.raises(ValueError, match="quadrilaterals and triangles only"):
                edfu_error_report(figure)
    # fewer than three keep the validation's own message
    with pytest.raises(ValueError, match="at least 3 vertices"):
        edfu_error_report([(0, 0), (1, 0)])
