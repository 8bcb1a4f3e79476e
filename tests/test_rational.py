import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scribal.rational import (
    UnitFractionSum,
    as_rational,
    parse_rational,
    parse_unit_fraction_sum,
    render_rational,
)

F = Fraction


class TestOps:
    # the library coerces its inputs with as_rational and computes with
    # Fraction's own operators
    def test_add_unit_fractions(self):
        assert as_rational(F(1, 3)) + as_rational(F(1, 6)) == F(1, 2)

    def test_mul_inverse_pair(self):
        assert as_rational(F(2, 3)) * as_rational(F(3, 2)) == 1

    def test_div_by_four(self):
        # hand check: 256/81 / 4 = 256/324 = 64/81
        assert as_rational(F(256, 81)) / as_rational(4) == F(64, 81)

    def test_sub(self):
        assert as_rational(1) - as_rational(F(7, 10)) == F(3, 10)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            as_rational(F(1, 2)) / as_rational(0)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    @given(st.fractions(), st.fractions(), st.fractions())
    def test_field_axioms_spot_check(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(st.one_of(st.fractions(), st.integers()), st.one_of(st.fractions(), st.integers()))
    def test_results_canonical(self, a, b):
        a, b = as_rational(a), as_rational(b)
        for value in (a + b, a - b, a * b):
            assert value.denominator > 0
            from math import gcd

            assert gcd(abs(value.numerator), value.denominator) == 1


class TestUnitFractionSum:
    def test_half_plus_sixth(self):
        assert UnitFractionSum(0, False, (2, 6)).value() == F(2, 3)

    def test_with_integer_part(self):
        # 16 + 1/2 + 1/8 summed directly: 16 + 5/8
        assert UnitFractionSum(16, False, (2, 8)).value() == F(133, 8)

    def test_with_two_thirds_marker(self):
        # 2/3 + 1/30 summed directly: 21/30
        assert UnitFractionSum(0, True, (30,)).value() == F(7, 10)

    def test_term_count_counts_marker_once(self):
        assert UnitFractionSum(3, True, (4, 12)).term_count == 3
        assert UnitFractionSum(5).term_count == 0

    def test_rejects_denominator_one(self):
        with pytest.raises(ValueError):
            UnitFractionSum(0, False, (1, 2))

    def test_rejects_unsorted_denominators(self):
        with pytest.raises(ValueError):
            UnitFractionSum(0, False, (6, 2))

    def test_rejects_duplicate_denominators(self):
        with pytest.raises(ValueError):
            UnitFractionSum(0, False, (4, 4))

    def test_rejects_negative_integer_part(self):
        with pytest.raises(ValueError):
            UnitFractionSum(-1)


unit_sums = st.builds(
    UnitFractionSum,
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
    st.lists(st.integers(min_value=2, max_value=10**5), unique=True, max_size=8).map(
        lambda ds: tuple(sorted(ds))
    ),
)


class TestTextForms:
    def test_render_examples(self):
        assert UnitFractionSum(16, False, (2, 8)).render() == "16 + 1/2 + 1/8"
        assert UnitFractionSum(0, True, (30,)).render() == "2/3 + 1/30"
        assert UnitFractionSum(5).render() == "5"
        assert UnitFractionSum(0).render() == "0"

    def test_render_rational(self):
        assert render_rational(F(133, 8)) == "133/8"
        assert render_rational(F(-3, 4)) == "-3/4"
        assert render_rational(F(10, 2)) == "5"

    def test_parse_rational_both_forms(self):
        assert parse_rational("133/8") == F(133, 8)
        assert parse_rational("16 + 1/2 + 1/8") == F(133, 8)
        assert parse_rational("2/3 + 1/30") == F(7, 10)
        assert parse_rational("-3/4") == F(-3, 4)

    @pytest.mark.parametrize("bad", ["", "one", "1/2 +", "3 4", "2/3x", "1/0"])
    def test_parse_rational_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_parse_unit_sum(self):
        u = parse_unit_fraction_sum("16 + 1/2 + 1/8")
        assert u == UnitFractionSum(16, False, (2, 8))
        assert parse_unit_fraction_sum("2/3") == UnitFractionSum(0, True, ())
        assert parse_unit_fraction_sum("0") == UnitFractionSum(0)

    @pytest.mark.parametrize("bad", ["3/4", "1/2 + 2/3", "1/2 + 1/2", "1/6 + 1/2", "-1"])
    def test_parse_unit_sum_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_unit_fraction_sum(bad)

    @given(unit_sums)
    def test_round_trip_exact(self, u):
        assert parse_unit_fraction_sum(u.render()) == u

    @given(st.fractions())
    def test_rational_round_trip(self, x):
        assert parse_rational(render_rational(x)) == x


_REFERENCE_TERM_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def reference_parse_rational(text: str) -> Fraction:
    """The earlier parse_rational, which summed ``Fraction(term)`` per term."""
    tokens = [t.strip() for t in text.strip().split("+")]
    if not tokens or any(not t for t in tokens):
        raise ValueError(f"cannot parse rational from {text!r}")
    total = Fraction(0)
    for tok in tokens:
        if not _REFERENCE_TERM_RE.match(tok):
            raise ValueError(f"cannot parse rational term {tok!r} in {text!r}")
        try:
            total += Fraction(tok)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return total


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the exception type and message are what is compared
        return type(exc), str(exc)


_spaces = st.sampled_from(["", " ", "  ", "\t", "\n", "\u3000"])
_digits = st.text(alphabet="0123456789", min_size=1, max_size=6)  # leading zeros and 0 included
_well_formed_terms = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(["", "-", "+"]),
    _digits,
    st.none() | _digits,
)
_malformed_terms = st.sampled_from(
    ["", "x", "1/", "/2", "1//2", "1.5", "1/-2", "--1", "1 2", "1 / 2", "1_000", "1e3", "\u00bd",
     "\u0663", "\u0663/\u0664"]
) | st.text(alphabet="0123456789/-. x_", max_size=6)
_terms = _well_formed_terms | _malformed_terms


@st.composite
def _rational_texts(draw):
    tokens = draw(st.lists(_terms, min_size=1, max_size=5))
    text = "+".join(draw(_spaces) + tok + draw(_spaces) for tok in tokens)
    return draw(_spaces) + text + draw(_spaces)


class TestParseAgainstReference:
    @settings(max_examples=600)
    @given(_rational_texts() | st.text(max_size=12))
    @example("16 + 1/2 + 1/8")
    @example(" -007/010 + 0003 ")
    @example("1/2 + 3/0 + x")
    @example("x + 3/0")
    @example("1" * 5000 + "/0")  # over the int() digit limit: raised before the zero denominator
    def test_same_value_or_same_error(self, text):
        assert _outcome(parse_rational, text) == _outcome(reference_parse_rational, text)

    @given(st.lists(st.fractions(), min_size=1, max_size=6))
    def test_multi_term_sums(self, parts):
        text = " + ".join(render_rational(x) for x in parts)
        assert parse_rational(text) == sum(parts) == reference_parse_rational(text)
