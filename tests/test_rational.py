import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scribal import arith, equations, geometry
from scribal.rational import (
    UnitFractionSum,
    as_rational,
    parse_rational,
    parse_unit_fraction_sum,
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

    @pytest.mark.parametrize("call", [
        as_rational,
        arith.decompose,
        geometry.circle_area_egyptian,
        lambda x: equations.HauProblem(x, 2),
        lambda x: arith.sequem_complete(x, 2),
    ], ids=["as_rational", "decompose", "circle", "hau", "sequem"])
    def test_rejects_bools(self, call):
        # a bool is an int to Python, but no exact rational a caller means
        for value in (True, False):
            with pytest.raises(TypeError, match=r"^expected an exact rational, got bool$"):
                call(value)

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
        assert str(UnitFractionSum(3, True, (6,))) == "3 + 2/3 + 1/6"

    def test_render_rational(self):
        assert str(as_rational(F(133, 8))) == "133/8"
        assert str(as_rational(F(-3, 4))) == "-3/4"
        assert str(as_rational(F(10, 2))) == "5"

    def test_parse_rational_both_forms(self):
        assert parse_rational("133/8") == F(133, 8)
        assert parse_rational("16 + 1/2 + 1/8") == F(133, 8)
        assert parse_rational("2/3 + 1/30") == F(7, 10)
        assert parse_rational("-3/4") == F(-3, 4)

    @pytest.mark.parametrize("bad", ["", "one", "1/2 +", "3 4", "2/3x", "1/0"])
    def test_parse_rational_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("text, message", [
        ("٣/٤", "cannot parse rational term '٣/٤' in '٣/٤'"),
        ("1/٤", "cannot parse rational term '1/٤' in '1/٤'"),
        ("١٠", "cannot parse rational term '١٠' in '١٠'"),
    ], ids=["fraction", "denominator", "integer"])
    def test_parse_rational_reads_ascii_digits_only(self, text, message):
        with pytest.raises(ValueError) as exc_info:
            parse_rational(text)
        assert str(exc_info.value) == message

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
        assert parse_rational(str(x)) == x


_REFERENCE_TERM_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


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


# every character str.strip() and the regex \s take as whitespace, and one they do not
_UNICODE_SPACES = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
_one_term_texts = st.builds(
    lambda before, term, after: before + term + after,
    st.text(alphabet=_UNICODE_SPACES + "\u200b", max_size=3),
    _terms,
    st.text(alphabet=_UNICODE_SPACES + "\u200b", max_size=3),
)


@st.composite
def _rational_texts(draw):
    tokens = draw(st.lists(_terms, min_size=1, max_size=5))
    text = "+".join(draw(_spaces) + tok + draw(_spaces) for tok in tokens)
    return draw(_spaces) + text + draw(_spaces)


class TestParseAgainstReference:
    @settings(max_examples=900)
    @given(_rational_texts() | _one_term_texts | st.text(max_size=12))
    @example("\u3000-7/10\x85")
    @example("\u200b1/2")  # a zero-width space is not whitespace
    @example("16 + 1/2 + 1/8")
    @example(" -007/010 + 0003 ")
    @example("1/2 + 3/0 + x")
    @example("x + 3/0")
    @example("1" * 5000 + "/0")  # over the int() digit limit: raised before the zero denominator
    # an empty term anywhere is named first, then the first bad term
    @example("1/0 + ")
    @example(" + 1/2")
    @example("x + ")
    @example("+1/2")
    @example("1" * 5000 + " + ")
    @example("\u3000 7/10 \u3000")  # the regex \s takes off what str.strip() does
    def test_same_value_or_same_error(self, text):
        assert _outcome(parse_rational, text) == _outcome(reference_parse_rational, text)

    @pytest.mark.parametrize("text, outcome", [
        ("+0", (ValueError, "cannot parse rational from '+0'")),
        ("+5", (ValueError, "cannot parse rational from '+5'")),
        ("1/00", (ValueError, "zero denominator in '1/00'")),
        ("-0", F(0)),
        ("007/010", F(7, 10)),
        (" 7\u3000", F(7)),
        ("\x1c1/2", F(1, 2)),
        ("5/", (ValueError, "cannot parse rational term '5/' in '5/'")),
        ("/5", (ValueError, "cannot parse rational term '/5' in '/5'")),
        (" 7/10 ", F(7, 10)),
    ])
    def test_one_term_pinned(self, text, outcome):
        assert _outcome(parse_rational, text) == outcome == _outcome(reference_parse_rational, text)

    @given(st.lists(st.fractions(), min_size=1, max_size=6))
    def test_multi_term_sums(self, parts):
        text = " + ".join(map(str, parts))
        assert parse_rational(text) == sum(parts) == reference_parse_rational(text)


# Each input with the exact result or the exact message it gets: the
# grammar is an optional integer, then an optional 2/3, then 1/d terms,
# every number in ASCII digits with no leading zero.
UNIT_SUM_OUTCOMES = {
    "16 + 1/2 + 1/8": UnitFractionSum(16, False, (2, 8)),
    "0": UnitFractionSum(0),
    "2/3": UnitFractionSum(0, True, ()),
    "3 + 2/3 + 1/6": UnitFractionSum(3, True, (6,)),
    "1/2 + 5": (ValueError, "term '5' is not a unit fraction in '1/2 + 5'"),
    "2/3 + 2/3": (ValueError, "term '2/3' is not a unit fraction in '2/3 + 2/3'"),
    "1/2 + 2/3": (ValueError, "term '2/3' is not a unit fraction in '1/2 + 2/3'"),
    "2/3 + 3": (ValueError, "term '3' is not a unit fraction in '2/3 + 3'"),
    "-1": (ValueError, "unit-fraction sums are non-negative, got '-1'"),
    "1/2 +": (ValueError, "cannot parse unit-fraction sum from '1/2 +'"),
    "1/1": (ValueError, "unit-fraction denominator must be an integer >= 2, got 1"),
    "1/0": (ValueError, "unit-fraction denominator must be an integer >= 2, got 0"),
    "x": (ValueError, "term 'x' is not a unit fraction in 'x'"),
    "1_000 + 1/2": (ValueError, "term '1_000' is not a unit fraction in '1_000 + 1/2'"),
    "05 + 1/02": (ValueError, "term '05' is not a unit fraction in '05 + 1/02'"),
    "٣ + 1/٤": (ValueError, "term '٣' is not a unit fraction in '٣ + 1/٤'"),
    "1/02": (ValueError, "term '1/02' is not a unit fraction in '1/02'"),
    "-0": (ValueError, "unit-fraction sums are non-negative, got '-0'"),
}


def reference_parse_unit_fraction_sum(text: str) -> UnitFractionSum:
    """The earlier parse_unit_fraction_sum, a three-state machine over the terms,
    with the same token rules."""
    tokens = [t.strip() for t in text.strip().split("+")]
    if not tokens or any(not t for t in tokens):
        raise ValueError(f"cannot parse unit-fraction sum from {text!r}")
    integer_part = 0
    two_thirds = False
    denominators: list[int] = []
    state = "integer"  # integer -> two_thirds -> units
    for tok in tokens:
        if state == "integer" and re.fullmatch(r"-[0-9]+", tok):
            raise ValueError(f"unit-fraction sums are non-negative, got {text!r}")
        if state == "integer" and re.fullmatch(r"0|[1-9][0-9]*", tok):
            integer_part = int(tok)
            state = "two_thirds"
            continue
        if state in ("integer", "two_thirds") and tok == "2/3":
            two_thirds = True
            state = "units"
            continue
        m = re.fullmatch(r"1/(0|[1-9][0-9]*)", tok)
        if not m:
            raise ValueError(f"term {tok!r} is not a unit fraction in {text!r}")
        denominators.append(int(m.group(1)))
        state = "units"
    return UnitFractionSum(integer_part, two_thirds, tuple(denominators))


_unit_sum_terms = (
    _digits
    | _digits.map("-{}".format)
    | _digits.map("1/{}".format)
    | st.sampled_from(["2/3", "1/1", "1/0", "3/4", "2/6", "1/ 2", "1 2", "1_000", "1/1_0", "+1",
                       "x", "1/x", "٣", "1/٣", "1/2/3", "2/3 "])
    | _malformed_terms
)


@st.composite
def _unit_sum_texts(draw):
    tokens = draw(st.lists(_unit_sum_terms, min_size=1, max_size=5))
    text = "+".join(draw(_spaces) + tok + draw(_spaces) for tok in tokens)
    return draw(_spaces) + text + draw(_spaces)


class TestParseUnitFractionSum:
    @pytest.mark.parametrize("text", UNIT_SUM_OUTCOMES)
    def test_result_or_message_pinned(self, text):
        assert _outcome(parse_unit_fraction_sum, text) == UNIT_SUM_OUTCOMES[text]

    @settings(max_examples=600)
    @given(_unit_sum_texts() | st.text(max_size=12))
    @example("7 + 2/3 + 1/4 + 1/28")
    @example("2/3 + 1/2 + 1/2")
    @example("05 + 1/02")
    def test_same_value_or_same_error_as_the_state_machine(self, text):
        assert _outcome(parse_unit_fraction_sum, text) == _outcome(
            reference_parse_unit_fraction_sum, text
        )
