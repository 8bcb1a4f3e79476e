import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scribal import equations
from scribal.equations import (
    LADDER_LABELS,
    LADDER_MAX_DIGITS,
    LADDER_MAX_RUNGS,
    HauProblem,
    arithmetic_shares,
    geometric_ladder,
    smallest_share,
    solve_hau,
    solve_hau_false_position,
)

F = Fraction


class TestHau:
    def test_identity_coefficient(self):
        assert solve_hau(HauProblem(F(1), F(19))) == 19

    def test_quantity_and_its_seventh(self):
        problem = HauProblem.from_terms([1, F(1, 7)], 19)
        assert problem.multiplier == F(8, 7)
        answer = solve_hau(problem)
        assert answer == F(133, 8)

    def test_two_thirds_and_half(self):
        # 14 / (2/3 + 1/2) = 14 / (7/6)
        assert solve_hau(HauProblem.from_terms([F(2, 3), F(1, 2)], 14)) == 12

    def test_substitution_certificate(self):
        problem = HauProblem(F(8, 7), F(19))
        assert solve_hau(problem) * problem.multiplier == problem.target

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ValueError):
            HauProblem(F(0), F(5))
        with pytest.raises(ValueError):
            HauProblem.from_terms([F(1, 2), F(-1, 2)], 5)


class TestFalsePosition:
    def test_worked_example(self):
        problem = HauProblem.from_terms([1, F(1, 7)], 19)
        answer, trace = solve_hau_false_position(problem, 7)
        assert trace.trial_result == 8
        assert trace.scale_factor == F(19, 8)
        assert answer == F(133, 8)

    def test_exact_guess_gives_unit_factor(self):
        problem = HauProblem(F(5, 3), F(11))
        exact = solve_hau(problem)
        answer, trace = solve_hau_false_position(problem, exact)
        assert trace.scale_factor == 1 and answer == exact

    def test_hand_check(self):
        answer, trace = solve_hau_false_position(HauProblem(F(3), F(12)), 1)
        assert trace.trial_result == 3
        assert trace.scale_factor == 4
        assert answer == 4

    def test_zero_guess_rejected(self):
        with pytest.raises(ValueError):
            solve_hau_false_position(HauProblem(F(2), F(3)), 0)

    def test_trace_renders(self):
        _, trace = solve_hau_false_position(HauProblem(F(3), F(12)), 1)
        assert trace.render() == "assume 1: gives 3; scale by 4; answer 4"
        assert trace.as_dict()["scale_factor"] == "4"

    def test_agrees_with_algebra_on_seeded_batch(self):
        rng = random.Random(71)
        for _ in range(1000):
            multiplier = F(rng.randint(-60, 60) or 1, rng.randint(1, 60))
            target = F(rng.randint(-600, 600), rng.randint(1, 60))
            guess = F(rng.randint(1, 600), rng.randint(1, 60))
            problem = HauProblem(multiplier, target)
            algebraic = solve_hau(problem)
            by_position, _ = solve_hau_false_position(problem, guess)
            assert by_position == algebraic
            assert by_position * multiplier == target


class TestArithmeticShares:
    def test_zero_difference(self):
        assert arithmetic_shares(10, 10, 0) == [F(1)] * 10

    def test_eighth_difference(self):
        shares = arithmetic_shares(10, 10, F(1, 8))
        assert shares[0] == F(7, 16)
        assert shares[-1] == F(25, 16)
        assert sum(shares) == 10

    def test_hand_check(self):
        assert arithmetic_shares(4, 20, 2) == [2, 4, 6, 8]

    def test_single_share(self):
        assert arithmetic_shares(1, F(7, 3), 5) == [F(7, 3)]

    def test_negative_shares_permitted(self):
        shares = arithmetic_shares(3, 3, 10)
        assert shares[0] < 0 and sum(shares) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            arithmetic_shares(0, 1, 1)

    @given(
        st.integers(min_value=1, max_value=40),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
    )
    @settings(max_examples=300)
    def test_resummation_and_steps(self, count, total, difference):
        shares = arithmetic_shares(count, total, difference)
        assert len(shares) == count
        assert sum(shares) == total
        for left, right in zip(shares, shares[1:]):
            assert right - left == difference

    @given(
        st.integers(min_value=1, max_value=40),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
    )
    @settings(max_examples=300)
    def test_smallest_share_is_the_first(self, count, total, difference):
        assert smallest_share(count, total, difference) == arithmetic_shares(count, total, difference)[0]

    def test_smallest_share_rejects_empty_alike(self):
        with pytest.raises(ValueError) as built:
            arithmetic_shares(0, 1, 1)
        with pytest.raises(ValueError) as direct:
            smallest_share(0, 1, 1)
        assert str(direct.value) == str(built.value) == "need at least one share"


class TestGeometricLadder:
    def test_classic_ladder_of_seven(self):
        ladder = geometric_ladder(7, 5)
        assert [r.value for r in ladder.rungs] == [7, 49, 343, 2401, 16807]
        assert ladder.total == 19607
        assert [r.label for r in ladder.rungs] == list(LADDER_LABELS)

    def test_degenerate_base_one(self):
        ladder = geometric_ladder(1, 5)
        assert [r.value for r in ladder.rungs] == [1, 1, 1, 1, 1]
        assert ladder.total == 5

    def test_base_two(self):
        ladder = geometric_ladder(2, 3)
        assert [r.value for r in ladder.rungs] == [2, 4, 8]
        assert ladder.total == 14

    def test_labels_run_out_quietly(self):
        ladder = geometric_ladder(3, 7)
        assert [r.label for r in ladder.rungs[:5]] == list(LADDER_LABELS)
        assert [r.label for r in ladder.rungs[5:]] == ["", ""]

    def test_closed_form(self):
        for base in range(2, 11):
            for top in range(1, 11):
                ladder = geometric_ladder(base, top)
                assert ladder.total == base * (base**top - 1) // (base - 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            geometric_ladder(0, 3)
        with pytest.raises(ValueError):
            geometric_ladder(7, 0)

    def test_render_lists_total(self):
        text = geometric_ladder(7, 5).render()
        assert "Maass" in text and "19607" in text

    def test_rung_count_capped_before_any_rung(self, monkeypatch):
        def unused(*args):
            raise AssertionError("rung built")

        monkeypatch.setattr(equations, "LadderRung", unused)
        for base, top in ((1, LADDER_MAX_RUNGS + 1), (9, 5000), (7, 20000)):
            with pytest.raises(ValueError, match=f"at most {LADDER_MAX_RUNGS} rungs, got top exponent {top}$"):
                geometric_ladder(base, top)

    def test_top_rung_digits_capped_before_any_rung(self, monkeypatch):
        def unused(*args):
            raise AssertionError("rung built")

        monkeypatch.setattr(equations, "LadderRung", unused)
        # 10**1000 has one digit too many; 2**4000 is caught by its bit count
        for base, top in ((10**100, 10), (10**1000, 1), (2**4000, 1)):
            with pytest.raises(ValueError, match=f"more than {LADDER_MAX_DIGITS} digits"):
                geometric_ladder(base, top)

    def test_ladder_at_the_caps_is_built(self):
        assert len(str(geometric_ladder(10**100, 9).rungs[-1].value)) == 901
        assert len(str(geometric_ladder(10**999, 1).rungs[-1].value)) == LADDER_MAX_DIGITS
        assert geometric_ladder(1, LADDER_MAX_RUNGS).total == LADDER_MAX_RUNGS
