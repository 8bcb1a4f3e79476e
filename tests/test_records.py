"""The result records: immutable, with pinned fields.

A record is a named tuple: it iterates, compares equal to a plain tuple of
the same fields, and makes a changed copy with ``_replace``. ``HauProblem``
and ``SideQuad`` validate in their constructor, and ``_replace`` goes
through it too. ``UnitFractionSum`` is a slotted class that validates in
its constructor and can still be built field by field, bypassing it.
``DecompositionPolicy`` is a dataclass, for ``dataclasses.replace``.
"""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

from scribal import arith, cli, corpus, equations, formats, geometry, rational
from scribal.equations import HauProblem
from scribal.geometry import SideQuad
from scribal.rational import UnitFractionSum

F = Fraction


def _records():
    """One instance of each record type, as the library builds them."""
    problem = corpus.load_starter_corpus()[0]
    verdict = corpus.replay(problem)
    duplation = arith.duplation_multiply(3, 5)
    ladder = equations.geometric_ladder(7, 2)
    hau = HauProblem(F(8, 7), 19)
    return [
        arith.table_2_over_n(n_max=5)[0],
        duplation.rows[0],
        duplation,
        problem,
        verdict,
        corpus.error_summary([verdict]),
        hau,
        equations.solve_hau_false_position(hau, 7)[1],
        ladder.rungs[0],
        ladder,
        geometry.ErrorReport.build(F(256, 81), F(3)),
        SideQuad(3, 4, 5, 6),
    ]


RECORDS = _records()

FIELDS = {
    arith.TableEntry: ("n", "decomposition"),
    arith.DuplationRow: ("power", "value", "selected"),
    arith.DuplationResult: ("multiplier", "multiplicand", "product", "rows"),
    corpus.CorpusProblem: ("id", "category", "inputs", "scribal_answer", "source_note"),
    corpus.ReplayVerdict: (
        "problem_id", "category", "status", "engine_value", "scribal_value", "deviation", "note",
    ),
    corpus.ReplaySummary: (
        "total", "status_counts", "category_counts", "largest_deviation_id", "largest_deviation",
    ),
    equations.HauProblem: ("multiplier", "target"),
    equations.FalsePositionTrace: ("guess", "trial_result", "scale_factor", "answer"),
    equations.LadderRung: ("exponent", "value", "label"),
    equations.GeometricLadder: ("rungs", "total"),
    geometry.ErrorReport: ("historical", "exact", "absolute_error", "relative_error", "approx_digits"),
    geometry.SideQuad: ("a", "b", "c", "d"),
}


def test_every_record_type_covered():
    assert [type(r) for r in RECORDS] == list(FIELDS)


@pytest.mark.parametrize("cls, fields", FIELDS.items(), ids=[cls.__name__ for cls in FIELDS])
def test_fields_pinned(cls, fields):
    assert cls._fields == fields


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_attributes_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_its_fields_as_a_tuple(record):
    values = tuple(getattr(record, name) for name in record._fields)
    assert tuple(record) == values and record == values
    assert record._replace() == record


def test_decomposition_policy_is_the_only_dataclass():
    found = {
        obj
        for module in (arith, cli, corpus, equations, formats, geometry, rational)
        for _, obj in inspect.getmembers(module, inspect.isclass)
        if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
    }
    assert found == {arith.DecompositionPolicy}


def test_policy_takes_dataclasses_replace():
    greedy = dataclasses.replace(arith.DEFAULT_POLICY, strategy=arith.GREEDY)
    assert greedy.strategy == arith.GREEDY
    assert greedy.max_terms == arith.DEFAULT_POLICY.max_terms
    assert arith.TABLE_POLICY == dataclasses.replace(arith.DEFAULT_POLICY, allow_two_thirds=False)
    with pytest.raises(ValueError, match="unknown strategy"):
        dataclasses.replace(arith.DEFAULT_POLICY, strategy="guess")


class TestUnitFractionSum:
    def test_fields_pinned(self):
        assert UnitFractionSum.__slots__ == ("integer_part", "two_thirds", "denominators")

    def test_attributes_cannot_be_assigned_or_deleted(self):
        u = UnitFractionSum(1, True, (4,))
        for name in UnitFractionSum.__slots__:
            with pytest.raises(AttributeError):
                setattr(u, name, getattr(u, name))
            with pytest.raises(AttributeError):
                delattr(u, name)
        with pytest.raises(AttributeError):
            u.extra = 1

    def test_defaults(self):
        u = UnitFractionSum()
        assert (u.integer_part, u.two_thirds, u.denominators) == (0, False, ())

    def test_equal_and_hashed_by_fields(self):
        u = UnitFractionSum(1, True, [4])
        assert u == UnitFractionSum(1, True, (4,)) and hash(u) == hash(UnitFractionSum(1, True, (4,)))
        assert u != UnitFractionSum(1, False, (4,))
        assert u != (1, True, (4,))
        assert repr(u) == "UnitFractionSum(integer_part=1, two_thirds=True, denominators=(4,))"

    def test_copies_and_pickles(self):
        u = UnitFractionSum(16, False, (2, 8))
        assert copy.copy(u) == u and copy.deepcopy(u) == u
        assert pickle.loads(pickle.dumps(u)) == u

    def test_can_be_built_field_by_field(self):
        # how a checker builds an invalid value to test its own invariant checks
        u = object.__new__(UnitFractionSum)
        for name, value in zip(UnitFractionSum.__slots__, (0, False, (4, 4))):
            object.__setattr__(u, name, value)
        assert u.denominators == (4, 4) and u.value() == Fraction(1, 2)

    def test_list_of_denominators_stored_as_tuple(self):
        u = UnitFractionSum(0, False, [2, 6])
        assert type(u.denominators) is tuple and u.denominators == (2, 6)

    def test_errors_in_order(self):
        # the denominators become a tuple first, then the integer part is checked
        with pytest.raises(TypeError):
            UnitFractionSum(-1, False, 5)
        with pytest.raises(ValueError, match=r"^integer part must be a non-negative integer, got -1$"):
            UnitFractionSum(-1, False, [1])
        with pytest.raises(ValueError, match=r"^integer part must be a non-negative integer, got 1.5$"):
            UnitFractionSum(1.5)
        with pytest.raises(
            ValueError, match=r"^unit-fraction denominator must be an integer >= 2, got 1$"
        ):
            UnitFractionSum(0, False, [3, 1])
        with pytest.raises(ValueError, match=r"^denominators must be strictly increasing, got \(3, 2\)$"):
            UnitFractionSum(0, False, [3, 2])

    def test_flags_of_the_wrong_type_refused(self):
        # a bool integer part rendered as "True"; a non-bool marker counted
        # 2/3 in the value yet compared unequal to the True marker
        with pytest.raises(ValueError, match=r"^integer part must be a non-negative integer, got True$"):
            UnitFractionSum(True)
        for marker in ("no", 1, 0, None):
            with pytest.raises(ValueError, match=f"^two_thirds must be a bool, got {marker!r}$"):
                UnitFractionSum(0, marker, (2,))


class TestHauProblem:
    def test_fields_coerced(self):
        p = HauProblem(2, 3)
        assert type(p.multiplier) is Fraction and type(p.target) is Fraction

    def test_errors_in_order(self):
        # both fields are coerced before the zero check
        with pytest.raises(TypeError, match="got float"):
            HauProblem(0, 0.5)
        with pytest.raises(TypeError, match="got float"):
            HauProblem(1.5, 0)
        with pytest.raises(ValueError, match=r"^hau problem needs a nonzero multiplier$"):
            HauProblem(0, 1)

    def test_replace_validates(self):
        p = HauProblem(F(8, 7), 19)
        assert p._replace(target=38) == HauProblem(F(8, 7), 38)
        with pytest.raises(ValueError, match="nonzero multiplier"):
            p._replace(multiplier=0)


class TestSideQuad:
    def test_sides_coerced(self):
        assert all(type(s) is Fraction for s in SideQuad(3, 4, 5, 0))

    def test_errors_in_order(self):
        # every side is coerced first, then each is checked for sign, then the zeros are counted
        with pytest.raises(TypeError, match="got float"):
            SideQuad(-1, 2, 3, 0.5)
        with pytest.raises(ValueError, match=r"^side b must be >= 0, got -2$"):
            SideQuad(1, -2, -3, 1)
        with pytest.raises(ValueError, match=r"^side b must be >= 0, got -1$"):
            SideQuad(0, -1, 0, 1)
        with pytest.raises(ValueError, match=r"^at most one side may be zero$"):
            SideQuad(0, 1, 0, 1)

    def test_replace_validates(self):
        q = SideQuad(3, 4, 5, 6)
        assert q._replace(d=0) == SideQuad(3, 4, 5, 0)
        with pytest.raises(ValueError, match="side a"):
            q._replace(a=-1)


@pytest.mark.parametrize("call, message", [
    (lambda n: arith.duplation_multiply(n, 3), "duplation multiplies positive integers"),
    (lambda n: arith.duplation_multiply(3, n), "duplation multiplies positive integers"),
    (lambda n: arith.divide_loaves(n, 2), "loaf division needs positive integer loaves and men"),
    (lambda n: arith.divide_loaves(2, n), "loaf division needs positive integer loaves and men"),
    (lambda n: equations.geometric_ladder(n, 3), "ladder takes integer base and exponent"),
    (lambda n: equations.geometric_ladder(3, n), "ladder takes integer base and exponent"),
    (lambda n: geometry.seked_from(4, 2, n), "parts per unit must be an integer >= 1"),
    (lambda n: equations.arithmetic_shares(n, 10, 1), "share count must be an integer"),
], ids=["multiplier", "multiplicand", "loaves", "men", "base", "top_exponent", "parts", "share_count"])
def test_a_bool_is_refused_like_a_non_integer(call, message):
    # a string, and a whole Fraction past a size cap, are refused by type
    # before any cap compares them
    for value in (True, False, F(3), "3", F(20000)):
        with pytest.raises(ValueError) as exc_info:
            call(value)
        assert str(exc_info.value) == message, value
