import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scribal import arith, corpus, equations
from scribal.corpus import (
    CATEGORIES,
    ENGINE_ERROR,
    MATCH,
    NO_RECORDED_ANSWER,
    SCRIBAL_ERROR,
    CorpusFormatError,
    ReplayVerdict,
    error_summary,
    load_corpus,
    load_starter_corpus,
    render_report,
    replay,
    replay_all,
    starter_corpus_text,
)

F = Fraction


def make_doc(problems):
    return json.dumps({"problems": problems})


HAU = {
    "id": "hau-1",
    "category": "hau",
    "inputs": {"multiplier": ["1", "1/7"], "target": "19"},
    "scribal_answer": "16 + 1/2 + 1/8",
    "source_note": "test fixture",
}


class TestLoading:
    def test_empty_corpus(self):
        assert load_corpus(make_doc([])) == []

    def test_hau_multiplier_terms_summed(self):
        problems = load_corpus(make_doc([HAU]))
        verdict = replay(problems[0])
        assert verdict.engine_value == F(133, 8)

    def test_duplicate_id_rejected(self):
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(make_doc([HAU, HAU]))

    def test_unknown_category_rejected(self):
        bad = dict(HAU, id="x", category="astronomy")
        with pytest.raises(CorpusFormatError, match="astronomy"):
            load_corpus(make_doc([bad]))

    @pytest.mark.parametrize("category", [["area"], {"area": 1}])
    def test_unhashable_category_rejected(self, category):
        bad = dict(HAU, id="x", category=category)
        with pytest.raises(CorpusFormatError, match="unknown category"):
            load_corpus(make_doc([bad]))

    def test_missing_field_named(self):
        bad = {"id": "x", "category": "seked", "inputs": {"base": "360"}}
        with pytest.raises(CorpusFormatError, match="'height'"):
            load_corpus(make_doc([bad]))

    def test_unexpected_field_named(self):
        bad = {"id": "x", "category": "ladder", "inputs": {"base": 7, "top_exponent": 5, "rungs": 3}}
        with pytest.raises(CorpusFormatError, match="rungs"):
            load_corpus(make_doc([bad]))

    def test_bad_rational_named(self):
        bad = dict(HAU, id="x", scribal_answer="sixteen")
        with pytest.raises(CorpusFormatError, match="x"):
            load_corpus(make_doc([bad]))

    def test_bad_multiplier_term_names_the_field(self):
        for term in ("1/0x", True):
            bad = dict(HAU, id="x", inputs={"multiplier": ["1", term], "target": "19"})
            with pytest.raises(CorpusFormatError, match="^problem 'x': field 'multiplier'"):
                load_corpus(make_doc([bad]))

    def test_boolean_answer_is_not_a_string(self):
        # a JSON true is no integer answer, so it is not parsed as the text 'True'
        bad = dict(HAU, id="x", scribal_answer=True)
        with pytest.raises(CorpusFormatError, match="^problem 'x': 'scribal_answer' must be a string$"):
            load_corpus(make_doc([bad]))
        # an integer answer loads as its value
        (problem,) = load_corpus(make_doc([dict(HAU, scribal_answer=16)]))
        assert problem.scribal_answer == 16

    @pytest.mark.parametrize("problem, message", [
        ({"id": "x", "category": "two_over_n", "inputs": {"n": "5"}},
         "problem 'x': field 'n' must be an integer"),
        ({"id": "x", "category": "sequem", "inputs": {"given": "1", "target": "2", "mode": "sideways"}},
         "problem 'x': field 'mode' must be additive or multiplicative"),
        (3, "each problem must be an object"),
        ({k: v for k, v in HAU.items() if k != "id"}, "each problem needs a non-empty string 'id'"),
        (dict(HAU, id="x", inputs=["19"]), "problem 'x': 'inputs' must be an object"),
        (dict(HAU, id="x", source_note=3), "problem 'x': 'source_note' must be a string"),
        (dict(HAU, id="x", inputs={"multiplier": "1", "target": "٣/٤"}),
         "problem 'x': field 'target': cannot parse rational term '٣/٤' in '٣/٤'"),
        (dict(HAU, id="x", scribal_anwser="19"), "problem 'x': unexpected field 'scribal_anwser'"),
    ], ids=["n", "mode", "problem", "id", "inputs", "source_note", "digits", "key"])
    def test_refusal_named(self, problem, message):
        with pytest.raises(CorpusFormatError) as exc_info:
            load_corpus(make_doc([problem]))
        assert str(exc_info.value) == message

    def test_bad_json(self):
        with pytest.raises(CorpusFormatError, match="JSON"):
            load_corpus("{problems: [")

    # json.loads raises ValueError past the interpreter's integer digit
    # limit and RecursionError past its nesting limit
    @pytest.mark.parametrize("document", [
        '{"problems": [' + "9" * 5000 + "]}",
        "[" * 100_000,
    ], ids=["digits", "depth"])
    def test_unreadable_json_refused(self, document):
        with pytest.raises(CorpusFormatError) as exc_info:
            load_corpus(document)
        message = str(exc_info.value)
        assert message.startswith("corpus is not valid JSON: ") and "\n" not in message

    def test_non_object_document(self):
        with pytest.raises(CorpusFormatError):
            load_corpus("[]")

    def test_category_registry_matches_dispatch(self):
        assert set(CATEGORIES) == set(corpus._CATEGORIES)
        for category in corpus._CATEGORIES.values():
            assert callable(category.compute)

    def test_value_types_checked_at_load(self):
        for bad_inputs in (
            {"floor_area": True, "length": "2"},
            {"floor_area": "wide", "length": "2"},
            {"floor_area": [], "length": "2"},
        ):
            doc = make_doc([{"id": "v", "category": "volume", "inputs": bad_inputs}])
            with pytest.raises(CorpusFormatError, match="floor_area"):
                load_corpus(doc)


class TestReplay:
    def test_match(self):
        verdict = replay(load_corpus(make_doc([HAU]))[0])
        assert verdict.status == MATCH
        assert verdict.deviation == 0

    def test_scribal_error_with_exact_deviation(self):
        corrupted = dict(HAU, scribal_answer="16")
        verdict = replay(load_corpus(make_doc([corrupted]))[0])
        assert verdict.status == SCRIBAL_ERROR
        assert verdict.deviation == F(-5, 8)

    def test_no_recorded_answer(self):
        silent = {k: v for k, v in HAU.items() if k != "scribal_answer"}
        verdict = replay(load_corpus(make_doc([silent]))[0])
        assert verdict.status == NO_RECORDED_ANSWER
        assert verdict.scribal_value is None and verdict.deviation is None

    def test_engine_error_is_a_verdict(self):
        # shape is valid at load; the engine rejects the value at replay
        bad = {
            "id": "zero-men",
            "category": "loaf_division",
            "inputs": {"loaves": 3, "men": 0},
        }
        verdict = replay(load_corpus(make_doc([bad]))[0])
        assert verdict.status == ENGINE_ERROR
        assert verdict.engine_value is None
        assert verdict.note

    def test_programming_error_propagates(self, monkeypatch):
        # only value rejections become engine_error verdicts; a bug is not one
        def broken(**inputs):
            raise TypeError("compute bug")

        hau = corpus._CATEGORIES["hau"]._replace(compute=broken)
        monkeypatch.setitem(corpus._CATEGORIES, "hau", hau)
        with pytest.raises(TypeError, match="compute bug"):
            replay(load_corpus(make_doc([HAU]))[0])

    def test_duplicate_resolution_limit_is_engine_error(self, monkeypatch):
        # no category decomposes by splitting, so one is made to; a lowered
        # step limit stands in for an input that cascades too far
        splitting = arith.DecompositionPolicy(strategy=arith.SPLITTING)

        def split_share(loaves, men):
            return arith.decompose(Fraction(loaves, men), splitting).value()

        loaf_division = corpus._CATEGORIES["loaf_division"]._replace(compute=split_share)
        monkeypatch.setitem(corpus._CATEGORIES, "loaf_division", loaf_division)
        monkeypatch.setattr(arith, "_DUPLICATE_STEP_LIMIT", 0)
        problem = {"id": "split", "category": "loaf_division", "inputs": {"loaves": 7, "men": 10}}
        verdict = replay(load_corpus(make_doc([problem]))[0])
        assert verdict.status == ENGINE_ERROR
        assert verdict.note == "duplicate resolution did not settle within 0 splitting steps"

    def test_progression_below_one_share_is_engine_error(self):
        # same verdict note as the library's own share split gives
        with pytest.raises(ValueError) as exc_info:
            equations.arithmetic_shares(0, 1, 1)
        bad = {"id": "no-shares", "category": "progression",
               "inputs": {"term_count": 0, "first_term": "2", "difference": "2"}}
        verdict = replay(load_corpus(make_doc([bad]))[0])
        assert verdict.status == ENGINE_ERROR
        assert verdict.note == str(exc_info.value) == "need at least one share"

    def test_progression_total_builds_no_shares(self, monkeypatch):
        def unused(*args):
            raise AssertionError("shares built")

        monkeypatch.setattr(equations, "arithmetic_shares", unused)
        count = 300_000
        big = {"id": "many-shares", "category": "progression",
               "inputs": {"term_count": count, "first_term": "1/2", "difference": "1/3"}}
        verdict = replay(load_corpus(make_doc([big]))[0])
        assert verdict.status == NO_RECORDED_ANSWER
        assert verdict.engine_value == count * F(1, 2) + F(count * (count - 1), 2) * F(1, 3)

    def test_tunnu_builds_no_shares(self, monkeypatch):
        def unused(*args):
            raise AssertionError("shares built")

        monkeypatch.setattr(equations, "arithmetic_shares", unused)
        count = 300_000
        big = {"id": "many-shares", "category": "tunnu",
               "inputs": {"term_count": count, "total": "10", "difference": "1/8"}}
        verdict = replay(load_corpus(make_doc([big]))[0])
        assert verdict.status == NO_RECORDED_ANSWER
        assert verdict.engine_value == F(10, count) - F(count - 1, 2) * F(1, 8)
        none = {"id": "no-shares", "category": "tunnu",
                "inputs": {"term_count": 0, "total": "10", "difference": "1/8"}}
        verdict = replay(load_corpus(make_doc([none]))[0])
        assert verdict.status == ENGINE_ERROR
        assert verdict.note == "need at least one share"

    def test_ladder_over_cap_is_engine_error(self, monkeypatch):
        def unused(*args):
            raise AssertionError("rung built")

        monkeypatch.setattr(equations, "LadderRung", unused)
        big = {"id": "tall-ladder", "category": "ladder", "inputs": {"base": 7, "top_exponent": 20000}}
        verdict = replay(load_corpus(make_doc([big]))[0])
        assert verdict.status == ENGINE_ERROR
        assert verdict.note == "ladder takes at most 1000 rungs, got top exponent 20000"

    def test_two_over_n_row_value(self):
        doc = make_doc([
            {"id": "t", "category": "two_over_n", "inputs": {"n": 5}, "scribal_answer": "1/3 + 1/15"}
        ])
        assert replay(load_corpus(doc)[0]).status == MATCH

    def test_area_shapes_dispatch(self):
        doc = make_doc([
            {"id": "sq", "category": "area", "inputs": {"shape": "square", "side": "8"},
             "scribal_answer": "64"},
            {"id": "tz", "category": "area",
             "inputs": {"shape": "trapezoid", "p1": "6", "p2": "4", "height": "20"},
             "scribal_answer": "100"},
            {"id": "ed", "category": "area",
             "inputs": {"shape": "edfu", "a": "3", "b": "4", "c": "5", "d": "0"},
             "scribal_answer": "8"},
        ])
        verdicts = replay_all(load_corpus(doc))
        assert all(v.status == MATCH for v in verdicts)

    def test_unknown_shape_rejected_at_load(self):
        doc = make_doc([
            {"id": "bad", "category": "area", "inputs": {"shape": "heptagon", "side": "1"}}
        ])
        with pytest.raises(CorpusFormatError, match="shape"):
            load_corpus(doc)

    @pytest.mark.parametrize("shape", [["square"], {"square": 1}])
    def test_unhashable_shape_rejected_at_load(self, shape):
        doc = make_doc([{"id": "bad", "category": "area", "inputs": {"shape": shape, "side": "1"}}])
        with pytest.raises(CorpusFormatError, match="shape"):
            load_corpus(doc)

    def test_shape_dimensions_required_at_load(self):
        doc = make_doc([
            {"id": "bad", "category": "area", "inputs": {"shape": "triangle", "base": "4"}}
        ])
        with pytest.raises(CorpusFormatError, match="height"):
            load_corpus(doc)


class TestStarterCorpus:
    def test_loads_with_every_category(self):
        problems = load_starter_corpus()
        assert {p.category for p in problems} == set(CATEGORIES)
        assert all(p.source_note for p in problems)

    def test_statuses(self):
        verdicts = replay_all(load_starter_corpus())
        summary = error_summary(verdicts)
        assert summary.total == len(verdicts) == 12
        assert summary.status_counts[MATCH] == 10
        assert summary.status_counts[SCRIBAL_ERROR] == 1
        assert summary.status_counts[NO_RECORDED_ANSWER] == 1
        assert summary.status_counts[ENGINE_ERROR] == 0

    def test_each_field_parsed_once(self, monkeypatch):
        parsed = []
        real = corpus.parse_rational

        def counting(text):
            parsed.append(text)
            return real(text)

        monkeypatch.setattr(corpus, "parse_rational", counting)
        expected = []
        for raw in json.loads(starter_corpus_text())["problems"]:
            for field, value in raw["inputs"].items():
                if field not in ("mode", "shape"):
                    expected += [v for v in (value if isinstance(value, list) else [value])
                                 if isinstance(v, str)]
            if "scribal_answer" in raw:
                expected.append(str(raw["scribal_answer"]))
        problems = load_starter_corpus()
        assert sorted(parsed) == sorted(expected) and len(expected) > len(problems)
        replay_all(problems)
        assert len(parsed) == len(expected)  # replay parses nothing again

    def test_partition_property(self):
        verdicts = replay_all(load_starter_corpus())
        summary = error_summary(verdicts)
        assert sum(summary.status_counts.values()) == summary.total

    def test_categories_counted_in_sorted_order(self):
        # ids put volume before area; the report prints the counts in this order
        verdicts = [ReplayVerdict(pid, cat, MATCH, F(1), F(1), F(0)) for pid, cat in
                    (("a", "volume"), ("b", "area"), ("c", "hau"))]
        assert list(error_summary(verdicts).category_counts) == ["area", "hau", "volume"]

    def test_slip_is_highlighted(self):
        verdicts = replay_all(load_starter_corpus())
        summary = error_summary(verdicts)
        assert summary.largest_deviation_id == "hau-seventh-19-miscopy"
        assert summary.largest_deviation == F(-5, 8)

    def test_byte_identical_reports(self):
        for fmt in ("text", "json", "csv"):
            first = render_report(replay_all(load_corpus(starter_corpus_text())), fmt)
            second = render_report(replay_all(load_corpus(starter_corpus_text())), fmt)
            assert first == second

    def test_text_report_shape(self):
        text = render_report(replay_all(load_starter_corpus()), "text")
        assert text.startswith("corpus replay: 12 problems")
        assert "largest deviation: -5/8 (hau-seventh-19-miscopy)" in text

    def test_json_report_round_trips(self):
        doc = json.loads(render_report(replay_all(load_starter_corpus()), "json"))
        assert doc["summary"]["total"] == 12
        ids = [p["id"] for p in doc["problems"]]
        assert ids == sorted(ids)

    def test_csv_report_rows(self):
        lines = render_report(replay_all(load_starter_corpus()), "csv").splitlines()
        assert lines[0] == "id,category,status,engine_value,scribal_value,deviation"
        assert len(lines) == 13

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report([], "xml")


def reference_error_summary(verdicts):
    """The earlier error_summary, which walked the verdicts in id order."""
    status_counts = {s: 0 for s in corpus.STATUSES}
    category_counts = {}
    worst_id = worst = None
    for v in sorted(verdicts, key=lambda v: v.problem_id):
        status_counts[v.status] += 1
        category_counts.setdefault(v.category, {s: 0 for s in corpus.STATUSES})[v.status] += 1
        if v.deviation is not None and v.deviation != 0:
            if worst is None or abs(v.deviation) > abs(worst):
                worst, worst_id = v.deviation, v.problem_id
    category_counts = dict(sorted(category_counts.items()))
    return corpus.ReplaySummary(len(verdicts), status_counts, category_counts, worst_id, worst)


def _with_orders(summary):
    """The summary with every dict also as its list of items, so order counts."""
    return (summary, list(summary.status_counts.items()),
            [(cat, list(counts.items())) for cat, counts in summary.category_counts.items()])


# few ids, categories and deviations, so that ties in |deviation| are common
_verdicts = st.lists(
    st.builds(
        ReplayVerdict,
        st.sampled_from("abcdefgh"),
        st.sampled_from(["hau", "area", "volume"]),
        st.sampled_from(corpus.STATUSES),
        st.none(),
        st.none(),
        st.sampled_from([None, F(0), F(1, 2), F(-1, 2), F(1, 3), F(-2)]),
    ),
    max_size=12,
    unique_by=lambda v: v.problem_id,
)


class TestErrorSummary:
    def test_summary_counts_and_worst_slip(self):
        verdicts = [
            ReplayVerdict("b", "hau", SCRIBAL_ERROR, F(1), F(3, 2), F(1, 2)),
            ReplayVerdict("c", "area", SCRIBAL_ERROR, F(1), F(1, 2), F(-1, 2)),
            ReplayVerdict("a", "hau", SCRIBAL_ERROR, F(1), F(1, 2), F(-1, 2)),
            ReplayVerdict("d", "area", MATCH, F(1), F(1), F(0)),
            ReplayVerdict("e", "seked", ENGINE_ERROR, None, F(1), None, "refused"),
        ]
        for order in (verdicts, verdicts[::-1]):
            summary = error_summary(order)
            assert (summary.largest_deviation_id, summary.largest_deviation) == ("a", F(-1, 2))
            assert summary.category_counts == {
                "area": {MATCH: 1, SCRIBAL_ERROR: 1, NO_RECORDED_ANSWER: 0, ENGINE_ERROR: 0},
                "hau": {MATCH: 0, SCRIBAL_ERROR: 2, NO_RECORDED_ANSWER: 0, ENGINE_ERROR: 0},
                "seked": {MATCH: 0, SCRIBAL_ERROR: 0, NO_RECORDED_ANSWER: 0, ENGINE_ERROR: 1},
            }

    def test_a_zero_deviation_is_never_named(self):
        verdicts = [ReplayVerdict("a", "hau", MATCH, F(1), F(1), F(0)),
                    ReplayVerdict("b", "hau", NO_RECORDED_ANSWER, F(1), None, None)]
        summary = error_summary(verdicts)
        assert (summary.largest_deviation_id, summary.largest_deviation) == (None, None)
        assert "largest deviation" not in render_report(verdicts, "text")
        doc = json.loads(render_report(verdicts, "json"))["summary"]
        assert (doc["largest_deviation"], doc["largest_deviation_id"]) == (None, None)

    @given(_verdicts, st.randoms(use_true_random=False))
    def test_any_order_gives_the_reference_summary(self, verdicts, rng):
        shuffled = list(verdicts)
        rng.shuffle(shuffled)
        want = _with_orders(reference_error_summary(verdicts))
        assert _with_orders(error_summary(verdicts)) == want
        assert _with_orders(error_summary(shuffled)) == want

    @given(_verdicts)
    def test_worst_slip_is_the_smallest_id_of_the_largest(self, verdicts):
        summary = error_summary(verdicts)
        slips = [v for v in verdicts if v.deviation]
        if not slips:
            assert (summary.largest_deviation_id, summary.largest_deviation) == (None, None)
            return
        size = max(abs(v.deviation) for v in slips)
        worst = min((v for v in slips if abs(v.deviation) == size), key=lambda v: v.problem_id)
        assert (summary.largest_deviation_id, summary.largest_deviation) == (worst.problem_id, worst.deviation)

    @given(_verdicts)
    def test_each_category_has_its_own_counts(self, verdicts):
        summary = error_summary(verdicts)
        counts = [summary.status_counts, *summary.category_counts.values()]
        assert len({id(c) for c in counts}) == len(counts)
