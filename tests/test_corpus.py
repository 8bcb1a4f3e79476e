import json
from fractions import Fraction

import pytest

from scribal import arith, corpus, equations
from scribal.corpus import (
    CATEGORIES,
    ENGINE_ERROR,
    MATCH,
    NO_RECORDED_ANSWER,
    SCRIBAL_ERROR,
    CorpusFormatError,
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

    def test_bad_json(self):
        with pytest.raises(CorpusFormatError, match="JSON"):
            load_corpus("{problems: [")

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
