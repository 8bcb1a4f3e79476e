"""Recompute recorded problems and grade the answers written next to them.

A corpus is a JSON document of problems in the papyrus style: category,
named inputs, and optionally the answer the scribe recorded. Replaying a
problem computes the engine's exact value, compares it with the recorded
answer, and files a verdict; a batch report then counts matches, scribal
slips, and problems with no recorded answer. All rationals travel as
strings ("133/8", "16 + 1/2 + 1/8") so nothing is ever rounded.

Reports are deterministic: identical corpus in, byte-identical report out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, NamedTuple

from . import arith, equations, geometry
from .formats import render
from .rational import parse_rational

MATCH = "match"
SCRIBAL_ERROR = "scribal_error"
NO_RECORDED_ANSWER = "no_recorded_answer"
ENGINE_ERROR = "engine_error"
STATUSES = (MATCH, SCRIBAL_ERROR, NO_RECORDED_ANSWER, ENGINE_ERROR)


class CorpusFormatError(ValueError):
    """A corpus document that does not follow the schema."""


@dataclass(frozen=True)
class CorpusProblem:
    id: str
    category: str
    inputs: dict  # field name -> value typed at load: Fraction, int, list of Fraction or str
    scribal_answer: Fraction | None
    scribal_answer_text: str | None
    source_note: str


@dataclass(frozen=True)
class ReplayVerdict:
    problem_id: str
    category: str
    status: str
    engine_value: Fraction | None
    scribal_value: Fraction | None
    deviation: Fraction | None
    note: str = ""


def _rat(value: object, field: str, problem_id: str) -> Fraction:
    try:
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if isinstance(value, str):
            return parse_rational(value)
    except ValueError as exc:
        raise CorpusFormatError(f"problem {problem_id!r}: field {field!r}: {exc}") from None
    raise CorpusFormatError(
        f"problem {problem_id!r}: field {field!r} must be an integer or rational string"
    )


def _int(value: object, field: str, problem_id: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CorpusFormatError(f"problem {problem_id!r}: field {field!r} must be an integer")
    return value


def _terms(value: object, field: str, problem_id: str) -> list[Fraction]:
    """A rational or a list of rationals, summed by the compute."""
    return [_rat(term, "term", problem_id) for term in (value if isinstance(value, list) else [value])]


def _mode(value: object, field: str, problem_id: str) -> str:
    if value not in (arith.ADDITIVE, arith.MULTIPLICATIVE):
        raise CorpusFormatError(f"problem {problem_id!r}: field 'mode' must be additive or multiplicative")
    return value


def _shape(value: object, field: str, problem_id: str) -> str:
    return value  # checked first, since the shape names the other fields


def _progression_total(term_count: int, first_term: Fraction, difference: Fraction) -> Fraction:
    if term_count < 1:
        raise ValueError("need at least one share")  # arithmetic_shares' message, byte for byte
    return term_count * first_term + Fraction(term_count * (term_count - 1), 2) * difference


class _Category(NamedTuple):
    kinds: dict  # field name -> the parser that types and checks it at load
    compute: Callable[..., Fraction]  # the engine value from the typed fields, by name
    optional: tuple[str, ...] = ()


# A compute whose library function benchmarks/tracer.py wraps calls it
# through the module attribute, so that the wrapper sees the call.
_CATEGORIES: dict[str, _Category] = {
    "two_over_n": _Category(
        {"n": _int}, lambda n: arith.decompose(Fraction(2, n), arith.TABLE_POLICY).value()
    ),
    "loaf_division": _Category(
        {"loaves": _int, "men": _int}, lambda loaves, men: arith.divide_loaves(loaves, men).value()
    ),
    "sequem": _Category(
        {"given": _rat, "target": _rat, "mode": _mode},
        lambda given, target, mode: arith.sequem_complete(given, target, mode),
    ),
    "hau": _Category(
        {"multiplier": _terms, "target": _rat},
        lambda multiplier, target: equations.solve_hau(
            equations.HauProblem.from_terms(multiplier, target)
        ),
    ),
    # the smallest share is the one the texts quote
    "tunnu": _Category(
        {"term_count": _int, "total": _rat, "difference": _rat},
        lambda term_count, total, difference: equations.smallest_share(term_count, total, difference),
    ),
    "progression": _Category(
        {"term_count": _int, "first_term": _rat, "difference": _rat}, _progression_total
    ),
    # the dimensions come from geometry.AREA_RULES[shape]
    "area": _Category(
        {"shape": _shape}, lambda shape, **dims: geometry.AREA_RULES[shape][1](**dims)
    ),
    "volume": _Category({"floor_area": _rat, "length": _rat}, geometry.granary_volume),
    "seked": _Category(
        {"base": _rat, "height": _rat, "parts": _int}, geometry.seked_from, optional=("parts",)
    ),
    "ladder": _Category(
        {"base": _int, "top_exponent": _int},
        lambda base, top_exponent: Fraction(equations.geometric_ladder(base, top_exponent).total),
    ),
}

CATEGORIES = tuple(_CATEGORIES)


def _validate_inputs(pid: str, category: str, inputs: dict) -> dict:
    # category fixes the field names and kinds; everything parses here, once,
    # so replay can only fail on engine-level value rejections
    kinds, _, optional = _CATEGORIES[category]
    if "shape" in kinds:
        shape = inputs.get("shape")
        if shape not in geometry.AREA_RULES:
            raise CorpusFormatError(
                f"problem {pid!r}: field 'shape' must be one of {sorted(geometry.AREA_RULES)}"
            )
        kinds = {**dict.fromkeys(geometry.AREA_RULES[shape][0], _rat), **kinds}
    for f in kinds:
        if f not in inputs and f not in optional:
            raise CorpusFormatError(f"problem {pid!r}: category {category!r} needs field {f!r}")
    values: dict[str, object] = {}
    for f, value in inputs.items():
        parse = kinds.get(f)
        if parse is None:
            raise CorpusFormatError(f"problem {pid!r}: unexpected field {f!r} for {category!r}")
        values[f] = parse(value, f, pid)
    return values


def load_corpus(document: str) -> list[CorpusProblem]:
    """Parse and validate a corpus document (JSON text).

    Every problem is checked against its category's field list here, so a
    malformed problem fails at load, never mid-replay. Duplicate ids are
    rejected.
    """
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"corpus is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("problems"), list):
        raise CorpusFormatError("corpus must be an object with a 'problems' array")
    problems: list[CorpusProblem] = []
    seen: set[str] = set()
    for raw in data["problems"]:
        if not isinstance(raw, dict):
            raise CorpusFormatError("each problem must be an object")
        pid = raw.get("id")
        if not isinstance(pid, str) or not pid:
            raise CorpusFormatError("each problem needs a non-empty string 'id'")
        if pid in seen:
            raise CorpusFormatError(f"duplicate problem id {pid!r}")
        seen.add(pid)
        category = raw.get("category")
        if category not in _CATEGORIES:
            raise CorpusFormatError(
                f"problem {pid!r}: unknown category {category!r}; expected one of {CATEGORIES}"
            )
        inputs = raw.get("inputs")
        if not isinstance(inputs, dict):
            raise CorpusFormatError(f"problem {pid!r}: 'inputs' must be an object")
        values = _validate_inputs(pid, category, inputs)
        answer_text = raw.get("scribal_answer")
        answer: Fraction | None = None
        if answer_text is not None:
            if isinstance(answer_text, int):
                answer_text = str(answer_text)
            if not isinstance(answer_text, str):
                raise CorpusFormatError(f"problem {pid!r}: 'scribal_answer' must be a string")
            try:
                answer = parse_rational(answer_text)
            except ValueError as exc:
                raise CorpusFormatError(f"problem {pid!r}: scribal_answer: {exc}") from None
        note = raw.get("source_note", "")
        if not isinstance(note, str):
            raise CorpusFormatError(f"problem {pid!r}: 'source_note' must be a string")
        problems.append(CorpusProblem(pid, category, values, answer, answer_text, note))
    return problems


def load_corpus_file(path) -> list[CorpusProblem]:
    with open(path, encoding="utf-8") as fh:
        return load_corpus(fh.read())


def starter_corpus_text() -> str:
    """The bundled reconstruction corpus (one problem per category, plus slips)."""
    return resources.files("scribal").joinpath("data/starter_corpus.json").read_text("utf-8")


def load_starter_corpus() -> list[CorpusProblem]:
    return load_corpus(starter_corpus_text())


def replay(problem: CorpusProblem) -> ReplayVerdict:
    """Recompute one problem and compare with the recorded answer."""
    compute = _CATEGORIES[problem.category].compute
    try:
        engine_value = compute(**problem.inputs)
    except (ValueError, ArithmeticError) as exc:  # a value the engine rejects is a verdict
        return ReplayVerdict(problem.id, problem.category, ENGINE_ERROR, None, problem.scribal_answer, None, str(exc))
    if problem.scribal_answer is None:
        return ReplayVerdict(problem.id, problem.category, NO_RECORDED_ANSWER, engine_value, None, None)
    deviation = problem.scribal_answer - engine_value
    status = MATCH if deviation == 0 else SCRIBAL_ERROR
    return ReplayVerdict(problem.id, problem.category, status, engine_value, problem.scribal_answer, deviation)


def replay_all(problems: list[CorpusProblem]) -> list[ReplayVerdict]:
    return [replay(p) for p in sorted(problems, key=lambda p: p.id)]


@dataclass(frozen=True)
class ReplaySummary:
    total: int
    status_counts: dict
    category_counts: dict
    largest_deviation_id: str | None
    largest_deviation: Fraction | None


def error_summary(verdicts: list[ReplayVerdict]) -> ReplaySummary:
    """Counts by status and category, with the worst slip called out."""
    status_counts = {s: 0 for s in STATUSES}
    category_counts: dict[str, dict[str, int]] = {}
    worst_id: str | None = None
    worst: Fraction | None = None
    for v in sorted(verdicts, key=lambda v: v.problem_id):
        status_counts[v.status] += 1
        category_counts.setdefault(v.category, {s: 0 for s in STATUSES})[v.status] += 1
        if v.deviation is not None and v.deviation != 0:
            if worst is None or abs(v.deviation) > abs(worst):
                worst, worst_id = v.deviation, v.problem_id
    return ReplaySummary(len(verdicts), status_counts, category_counts, worst_id, worst)


def _verdict_row(v: ReplayVerdict) -> dict[str, object]:
    return {
        "id": v.problem_id,
        "category": v.category,
        "status": v.status,
        "engine_value": str(v.engine_value) if v.engine_value is not None else None,
        "scribal_value": str(v.scribal_value) if v.scribal_value is not None else None,
        "deviation": str(v.deviation) if v.deviation is not None else None,
        "note": v.note or None,
    }


# the CSV report leaves out the note
_REPORT_COLUMNS = ("id", "category", "status", "engine_value", "scribal_value", "deviation")


def render_report(verdicts: list[ReplayVerdict], fmt: str = "text") -> str:
    """Batch report over verdicts, ordered by problem id; byte-stable."""
    verdicts = sorted(verdicts, key=lambda v: v.problem_id)
    summary = error_summary(verdicts)
    if fmt != "text":
        rows = [_verdict_row(v) for v in verdicts]
        doc = {
            "problems": rows,
            "summary": {
                "total": summary.total,
                "status_counts": summary.status_counts,
                "category_counts": {
                    cat: summary.category_counts[cat] for cat in sorted(summary.category_counts)
                },
                "largest_deviation_id": summary.largest_deviation_id,
                "largest_deviation": (
                    str(summary.largest_deviation) if summary.largest_deviation is not None else None
                ),
            },
        }
        return render(fmt, "", doc, _REPORT_COLUMNS, rows)
    width = max([len(v.problem_id) for v in verdicts] + [2])
    lines = [f"corpus replay: {summary.total} problems"]
    lines.append(
        "  " + "  ".join(f"{s}: {summary.status_counts[s]}" for s in STATUSES)
    )
    for cat in sorted(summary.category_counts):
        parts = ", ".join(
            f"{s} {n}" for s, n in summary.category_counts[cat].items() if n
        )
        lines.append(f"  {cat}: {parts}")
    if summary.largest_deviation is not None:
        lines.append(
            f"  largest deviation: {summary.largest_deviation} ({summary.largest_deviation_id})"
        )
    lines.append("")
    for v in verdicts:
        engine = str(v.engine_value) if v.engine_value is not None else "-"
        scribal = str(v.scribal_value) if v.scribal_value is not None else "-"
        extra = f"  deviation {v.deviation}" if v.deviation is not None and v.deviation != 0 else ""
        if v.status == ENGINE_ERROR:
            extra = f"  ({v.note})"
        lines.append(
            f"{v.problem_id:<{width}}  {v.category:<13} {v.status:<18} engine {engine}"
            f"  scribal {scribal}{extra}"
        )
    return "\n".join(lines) + "\n"
