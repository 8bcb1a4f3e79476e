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

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from io import StringIO
from typing import Callable

from . import arith, equations, geometry
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


# The compute functions read the values typed and checked at load.


def _compute_two_over_n(p: CorpusProblem) -> Fraction:
    return arith.decompose(Fraction(2, p.inputs["n"]), arith.TABLE_POLICY).value()


def _compute_loaf_division(p: CorpusProblem) -> Fraction:
    return arith.divide_loaves(p.inputs["loaves"], p.inputs["men"]).value()


def _compute_sequem(p: CorpusProblem) -> Fraction:
    return arith.sequem_complete(p.inputs["given"], p.inputs["target"], p.inputs["mode"])


def _compute_hau(p: CorpusProblem) -> Fraction:
    problem = equations.HauProblem.from_terms(p.inputs["multiplier"], p.inputs["target"])
    return equations.solve_hau(problem)


def _compute_tunnu(p: CorpusProblem) -> Fraction:
    shares = equations.arithmetic_shares(
        p.inputs["term_count"], p.inputs["total"], p.inputs["difference"]
    )
    return shares[0]  # the smallest share is the one the texts quote


def _compute_progression(p: CorpusProblem) -> Fraction:
    count, first, diff = p.inputs["term_count"], p.inputs["first_term"], p.inputs["difference"]
    if count < 1:
        raise ValueError("need at least one share")  # arithmetic_shares' message, byte for byte
    return count * first + Fraction(count * (count - 1), 2) * diff


_AREA_SHAPES = {
    "square": (("side",), lambda v: geometry.square_area(v["side"])),
    "rectangle": (("width", "height"), lambda v: geometry.rect_area(v["width"], v["height"])),
    "triangle": (("base", "height"), lambda v: geometry.triangle_area(v["base"], v["height"])),
    "two_sides": (("s1", "s2"), lambda v: geometry.triangle_area_two_sides(v["s1"], v["s2"])),
    "trapezoid": (
        ("p1", "p2", "height"),
        lambda v: geometry.trapezoid_area(v["p1"], v["p2"], v["height"]),
    ),
    "circle": (("diameter",), lambda v: geometry.circle_area_egyptian(v["diameter"])),
    "edfu": (
        ("a", "b", "c", "d"),
        lambda v: geometry.edfu_area(geometry.SideQuad(v["a"], v["b"], v["c"], v["d"])),
    ),
}


def _compute_area(p: CorpusProblem) -> Fraction:
    _, fn = _AREA_SHAPES[p.inputs["shape"]]
    return fn(p.inputs)


def _compute_volume(p: CorpusProblem) -> Fraction:
    return geometry.granary_volume(p.inputs["floor_area"], p.inputs["length"])


def _compute_seked(p: CorpusProblem) -> Fraction:
    return geometry.seked_from(p.inputs["base"], p.inputs["height"], p.inputs.get("parts", 7))


def _compute_ladder(p: CorpusProblem) -> Fraction:
    return Fraction(equations.geometric_ladder(p.inputs["base"], p.inputs["top_exponent"]).total)


_CATEGORY_COMPUTE: dict[str, Callable[[CorpusProblem], Fraction]] = {
    "two_over_n": _compute_two_over_n,
    "loaf_division": _compute_loaf_division,
    "sequem": _compute_sequem,
    "hau": _compute_hau,
    "tunnu": _compute_tunnu,
    "progression": _compute_progression,
    "area": _compute_area,
    "volume": _compute_volume,
    "seked": _compute_seked,
    "ladder": _compute_ladder,
}

CATEGORIES = tuple(_CATEGORY_COMPUTE)

# field kinds per category; "terms" is a rational or a list of rationals
_INPUT_KINDS: dict[str, dict[str, str]] = {
    "two_over_n": {"n": "int"},
    "loaf_division": {"loaves": "int", "men": "int"},
    "sequem": {"given": "rational", "target": "rational", "mode": "mode"},
    "hau": {"multiplier": "terms", "target": "rational"},
    "tunnu": {"term_count": "int", "total": "rational", "difference": "rational"},
    "progression": {"term_count": "int", "first_term": "rational", "difference": "rational"},
    "volume": {"floor_area": "rational", "length": "rational"},
    "seked": {"base": "rational", "height": "rational", "parts": "int"},
    "ladder": {"base": "int", "top_exponent": "int"},
}
_OPTIONAL_FIELDS = {"seked": ("parts",)}


def _validate_inputs(pid: str, category: str, inputs: dict) -> dict:
    # category fixes the field names and kinds; everything parses here, once,
    # so replay can only fail on engine-level value rejections
    if category == "area":
        shape = inputs.get("shape")
        if shape not in _AREA_SHAPES:
            raise CorpusFormatError(
                f"problem {pid!r}: field 'shape' must be one of {sorted(_AREA_SHAPES)}"
            )
        kinds = {f: "rational" for f in _AREA_SHAPES[shape][0]}
        kinds["shape"] = "shape"
        optional: tuple[str, ...] = ()
    else:
        kinds = _INPUT_KINDS[category]
        optional = _OPTIONAL_FIELDS.get(category, ())
    for f in kinds:
        if f not in inputs and f not in optional:
            raise CorpusFormatError(f"problem {pid!r}: category {category!r} needs field {f!r}")
    values: dict[str, object] = {}
    for f, value in inputs.items():
        kind = kinds.get(f)
        if kind is None:
            raise CorpusFormatError(f"problem {pid!r}: unexpected field {f!r} for {category!r}")
        if kind == "rational":
            value = _rat(value, f, pid)
        elif kind == "int":
            value = _int(value, f, pid)
        elif kind == "mode":
            if value not in (arith.ADDITIVE, arith.MULTIPLICATIVE):
                raise CorpusFormatError(
                    f"problem {pid!r}: field 'mode' must be additive or multiplicative"
                )
        elif kind == "terms":
            terms = value if isinstance(value, list) else [value]
            value = [_rat(term, "term", pid) for term in terms]
        values[f] = value
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
        if category not in _CATEGORY_COMPUTE:
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
    compute = _CATEGORY_COMPUTE[problem.category]
    try:
        engine_value = compute(problem)
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


def render_report(verdicts: list[ReplayVerdict], fmt: str = "text") -> str:
    """Batch report over verdicts, ordered by problem id; byte-stable."""
    verdicts = sorted(verdicts, key=lambda v: v.problem_id)
    summary = error_summary(verdicts)
    if fmt == "json":
        doc = {
            "problems": [_verdict_row(v) for v in verdicts],
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
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        out = StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "category", "status", "engine_value", "scribal_value", "deviation"])
        for v in verdicts:
            row = _verdict_row(v)
            writer.writerow([
                row["id"], row["category"], row["status"],
                row["engine_value"] or "", row["scribal_value"] or "", row["deviation"] or "",
            ])
        return out.getvalue()
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
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
