"""The ``scribal`` command line.

Each subcommand is a thin adapter over the library; values printed here
are the library's exact values, rendered as fractions (never floats).
Rationals on the command line look like ``19``, ``1/7``, or sums
``16 + 1/2 + 1/8``; comma lists like ``1,1/7`` add up, which is how a
problem statement's coefficient terms are written.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from random import Random

from . import arith, corpus, equations, geometry
from .formats import FORMATS, render
from .rational import parse_rational


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rational_terms(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",") if part.strip()]


# One row per DecompositionPolicy field, in help order: the field, its flag
# and its argparse keywords. Each flag stores under its field and defaults
# to the command's own policy.
_POLICY_FLAGS = (
    ("strategy", "--strategy", dict(choices=arith.STRATEGIES)),
    ("max_terms", "--max-terms", dict(type=int)),
    ("max_denominator", "--max-denominator", dict(type=int)),
    ("allow_two_thirds", "--two-thirds", dict(
        action=argparse.BooleanOptionalAction, help="allow the 2/3 primitive as a term")),
    ("prefer_divisor_rich", "--divisor-rich", dict(
        action=argparse.BooleanOptionalAction,
        help="tie-break toward divisor-rich largest denominators")),
)


def _policy(args) -> arith.DecompositionPolicy:
    return arith.DecompositionPolicy(**{field: getattr(args, field) for field, *_ in _POLICY_FLAGS})


# Each handler returns its output in args.format; records whose CSV is
# not simply the JSON document pass their own columns or rows.


def _cmd_decompose(args) -> str:
    u = arith.decompose(args.value, _policy(args))
    doc = {"value": str(args.value), "decomposition": u.render(), "terms": u.term_count}
    return render(args.format, f"{args.value} = {u.render()}", doc)


def _cmd_table2n(args) -> str:
    entries = arith.table_2_over_n(_policy(args), n_max=args.max, include_even=args.include_even)
    return arith.render_table(entries, args.format)


def _cmd_mul(args) -> str:
    result = arith.duplation_multiply(args.a, args.b)
    rows = [r._asdict() for r in result.rows]
    doc = {"a": result.multiplier, "b": result.multiplicand, "product": result.product, "rows": rows}
    csv_rows = [{**row, "selected": int(row["selected"])} for row in rows]
    return render(args.format, result.render(), doc, rows=csv_rows)


def _cmd_loaves(args) -> str:
    share = arith.divide_loaves(args.loaves, args.men, _policy(args))
    doc = {
        "loaves": args.loaves,
        "men": args.men,
        "share": share.render(),
        "share_value": str(share.value()),
    }
    return render(args.format, f"{share.render()} (= {share.value()})", doc)


def _cmd_sequem(args) -> str:
    result = arith.sequem_complete(args.given, args.target, args.mode)
    doc = {"given": str(args.given), "target": str(args.target), "mode": args.mode,
           "result": str(result)}
    return render(args.format, str(result), doc)


def _cmd_hau(args) -> str:
    problem = equations.HauProblem.from_terms(args.multiplier, args.target)
    trace = None
    if args.guess is not None:
        answer, trace = equations.solve_hau_false_position(problem, args.guess)
    else:
        answer = equations.solve_hau(problem)
    unit = arith.decompose(answer, _policy(args)) if answer > 0 else None
    text = f"{answer} ({unit.render()})" if unit else str(answer)
    if trace:
        text = trace.render() + "\n" + text
    doc = {
        "multiplier": str(problem.multiplier),
        "target": str(problem.target),
        "answer": str(answer),
        "unit_fractions": unit.render() if unit else None,
        "trace": trace.as_dict() if trace else None,
    }
    return render(args.format, text, doc, ["multiplier", "target", "answer", "unit_fractions"])


def _cmd_shares(args) -> str:
    shares = equations.arithmetic_shares(args.count, args.total, args.difference)
    texts = [str(s) for s in shares]
    rows = [{"index": i, "share": s} for i, s in enumerate(texts, 1)]
    doc = {"shares": texts, "total": str(sum(shares))}
    return render(args.format, ", ".join(texts), doc, rows=rows)


def _cmd_ladder(args) -> str:
    ladder = equations.geometric_ladder(args.base, args.top)
    rungs = [{"exponent": r.exponent, "label": r.label, "value": r.value} for r in ladder.rungs]
    return render(args.format, ladder.render(), {"rungs": rungs, "total": ladder.total}, rows=rungs)


# the field shapes (circle and edfu have commands of their own) and their
# dimension flags, each once, in the shapes' order
_AREA_SHAPES = {s.replace("_", "-"): s for s in geometry.AREA_RULES if s not in ("circle", "edfu")}
_AREA_FLAGS = dict.fromkeys(f for s in _AREA_SHAPES.values() for f in geometry.AREA_RULES[s][0])


def _cmd_area(args) -> str:
    needed, rule = geometry.AREA_RULES[_AREA_SHAPES[args.shape]]
    missing = [f"--{f}" for f in needed if getattr(args, f) is None]
    if missing:
        raise ValueError(f"shape {args.shape!r} needs {' '.join(missing)}")
    area = rule(*(getattr(args, f) for f in needed))
    return render(args.format, str(area), {"shape": args.shape, "area": str(area)})


def _cmd_circle(args) -> str:
    area = geometry.circle_area_egyptian(args.diameter)
    return render(args.format, str(area), {"diameter": str(args.diameter), "area": str(area)})


_PI_COLUMNS = ["historical", "exact_decimal", "abs_error_decimal", "rel_error"]


def _cmd_pi_error(args) -> str:
    if args.compare:
        rows = geometry.pi_comparison_set(args.digits)
        text = "\n\n".join(f"{label}\n{rep.render()}" for label, rep in rows)
        doc = [{"label": label, **rep.as_dict()} for label, rep in rows]
        return render(args.format, text, doc, ["label", *_PI_COLUMNS])
    report = geometry.implied_pi_error(args.digits)
    return render(args.format, report.render(), report.as_dict(), _PI_COLUMNS)


def _parse_coords(text: str) -> list[tuple[Fraction, Fraction]]:
    points = []
    for chunk in text.replace(";", " ").split():
        x, _, y = chunk.partition(",")
        if not y:
            raise ValueError(f"coordinate {chunk!r} is not x,y")
        points.append((parse_rational(x), parse_rational(y)))
    return points


# Each random figure takes some 100 us, so --random is capped: 10**4
# figures take about 1 s.
EDFU_MAX_RANDOM = 10**4


def _cmd_edfu(args) -> str:
    if args.random < 0:
        raise ValueError(f"--random takes a count N >= 0, got {args.random}")
    if args.random > EDFU_MAX_RANDOM:
        raise ValueError(f"--random takes a count N <= {EDFU_MAX_RANDOM}, got {args.random}")
    if args.random:
        rng = Random(args.seed)
        worst = None
        zero_count = 0
        for _ in range(args.random):
            quad = geometry.random_convex_quadrilateral(rng, args.max_coord)
            report = geometry.edfu_error_report(quad)
            if report.absolute_error == 0:
                zero_count += 1
            if worst is None or report.absolute_error > worst[0]:
                worst = (report.absolute_error, quad)
        text = (
            f"{args.random} random convex quadrilaterals (seed {args.seed}): "
            f"rule never under-estimated; {zero_count} exact; "
            f"worst over-estimate {geometry.decimal_string(worst[0], 6)} on {worst[1]}"
        )
        doc = {
            "count": args.random,
            "seed": args.seed,
            "exact_matches": zero_count,
            "worst_abs_error": str(worst[0]),
            "worst_quad": [list(p) for p in worst[1]],
        }
        return render(args.format, text, doc, rows=[{"result": text}])
    if args.coords:
        points = _parse_coords(args.coords)
        report = geometry.edfu_error_report(points)
        columns = ["historical", "exact", "abs_error", "rel_error"]
        return render(args.format, report.render(), report.as_dict(), columns)
    if not args.sides:
        raise ValueError("edfu needs --sides, --coords, or --random")
    sides = args.sides
    if len(sides) != 4:
        raise ValueError("--sides takes four comma-separated lengths")
    quad = geometry.SideQuad(*sides)
    area = geometry.edfu_area(quad)
    split = geometry.edfu_area_via_diagonal_split(quad)
    if split != area:
        raise RuntimeError(f"edfu area {area} disagrees with its diagonal-split check {split}")
    doc = {"sides": [str(s) for s in sides], "area": str(area), "diagonal_split_check": str(split)}
    rows = [{"sides": "|".join(doc["sides"]), "area": str(area)}]
    return render(args.format, str(area), doc, rows=rows)


def _cmd_seked(args) -> str:
    given = {name: getattr(args, name) for name in ("base", "height", "seked")}
    have = [k for k, v in given.items() if v is not None]
    if len(have) != 2:
        raise ValueError("give exactly two of --base, --height, --seked")
    if given["seked"] is None:
        value, solved = geometry.seked_from(given["base"], given["height"], args.parts), "seked"
    elif given["height"] is None:
        value, solved = geometry.seked_to_height(given["base"], given["seked"], args.parts), "height"
    else:
        value, solved = geometry.seked_to_base(given["height"], given["seked"], args.parts), "base"
    payload = {k: str(v) if v is not None else None for k, v in given.items()}
    payload[solved] = str(value)
    payload["parts"] = args.parts
    seked = value if solved == "seked" else given["seked"]
    payload["cotangent"] = str(geometry.seked_cotangent(seked, args.parts))
    return render(args.format, f"{solved} = {value}", payload)


def _cmd_shadow(args) -> str:
    height = geometry.shadow_height(args.shadow, args.stick, args.stick_shadow)
    doc = {"object_shadow": str(args.shadow), "reference_height": str(args.stick),
           "reference_shadow": str(args.stick_shadow), "height": str(height)}
    return render(args.format, str(height), doc)


def _cmd_granary(args) -> str:
    volume = geometry.granary_volume(args.floor_area, args.length)
    doc = {"floor_area": str(args.floor_area), "length": str(args.length), "volume": str(volume)}
    return render(args.format, str(volume), doc)


def _cmd_triples(args) -> str:
    triples = geometry.rational_right_triangles(args.limit)
    text = "\n".join(f"{a} {b} {c}" for a, b, c in triples)
    return render(args.format, text, [{"a": a, "b": b, "c": c} for a, b, c in triples])


def _cmd_corpus(args) -> str:
    if args.path:
        problems = corpus.load_corpus_file(args.path)
    else:
        problems = corpus.load_starter_corpus()
    return corpus.render_report(corpus.replay_all(problems), args.format)


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


# One row per subcommand: name, help, its own arguments, the policy whose
# values the policy flags default to (None: no policy flags), handler.
# Every subcommand also takes --format, after the policy flags.
COMMANDS = (
    ("decompose", "write a rational as a unit-fraction sum", (
        _arg("value", type=_rational),
    ), arith.DEFAULT_POLICY, _cmd_decompose),
    ("table2n", "the 2/n doubling table", (
        _arg("--max", type=int, default=99),
        _arg("--include-even", action="store_true"),
    ), arith.TABLE_POLICY, _cmd_table2n),
    ("mul", "multiply by doubling (duplation)", (
        _arg("a", type=int),
        _arg("b", type=int),
    ), None, _cmd_mul),
    ("loaves", "divide loaves among men in unit fractions", (
        _arg("loaves", type=int),
        _arg("men", type=int),
    ), arith.DEFAULT_POLICY, _cmd_loaves),
    ("sequem", "completion reckoning", (
        _arg("--given", type=_rational, required=True),
        _arg("--target", type=_rational, required=True),
        _arg("--mode", choices=(arith.ADDITIVE, arith.MULTIPLICATIVE), default=arith.ADDITIVE),
    ), None, _cmd_sequem),
    ("hau", "solve multiplier * x = target", (
        _arg("--multiplier", type=_rational_terms, required=True,
             help="coefficient terms, comma-separated: 1,1/7"),
        _arg("--target", type=_rational, required=True),
        _arg("--guess", type=_rational, default=None,
             help="solve by false position from this trial value"),
    ), arith.DEFAULT_POLICY, _cmd_hau),
    ("shares", "split a total in arithmetic progression", (
        _arg("--count", type=int, required=True),
        _arg("--total", type=_rational, required=True),
        _arg("--difference", type=_rational, required=True),
    ), None, _cmd_shares),
    ("ladder", "powers of a base and their sum", (
        _arg("--base", type=int, default=7),
        _arg("--top", type=int, default=5),
    ), None, _cmd_ladder),
    ("area", "field areas by the recorded rules", (
        _arg("--shape", choices=tuple(_AREA_SHAPES), required=True),
        *(_arg(f"--{flag}", type=_rational, default=None)
          for flag in _AREA_FLAGS),
    ), None, _cmd_area),
    ("circle", "circle area by the eight-ninths rule", (
        _arg("--diameter", type=_rational, required=True),
    ), None, _cmd_circle),
    ("pi-error", "how far the implied pi overshoots", (
        _arg("--digits", type=int, default=15),
        _arg("--compare", action="store_true",
             help="also grade the neighbouring traditions' constants"),
    ), None, _cmd_pi_error),
    ("edfu", "quadrilateral area by opposite-side means", (
        _arg("--sides", type=_rational_terms, default=None,
             help="four cyclic side lengths: 3,4,5,0"),
        _arg("--coords", default=None,
             help="vertices 'x,y x,y x,y [x,y]'; grades the rule against the exact area"),
        _arg("--random", type=int, default=0, metavar="N",
             help="grade the rule on N random convex integer quadrilaterals"),
        _arg("--seed", type=int, default=0),
        _arg("--max-coord", type=int, default=50),
    ), None, _cmd_edfu),
    ("seked", "pyramid slope: any of base/height/seked from the other two", (
        _arg("--base", type=_rational, default=None),
        _arg("--height", type=_rational, default=None),
        _arg("--seked", type=_rational, default=None),
        _arg("--parts", type=int, default=7),
    ), None, _cmd_seked),
    ("shadow", "height from shadow by a reference stick", (
        _arg("--shadow", type=_rational, required=True),
        _arg("--stick", type=_rational, required=True),
        _arg("--stick-shadow", type=_rational, required=True),
    ), None, _cmd_shadow),
    ("granary", "granary capacity: floor area times length", (
        _arg("--floor-area", type=_rational, required=True),
        _arg("--length", type=_rational, required=True),
    ), None, _cmd_granary),
    ("triples", "primitive right-triangle side lengths", (
        _arg("--limit", type=int, required=True, help="perimeter limit (>= 12)"),
    ), None, _cmd_triples),
    ("corpus", "replay a problem corpus and report verdicts", (
        _arg("path", nargs="?", default=None, help="corpus JSON (default: bundled corpus)"),
    ), None, _cmd_corpus),
)

_ROWS = {row[0]: row for row in COMMANDS}
COMMAND_NAMES = tuple(_ROWS)


def _add_command_arguments(parser, name, arguments, policy, fn) -> None:
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    if policy is not None:
        for field, flag, kwargs in _POLICY_FLAGS:
            default = getattr(policy, field)
            if kwargs.get("action") is argparse.BooleanOptionalAction:
                # argparse 3.11+ prints no default for an on/off flag; the
                # default differs by command (2/3 is off for table2n)
                kwargs = {**kwargs, "help": f"{kwargs['help']} (default: {'on' if default else 'off'})"}
            parser.add_argument(flag, dest=field, default=default, **kwargs)
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.set_defaults(fn=fn, command=name)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or with ``command`` that command's own parser.

    The command's own parser takes the arguments after the command name
    and prints the help and errors the whole parser prints for them; only
    the whole parser reports a missing or unknown command, arguments left
    over, or prints the top-level help.
    """
    if command is not None:
        name, _, *row = _ROWS[command]
        parser = argparse.ArgumentParser(prog=f"scribal {name}")
        _add_command_arguments(parser, name, *row)
        return parser
    parser = argparse.ArgumentParser(
        prog="scribal",
        description="Exact scribal reckoning: unit fractions, papyrus problems, surveyor rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, *row in COMMANDS:
        _add_command_arguments(sub.add_parser(name, help=help_text), name, *row)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the whole parser does, building it only when needed.

    A named command is parsed by its own parser. With no command, or with
    arguments left over, the whole parser parses ``argv`` again: it prints
    the top-level usage and errors.
    """
    if argv and argv[0] in _ROWS:
        args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_args(argv)
    try:
        sys.stdout.write(args.fn(args))
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"scribal: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("scribal: interrupted", file=sys.stderr)
        return 130
    return 0
