"""The ``scribal`` command line.

Each subcommand is a thin adapter over the library; values printed here
are the library's exact values, rendered as fractions (never floats).
Rationals on the command line look like ``19``, ``1/7``, or sums
``16 + 1/2 + 1/8``; comma lists like ``1,1/7`` add up, which is how a
problem statement's coefficient terms are written.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from io import StringIO
from random import Random

from . import arith, corpus, equations, geometry
from .rational import parse_rational

FORMATS = ("text", "json", "csv")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _decimal6(x: Fraction) -> str:
    return geometry.decimal_string(x, 6)


def _rational_terms(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",") if part.strip()]


def _csv(header: list[str], rows: list[list[object]]) -> str:
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _emit(args, text: str, payload, header=None, rows=None) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        if header is None:
            header, rows = ["result"], [[text]]
        sys.stdout.write(_csv(header, rows))
    else:
        print(text)


def _add_policy_flags(parser, base: arith.DecompositionPolicy) -> None:
    parser.add_argument("--strategy", choices=arith.STRATEGIES, default=base.strategy)
    parser.add_argument("--max-terms", type=int, default=base.max_terms)
    parser.add_argument("--max-denominator", type=int, default=base.max_denominator)
    parser.add_argument(
        "--two-thirds",
        action=argparse.BooleanOptionalAction,
        default=base.allow_two_thirds,
        help="allow the 2/3 primitive as a term",
    )
    parser.add_argument(
        "--divisor-rich",
        action=argparse.BooleanOptionalAction,
        default=base.prefer_divisor_rich,
        help="tie-break toward divisor-rich largest denominators",
    )


def _policy(args) -> arith.DecompositionPolicy:
    return arith.DecompositionPolicy(
        strategy=args.strategy,
        max_terms=args.max_terms,
        max_denominator=args.max_denominator,
        prefer_divisor_rich=args.divisor_rich,
        allow_two_thirds=args.two_thirds,
    )


def _cmd_decompose(args) -> None:
    u = arith.decompose(args.value, _policy(args))
    _emit(
        args,
        f"{args.value} = {u.render()}",
        {"value": str(args.value), "decomposition": u.render(), "terms": u.term_count},
        ["value", "decomposition", "terms"],
        [[str(args.value), u.render(), u.term_count]],
    )


def _cmd_table2n(args) -> None:
    entries = arith.table_2_over_n(_policy(args), n_max=args.max, include_even=args.include_even)
    if args.format == "json":
        sys.stdout.write(arith.table_to_json(entries))
    elif args.format == "csv":
        sys.stdout.write(arith.table_to_csv(entries))
    else:
        for e in entries:
            print(f"2/{e.n:<3} = {e.decomposition.render()}")


def _cmd_mul(args) -> None:
    result = arith.duplation_multiply(args.a, args.b)
    _emit(
        args,
        result.render(),
        {
            "a": result.multiplier,
            "b": result.multiplicand,
            "product": result.product,
            "rows": [
                {"power": r.power, "value": r.value, "selected": r.selected} for r in result.rows
            ],
        },
        ["power", "value", "selected"],
        [[r.power, r.value, int(r.selected)] for r in result.rows],
    )


def _cmd_loaves(args) -> None:
    share = arith.divide_loaves(args.loaves, args.men, _policy(args))
    _emit(
        args,
        f"{share.render()} (= {share.value()})",
        {
            "loaves": args.loaves,
            "men": args.men,
            "share": share.render(),
            "share_value": str(share.value()),
        },
        ["loaves", "men", "share", "share_value"],
        [[args.loaves, args.men, share.render(), str(share.value())]],
    )


def _cmd_sequem(args) -> None:
    result = arith.sequem_complete(args.given, args.target, args.mode)
    _emit(
        args,
        str(result),
        {"given": str(args.given), "target": str(args.target), "mode": args.mode, "result": str(result)},
        ["given", "target", "mode", "result"],
        [[str(args.given), str(args.target), args.mode, str(result)]],
    )


def _cmd_hau(args) -> None:
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
    _emit(
        args,
        text,
        {
            "multiplier": str(problem.multiplier),
            "target": str(problem.target),
            "answer": str(answer),
            "unit_fractions": unit.render() if unit else None,
            "trace": trace.as_dict() if trace else None,
        },
        ["multiplier", "target", "answer", "unit_fractions"],
        [[str(problem.multiplier), str(problem.target), str(answer), unit.render() if unit else ""]],
    )


def _cmd_shares(args) -> None:
    shares = equations.arithmetic_shares(args.count, args.total, args.difference)
    _emit(
        args,
        ", ".join(str(s) for s in shares),
        {"shares": [str(s) for s in shares], "total": str(sum(shares))},
        ["index", "share"],
        [[i + 1, str(s)] for i, s in enumerate(shares)],
    )


def _cmd_ladder(args) -> None:
    ladder = equations.geometric_ladder(args.base, args.top)
    _emit(
        args,
        ladder.render(),
        {
            "rungs": [{"exponent": r.exponent, "label": r.label, "value": r.value} for r in ladder.rungs],
            "total": ladder.total,
        },
        ["exponent", "label", "value"],
        [[r.exponent, r.label, r.value] for r in ladder.rungs],
    )


_AREA_BUILDERS = {
    "square": (("side",), lambda a: geometry.square_area(a.side)),
    "rectangle": (("width", "height"), lambda a: geometry.rect_area(a.width, a.height)),
    "triangle": (("base", "height"), lambda a: geometry.triangle_area(a.base, a.height)),
    "two-sides": (("s1", "s2"), lambda a: geometry.triangle_area_two_sides(a.s1, a.s2)),
    "trapezoid": (("p1", "p2", "height"), lambda a: geometry.trapezoid_area(a.p1, a.p2, a.height)),
}


def _cmd_area(args) -> None:
    needed, fn = _AREA_BUILDERS[args.shape]
    missing = [f"--{f}" for f in needed if getattr(args, f) is None]
    if missing:
        raise ValueError(f"shape {args.shape!r} needs {' '.join(missing)}")
    area = fn(args)
    _emit(
        args,
        str(area),
        {"shape": args.shape, "area": str(area)},
        ["shape", "area"],
        [[args.shape, str(area)]],
    )


def _cmd_circle(args) -> None:
    area = geometry.circle_area_egyptian(args.diameter)
    _emit(
        args,
        str(area),
        {"diameter": str(args.diameter), "area": str(area)},
        ["diameter", "area"],
        [[str(args.diameter), str(area)]],
    )


def _report_rows(label: str, report: geometry.ErrorReport) -> list[object]:
    d = report.as_dict()
    return [label, d["historical"], d["exact_decimal"], d["abs_error_decimal"], d["rel_error"] or ""]


def _cmd_pi_error(args) -> None:
    if args.compare:
        rows = geometry.pi_comparison_set(args.digits)
        text = "\n\n".join(f"{label}\n{rep.render()}" for label, rep in rows)
        _emit(
            args,
            text,
            [{"label": label, **rep.as_dict()} for label, rep in rows],
            ["label", "historical", "exact_decimal", "abs_error_decimal", "rel_error"],
            [_report_rows(label, rep) for label, rep in rows],
        )
    else:
        report = geometry.implied_pi_error(args.digits)
        d = report.as_dict()
        _emit(
            args,
            report.render(),
            d,
            ["historical", "exact_decimal", "abs_error_decimal", "rel_error"],
            [[d["historical"], d["exact_decimal"], d["abs_error_decimal"], d["rel_error"] or ""]],
        )


def _parse_coords(text: str) -> list[tuple[Fraction, Fraction]]:
    points = []
    for chunk in text.replace(";", " ").split():
        x, _, y = chunk.partition(",")
        if not y:
            raise ValueError(f"coordinate {chunk!r} is not x,y")
        points.append((parse_rational(x), parse_rational(y)))
    return points


def _cmd_edfu(args) -> None:
    if args.random < 0:
        raise ValueError(f"--random takes a count N >= 0, got {args.random}")
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
            f"worst over-estimate {_decimal6(worst[0])} on {worst[1]}"
        )
        _emit(
            args,
            text,
            {
                "count": args.random,
                "seed": args.seed,
                "exact_matches": zero_count,
                "worst_abs_error": str(worst[0]),
                "worst_quad": [list(p) for p in worst[1]],
            },
        )
        return
    if args.coords:
        points = _parse_coords(args.coords)
        report = geometry.edfu_error_report(points)
        _emit(
            args,
            report.render(),
            report.as_dict(),
            ["historical", "exact", "abs_error", "rel_error"],
            [[str(report.historical), str(report.exact), str(report.absolute_error),
              str(report.relative_error) if report.relative_error is not None else ""]],
        )
        return
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
    _emit(
        args,
        str(area),
        {"sides": [str(s) for s in sides], "area": str(area), "diagonal_split_check": str(split)},
        ["sides", "area"],
        [["|".join(str(s) for s in sides), str(area)]],
    )


def _cmd_seked(args) -> None:
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
    seked_value = parse_rational(payload["seked"])
    payload["cotangent"] = str(geometry.seked_cotangent(seked_value, args.parts))
    _emit(
        args,
        f"{solved} = {value}",
        payload,
        ["base", "height", "seked", "parts", "cotangent"],
        [[payload["base"], payload["height"], payload["seked"], args.parts, payload["cotangent"]]],
    )


def _cmd_shadow(args) -> None:
    height = geometry.shadow_height(args.shadow, args.stick, args.stick_shadow)
    _emit(
        args,
        str(height),
        {"object_shadow": str(args.shadow), "reference_height": str(args.stick),
         "reference_shadow": str(args.stick_shadow), "height": str(height)},
        ["object_shadow", "reference_height", "reference_shadow", "height"],
        [[str(args.shadow), str(args.stick), str(args.stick_shadow), str(height)]],
    )


def _cmd_granary(args) -> None:
    volume = geometry.granary_volume(args.floor_area, args.length)
    _emit(
        args,
        str(volume),
        {"floor_area": str(args.floor_area), "length": str(args.length), "volume": str(volume)},
        ["floor_area", "length", "volume"],
        [[str(args.floor_area), str(args.length), str(volume)]],
    )


def _cmd_triples(args) -> None:
    triples = geometry.rational_right_triangles(args.limit)
    _emit(
        args,
        "\n".join(f"{a} {b} {c}" for a, b, c in triples),
        [{"a": a, "b": b, "c": c} for a, b, c in triples],
        ["a", "b", "c"],
        [[a, b, c] for a, b, c in triples],
    )


def _cmd_corpus(args) -> None:
    if args.path:
        problems = corpus.load_corpus_file(args.path)
    else:
        problems = corpus.load_starter_corpus()
    verdicts = corpus.replay_all(problems)
    sys.stdout.write(corpus.render_report(verdicts, args.format))


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
        _arg("--shape", choices=tuple(_AREA_BUILDERS), required=True),
        *(_arg(f"--{flag}", type=_rational, default=None)
          for flag in ("side", "width", "height", "base", "s1", "s2", "p1", "p2")),
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

COMMAND_NAMES = tuple(name for name, *_ in COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or with ``command`` a parser holding only that subcommand.

    Both parse that command's arguments alike and print the same help and
    errors for it; only the whole parser can report a missing or unknown
    command, or print the top-level help.
    """
    parser = argparse.ArgumentParser(
        prog="scribal",
        description="Exact scribal reckoning: unit fractions, papyrus problems, surveyor rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        # errors the top-level parser raises print its usage, which names every command
        sub.metavar = "{" + ",".join(COMMAND_NAMES) + "}"
    for name, help_text, arguments, policy, fn in COMMANDS:
        if command is not None and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        if policy is not None:
            _add_policy_flags(p, policy)
        p.add_argument("--format", choices=FORMATS, default="text")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a named command needs only its own subparser; anything else gets the whole parser
    command = argv[0] if argv and argv[0] in COMMAND_NAMES else None
    args = build_parser(command).parse_args(argv)
    try:
        args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"scribal: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("scribal: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
