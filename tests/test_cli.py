import inspect
import json
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from scribal import arith, cli, corpus, equations, geometry
from scribal.cli import COMMAND_NAMES, build_parser, main

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHau:
    def test_answer_with_unit_fractions(self, capsys):
        code, out, err = run(capsys, "hau", "--multiplier", "1,1/7", "--target", "19")
        assert code == 0 and err == ""
        assert out == "133/8 (16 + 1/2 + 1/8)\n"

    def test_false_position_trace(self, capsys):
        code, out, _ = run(capsys, "hau", "--multiplier", "1,1/7", "--target", "19", "--guess", "7")
        assert code == 0
        assert "assume 7: gives 8; scale by 19/8; answer 133/8" in out
        assert out.endswith("133/8 (16 + 1/2 + 1/8)\n")

    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, "hau", "--multiplier", "1,1/7", "--target", "19",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["answer"] == "133/8"
        assert doc["multiplier"] == "8/7"


class TestTable2n:
    def test_csv_49_rows_terms_in_bounds(self, capsys):
        code, out, _ = run(capsys, "table2n", "--max", "99", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,terms,decomposition,value_check"
        rows = [line.split(",", 2) for line in lines[1:]]
        assert len(rows) == 49
        assert all(2 <= int(terms) <= 4 for _, terms, _ in rows)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_equals_library_render(self, capsys, fmt):
        _, out, _ = run(capsys, "table2n", "--format", fmt)
        assert out == arith.render_table(arith.table_2_over_n(), fmt)

    def test_text_row(self, capsys):
        _, out, _ = run(capsys, "table2n", "--max", "5")
        assert "2/3   = 1/2 + 1/6" in out

    def test_over_cap_rejected(self, capsys):
        code, out, err = run(capsys, "table2n", "--strategy", "greedy", "--max", str(arith.TABLE_MAX_N + 1))
        assert (code, out, err) == (1, "", "scribal: n_max must be at most 100000, got 100001\n")

    def test_byte_stable(self, capsys):
        _, first, _ = run(capsys, "table2n", "--format", "json")
        _, second, _ = run(capsys, "table2n", "--format", "json")
        assert first == second


class TestPiError:
    def test_reports_paper_figure(self, capsys):
        code, out, _ = run(capsys, "pi-error")
        assert code == 0
        assert "0.018901" in out

    def test_json_within_tolerance(self, capsys):
        _, out, _ = run(capsys, "pi-error", "--format", "json")
        doc = json.loads(out)
        abs_error = F(doc["abs_error"])
        assert abs(abs_error - F(18901, 10**6)) < F(5, 10**6)

    def test_comparison_set(self, capsys):
        _, out, _ = run(capsys, "pi-error", "--compare")
        assert "babylonian 3" in out and "roman 4" in out

    @pytest.mark.parametrize("compare", [[], ["--compare"]])
    @pytest.mark.parametrize("digits", ["0", "51", "-3"])
    def test_digits_outside_the_table_refused(self, capsys, compare, digits):
        code, out, err = run(capsys, "pi-error", *compare, "--digits", digits)
        assert (code, out, err) == (1, "", "scribal: report_digits must be in 1..50\n")


class TestArithmeticCommands:
    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "7/10")
        assert code == 0 and out == "7/10 = 2/3 + 1/30\n"

    def test_decompose_policy_flags(self, capsys):
        _, out, _ = run(capsys, "decompose", "2/3", "--strategy", "greedy", "--no-two-thirds")
        assert out == "2/3 = 1/2 + 1/6\n"

    def test_mul_trace(self, capsys):
        code, out, _ = run(capsys, "mul", "13", "12")
        assert code == 0
        assert "156" in out
        assert out.count("*") == 3  # rows 1, 4, 8 selected

    def test_mul_over_digit_cap_rejected(self, capsys):
        nines = "9" * 4299
        code, out, err = run(capsys, "mul", nines, nines)
        assert (code, out, err) == (1, "", "scribal: duplation takes factors of at most 1000 digits\n")

    def test_loaves(self, capsys):
        code, out, _ = run(capsys, "loaves", "6", "10")
        assert code == 0
        assert out == "1/2 + 1/10 (= 3/5)\n"

    def test_sequem(self, capsys):
        code, out, _ = run(capsys, "sequem", "--given", "2/3 + 1/30", "--target", "1")
        assert code == 0 and out == "3/10\n"

    def test_shares(self, capsys):
        code, out, _ = run(capsys, "shares", "--count", "4", "--total", "20", "--difference", "2")
        assert code == 0 and out == "2, 4, 6, 8\n"

    def test_ladder(self, capsys):
        code, out, _ = run(capsys, "ladder", "--base", "7", "--top", "5")
        assert code == 0
        for token in ("an", "Katze", "Maus", "Gerste", "Maass", "16807", "19607"):
            assert token in out


# The commands that take the policy flags, each with its required
# arguments and the policy the flags default to.
POLICY_COMMANDS = {
    "decompose": (["7/10"], arith.DEFAULT_POLICY),
    "table2n": ([], arith.TABLE_POLICY),
    "loaves": (["6", "10"], arith.DEFAULT_POLICY),
    "hau": (["--multiplier", "1,1/7", "--target", "19"], arith.DEFAULT_POLICY),
}


def policy_fields(policy) -> dict:
    return {name: getattr(policy, name) for name in inspect.signature(type(policy)).parameters}


def flag_away_from(field, base) -> tuple[list[str], object]:
    """The arguments that set ``field`` to a value other than its value in ``base``."""
    flag, value = {
        "strategy": ("--strategy", arith.GREEDY),
        "max_terms": ("--max-terms", 3),
        "max_denominator": ("--max-denominator", 500),
        "prefer_divisor_rich": ("--divisor-rich", not base.prefer_divisor_rich),
        "allow_two_thirds": ("--two-thirds", not base.allow_two_thirds),
    }[field]
    if isinstance(value, bool):
        return [flag if value else "--no-" + flag[2:]], value
    return [flag, str(value)], value


class TestPolicyFlags:
    def test_policy_commands_are_the_ones_with_policy_flags(self):
        with_flags = {name for name in COMMAND_NAMES if "--max-terms" in build_parser(name).format_usage()}
        assert with_flags == set(POLICY_COMMANDS)

    @pytest.mark.parametrize("name", POLICY_COMMANDS)
    def test_no_flags_give_the_command_policy(self, name):
        required, base = POLICY_COMMANDS[name]
        assert cli._policy(cli.parse_args([name, *required])) == base

    @pytest.mark.parametrize("field", policy_fields(arith.DEFAULT_POLICY))
    @pytest.mark.parametrize("name", POLICY_COMMANDS)
    def test_each_flag_changes_only_its_own_field(self, name, field):
        required, base = POLICY_COMMANDS[name]
        flag, value = flag_away_from(field, base)
        assert value != getattr(base, field)
        got = cli._policy(cli.parse_args([name, *required, *flag]))
        assert policy_fields(got) == {**policy_fields(base), field: value}

    @pytest.mark.parametrize("name", POLICY_COMMANDS)
    def test_help_states_the_on_off_defaults(self, name):
        _, base = POLICY_COMMANDS[name]
        words = " ".join(build_parser(name).format_help().split())
        for field, text in (("allow_two_thirds", "allow the 2/3 primitive as a term"),
                            ("prefer_divisor_rich", "tie-break toward divisor-rich largest denominators")):
            assert f"{text} (default: {'on' if getattr(base, field) else 'off'})" in words


class TestGeometryCommands:
    def test_area_triangle(self, capsys):
        code, out, _ = run(capsys, "area", "--shape", "triangle", "--base", "4", "--height", "3")
        assert code == 0 and out == "6\n"

    def test_area_missing_dimension(self, capsys):
        code, out, err = run(capsys, "area", "--shape", "triangle", "--base", "4")
        assert code == 1 and "--height" in err

    def test_circle(self, capsys):
        code, out, _ = run(capsys, "circle", "--diameter", "9")
        assert code == 0 and out == "64\n"

    def test_edfu_sides(self, capsys):
        code, out, _ = run(capsys, "edfu", "--sides", "3,4,5,0")
        assert code == 0 and out == "8\n"

    def test_edfu_split_disagreement_raises(self, monkeypatch):
        # the cross-check is a real check, so it also holds under python -O
        monkeypatch.setattr(geometry, "edfu_area_via_diagonal_split", lambda quad: F(-1))
        with pytest.raises(RuntimeError, match="diagonal-split"):
            main(["edfu", "--sides", "3,4,5,0"])

    def test_edfu_coords(self, capsys):
        code, out, _ = run(capsys, "edfu", "--coords", "0,0 3,0 3,4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["historical"] == "8" and doc["exact"] == "6" and doc["abs_error"] == "2"

    def test_edfu_random_campaign(self, capsys):
        code, out, _ = run(capsys, "edfu", "--random", "25", "--seed", "11", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 25 and doc["seed"] == 11
        assert F(doc["worst_abs_error"]) >= 0
        # on a 1x1 grid the one convex figure is the unit square, where the rule is exact
        code, out, _ = run(capsys, "edfu", "--random", "3", "--max-coord", "1")
        assert code == 0 and "; 3 exact;" in out

    def test_edfu_random_negative_rejected(self, capsys):
        code, out, err = run(capsys, "edfu", "--random", "-3")
        assert (code, out, err) == (1, "", "scribal: --random takes a count N >= 0, got -3\n")

    def test_edfu_random_over_cap_rejected(self, capsys, monkeypatch):
        def unused(*args):
            raise AssertionError("figure built")

        monkeypatch.setattr(geometry, "random_convex_quadrilateral", unused)
        code, out, err = run(capsys, "edfu", "--random", str(cli.EDFU_MAX_RANDOM + 1))
        assert (code, out) == (1, "")
        assert err == "scribal: --random takes a count N <= 10000, got 10001\n"

    def test_shares_over_cap_rejected(self, capsys, monkeypatch):
        def unused(*args):
            raise AssertionError("share built")

        monkeypatch.setattr(equations, "smallest_share", unused)
        code, out, err = run(capsys, "shares", "--count", str(equations.SHARES_MAX_COUNT + 1),
                             "--total", "1", "--difference", "1")
        assert (code, out) == (1, "")
        assert err == "scribal: share count must be at most 10000, got 10001\n"

    def test_ladder_over_rung_cap_rejected(self, capsys, monkeypatch):
        def unused(*args):
            raise AssertionError("rung built")

        monkeypatch.setattr(equations, "LadderRung", unused)
        code, out, err = run(capsys, "ladder", "--base", "9", "--top", "5000")
        assert (code, out) == (1, "")
        assert err == "scribal: ladder takes at most 1000 rungs, got top exponent 5000\n"

    def test_seked_forward(self, capsys):
        code, out, _ = run(capsys, "seked", "--base", "360", "--height", "250")
        assert code == 0 and out == "seked = 126/25\n"

    def test_seked_inverse(self, capsys):
        code, out, _ = run(capsys, "seked", "--base", "360", "--seked", "126/25")
        assert code == 0 and out == "height = 250\n"
        code, out, _ = run(capsys, "seked", "--height", "250", "--seked", "5 + 1/25")
        assert code == 0 and out == "base = 360\n"

    def test_seked_needs_exactly_two(self, capsys):
        code, _, err = run(capsys, "seked", "--base", "360")
        assert code == 1 and "exactly two" in err

    def test_shadow(self, capsys):
        code, out, _ = run(capsys, "shadow", "--shadow", "100", "--stick", "1",
                           "--stick-shadow", "1")
        assert code == 0 and out == "100\n"

    def test_granary(self, capsys):
        code, out, _ = run(capsys, "granary", "--floor-area", "64/81", "--length", "9")
        assert code == 0 and out == "64/9\n"

    def test_triples(self, capsys):
        code, out, _ = run(capsys, "triples", "--limit", "30")
        assert code == 0 and out == "3 4 5\n5 12 13\n"

    def test_triples_over_cap_rejected(self, capsys):
        code, out, err = run(capsys, "triples", "--limit", str(geometry.TRIPLES_MAX_PERIMETER + 1))
        assert (code, out) == (1, "")
        assert err == "scribal: perimeter limit must be at most 1000000, got 1000001\n"

    def test_triples_csv_matches_library(self, capsys):
        _, out, _ = run(capsys, "triples", "--limit", "100", "--format", "csv")
        rows = [tuple(map(int, line.split(","))) for line in out.strip().splitlines()[1:]]
        assert rows == geometry.rational_right_triangles(100)


class TestCorpusCommand:
    def test_starter_replay_matches_library(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0
        expected = corpus.render_report(corpus.replay_all(corpus.load_starter_corpus()), "text")
        assert out == expected

    def test_replay_from_path(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"problems": [
            {"id": "p", "category": "ladder", "inputs": {"base": 2, "top_exponent": 3},
             "scribal_answer": "14"}
        ]}))
        code, out, _ = run(capsys, "corpus", str(path), "--format", "csv")
        assert code == 0
        assert "p,ladder,match,14,14," in out

    def test_corrupt_corpus_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "corpus", str(path))
        assert code == 1 and "scribal:" in err

    @pytest.mark.parametrize("text", ['{"problems": [' + "9" * 5000 + "]}", "[" * 100_000],
                             ids=["digits", "depth"])
    def test_unreadable_json_fails_cleanly(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "corpus", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("scribal: corpus is not valid JSON: ") and err.count("\n") == 1

    def test_unhashable_category_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problems": [{"id": "x", "category": ["area"], "inputs": {}}]}))
        code, out, err = run(capsys, "corpus", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("scribal: problem 'x': unknown category ['area']") and err.count("\n") == 1

    def test_unhashable_shape_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problems": [
            {"id": "x", "category": "area", "inputs": {"shape": {"square": 1}, "side": "1"}}
        ]}))
        code, out, err = run(capsys, "corpus", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("scribal: problem 'x': field 'shape' must be one of") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "corpus", "no-such-corpus.json")
        assert code == 1 and err.startswith("scribal:")


class TestErrorContract:
    def test_engine_error_exit_one(self, capsys):
        code, out, err = run(capsys, "circle", "--diameter", "0")
        assert code == 1 and out == "" and err.startswith("scribal:")

    def test_bounds_error_exit_one(self, capsys):
        code, _, err = run(capsys, "decompose", "1/10001")
        assert code == 1 and "max_denominator" in err
        # a table row out of bounds is named by its n
        code, out, err = run(capsys, "table2n", "--max-terms", "1")
        assert (code, out) == (1, "")
        assert err == (
            "scribal: table row n=3 failed: no decomposition of 2/3 "
            "within max_terms=1 and max_denominator=10000\n"
        )

    def test_duplicate_resolution_limit_exit_one(self, capsys, monkeypatch):
        # a lowered step limit stands in for an input that cascades too far
        monkeypatch.setattr(arith, "_DUPLICATE_STEP_LIMIT", 0)
        code, out, err = run(capsys, "decompose", "7/10", "--strategy", "splitting")
        assert code == 1 and out == ""
        assert err == "scribal: duplicate resolution did not settle within 0 splitting steps\n"

    def test_unknown_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["transcribe"])
        assert exc_info.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_usage(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["circle", "--radius", "3"])
        assert exc_info.value.code == 2

    def test_bad_rational_argument(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["circle", "--diameter", "nine"])
        assert exc_info.value.code == 2
        # digits are ASCII only
        with pytest.raises(SystemExit) as exc_info:
            main(["decompose", "٣/٤"])
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument value: cannot parse rational term '٣/٤' in '٣/٤'\n"
        )


def test_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(arith, "decompose", interrupted)
    try:
        code, out, err = run(capsys, "decompose", "7/10")
    except KeyboardInterrupt:  # escaping, it would end the test session
        pytest.fail("KeyboardInterrupt escaped main")
    assert (code, out, err) == (130, "", "scribal: interrupted\n")


# One value of the wrong type (or outside the choices) per command.
BAD_VALUE = {
    "decompose": ["x/y"],
    "table2n": ["--max", "many"],
    "mul": ["two", "3"],
    "loaves": ["6", "ten"],
    "sequem": ["--given", "half", "--target", "1"],
    "hau": ["--multiplier", "1,x", "--target", "19"],
    "shares": ["--count", "four", "--total", "20", "--difference", "2"],
    "ladder": ["--base", "seven"],
    "area": ["--shape", "hexagon"],
    "circle": ["--diameter", "nine"],
    "pi-error": ["--digits", "many"],
    "edfu": ["--random", "many"],
    "seked": ["--parts", "seven"],
    "shadow": ["--shadow", "far", "--stick", "1", "--stick-shadow", "1"],
    "granary": ["--floor-area", "64", "--length", "long"],
    "triples": ["--limit", "big"],
    "corpus": ["--format", "xml"],
}


def readme_commands() -> list[list[str]]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [
        shlex.split(line, comments=True)[1:]
        for line in readme.read_text(encoding="utf-8").splitlines()
        if line.startswith("scribal ")
    ]


def parse_outcome(capsys, parse, argv):
    """(exit code or None, stdout, stderr, namespace or None) of one parse."""
    try:
        namespace, code = parse(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


def parse_alike(capsys, argv):
    """The outcome of cli.parse_args on argv, checked against the whole parser's."""
    whole = parse_outcome(capsys, build_parser().parse_args, argv)
    assert parse_outcome(capsys, cli.parse_args, argv) == whole, argv
    return whole


# Arguments that end a command's own parse early, are left over for the
# whole parser, or sit where a command's parser and the whole one could split.
EDGE_ARGVS = [
    ["decompose", "--", "1/2"],
    ["decompose", "-1/2"],
    ["decompose", "1/2", "x"],
    ["corpus", "a", "b"],
    ["corpus", "--"],
    ["mul", "3", "4", "-h"],
    ["mul", "3", "4", "--he"],
    ["mul", "--format=json", "3", "4"],
    ["decompose", "7/10", "--form", "csv"],
    ["decompose", "1/2", "--max-terms"],
    ["mul", "3", "4", "5"],
]


class TestParserPaths:
    """parse_args, which builds one command's parser, parses as the whole parser does."""

    @pytest.fixture(autouse=True, params=["80", "40"])
    def columns(self, request, monkeypatch):
        monkeypatch.setenv("COLUMNS", request.param)

    def test_bad_values_cover_every_command(self):
        assert set(BAD_VALUE) == set(COMMAND_NAMES)

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_same_help_errors_and_namespace(self, capsys, name):
        for rest in (["--help"], ["--bogus"], BAD_VALUE[name], []):
            parse_alike(capsys, [name, *rest])
        # --format comes after the command's own and the policy flags
        help_text = parse_outcome(capsys, build_parser(name).parse_args, ["--help"])[1]
        assert help_text.rstrip().splitlines()[-1].split()[0] == "--format"

    def test_readme_commands_parse_alike(self, capsys):
        commands = readme_commands()
        assert len(commands) >= 20
        for argv in commands:
            code, _, _, namespace = parse_alike(capsys, argv)
            assert code is None and namespace.command == argv[0], argv

    @pytest.mark.parametrize("argv", EDGE_ARGVS, ids=" ".join)
    def test_edge_arguments_parse_alike(self, capsys, argv):
        parse_alike(capsys, argv)

    @pytest.mark.parametrize("argv", [[], ["--help"], ["nosuch"]])
    def test_no_command_uses_whole_parser(self, capsys, argv):
        whole = parse_outcome(capsys, build_parser().parse_args, argv)
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        captured = capsys.readouterr()
        assert (exc_info.value.code, captured.out, captured.err) == whole[:3]
        message = {
            (): "the following arguments are required: command",
            ("--help",): "{" + ",".join(COMMAND_NAMES) + "}",
            ("nosuch",): "argument command: invalid choice: 'nosuch'",
        }[tuple(argv)]
        assert message in captured.out + captured.err

    def test_main_builds_the_whole_parser_only_as_fallback(self, capsys, monkeypatch):
        built = []

        def spy(command=None):
            built.append(command)
            return build_parser(command)

        def parsers_built(argv=None):
            built.clear()
            try:
                main(argv)
            except SystemExit:
                pass
            capsys.readouterr()
            return built

        monkeypatch.setattr(cli, "build_parser", spy)
        assert parsers_built(["decompose", "7/10"]) == ["decompose"]
        monkeypatch.setattr(sys, "argv", ["scribal", "mul", "13", "12"])
        assert parsers_built() == ["mul"]
        assert parsers_built(["mul", "--help"]) == ["mul"]
        assert parsers_built(["decompose", "1/2", "x"]) == ["decompose", None]
        assert parsers_built(["--help"]) == [None]
        assert parsers_built(["nosuch"]) == [None]


# record with tests/record_cli_golden.py only from a commit whose outputs are trusted
CLI_GOLDEN = json.loads((Path(__file__).with_name("golden") / "cli.json").read_text())


class TestGoldenOutputs:
    def test_outputs_match_golden_file(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(Path(__file__).parent)
        same_python = sys.version_info[:2] == tuple(CLI_GOLDEN["python"])
        compared, differing = 0, []
        for run in CLI_GOLDEN["runs"]:
            argparse_text = run["exit"] == 2 or "--help" in run["argv"]
            if argparse_text and not same_python:
                continue  # argparse words its help and usage differently across versions
            try:
                code = main(list(run["argv"]))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            compared += 1
            if (code, out, err) != (run["exit"], run["stdout"], run["stderr"]):
                differing.append(run["argv"])
        assert differing == [] and len(CLI_GOLDEN["runs"]) > 100
        assert compared == len(CLI_GOLDEN["runs"]) or not same_python
