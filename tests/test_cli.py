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

    def test_csv_equals_library_export(self, capsys):
        _, out, _ = run(capsys, "table2n", "--format", "csv")
        assert out == arith.table_to_csv(arith.table_2_over_n())

    def test_text_row(self, capsys):
        _, out, _ = run(capsys, "table2n", "--max", "5")
        assert "2/3   = 1/2 + 1/6" in out

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

    def test_edfu_random_negative_rejected(self, capsys):
        code, out, err = run(capsys, "edfu", "--random", "-3")
        assert (code, out, err) == (1, "", "scribal: --random takes a count N >= 0, got -3\n")

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


def parse_outcome(capsys, parser, argv):
    """(exit code or None, stdout, stderr, namespace or None) of one parse."""
    try:
        namespace, code = parser.parse_args(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


class TestParserPaths:
    """The one-command parser main builds behaves as the whole parser does."""

    @pytest.fixture(autouse=True, params=["80", "40"])
    def columns(self, request, monkeypatch):
        monkeypatch.setenv("COLUMNS", request.param)

    def test_bad_values_cover_every_command(self):
        assert set(BAD_VALUE) == set(COMMAND_NAMES)

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_same_help_errors_and_namespace(self, capsys, name):
        for rest in (["--help"], ["--bogus"], BAD_VALUE[name], []):
            argv = [name, *rest]
            whole = parse_outcome(capsys, build_parser(), argv)
            single = parse_outcome(capsys, build_parser(name), argv)
            assert single == whole, argv
        # --format comes after the command's own and the policy flags
        help_text = parse_outcome(capsys, build_parser(name), [name, "--help"])[1]
        assert help_text.rstrip().splitlines()[-1].split()[0] == "--format"

    def test_readme_commands_parse_alike(self, capsys):
        commands = readme_commands()
        assert len(commands) >= 20
        for argv in commands:
            whole = parse_outcome(capsys, build_parser(), argv)
            single = parse_outcome(capsys, build_parser(argv[0]), argv)
            assert whole[0] is None and single == whole, argv

    @pytest.mark.parametrize("argv", [[], ["--help"], ["nosuch"]])
    def test_no_command_uses_whole_parser(self, capsys, argv):
        whole = parse_outcome(capsys, build_parser(), argv)
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

    def test_main_builds_the_named_command_only(self, capsys, monkeypatch):
        built = []

        def spy(command=None):
            built.append(command)
            return build_parser(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        assert main(["decompose", "7/10"]) == 0
        monkeypatch.setattr(sys, "argv", ["scribal", "mul", "13", "12"])
        assert main() == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        capsys.readouterr()
        assert built == ["decompose", "mul", None]


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
        assert differing == [] and compared > 100
