"""Record the command-line golden file, tests/golden/cli.json.

    PYTHONPATH=src python tests/record_cli_golden.py

Each run is an argv with the exit code, standard output and standard
error of ``scribal.cli.main`` on it, run in ``tests/`` at ``COLUMNS=80``:

* every command of the README's "Command line" section, in all three
  formats (this includes the starter-corpus report), and two corpus
  files from ``golden/``;
* each command's ``--help``, an unknown flag, a bad ``--format`` and no
  arguments, and the same for the top level;
* engine errors, one or more per command.

Any refactoring of the CLI must leave this file unchanged, so record it
only from a commit whose outputs are trusted. argparse's help and usage
text varies between Python versions, so the file names the version it
was recorded with, and the test compares those runs only on that version.
"""

import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from scribal import cli

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

README_COMMANDS = (
    ["decompose", "7/10"],
    ["table2n", "--max", "99"],
    ["mul", "13", "12"],
    ["loaves", "6", "10"],
    ["sequem", "--given", "2/3 + 1/30", "--target", "1"],
    ["hau", "--multiplier", "1,1/7", "--target", "19"],
    ["hau", "--multiplier", "1,1/7", "--target", "19", "--guess", "7"],
    ["shares", "--count", "10", "--total", "10", "--difference", "1/8"],
    ["ladder", "--base", "7", "--top", "5"],
    ["area", "--shape", "triangle", "--base", "4", "--height", "3"],
    ["circle", "--diameter", "9"],
    ["pi-error", "--compare"],
    ["edfu", "--sides", "3,4,5,0"],
    ["edfu", "--coords", "0,0 3,0 3,4"],
    ["edfu", "--random", "1000", "--seed", "42"],
    ["seked", "--base", "360", "--height", "250"],
    ["shadow", "--shadow", "100", "--stick", "1", "--stick-shadow", "1"],
    ["granary", "--floor-area", "64/81", "--length", "9"],
    ["triples", "--limit", "30"],
    ["corpus"],
    ["corpus", "path/to/corpus.json"],
    # relative to tests/: every category and verdict, then a load error
    ["corpus", "golden/corpus_mixed.json"],
    ["corpus", "golden/corpus_bad_shape.json"],
)

ENGINE_ERRORS = (
    ["decompose", "0"],
    ["decompose", "5/1993", "--max-terms", "3"],
    ["table2n", "--max", "2"],
    ["mul", "0", "5"],
    ["loaves", "3", "0"],
    ["sequem", "--given", "0", "--target", "1", "--mode", "multiplicative"],
    ["hau", "--multiplier", "0", "--target", "1"],
    ["hau", "--multiplier", "1", "--target", "1", "--guess", "0"],
    ["shares", "--count", "0", "--total", "1", "--difference", "1"],
    ["ladder", "--top", "1001"],
    ["area", "--shape", "triangle", "--base", "4"],
    ["area", "--shape", "square", "--side", "-1"],
    ["circle", "--diameter", "0"],
    ["pi-error", "--digits", "-1"],
    ["edfu", "--sides", "1,2,3"],
    ["edfu", "--coords", "0,0 1"],
    ["edfu", "--random", "-1"],
    ["seked", "--base", "1"],
    ["shadow", "--shadow", "1", "--stick", "1", "--stick-shadow", "0"],
    ["granary", "--floor-area", "0", "--length", "1"],
    ["triples", "--limit", "11"],
)


def argvs() -> list[list[str]]:
    runs = [[*argv, "--format", fmt] for argv in README_COMMANDS for fmt in ("text", "json", "csv")]
    runs += [[], ["--help"], ["bogus"]]
    for name in cli.COMMAND_NAMES:
        runs += [[name], [name, "--help"], [name, "--bogus"], [name, "--format", "xml"]]
    return runs + [list(argv) for argv in ENGINE_ERRORS]


def run(argv: list[str]) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits 0 on --help, 2 on a usage error
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    os.environ["COLUMNS"] = "80"
    os.chdir(Path(__file__).parent)
    golden = {"python": list(sys.version_info[:2]), "runs": [run(argv) for argv in argvs()]}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
