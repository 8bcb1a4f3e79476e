"""One renderer for every output: text, JSON or CSV.

A result reaches the user as its text, as a JSON document, or as CSV
rows of records (dicts). The CLI's commands, the 2/n table export and
corpus reports all render through here.
"""

from __future__ import annotations

import csv
import json
from io import StringIO
from operator import itemgetter

FORMATS = ("text", "json", "csv")


def render(fmt: str, text: str, doc, columns=None, rows=None) -> str:
    """``text``, ``doc`` as indented JSON, or CSV ``rows``, newline-terminated.

    CSV rows default to ``doc`` (a record or a list of records), and the
    columns to the first row's keys; the csv module writes ``None`` as an
    empty cell.
    """
    if fmt == "text":
        return text + "\n"
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    if rows is None:
        rows = doc if isinstance(doc, list) else [doc]
    if columns is None:
        columns = list(rows[0])
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    # itemgetter of one column returns the bare value, not a one-cell row
    get = itemgetter(*columns) if len(columns) > 1 else lambda row: (row[columns[0]],)
    writer.writerows(map(get, rows))
    return out.getvalue()
