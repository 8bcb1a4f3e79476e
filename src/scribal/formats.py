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
_CONTAINERS = (dict, list, tuple)  # what json writes as an object or an array
# the types the one-call paths take as scalars; a subclass of one, like any
# other type, goes through the recursion, which writes what json writes
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _records(doc: list) -> bool:
    """Every member of ``doc`` is a non-empty dict of scalars."""
    return (
        set(map(type, doc)) == {dict}
        and all(doc)
        and _SCALARS.issuperset({type(value) for record in doc for value in record.values()})
    )


def _json(doc, pad: str) -> str:
    """``json.dumps(doc, indent=2)`` for a value on a line that starts with ``pad``.

    ``pad`` is a newline and the line's indent. json writes every indented
    document with its pure-Python encoder; here the C encoder, which
    writes only unindented ones, writes runs of scalars with the indented
    separator. A container of scalars is one call, and so is a list of
    non-empty records of scalars, whose record boundaries ``},{`` then
    take their indent: a boundary is unambiguous, since a record's items
    end in a scalar and the encoder escapes every newline in a string.
    Any other container recurses.
    """
    if not isinstance(doc, _CONTAINERS):
        return json.dumps(doc)
    if not doc:
        return "{}" if isinstance(doc, dict) else "[]"
    inner = pad + "  "
    is_dict = isinstance(doc, dict)
    if _SCALARS.issuperset(map(type, doc.values() if is_dict else doc)):
        body = json.JSONEncoder(separators=("," + inner, ": ")).encode(doc)[1:-1]
    elif not is_dict and _records(doc):
        deeper = inner + "  "
        body = json.JSONEncoder(separators=("," + deeper, ": ")).encode(doc)[2:-2]
        body = body.replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
        body = "{" + deeper + body + inner + "}"
    elif is_dict:
        # json.dumps of a one-item dict converts the key as json does
        body = ("," + inner).join(
            [json.dumps({key: 0})[1:-4] + ": " + _json(value, inner) for key, value in doc.items()]
        )
    else:
        body = ("," + inner).join([_json(member, inner) for member in doc])
    return ("{" if is_dict else "[") + inner + body + pad + ("}" if is_dict else "]")


def render(fmt: str, text: str, doc, columns=None, rows=None) -> str:
    """``text``, ``doc`` as indented JSON, or CSV ``rows``, newline-terminated.

    CSV rows default to ``doc`` (a record or a list of records), and the
    columns to the first row's keys; the csv module writes ``None`` as an
    empty cell.
    """
    if fmt == "text":
        return text + "\n"
    if fmt == "json":
        return _json(doc, "\n") + "\n"
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
