import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scribal.formats import render

# json.dumps with indent=2 is the reference: render writes its bytes with
# the C encoder, one call per run of scalars.
RECORD_BOUNDARY = "},\n      {"  # the text a list of records at depth 2 joins on

_special_strings = st.sampled_from(
    ['"', "\\", "\n", "\r\t\x00\x1f\x7f", "é", " ", "\U0001f4dc", "}", "},", "{", RECORD_BOUNDARY]
)
strings = st.lists(_special_strings | st.text(max_size=4), max_size=3).map("".join)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats()
    | strings
)
keys = strings | st.integers(min_value=-(10**30), max_value=10**30) | st.booleans() | st.none()
records = st.dictionaries(keys, scalars, min_size=1, max_size=5)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
        | st.lists(records, min_size=1, max_size=4)  # one call, then re-indented
        | st.lists(records | st.just({}), max_size=4)
        | st.lists(records | children, max_size=4)
    )


documents = st.recursive(scalars | records | st.just({}) | st.just([]), _containers, max_leaves=30)


def reference(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


class TestJsonAgainstReference:
    @settings(max_examples=500)
    @given(documents)
    @example({"problems": [{"id": "a", "note": RECORD_BOUNDARY}, {"id": "b", "note": None}]})
    @example({"rows": [{"a": 1}, {}], "empty": [{}, {}]})
    @example([({"a": (1, 2)},), ({"b": 1}, {"c": [2]})])
    @example({1: [True], None: {2: 3}, 1.5: ["x"], False: []})
    @example({"problems": [{"id": "a"}, {"id": "b"}], "summary": {"total": 2, "counts": {"match": 2}}})
    @example({"t": (1, (2, 3)), "e": (), "flat": ({"a": 1}, {"b": 2}), "deep": ({"a": 1}, {"b": (2,)})})
    def test_same_bytes_as_json_dumps(self, doc):
        assert render("json", "", doc) == reference(doc)

    def test_refusals_match(self):
        for doc in ([{"a": object()}], {"k": [object()]}, {(1, 2): 1}, {"k": {(1,): [1]}}):
            with pytest.raises(TypeError) as got:
                render("json", "", doc)
            with pytest.raises(TypeError) as want:
                reference(doc)
            assert str(got.value) == str(want.value)
