"""decode_line against json.loads, the decoder it stands in for."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from netmon.jsonl import decode_line

from _strategies import JSON_TEXT

_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_TEXT, inner, max_size=3),
    max_leaves=6,
)
_DUMPED = _VALUE.map(json.dumps)
LINE = st.one_of(
    JSON_TEXT,
    _DUMPED,
    st.tuples(st.sampled_from(["", " ", "\t", "\n", "\ufeff"]), _DUMPED,
              st.sampled_from(["", " ", "\r\n", " x", "{}", ",", " 1"])).map("".join),
    _DUMPED.flatmap(lambda s: st.integers(0, len(s)).map(lambda n: s[:n])),
)


def outcome(decode, s):
    """What ``decode(s)`` returns, or the type and text of what it raises."""
    try:
        return "value", repr(decode(s))
    except Exception as exc:  # noqa: BLE001 - every failure must match
        return type(exc), str(exc)


class TestDecodeLine:
    @given(LINE)
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_json_loads(self, s):
        assert outcome(decode_line, s) == outcome(json.loads, s)

    def test_integer_too_long_to_convert(self):
        s = "1" * 5000
        assert outcome(decode_line, s) == outcome(json.loads, s)
        assert outcome(decode_line, s)[0] is ValueError

    def test_nested_too_deeply(self):
        s = "[" * 100_000 + "]" * 100_000
        assert outcome(decode_line, s) == outcome(json.loads, s)
        assert outcome(decode_line, s)[0] is RecursionError
