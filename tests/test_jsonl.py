"""decode_line against json.loads, the decoder it stands in for, and the
block render kernel against a join of Python bytes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmon import jsonl
from netmon.jsonl import decode_line, int_texts, render_lines

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


# Printable ASCII and the line end, but never a NUL: the kernel's pad byte.
_ASCII_TEXT = st.binary(max_size=6).map(lambda b: bytes(32 + c % 95 for c in b)) | st.just(b"\n")


class TestRenderLines:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_fields=st.integers(1, 4), n_lines=st.integers(0, 30),
           block_lines=st.integers(1, 8))
    def test_lines_join_the_picked_texts(self, data, n_fields, n_lines, block_lines):
        tables = [data.draw(st.lists(_ASCII_TEXT, min_size=1, max_size=5))
                  for _ in range(n_fields)]
        indices = [data.draw(st.lists(st.integers(-len(t), len(t) - 1), min_size=n_lines,
                                      max_size=n_lines)) for t in tables]
        fields = [(np.array(t, dtype="S"), np.array(i, dtype=np.int64))
                  for t, i in zip(tables, indices)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jsonl, "BLOCK_LINES", block_lines)
            blocks = list(render_lines(fields))
        assert len(blocks) == -(-n_lines // block_lines)
        assert b"".join(blocks) == b"".join(
            b"".join(table[index[k]] for table, index in zip(tables, indices))
            for k in range(n_lines))


class TestIntTexts:
    @pytest.mark.parametrize("top", [-1, 0, 1, 9, 10, 99, 100, 1000, 12345])
    def test_every_integer_up_to_the_largest_then_the_extras(self, top):
        values = np.arange(-1, top + 1)
        table, index = int_texts(values, b", x", [b"no", b"-1"], prefix=b"{")
        assert table.tolist() == [b"{%d, x" % i for i in range(top + 1)] + [b"no", b"-1"]
        assert index is values
        assert table[-1] == b"-1"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.int32, np.int64]))
    def test_table_never_outgrows_the_values(self, data, dtype):
        # Large sparse values get a table of their own, not one of every
        # integer up to the largest.
        top = int(np.iinfo(dtype).max)
        values = data.draw(st.lists(st.integers(-1, top) | st.integers(-1, 300), max_size=40))
        table, index = int_texts(np.array(values, dtype=dtype), b"}", [b"null"], prefix=b"{")
        assert [table[i] for i in index.tolist()] == [
            b"null" if v < 0 else b"{%d}" % v for v in values]
        assert len(table) <= 2 * len(values) + 64 + 1

    def test_digit_counts_split_at_powers_of_ten(self):
        values = np.array([-1, 0, 9, 10, 10**18 - 1, 10**18, 2**63 - 1], dtype=np.int64)
        table, index = int_texts(values, b"", [b"-"])
        assert [table[i] for i in index.tolist()] == [b"-"] + [
            b"%d" % v for v in values[1:].tolist()]
