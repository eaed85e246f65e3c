import io
import json
import random
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netmon.ingest as ingest_mod
from netmon.ingest import (
    Message,
    QueryPacket,
    RejectRecord,
    canonical_timestamp,
    dedupe,
    format_timestamp,
    load_corpus,
    load_query_packet,
    match_queries,
    matched_jsonl,
    parse_timestamp,
    rejects_jsonl,
)

from _oracles import (
    naive_word_match,
    reference_load_corpus,
    reference_matched_jsonl,
    reference_rejects_jsonl,
    reference_timestamp,
)
from _strategies import JSON_TEXT

FIXTURES = Path(__file__).parent / "fixtures"


def msg(mid, text, author="user", ts="2016-05-04T10:00:00Z"):
    return Message(id=mid, author=author, timestamp=ts, text=text)


def corpus_line(mid, text="hello", author="a", ts="2016-05-04T10:00:00Z"):
    return json.dumps({"id": mid, "author": author, "timestamp": ts, "text": text})


_WORDS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6)


@st.composite
def _text_and_queries(draw):
    """A text and a packet of queries, mostly built from shared words."""
    words = draw(st.lists(_WORDS, min_size=1, max_size=6))
    word = st.sampled_from(words).flatmap(
        lambda w: st.sampled_from([w, w.upper(), w.lower(), w.casefold(), w.swapcase()])
    )
    glue = st.one_of(st.just(" "), st.text(max_size=2))
    text = draw(st.one_of(
        st.text(),
        st.lists(st.tuples(word, glue).map("".join), max_size=10).map("".join),
    ))
    query = st.one_of(st.text(), st.lists(word, min_size=1, max_size=3).map(" ".join))
    queries = draw(st.lists(query.filter(str.strip), min_size=1, max_size=4))
    return text, tuple(queries)


TEXT_AND_QUERIES = _text_and_queries()

_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
_TIMESTAMP = st.one_of(
    st.just("2016-05-04T10:00:00Z"),
    st.tuples(st.datetimes(), st.sampled_from(["", "Z", "+01:00", "-01:00", "+23:59"])).map(
        lambda t: t[0].isoformat() + t[1]
    ),
    st.text(max_size=8),
    _JSON_VALUE,
)
_ID = st.one_of(st.text(max_size=4), st.integers(), _JSON_VALUE)
_TEXT = st.one_of(JSON_TEXT, _JSON_VALUE)
_CORPUS_OBJECT = st.fixed_dictionaries(
    {},
    optional={"id": _ID, "author": _ID, "timestamp": _TIMESTAMP, "text": _TEXT,
              "extra": _JSON_VALUE},
)


@st.composite
def _one_field_of_any_kind(draw):
    """A good corpus object with one field holding any JSON value, so that
    the field's type decides the line's fate."""
    good_id = st.one_of(st.text(max_size=4), st.integers())
    obj = {"id": draw(good_id), "author": draw(good_id),
           "timestamp": "2016-05-04T10:00:00Z", "text": draw(JSON_TEXT)}
    field = draw(st.sampled_from(sorted(obj)))
    obj[field] = draw(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                                _JSON_VALUE))
    return obj


ONE_FIELD_OF_ANY_KIND = _one_field_of_any_kind()
_WHITESPACE = st.text(st.sampled_from(" \t\r\n\x0b\x0c\x1c\x85\xa0\u2028\u3000"), max_size=3)
CORPUS_LINE = st.one_of(
    _CORPUS_OBJECT.map(json.dumps),
    st.tuples(_WHITESPACE, _CORPUS_OBJECT.map(json.dumps), _WHITESPACE).map("".join),
    st.tuples(_CORPUS_OBJECT.map(json.dumps), st.sampled_from([" x", "{}", "]", ",", " 1"])).map(
        "".join
    ),
    _CORPUS_OBJECT.map(json.dumps).flatmap(
        lambda s: st.integers(0, len(s) - 1).map(lambda n: s[:n])
    ),
    _JSON_VALUE.map(json.dumps),
    st.text(),
)


class TestQueryPacket:
    def test_loads_with_comments_and_blanks(self):
        src = io.StringIO("# business queries\n\ncentral bank\n  market rates  \n")
        packet = load_query_packet(src)
        assert packet.queries == ("central bank", "market rates")

    def test_rejects_empty_packet(self):
        with pytest.raises(ValueError):
            load_query_packet(io.StringIO("# nothing\n"))
        with pytest.raises(ValueError):
            QueryPacket(queries=())
        with pytest.raises(ValueError):
            QueryPacket(queries=("ok", "   "))


class TestLoadCorpus:
    def test_empty_stream(self):
        messages, rejects = load_corpus(io.StringIO(""))
        assert messages == [] and rejects == []

    def test_valid_lines_in_order(self):
        src = io.StringIO("\n".join(corpus_line(f"m{i}") for i in range(3)))
        messages, rejects = load_corpus(src)
        assert [m.id for m in messages] == ["m0", "m1", "m2"]
        assert rejects == []
        assert messages[0].timestamp == "2016-05-04T10:00:00Z"

    def test_timestamps_stored_as_canonical_utc_text(self):
        stamps = ["2016-05-04T10:00:00Z", "2016-05-04T10:00:00.123Z",
                  "2016-05-04T12:00:00.999999+02:00", "2016-05-04T10:00:00"]
        messages, _ = load_corpus([corpus_line(f"m{i}", ts=ts) for i, ts in enumerate(stamps)])
        assert [m.timestamp for m in messages] == ["2016-05-04T10:00:00Z"] * 4

    def test_malformed_line_rejected_with_line_number(self):
        src = io.StringIO(corpus_line("m1") + "\n" + corpus_line("m2") + "\n{oops\n")
        messages, rejects = load_corpus(src)
        assert [m.id for m in messages] == ["m1", "m2"]
        assert len(rejects) == 1
        assert rejects[0].line_no == 3
        assert "JSON" in rejects[0].reason

    def test_missing_field_rejected(self):
        bad = json.dumps({"id": "x", "author": "a", "text": "no timestamp"})
        messages, rejects = load_corpus(io.StringIO(bad))
        assert messages == []
        assert rejects[0].reason == "missing fields: timestamp"

    def test_bad_timestamp_rejected(self):
        bad = corpus_line("m1", ts="yesterday")
        messages, rejects = load_corpus(io.StringIO(bad))
        assert messages == []
        assert "bad timestamp" in rejects[0].reason

    def test_non_object_rejected(self):
        messages, rejects = load_corpus(io.StringIO('[1, 2]\n'))
        assert messages == [] and rejects[0].reason == "not a JSON object"

    @pytest.mark.parametrize("ts", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"])
    def test_timestamp_out_of_range_in_utc_rejected(self, ts):
        # Valid ISO-8601 whose UTC instant falls outside years 1..9999.
        messages, rejects = load_corpus(io.StringIO(corpus_line("m1", ts=ts)))
        assert messages == []
        assert [(r.line_no, r.reason) for r in rejects] == [(1, f"bad timestamp: {ts!r}")]

    # A whole-second UTC stamp has its date checked once per distinct date:
    # each stamp is on two lines, so the second meets the date already seen.
    @pytest.mark.parametrize("ts", ["2016-02-29T00:00:00Z", "2000-02-29T00:00:00Z"])
    def test_whole_second_utc_stamp_kept_as_is(self, ts):
        ingest_mod._check_date.cache_clear()
        messages, rejects = load_corpus([corpus_line("m1", ts=ts), corpus_line("m2", ts=ts)])
        assert [m.timestamp for m in messages] == [ts, ts] and rejects == []
        info = ingest_mod._check_date.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("ts", [
        "2015-02-29T00:00:00Z", "1900-02-29T00:00:00Z", "0000-01-01T00:00:00Z",
        "2016-05-04T00:60:00Z", "2016-05-04T23:59:60Z", "2016-05-04T24:00:00Z",
    ])
    def test_impossible_whole_second_utc_stamp_rejected(self, ts):
        messages, rejects = load_corpus([corpus_line("m1", ts=ts), corpus_line("m2", ts=ts)])
        assert messages == []
        assert [(r.line_no, r.reason) for r in rejects] == [
            (1, f"bad timestamp: {ts!r}"), (2, f"bad timestamp: {ts!r}")]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python converts integer strings of any length")
    def test_integer_too_long_to_convert_rejected(self):
        line = '{"id": ' + "1" * 5000 + "}"
        messages, rejects = load_corpus(io.StringIO(corpus_line("m1") + "\n" + line))
        assert [m.id for m in messages] == ["m1"]
        assert rejects[0].line_no == 2
        assert rejects[0].reason.startswith("invalid JSON: Exceeds the limit")
        assert rejects[0].raw == line

    def test_nesting_too_deep_rejected(self):
        line = "[" * 100_000 + "]" * 100_000
        messages, rejects = load_corpus(io.StringIO(line + "\n" + corpus_line("m1")))
        assert [m.id for m in messages] == ["m1"]
        assert [(r.line_no, r.reason) for r in rejects] == [(1, "invalid JSON: nested too deeply")]

    def test_integer_id_and_author_kept_in_decimal(self):
        line = json.dumps({"id": 7, "author": -12, "timestamp": "2016-05-04T10:00:00Z",
                           "text": "t"})
        (m,), _ = load_corpus([line])
        assert (m.id, m.author) == ("7", "-12")

    # The first four were once kept as their str(): a null text as "None",
    # which the query "none" matched; a list text as its repr; a boolean id
    # as "True"; a number stamp as whatever fromisoformat made of its digits
    # (2016-05-01 on Python 3.11, a reject on 3.10).
    @pytest.mark.parametrize("field, value, reason", [
        ("text", None, "bad text: a JSON string expected, got null"),
        ("text", ["market", "rates"], "bad text: a JSON string expected, got array"),
        ("id", True, "bad id: a JSON string or integer expected, got boolean"),
        ("timestamp", 20160501, "bad timestamp: a JSON string expected, got integer"),
        ("id", 1.5, "bad id: a JSON string or integer expected, got number"),
        ("author", {"name": "a"}, "bad author: a JSON string or integer expected, got object"),
        ("timestamp", None, "bad timestamp: a JSON string expected, got null"),
        ("text", 3, "bad text: a JSON string expected, got integer"),
    ])
    def test_field_of_wrong_type_rejected(self, field, value, reason):
        obj = json.loads(corpus_line("m1", text="market rates none"))
        obj[field] = value
        line = json.dumps(obj)
        messages, rejects = load_corpus([line, corpus_line("m2")])
        assert [m.id for m in messages] == ["m2"]
        assert [(r.line_no, r.reason, r.raw) for r in rejects] == [(1, reason, line)]

    def test_first_field_of_wrong_type_named(self):
        line = json.dumps({"text": None, "timestamp": 1, "author": True, "id": "m1"})
        _, (reject,) = load_corpus([line])
        assert reject.reason == "bad author: a JSON string or integer expected, got boolean"

    def test_line_not_utf8_rejected(self):
        # As a UTF-8 reader with errors="surrogateescape" hands it on.
        raw = b"\n".join([
            corpus_line("m1").replace("hello", "caf\u00e9").encode("utf-8"),
            corpus_line("m2").encode().replace(b"hello", b"hel\xfflo"),
            corpus_line("m3").encode(),
        ])
        src = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
        messages, rejects = load_corpus(src)
        assert [(m.id, m.text) for m in messages] == [("m1", "caf\u00e9"), ("m3", "hello")]
        assert [(r.line_no, r.reason) for r in rejects] == [(2, "invalid UTF-8: byte 0xff")]
        assert rejects[0].raw.encode("utf-8", "surrogateescape") == raw.splitlines()[1]

    @given(st.lists(CORPUS_LINE, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_json_loads_reference(self, lines):
        self.assert_agrees(lines)

    @given(st.lists(ONE_FIELD_OF_ANY_KIND.map(json.dumps), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_field_types_agree_with_reference(self, lines):
        self.assert_agrees(lines)

    @given(st.lists(st.one_of(CORPUS_LINE.map(str.encode), st.binary(max_size=40)), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_bytes_agree_with_reference(self, raw_lines):
        self.assert_agrees([raw.decode("utf-8", "surrogateescape") for raw in raw_lines])

    @staticmethod
    def assert_agrees(lines):
        messages, rejects = load_corpus(lines)
        ref_messages, ref_rejects = reference_load_corpus(lines)
        assert [(m.id, m.author, m.timestamp, m.text) for m in messages] == ref_messages
        assert all(type(field) is str for m in messages
                   for field in (m.id, m.author, m.timestamp, m.text))
        assert all(m.matched_queries == frozenset() for m in messages)
        assert [(r.line_no, r.reason, r.raw) for r in rejects] == ref_rejects
        return messages, rejects


class TestTimestamps:
    def test_z_suffix_and_offset(self):
        assert parse_timestamp("2016-05-04T10:00:00Z") == parse_timestamp(
            "2016-05-04T12:00:00+02:00"
        )

    def test_round_trip(self):
        ts = "2016-05-31T23:59:07Z"
        assert format_timestamp(parse_timestamp(ts)) == ts

    @pytest.mark.parametrize("ts", ["0001-01-01T00:00:00Z", "0999-12-31T23:59:59Z",
                                    "0042-06-01T08:05:09Z"])
    def test_years_below_1000_zero_padded(self, ts):
        assert format_timestamp(parse_timestamp(ts)) == ts

    def test_offset_converted_to_utc(self):
        assert format_timestamp(parse_timestamp("1000-01-01T00:30:00+01:00")) == (
            "0999-12-31T23:30:00Z"
        )

    @given(st.datetimes(timezones=st.sampled_from([None, timezone.utc])))
    @settings(max_examples=200)
    def test_agrees_with_isoformat(self, dt):
        expected = dt.replace(microsecond=0, tzinfo=None).isoformat() + "Z"
        assert format_timestamp(dt) == expected

    # timezone.utc skips the conversion; an equal zone that is another
    # object, or an offset, takes it
    @given(st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31),
                        timezones=st.sampled_from([None, timezone.utc,
                                                   timezone(timedelta(0), "UTC"),
                                                   timezone(timedelta(hours=-9, minutes=-30)),
                                                   timezone(timedelta(hours=14))])))
    @settings(max_examples=300)
    def test_agrees_with_reference_in_any_zone(self, dt):
        assert format_timestamp(dt) == reference_timestamp(dt)


def _outcome(convert, value):
    """What ``convert(value)`` returns, or the type of what it raises."""
    try:
        return convert(value)
    except Exception as exc:
        return type(exc)


def _fields(dt, sep="T"):
    return (f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}{sep}"
            f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}")


_DIGITS = "0123456789"
_FRACTION = st.sampled_from([0, 3, 6, 7]).flatmap(
    lambda n: st.text(_DIGITS, min_size=n, max_size=n).map(lambda d: "." + d if d else "")
)
# netmon's own output form, with a fraction of 0, 3, 6 or 7 digits
_UTC_STAMP = st.builds(lambda dt, fraction: _fields(dt) + fraction + "Z",
                       st.datetimes(), _FRACTION)


@st.composite
def _iso_stamp(draw):
    """An ISO-8601 stamp in any of the forms parse_timestamp may meet."""
    sep = draw(st.sampled_from(["T", "t", " "]))
    point = draw(st.sampled_from([".", ","]))
    fraction = draw(_FRACTION).replace(".", point)
    suffix = draw(st.sampled_from(["Z", "z", "+00:00", "-09:30", "+14:00", ""]))
    return _fields(draw(st.datetimes()), sep) + fraction + suffix


@st.composite
def _other_form(draw):
    """Week dates, basic forms, a short offset after hours and minutes."""
    dt = draw(st.datetimes())
    form = draw(st.sampled_from(["week", "basic", "short"]))
    if form == "week":
        year, week, day = dt.isocalendar()
        return f"{year:04d}-W{week:02d}-{day}T{_fields(dt)[11:]}Z"
    if form == "basic":
        return _fields(dt).replace("-", "").replace(":", "") + "Z"
    return _fields(dt)[:16] + "+00Z"


@st.composite
def _impossible_field(draw):
    """A UTC stamp with one field replaced by any digits: Feb 30, hour 24,
    second 60, year 0000 and the like."""
    stamp = draw(_UTC_STAMP)
    start, width = draw(st.sampled_from([(0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2)]))
    digits = draw(st.text(_DIGITS, min_size=width, max_size=width))
    return stamp[:start] + digits + stamp[start + width:]


_FULL_WIDTH = str.maketrans(_DIGITS, "０１２３４５６７８９")

TIMESTAMP_TEXT = st.one_of(
    _UTC_STAMP,
    _iso_stamp(),
    _other_form(),
    _impossible_field(),
    _UTC_STAMP.map(lambda s: s.translate(_FULL_WIDTH)),
    st.text(max_size=30),
)


@st.composite
def _repost_corpus(draw):
    """Corpus lines under distinct ids that draw their text from a small
    pool, so that texts recur from line to line as reposts make them."""
    texts = draw(st.lists(st.one_of(JSON_TEXT, st.integers(0, 2)), min_size=1, max_size=3))
    n_lines = draw(st.integers(1, 12))
    return [json.dumps({"id": i, "author": draw(st.text(max_size=3)),
                        "timestamp": draw(st.one_of(_UTC_STAMP, st.just("yesterday"))),
                        "text": draw(st.sampled_from(texts))})
            for i in range(n_lines)]


class TestLoadCorpusSharing:
    """Equal texts come back as one object."""

    @given(_repost_corpus())
    @example([corpus_line(str(i), text="one reposted text") for i in range(3)])
    @settings(max_examples=150, deadline=None)
    def test_repeated_texts_shared(self, lines):
        messages, _ = TestLoadCorpus.assert_agrees(lines)
        first = {}
        for m in messages:
            assert first.setdefault(m.text, m.text) is m.text


class TestCanonicalTimestamp:
    """canonical_timestamp is format_timestamp(parse_timestamp(...)), exceptions
    included, and its text orders as the instants do."""

    @given(TIMESTAMP_TEXT)
    @example("2016-05-01T00:00:00Z")
    @example("2016-05-01T00:00:00.123Z")
    @example("2016-05-01T00:00:00.123456Z")
    @example("2016-W18-7T00:00:00Z")
    @example("20160501T000000Z")
    @example("2016-05-01T00:00+00Z")
    @example("2016-02-30T00:00:00Z")
    @example("2016-05-01T24:00:00Z")
    @example("2016-05-01T23:59:60Z")
    @example("0000-01-01T00:00:00Z")
    @example("0001-01-01T00:00:00+01:00")
    @example("9999-12-31T23:59:59-01:00")
    @settings(max_examples=1000, deadline=None)
    def test_agrees_with_parse_and_format(self, value):
        expected = _outcome(lambda v: format_timestamp(parse_timestamp(v)), value)
        assert _outcome(canonical_timestamp, value) == expected

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_text_orders_as_the_instants(self, data):
        # a naive datetime stands for UTC; the range keeps every zone's
        # instant inside years 1..9999
        stamps = st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31),
                              timezones=st.one_of(st.none(), st.timedeltas(
                                  min_value=timedelta(hours=-23, minutes=-59),
                                  max_value=timedelta(hours=23, minutes=59)).map(timezone)))
        a = data.draw(stamps)
        b = data.draw(st.one_of(
            stamps,
            st.timedeltas(min_value=timedelta(days=-2), max_value=timedelta(days=2)).map(
                lambda d: a + d),
        ))

        def utc(dt):
            return dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)

        assert min(format_timestamp(a), format_timestamp(b)) == format_timestamp(
            min(a, b, key=utc))


class TestMatchQueries:
    def test_single_term_whole_word(self):
        packet = QueryPacket(queries=("PrivatBank",))
        out = match_queries([msg("1", "PrivatBank raises rates")], packet)
        assert len(out) == 1
        assert out[0].matched_queries == frozenset({0})

    def test_partial_word_does_not_match(self):
        packet = QueryPacket(queries=("PrivatBank",))
        assert match_queries([msg("1", "bank")], packet) == []

    def test_all_terms_required_case_insensitive(self):
        packet = QueryPacket(queries=("banks ukraine",))
        out = match_queries([msg("1", "Banks of Ukraine merge")], packet)
        assert len(out) == 1
        assert naive_word_match("Banks of Ukraine merge", "banks ukraine")

    def test_missing_term_fails(self):
        packet = QueryPacket(queries=("banks ukraine",))
        assert match_queries([msg("1", "Banks are merging")], packet) == []

    def test_nonmatching_messages_excluded(self):
        packet = QueryPacket(queries=("alpha", "beta"))
        out = match_queries(
            [msg("1", "alpha news"), msg("2", "gamma news"), msg("3", "beta and alpha")],
            packet,
        )
        assert [m.id for m in out] == ["1", "3"]
        assert out[1].matched_queries == frozenset({0, 1})
        for m in out:
            assert m.matched_queries

    def test_agrees_with_token_oracle(self):
        texts = [
            "Central bank holds rates",
            "the market? rates!! surge",
            "punctuation-heavy: market,rates;end",
            "no relevant words here",
            "RATES market",
            "market",
        ]
        queries = ("market rates", "central bank", "rates")
        packet = QueryPacket(queries=queries)
        messages = [msg(str(i), t) for i, t in enumerate(texts)]
        out = {m.id: m.matched_queries for m in match_queries(messages, packet)}
        for i, text in enumerate(texts):
            expected = frozenset(
                qi for qi, q in enumerate(queries) if naive_word_match(text, q)
            )
            assert out.get(str(i), frozenset()) == expected

    # Words whose case folding or alphanumeric class differs between
    # ASCII and the rest of Unicode.
    UNICODE_CASES = [
        ("İstanbul stays open", "İSTANBUL", True),
        ("İstanbul stays open", "stanbul", False),
        ("İstanbul stays open", "istanbul", False),
        ("die Straße ist gesperrt", "STRASSE", True),
        ("STRASSE gesperrt", "straße", True),
        ("snake_case names", "snake case", True),
        ("snake_case names", "snake_case", True),
        ("x² grows", "x", False),
        ("x² grows", "X²", True),
        ("price １２３ units", "123", False),
        ("price １２３ units", "１２３", True),
        ("cafe\u0301 au lait", "cafe lait", True),
        ("café au lait", "cafe", False),
        ("ΣΊΣΥΦΟΣ myth", "σίσυφος", True),
        ("plain ascii market rates", "market", True),
        ("mixed market ünd rates", "MARKET RATES", True),
    ]

    @pytest.mark.parametrize("text,query,expected", UNICODE_CASES)
    def test_unicode_words(self, text, query, expected):
        out = match_queries([msg("1", text)], QueryPacket(queries=(query,)))
        assert bool(out) is expected
        assert naive_word_match(text, query) is expected

    def test_every_ascii_character_splits_or_joins_as_the_oracle(self):
        packet = QueryPacket(queries=("ab cd",))
        for code in range(128):
            text = f"AB{chr(code)}cd"
            matched = bool(match_queries([msg("1", text)], packet))
            assert matched is naive_word_match(text, "ab cd"), repr(text)

    def test_ascii_and_unicode_texts_in_one_run(self):
        texts = [t for t, _, _ in self.UNICODE_CASES]
        queries = tuple(dict.fromkeys(q for _, q, _ in self.UNICODE_CASES))
        out = {m.id: m.matched_queries
               for m in match_queries([msg(str(i), t) for i, t in enumerate(texts)],
                                      QueryPacket(queries=queries))}
        for i, text in enumerate(texts):
            expected = frozenset(qi for qi, q in enumerate(queries) if naive_word_match(text, q))
            assert out.get(str(i), frozenset()) == expected

    @given(TEXT_AND_QUERIES)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_token_oracle_on_unicode(self, case):
        text, queries = case
        out = match_queries([msg("1", text)], QueryPacket(queries=queries))
        expected = frozenset(qi for qi, q in enumerate(queries) if naive_word_match(text, q))
        assert (out[0].matched_queries if out else frozenset()) == expected
        if out:
            assert (out[0].id, out[0].text) == ("1", text)

    @given(st.text(alphabet="AbCdE fGh", min_size=1, max_size=40), st.booleans())
    @settings(max_examples=100)
    def test_case_invariance(self, text, flip_query):
        packet_lower = QueryPacket(queries=("abc de",))
        packet_upper = QueryPacket(queries=("ABC DE",))
        m_orig = [msg("1", text)]
        m_swapped = [msg("1", text.swapcase())]
        packet = packet_upper if flip_query else packet_lower
        assert bool(match_queries(m_orig, packet)) == bool(
            match_queries(m_swapped, packet_lower)
        )


@pytest.fixture
def tokenized(monkeypatch):
    """Every text netmon.ingest hands to _words, in call order."""
    calls = []
    real = ingest_mod._words
    monkeypatch.setattr(ingest_mod, "_words", lambda text: calls.append(text) or real(text))
    return calls


# Texts that repeat, and pairs that fold to the same string but split into
# different words: "İ" folds to "i" and U+0307, which is no alphanumeric.
_REPOSTED_TEXTS = [
    "İstanbul stays open",
    "i\u0307stanbul stays open",
    "die Straße ist gesperrt",
    "die STRASSE ist gesperrt",
    "market rates surge",
    "MARKET rates surge",
    "nothing relevant here",
    "",
]
_REPOST_QUERIES = ("İSTANBUL", "stanbul", "straße", "market rates", "open", "i")


class TestMatchMemo:
    """Each distinct text is tokenized and tested once per call."""

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from(_REPOSTED_TEXTS)),
                    min_size=1, max_size=30))
    @example([("a", "İstanbul stays open"), ("b", "i\u0307stanbul stays open")])
    @example([("a", "i\u0307stanbul stays open"), ("a", "İstanbul stays open")])
    @settings(max_examples=200, deadline=None)
    def test_reposts_agree_with_token_oracle(self, pairs):
        messages = [msg(mid, text) for mid, text in pairs]
        out = match_queries(messages, QueryPacket(queries=_REPOST_QUERIES))
        expected = [
            (m.id, m.text, frozenset(qi for qi, q in enumerate(_REPOST_QUERIES)
                                     if naive_word_match(m.text, q)))
            for m in messages
        ]
        assert [(m.id, m.text, m.matched_queries) for m in out] == [e for e in expected if e[2]]

    def test_each_distinct_text_tokenized_once(self, tokenized):
        texts = ["market rates surge", "no match", "market rates surge", "no match",
                 "MARKET rates surge", "no match"]
        queries = ("market rates", "central bank")
        out = match_queries([msg(str(i), t) for i, t in enumerate(texts)],
                            QueryPacket(queries=queries))
        assert [m.id for m in out] == ["0", "2", "4"]
        assert sorted(tokenized) == sorted(list(queries) + list(set(texts)))

    def test_fixture_corpus_tokenized_once_per_distinct_text(self, tokenized):
        with open(FIXTURES / "queries.txt", encoding="utf-8") as fh:
            packet = load_query_packet(fh)
        with open(FIXTURES / "corpus_1000.jsonl", encoding="utf-8") as fh:
            messages, _ = load_corpus(fh)
        match_queries(messages, packet)
        distinct = {m.text for m in messages}
        assert len(distinct) < len(messages)
        assert len(tokenized) == len(distinct) + len(packet.queries)


class TestWords:
    """``_words``: maximal runs of ``str.isalnum()`` characters, each folded."""

    def test_word_class_is_isalnum(self):
        # The README defines a word by str.isalnum(); _WORD's [^\W_] must
        # match exactly those code points.
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(ingest_mod._WORD.findall(chars)) == "".join(c for c in chars if c.isalnum())

    def test_separators_and_folding(self):
        words = ingest_mod._words("İstanbul snake_case x² １２３ cafe\u0301 a😀b STRASSE straße")
        assert words == ["i\u0307stanbul", "snake", "case", "x²", "１２３", "cafe", "a", "b",
                         "strasse", "strasse"]
        assert ingest_mod._words("İSTANBUL") == words[:1] != ingest_mod._words("istanbul")


class TestDedupe:
    def test_no_duplicates_is_identity(self):
        messages = [msg("a", "x"), msg("b", "y")]
        assert dedupe(messages) == messages

    def test_first_occurrence_wins(self):
        first = msg("a", "original")
        messages = [first, msg("b", "y"), msg("a", "duplicate")]
        out = dedupe(messages)
        assert [m.id for m in out] == ["a", "b"]
        assert out[0].text == "original"

    def test_large_corpus_matches_set_cardinality(self):
        rng = random.Random(4)
        ids = [f"m{rng.randrange(7000)}" for _ in range(10_000)]
        messages = [msg(i, "t") for i in ids]
        assert len(dedupe(messages)) == len(set(ids))

    def test_idempotent(self):
        rng = random.Random(5)
        messages = [msg(f"m{rng.randrange(40)}", "t") for _ in range(200)]
        once = dedupe(messages)
        assert dedupe(once) == once


class TestWriters:
    @given(st.lists(st.builds(
        Message,
        id=JSON_TEXT,
        author=JSON_TEXT,
        timestamp=st.datetimes().map(format_timestamp),
        text=JSON_TEXT,
        matched_queries=st.frozensets(st.integers(0, 40)),
    ), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_matched_agrees_with_json_dumps_reference(self, messages):
        assert "".join(matched_jsonl(messages)) == reference_matched_jsonl(messages)

    @given(st.lists(st.builds(RejectRecord, line_no=st.integers(1, 10**9),
                              reason=JSON_TEXT, raw=JSON_TEXT), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_rejects_agree_with_json_dumps_reference(self, rejects):
        assert "".join(rejects_jsonl(rejects)) == reference_rejects_jsonl(rejects)

    def test_escapes_and_four_digit_year(self):
        m = Message(id='q"\\', author="\u00e9",
                    timestamp=canonical_timestamp("0999-01-01T00:00:00.500Z"),
                    text="\U0001f600\n", matched_queries=frozenset({2, 0}))
        assert "".join(matched_jsonl([m])) == (
            '{"id": "q\\"\\\\", "author": "\\u00e9", "timestamp": "0999-01-01T00:00:00Z", '
            '"text": "\\ud83d\\ude00\\n", "matched_queries": [0, 2]}\n'
        )
