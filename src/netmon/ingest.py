"""Query packets and message-corpus scanning (pipeline stages 1 and 2).

The network scanner is abstracted as a line-delimited JSON stream so the
corpus can come from a fixture file, a spool directory or a live
collector without changing this module.  A message is formally relevant
to a query when every term of the query occurs in the message text as a
whole word, case-insensitively.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import lru_cache
from typing import IO, Iterable, Iterator, Union

from .jsonl import decode_line, quote

__all__ = [
    "QueryPacket",
    "Message",
    "RejectRecord",
    "load_query_packet",
    "load_corpus",
    "match_queries",
    "dedupe",
    "parse_timestamp",
    "format_timestamp",
    "canonical_timestamp",
    "matched_jsonl",
    "rejects_jsonl",
]


@dataclass(frozen=True)
class QueryPacket:
    """An ordered batch of corporate search queries."""

    queries: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValueError("query packet must contain at least one query")
        for q in self.queries:
            if not q.strip():
                raise ValueError("queries must be non-empty")


@dataclass(slots=True)
class Message:
    """One corpus message.  ``timestamp`` is its instant as canonical UTC
    text (``canonical_timestamp``), carried as is to every output.
    ``matched_queries`` is set in place by ``match_queries``."""

    id: str
    author: str
    timestamp: str
    text: str
    matched_queries: frozenset[int] = frozenset()


@dataclass(frozen=True)
class RejectRecord:
    line_no: int
    reason: str
    raw: str


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 instant; naive values are taken as UTC."""
    dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    """RFC 3339 UTC with a Z suffix, whole seconds and a 4-digit year."""
    if dt.tzinfo is not timezone.utc:  # as parse_timestamp returns it
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        dt = dt.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
    )


# netmon's own output form, and the millisecond form of Twitter API v2's
# created_at.  Hours stop at 23, so that no reading of T24:00 as the next
# day's midnight can reach the fast path, and minutes and seconds at 59, so
# that the shape alone checks the clock.
_CANONICAL_SHAPE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]"
    r"(?:\.[0-9]{1,6})?Z")


@lru_cache(maxsize=4096)
def _check_date(value: str) -> None:
    """Raise ``ValueError`` unless ``YYYY-MM-DD`` is a calendar date in
    years 1..9999; a corpus repeats its dates, so each is parsed once."""
    date.fromisoformat(value)


def canonical_timestamp(value: str) -> str:
    """``format_timestamp(parse_timestamp(value))``, with the same exceptions.

    A UTC value of the form ``YYYY-MM-DDTHH:MM:SSZ`` is already that
    text: its clock fields are checked by their shape and its date once
    per distinct date by ``date.fromisoformat`` (which rejects Feb 29 of
    a common year or year 0), and it is returned as is.  With 1 to 6
    fraction digits before the ``Z`` it is checked by
    ``datetime.fromisoformat`` and cut to whole seconds.  Every other
    value is parsed and formatted.  The text has a fixed width, so it
    orders as the instants do.
    """
    if _CANONICAL_SHAPE.fullmatch(value):
        if len(value) == 20:
            _check_date(value[:10])
            return value
        datetime.fromisoformat(value[:-1])
        return value[:19] + "Z"
    return format_timestamp(parse_timestamp(value))


def load_query_packet(source: Union[IO[str], Iterable[str]]) -> QueryPacket:
    """One query per line; blank lines and '#' comments are skipped."""
    queries = []
    for line in source:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        queries.append(stripped)
    return QueryPacket(queries=tuple(queries))


_REQUIRED_FIELDS = ("id", "author", "timestamp", "text")

# A byte that is not UTF-8, as a reader with errors="surrogateescape" hands it on.
_UNDECODED_BYTE = re.compile("[\udc80-\udcff]")


def load_corpus(
    source: Union[IO[str], Iterable[str]],
) -> tuple[list[Message], list[RejectRecord]]:
    """Parse a line-delimited JSON corpus.

    Each line is stripped of surrounding whitespace and decoded as by
    ``json.loads``.  Malformed lines go into the rejects list with their
    1-based line number instead of being dropped silently.  So does a
    line read from bytes that are not UTF-8: open the corpus as UTF-8 with
    ``errors="surrogateescape"``, and each such byte arrives as a lone
    surrogate U+DC80..U+DCFF, which no UTF-8 text can hold.

    ``text`` and ``timestamp`` must be JSON strings; ``id`` and
    ``author`` a JSON string or integer (kept as its decimal text), never
    a boolean.  A line that breaks this is rejected with a reason naming
    the field.

    A repost repeats the text it reposts, so equal ``text`` values come
    back as one string object.
    """
    messages: list[Message] = []
    rejects: list[RejectRecord] = []
    texts: dict[str, str] = {}  # lives only as long as this call
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.isascii():
            undecoded = _UNDECODED_BYTE.search(stripped)
            if undecoded:
                byte = ord(undecoded.group()) - 0xDC00
                rejects.append(RejectRecord(line_no, f"invalid UTF-8: byte 0x{byte:02x}",
                                            stripped))
                continue
        try:
            obj = decode_line(stripped)
        except json.JSONDecodeError as exc:
            rejects.append(RejectRecord(line_no, f"invalid JSON: {exc.msg}", stripped))
            continue
        except ValueError as exc:  # an integer too long to convert
            rejects.append(RejectRecord(line_no, f"invalid JSON: {exc}", stripped))
            continue
        except RecursionError:
            rejects.append(RejectRecord(line_no, "invalid JSON: nested too deeply", stripped))
            continue
        if type(obj) is not dict:
            rejects.append(RejectRecord(line_no, "not a JSON object", stripped))
            continue
        try:
            mid, author, stamp, text = obj["id"], obj["author"], obj["timestamp"], obj["text"]
        except KeyError:
            missing = ", ".join(f for f in _REQUIRED_FIELDS if f not in obj)
            rejects.append(RejectRecord(line_no, f"missing fields: {missing}", stripped))
            continue
        if (type(mid) is not str or type(author) is not str
                or type(stamp) is not str or type(text) is not str):
            reason = _bad_field(obj)
            if reason:
                rejects.append(RejectRecord(line_no, reason, stripped))
                continue
            mid, author = str(mid), str(author)  # integers, in decimal
        try:
            ts = canonical_timestamp(stamp)
        except (ValueError, OverflowError):
            rejects.append(RejectRecord(line_no, f"bad timestamp: {stamp!r}", stripped))
            continue
        messages.append(Message(mid, author, ts, texts.setdefault(text, text)))
    return messages, rejects


_JSON_KINDS = {type(None): "null", bool: "boolean", int: "integer", float: "number",
               list: "array", dict: "object"}


def _bad_field(obj: dict) -> str:
    """The reject reason for the first required field of ``obj`` whose
    type breaks the corpus rule, or "" when every field keeps it."""
    for field in _REQUIRED_FIELDS:
        kind = type(obj[field])
        if kind is str or (kind is int and field in ("id", "author")):  # a bool is no int here
            continue
        expected = "string or integer" if field in ("id", "author") else "string"
        return f"bad {field}: a JSON {expected} expected, got {_JSON_KINDS[kind]}"
    return ""


# Words are maximal runs of str.isalnum characters, which is what
# [^\W_] matches.
_WORD = re.compile(r"[^\W_]+")


def _words(text: str) -> list[str]:
    """The case-folded words of ``text``, repeats included."""
    # Each word is folded on its own: folding the whole text first is not
    # the same, as "İ".casefold() ends in U+0307, which is no alphanumeric.
    return [word.casefold() for word in _WORD.findall(text)]


def match_queries(messages: Iterable[Message], packet: QueryPacket) -> list[Message]:
    """The messages matching at least one query, in order.

    Matches are recorded in place: each kept message's
    ``matched_queries`` is set to the indices of the queries it matches,
    and the same objects are returned, not copies.  A message that
    matches nothing is left as it was.

    A message matches a query when every term of the query appears in
    the message's token set (whole-word, case-folded).  Each distinct
    text is tokenized and tested once: reposts share their result.
    """
    # A query without words matches nothing.  A message is tested only
    # against the query words it contains.
    queries = [(idx, terms) for idx, q in enumerate(packet.queries)
               if (terms := frozenset(_words(q)))]
    vocabulary = frozenset().union(*(terms for _, terms in queries))
    matches_of: dict[str, frozenset[int]] = {}
    out: list[Message] = []
    for msg in messages:
        matched = matches_of.get(msg.text)
        if matched is None:  # an empty result is cached too, and is falsy
            present = vocabulary.intersection(_words(msg.text))
            matched = frozenset([idx for idx, terms in queries if terms <= present])
            matches_of[msg.text] = matched
        if matched:
            msg.matched_queries = matched
            out.append(msg)
    return out


def dedupe(messages: Iterable[Message]) -> list[Message]:
    """First occurrence of each id wins; order otherwise preserved."""
    seen: set[str] = set()
    out: list[Message] = []
    for msg in messages:
        if msg.id in seen:
            continue
        seen.add(msg.id)
        out.append(msg)
    return out


def matched_jsonl(messages: Iterable[Message]) -> Iterator[str]:
    """One ``matched.jsonl`` line per message, matched queries ascending.

    The line's tail, from ``"text"`` on, is built once per distinct text
    and query set."""
    tails: dict[tuple[str, frozenset[int]], str] = {}
    for m in messages:
        key = (m.text, m.matched_queries)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = (
                f'"text": {quote(m.text)}, '
                f'"matched_queries": [{", ".join(map(str, sorted(m.matched_queries)))}]}}\n')
        yield (f'{{"id": {quote(m.id)}, "author": {quote(m.author)}, '
               f'"timestamp": "{m.timestamp}", {tail}')


def rejects_jsonl(rejects: Iterable[RejectRecord]) -> Iterator[str]:
    """One ``rejects.jsonl`` line per rejected corpus line."""
    for r in rejects:
        yield f'{{"line_no": {r.line_no}, "reason": {quote(r.reason)}, "raw": {quote(r.raw)}}}\n'
