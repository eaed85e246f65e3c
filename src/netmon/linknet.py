"""Hyperlink extraction, short-link resolution and URL canonicalization.

Resolution is defined against a pluggable fetcher so the whole chain is
testable offline: a fetcher maps a URL to a redirect target (string), a
terminal answer (None) or a failure (raises FetchFailed).  The shipped
fetchers are an offline map-file fetcher and a live HTTP fetcher that
only touches redirect headers.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence
from urllib.parse import urljoin, urlsplit

from .ingest import Message
from .jsonl import quote

__all__ = [
    "ExtractedLink",
    "ResolvedLink",
    "ResourceCitations",
    "LinkStats",
    "LinkParseError",
    "FetchFailed",
    "OfflineFetcher",
    "LiveFetcher",
    "DEFAULT_SHORTENER_BASES",
    "SOCIAL_HOSTS",
    "STATUS_RESOLVED",
    "STATUS_LOOP",
    "STATUS_DEPTH",
    "STATUS_FAILED",
    "STATUS_NOT_SHORTENED",
    "extract_links",
    "is_shortener",
    "canonicalize",
    "resolve",
    "resolve_all",
    "build_link_records",
    "link_stats",
    "links_jsonl",
    "resolved_jsonl",
]

# Short-address services whose links must be expanded before the target
# resource can be identified.
DEFAULT_SHORTENER_BASES = (
    "http://migre.me/",
    "http://bit.ly/",
    "http://ow.ly/",
    "http://tinyurl.com/",
    "https://lnkd.in/",
    "https://goo.gl/",
    "http://wp.me/",
    "http://j.mp/",
    "http://dlvr.it/",
)

# Heavily cited hosts that point back into social platforms; kept in the
# ranking but tagged so downstream stages can separate them from
# external informational resources.
SOCIAL_HOSTS = frozenset(
    {
        "youtu.be",
        "youtube.com",
        "fb.me",
        "facebook.com",
        "vk.com",
        "twitter.com",
        "plus.google.com",
        "livejournal.com",
    }
)

STATUS_RESOLVED = "resolved"
STATUS_LOOP = "loop_detected"
STATUS_DEPTH = "depth_exceeded"
STATUS_FAILED = "fetch_failed"
STATUS_NOT_SHORTENED = "not_shortened"

_OK_STATUSES = (STATUS_RESOLVED, STATUS_NOT_SHORTENED)


class LinkParseError(ValueError):
    """A URL could not be parsed into scheme/host/path."""


class FetchFailed(RuntimeError):
    """A fetcher could not retrieve redirect information for a URL."""


@dataclass(slots=True)
class ExtractedLink:
    message_id: str
    raw_url: str
    position: int


class ResolvedLink(NamedTuple):
    raw_url: str
    final_url: str
    redirect_chain: tuple[str, ...]
    was_shortened: bool
    status: str
    host: str  # lower-cased host of final_url; "" when raw_url does not parse
    raw_canonical: str  # canonicalize(raw_url); raw_url itself when it does not parse


@dataclass(slots=True)
class ResourceCitations:
    """The link occurrences that reached one canonical final URL, folded:
    ``first_seen`` is the least canonical UTC timestamp text of the citing
    messages, ``query_sets`` their distinct ``matched_queries``."""

    url: str
    host: str
    social: bool
    citations: int
    authors: set[str]
    first_seen: str
    message_ids: set[str]
    query_sets: set[frozenset[int]]


@dataclass(frozen=True)
class LinkStats:
    messages_with_links_fraction: float
    unique_links_fraction: float
    unique_links_fraction_pre_resolution: float
    per_source_counts: dict[str, int]


# URLs run over the RFC 3986 character set; trailing sentence
# punctuation and unbalanced closing brackets are peeled off.
_URL_RUN = re.compile(r"https?://[A-Za-z0-9\-._~:/?#\[\]@!$&'()*+,;=%]+")
_TRAILING_PUNCT = ".,;:!?'\""
_BRACKET_PAIRS = {")": "(", "]": "[", "}": "{"}
_PEELABLE = _TRAILING_PUNCT + "".join(_BRACKET_PAIRS)


def _trim_url(candidate: str) -> str:
    """``candidate`` without its trailing sentence punctuation and
    unbalanced closing brackets, peeled one character at a time from the
    end; a closer is unbalanced when what is left holds more of it than
    of its opener.

    Only the run of punctuation and closers at the end can be peeled, so
    an opener's count is that of the whole candidate and a closer's drops
    by one per peel: each is counted once, and the time is linear in the
    candidate's length."""
    end = len(candidate)
    keep = len(candidate.rstrip(_PEELABLE))
    if keep == end:
        return candidate
    counts: dict[str, int] = {}
    while end > keep:
        last = candidate[end - 1]
        opener = _BRACKET_PAIRS.get(last)
        if opener is not None:
            if last not in counts:
                counts[last] = candidate.count(last, 0, end)
                counts[opener] = candidate.count(opener)
            if counts[opener] >= counts[last]:
                break
            counts[last] -= 1
        end -= 1
    return candidate[:end]


def _url_spans(text: str) -> list[tuple[str, int]]:
    """(url, offset) of every URL in ``text``, in text order."""
    out = []
    for m in _URL_RUN.finditer(text):
        url = _trim_url(m.group(0))
        if len(url) > len("https://"):
            out.append((url, m.start()))
    return out


def extract_links(messages: Iterable[Message]) -> list[ExtractedLink]:
    """All URLs in the messages' texts, in message order and then text
    order, offsets preserved.  Each distinct text is scanned once:
    reposts share their URLs and offsets."""
    spans_of: dict[str, list[tuple[str, int]]] = {}
    out = []
    for msg in messages:
        spans = spans_of.get(msg.text)
        if spans is None:
            spans = spans_of[msg.text] = _url_spans(msg.text)
        for url, position in spans:
            out.append(ExtractedLink(msg.id, url, position))
    return out


class _Split(NamedTuple):
    """The parts of a checked URL; ``host`` is lower-cased."""

    scheme: str
    netloc: str
    host: str
    port: Optional[int]
    path: str
    query: str


# A plain URL: http or https in any case, an ASCII host without userinfo,
# brackets or escapes, an optional port of up to five digits, and a path
# (empty or from "/"), query and fragment of printable ASCII.  RFC 3986
# splits these exactly as urlsplit does.  The classes are written
# positively (path stops at "?" and "#", query at "#"): the negated form
# spans all of Unicode and took 15 ms to compile, against under 1 ms.
_PLAIN_URL = re.compile(
    r"([Hh][Tt][Tt][Pp][Ss]?)://(([A-Za-z0-9.-]+)(?::([0-9]{0,5}))?)"
    r'((?:/[!"$->@-~]*)?)(?:\?([!"$-~]*))?(?:#[!-~]*)?'
)


def _split_checked(url: str) -> _Split:
    """The parts of ``url``, its host and port read once.

    A plain URL (see ``_PLAIN_URL``) with a port of at most 65535 is
    split by one anchored match.  Any other URL goes through one
    ``urlsplit``, so the parts and every ``LinkParseError`` message are
    those that ``urlsplit`` alone gives."""
    m = _PLAIN_URL.fullmatch(url)
    if m is not None:
        scheme, netloc, host, port, path, query = m.groups("")
        port_num = int(port) if port else None
        if port_num is None or port_num <= 65535:
            return _Split(scheme.lower(), netloc, host.lower(), port_num, path, query)
    try:
        parts = urlsplit(url)
    except ValueError as exc:  # e.g. an unclosed IPv6 bracket
        raise LinkParseError(f"unparsable URL {url!r}: {exc}") from exc
    if parts.scheme not in ("http", "https"):
        raise LinkParseError(f"unsupported scheme in {url!r}")
    host = parts.hostname
    if not host:
        raise LinkParseError(f"no host in {url!r}")
    try:
        port = parts.port
    except ValueError as exc:
        raise LinkParseError(f"bad port in {url!r}") from exc
    return _Split(parts.scheme, parts.netloc, host.lower(), port, parts.path, parts.query)


def canonicalize(url: str) -> str:
    """Normalize a URL for uniqueness counting.

    Lowercases scheme and host, drops default ports and the fragment,
    keeps path and query byte-for-byte, and drops the trailing slash of
    an otherwise empty path.
    """
    return _canonical(_split_checked(url))


def _canonical(split: _Split) -> str:
    host = split.host
    if ":" in host:  # an IPv6 literal keeps its brackets (RFC 3986 3.2.2)
        host = f"[{host}]"
    port = split.port
    default_port = 80 if split.scheme == "http" else 443
    netloc = host if port is None or port == default_port else f"{host}:{port}"
    if "@" in split.netloc:
        netloc = split.netloc.rsplit("@", 1)[0] + "@" + netloc
    path = split.path
    if path == "/":
        path = ""
    query = f"?{split.query}" if split.query else ""
    return f"{split.scheme}://{netloc}{path}{query}"


def _host_of(url: str) -> str:
    return _split_checked(url).host


@lru_cache(maxsize=8)
def _shortener_hosts(bases: tuple[str, ...]) -> frozenset[str]:
    """Hosts of a registry's base addresses, built once per registry."""
    return frozenset(_host_of(b) for b in bases)


_DEFAULT_SHORTENER_HOSTS = _shortener_hosts(DEFAULT_SHORTENER_BASES)


def _registry_hosts(registry: Optional[Iterable[str]]) -> frozenset[str]:
    return _DEFAULT_SHORTENER_HOSTS if registry is None else _shortener_hosts(tuple(registry))


def is_shortener(url: str, registry: Optional[Iterable[str]] = None) -> bool:
    """True when the URL's host is one of the short-address services."""
    return _host_of(url) in _registry_hosts(registry)


class OfflineFetcher:
    """Redirect oracle backed by a {url: target} mapping.

    URLs absent from the map are terminal; a None target marks a URL
    whose fetch fails.  Immutable, safe to share between threads.
    """

    def __init__(self, mapping: Mapping[str, Optional[str]]):
        self._map = dict(mapping)

    def __call__(self, url: str) -> Optional[str]:
        if url not in self._map:
            return None
        target = self._map[url]
        if target is None:
            raise FetchFailed(f"fetch failed for {url}")
        return target


@lru_cache(maxsize=None)
def _opener():
    """An http(s)-only ``urllib`` opener that hands a 3xx back as an HTTPError."""
    import urllib.request as ur  # not at module level: it adds about 30 ms to every start-up

    class NoRedirect(ur.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None

    opener = ur.OpenerDirector()
    for handler in (ur.ProxyHandler(), ur.UnknownHandler(), ur.HTTPHandler(), ur.HTTPSHandler(),
                    ur.HTTPDefaultErrorHandler(), NoRedirect(), ur.HTTPErrorProcessor()):
        opener.add_handler(handler)
    return opener


class LiveFetcher:
    """Follows one redirect hop over HTTP: HEAD, then GET if HEAD answers 405 or 501."""

    def __init__(self, timeout: float = 5.0):
        self.timeout = timeout

    def __call__(self, url: str) -> Optional[str]:
        from http.client import HTTPException
        from urllib.error import HTTPError
        from urllib.request import Request

        try:
            for method in ("HEAD", "GET"):
                try:
                    response = _opener().open(Request(url, method=method), timeout=self.timeout)
                except HTTPError as exc:  # every status but a 2xx, a 3xx too
                    response = exc
                with response:
                    status, location = response.status, response.headers.get("Location")
                if status not in (405, 501):
                    break
        except (OSError, HTTPException, ValueError) as exc:
            raise FetchFailed(f"fetch failed for {url}: {exc}") from exc
        return urljoin(url, location) if 300 <= status < 400 and location else None


def resolve(
    link: ExtractedLink,
    fetcher: Callable[[str], Optional[str]],
    registry: Optional[Iterable[str]] = None,
    max_depth: int = 10,
) -> ResolvedLink:
    """Follow redirects for one link; failures are statuses, not raises.

    Parses the raw URL and each redirect target once; ``raw_canonical``
    comes from the raw URL's parse, the final URL and its host from the
    last parse the chain accepted."""
    raw = link.raw_url
    try:
        parts = _split_checked(raw)
    except LinkParseError:
        return ResolvedLink(raw, raw, (raw,), False, STATUS_FAILED, "", raw)
    raw_canonical = _canonical(parts)
    from_shortener = parts.host in _registry_hosts(registry)
    chain = [raw]
    status = None
    while status is None:
        try:
            target = fetcher(chain[-1])
        except FetchFailed:
            status = STATUS_FAILED
            break
        if target is None:
            status = (
                STATUS_RESOLVED if (from_shortener or len(chain) > 1) else STATUS_NOT_SHORTENED
            )
            break
        # Every chain entry already parsed, so a loop needs no new parse.
        if target in chain:
            status = STATUS_LOOP
            break
        try:
            target_parts = _split_checked(target)
        except LinkParseError:
            status = STATUS_FAILED
            break
        if len(chain) > max_depth:
            status = STATUS_DEPTH
            break
        chain.append(target)
        parts = target_parts

    final_url = _canonical(parts) if len(chain) > 1 else raw_canonical
    return ResolvedLink(raw, final_url, tuple(chain), from_shortener or len(chain) > 1, status,
                        parts.host, raw_canonical)


def resolve_all(
    links: Iterable[ExtractedLink],
    fetcher: Callable[[str], Optional[str]],
    registry: Optional[Iterable[str]] = None,
    max_depth: int = 10,
    max_in_flight: int = 8,
) -> dict[str, ResolvedLink]:
    """Resolve each distinct raw URL once; the result, keyed by raw URL,
    iterates in first-occurrence order whatever ``max_in_flight`` is."""
    distinct: list[ExtractedLink] = []
    seen: set[str] = set()
    for link in links:
        if link.raw_url in seen:
            continue
        seen.add(link.raw_url)
        distinct.append(link)
    if max_in_flight > 1 and len(distinct) > 1:
        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            results = list(
                pool.map(lambda l: resolve(l, fetcher, registry, max_depth), distinct)
            )
    else:
        results = [resolve(l, fetcher, registry, max_depth) for l in distinct]
    return {r.raw_url: r for r in results}


def _is_social(host: str) -> bool:
    return host.removeprefix("www.") in SOCIAL_HOSTS


def build_link_records(
    messages: Sequence[Message],
    extracted: Sequence[ExtractedLink],
    resolved: Mapping[str, ResolvedLink],
) -> list[ResourceCitations]:
    """Fold each resolved or not-shortened link occurrence, joined with
    its message, into the citations of its final URL; one entry per
    final URL, in first-occurrence order.  A message id that recurs
    takes its last message.  Whether a host is social is decided once
    per host."""
    by_id = {m.id: m for m in messages}
    social_of: dict[str, bool] = {}
    folds: dict[str, ResourceCitations] = {}
    for link in extracted:
        res = resolved[link.raw_url]
        if res.status not in _OK_STATUSES:
            continue
        msg = by_id[link.message_id]
        fold = folds.get(res.final_url)
        if fold is None:
            social = social_of.get(res.host)
            if social is None:
                social = social_of[res.host] = _is_social(res.host)
            folds[res.final_url] = ResourceCitations(
                res.final_url, res.host, social, 1, {msg.author}, msg.timestamp, {msg.id},
                {msg.matched_queries})
            continue
        fold.citations += 1
        fold.authors.add(msg.author)
        # fixed-width canonical texts: the least text is the earliest instant
        if msg.timestamp < fold.first_seen:
            fold.first_seen = msg.timestamp
        fold.message_ids.add(msg.id)
        fold.query_sets.add(msg.matched_queries)
    return list(folds.values())


def link_stats(
    messages: Sequence[Message],
    extracted: Sequence[ExtractedLink],
    resolved: Mapping[str, ResolvedLink],
    citations: Sequence[ResourceCitations],
) -> LinkStats:
    """Corpus-level link ratios and per-source citation counts.

    ``resolved`` is ``resolve_all(extracted)`` and ``citations`` is
    ``build_link_records`` of the three: the final URLs and per-source
    counts are read off the folds (a canonical final URL fixes its host),
    not off the link occurrences."""
    if not messages:
        raise ValueError("link statistics are undefined for zero messages")
    with_links = {link.message_id for link in extracted}
    n_links = len(extracted)
    per_source: dict[str, int] = {}
    for fold in citations:
        per_source[fold.host] = per_source.get(fold.host, 0) + fold.citations
    raw_canonicals = {r.raw_canonical for r in resolved.values()}
    return LinkStats(
        messages_with_links_fraction=len(with_links) / len(messages),
        unique_links_fraction=len(citations) / n_links if n_links else 0.0,
        unique_links_fraction_pre_resolution=len(raw_canonicals) / n_links if n_links else 0.0,
        per_source_counts=per_source,
    )


def links_jsonl(links: Iterable[ExtractedLink]) -> Iterator[str]:
    """One ``links.jsonl`` line per extracted link occurrence."""
    for link in links:
        yield (f'{{"message_id": {quote(link.message_id)}, "raw_url": {quote(link.raw_url)}, '
               f'"position": {link.position}}}\n')


def resolved_jsonl(resolved: Iterable[ResolvedLink]) -> Iterator[str]:
    """One ``resolved.jsonl`` line per distinct raw URL."""
    for r in resolved:
        yield (f'{{"raw_url": {quote(r.raw_url)}, "final_url": {quote(r.final_url)}, '
               f'"redirect_chain": [{", ".join(map(quote, r.redirect_chain))}], '
               f'"was_shortened": {"true" if r.was_shortened else "false"}, '
               f'"status": {quote(r.status)}}}\n')
