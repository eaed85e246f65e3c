import http.client
import io
import json
import os
import string
import subprocess
import sys
import textwrap
import time
import urllib.request
from email.message import Message as HeaderMessage
from pathlib import Path
from urllib.error import HTTPError, URLError
from urllib.response import addinfourl

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netmon.linknet as linknet_mod
from netmon.cli import main
from netmon.ingest import Message, load_corpus
from netmon.linknet import (
    DEFAULT_SHORTENER_BASES,
    STATUS_DEPTH,
    STATUS_FAILED,
    STATUS_LOOP,
    STATUS_NOT_SHORTENED,
    STATUS_RESOLVED,
    ExtractedLink,
    FetchFailed,
    LinkParseError,
    LiveFetcher,
    OfflineFetcher,
    ResolvedLink,
    build_link_records,
    canonicalize,
    extract_links,
    is_shortener,
    link_stats,
    links_jsonl,
    resolve,
    resolve_all,
    resolved_jsonl,
)

from _oracles import (
    reference_extract_links,
    reference_link_stats,
    reference_links_jsonl,
    reference_resolved_jsonl,
    reference_split_checked,
    reference_trim_url,
    reference_url_scan,
)
from _strategies import JSON_TEXT


def msg(mid, text, author="user"):
    return Message(id=mid, author=author, timestamp="2016-05-04T10:00:00Z", text=text)


def link(url, mid="m1", pos=0):
    return ExtractedLink(message_id=mid, raw_url=url, position=pos)


@pytest.fixture
def parsed(monkeypatch):
    """Every URL netmon.linknet parses, in call order."""
    calls = []
    real = linknet_mod._split_checked
    monkeypatch.setattr(linknet_mod, "_split_checked", lambda url: calls.append(url) or real(url))
    return calls


class TestExtractLinks:
    def test_no_url(self):
        assert extract_links([msg("1", "just words, no links at all")]) == []

    def test_single_shortlink(self):
        out = extract_links([msg("1", "see http://bit.ly/abc now")])
        assert len(out) == 1
        assert out[0].raw_url == "http://bit.ly/abc"
        assert out[0].position == 4

    def test_two_links_trailing_period_trimmed(self):
        out = extract_links([msg("1", "a https://x.test/p?q=1. b http://y.test")])
        assert [l.raw_url for l in out] == ["https://x.test/p?q=1", "http://y.test"]

    def test_offsets_slice_back_to_url(self):
        text = "pre http://a.test/x (also https://b.test/y), end."
        for l in extract_links([msg("1", text)]):
            assert text[l.position : l.position + len(l.raw_url)] == l.raw_url

    def test_balanced_parens_kept_unbalanced_trimmed(self):
        out = extract_links([msg("1", "see https://x.test/a_(b) ok")])
        assert out[0].raw_url == "https://x.test/a_(b)"
        out = extract_links([msg("1", "(see https://x.test/ab)")])
        assert out[0].raw_url == "https://x.test/ab"

    FIXTURE_TEXTS = [
        "plain http://a.test end",
        "https://b.test/path/deep?x=1&y=2 trailing",
        "wrapped (http://c.test/page) in parens",
        "comma http://d.test/x, then more",
        "bang http://e.test/x! wow",
        "question https://f.test/x? hmm",
        "colon before http://g.test:8080/x: after",
        "semating http://h.test/x; done",
        "quote 'http://i.test/x' quoted",
        'double "http://j.test/x" quoted',
        "armenian http://k.test/x… ellipsis char ends url run",
        "two http://l.test http://m.test in a row",
        "fragment https://n.test/x#frag kept in raw",
        "tight,http://o.test/x,commas",
        "wiki https://p.test/Art_(film) balanced",
        "nested ((https://q.test/a(b)c)) peeled",
        "bracket [http://r.test/x] square",
        "brace {http://s.test/x} curly",
        "percent http://t.test/%20a encoded",
        "plus https://u.test/a+b?c=d+e plus signs",
        "at http://v.test/@user handle",
        "bare scheme http:// nothing",
        "almost https:// also nothing",
        "uppercase HTTP://w.test not matched",
        "inner httphttp://x.test matched inside",
        "dots http://y.test/a.b.c. final dot trimmed",
        "multi http://z.test/x... many dots",
        "tilde http://aa.test/~user ok",
        "equals http://bb.test/?a=b=c ok",
        "empty path http://cc.test stays",
        "slash root http://dd.test/ stays",
        "query only http://ee.test?q=1 ok",
        "mixed http://ff.test/x): both peeled",
        "no space,text http://gg.test/url.",
        "unicode host stays ascii http://hh.test/ür cut at non-ascii",
        "semi http://ii.test/x;y=1 kept inner semicolon",
        "star http://jj.test/a*b ok",
        "dollar http://kk.test/$x ok",
        "amp http://ll.test/a&b=c ok",
        "apos http://mm.test/it's inner apostrophe kept",
        "end apos http://nn.test/its' trimmed",
        "exclaim! http://oo.test/wow!! trimmed twice",
        "angle <http://pp.test/x> angled",
        "newline\nhttp://qq.test/x\nlines",
        "tab\thttp://rr.test/x\ttabs",
        "comma-set http://ss.test/a,b,c, last only",
        "double-colon http://tt.test/a::b:: trailing pair",
        "hash-only http://uu.test/# trimmed to host path",
        "deep https://vv.test/a/b/c/d/e/f ok",
        "params http://ww.test/x?a=1&b=2&c=3 ok",
    ]

    def test_each_distinct_text_scanned_once(self, monkeypatch):
        scanned = []
        real = linknet_mod._url_spans
        monkeypatch.setattr(linknet_mod, "_url_spans",
                            lambda text: scanned.append(text) or real(text))
        fixture = Path(__file__).parent / "fixtures" / "corpus_1000.jsonl"
        with open(fixture, encoding="utf-8") as fh:
            messages, _ = load_corpus(fh)
        extracted = extract_links(messages)
        distinct = {m.text for m in messages}
        assert len(distinct) == 540
        assert sorted(scanned) == sorted(distinct)
        assert extracted == reference_extract_links(messages)
        assert len(extracted) == 750

    def test_agrees_with_reference_scanner_on_fixture_table(self):
        assert len(self.FIXTURE_TEXTS) >= 50
        for text in self.FIXTURE_TEXTS:
            got = [(l.position, l.raw_url) for l in extract_links([msg("1", text)])]
            assert got == reference_url_scan(text), f"mismatch on: {text!r}"

    # Brackets, the punctuation that is peeled and letters that stop the peel.
    @given(st.text(st.sampled_from("()[]{}.,;:!?'\"a/"), max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_trim_agrees_with_reference(self, tail):
        candidate = "http://a.test/" + tail
        assert linknet_mod._trim_url(candidate) == reference_trim_url(candidate)

    # 200,000 trailing characters: peeling ")." * 100_000 one re-count at a
    # time took about 11 s on a 2-CPU VM; a linear peel takes milliseconds.
    @pytest.mark.parametrize("tail,kept", [
        (")." * 100_000, ""),
        ("(" * 100_000 + ")" * 100_000 + "." * 100_000, "(" * 100_000 + ")" * 100_000),
    ])
    def test_long_trailing_run_peeled_in_linear_time(self, tail, kept):
        text = f"see http://a.test/p{tail} end"
        start = time.perf_counter()
        out = extract_links([msg("1", text)])
        elapsed = time.perf_counter() - start
        assert [(l.position, l.raw_url) for l in out] == [(4, "http://a.test/p" + kept)]
        assert elapsed < 2.0, f"{elapsed:.2f} s to peel {len(tail)} trailing characters"


FIXTURES = Path(__file__).parent / "fixtures"

# Characters that take a URL off the plain-URL fast path or change how
# urlsplit splits it: delimiters, escapes, whitespace, C0 and DEL, and
# non-ASCII (a long s and a Kelvin sign fold to ASCII under IGNORECASE,
# U+2100 expands to "a/c" under NFKC).
_TRAPS = "\t\n\r \x00\x1f\x7f%@[]:/?#\u00e9\u017f\u212a\u2100\ud800"
_PART = st.text(st.sampled_from(string.ascii_letters + string.digits + "-._~" + _TRAPS),
                max_size=6)
_PRINTABLE = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=8)
_PLAIN_PARTS = st.tuples(
    st.sampled_from(["http", "https", "HTTP", "hTtPs"]),
    st.just("://"),
    st.just(""),
    st.from_regex(r"[A-Za-z0-9.-]{1,8}", fullmatch=True),
    st.one_of(st.just(""), st.sampled_from([":", ":0", ":080", ":443", ":65535"]),
              st.from_regex(r":[0-9]{1,5}", fullmatch=True)),
    st.one_of(st.just(""), _PRINTABLE.map(lambda p: "/" + p)),
    st.one_of(st.just(""), _PRINTABLE.map(lambda q: "?" + q)),
    st.one_of(st.just(""), _PRINTABLE.map(lambda f: "#" + f)),
)
# One trap strategy per part of _PLAIN_PARTS.
_TRAP_PARTS = [
    st.one_of(st.sampled_from(["ftp", "http\u017f", "htt", "", "http "]), _PART),
    st.sampled_from([":/", ":", "//", ":///", ":/\t/"]),
    st.one_of(st.sampled_from(["u@", "u:p@", "@"]), _PART.map(lambda s: s + "@")),
    st.one_of(st.sampled_from(["", "[::1]", "[::1", "::1]", "host%41", "Ex\tample",
                               "b\u00fc.test"]), _PART),
    st.one_of(st.sampled_from([":65536", ":99999", ":8a", ":80:90", ":+80", ": 80",
                               ":\u0663"]), _PART.map(lambda p: ":" + p)),
    st.one_of(_PRINTABLE, _PART, _PART.map(lambda p: "/" + p)),
    _PART.map(lambda q: "?" + q),
    _PART.map(lambda f: "#" + f),
]


@st.composite
def _near_plain_urls(draw):
    """A plain URL with up to two of its parts swapped for traps."""
    parts = list(draw(_PLAIN_PARTS))
    for i in sorted(draw(st.sets(st.integers(0, len(parts) - 1), max_size=2))):
        parts[i] = draw(_TRAP_PARTS[i])
    return "".join(parts)


_URLS = st.one_of(_near_plain_urls(), _PART.map(lambda rest: "http://" + rest),
                  st.text(max_size=20))


def _split_outcome(split, url):
    """The split of ``url``, or its LinkParseError's message."""
    try:
        parts = split(url)
    except LinkParseError as exc:
        return "LinkParseError", str(exc)
    return parts, type(parts.port)


class TestSplitChecked:
    TRAPS = [
        "HTTP://Example.COM:80/A?b=1#frag",
        "http://h:/x", "http://h:0/", "http://h:080", "http://h:65535/", "http://h:65536/",
        "http://h:99999/", "http://h:8a/", "http://h:80:90/",
        "http://u:p@h/", "http://@h/", "http://[::1]:8080/x", "http://[::1/", "http://::1]/",
        "http://host%41/", "http://host%41", "http://h?q=1", "http://hx", "http:///p",
        "http://h/p?a?b#c", "http://h/p#a?b", "http://h/#", "http://h/p?",
        "http://h/a\tb", " http://h/", "http://h/ ", "http://h/\x00", "http://h\x1f/",
        "http://b\u00fc.test/", "http://h/\u00e9", "http\u017f://h/", "http://\u212a.test/",
        "ftp://h/", "mailto:x@h", "",
    ]

    @given(_URLS)
    @settings(max_examples=1500, deadline=None)
    def test_agrees_with_urlsplit(self, url):
        assert _split_outcome(linknet_mod._split_checked, url) == \
            _split_outcome(reference_split_checked, url)

    def test_agrees_with_urlsplit_on_traps_and_fixture_urls(self):
        with open(FIXTURES / "corpus_1000.jsonl", encoding="utf-8") as fh:
            messages, _ = load_corpus(fh)
        mapping = json.loads((FIXTURES / "redirect_map.json").read_text(encoding="utf-8"))
        urls = {l.raw_url for l in extract_links(messages)} | set(mapping)
        urls |= {target for target in mapping.values() if target is not None}
        for url in self.TRAPS + sorted(urls):
            assert _split_outcome(linknet_mod._split_checked, url) == \
                _split_outcome(reference_split_checked, url), url

    def test_pipeline_reaches_urlsplit_only_off_the_fast_path(self, tmp_path, monkeypatch):
        calls = []
        real = linknet_mod.urlsplit
        monkeypatch.setattr(linknet_mod, "urlsplit", lambda url: calls.append(url) or real(url))

        def run(corpus, out_dir):
            return main(["pipeline", "--queries", str(FIXTURES / "queries.txt"),
                         "--corpus", str(corpus),
                         "--redirect-map", str(FIXTURES / "redirect_map.json"),
                         "--out-dir", str(out_dir)])

        assert run(FIXTURES / "corpus_1000.jsonl", tmp_path / "plain") == 0
        assert calls == []
        odd = ["http://user@news.test/a", "http://[::1]/b"]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            (FIXTURES / "corpus_1000.jsonl").read_text(encoding="utf-8")
            + "".join(json.dumps({"id": f"odd-{i}", "author": "user1",
                                  "timestamp": "2016-05-09T00:00:00Z",
                                  "text": f"Market rates update {url} and again {url}"}) + "\n"
                      for i, url in enumerate(odd)),
            encoding="utf-8",
        )
        assert run(corpus, tmp_path / "odd") == 0
        assert sorted(calls) == sorted(odd)


class TestIsShortener:
    @pytest.mark.parametrize("base", DEFAULT_SHORTENER_BASES)
    def test_all_registry_bases_recognized(self, base):
        assert is_shortener(base + "abc123")

    def test_scheme_insensitive_host_match(self):
        assert is_shortener("https://bit.ly/xyz")
        assert is_shortener("http://goo.gl/xyz")

    def test_host_not_path_decides(self):
        assert not is_shortener("https://example.org/bit.ly")

    def test_unknown_host(self):
        assert not is_shortener("https://news.example/abc")

    def test_malformed_url_raises(self):
        with pytest.raises(LinkParseError):
            is_shortener("not a url")
        with pytest.raises(LinkParseError):
            is_shortener("ftp://bit.ly/x")

    def test_custom_registry(self):
        assert is_shortener("http://sho.rt/x", registry=("https://sho.rt/",))
        assert not is_shortener("http://bit.ly/x", registry=("https://sho.rt/",))
        assert is_shortener("http://sho.rt/x", registry=["https://sho.rt/"])

    def test_registry_hosts_parsed_once(self, parsed):
        registry = ("https://once.test/", "http://twice.test/")
        for _ in range(3):
            assert is_shortener("http://once.test/a", registry=registry)
            assert not is_shortener("http://bit.ly/a", registry=registry)
            assert is_shortener("http://bit.ly/a")
        assert sorted(set(parsed) - set(registry)) == ["http://bit.ly/a", "http://once.test/a"]
        assert all(parsed.count(base) <= 1 for base in registry)


class TestCanonicalize:
    def test_all_rules_at_once(self):
        assert canonicalize("HTTP://Example.COM:80/A?b=1#frag") == "http://example.com/A?b=1"

    def test_bare_trailing_slash_removed(self):
        assert canonicalize("https://site.test/") == "https://site.test"

    def test_path_and_query_bytes_preserved(self):
        url = "https://site.test/A/B%20c?q=Xy&z"
        assert canonicalize(url) == url

    def test_default_port_rules(self):
        assert canonicalize("https://site.test:443/x") == "https://site.test/x"
        assert canonicalize("http://site.test:443/x") == "http://site.test:443/x"
        assert canonicalize("https://site.test:8443/x") == "https://site.test:8443/x"

    def test_unclosed_ipv6_bracket_raises_parse_error(self):
        with pytest.raises(LinkParseError):
            canonicalize("http://[::1")
        with pytest.raises(LinkParseError):
            is_shortener("http://[::1")

    def test_malformed_raises(self):
        with pytest.raises(LinkParseError):
            canonicalize("nothing here")
        with pytest.raises(LinkParseError):
            canonicalize("http:///pathonly")
        with pytest.raises(LinkParseError):
            canonicalize("http://bad:port:99x/")

    def test_ipv6_host_keeps_brackets(self):
        assert canonicalize("http://[::1]/x") == "http://[::1]/x"
        assert canonicalize("HTTP://[2001:DB8::1]:80/") == "http://[2001:db8::1]"
        # a port and a longer address must not collapse into one form
        assert canonicalize("http://[2001:db8::1]:8080/p") == "http://[2001:db8::1]:8080/p"
        assert canonicalize("http://[2001:db8::1:8080]/p") == "http://[2001:db8::1:8080]/p"

    @given(
        host=st.one_of(
            st.from_regex(r"[a-z]{1,8}\.(test|example)", fullmatch=True),
            st.ip_addresses(v=6).map(lambda addr: f"[{addr}]"),
        ),
        path=st.from_regex(r"(/[A-Za-z0-9._~%-]{0,6}){0,3}", fullmatch=True),
        query=st.from_regex(r"([a-z]{1,3}=[A-Za-z0-9]{0,4}(&[a-z]{1,3}=[A-Za-z0-9]{0,4}){0,2})?", fullmatch=True),
        scheme=st.sampled_from(["http", "https", "HTTP", "Https"]),
    )
    @settings(max_examples=100)
    def test_idempotent(self, host, path, query, scheme):
        url = f"{scheme}://{host}{path}" + (f"?{query}" if query else "")
        once = canonicalize(url)
        assert canonicalize(once) == once

    def test_distinct_queries_stay_distinct(self):
        a = canonicalize("http://x.test/p?a=1")
        b = canonicalize("http://x.test/p?a=2")
        assert a != b


class TestResolve:
    def test_single_hop_shortlink(self):
        fetcher = OfflineFetcher({"http://bit.ly/a": "https://news.test/story1"})
        res = resolve(link("http://bit.ly/a"), fetcher)
        assert res.status == STATUS_RESOLVED
        assert res.final_url == "https://news.test/story1"
        assert res.redirect_chain == ("http://bit.ly/a", "https://news.test/story1")
        assert res.was_shortened

    def test_two_cycle_loop(self):
        u, v = "http://bit.ly/u", "http://bit.ly/v"
        fetcher = OfflineFetcher({u: v, v: u})
        res = resolve(link(u), fetcher)
        assert res.status == STATUS_LOOP
        assert res.redirect_chain == (u, v)

    def test_depth_exceeded_at_eleven_chain_entries(self):
        chain = {f"http://hop.test/{i}": f"http://hop.test/{i+1}" for i in range(12)}
        res = resolve(link("http://hop.test/0"), OfflineFetcher(chain), max_depth=10)
        assert res.status == STATUS_DEPTH
        assert len(res.redirect_chain) == 11

    def test_fetch_failure_preserves_partial_chain(self):
        fetcher = OfflineFetcher({"http://bit.ly/x": "http://mid.test/a",
                                  "http://mid.test/a": None})
        res = resolve(link("http://bit.ly/x"), fetcher)
        assert res.status == STATUS_FAILED
        assert res.redirect_chain == ("http://bit.ly/x", "http://mid.test/a")

    def test_plain_url_not_shortened(self):
        res = resolve(link("https://news.test/Story/"), OfflineFetcher({}))
        assert res.status == STATUS_NOT_SHORTENED
        assert not res.was_shortened
        assert res.final_url == "https://news.test/Story/"

    def test_plain_url_with_redirect_counts_as_shortened(self):
        fetcher = OfflineFetcher({"http://old.test/x": "http://new.test/x"})
        res = resolve(link("http://old.test/x"), fetcher)
        assert res.status == STATUS_RESOLVED
        assert res.was_shortened

    def test_shortener_terminal_is_resolved(self):
        res = resolve(link("http://bit.ly/keep"), OfflineFetcher({}))
        assert res.status == STATUS_RESOLVED
        assert res.was_shortened
        assert res.redirect_chain == ("http://bit.ly/keep",)

    def test_final_url_canonicalized(self):
        fetcher = OfflineFetcher({"http://bit.ly/a": "HTTPS://News.TEST:443/x#sec"})
        res = resolve(link("http://bit.ly/a"), fetcher)
        assert res.final_url == "https://news.test/x"

    def test_host_of_final_url(self):
        fetcher = OfflineFetcher({"http://bit.ly/a": "https://News.TEST/x",
                                  "http://bit.ly/b": "ftp://elsewhere.test/"})
        assert resolve(link("http://bit.ly/a"), fetcher).host == "news.test"
        # a rejected target leaves the last accepted URL final
        assert resolve(link("http://bit.ly/b"), fetcher).host == "bit.ly"
        assert resolve(link("http://[::1]:8080/x"), fetcher).host == "::1"
        unparsable = resolve(link("http://[::1"), fetcher)
        assert (unparsable.status, unparsable.host) == (STATUS_FAILED, "")

    @pytest.mark.parametrize("mapping, visited", [
        ({"http://bit.ly/a": "http://mid.test/b", "http://mid.test/b": "https://end.test/c"},
         ["http://bit.ly/a", "http://mid.test/b", "https://end.test/c"]),
        ({"http://bit.ly/a": "http://mid.test/b", "http://mid.test/b": "http://bit.ly/a"},
         ["http://bit.ly/a", "http://mid.test/b"]),
        ({"http://bit.ly/a": "ftp://mid.test/b"}, ["http://bit.ly/a", "ftp://mid.test/b"]),
        ({"http://bit.ly/a": "http://mid.test/b", "http://mid.test/b": None},
         ["http://bit.ly/a", "http://mid.test/b"]),
        ({f"http://bit.ly/{i}": f"http://bit.ly/{i + 1}" for i in range(5)},
         [f"http://bit.ly/{i}" for i in range(4)]),
    ], ids=["resolved", "loop", "bad_target", "fetch_failed", "depth"])
    def test_each_visited_url_parsed_once(self, parsed, mapping, visited):
        resolve(link(visited[0]), OfflineFetcher(mapping), max_depth=2)
        assert parsed == visited

    def test_chain_never_longer_than_depth_plus_one(self):
        chain = {f"http://hop.test/{i}": f"http://hop.test/{i+1}" for i in range(50)}
        for depth in (1, 3, 10):
            res = resolve(link("http://hop.test/0"), OfflineFetcher(chain), max_depth=depth)
            assert len(res.redirect_chain) <= depth + 1


class TestResolveAll:
    def test_distinct_urls_resolved_once_keyed_by_raw(self):
        fetcher = OfflineFetcher({"http://bit.ly/a": "https://n.test/1"})
        links = [link("http://bit.ly/a", "m1"), link("http://bit.ly/a", "m2"),
                 link("https://n.test/2", "m1", 30)]
        res = resolve_all(links, fetcher)
        assert set(res) == {"http://bit.ly/a", "https://n.test/2"}
        assert res["http://bit.ly/a"].status == STATUS_RESOLVED

    @pytest.mark.parametrize("max_in_flight", [1, 8])
    def test_first_occurrence_order(self, max_in_flight):
        urls = [f"http://bit.ly/{i}" for i in range(12)]
        links = [link(u, f"m{i}") for i, u in enumerate(urls[5:] + urls + urls[:3])]

        def slow_fetcher(url):
            # later URLs answer first, so completion order is reversed
            time.sleep(0.002 * (12 - int(url.rsplit("/", 1)[1])))
            return None

        res = resolve_all(links, slow_fetcher, max_in_flight=max_in_flight)
        assert list(res) == urls[5:] + urls[:5]

    def test_parallel_equals_serial(self):
        mapping = {f"http://bit.ly/{i}": f"https://n.test/{i}" for i in range(40)}
        links = [link(u, f"m{i}") for i, u in enumerate(mapping)]
        serial = resolve_all(links, OfflineFetcher(mapping), max_in_flight=1)
        parallel = resolve_all(links, OfflineFetcher(mapping), max_in_flight=8)
        assert serial == parallel


class StubOpener:
    """Stands in for LiveFetcher's urllib opener; no socket is opened.

    Each request takes the next answer: an exception to raise, or a
    status and headers.  As the real opener does, a 2xx comes back as a
    response and any other status is raised as an HTTPError.  Every
    request's method, URL and timeout and every answer's body are kept.
    """

    def __init__(self, *answers):
        self.answers = list(answers)
        self.requests = []
        self.bodies = []

    def open(self, request, timeout):
        self.requests.append((request.get_method(), request.full_url, timeout))
        answer = self.answers.pop(0)
        if isinstance(answer, BaseException):
            raise answer
        status, fields = answer
        headers = HeaderMessage()
        for name, value in fields.items():
            headers[name] = value
        body = io.BytesIO(b"body")
        self.bodies.append(body)
        if 200 <= status < 300:
            return addinfourl(body, headers, request.full_url, status)
        raise HTTPError(request.full_url, status, "stub", headers, body)


@pytest.fixture
def stub_opener(monkeypatch):
    """Installs a StubOpener with the given answers in place of the real opener."""
    def install(*answers):
        stub = StubOpener(*answers)
        monkeypatch.setattr(linknet_mod, "_opener", lambda: stub)
        return stub
    return install


class TestLiveFetcher:
    URL = "http://bit.ly/a/b"

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    @pytest.mark.parametrize("location, target", [
        ("https://news.test/story?id=1", "https://news.test/story?id=1"),
        ("/story", "http://bit.ly/story"),
        ("c", "http://bit.ly/a/c"),
    ])
    def test_redirect_gives_location_joined_to_url(self, stub_opener, status, location,
                                                  target):
        stub = stub_opener((status, {"Location": location}))
        assert LiveFetcher()(self.URL) == target
        assert stub.requests == [("HEAD", self.URL, 5.0)]
        assert all(body.closed for body in stub.bodies)

    @pytest.mark.parametrize("status, fields", [
        (301, {}),
        (302, {"Location": ""}),
        (200, {"Location": "https://news.test/x"}),
        (404, {}),
        (500, {"Location": "https://news.test/x"}),
    ])
    def test_other_answers_give_none(self, stub_opener, status, fields):
        stub = stub_opener((status, fields))
        assert LiveFetcher()(self.URL) is None
        assert [method for method, _, _ in stub.requests] == ["HEAD"]
        assert all(body.closed for body in stub.bodies)

    @pytest.mark.parametrize("refused", [405, 501])
    @pytest.mark.parametrize("answer, result", [
        ((302, {"Location": "/x"}), "http://bit.ly/x"),
        ((200, {}), None),
        ((405, {}), None),
        ((501, {"Location": "/x"}), None),
    ])
    def test_refused_head_falls_back_to_one_get(self, stub_opener, refused, answer, result):
        stub = stub_opener((refused, {"Location": "/head"}), answer)
        assert LiveFetcher(timeout=2.5)(self.URL) == result
        assert stub.requests == [("HEAD", self.URL, 2.5), ("GET", self.URL, 2.5)]
        assert len(stub.bodies) == 2 and all(body.closed for body in stub.bodies)

    @pytest.mark.parametrize("error", [
        URLError("connection refused"),
        TimeoutError("timed out"),
        http.client.RemoteDisconnected("closed without response"),
        http.client.BadStatusLine("HTTP/9"),
    ])
    @pytest.mark.parametrize("on_get", [False, True])
    def test_errors_raise_fetch_failed(self, stub_opener, error, on_get):
        stub = stub_opener(*([(405, {})] if on_get else []), error)
        with pytest.raises(FetchFailed, match="fetch failed for http://bit.ly/a/b") as info:
            LiveFetcher()(self.URL)
        assert info.value.__cause__ is error
        assert len(stub.requests) == 1 + on_get
        assert all(body.closed for body in stub.bodies)

    def test_url_urllib_cannot_request_raises_fetch_failed(self, stub_opener):
        stub = stub_opener()
        with pytest.raises(FetchFailed) as info:
            LiveFetcher()("no scheme")
        assert isinstance(info.value.__cause__, ValueError)
        assert stub.requests == []

    @pytest.mark.parametrize("url", ["file:///dev/null", "data:,x"])
    def test_real_opener_refuses_other_schemes(self, url):
        with pytest.raises(FetchFailed, match="unknown url type") as info:
            LiveFetcher()(url)
        assert isinstance(info.value.__cause__, URLError)

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_real_opener_hands_a_redirect_back(self, status):
        # The opener's own error chain, as it runs on a 3xx answer, with no socket.
        request = urllib.request.Request(self.URL, method="HEAD")
        headers = HeaderMessage()
        headers["Location"] = "/next"
        body = io.BytesIO()
        with pytest.raises(HTTPError) as info:
            linknet_mod._opener().error("http", request, body, status, "moved", headers)
        with info.value as answer:
            assert (answer.status, answer.headers["Location"]) == (status, "/next")
        assert body.closed

    def test_runs_without_requests(self):
        script = textwrap.dedent("""
            import io, sys, urllib.error
            from email.message import Message
            sys.modules["requests"] = None
            import netmon.linknet as linknet

            class Opener:
                def open(self, request, timeout):
                    headers = Message()
                    headers["Location"] = "/story"
                    raise urllib.error.HTTPError(request.full_url, 301, "moved", headers,
                                                 io.BytesIO())

            linknet._opener = Opener
            print(linknet.LiveFetcher()("http://bit.ly/a"))
        """)
        src = str(Path(linknet_mod.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "http://bit.ly/story\n"


class TestLinkRecordsAndStats:
    def _setup(self):
        messages = [
            msg("m1", "a http://bit.ly/a and https://news.test/one", author="ann"),
            msg("m2", "see https://news.test/one", author="bob"),
            msg("m3", "watch https://youtu.be/clip", author="ann"),
            msg("m4", "no links here"),
        ]
        extracted = extract_links(messages)
        fetcher = OfflineFetcher({"http://bit.ly/a": "https://news.test/one"})
        resolved = resolve_all(extracted, fetcher)
        return messages, extracted, resolved

    def test_records_carry_provenance_and_social_tag(self):
        messages, extracted, resolved = self._setup()
        citations = build_link_records(messages, extracted, resolved)
        # bit.ly/a and news.test/one both reach news.test/one
        assert [(c.url, c.host, c.social, c.citations, c.authors, c.message_ids)
                for c in citations] == [
            ("https://news.test/one", "news.test", False, 3, {"ann", "bob"}, {"m1", "m2"}),
            ("https://youtu.be/clip", "youtu.be", True, 1, {"ann"}, {"m3"}),
        ]
        assert all(c.first_seen == "2016-05-04T10:00:00Z" for c in citations)
        assert all(c.query_sets == {frozenset()} for c in citations)

    def test_failed_and_recurring_ids_folded(self):
        messages = [
            Message("m1", "ann", "2016-05-02T00:00:00Z", "https://a.test/x http://bit.ly/dead",
                    frozenset({0})),
            Message("m2", "bob", "2016-05-01T00:00:00Z", "https://a.test/x", frozenset({1})),
            # the last message for an id wins the join
            Message("m1", "cem", "2016-05-03T00:00:00Z", "https://a.test/x", frozenset({2})),
        ]
        extracted = extract_links(messages)
        resolved = resolve_all(extracted, OfflineFetcher({"http://bit.ly/dead": None}))
        (cited,) = build_link_records(messages, extracted, resolved)
        assert (cited.url, cited.citations, cited.authors, cited.message_ids) == (
            "https://a.test/x", 3, {"cem", "bob"}, {"m1", "m2"})
        assert cited.first_seen == "2016-05-01T00:00:00Z"
        assert cited.query_sets == {frozenset({1}), frozenset({2})}

    def test_social_www_variant(self):
        messages = [msg("m1", "https://www.youtube.com/watch?v=1")]
        extracted = extract_links(messages)
        resolved = resolve_all(extracted, OfflineFetcher({}))
        citations = build_link_records(messages, extracted, resolved)
        assert citations[0].social

    def test_fractions(self):
        messages, extracted, resolved = self._setup()
        stats = link_stats(messages, extracted, resolved,
                           build_link_records(messages, extracted, resolved))
        assert stats.messages_with_links_fraction == pytest.approx(3 / 4)
        # 4 occurrences over finals {news.test/one, youtu.be/clip}
        assert stats.unique_links_fraction == pytest.approx(2 / 4)
        # raw URLs: bit.ly/a, news.test/one, news.test/one, youtu.be/clip
        assert stats.unique_links_fraction_pre_resolution == pytest.approx(3 / 4)
        assert stats.per_source_counts == {"news.test": 3, "youtu.be": 1}
        assert sum(stats.per_source_counts.values()) == 4

    def test_zero_messages_undefined(self):
        with pytest.raises(ValueError):
            link_stats([], [], {}, [])

    def test_ipv6_link_host_agrees(self):
        messages = [msg("m1", "local http://[::1]/x and http://[::1]:80/x")]
        extracted = extract_links(messages)
        resolved = resolve_all(extracted, OfflineFetcher({}))
        citations = build_link_records(messages, extracted, resolved)
        assert [(c.url, c.host, c.citations) for c in citations] == [("http://[::1]/x", "::1", 2)]
        stats = link_stats(messages, extracted, resolved, citations)
        assert stats.per_source_counts == {"::1": 2}
        assert stats.unique_links_fraction == stats.unique_links_fraction_pre_resolution == 0.5

    def test_each_distinct_url_parsed_once(self, parsed):
        urls = ["http://bit.ly/a", "https://news.test/one", "https://www.youtube.com/v"]
        messages = [msg(f"m{i}", urls[i % 3]) for i in range(1000)]
        extracted = extract_links(messages)
        assert len(extracted) == 1000
        fetcher = OfflineFetcher({"http://bit.ly/a": "https://news.test/one"})
        resolved = resolve_all(extracted, fetcher)
        # bit.ly/a and its target, then the two plain URLs
        assert sorted(parsed) == sorted(urls + ["https://news.test/one"])
        parsed.clear()
        citations = build_link_records(messages, extracted, resolved)
        assert parsed == []
        assert [(c.host, c.citations) for c in citations] == [
            ("news.test", 667), ("www.youtube.com", 333)]
        # the raw URLs' canonical forms come from resolve's parses
        stats = link_stats(messages, extracted, resolved, citations)
        assert parsed == []
        assert stats.per_source_counts == {"news.test": 667, "www.youtube.com": 333}
        assert stats.unique_links_fraction_pre_resolution == 3 / 1000

    @given(
        raw=st.one_of(
            st.builds(
                lambda scheme, host, rest: f"{scheme}://{host}{rest}",
                st.sampled_from(["http", "https", "HTTP", "ftp"]),
                st.one_of(st.from_regex(r"[A-Za-z]{1,6}\.(test|EXAMPLE)(:[0-9]{0,6})?",
                                        fullmatch=True),
                          st.ip_addresses(v=6).map(lambda addr: f"[{addr}]"),
                          st.just("[::1")),
                st.from_regex(r"(/[A-Za-z0-9._~%-]{0,4}){0,2}(\?[a-z=&]{0,5})?(#[a-z]{0,3})?",
                              fullmatch=True),
            ),
            st.text(max_size=20),
        ),
        redirected=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_raw_canonical_is_canonicalize_of_raw(self, raw, redirected):
        fetcher = OfflineFetcher({raw: "https://target.test/x"} if redirected else {})
        try:
            expected = canonicalize(raw)
        except LinkParseError:
            expected = raw
        assert resolve(link(raw), fetcher).raw_canonical == expected

    def test_failed_links_excluded_from_sources(self):
        messages = [msg("m1", "x http://bit.ly/dead y https://ok.test/a")]
        extracted = extract_links(messages)
        resolved = resolve_all(extracted, OfflineFetcher({"http://bit.ly/dead": None}))
        stats = link_stats(messages, extracted, resolved,
                           build_link_records(messages, extracted, resolved))
        assert stats.per_source_counts == {"ok.test": 1}
        assert sum(stats.per_source_counts.values()) == 1

    # Raw URLs that resolve, fail, loop, go too deep or do not parse, IPv6
    # hosts, and finals reached from several raw URLs (by a redirect or by
    # canonicalization: case, default port, empty path).
    _STATS_URLS = (
        "http://bit.ly/a", "https://news.test/one", "https://News.test:443/one",
        "http://bit.ly/dead", "http://bit.ly/loop", "http://bit.ly/deep",
        "http://[::1]/x", "http://[::1]:80/x", "http://bit.ly/v6", "http://[2001:db8::1]:8080/",
        "http://[::1", "https://www.youtube.com/v", "https://WWW.YouTube.com:443/v",
        "http://plain.test", "http://plain.test/",
    )
    _STATS_REDIRECTS = {
        "http://bit.ly/a": "https://news.test/one", "http://bit.ly/dead": None,
        "http://bit.ly/loop": "http://ow.ly/loop", "http://ow.ly/loop": "http://bit.ly/loop",
        "http://bit.ly/deep": "http://ow.ly/1", "http://ow.ly/1": "http://ow.ly/2",
        "http://ow.ly/2": "http://ow.ly/3", "http://bit.ly/v6": "http://[::1]:80/x",
    }

    @given(messages=st.lists(st.builds(
        Message,
        id=st.sampled_from(["m1", "m2", "m3", "m4"]),
        author=st.sampled_from(["ann", "bob"]),
        timestamp=st.just("2016-05-04T10:00:00Z"),
        text=st.lists(st.sampled_from(_STATS_URLS + ("word",)), max_size=5).map(" ".join),
    ), min_size=1, max_size=10), max_depth=st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_stats_from_folds_equal_per_occurrence_walk(self, messages, max_depth):
        extracted = extract_links(messages)
        resolved = resolve_all(extracted, OfflineFetcher(self._STATS_REDIRECTS),
                               max_depth=max_depth, max_in_flight=1)
        citations = build_link_records(messages, extracted, resolved)
        assert link_stats(messages, extracted, resolved, citations) == reference_link_stats(
            messages, extracted, resolved)


class TestWriters:
    @given(st.lists(st.builds(ExtractedLink, message_id=JSON_TEXT, raw_url=JSON_TEXT,
                              position=st.integers(0, 10**6)), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_links_agree_with_json_dumps_reference(self, links):
        assert "".join(links_jsonl(links)) == reference_links_jsonl(links)

    @given(st.lists(st.builds(
        ResolvedLink,
        raw_url=JSON_TEXT,
        final_url=JSON_TEXT,
        redirect_chain=st.lists(JSON_TEXT, max_size=3).map(tuple),
        was_shortened=st.booleans(),
        status=st.one_of(st.sampled_from([STATUS_RESOLVED, STATUS_LOOP, STATUS_DEPTH,
                                          STATUS_FAILED, STATUS_NOT_SHORTENED]), JSON_TEXT),
        host=JSON_TEXT,
        raw_canonical=JSON_TEXT,
    ), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_resolved_agree_with_json_dumps_reference(self, resolved):
        assert "".join(resolved_jsonl(resolved)) == reference_resolved_jsonl(resolved)
