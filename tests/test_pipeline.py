import math
import random
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmon.distfit import PowerLawFit, WeibullFit
from netmon.ingest import (
    Message,
    QueryPacket,
    canonical_timestamp,
    format_timestamp,
    match_queries,
    matched_jsonl,
)
from netmon.linknet import (
    STATUS_FAILED,
    STATUS_NOT_SHORTENED,
    STATUS_RESOLVED,
    SOCIAL_HOSTS,
    ExtractedLink,
    OfflineFetcher,
    ResolvedLink,
    build_link_records,
    extract_links,
    resolve,
    resolve_all,
)
from netmon.pipeline import (
    AnomalyReport,
    ExportRecord,
    RankedResource,
    build_export_records,
    compare_to_model,
    export_stream,
    fetch_manifest,
    rank_resources,
    ranking_json,
)

from _oracles import (
    reference_export_records,
    reference_export_stream,
    reference_extract_links,
    reference_link_records,
    reference_match_queries,
    reference_matched_jsonl,
    reference_rank_resources,
    reference_ranking_json,
    weibull_samples,
)
from _strategies import JSON_TEXT

FIXTURES = Path(__file__).parent / "fixtures"

WEIBULL_BASELINE = WeibullFit(k=1.9, lam=180.0, log_likelihood=0.0, n_samples=100,
                              ks_statistic=0.0)


def record(url, author="ann", mid=None, status=STATUS_RESOLVED, ts="2016-05-04T10:00:00Z",
           queries=frozenset()):
    """One occurrence of a link to ``url``: ``fold`` gives it a raw URL of
    its own and, when ``mid`` is None, a message id of its own."""
    return url, author, mid, status, ts, queries


def fold(records):
    """``build_link_records`` over the occurrences, each in a message that
    cites its URL once through its raw URL, with its status."""
    extracted, resolved = [], {}
    for i, (url, author, mid, status, ts, queries) in enumerate(records):
        msg = Message(mid or f"m{i}", author, ts, url, queries)
        raw = f"https://raw.test/{i}"
        extracted.append(ExtractedLink(msg, raw, 0))
        resolved[raw] = ResolvedLink(raw, url, (raw,), False, status, url.split("/")[2], raw)
    return build_link_records(extracted, resolved)


class TestRankResources:
    def test_empty(self):
        assert rank_resources([]) == []

    def test_tie_broken_lexicographically(self):
        records = (
            [record("https://a.test/x", author=f"u{i}") for i in range(5)]
            + [record("https://b.test/x", author=f"u{i}") for i in range(5)]
            + [record("https://c.test/x", author=f"u{i}") for i in range(2)]
        )
        ranked = rank_resources(fold(records))
        assert [(r.key, r.rank) for r in ranked] == [
            ("https://a.test/x", 1),
            ("https://b.test/x", 2),
            ("https://c.test/x", 3),
        ]

    def test_author_diversity_breaks_citation_ties(self):
        records = [record("https://a.test/x", author="ann"),
                   record("https://a.test/x", author="ann"),
                   record("https://b.test/x", author="ann"),
                   record("https://b.test/x", author="bob")]
        ranked = rank_resources(fold(records))
        assert ranked[0].key == "https://b.test/x"
        assert ranked[0].distinct_authors == 2

    def test_matches_sort_by_count_oracle(self):
        rng = random.Random(17)
        hosts = [f"h{i:02d}.test" for i in range(40)]
        cited = []  # (host, author) per occurrence
        for n in range(500):
            host = hosts[min(int(rng.expovariate(0.12)), 39)]
            cited.append((host, f"u{rng.randrange(25)}"))
        # each host cited through several documents
        records = [record(f"https://{host}/{n % 3}", author=author)
                   for n, (host, author) in enumerate(cited)]
        ranked = rank_resources(fold(records), granularity="host")
        counts = Counter(host for host, _ in cited)
        authors = {h: len({a for host, a in cited if host == h}) for h in counts}
        oracle = sorted(counts, key=lambda h: (-counts[h], -authors[h], h))
        assert [r.key for r in ranked] == oracle
        assert [r.citations for r in ranked] == [counts[h] for h in oracle]
        assert [r.distinct_authors for r in ranked] == [authors[h] for h in oracle]
        assert [r.rank for r in ranked] == list(range(1, len(oracle) + 1))

    def test_permutation_invariant(self):
        records = [record(f"https://h{i % 7}.test/x", author=f"u{i % 3}") for i in range(30)]
        shuffled = records[:]
        random.Random(3).shuffle(shuffled)
        for granularity in ("document", "host"):
            assert (rank_resources(fold(records), granularity)
                    == rank_resources(fold(shuffled), granularity))

    def test_citations_sum_to_successful_links(self):
        records = [record("https://a.test/x"), record("https://b.test/x"),
                   record("https://c.test/x", status=STATUS_FAILED),
                   record("https://a.test/x", status=STATUS_NOT_SHORTENED)]
        ranked = rank_resources(fold(records))
        assert sum(r.citations for r in ranked) == 3

    def test_document_vs_host_granularity(self):
        records = [record("https://a.test/one"), record("https://a.test/two")]
        docs = rank_resources(fold(records), granularity="document")
        hosts = rank_resources(fold(records), granularity="host")
        assert len(docs) == 2 and len(hosts) == 1
        assert hosts[0].key == "a.test" and hosts[0].citations == 2

    def test_host_merge_unites_author_sets(self):
        # one author citing two documents of a host is one distinct author
        records = [record("https://a.test/one", author="ann"),
                   record("https://a.test/one", author="ann"),
                   record("https://a.test/two", author="ann")]
        (host,) = rank_resources(fold(records), granularity="host")
        assert (host.key, host.citations, host.distinct_authors) == ("a.test", 3, 1)

    def test_rejects_unknown_granularity(self):
        with pytest.raises(ValueError):
            rank_resources([], granularity="author")


class TestRankingJson:
    def test_empty(self):
        assert ranking_json([]) == "[]\n"

    @given(st.lists(st.builds(RankedResource, key=JSON_TEXT, citations=st.integers(0, 10**9),
                              distinct_authors=st.integers(0, 10**9),
                              rank=st.integers(1, 10**9), social=st.booleans()),
                    max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_json_dumps_indent_reference(self, ranked):
        assert ranking_json(ranked) == reference_ranking_json(ranked)


class TestFetchManifest:
    def _ranked(self):
        records = ([record("https://a.test/x")] * 3
                   + [record("https://youtu.be/x")] * 2
                   + [record("https://b.test/x")])
        return rank_resources(fold(records))

    def test_top_n_larger_than_list(self):
        manifest = fetch_manifest(self._ranked(), top_n=10)
        assert manifest == ["https://a.test/x", "https://b.test/x"]

    def test_social_filtered_before_cutoff(self):
        manifest = fetch_manifest(self._ranked(), top_n=2)
        assert manifest == ["https://a.test/x", "https://b.test/x"]

    def test_order_equals_rank_order(self):
        ranked = self._ranked()
        manifest = fetch_manifest(ranked, top_n=len(ranked))
        non_social = [r.key for r in ranked if not r.social]
        assert manifest == non_social

    def test_rejects_bad_top_n(self):
        with pytest.raises(ValueError):
            fetch_manifest(self._ranked(), top_n=0)


class TestBuildExportRecords:
    def test_aggregates_by_final_url(self):
        packet = QueryPacket(queries=("market rates", "central bank", "bond yields"))
        records = [
            record("https://a.test/x", mid="m1", ts="2016-05-02T09:00:00Z",
                   queries=frozenset({0})),
            record("https://a.test/x", mid="m2", ts="2016-05-01T09:00:00Z",
                   queries=frozenset({1})),
            # a social link's query set gives no label
            record("https://youtu.be/x", mid="m3", queries=frozenset({2})),
        ]
        out = build_export_records(fold(records), packet)
        assert len(out) == 1
        rec = out[0]
        assert rec.url == "https://a.test/x"
        assert rec.citations == 2
        assert rec.first_seen == "2016-05-01T09:00:00Z"
        assert rec.query_labels == ("central bank", "market rates")
        assert rec.source_message_ids == ("m1", "m2")


_RECORD_FIELDS = [
    (ResolvedLink, ("raw_url", "final_url", "redirect_chain", "was_shortened", "status",
                    "host", "raw_canonical")),
    (RankedResource, ("key", "citations", "distinct_authors", "rank", "social")),
    (ExportRecord, ("url", "first_seen", "citations", "query_labels", "source_message_ids")),
]


def _fields(rec):
    """The record's type and its fields by name, which a plain tuple of
    the same values does not equal."""
    return type(rec), rec._asdict()


class TestRecords:
    @pytest.mark.parametrize("cls,fields", _RECORD_FIELDS)
    def test_fields_keywords_and_immutability(self, cls, fields):
        assert cls._fields == fields
        rec = cls(**{name: f"v{i}" for i, name in enumerate(fields)})
        assert tuple(rec) == tuple(f"v{i}" for i in range(len(fields)))
        assert not hasattr(rec, "__dict__")
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, "other")
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_builders_return_keyword_built_records(self):
        fetcher = OfflineFetcher({"http://bit.ly/a": "https://News.test:443/x"})
        assert _fields(resolve("http://bit.ly/a", fetcher)) == _fields(
            ResolvedLink(raw_url="http://bit.ly/a", final_url="https://news.test/x",
                         redirect_chain=("http://bit.ly/a", "https://News.test:443/x"),
                         was_shortened=True, status=STATUS_RESOLVED, host="news.test",
                         raw_canonical="http://bit.ly/a"))
        assert _fields(resolve("http://[::1/", fetcher)) == _fields(
            ResolvedLink(raw_url="http://[::1/", final_url="http://[::1/",
                         redirect_chain=("http://[::1/",), was_shortened=False,
                         status=STATUS_FAILED, host="", raw_canonical="http://[::1/"))
        citations = fold([
            record("https://a.test/x", author="ann", mid="m2", ts="2016-05-02T09:00:00Z",
                   queries=frozenset({1})),
            record("https://a.test/x", author="bob", mid="m1", queries=frozenset({0})),
            record("https://youtu.be/v", author="ann", mid="m3"),
        ])
        assert list(map(_fields, rank_resources(citations))) == list(map(_fields, [
            RankedResource(key="https://a.test/x", citations=2, distinct_authors=2, rank=1,
                           social=False),
            RankedResource(key="https://youtu.be/v", citations=1, distinct_authors=1, rank=2,
                           social=True),
        ]))
        packet = QueryPacket(queries=("market rates", "central bank"))
        assert list(map(_fields, build_export_records(citations, packet))) == [_fields(
            ExportRecord(url="https://a.test/x", first_seen="2016-05-02T09:00:00Z",
                         citations=2, query_labels=("central bank", "market rates"),
                         source_message_ids=("m1", "m2")))]


# A repost-heavy corpus drawn from a few texts: with and without URLs,
# non-ASCII, social and shortened links, a URL cited twice in one text.
_POOL_TEXTS = (
    "market rates http://bit.ly/a and https://news.test/one",
    "market rates, no link here",
    "Straße central bank https://news.test/one, again https://www.youtube.com/v",
    "İstanbul bond yields http://bit.ly/dead (https://wire.test/a_(b))",
    "central bank — ünïcode http://hh.test/ür cut",
    "twice https://news.test/one https://news.test/one.",
    "",
)
_POOL_PACKET = QueryPacket(queries=("market rates", "central bank", "bond yields",
                                    "market rates"))
_POOL_REDIRECTS = {"http://bit.ly/a": "https://news.test/one", "http://bit.ly/dead": None}
_POOL_MESSAGE = st.builds(
    Message,
    # few ids, so an id also recurs with another text
    id=st.sampled_from(["m1", "m2", "m3", "m4", "m5", "m6"]),
    author=st.sampled_from(["ann", "bob", "çelik"]),
    # canonical texts of instants taken in three zones
    timestamp=st.datetimes(
        min_value=datetime(2016, 1, 1), max_value=datetime(2016, 1, 3),
        timezones=st.sampled_from([timezone.utc, timezone(timedelta(0), "UTC"),
                                   timezone(timedelta(hours=5, minutes=30))]),
    ).map(format_timestamp),
    text=st.sampled_from(_POOL_TEXTS),
    # the same text with other query sets, as two query packets would give
    matched_queries=st.sampled_from([frozenset(), frozenset({0}), frozenset({1}),
                                     frozenset({3}), frozenset({0, 2}),
                                     frozenset({0, 1, 2, 3})]),
)


class TestPerTextWork:
    """Work done once per distinct text, query set or host gives the bytes
    of the per-occurrence code it replaced."""

    @given(st.lists(_POOL_MESSAGE, max_size=14))
    @settings(max_examples=300, deadline=None)
    def test_pipeline_files_agree_with_per_occurrence_oracles(self, messages):
        assert "".join(matched_jsonl(messages)) == reference_matched_jsonl(messages)
        extracted = extract_links(messages)
        assert extracted == reference_extract_links(messages)
        resolved = resolve_all(extracted, OfflineFetcher(_POOL_REDIRECTS), max_in_flight=1)
        # The pool gives failed statuses, social hosts, two raw URLs with one
        # final URL and message ids that recur.
        citations = build_link_records(extracted, resolved)
        records = reference_link_records(extracted, resolved)
        assert [c.social for c in citations] == [
            c.host.removeprefix("www.") in SOCIAL_HOSTS for c in citations
        ]
        for granularity in ("document", "host"):
            ranked = rank_resources(citations, granularity)
            assert ranked == reference_rank_resources(records, granularity)
            assert ranking_json(ranked) == reference_ranking_json(ranked)
        export = build_export_records(citations, _POOL_PACKET)
        expected = reference_export_records(records, _POOL_PACKET)
        assert export == expected
        assert export_stream(export) == reference_export_stream(expected)

    @given(st.lists(_POOL_MESSAGE, max_size=14))
    @settings(max_examples=300, deadline=None)
    def test_matches_recorded_in_place_and_carried_by_records(self, messages):
        drawn = [m.matched_queries for m in messages]
        expected = reference_match_queries(messages, _POOL_PACKET)
        matched = match_queries(messages, _POOL_PACKET)
        # the kept inputs themselves, in order, each with its query set
        kept_ids = {id(m) for m in matched}
        kept = [m for m in messages if id(m) in kept_ids]
        assert len(kept) == len(matched) and all(a is b for a, b in zip(kept, matched))
        assert [(m.id, m.text, m.matched_queries) for m in matched] == [
            (m.id, m.text, m.matched_queries) for m in expected]
        # a dropped message keeps the query set it came with
        assert all(m.matched_queries == q for m, q in zip(messages, drawn)
                   if id(m) not in kept_ids)
        extracted = extract_links(matched)
        resolved = resolve_all(extracted, OfflineFetcher(_POOL_REDIRECTS), max_in_flight=1)
        citations = build_link_records(extracted, resolved)
        # each citation holds the query sets of the messages its links were found in
        query_sets: dict[str, set] = {}
        for link in extracted:
            res = resolved[link.raw_url]
            if res.status in (STATUS_RESOLVED, STATUS_NOT_SHORTENED):
                query_sets.setdefault(res.final_url, set()).add(link.message.matched_queries)
        assert [c.query_sets for c in citations] == [query_sets[c.url] for c in citations]
        assert build_export_records(citations, _POOL_PACKET) == reference_export_records(
            reference_link_records(extracted, resolved), _POOL_PACKET)

    def test_first_seen_is_the_earliest_citation(self):
        packet = QueryPacket(queries=("q",))
        stamps = ["2016-05-02T09:00:00Z", "2016-05-01T09:00:00Z", "2016-05-03T09:00:00Z"]
        records = [record("https://a.test/x", ts=ts) for ts in stamps]
        out = build_export_records(fold(records), packet)
        assert out[0].first_seen == "2016-05-01T09:00:00Z"
        assert out[0].query_labels == ()


class TestExportStream:
    def _records(self):
        return [
            ExportRecord(
                url="https://news.test/alpha",
                first_seen="2016-05-02T08:00:00Z",
                citations=3,
                query_labels=("central bank",),
                source_message_ids=("msg-0001", "msg-0002"),
            ),
            ExportRecord(
                url="https://wire.test/gamma",
                first_seen="2016-05-02T10:15:00Z",
                citations=3,
                query_labels=(),
                source_message_ids=("msg-0004",),
            ),
            ExportRecord(
                url="https://blog.test/beta",
                first_seen="2016-05-01T09:30:00Z",
                citations=5,
                query_labels=("bond yields", "market rates"),
                source_message_ids=("msg-0003",),
            ),
        ]

    def test_empty_batch(self):
        assert export_stream([]) == b""

    def test_citation_order(self):
        lines = export_stream(self._records()).decode().splitlines()
        assert [l.split('"')[3] for l in lines] == [
            "https://blog.test/beta",
            "https://news.test/alpha",
            "https://wire.test/gamma",
        ]

    def test_matches_golden_file(self):
        golden = (FIXTURES / "golden_export.jsonl").read_bytes()
        assert export_stream(self._records()) == golden

    def test_deterministic(self):
        assert export_stream(self._records()) == export_stream(self._records())

    def test_duplicate_url_rejected(self):
        records = self._records() + [self._records()[0]]
        with pytest.raises(ValueError, match="https://news.test/alpha"):
            export_stream(records)

    def test_year_below_1000_zero_padded(self):
        record = ExportRecord(
            url="https://old.test/",
            first_seen=canonical_timestamp("1000-01-01T00:30:00+01:00"),
            citations=1,
            query_labels=("q",),
            source_message_ids=("m",),
        )
        assert b'"first_seen": "0999-12-31T23:30:00Z"' in export_stream([record])

    @given(st.lists(st.builds(
        ExportRecord,
        url=JSON_TEXT,
        first_seen=st.datetimes().map(format_timestamp),
        citations=st.integers(1, 10**6),
        query_labels=st.lists(JSON_TEXT, max_size=3).map(tuple),
        source_message_ids=st.lists(JSON_TEXT, max_size=3).map(tuple),
    ), max_size=6, unique_by=lambda r: r.url))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_json_dumps_reference(self, records):
        assert export_stream(records) == reference_export_stream(records)


def baseline_int_samples(n, seed):
    return [max(1, int(round(v))) for v in weibull_samples(1.9, 180.0, n, seed)]


class TestCompareToModel:
    def test_baseline_data_rarely_flagged(self):
        n = 400
        flags = 0
        for seed in range(100):
            counts = baseline_int_samples(n, 5000 + seed)
            report = compare_to_model(counts, WEIBULL_BASELINE,
                                      threshold=1.63 / math.sqrt(n))
            flags += report.flagged
        assert flags <= 5

    def test_injected_outlier_listed(self):
        counts = {f"k{i}": v for i, v in enumerate(baseline_int_samples(300, 77))}
        # 99.9th percentile of Weibull(1.9, 180) is 180 * ln(1000)^(1/1.9) ~ 497
        counts["amplified"] = 49_700
        report = compare_to_model(counts, WEIBULL_BASELINE)
        assert any(key == "amplified" for key, _, _ in report.top_outliers)
        top_key, top_count, tail_p = report.top_outliers[0]
        assert top_key == "amplified" and top_count == 49_700
        assert tail_p < 1e-3

    def test_exact_quantiles_not_flagged(self):
        n = 150
        counts = [
            max(1, int(round(180.0 * (-math.log(1.0 - i / (n + 1))) ** (1 / 1.9))))
            for i in range(1, n + 1)
        ]
        report = compare_to_model(counts, WEIBULL_BASELINE)
        # rounding to integers adds at most ~1/n on top of 1/(n+1)
        assert report.empirical_ks <= 1.0 / (n + 1) + 0.02
        assert not report.flagged

    def test_threshold_extremes(self):
        counts = baseline_int_samples(50, 3)
        assert not compare_to_model(counts, WEIBULL_BASELINE, threshold=math.inf).flagged
        assert compare_to_model(counts, WEIBULL_BASELINE, threshold=0.0).flagged

    def test_powerlaw_baseline_accepted(self):
        baseline = PowerLawFit(alpha=2.5, xmin=1, log_likelihood=0.0, n_tail=100)
        counts = [1, 1, 2, 1, 3, 1, 5, 2, 1, 8, 1, 2]
        report = compare_to_model(counts, baseline)
        assert isinstance(report, AnomalyReport)
        assert 0.0 <= report.empirical_ks <= 1.0

    def test_too_few_counts_rejected(self):
        with pytest.raises(ValueError):
            compare_to_model([1] * 9, WEIBULL_BASELINE)

    def test_default_threshold_is_kolmogorov_5pct(self):
        counts = baseline_int_samples(100, 9)
        report = compare_to_model(counts, WEIBULL_BASELINE)
        assert report.threshold == pytest.approx(1.36 / math.sqrt(100))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_flag_consistency(self, seed):
        counts = baseline_int_samples(60, seed)
        report = compare_to_model(counts, WEIBULL_BASELINE)
        assert report.flagged == (report.empirical_ks > report.threshold)
