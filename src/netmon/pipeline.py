"""Resource ranking, fetch-manifest emission, export and anomaly checks.

The ranked, deduplicated resource list is the product of the monitoring
run: the manifest feeds a downstream crawler, the export stream feeds
the corporate analytical system, and the anomaly report compares an
empirical citation series against the model baseline so artificially
amplified campaigns stand out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, Union

from .distfit import PowerLawFit, WeibullFit, ks_statistic, powerlaw_cdf, weibull_cdf
from .ingest import QueryPacket
from .jsonl import quote
from .linknet import ResourceCitations

__all__ = [
    "RankedResource",
    "ExportRecord",
    "AnomalyReport",
    "EXPORT_FORMAT_VERSION",
    "KOLMOGOROV_5PCT",
    "rank_resources",
    "ranking_json",
    "fetch_manifest",
    "build_export_records",
    "export_stream",
    "compare_to_model",
]

EXPORT_FORMAT_VERSION = "corporate-v1"

# Asymptotic 5% two-sided Kolmogorov critical value is 1.36 / sqrt(n).
KOLMOGOROV_5PCT = 1.36

BaselineFit = Union[WeibullFit, PowerLawFit]


class RankedResource(NamedTuple):
    key: str
    citations: int
    distinct_authors: int
    rank: int
    social: bool


class ExportRecord(NamedTuple):
    """One exported resource.  ``first_seen`` is the earliest citing
    message's canonical UTC timestamp text, as ``Message.timestamp``."""

    url: str
    first_seen: str
    citations: int
    query_labels: tuple[str, ...]
    source_message_ids: tuple[str, ...]


@dataclass(frozen=True)
class AnomalyReport:
    series_name: str
    baseline: BaselineFit
    empirical_ks: float
    threshold: float
    flagged: bool
    top_outliers: tuple[tuple[str, int, float], ...]


def rank_resources(
    citations: Sequence[ResourceCitations],
    granularity: str = "document",
) -> list[RankedResource]:
    """Rank cited resources by citations, author diversity, then key.

    ``granularity`` selects the grouping key: the canonical final URL
    (``document``, one entry per resource) or its host (``host``, the
    resources of a host merged: citations summed, author sets united).
    Ranks are dense, 1..N.
    """
    if granularity not in ("document", "host"):
        raise ValueError(f"granularity must be 'document' or 'host', got {granularity!r}")
    if granularity == "document":
        groups = [(c.url, c.citations, len(c.authors), c.social) for c in citations]
    else:
        by_host: dict[str, list[ResourceCitations]] = {}
        for c in citations:
            by_host.setdefault(c.host, []).append(c)
        groups = [
            (host, sum(c.citations for c in cs), len(set().union(*(c.authors for c in cs))),
             cs[0].social)
            for host, cs in by_host.items()
        ]
    groups.sort(key=lambda g: (-g[1], -g[2], g[0]))
    return [RankedResource(key, n, authors, i + 1, social)
            for i, (key, n, authors, social) in enumerate(groups)]


def ranking_json(ranked: Sequence[RankedResource]) -> str:
    """``ranking.json``: a JSON array of the ranked resources, one object
    per resource, in ``json.dumps(indent=2)`` layout."""
    if not ranked:
        return "[]\n"
    objects = ",\n".join(
        f'  {{\n    "key": {quote(r.key)},\n    "citations": {r.citations},\n'
        f'    "distinct_authors": {r.distinct_authors},\n    "rank": {r.rank},\n'
        f'    "social": {"true" if r.social else "false"}\n  }}'
        for r in ranked
    )
    return f"[\n{objects}\n]\n"


def fetch_manifest(ranked: Sequence[RankedResource], top_n: int) -> list[str]:
    """Top non-social resource URLs in rank order, for the crawler.

    Expects document-granularity ranking; emits the manifest only, the
    crawl itself happens downstream.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    urls = [r.key for r in ranked if not r.social]
    return urls[:top_n]


def build_export_records(
    citations: Sequence[ResourceCitations],
    packet: QueryPacket,
) -> list[ExportRecord]:
    """One export record per cited document, for the corporate system.

    Social-platform links are excluded; the export carries external
    informational resources only.  Each resource maps its distinct query
    sets to labels once.
    """
    return [
        ExportRecord(
            c.url,
            c.first_seen,
            c.citations,
            tuple(sorted({packet.queries[i] for matched in c.query_sets for i in matched})),
            tuple(sorted(c.message_ids)),
        )
        for c in citations
        if not c.social
    ]


def export_stream(records: Sequence[ExportRecord]) -> bytes:
    """Serialize export records as ``EXPORT_FORMAT_VERSION`` line-delimited JSON.

    Lines are sorted by citations descending then url ascending; equal
    inputs always produce identical bytes.
    """
    seen: set[str] = set()
    for r in records:
        if r.url in seen:
            raise ValueError(f"duplicate export url: {r.url}")
        seen.add(r.url)
    ordered = sorted(records, key=lambda r: (-r.citations, r.url))
    return "".join([
        f'{{"url": {quote(r.url)}, "first_seen": "{r.first_seen}", '
        f'"citations": {r.citations}, "query_labels": [{", ".join(map(quote, r.query_labels))}], '
        f'"source_message_ids": [{", ".join(map(quote, r.source_message_ids))}]}}\n'
        for r in ordered
    ]).encode("utf-8")


def _baseline_cdf(baseline: BaselineFit):
    if isinstance(baseline, WeibullFit):
        return lambda x: weibull_cdf(x, baseline.k, baseline.lam)
    if isinstance(baseline, PowerLawFit):
        return lambda x: powerlaw_cdf(x, baseline.alpha, baseline.xmin)
    raise TypeError(f"unsupported baseline type {type(baseline).__name__}")


def compare_to_model(
    empirical_counts: Union[Sequence[int], Mapping[str, int]],
    baseline: BaselineFit,
    threshold: float | None = None,
    series_name: str = "counts",
) -> AnomalyReport:
    """Kolmogorov-Smirnov check of a citation series against a baseline.

    ``flagged`` is set when the KS distance of the whole series exceeds
    ``threshold`` (default: the 5% critical value 1.36/sqrt(n)).
    Individual keys whose counts have baseline tail probability below
    0.001 are listed as top outliers, largest counts first, at most 10.
    """
    if isinstance(empirical_counts, Mapping):
        items = [(str(k), int(v)) for k, v in empirical_counts.items()]
    else:
        items = [(f"sample[{i}]", int(v)) for i, v in enumerate(empirical_counts)]
    if len(items) < 10:
        raise ValueError(f"need at least 10 counts, got {len(items)}")
    counts = [v for _, v in items]
    if any(v < 1 for v in counts):
        raise ValueError("counts must be positive")

    cdf = _baseline_cdf(baseline)
    ks = ks_statistic(counts, cdf)
    if threshold is None:
        threshold = KOLMOGOROV_5PCT / math.sqrt(len(counts))

    outliers = []
    for key, value in items:
        tail_probability = 1.0 - cdf(float(value))
        if tail_probability < 1e-3:
            outliers.append((key, value, tail_probability))
    outliers.sort(key=lambda t: (-t[1], t[0]))

    return AnomalyReport(
        series_name=series_name,
        baseline=baseline,
        empirical_ks=ks,
        threshold=threshold,
        flagged=ks > threshold,
        top_outliers=tuple(outliers[:10]),
    )
