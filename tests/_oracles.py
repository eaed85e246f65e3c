"""Independent reference implementations used only to check the package.

Everything here is deliberately written from first principles (linear
algebra, inverse CDFs, character scanning) so the tests never reuse the
code paths they verify, or is a package function as first written, one
occurrence at a time, that its faster form must agree with exactly.
"""

from __future__ import annotations

import json
import random
import string
from datetime import timezone
from decimal import Decimal, getcontext
from pathlib import Path
from typing import NamedTuple, Optional
from urllib.parse import urlsplit

import numpy as np

from netmon.cli import CliError, _number, _read_text
from netmon.diffusion import is_finite
from netmon.ingest import Message, format_timestamp, parse_timestamp
from netmon.linknet import (
    _OK_STATUSES,
    _URL_RUN,
    SOCIAL_HOSTS,
    ExtractedLink,
    LinkParseError,
    LinkStats,
    _Split,
)
from netmon.pipeline import ExportRecord, RankedResource
from netmon.simulator import (
    EVENT_DEATH,
    EVENT_LIKE,
    EVENT_REPOST,
    EVENT_SELF_GENERATE,
    EVENT_TRUNCATED,
    AgentLifeStats,
    EventRecord,
)


def decimal_weibull_pdf(x: float, k: float, lam: float, prec: int = 50) -> Decimal:
    """High-precision Weibull density via the decimal module."""
    ctx = getcontext().copy()
    ctx.prec = prec
    xd = Decimal(repr(x))
    kd = Decimal(repr(k))
    ld = Decimal(repr(lam))
    z = ctx.divide(xd, ld)
    # z**(k-1) = exp((k-1) ln z), z**k = exp(k ln z)
    ln_z = ctx.ln(z)
    pow_km1 = ctx.exp(ctx.multiply(kd - Decimal(1), ln_z))
    pow_k = ctx.exp(ctx.multiply(kd, ln_z))
    return ctx.multiply(ctx.divide(kd, ld), ctx.multiply(pow_km1, ctx.exp(-pow_k)))


def delta_probs(p_like: float, p_repost: float) -> dict[int, float]:
    """The four step probabilities, straight from the product form."""
    return {
        2: p_like * p_repost,
        1: (1 - p_like) * p_repost,
        0: p_like * (1 - p_repost),
        -1: (1 - p_like) * (1 - p_repost),
    }


def reference_ks_statistic(samples, cdf) -> float:
    """``distfit.ks_statistic`` as first written: ``cdf`` evaluated at
    every sorted sample, ties included."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.array([cdf(v) for v in x])
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def expected_absorption_time(
    p_like: float,
    p_repost: float,
    e0: int,
    max_energy: int = 200,
) -> float:
    """Expected steps to reach 0 from e0, by the fundamental matrix.

    The chain is truncated at ``max_energy``: probability mass that would
    jump past the top is lumped onto the top state.  Solves
    (I - Q) tau = 1 over the transient states 1..max_energy.
    """
    probs = delta_probs(p_like, p_repost)
    n = max_energy
    a = np.zeros((n, n))
    for i in range(1, n + 1):
        a[i - 1, i - 1] = 1.0
        for delta, p in probs.items():
            j = i + delta
            if j <= 0:
                continue  # absorption, contributes nothing to Q
            j = min(j, n)
            a[i - 1, j - 1] -= p
    tau = np.linalg.solve(a, np.ones(n))
    return float(tau[e0 - 1])


def weibull_samples(k: float, lam: float, n: int, seed: int) -> np.ndarray:
    """Seeded inverse-CDF Weibull generator."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return lam * (-np.log1p(-u)) ** (1.0 / k)


def exponential_samples(rate: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return -np.log1p(-u) / rate


def powerlaw_int_samples(alpha: float, xmin: int, n: int, seed: int) -> list[int]:
    """Seeded discrete power-law generator (inverse CDF of the
    continuous approximation, rounded to the nearest integer)."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    x = (xmin - 0.5) * (1.0 - u) ** (-1.0 / (alpha - 1.0))
    return [int(v) for v in np.floor(x + 0.5)]


_URL_ALLOWED = set(
    string.ascii_letters + string.digits + "-._~:/?#[]@!$&'()*+,;=%"
)
_TRAILING = set(".,;:!?'\"")
_CLOSERS = {")": "(", "]": "[", "}": "{"}


def reference_trim_url(candidate: str) -> str:
    """``linknet._trim_url`` as first written: peel trailing punctuation
    and unbalanced closers, re-slicing and re-counting the candidate at
    every step (quadratic in the length of what it peels)."""
    while candidate:
        last = candidate[-1]
        if last in _TRAILING:
            candidate = candidate[:-1]
            continue
        if last in _CLOSERS and candidate.count(_CLOSERS[last]) < candidate.count(last):
            candidate = candidate[:-1]
            continue
        break
    return candidate


def reference_url_scan(text: str) -> list[tuple[int, str]]:
    """Character-by-character URL scanner used to cross-check extraction.

    Finds http(s)://... runs, stops at whitespace or a disallowed
    character, then peels trailing sentence punctuation and unbalanced
    closing brackets.
    """
    out = []
    i = 0
    while i < len(text):
        start = None
        if text.startswith("http://", i) or text.startswith("https://", i):
            start = i
        if start is None:
            i += 1
            continue
        j = start
        while j < len(text) and text[j] in _URL_ALLOWED:
            j += 1
        candidate = reference_trim_url(text[start:j])
        if len(candidate) > len("https://"):
            out.append((start, candidate))
            i = start + len(candidate)
        else:
            i = j if j > i else i + 1
    return out


def reference_extract_links(messages) -> list:
    """``linknet.extract_links`` as first written: every message's text
    scanned on its own, reposts included."""
    out = []
    for message in messages:
        for m in _URL_RUN.finditer(message.text):
            url = reference_trim_url(m.group(0))
            if len(url) <= len("https://"):
                continue
            out.append(ExtractedLink(message_id=message.id, raw_url=url, position=m.start()))
    return out


def reference_split_checked(url: str) -> _Split:
    """``linknet._split_checked`` as first written: one ``urlsplit`` of
    every URL, its host and port read once."""
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


def naive_word_match(text: str, query: str) -> bool:
    """Token-set containment check used to cross-check query matching."""

    def tokens(s: str) -> set[str]:
        toks, cur = set(), []
        for ch in s:
            if ch.isalnum():
                cur.append(ch)
            else:
                if cur:
                    toks.add("".join(cur).casefold())
                cur = []
        if cur:
            toks.add("".join(cur).casefold())
        return toks

    t = tokens(text)
    q = tokens(query)
    return bool(q) and q.issubset(t)


def reference_match_queries(messages, packet) -> list:
    """``ingest.match_queries`` as a copying filter: a new ``Message`` for
    each matched message, by ``naive_word_match``; the inputs are left as
    they were."""
    out = []
    for m in messages:
        matched = frozenset(i for i, q in enumerate(packet.queries)
                            if naive_word_match(m.text, q))
        if matched:
            out.append(Message(m.id, m.author, m.timestamp, m.text, matched))
    return out


class ReferenceRun(NamedTuple):
    events: list
    stats: list
    truncated_at: Optional[int]


def reference_run(config, record_events: bool = True) -> ReferenceRun:
    """One run stepped agent by agent in Python, as the simulator was first written.

    Follows the tick protocol of ``netmon.simulator`` literally: lists per
    agent, one ``random.Random(config.seed)`` read draw by draw, events
    appended in the order they happen.  The batched engine must agree with
    it event for event and row for row.
    """
    params = config.params
    rng = random.Random(config.seed)
    rand = rng.random
    e0 = params.e0
    p_s = params.p_s
    carrier_frac = params.link_carrier_fraction

    # Per-agent parallel lists indexed by id (assigned in creation order).
    birth: list[int] = []
    energy: list[int] = []
    likes: list[int] = []
    reposts: list[int] = []
    link: list[Optional[str]] = []
    death_tick: list[Optional[int]] = []
    events: list[EventRecord] = []
    link_counter = 0

    def spawn(tick: int, parent_id: Optional[int]) -> int:
        nonlocal link_counter
        if parent_id is None:
            # Self-generated message: maybe carrying a new link.
            if rand() < carrier_frac:
                ref: Optional[str] = f"r{config.seed}-l{link_counter}"
                link_counter += 1
            else:
                ref = None
        else:
            ref = link[parent_id]
        birth.append(tick)
        energy.append(e0)
        likes.append(0)
        reposts.append(0)
        link.append(ref)
        death_tick.append(None)
        return len(birth) - 1

    def emit(*event) -> None:
        if record_events:
            events.append(EventRecord(*event))

    def over_cap() -> bool:
        return config.max_agents is not None and len(birth) > config.max_agents

    active: list[int] = []       # stepping this tick, ascending ids
    pending: list[int] = []      # born this tick, step from the next one
    truncated_at: Optional[int] = None

    # Initial agents are the tick-0 self-generations; tick 0 still takes
    # its own Bernoulli(p_s) draw afterwards like every other tick.
    for _ in range(config.initial_agents):
        pending.append(spawn(0, None))
        emit(0, EVENT_SELF_GENERATE, pending[-1])
    if over_cap():
        truncated_at = 0
        emit(0, EVENT_TRUNCATED, -1)

    for tick in range(config.horizon):
        if truncated_at is not None:
            break
        if rand() < p_s:
            pending.append(spawn(tick, None))
            emit(tick, EVENT_SELF_GENERATE, pending[-1])

        survivors: list[int] = []
        for aid in active:
            e = energy[aid]
            # A probability is a float, or a table from energy 1 whose last
            # value holds above its end; either is clamped to [0, 1].
            p_like, p_repost = (
                p if isinstance(p, float) else p[e - 1] if e <= len(p) else p[-1]
                for p in (params.p_like, params.p_repost))
            p_like = 0.0 if p_like < 0.0 else 1.0 if p_like > 1.0 else p_like
            p_repost = 0.0 if p_repost < 0.0 else 1.0 if p_repost > 1.0 else p_repost
            if link[aid] is not None:
                # link carriers: boost * p * (1 + gamma * reposts so far), clamped
                p_repost = (params.link_boost * p_repost
                            * (1.0 + params.rich_get_richer_gamma * reposts[aid]))
                p_repost = 1.0 if p_repost > 1.0 else p_repost
            u = rand()
            liked = reposted = False
            if u < p_like * p_repost:
                liked = reposted = True
            elif u < p_like * p_repost + (1.0 - p_like) * p_repost:
                reposted = True
            elif u < (p_like * p_repost + (1.0 - p_like) * p_repost
                      + p_like * (1.0 - p_repost)):
                liked = True
            if liked:
                likes[aid] += 1
                emit(tick, EVENT_LIKE, aid)
            if reposted:
                reposts[aid] += 1
                child = spawn(tick, aid)
                pending.append(child)
                emit(tick, EVENT_REPOST, aid, child)
            energy[aid] = e + (2 if liked and reposted else 1 if reposted else
                               0 if liked else -1)
            if energy[aid] == 0:
                death_tick[aid] = tick
                emit(tick, EVENT_DEATH, aid)
            else:
                survivors.append(aid)

        # Newborn ids all exceed surviving ids, so order stays ascending.
        active = survivors + pending
        pending = []
        if not active and p_s == 0.0:
            # No agent is left and none can appear: nothing changes any more.
            break
        if over_cap():
            truncated_at = tick
            emit(tick, EVENT_TRUNCATED, -1)

    # Censoring point: end of the horizon, or end of the truncated tick.
    censor_tick = config.horizon if truncated_at is None else truncated_at + 1
    stats = [
        AgentLifeStats(
            agent_id=aid,
            lifetime=(censor_tick if death_tick[aid] is None else death_tick[aid]) - birth[aid],
            censored=death_tick[aid] is None,
            total_likes=likes[aid],
            total_reposts=reposts[aid],
            carried_link=link[aid],
        )
        for aid in range(len(birth))
    ]
    return ReferenceRun(events, stats, truncated_at)


def reference_runs(config, n_runs: int, record_events: bool = True) -> list[ReferenceRun]:
    """``reference_run`` of the seeds seed, seed+1, ..., seed+n_runs-1."""
    return [
        reference_run(type(config)(params=config.params, horizon=config.horizon,
                                   seed=config.seed + k, max_agents=config.max_agents,
                                   initial_agents=config.initial_agents), record_events)
        for k in range(n_runs)
    ]


# The simulator's JSONL serializers as first written, one json.dumps or
# json.loads per line; netmon.simulator's column writers must agree with
# them byte for byte, and its reader is tested on their text.

def reference_events_to_jsonl(events, run=None) -> str:
    lines = []
    for e in events:
        record = {} if run is None else {"run": run}
        record.update(
            tick=e.tick,
            kind=e.kind,
            agent_id=e.agent_id,
            related_agent_id=e.related_agent_id,
        )
        lines.append(json.dumps(record))
    return "".join(line + "\n" for line in lines)


def reference_events_from_jsonl(text: str) -> list[tuple]:
    """(tick, kind, agent_id, related_agent_id) per non-blank line."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        out.append((d["tick"], d["kind"], d["agent_id"], d.get("related_agent_id")))
    return out


def reference_life_stats_to_jsonl(stats) -> str:
    lines = []
    for s in stats:
        lines.append(
            json.dumps(
                {
                    "agent_id": s.agent_id,
                    "lifetime": s.lifetime,
                    "censored": s.censored,
                    "total_likes": s.total_likes,
                    "total_reposts": s.total_reposts,
                    "carried_link": s.carried_link,
                }
            )
        )
    return "".join(line + "\n" for line in lines)


def reference_life_stats_from_jsonl(text: str) -> list[tuple]:
    """The AgentLifeStats fields, in order, per non-blank line; a line
    whose value is not an object is a ``json.JSONDecodeError``."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        if not isinstance(d, dict):
            raise json.JSONDecodeError("Expecting a JSON object", line, 0)
        out.append((
            d["agent_id"],
            d["lifetime"],
            d["censored"],
            d["total_likes"],
            d["total_reposts"],
            d.get("carried_link"),
        ))
    return out


def reference_read_samples(path_str: str, want_int: bool) -> list:
    """``netmon fit``'s samples file as first read: one number per
    non-blank stripped line, each checked as it is read, so the error
    names the first bad line."""
    path = Path(path_str)
    samples = []
    for line_no, line in enumerate(_read_text(path, "input file").splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            value = _number(stripped, int if want_int else float)
        except ValueError as exc:
            raise CliError(f"non-numeric value on line {line_no}: {stripped!r}") from exc
        if not is_finite(value):
            raise CliError(f"value out of range on line {line_no}: {stripped!r}")
        samples.append(value)
    if not samples:
        raise CliError(f"no samples in {path}")
    return samples


# The pipeline's line writers and corpus reader as first written, one
# json.dumps or json.loads per line; netmon's template-based writers and
# its C-scanner corpus reader must agree with them byte for byte.

def reference_timestamp(dt) -> str:
    """RFC 3339 UTC with a Z suffix, by datetime.isoformat."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    naive = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return naive.isoformat(timespec="seconds") + "Z"


def reference_matched_jsonl(messages) -> str:
    return "".join(
        json.dumps(
            {
                "id": m.id,
                "author": m.author,
                "timestamp": m.timestamp,
                "text": m.text,
                "matched_queries": sorted(m.matched_queries),
            }
        )
        + "\n"
        for m in messages
    )


def reference_ranking_json(ranked) -> str:
    return json.dumps(
        [
            {
                "key": r.key,
                "citations": r.citations,
                "distinct_authors": r.distinct_authors,
                "rank": r.rank,
                "social": r.social,
            }
            for r in ranked
        ],
        indent=2,
    ) + "\n"


def reference_links_jsonl(links) -> str:
    return "".join(
        json.dumps({"message_id": l.message_id, "raw_url": l.raw_url, "position": l.position})
        + "\n"
        for l in links
    )


def reference_resolved_jsonl(resolved) -> str:
    return "".join(
        json.dumps(
            {
                "raw_url": r.raw_url,
                "final_url": r.final_url,
                "redirect_chain": list(r.redirect_chain),
                "was_shortened": r.was_shortened,
                "status": r.status,
            }
        )
        + "\n"
        for r in resolved
    )


def reference_rejects_jsonl(rejects) -> str:
    return "".join(
        json.dumps({"line_no": r.line_no, "reason": r.reason, "raw": r.raw}) + "\n"
        for r in rejects
    )


def reference_export_stream(records) -> bytes:
    ordered = sorted(records, key=lambda r: (-r.citations, r.url))
    return "".join(
        json.dumps(
            {
                "url": r.url,
                "first_seen": r.first_seen,
                "citations": r.citations,
                "query_labels": list(r.query_labels),
                "source_message_ids": list(r.source_message_ids),
            }
        )
        + "\n"
        for r in ordered
    ).encode("utf-8")


class ReferenceLinkRecord(NamedTuple):
    """One link occurrence joined with its message: the per-occurrence
    record that ``linknet.build_link_records`` once returned."""

    message_id: str
    author: str
    timestamp: str
    raw_url: str
    final_url: str
    host: str
    status: str
    was_shortened: bool
    social: bool
    matched_queries: frozenset


def reference_link_records(messages, extracted, resolved) -> list:
    """One ``ReferenceLinkRecord`` per link occurrence, in extraction
    order, of every status; a message id that recurs takes its last
    message."""
    by_id = {m.id: m for m in messages}
    records = []
    for link in extracted:
        res = resolved[link.raw_url]
        msg = by_id[link.message_id]
        records.append(ReferenceLinkRecord(
            msg.id, msg.author, msg.timestamp, link.raw_url, res.final_url, res.host,
            res.status, res.was_shortened, res.host.removeprefix("www.") in SOCIAL_HOSTS,
            msg.matched_queries))
    return records


def reference_link_stats(messages, extracted, resolved) -> LinkStats:
    """``linknet.link_stats`` as first written: one walk over the link
    occurrences, counting each resolved or not-shortened one toward its
    final URL and host, and every one toward its raw URL's canonical form."""
    with_links = {link.message_id for link in extracted}
    n_links = len(extracted)
    finals = set()
    raw_canonicals = set()
    per_source: dict[str, int] = {}
    for link in extracted:
        res = resolved[link.raw_url]
        raw_canonicals.add(res.raw_canonical)
        if res.status in _OK_STATUSES:
            finals.add(res.final_url)
            per_source[res.host] = per_source.get(res.host, 0) + 1
    return LinkStats(
        messages_with_links_fraction=len(with_links) / len(messages),
        unique_links_fraction=(len(finals) / n_links) if n_links else 0.0,
        unique_links_fraction_pre_resolution=(
            len(raw_canonicals) / n_links if n_links else 0.0
        ),
        per_source_counts=per_source,
    )


def reference_rank_resources(records, granularity: str = "document") -> list:
    """``pipeline.rank_resources`` over per-occurrence records: successful
    occurrences grouped by final URL or host, sorted by citations, then
    distinct authors, then key."""
    groups: dict[str, dict] = {}
    for r in records:
        if r.status not in _OK_STATUSES:
            continue
        key = r.final_url if granularity == "document" else r.host
        g = groups.setdefault(key, {"citations": 0, "authors": set(), "social": r.social})
        g["citations"] += 1
        g["authors"].add(r.author)
    ordered = sorted(groups, key=lambda k: (-groups[k]["citations"],
                                            -len(groups[k]["authors"]), k))
    return [RankedResource(k, groups[k]["citations"], len(groups[k]["authors"]), i + 1,
                           groups[k]["social"])
            for i, k in enumerate(ordered)]


def reference_export_records(messages, records, packet) -> list:
    """``pipeline.build_export_records`` as first written: query labels
    gathered and ``first_seen`` taken by ``min`` at every link occurrence,
    comparing the instants the timestamp texts stand for."""
    by_id = {m.id: m for m in messages}
    groups: dict[str, dict] = {}
    for r in records:
        if r.status not in _OK_STATUSES or r.social:
            continue
        g = groups.setdefault(
            r.final_url,
            {"first_seen": r.timestamp, "citations": 0, "queries": set(), "ids": set()},
        )
        g["citations"] += 1
        g["first_seen"] = min(g["first_seen"], r.timestamp, key=parse_timestamp)
        g["ids"].add(r.message_id)
        msg = by_id.get(r.message_id)
        if msg is not None:
            g["queries"].update(packet.queries[i] for i in msg.matched_queries)
    return [
        ExportRecord(
            url=url,
            first_seen=g["first_seen"],
            citations=g["citations"],
            query_labels=tuple(sorted(g["queries"])),
            source_message_ids=tuple(sorted(g["ids"])),
        )
        for url, g in groups.items()
    ]


_CORPUS_FIELDS = ("id", "author", "timestamp", "text")
# The JSON kinds each corpus field may hold.
_CORPUS_FIELD_KINDS = {"id": ("string", "integer"), "author": ("string", "integer"),
                       "timestamp": ("string",), "text": ("string",)}


def _json_kind(value) -> str:
    """The JSON kind of a decoded value, integers told apart from other numbers."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def reference_load_corpus(lines):
    """(messages, rejects) as (id, author, timestamp, text) and
    (line_no, reason, raw) tuples, one json.loads per stripped line; a
    line holding bytes that are not UTF-8 is rejected first.

    Timestamps go through netmon's own parse_timestamp and format_timestamp,
    the path that canonical_timestamp shortens.  ``text`` and ``timestamp``
    must be strings, ``id`` and ``author`` strings or integers (not
    booleans), or the line is rejected naming the first field that is not."""
    messages, rejects = [], []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            # The bytes of a line read with errors="surrogateescape".
            raw = stripped.encode("utf-8", "surrogateescape")
        except UnicodeEncodeError:
            pass  # other lone surrogates: text that never was bytes
        else:
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                rejects.append((line_no, f"invalid UTF-8: byte 0x{raw[exc.start]:02x}", stripped))
                continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            rejects.append((line_no, f"invalid JSON: {exc.msg}", stripped))
            continue
        except ValueError as exc:
            rejects.append((line_no, f"invalid JSON: {exc}", stripped))
            continue
        except RecursionError:
            rejects.append((line_no, "invalid JSON: nested too deeply", stripped))
            continue
        if not isinstance(obj, dict):
            rejects.append((line_no, "not a JSON object", stripped))
            continue
        missing = [f for f in _CORPUS_FIELDS if f not in obj]
        if missing:
            rejects.append((line_no, f"missing fields: {', '.join(missing)}", stripped))
            continue
        kinds = {f: _json_kind(obj[f]) for f in _CORPUS_FIELDS}
        bad = [f for f in _CORPUS_FIELDS if kinds[f] not in _CORPUS_FIELD_KINDS[f]]
        if bad:
            expected = " or ".join(_CORPUS_FIELD_KINDS[bad[0]])
            rejects.append((line_no, f"bad {bad[0]}: a JSON {expected} expected, "
                                     f"got {kinds[bad[0]]}", stripped))
            continue
        try:
            ts = format_timestamp(parse_timestamp(obj["timestamp"]))
        except (ValueError, OverflowError):
            rejects.append((line_no, f"bad timestamp: {obj['timestamp']!r}", stripped))
            continue
        # an integer id or author is kept as its decimal text
        messages.append((str(obj["id"]), str(obj["author"]), ts, obj["text"]))
    return messages, rejects
