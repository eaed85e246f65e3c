"""Seeded input generation for the benchmark workloads.

Every input a workload feeds to netmon is made here from the workload
seed, so equal seeds give byte-identical files and no large fixture is
committed.  The message corpora have the shape of the 1,000-message test
fixture (580 messages with links, 750 link occurrences over 360 final
URLs, every third occurrence behind a short-address service, every
thirtieth behind a two-hop chain); the seed decides which final URL each
occurrence cites.  A corpus of C copies relabels the message ids per copy;
with ``distinct_urls`` every copy also relabels every URL, and a fixed
number of lines and short links per copy are broken on purpose.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

N_MESSAGES = 1000
N_WITH_ONE_LINK = 410
N_WITH_TWO_LINKS = 170
N_LINKS = N_WITH_ONE_LINK + 2 * N_WITH_TWO_LINKS   # 750
N_FINALS = 360

QUERIES = (
    "market rates",
    "central bank",
    "quarterly earnings",
    "bond yields",
    "credit rating",
    "stock exchange",
    "merger deal",
    "fintech startup",
)

FILLERS = (
    "analysts expect more movement this week",
    "regional desks confirm the figures",
    "trading volumes stayed unusually high",
    "the committee meets again on friday",
    "early reports point the other way",
    "forecasts were revised twice already",
    "sources close to the deal stay quiet",
    "the quarterly review lands tomorrow",
)

SHORTENER_BASES = (
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

# Failures injected per copy of a distinct-URL corpus.  Only failures the
# pipeline turns into rejects or statuses are used: a URL that makes
# urlsplit raise still aborts the whole run and is not a benchmark input.
BAD_JSON_LINES = 1
MISSING_FIELD_LINES = 1
BAD_TIMESTAMP_LINES = 1
DEAD_SHORT_LINKS = 4          # redirect target null -> fetch_failed
LOOPING_SHORT_LINKS = 2       # a -> b -> a -> loop_detected
DEEP_SHORT_LINKS = 1          # 12-hop chain -> depth_exceeded at depth 10
DEEP_CHAIN_HOPS = 12

# The A6 link parameters: boosted, rich-get-richer reposting of
# link-carrying messages, with runs truncated at 800 agents.
LINKED_SIM_CONFIG = {
    "p_s": 0.3,
    "e0": 3,
    "p_like": 0.3,
    "p_repost": 0.1,
    "link_carrier_fraction": 0.5,
    "link_boost": 1.5,
    "rich_get_richer_gamma": 0.4,
    "horizon": 60,
    "max_agents": 800,
}


@dataclass
class CorpusExpectation:
    """What the pipeline must report for a generated corpus."""

    lines: int = 0
    rejected: int = 0
    messages_with_links: int = 0
    links: int = 0
    statuses: dict[str, int] = field(default_factory=dict)

    @property
    def distinct_raw_urls(self) -> int:
        return sum(self.statuses.values())


def _occurrence_plan(rng: random.Random) -> list[int]:
    # Citation counts per final, skewed to a heavy head, summing to
    # exactly N_LINKS over N_FINALS keys; the seed shuffles who cites what.
    counts = [1] * N_FINALS
    counts[0] += 60
    for i in range(1, 5):
        counts[i] += 30
    for i in range(5, 15):
        counts[i] += 10
    for i in range(15, 70):
        counts[i] += 2
    plan = [j for j, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(plan)
    return plan


def _timestamp(i: int) -> str:
    minutes = (i - 1) * 7
    return (
        f"2016-05-{1 + minutes // 1440:02d}"
        f"T{(minutes % 1440) // 60:02d}:{minutes % 60:02d}:00Z"
    )


def _copy_urls(plan, copy_tag: str, redirect_map: dict, rng, inject: bool):
    """Raw URL per occurrence for one copy, adding its redirect entries.

    Returns the raw URLs and the expected status of each distinct one.
    """
    def final_url(j: int) -> str:
        return f"https://news{j % 40:02d}.test/{copy_tag}item/{j:03d}"

    raw_urls: list[str] = []
    status: dict[str, str] = {}
    plain_shorts: list[str] = []
    for occ, final_idx in enumerate(plan):
        final = final_url(final_idx)
        if occ % 3 == 0:
            base = SHORTENER_BASES[occ % len(SHORTENER_BASES)]
            short = f"{base}{copy_tag}tok{occ:04d}"
            if occ % 30 == 0:
                base2 = SHORTENER_BASES[(occ + 4) % len(SHORTENER_BASES)]
                mid = f"{base2}{copy_tag}hop{occ:04d}"
                redirect_map[short] = mid
                redirect_map[mid] = final
            else:
                redirect_map[short] = final
                plain_shorts.append(short)
            raw_urls.append(short)
            status[short] = "resolved"
        else:
            raw_urls.append(final)
            status[final] = "not_shortened"

    if inject:
        picked = rng.sample(
            plain_shorts, DEAD_SHORT_LINKS + LOOPING_SHORT_LINKS + DEEP_SHORT_LINKS
        )
        for short in picked[:DEAD_SHORT_LINKS]:
            redirect_map[short] = None
            status[short] = "fetch_failed"
        for short in picked[DEAD_SHORT_LINKS:DEAD_SHORT_LINKS + LOOPING_SHORT_LINKS]:
            back = short.replace("tok", "loop")
            redirect_map[short] = back
            redirect_map[back] = short
            status[short] = "loop_detected"
        for short in picked[DEAD_SHORT_LINKS + LOOPING_SHORT_LINKS:]:
            hop = short
            for h in range(DEEP_CHAIN_HOPS):
                nxt = f"{short.replace('tok', 'deep')}-{h}"
                redirect_map[hop] = nxt
                hop = nxt
            status[short] = "depth_exceeded"
    return raw_urls, status


def _break_line(line: str, how: str) -> str:
    if how == "json":
        return line[:-1]                       # lose the closing brace
    obj = json.loads(line)
    if how == "field":
        del obj["author"]
    else:
        obj["timestamp"] = "2016-13-45T99:00:00Z"
    return json.dumps(obj)


def write_corpus(
    directory: Path, seed: int, copies: int, distinct_urls: bool
) -> CorpusExpectation:
    """Write ``corpus.jsonl``, ``redirects.json`` and ``queries.txt``.

    With ``distinct_urls`` each copy cites its own URLs and carries the
    injected failures listed above; otherwise every copy cites the same
    504 raw URLs and nothing is broken.
    """
    rng = random.Random(seed)
    plan = _occurrence_plan(rng)
    expect = CorpusExpectation()
    redirect_map: dict = {}
    statuses: dict[str, str] = {}
    broken_kinds = (
        ["json"] * BAD_JSON_LINES
        + ["field"] * MISSING_FIELD_LINES
        + ["timestamp"] * BAD_TIMESTAMP_LINES
    )

    with open(directory / "corpus.jsonl", "w") as out:
        shared_urls = None
        for c in range(copies):
            if distinct_urls:
                raw_urls, status = _copy_urls(plan, f"c{c}/", redirect_map, rng, True)
                statuses.update(status)
                # Only link-free messages are broken, so the link counts
                # and statuses stay exactly as planned.
                broken = dict(zip(
                    rng.sample(range(N_WITH_ONE_LINK + N_WITH_TWO_LINKS + 1,
                                     N_MESSAGES + 1), len(broken_kinds)),
                    broken_kinds,
                ))
            else:
                if shared_urls is None:
                    shared_urls, status = _copy_urls(plan, "", redirect_map, rng, False)
                    statuses.update(status)
                raw_urls = shared_urls
                broken = {}
            occ = 0
            for i in range(1, N_MESSAGES + 1):
                query = QUERIES[(i - 1) % len(QUERIES)].capitalize()
                filler = FILLERS[(i - 1) % len(FILLERS)]
                if i <= N_WITH_ONE_LINK:
                    text = f"{query} update: {filler} {raw_urls[occ]}"
                    occ += 1
                elif i <= N_WITH_ONE_LINK + N_WITH_TWO_LINKS:
                    text = f"{query} roundup: {filler} {raw_urls[occ]} and {raw_urls[occ + 1]}."
                    occ += 2
                else:
                    text = f"{query} chatter: {filler}"
                line = json.dumps({
                    "id": f"c{c:03d}-msg-{i:04d}",
                    "author": f"user{(i * 13) % 40:02d}",
                    "timestamp": _timestamp(i),
                    "text": text,
                })
                if i in broken:
                    line = _break_line(line, broken[i])
                out.write(line + "\n")
        expect.lines = copies * N_MESSAGES
        expect.rejected = copies * len(broken_kinds) if distinct_urls else 0
        expect.messages_with_links = copies * (N_WITH_ONE_LINK + N_WITH_TWO_LINKS)
        expect.links = copies * N_LINKS

    for value in statuses.values():
        expect.statuses[value] = expect.statuses.get(value, 0) + 1
    (directory / "redirects.json").write_text(json.dumps(redirect_map, sort_keys=True))
    (directory / "queries.txt").write_text(
        "# business query packet\n" + "\n".join(QUERIES) + "\n"
    )
    return expect


def write_linked_config(directory: Path) -> Path:
    """The A6 link parameters as a ``netmon simulate --config`` file."""
    path = directory / "linked.json"
    path.write_text(json.dumps(LINKED_SIM_CONFIG, sort_keys=True) + "\n")
    return path
