"""Discrete-time evolution of the message-agent space.

Tick protocol (fixed so equal configs replay bit-identically):

1. at most one self-generated agent appears (one Bernoulli(p_s) draw per
   tick); initial agents count as self-generated at tick 0;
2. every agent born on an earlier tick and still alive steps once, in
   ascending id order: one energy-step draw decides like/repost/both/
   neither, a repost immediately creates a child with energy e0 that
   inherits the parent's link and does not step until the next tick;
3. agents whose energy reached 0 emit a death event and stop for good.

Every uniform draw comes from one ``random.Random(seed)`` stream: one
draw per tick for self-generation, one per created non-repost agent for
link carriage, one per agent step.

One engine follows this protocol, ``run_simulation``.  In the model each
message's energy is a Markov chain and its reposts are independent
copies, so runs never interact and a chunk of them steps together with
numpy: agent state lives in int32 columns (so ``SimulationConfig`` caps
e0 + 2 * horizon, the highest reachable energy, at 2**31 - 1), the
active set is one sorted array of keys run << 32 | row, energy e steps
by the thresholds of min(e, K) for tables of up to K values (three
scalars for floats), and outcomes, deaths and spawns are numpy
expressions over the active set.  Each run still owns its
``random.Random(seed + k)`` and reads it in the order above, so every
run is the same as if it had been stepped alone; numpy's own generators
are never used.  ``run_simulation`` steps a given number of runs as one
chunk, can also record the event log, and returns the chunk's
``SimulationResult``.  ``run_chunks`` is the one replication loop: it
splits any number of runs into chunks of ``CHUNK_RUNS``, seeds each and
steps it with ``run_simulation`` when asked for it.  ``replicate`` joins
its chunks' life statistics, and ``netmon simulate`` writes each chunk
as it comes.
The engine does not store events: per agent it keeps the parent, birth
and death ticks it needs anyway, and per agent-step only the like
outcome, one bit.  ``EventLog`` rebuilds each run's events from them
when the run is read.  There is no scalar path for a single run: callers
with many runs pass them together, since a batch of one run pays the
engine's fixed per-tick cost for little work (150 runs of the A6 shape
took about 1.5 s as one-run batches against 0.2 s in chunks of 15;
2-CPU Xeon, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import json
import random
import re
from array import array
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import BinaryIO, Iterator, NamedTuple, Optional

import numpy as np

from . import jsonl
from .diffusion import (BehaviorParams, effective_repost_prob, prob_at, repost_probs,
                        step_thresholds)
from .jsonl import decode_line, int_texts, quote, render_lines

__all__ = [
    "SimulationConfig",
    "EventRecord",
    "AgentLifeStats",
    "SimulationResult",
    "LifeStatsTable",
    "EventLog",
    "EVENT_SELF_GENERATE",
    "EVENT_REPOST",
    "EVENT_LIKE",
    "EVENT_DEATH",
    "EVENT_TRUNCATED",
    "CHUNK_RUNS",
    "TooManyAgentsError",
    "run_simulation",
    "run_chunks",
    "replicate",
    "repost_counts_by_link",
    "events_to_jsonl",
    "life_stats_to_jsonl",
    "life_stats_from_jsonl",
    "calibrated_default_config",
]

EVENT_SELF_GENERATE = "self_generate"
EVENT_REPOST = "repost"
EVENT_LIKE = "like"
EVENT_DEATH = "death"
# Marker appended when max_agents halts a run early; not a regular agent
# event, its agent_id is -1.
EVENT_TRUNCATED = "truncated"

# Runs stepped together per engine call by run_chunks; bounds the
# generators, draw buffers and agent columns held at once, whatever the
# number of runs.
CHUNK_RUNS = 1024

# A run's draws for a tick come from one getrandbits(64 * n), whose
# argument is a C int: one run steps at most this many agents per tick.
_MAX_RUN_ACTIVE = (2**31 - 1) >> 6


class TooManyAgentsError(ValueError):
    """A run has more active agents than one tick can step (2**25 - 1).

    A supercritical config without ``max_agents`` grows until it does.
    """


@dataclass(frozen=True)
class SimulationConfig:
    params: BehaviorParams
    horizon: int
    seed: int
    max_agents: Optional[int] = None
    initial_agents: int = 1

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        # random.Random seeds from abs(seed), so seed -k would repeat run k.
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.initial_agents < 1:
            raise ValueError(f"initial_agents must be >= 1, got {self.initial_agents}")
        # Initial agents all step at tick 1, so more than one run can step
        # could never run: refuse them before the engine allocates each one.
        if self.initial_agents > _MAX_RUN_ACTIVE:
            raise ValueError(f"initial_agents must be <= {_MAX_RUN_ACTIVE}, the active agents "
                             f"one run can step, got {self.initial_agents}")
        if self.max_agents is not None and self.max_agents < 1:
            raise ValueError(f"max_agents must be >= 1, got {self.max_agents}")
        # The engine's int32 columns hold energies up to e0 + 2 * horizon.
        if self.params.e0 + 2 * self.horizon > 2**31 - 1:
            raise ValueError(f"e0 + 2 * horizon must be <= 2**31 - 1, "
                             f"got e0={self.params.e0}, horizon={self.horizon}")


class EventRecord(NamedTuple):
    tick: int
    kind: str
    agent_id: int
    related_agent_id: Optional[int] = None


class AgentLifeStats(NamedTuple):
    agent_id: int
    lifetime: int
    censored: bool
    total_likes: int
    total_reposts: int
    carried_link: Optional[str] = None


@dataclass
class SimulationResult:
    """Runs seeded seed, seed+1, ... stepped together by ``run_simulation``.

    ``stats`` holds every run's agents, run by run; ``events`` is empty
    unless events were recorded; ``truncated_at`` holds, per run, the
    tick at which max_agents halted it, or None.
    """

    stats: LifeStatsTable
    events: EventLog
    truncated_at: list[Optional[int]]

    @property
    def truncated(self) -> int:
        """The number of runs max_agents halted."""
        return sum(tick is not None for tick in self.truncated_at)


def run_chunks(config: SimulationConfig, n_runs: int,
               record_events: bool = False) -> Iterator[SimulationResult]:
    """Runs seeded seed, ..., seed+n_runs-1, ``CHUNK_RUNS`` at a time.

    Each chunk is a ``run_simulation`` result of consecutive seeds, its
    first one ``result.stats.seed``, and is stepped only when the
    iterator reaches it: a caller that drops each chunk before taking
    the next holds one at a time.  ``CHUNK_RUNS`` is read on this module
    when this is called and ``run_simulation`` when each chunk is stepped.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    size = CHUNK_RUNS
    return (run_simulation(replace(config, seed=config.seed + first),
                           record_events=record_events, runs=min(size, n_runs - first))
            for first in range(0, n_runs, size))


def replicate(config: SimulationConfig, n_runs: int) -> LifeStatsTable:
    """Pool life statistics over runs seeded seed, seed+1, ..., seed+n-1.

    Row for row equal to the ``run_simulation(...).stats`` of those runs:
    the join of the tables of ``run_chunks``' chunks, stepped without events.
    """
    return LifeStatsTable(config.seed, [table for result in run_chunks(config, n_runs)
                                        for table in result.stats._chunks])


_LIFE_STATS_COLUMNS = ("run_lengths", "lifetime", "censored", "total_likes",
                       "total_reposts", "link_code", "links")


class LifeStatsTable:
    """Pooled life statistics of runs, one array per field.

    Rows are ordered by run, then by agent id.  The table is held as
    chunks, each a dict of ``run_lengths`` (agents of each run),
    ``lifetime``, ``censored``, ``total_likes``, ``total_reposts``,
    ``link_code`` and ``links``: a carried link is an int32 code into the
    chunk's tuple of distinct link texts ``links``, -1 for none.  A
    table of runs stepped by ``run_chunks`` holds its chunks, consecutive
    seed ranges from ``seed`` on, whose links are ``r{seed + run}-l{i}``;
    ``life_stats_from_jsonl`` gives one chunk and no seed.  ``column``
    joins one field across chunks, and ``links`` the texts its joined
    ``link_code`` indexes.  Iterating yields :class:`AgentLifeStats`
    rows, made on the fly, run after run.
    """

    def __init__(self, seed: Optional[int], chunks: list[dict]):
        self.seed = seed
        self._chunks = chunks

    def __len__(self) -> int:
        return sum(len(chunk["lifetime"]) for chunk in self._chunks)

    def column(self, name: str) -> np.ndarray:
        """One field of every row (every run, for ``run_lengths``)."""
        if name != "link_code":
            return np.concatenate([chunk[name] for chunk in self._chunks])
        # Each chunk's codes index its own texts: shift them past the texts before.
        codes, base = [], 0
        for chunk in self._chunks:
            code = chunk["link_code"]
            codes.append(np.where(code < 0, -1, code + base) if base else code)
            base += len(chunk["links"])
        return np.concatenate(codes)

    @property
    def links(self) -> tuple[str, ...]:
        """The link texts that ``column("link_code")`` indexes."""
        return tuple(chain.from_iterable(chunk["links"] for chunk in self._chunks))

    def __iter__(self) -> Iterator[AgentLifeStats]:
        return chain.from_iterable(self.runs())

    def runs(self) -> Iterator[Iterator[AgentLifeStats]]:
        """Each run's rows in turn, as a one-pass iterator over its columns.

        Rows are made on the fly by C-level iterators only: a generator
        per row would cost more than making the row.
        """
        for chunk in self._chunks:
            columns = [chunk[name] for name in _LIFE_STATS_COLUMNS[1:5]]
            code = chunk["link_code"]
            # Code -1 picks the None at the end.
            texts = np.array([*chunk["links"], None], dtype=object) if chunk["links"] else None
            lo = 0
            for n in chunk["run_lengths"].tolist():
                hi = lo + n
                links = repeat(None) if texts is None else texts[code[lo:hi]].tolist()
                yield map(tuple.__new__, repeat(AgentLifeStats),
                          zip(range(n), *(c[lo:hi].tolist() for c in columns), links))
                lo = hi


class EventLog:
    """The event log of runs stepped together, rebuilt run by run when read.

    The engine keeps, per agent, its run, birth tick, parent and death
    tick, and per agent-step one bit: whether the step was a like.  A
    run's events follow from them: a root's birth is its
    ``self_generate``, a child's birth its parent's ``repost``, a death
    tick a ``death``, a set bit a ``like``, and a halted run ends in
    ``truncated``.  They come in the order the tick protocol emits them:
    per tick the self-generations, then per agent in ascending id its
    like, repost and death, then the truncation marker.

    A run is rebuilt as four arrays: tick, kind code, agent id (-1 for
    the truncation marker) and related id (-1 for none).  ``runs`` yields
    each run's :class:`EventRecord`\\ s as a one-pass iterator zipped from
    its arrays, so only one run's are held at a time; iterating yields
    them run after run.  ``events_to_jsonl`` renders the arrays of
    consecutive runs straight to lines, a block at a time.  Without
    recorded events all are empty.
    """

    # Kind codes 0..4, in the order _run_events gathers the kinds.
    _KIND_NAMES = np.array([EVENT_SELF_GENERATE, EVENT_LIKE, EVENT_REPOST, EVENT_DEATH,
                            EVENT_TRUNCATED], dtype=object)

    def __init__(self, columns: dict[str, np.ndarray], censor: np.ndarray,
                 truncated: np.ndarray, likes: Optional[_LikeLog]):
        self._columns = columns
        self._censor = censor
        self._truncated = truncated
        self._likes = likes

    def __len__(self) -> int:
        if self._likes is None:
            return 0
        cols = self._columns
        # A birth per agent, then the likes, deaths and truncation markers.
        return (len(cols["birth"]) + int(cols["total_likes"].sum())
                + int(np.count_nonzero(~cols["censored"])) + int(self._truncated.sum()))

    def __iter__(self) -> Iterator[EventRecord]:
        return chain.from_iterable(self.runs())

    def runs(self) -> Iterator[Iterator[EventRecord]]:
        """The events of each run in turn."""
        for tick, kind, agent, related in self._run_arrays():
            related_ids = related.astype(object)
            related_ids[related < 0] = None
            yield map(tuple.__new__, repeat(EventRecord), zip(
                tick.tolist(), self._KIND_NAMES[kind].tolist(), agent.tolist(),
                related_ids.tolist()))

    def _run_arrays(self) -> Iterator[tuple[np.ndarray, ...]]:
        """Each run's events as arrays: tick, kind code, agent and related (-1 for none)."""
        if self._likes is None:
            none = np.zeros(0, dtype=np.int64)
            for _ in range(len(self._censor)):
                yield none, none, none, none
            return
        cols = self._columns
        bits = np.frombuffer(self._likes.bits, dtype=np.uint8)
        tick_start = np.frombuffer(self._likes.tick_start, dtype=np.int64)
        # Agents of the runs done so far that stepped at each tick: a run's
        # like bits follow theirs within the tick.
        before = np.zeros(len(tick_start), dtype=np.int64)
        lo = 0
        for run, n in enumerate(cols["run_lengths"].tolist()):
            hi = lo + n
            yield self._run_events(
                cols["birth"][lo:hi], cols["parent"][lo:hi], cols["death"][lo:hi],
                int(self._censor[run]), bool(self._truncated[run]), bits, tick_start, before,
            )
            lo = hi

    def _run_events(self, birth, parent, death, censor: int, truncated: bool,
                    bits, tick_start, before) -> tuple[np.ndarray, ...]:
        n = len(birth)
        # Each agent steps on the ticks after its birth up to its death or
        # the last tick the run ran; count this run's steps per tick.
        last = np.where(death >= 0, death, censor - 1)
        n_steps = last - birth
        n_ticks = len(before)
        stepping = np.cumsum(np.bincount(birth + 1, minlength=n_ticks)[:n_ticks]
                             - np.bincount(last + 1, minlength=n_ticks)[:n_ticks])
        # Every step as (tick, agent), ordered by tick, then id: the order of
        # this run's like bits within each tick.  An agent steps at most once
        # per tick, so the keys are distinct and any sort gives this order;
        # the default one is faster than a stable one here.
        agent = np.repeat(np.arange(n), n_steps)
        tick = np.arange(len(agent)) + np.repeat(birth + 1 - (np.cumsum(n_steps) - n_steps),
                                                 n_steps)
        order = np.argsort(tick * n + agent)
        tick, agent = tick[order], agent[order]
        bit = (tick_start[tick] + before[tick]
               + np.arange(len(tick)) - (np.cumsum(stepping) - stepping)[tick])
        liked = ((bits[bit >> 3] >> (bit & 7)) & 1).astype(bool)
        before += stepping
        like_tick, like_agent = tick[liked], agent[liked]

        roots = np.flatnonzero(parent < 0)
        children = np.flatnonzero(parent >= 0)
        dead = np.flatnonzero(death >= 0)
        parents = parent[children]
        halt = np.array([censor - 1] if truncated else [], dtype=np.int64)
        ticks = np.concatenate((birth[roots], like_tick, birth[children], death[dead], halt))
        agents = np.concatenate((roots, like_agent, parents, dead, np.full(len(halt), -1)))
        related = np.concatenate((np.full(len(roots) + len(like_tick), -1), children,
                                  np.full(len(dead) + len(halt), -1)))
        kinds = np.repeat(np.arange(5), (len(roots), len(like_tick), len(children),
                                         len(dead), len(halt)))
        # Within a tick: self-generations by id, then per agent its like,
        # repost and death, then the truncation marker.  The keys are
        # distinct, as each agent is born once, likes, reposts and dies at
        # most once per tick, and a run halts once: any sort gives one order.
        slot = np.concatenate((roots, n + 3 * like_agent, n + 3 * parents + 1,
                               n + 3 * dead + 2, np.full(len(halt), 4 * n)))
        order = np.argsort(ticks * (4 * n + 1) + slot)
        return ticks[order], kinds[order], agents[order], related[order]

    def _jsonl_blocks(self, run: int) -> Iterator[bytes]:
        """``events_to_jsonl``'s lines, a block of consecutive runs at a time.

        Runs join a group until it holds ``jsonl.BLOCK_LINES`` events; each group
        is rendered from its concatenated columns, so only one group's
        arrays are held at a time.
        """
        group: list[tuple[np.ndarray, ...]] = []
        size = first = 0
        for k, events in enumerate(self._run_arrays()):
            group.append(events)
            size += len(events[0])
            if size >= jsonl.BLOCK_LINES:
                yield from _event_lines(group, run + first)
                group, size, first = [], 0, k + 1
        if group:
            yield from _event_lines(group, run + first)


class _StepTables:
    """Step probabilities and thresholds of one config, ``rows`` energies of them.

    A table's last value holds above its end and a float holds at every
    energy, so energy e steps as min(e, ``rows``) does, where ``rows`` is
    the length of the longer table (1 for two floats).  ``probs`` holds
    the clamped (p_like, p_repost) and ``thresholds`` (c2, c21, c210), row
    e - 1 for energy e; with one row each is a scalar and lookups take no
    index.  Under a link boost or rich-get-richer term, thresholds are
    computed per agent from the same clamped base probabilities.
    """

    def __init__(self, params: BehaviorParams):
        self.params = params
        self.rows = max(1 if isinstance(p, float) else len(p)
                        for p in (params.p_like, params.p_repost))
        energies = range(1, self.rows + 1)
        self.probs = (np.array([prob_at(params.p_like, e) for e in energies]),
                      np.array([effective_repost_prob(e, params) for e in energies]))
        if self.rows == 1:
            self.probs = tuple(p.item() for p in self.probs)
        self.thresholds = step_thresholds(*self.probs)
        # With boost 1 and gamma 0 the linked formula reduces to the base one.
        self.boosted = params.link_boost != 1.0 or params.rich_get_richer_gamma != 0.0

    def outcomes(self, u, energy, linked=None, reposts=None):
        """Masks u < c2, u < c21 and u < c210 against each agent's thresholds.

        ``linked`` marks the link carriers and ``reposts`` holds the
        repost tallies; both are needed only when ``boosted``.
        """
        fields = self.thresholds if linked is None else self.probs
        if self.rows > 1:
            index = np.minimum(energy, self.rows) - 1
            fields = [field[index] for field in fields]
        if linked is not None:
            p_like, p_repost = fields
            fields = step_thresholds(p_like, repost_probs(p_repost, self.params, linked, reposts))
        c2, c21, c210 = fields
        return u < c2, u < c21, u < c210


def _draw_words(rng: random.Random, n: int) -> bytes:
    """The 32-bit outputs behind the next n ``rng.random()`` calls.

    ``getrandbits`` fills its result from the least significant 32-bit
    word up, one generator output per word, so little-endian bytes list
    the outputs in the order they were drawn.
    """
    return rng.getrandbits(n << 6).to_bytes(n << 3, "little")


def _uniforms(words: bytes) -> np.ndarray:
    """The floats ``random.Random.random`` makes from these outputs.

    ``random()`` turns two consecutive 32-bit outputs a, b into
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53; each step is exact in float64.
    """
    w = np.frombuffer(words, dtype="<u4")
    return ((w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)) * (1.0 / 9007199254740992.0)


class _AgentColumns:
    """Growable per-agent state of one chunk of runs, in creation order.

    With ``parents`` each agent also records its parent's row (-1 for a
    root), which the event log needs.  Energy, likes, reposts and death
    are preset to what every agent is born with, e0, 0, 0 and -1, as
    columns are allocated or grown, so ``append`` writes only the rest.
    """

    def __init__(self, capacity: int, e0: int, parents: bool = False):
        self.n = 0
        # Each field's birth value, or None where ``append`` writes it.
        self._fields = dict(run=None, birth=None, link=None, energy=e0, likes=0, reposts=0,
                            death=-1, **({"parent": None} if parents else {}))
        self._grow(capacity)

    def _grow(self, capacity: int) -> None:
        """Columns of ``capacity`` rows, holding the agents so far."""
        n = self.n
        for name, born in self._fields.items():
            column = np.empty(capacity, dtype=np.int32)
            if n:
                column[:n] = getattr(self, name)[:n]
            if born is not None:
                column[n:] = born
            setattr(self, name, column)

    def append(self, run, tick: int, link, parent=-1) -> None:
        """Add agents born at ``tick`` to the given runs, with these links."""
        lo, hi = self.n, self.n + len(run)
        if lo == hi:
            return
        if hi > len(self.run):
            self._grow(max(hi, 2 * len(self.run)))
        self.run[lo:hi] = run
        self.birth[lo:hi] = tick
        self.link[lo:hi] = link
        if "parent" in self._fields:
            self.parent[lo:hi] = parent
        self.n = hi

    def step(self, keys, active, u, tables: _StepTables, tick: int):
        """One energy step of each active agent, children appended.

        ``keys`` are the active set's keys and ``active`` their rows.
        Returns the survivors' keys, in active-set order, and which
        active agents were liked.
        """
        energy = self.energy[active]
        if tables.boosted:
            both, reposted, kept = tables.outcomes(u, energy, self.link[active] >= 0,
                                                   self.reposts[active])
        else:
            both, reposted, kept = tables.outcomes(u, energy)
        # +2 like and repost, +1 repost, 0 like, -1 neither
        energy += both
        energy += reposted
        energy += kept
        energy -= 1
        self.energy[active] = energy
        liked = (kept ^ reposted) | both
        self.likes[active] += liked
        parents = active[reposted]
        self.reposts[parents] += 1
        alive = energy != 0
        self.death[active[~alive]] = tick
        self.append(self.run[parents], tick, self.link[parents], parents)
        return keys[alive], liked

    def next_active(self, survivors, first_new: int):
        """The keys of the survivors and the agents born since ``first_new``.

        An active agent's key is run << 32 | row: sorted keys group the
        active set by run, ids ascending within a run as in
        run_simulation, because every id is its row and newborns have the
        highest.  The keys are unique, and a stable sort (timsort) merges
        the presorted survivors and newborns in linear time.
        """
        born = self.run[first_new:self.n].astype(np.int64) << 32
        born |= np.arange(first_new, self.n)
        keys = np.concatenate((survivors, born))
        keys.sort(kind="stable")
        return keys

    def by_run(self, censor: np.ndarray, seed: int, n_links: list[int]) -> dict:
        """Columns of a LifeStatsTable chunk, rows ordered by run, then id.

        ``censor`` holds each run's censoring tick and ``n_links`` how many
        links it numbered; run k's links are ``r{seed + k}-l{i}``, and
        their codes count them run after run.  With parents, the columns
        ``birth``, ``death`` (-1 while alive) and ``parent`` (the parent's
        id within the run, -1 for a root) come too.
        """
        n = self.n
        order = np.argsort(self.run[:n], kind="stable")
        run = self.run[:n][order]
        run_lengths = np.bincount(run, minlength=len(censor))
        death = self.death[:n][order]
        birth = self.birth[:n][order]
        alive = death < 0
        # Lifetime ends at death, or at the run's censoring tick.
        lifetime = np.where(alive, censor[run], death)
        lifetime -= birth
        code = self.link[:n][order]
        if any(n_links):
            first = np.cumsum(n_links) - n_links
            code = np.where(code < 0, -1, code + first[run]).astype(np.int32)
        columns = {
            "run_lengths": run_lengths,
            "lifetime": lifetime,
            "censored": alive,
            "total_likes": self.likes[:n][order],
            "total_reposts": self.reposts[:n][order],
            "link_code": code,
            "links": tuple(f"r{seed + k}-l{i}" for k, m in enumerate(n_links) for i in range(m)),
        }
        if "parent" in self._fields:
            # A row's id is its place among its run's rows.
            ident = np.empty(n, dtype=np.int32)
            ident[order] = np.arange(n) - np.repeat(np.cumsum(run_lengths) - run_lengths,
                                                    run_lengths)
            parent = self.parent[:n][order]
            columns.update(birth=birth, death=death,
                           parent=np.where(parent >= 0, ident[parent], -1))
        return columns


class _LikeLog:
    """One bit per agent-step of a chunk: was the step a like.

    A tick's bits follow the order of its active set, grouped by run and
    ascending id within a run, packed least significant bit first from bit
    ``tick_start[tick]`` on; each tick starts on a fresh byte.
    """

    def __init__(self):
        self.bits = bytearray()
        self.tick_start = array("q")

    def add(self, tick: int, liked: np.ndarray) -> None:
        """The outcomes of the agents that stepped at ``tick``, past the last tick added."""
        self.tick_start.extend(repeat(8 * len(self.bits), tick + 1 - len(self.tick_start)))
        self.bits += np.packbits(liked, bitorder="little").tobytes()


def run_simulation(config: SimulationConfig, record_events: bool = True,
                   runs: int = 1) -> SimulationResult:
    """Runs seeded seed, ..., seed+runs-1, stepped together as one chunk.

    Equal configs produce identical results, and each run is the same
    whatever else it is stepped with: it reads its own
    ``random.Random(seed)`` in the protocol's order, per tick the
    self-generation draw, the carrier draw of a root it creates, then one
    draw per stepping agent in ascending id.  The active set is kept
    grouped by run and ascending within a run, so the concatenated draws
    line up with it.  With ``record_events=False`` the parents and like
    bits the event log needs are not kept and the log is empty; the
    statistics are unchanged.  Memory grows with ``runs``: for any number
    of runs, ``run_chunks`` calls this on at most ``CHUNK_RUNS`` at a time.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    params = config.params
    p_s = params.p_s
    carrier_frac = params.link_carrier_fraction
    horizon = config.horizon
    max_agents = config.max_agents
    tables = _StepTables(params)
    rngs = [random.Random(config.seed + r) for r in range(runs)]
    agents = _AgentColumns(max(64 * runs, 1024), params.e0, parents=record_events)
    likes = _LikeLog() if record_events else None

    # Initial agents are run r's tick-0 self-generations, ids 0.. in order,
    # each with its carrier draw: run r's first initial_agents draws.
    n0 = config.initial_agents
    carrier = _uniforms(b"".join(_draw_words(rng, n0) for rng in rngs)) < carrier_frac
    carrier = carrier.reshape(runs, n0)
    next_link = carrier.sum(axis=1).tolist()
    agents.append(np.repeat(np.arange(runs), n0), 0,
                  np.where(carrier, carrier.cumsum(axis=1) - 1, -1).ravel())
    size = np.zeros(runs, dtype=np.int64)
    censor = np.full(runs, horizon, dtype=np.int32)
    running = np.ones(runs, dtype=bool)
    live = list(range(runs))
    if max_agents is not None and n0 > max_agents:
        censor[:] = 1
        running[:] = False
        live = []

    keys = active = np.zeros(0, dtype=np.int64)  # the active set's keys (see next_active), rows
    n_active = [0] * runs
    first_new = 0    # agents from here on were born this tick (tick 0: the initial ones too)
    for tick in range(horizon):
        if not live:
            break
        if len(active) > _MAX_RUN_ACTIVE:  # no run can pass it unless the chunk has
            for r in live:
                if n_active[r] > _MAX_RUN_ACTIVE:
                    raise TooManyAgentsError(
                        f"run with seed {config.seed + r} has {n_active[r]} active agents "
                        f"at tick {tick}, more than the {_MAX_RUN_ACTIVE} one run can step; "
                        f"max_agents is {max_agents}, set it to at most {_MAX_RUN_ACTIVE}")
        root_runs, root_links = array("i"), array("i")
        words: list[bytes] = []
        for r in live:
            rng = rngs[r]
            if rng.random() < p_s:
                carries = rng.random() < carrier_frac
                root_runs.append(r)
                root_links.append(next_link[r] if carries else -1)
                next_link[r] += carries
            if n_active[r]:
                words.append(_draw_words(rng, n_active[r]))
        agents.append(np.frombuffer(root_runs, dtype=np.intc), tick,
                      np.frombuffer(root_links, dtype=np.intc))
        if len(active):
            u = _uniforms(b"".join(words))
            keys, liked = agents.step(keys, active, u, tables, tick)
            if likes is not None:
                likes.add(tick, liked)
        keys = agents.next_active(keys, first_new)

        if max_agents is not None:
            # Runs whose agent count passed the cap end with this tick.
            size += np.bincount(agents.run[first_new:agents.n], minlength=runs)
            over = running & (size > max_agents)
            if over.any():
                censor[over] = tick + 1
                running &= ~over
                keys = keys[running[keys >> 32]]
                stopped = over.tolist()
                live = [r for r in live if not stopped[r]]
        first_new = agents.n
        active = keys & 0xFFFFFFFF
        n_active = np.bincount(keys >> 32, minlength=runs).tolist()
        if p_s == 0.0:
            # Without self-generation a run with no agent left is over.
            live = [r for r in live if n_active[r]]

    # The last tick's active set and draws, and the generators, go before the
    # columns are sorted: at 1,024 calibrated runs they hold about 16 MB.
    keys = active = carrier = words = u = liked = rngs = None
    truncated = ~running
    columns = agents.by_run(censor, config.seed, next_link)
    stats = LifeStatsTable(config.seed, [{name: columns[name] for name in _LIFE_STATS_COLUMNS}])
    truncated_at = [c - 1 if t else None for c, t in zip(censor.tolist(), truncated.tolist())]
    return SimulationResult(stats, EventLog(columns, censor, truncated, likes), truncated_at)


def repost_counts_by_link(stats: LifeStatsTable) -> dict[str, int]:
    """Total reposts per carried link, in the order of each link's first row.

    Agents without links are skipped.  The sums are one ``np.bincount``
    over the link codes, exact in float64 while no sum can pass 2**53,
    otherwise Python ints; a text that two chunks both hold sums over both.
    """
    code = stats.column("link_code")
    linked = code >= 0
    code = code[linked]
    reposts = stats.column("total_reposts")[linked]
    texts = stats.links
    if max(-int(reposts.min(initial=0)), int(reposts.max(initial=0))) * len(code) < 2**53:
        sums = np.bincount(code, weights=reposts, minlength=len(texts)).astype(np.int64).tolist()
    else:
        sums = [0] * len(texts)
        for c, r in zip(code.tolist(), reposts.tolist()):
            sums[c] += r
    used, first = np.unique(code, return_index=True)
    counts: dict[str, int] = {}
    for c in used[np.argsort(first)].tolist():
        counts[texts[c]] = counts.get(texts[c], 0) + sums[c]
    return counts


def events_to_jsonl(events: EventLog, out: BinaryIO, run: int = 0) -> None:
    """Write one JSON object per event to the binary file ``out``.

    Keys are run, tick, kind, agent_id and related_agent_id.  The log's
    k-th run's lines carry ``"run": run + k``, as in the event log
    ``netmon simulate`` writes.  Lines are rendered from the log's columns
    by ``jsonl.render_lines``.
    """
    out.writelines(events._jsonl_blocks(run))


# The kind field's texts by kind code, each with the key of the next field.
_KIND_TEXTS = np.array([f'{quote(kind)}, "agent_id": '.encode("ascii")
                        for kind in EventLog._KIND_NAMES])


def _event_lines(group: list[tuple[np.ndarray, ...]], run: int) -> Iterator[bytes]:
    """The lines of consecutive runs' event columns; the first run is ``run``.

    A line is its run's ``{"run": N, "tick": `` prefix, its tick, its
    kind, its agent id (-1 for the truncation marker) and its related id
    (``null`` for -1).
    """
    tick, kind, agent, related = (np.concatenate(column) for column in zip(*group))
    if not len(tick):
        return
    which = np.repeat(np.arange(len(group)), [len(events[0]) for events in group])
    yield from render_lines((
        (np.array([b'{"run": %d, "tick": ' % (run + k) for k in range(len(group))]), which),
        int_texts(tick, b', "kind": '),
        (_KIND_TEXTS, kind),
        int_texts(agent, b', "related_agent_id": ', [b'-1, "related_agent_id": ']),
        int_texts(related, b"}\n", [b"null}\n"]),
    ))


def life_stats_to_jsonl(stats: LifeStatsTable, out: BinaryIO) -> None:
    """Write one JSON object per agent to the binary file ``out``.

    Keys come in AgentLifeStats field order.  Lines are rendered from the
    table's columns by ``jsonl.render_lines``; a negative count or
    lifetime, which a table read back can hold, is a ``ValueError``.
    """
    out.writelines(_life_stats_lines(stats))


# The text before each value of a life_stats_to_jsonl line, one per
# AgentLifeStats field in order: '{"agent_id": ', ', "lifetime": ', and so on.
# The writer's tables and the reader's pattern and offsets are built from it.
_LIFE_STATS_KEYS = tuple(b'%s"%s": ' % (b", " if i else b"{", name.encode())
                         for i, name in enumerate(AgentLifeStats._fields))
_CENSORED_TEXTS = np.array([b"false" + _LIFE_STATS_KEYS[3], b"true" + _LIFE_STATS_KEYS[3]])
# The count fields, the lifetime included: int64 columns in a table read
# back, rendered by int_texts, which takes no value below -1.
_COUNT_FIELDS = ("lifetime", "total_likes", "total_reposts")


def _life_stats_lines(stats: LifeStatsTable) -> Iterator[bytes]:
    """The lines of a table's columns, chunk by chunk.

    The link field is picked from the chunk's link texts, each quoted and
    ending the line, and ``null}`` for code -1.
    """
    keys = _LIFE_STATS_KEYS
    for chunk in stats._chunks:
        for name in _COUNT_FIELDS:
            if chunk[name].min(initial=0) < 0:
                raise ValueError(f"{name} {chunk[name].min()} is below 0, which the "
                                 f"writer does not render")
        lengths = chunk["run_lengths"]
        # Each row's id within its run.
        ident = np.arange(len(chunk["lifetime"]), dtype=np.int32)
        ident -= np.repeat((np.cumsum(lengths) - lengths).astype(np.int32), lengths)
        links = [quote(text).encode("ascii") + b"}\n" for text in chunk["links"]]
        yield from render_lines((
            int_texts(ident, keys[1], prefix=keys[0]),
            int_texts(chunk["lifetime"], keys[2]),
            (_CENSORED_TEXTS, chunk["censored"].view(np.uint8)),
            int_texts(chunk["total_likes"], keys[4]),
            int_texts(chunk["total_reposts"], keys[5]),
            (np.array(links + [b"null}\n"]), chunk["link_code"]),
        ))


# One or more life_stats_to_jsonl lines, each ended by "\n", with every value
# a JSON integer below 10**18, a boolean, null or a string of printable ASCII
# without quote or backslash.  The fields that this table leaves out are the
# integers.  The quantifiers are possessive: what follows a run of digits,
# link characters or lines cannot start another, so giving one back never
# makes a match, and the matcher keeps no state to try it (a fifth less time).
_LIFE_STATS_VALUES = {"censored": "(?:true|false)", "carried_link": r'(?:null|"[ !#-\[\]-~]*+")'}
_LIFE_STATS_LINES = re.compile("(?:%s\\}\n)++" % "".join(
    re.escape(key.decode()) + _LIFE_STATS_VALUES.get(name, "(?:0|[1-9][0-9]{0,17}+)")
    for name, key in zip(AgentLifeStats._fields, _LIFE_STATS_KEYS)))

# Characters of text that life_stats_from_jsonl parses at once, rounded up to
# a whole line: bounds what a read holds beyond its table, the matcher's
# backtracking state included.
_READ_BLOCK_CHARS = 1 << 18

# Where _ReadColumns.add_block finds a line's values, from the colon of each
# key's '": ': the colon's index within its key; the indices of the integer
# fields, and of the flag; and how far before the next key's colon each
# integer ends.  The link is the last field.
_KEY_COLONS = [len(key) - 2 for key in _LIFE_STATS_KEYS]
_INT_FIELDS = np.array([i for i, name in enumerate(AgentLifeStats._fields)
                        if name not in _LIFE_STATS_VALUES])
_CENSORED_FIELD = AgentLifeStats._fields.index("censored")
_INT_ENDS = np.array(_KEY_COLONS[1:])[_INT_FIELDS]

# The length of the shortest template line, of one-digit integers, true and
# an empty link: a text holds at most len(text) // _MIN_LINE_CHARS of them.
_MIN_LINE_CHARS = sum(map(len, _LIFE_STATS_KEYS)) + 4 + len("true") + len('""}\n')

# Why a line's value cannot go in a table read back, by field.
_REFUSALS = {
    "agent_id": "is neither 0, which starts a run, nor one past the agent_id before it",
    "lifetime": "is not a JSON integer within int64",
    "censored": "is not a JSON boolean",
    "total_likes": "is not a JSON integer within int64",
    "total_reposts": "is not a JSON integer within int64",
    "carried_link": "is neither a JSON string nor null",
}


def life_stats_from_jsonl(text: str) -> LifeStatsTable:
    """The table of ``life_stats_to_jsonl`` text, as one chunk; blank lines are skipped.

    Lines decode, and fail with ``json.JSONDecodeError``, exactly as
    ``json.loads`` has them; a value that is not an object fails the
    same way.  A run starts wherever ``agent_id`` is 0.  A line that
    lacks a key other than ``carried_link`` (None) or holds a value the
    table cannot hold exactly is a ``ValueError`` that names it: a
    missing key, an ``agent_id`` that is neither 0 nor one past the one
    before it, a lifetime or count that is not a JSON integer within
    int64, a ``censored`` that is not a boolean, or a link that is
    neither a string nor null.  Integer columns are int64, and links are
    coded in the order of their first line.  The table holds no seed.

    The text is scanned in blocks of whole lines, each about
    ``_READ_BLOCK_CHARS`` characters.  A block whose every line fills the
    writer's template with values ``_LIFE_STATS_LINES`` admits is parsed
    from its ASCII bytes by numpy (``_ReadColumns.add_block``): such a
    line holds no blank line, nor any other character ``splitlines``
    splits on, and ``json.loads`` decodes it to exactly the parsed
    values.  The columns are allocated once, for as many lines as the
    text has room for (``_MIN_LINE_CHARS`` each), and cut to the rows
    read in place, so a read holds its table, one block's bytes and
    columns, a flag per row and one dict entry per distinct link.  If
    any block is not such text, the whole text is decoded line by line
    into columns allocated anew, one row per line.
    """
    read = _ReadColumns(len(text) // _MIN_LINE_CHARS)
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + _READ_BLOCK_CHARS - 1) + 1 or len(text)
        if not _LIFE_STATS_LINES.fullmatch(text, lo, hi):
            break
        read.add_block(text[lo:hi])
        lo = hi
    else:
        return read.table()
    del read
    lines = text.splitlines()
    read = _ReadColumns(len(lines))
    read.add_lines(lines)
    return read.table()


class _ReadColumns:
    """The columns ``life_stats_from_jsonl`` fills, for up to ``n`` rows, in order."""

    def __init__(self, n: int):
        self.n = 0
        self.columns = {name: np.empty(n, dtype=np.int64) for name in _COUNT_FIELDS}
        self.columns.update(censored=np.empty(n, dtype=bool), link_code=np.empty(n, dtype=np.int32))
        self.run_start = np.empty(n, dtype=bool)
        self.last_id = -1
        self.links: dict[str, int] = {}  # each text's code

    def table(self) -> LifeStatsTable:
        """The rows filled, as one chunk; the columns are cut to them in place."""
        n = self.n
        for column in self.columns.values():
            column.resize(n, refcheck=False)  # nothing else refers to it
        return LifeStatsTable(None, [{
            "run_lengths": np.diff(np.flatnonzero(self.run_start[:n]), append=n),
            **self.columns,
            "links": tuple(self.links),
        }])

    def add_lines(self, lines: list[str]) -> None:
        """The values of every non-blank line, decoded as ``json.loads`` has it."""
        # Memoryviews take an item in less time than the arrays do.
        columns = self.columns
        run_start, lifetime_column, likes_column, reposts_column, censored_column, code = map(
            memoryview, (self.run_start, *(columns[name] for name in (
                *_COUNT_FIELDS, "censored", "link_code"))))
        links = self.links
        row, last_id = self.n, self.last_id
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            d = decode_line(line)
            if type(d) is not dict:
                raise json.JSONDecodeError("Expecting a JSON object", line, 0)
            agent_id, lifetime, censored, likes, reposts, link = (
                d.get("agent_id"), d.get("lifetime"), d.get("censored"), d.get("total_likes"),
                d.get("total_reposts"), d.get("carried_link"))
            if not (type(agent_id) is int and (agent_id == 0 or agent_id == last_id + 1)
                    and type(lifetime) is int and -2**63 <= lifetime < 2**63
                    and type(censored) is bool
                    and type(likes) is int and -2**63 <= likes < 2**63
                    and type(reposts) is int and -2**63 <= reposts < 2**63
                    and (link is None or type(link) is str)):
                self._refuse(number, last_id, d)
            run_start[row] = agent_id == 0
            last_id = agent_id
            lifetime_column[row] = lifetime
            likes_column[row] = likes
            reposts_column[row] = reposts
            censored_column[row] = censored
            code[row] = -1 if link is None else links.setdefault(link, len(links))
            row += 1
        self.n, self.last_id = row, last_id

    @staticmethod
    def _refuse(number: int, last_id: int, d: dict) -> None:
        """The ``ValueError`` of line ``number``, whose value is ``d``, for its first bad field."""
        for name in AgentLifeStats._fields:
            if name not in d and name != "carried_link":
                raise ValueError(f"line {number}: {name} is missing")
            value = d.get(name)
            if name == "agent_id":
                held = type(value) is int and value in (0, last_id + 1)
            elif name == "censored":
                held = type(value) is bool
            elif name == "carried_link":
                held = value is None or type(value) is str
            else:
                held = type(value) is int and -2**63 <= value < 2**63
            if not held:
                raise ValueError(f"line {number}: {name} {value!r} {_REFUSALS[name]}")

    def add_block(self, block: str) -> None:
        """The rows of template lines, located by their ``": "`` separators.

        Each integer field is read digit by digit into int64, most
        significant place first, from the places that end at its value's
        end: a place before the value reads its leading space, which
        ``& 15`` makes 0.  At most 18 digits, so the sums are exact.
        Links are told apart by numpy, so only the block's distinct links
        are sliced and looked up in ``links``.
        """
        chars = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
        colon = np.flatnonzero(chars == ord(":"))
        # A '":' ends each of a line's keys.  A link holds no '"', and a link
        # that starts with ':' makes the only other '":', whose quote follows a
        # space.
        colon = colon[(chars[colon - 1] == ord('"')) & (chars[colon - 2] != ord(" "))]
        colon = colon.reshape(-1, len(_LIFE_STATS_KEYS))
        # Per integer field and line: where its value ends, and the space before it.
        end = (colon[:, _INT_FIELDS + 1] - _INT_ENDS).T
        space = (colon[:, _INT_FIELDS] + 1).T
        values = np.zeros(end.shape, dtype=np.int64)
        for back in range(int((end - space).max()) - 1, 0, -1):
            values *= 10
            values += chars[np.maximum(end - back, space)] & 15
        lo, hi = self.n, self.n + len(colon)
        ids = values[0]
        after = np.append(self.last_id, ids[:-1]) + 1
        bad = (ids != 0) & (ids != after)
        if bad.any():
            at = int(bad.argmax())
            raise ValueError(
                f"line {lo + at + 1}: agent_id {int(ids[at])} {_REFUSALS['agent_id']}")
        self.run_start[lo:hi] = ids == 0
        self.last_id = int(ids[-1])
        columns = self.columns
        for name, column in zip(_COUNT_FIELDS, values[1:]):
            columns[name][lo:hi] = column
        # A value starts two past its key's colon, after ': '.
        columns["censored"][lo:hi] = chars[colon[:, _CENSORED_FIELD] + 2] == ord("t")

        code = columns["link_code"][lo:hi]
        start = colon[:, -1] + 3
        linked = chars[start - 1] == ord('"')
        code[~linked] = -1
        if linked.any():
            # A link ends '"}\n', and the next line starts with its first key.
            stop = np.append(colon[1:, 0] - _KEY_COLONS[0], len(chars)) - len('"}\n')
            stop = stop[linked]
            start = start[linked]
            # Each link padded with the quote that follows it, to compare them.
            span = int((stop - start).max()) + 1
            padded = chars[np.minimum(start[:, None] + np.arange(span), stop[:, None])]
            padded = padded.view(f"S{span}").ravel()
            # Each distinct link is sliced and coded once, in order of first line.
            _, first, distinct = np.unique(padded, return_index=True, return_inverse=True)
            order = np.argsort(first)
            first = first[order]
            links = self.links
            codes = np.empty(len(first), dtype=np.int32)
            codes[order] = [links.setdefault(t, len(links)) for t in map(
                block.__getitem__, map(slice, start[first].tolist(), stop[first].tolist()))]
            code[linked] = codes[distinct]
        self.n = hi


# Default configuration, calibrated once: pooled repost counts of the
# completed agents over 10^4 replications fit Weibull shape k = 1.84,
# scale 3.83 (see tests/test_acceptance.py).  Strong negative energy
# drift with a high starting energy concentrates lifetimes, which is
# what pushes the count shape parameter near 1.9.
CALIBRATED_P_S = 0.0
CALIBRATED_E0 = 28
CALIBRATED_P_LIKE = 0.20
CALIBRATED_P_REPOST = 0.10
CALIBRATED_HORIZON = 65
CALIBRATED_SEED = 20160501


def calibrated_default_config(seed: int = CALIBRATED_SEED) -> SimulationConfig:
    """The shipped default simulation configuration."""
    return SimulationConfig(
        params=BehaviorParams.constant(
            p_s=CALIBRATED_P_S,
            e0=CALIBRATED_E0,
            p_like=CALIBRATED_P_LIKE,
            p_repost=CALIBRATED_P_REPOST,
        ),
        horizon=CALIBRATED_HORIZON,
        seed=seed,
        max_agents=None,
        initial_agents=1,
    )
