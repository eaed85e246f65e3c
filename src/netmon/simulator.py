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

Two engines follow this protocol.  ``run_simulation`` steps one run agent
by agent in Python and records the event log; it is the single-run path
and the reference the other engine is tested against.  ``replicate``
steps all runs of a chunk together with numpy: agent state lives in
int32 columns, step thresholds come from per-energy tables, and
outcomes, deaths and spawns are vector operations over the concatenated
active set.  Each run still owns its ``random.Random(seed + k)`` and
reads it in the order above, so the pooled statistics equal, row for
row, those of the runs done one at a time; numpy's own generators are
never used.  It returns a :class:`LifeStatsTable` of column arrays whose
iterator makes the :class:`AgentLifeStats` rows.  A single run stays on
the scalar loop because the batched engine's fixed per-tick cost does
not pay off for one small run: 300 short runs of the A4 shape took
about 0.8 s as one-run batches against 0.09 s scalar (2-CPU Xeon,
Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .diffusion import AgentState, BehaviorParams, _clamp01, effective_repost_prob
from .jsonl import decode_line, quote

__all__ = [
    "SimulationConfig",
    "EventRecord",
    "AgentLifeStats",
    "SimulationResult",
    "LifeStatsTable",
    "EVENT_SELF_GENERATE",
    "EVENT_REPOST",
    "EVENT_LIKE",
    "EVENT_DEATH",
    "EVENT_TRUNCATED",
    "run_simulation",
    "replicate",
    "repost_counts_by_link",
    "events_to_jsonl",
    "events_from_jsonl",
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
        if self.initial_agents < 1:
            raise ValueError(f"initial_agents must be >= 1, got {self.initial_agents}")
        if self.max_agents is not None and self.max_agents < 1:
            raise ValueError(f"max_agents must be >= 1, got {self.max_agents}")


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
    events: list[EventRecord]
    agents: list[AgentState]
    stats: list[AgentLifeStats]
    truncated: bool = False
    truncated_at: Optional[int] = None


def run_simulation(config: SimulationConfig, record_events: bool = True) -> SimulationResult:
    """Run one simulation; equal configs produce identical results.

    With ``record_events=False`` the event log is skipped (the random
    stream and all statistics are unchanged); replication harnesses use
    this to keep memory flat.
    """
    params = config.params
    rng = random.Random(config.seed)
    rand = rng.random
    e0 = params.e0
    p_s = params.p_s
    carrier_frac = params.link_carrier_fraction
    gamma_active = params.rich_get_richer_gamma > 0.0

    # Per-agent parallel arrays indexed by id (assigned in creation order).
    birth: list[int] = []
    energy: list[int] = []
    parent: list[Optional[int]] = []
    likes: list[int] = []
    reposts: list[int] = []
    link: list[Optional[str]] = []
    death_tick: list[Optional[int]] = []

    events: list[EventRecord] = []
    link_counter = 0
    seed_tag = f"r{config.seed}"

    def spawn_root(tick: int) -> int:
        # Self-generated message: fresh id, maybe carrying a new link.
        nonlocal link_counter
        aid = len(birth)
        carries = rand() < carrier_frac
        if carries:
            ref: Optional[str] = f"{seed_tag}-l{link_counter}"
            link_counter += 1
        else:
            ref = None
        birth.append(tick)
        energy.append(e0)
        parent.append(None)
        likes.append(0)
        reposts.append(0)
        link.append(ref)
        death_tick.append(None)
        return aid

    def spawn_child(tick: int, parent_id: int) -> int:
        aid = len(birth)
        birth.append(tick)
        energy.append(e0)
        parent.append(parent_id)
        likes.append(0)
        reposts.append(0)
        link.append(link[parent_id])
        death_tick.append(None)
        return aid

    # Cumulative step thresholds cached per (energy, link?, tally) key;
    # the repost tally only matters once the preferential term is on.
    threshold_cache: dict[tuple, tuple[float, float, float]] = {}

    def thresholds(e: int, has_link: bool, n_reposts: int) -> tuple[float, float, float]:
        key = (e, has_link, n_reposts if (gamma_active and has_link) else 0)
        cached = threshold_cache.get(key)
        if cached is not None:
            return cached
        p_like = params.like_prob(e)
        p_like = 0.0 if p_like < 0.0 else 1.0 if p_like > 1.0 else p_like
        p_repost = effective_repost_prob(e, params, has_link, n_reposts)
        c2 = p_like * p_repost
        c21 = c2 + (1.0 - p_like) * p_repost
        c210 = c21 + p_like * (1.0 - p_repost)
        out = (c2, c21, c210)
        threshold_cache[key] = out
        return out

    active: list[int] = []       # stepping this tick, ascending ids
    pending: list[int] = []      # born this tick, step from the next one
    truncated = False
    truncated_at: Optional[int] = None

    # Initial agents are the tick-0 self-generations; tick 0 still takes
    # its own Bernoulli(p_s) draw afterwards like every other tick.
    for _ in range(config.initial_agents):
        aid = spawn_root(0)
        pending.append(aid)
        if record_events:
            events.append(EventRecord(0, EVENT_SELF_GENERATE, aid))
    if config.max_agents is not None and len(birth) > config.max_agents:
        truncated = True
        truncated_at = 0
        if record_events:
            events.append(EventRecord(0, EVENT_TRUNCATED, -1))

    for tick in range(config.horizon):
        if truncated:
            break
        if rand() < p_s:
            aid = spawn_root(tick)
            pending.append(aid)
            if record_events:
                events.append(EventRecord(tick, EVENT_SELF_GENERATE, aid))

        survivors: list[int] = []
        for aid in active:
            e = energy[aid]
            c2, c21, c210 = thresholds(e, link[aid] is not None, reposts[aid])
            u = rand()
            if u < c2:       # like + repost
                likes[aid] += 1
                child = spawn_child(tick, aid)
                reposts[aid] += 1
                pending.append(child)
                if record_events:
                    events.append(EventRecord(tick, EVENT_LIKE, aid))
                    events.append(EventRecord(tick, EVENT_REPOST, aid, child))
                energy[aid] = e + 2
                survivors.append(aid)
            elif u < c21:    # repost only
                child = spawn_child(tick, aid)
                reposts[aid] += 1
                pending.append(child)
                if record_events:
                    events.append(EventRecord(tick, EVENT_REPOST, aid, child))
                energy[aid] = e + 1
                survivors.append(aid)
            elif u < c210:   # like only, energy unchanged
                likes[aid] += 1
                if record_events:
                    events.append(EventRecord(tick, EVENT_LIKE, aid))
                survivors.append(aid)
            else:            # neither: decay, possibly death
                e -= 1
                energy[aid] = e
                if e == 0:
                    death_tick[aid] = tick
                    if record_events:
                        events.append(EventRecord(tick, EVENT_DEATH, aid))
                else:
                    survivors.append(aid)

        # Newborn ids all exceed surviving ids, so order stays ascending.
        survivors.extend(pending)
        active = survivors
        pending = []
        if not active and p_s == 0.0:
            # No agent is left and none can appear: nothing changes any more.
            break

        if config.max_agents is not None and len(birth) > config.max_agents:
            truncated = True
            truncated_at = tick
            if record_events:
                events.append(EventRecord(tick, EVENT_TRUNCATED, -1))

    # Censoring point: end of the horizon, or end of the truncated tick.
    censor_tick = (truncated_at + 1) if truncated else config.horizon

    agents: list[AgentState] = []
    stats: list[AgentLifeStats] = []
    for aid in range(len(birth)):
        dead = death_tick[aid] is not None
        n_rep = reposts[aid]
        agents.append(
            AgentState(
                id=aid,
                birth_tick=birth[aid],
                energy=energy[aid],
                parent_id=parent[aid],
                likes_received=likes[aid],
                reposts_spawned=n_rep,
                authority=n_rep,
                link_ref=link[aid],
                alive=not dead,
            )
        )
        lifetime = (death_tick[aid] - birth[aid]) if dead else (censor_tick - birth[aid])
        stats.append(
            AgentLifeStats(
                agent_id=aid,
                lifetime=lifetime,
                censored=not dead,
                total_likes=likes[aid],
                total_reposts=n_rep,
                carried_link=link[aid],
            )
        )

    return SimulationResult(
        events=events,
        agents=agents,
        stats=stats,
        truncated=truncated,
        truncated_at=truncated_at,
    )


def replicate(config: SimulationConfig, n_runs: int) -> LifeStatsTable:
    """Pool life statistics over runs seeded seed, seed+1, ..., seed+n-1.

    Row for row equal to concatenating the ``run_simulation(...).stats``
    of those seeds, but the runs step together in chunks (see
    ``_run_chunk``).
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    tables = _StepTables(config.params, config.params.e0 + 2 * config.horizon)
    parts = []
    for first in range(0, n_runs, _CHUNK_RUNS):
        # The chunk's work arrays are gone before its results are made,
        # so the results can take their place in the heap.
        agents, censor = _run_chunk(config, tables, config.seed + first,
                                    min(_CHUNK_RUNS, n_runs - first))
        parts.append(agents.life_stats(censor))
    return LifeStatsTable(config.seed, parts)


# Builds an AgentLifeStats from a tuple of its fields at C speed, skipping
# the keyword handling of the generated __new__.
_make_row = partial(tuple.__new__, AgentLifeStats)

# Runs stepped together by replicate; bounds the generators, draw buffers
# and agent columns held at once, whatever the number of runs.
_CHUNK_RUNS = 1024


class LifeStatsTable:
    """Pooled life statistics of replicated runs, one array per field.

    Rows are ordered by run, then by agent id.  The table is held as the
    chunks replicate stepped, consecutive seed ranges with one array per
    column: ``run_lengths`` (agents of each run), ``lifetime``,
    ``censored``, ``total_likes``, ``total_reposts`` and ``link_index``;
    ``column`` joins one across chunks.  ``link_index`` is -1 for agents
    without a link, otherwise the carried link is
    ``f"r{seed + run}-l{link_index}"``, the label ``run_simulation`` uses.
    Iterating yields :class:`AgentLifeStats` rows, made on the fly.
    """

    # Rows converted to Python objects per step of the iterator.
    _ROW_BLOCK = 4096

    def __init__(self, seed: int, chunks: list[dict[str, np.ndarray]]):
        self.seed = seed
        self._chunks = chunks

    def __len__(self) -> int:
        return sum(len(chunk["lifetime"]) for chunk in self._chunks)

    def column(self, name: str) -> np.ndarray:
        """One field of every row (every run, for ``run_lengths``)."""
        return np.concatenate([chunk[name] for chunk in self._chunks])

    def __iter__(self) -> Iterator[AgentLifeStats]:
        # Rows pass through C-level iterators only; a generator per row
        # would cost more than making the row.
        return chain.from_iterable(self._row_blocks())

    def _row_blocks(self) -> Iterator[Iterator[AgentLifeStats]]:
        # Index arrays always span a full block, so that their sizes do
        # not vary from call to call (see _Scratch); the rows past the end
        # are cut off after conversion.
        span = np.arange(self._ROW_BLOCK)
        first_seed = self.seed
        for chunk in self._chunks:
            run_lengths = chunk["run_lengths"]
            run_ends = np.cumsum(run_lengths)
            n = len(chunk["lifetime"])
            any_links = n > 0 and chunk["link_index"].max() >= 0
            for lo in range(0, n, self._ROW_BLOCK):
                rows = span + lo
                run = np.searchsorted(run_ends, rows, side="right")
                np.minimum(run, len(run_lengths) - 1, out=run)
                agent_id = rows - (run_ends[run] - run_lengths[run])
                block = slice(lo, lo + self._ROW_BLOCK)
                k = min(self._ROW_BLOCK, n - lo)
                links = [
                    None if i < 0 else f"r{first_seed + r}-l{i}"
                    for r, i in zip(run[:k].tolist(), chunk["link_index"][block].tolist())
                ] if any_links else repeat(None)
                yield map(_make_row, zip(
                    agent_id[:k].tolist(),
                    chunk["lifetime"][block].tolist(),
                    chunk["censored"][block].tolist(),
                    chunk["total_likes"][block].tolist(),
                    chunk["total_reposts"][block].tolist(),
                    links,
                ))
            first_seed += len(run_lengths)


def _cumulative_thresholds(p_like, p_repost, c2, c21, c210, tmp) -> None:
    """Step thresholds into c2, c21, c210 in run_simulation's order.

    c2 = p_like * p_repost, c21 = c2 + (1 - p_like) * p_repost and
    c210 = c21 + p_like * (1 - p_repost); ``tmp`` is scratch space.
    """
    np.multiply(p_like, p_repost, out=c2)
    np.subtract(1.0, p_like, out=tmp)
    tmp *= p_repost
    np.add(c2, tmp, out=c21)
    np.subtract(1.0, p_repost, out=tmp)
    tmp *= p_like
    np.add(c21, tmp, out=c210)


class _Scratch:
    """Work arrays reused from tick to tick, grown by doubling.

    numpy keeps freed blocks under 1 KiB in a cache per block size, so
    fresh arrays of every small size a tick may need would pin megabytes
    there over many calls; views of these buffers allocate nothing.
    """

    _MIN_SIZE = 1024

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def __call__(self, name: str, n: int, dtype=np.int64) -> np.ndarray:
        """The first n entries of the buffer called ``name``."""
        buf = self._buffers.get(name)
        if buf is None or len(buf) < n:
            buf = self._buffers[name] = np.empty(self._capacity(buf, n), dtype)
        return buf[:n]

    def arange(self, n: int) -> np.ndarray:
        """0, 1, ..., n-1."""
        buf = self._buffers.get("arange")
        if buf is None or len(buf) < n:
            buf = self._buffers["arange"] = np.arange(self._capacity(buf, n))
        return buf[:n]

    def _capacity(self, buf: Optional[np.ndarray], n: int) -> int:
        return max(n, self._MIN_SIZE, 0 if buf is None else 2 * len(buf))


class _StepTables:
    """Per-energy step probabilities and thresholds of one config.

    Index e holds energy e, for 1 <= e <= ``top``.  The tables start
    empty and ``cover`` grows them, by doubling, as ticks pass: an agent
    gains at most 2 per tick, so energies stay within e0 + 2 * (tick + 1)
    and one check per tick keeps every lookup inside them.  Growth stops
    at ``max_energy``, the bound over the whole horizon.  Under a link
    boost or rich-get-richer term, thresholds are computed per agent from
    the same clamped base probabilities.
    """

    def __init__(self, params: BehaviorParams, max_energy: int):
        self.params = params
        self.max_energy = max_energy
        self.top = 0
        self.p_like = self.p_repost = self.c2 = self.c21 = self.c210 = np.zeros(1)
        self.link_boost = params.link_boost
        self.gamma = params.rich_get_richer_gamma
        # With boost 1 and gamma 0 the linked formula reduces to the base one.
        self.boosted = self.link_boost != 1.0 or self.gamma != 0.0

    def cover(self, energy: int) -> None:
        """Grow the tables, if needed, to hold every energy up to ``energy``."""
        if energy <= self.top:
            return
        params = self.params
        top = min(max(energy, 2 * self.top), self.max_energy)
        energies = range(self.top + 1, top + 1)
        p_like = np.array([_clamp01(params.like_prob(e)) for e in energies])
        p_repost = np.array([effective_repost_prob(e, params) for e in energies])
        c2, c21, c210, tmp = np.empty((4, len(energies)))
        _cumulative_thresholds(p_like, p_repost, c2, c21, c210, tmp)
        for name, new in (("p_like", p_like), ("p_repost", p_repost),
                          ("c2", c2), ("c21", c21), ("c210", c210)):
            setattr(self, name, np.concatenate((getattr(self, name), new)))
        self.top = top

    def outcomes(self, u, energy, scratch: _Scratch, linked=None, reposts=None):
        """Masks u < c2, u < c21 and u < c210 against each agent's thresholds.

        ``linked`` marks the link carriers and ``reposts`` holds the
        repost tallies; both are needed only when ``boosted``.
        """
        n = len(energy)
        names = ("both", "reposted", "kept")
        if linked is None:
            c = scratch("threshold", n, np.float64)
            masks = []
            for name, table in zip(names, (self.c2, self.c21, self.c210)):
                table.take(energy, out=c, mode="clip")
                masks.append(np.less(u, c, out=scratch(name, n, np.bool_)))
            return masks
        p_like = self.p_like.take(energy, out=scratch("p_like", n, np.float64), mode="clip")
        p_repost = self.p_repost.take(energy, out=scratch("p_repost", n, np.float64),
                                      mode="clip")
        # link_boost * p * (1 + gamma * n), clamped, as in effective_repost_prob
        boosted = np.multiply(p_repost, self.link_boost, out=scratch("boosted", n, np.float64))
        factor = np.multiply(reposts, self.gamma, out=scratch("factor", n, np.float64))
        factor += 1.0
        boosted *= factor
        np.clip(boosted, 0.0, 1.0, out=boosted)
        np.copyto(p_repost, boosted, where=linked)
        thresholds = [scratch(f"c{i}", n, np.float64) for i in range(3)]
        _cumulative_thresholds(p_like, p_repost, *thresholds, tmp=factor)
        return [np.less(u, c, out=scratch(name, n, np.bool_))
                for name, c in zip(names, thresholds)]


def _draw_words(rng: random.Random, n: int) -> bytes:
    """The 32-bit outputs behind the next n ``rng.random()`` calls.

    ``getrandbits`` fills its result from the least significant 32-bit
    word up, one generator output per word, so little-endian bytes list
    the outputs in the order they were drawn.
    """
    return rng.getrandbits(n << 6).to_bytes(n << 3, "little")


def _uniforms(words: bytes, scratch: _Scratch) -> np.ndarray:
    """The floats ``random.Random.random`` makes from these outputs.

    ``random()`` turns two consecutive 32-bit outputs a, b into
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53; each step is exact in float64.
    """
    w = np.frombuffer(words, dtype="<u4")
    n = len(w) // 2
    bits = np.right_shift(w[0::2], 5, out=scratch("bits", n, np.uint32))
    u = np.multiply(bits, 67108864.0, out=scratch("u", n, np.float64))
    np.right_shift(w[1::2], 6, out=bits)
    u += bits
    u *= 1.0 / 9007199254740992.0
    return u


class _AgentColumns:
    """Growable per-agent state of one chunk of runs, in creation order."""

    _FIELDS = ("run", "birth", "energy", "likes", "reposts", "death", "link")

    def __init__(self, capacity: int, e0: int):
        self.n = 0
        self.e0 = e0
        for name in self._FIELDS:
            setattr(self, name, np.empty(capacity, dtype=np.int32))

    def append(self, run, tick: int, link) -> None:
        """Add agents born at ``tick`` to the given runs, with these links."""
        lo, hi = self.n, self.n + len(run)
        if hi > len(self.run):
            capacity = max(hi, 2 * len(self.run))
            for name in self._FIELDS:
                grown = np.empty(capacity, dtype=np.int32)
                grown[:lo] = getattr(self, name)[:lo]
                setattr(self, name, grown)
        self.run[lo:hi] = run
        self.birth[lo:hi] = tick
        self.energy[lo:hi] = self.e0
        self.likes[lo:hi] = 0
        self.reposts[lo:hi] = 0
        self.death[lo:hi] = -1
        self.link[lo:hi] = link
        self.n = hi

    def _gather(self, column: np.ndarray, rows: np.ndarray, scratch: _Scratch,
                name: str = "gather") -> np.ndarray:
        return column.take(rows, out=scratch(name, len(rows), np.int32), mode="clip")

    def step(self, active, active_run, u, tables: _StepTables, tick: int, scratch: _Scratch):
        """One energy step of each active agent, children appended.

        Returns the survivors and their runs, in active-set order.
        """
        n = len(active)
        energy = self._gather(self.energy, active, scratch, "energy")
        if tables.boosted:
            link = self._gather(self.link, active, scratch)
            linked = np.greater_equal(link, 0, out=scratch("linked", n, np.bool_))
            reposts = self._gather(self.reposts, active, scratch)
            both, reposted, kept = tables.outcomes(u, energy, scratch, linked, reposts)
        else:
            both, reposted, kept = tables.outcomes(u, energy, scratch)
        # +2 like and repost, +1 repost, 0 like, -1 neither
        energy += both
        energy += reposted
        energy += kept
        energy -= 1
        self.energy[active] = energy
        liked = np.bitwise_xor(kept, reposted, out=scratch("liked", n, np.bool_))
        liked |= both
        likes = self._gather(self.likes, active, scratch)
        likes += liked
        self.likes[active] = likes

        parents = active.compress(reposted, out=scratch("parents", np.count_nonzero(reposted)))
        reposts = self._gather(self.reposts, parents, scratch)
        reposts += 1
        self.reposts[parents] = reposts
        died = np.equal(energy, 0, out=scratch("died", n, np.bool_))
        self.death[active.compress(died, out=scratch("dead", np.count_nonzero(died)))] = tick
        alive = np.logical_not(died, out=died)
        n_alive = np.count_nonzero(alive)
        survivors = active.compress(alive, out=scratch("survivors", n_alive))
        survivor_runs = active_run.compress(alive, out=scratch("survivor_runs", n_alive))
        self.append(self._gather(self.run, parents, scratch, "child_run"), tick,
                    self._gather(self.link, parents, scratch, "child_link"))
        return survivors, survivor_runs

    def next_active(self, survivors, survivor_runs, first_new: int, scratch: _Scratch):
        """Survivors and the agents born since ``first_new``, grouped by run.

        Within a run ids ascend, as in run_simulation, because every id
        is its index and newborns have the highest.  Sorting the keys
        run << 32 | index does both; the keys are unique, and a stable
        sort (timsort) handles the two presorted stretches in linear time.
        """
        n_old, n_new = len(survivors), self.n - first_new
        key = scratch("key", n_old + n_new)
        key[:n_old] = survivor_runs
        key[n_old:] = self.run[first_new:self.n]
        key <<= 32
        np.bitwise_or(key[:n_old], survivors, out=key[:n_old])
        newborns = np.add(scratch.arange(n_new), first_new, out=scratch("newborns", n_new))
        np.bitwise_or(key[n_old:], newborns, out=key[n_old:])
        key.sort(kind="stable")
        active = np.bitwise_and(key, 0xFFFFFFFF, out=scratch("active", len(key)))
        active_run = np.right_shift(key, 32, out=scratch("active_run", len(key)))
        return active, active_run

    def life_stats(self, censor: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a LifeStatsTable, rows ordered by run, then id.

        ``censor`` holds each run's censoring tick.
        """
        n = self.n
        order = np.argsort(self.run[:n], kind="stable")
        run = self.run[:n][order]
        death = self.death[:n][order]
        alive = death < 0
        # Lifetime ends at death, or at the run's censoring tick.
        lifetime = np.where(alive, censor[run], death)
        lifetime -= self.birth[:n][order]
        return {
            "run_lengths": np.bincount(run, minlength=len(censor)),
            "lifetime": lifetime,
            "censored": alive,
            "total_likes": self.likes[:n][order],
            "total_reposts": self.reposts[:n][order],
            "link_index": self.link[:n][order],
        }


def _run_chunk(config: SimulationConfig, tables: _StepTables, first_seed: int,
               n_runs: int) -> tuple[_AgentColumns, np.ndarray]:
    """Runs seeded first_seed.. stepped together under the tick protocol.

    Each run reads its own ``random.Random(seed)`` exactly as
    ``run_simulation`` does: per tick the self-generation draw, the
    carrier draw of a root it creates, then one draw per stepping agent
    in ascending id.  The active set is kept grouped by run and ascending
    within a run, so the concatenated draws line up with it.
    """
    params = config.params
    p_s = params.p_s
    carrier_frac = params.link_carrier_fraction
    horizon = config.horizon
    max_agents = config.max_agents
    rngs = [random.Random(first_seed + r) for r in range(n_runs)]
    next_link = [0] * n_runs
    agents = _AgentColumns(max(64 * n_runs, 1024), params.e0)
    scratch = _Scratch()

    def carrier_draw(r: int) -> int:
        """Link index of a new root of run r, or -1."""
        if rngs[r].random() < carrier_frac:
            next_link[r] += 1
            return next_link[r] - 1
        return -1

    # Initial agents are run r's tick-0 self-generations, ids 0.. in order.
    init_runs = [r for r in range(n_runs) for _ in range(config.initial_agents)]
    agents.append(init_runs, 0, [carrier_draw(r) for r in init_runs])
    size = np.zeros(n_runs, dtype=np.int64)
    censor = np.full(n_runs, horizon, dtype=np.int32)
    running = np.ones(n_runs, dtype=bool)
    live = list(range(n_runs))
    if max_agents is not None and config.initial_agents > max_agents:
        censor[:] = 1
        live = []

    active = active_run = scratch("active", 0)
    n_active = [0] * n_runs
    first_new = 0    # agents from here on were born this tick (tick 0: the initial ones too)
    for tick in range(horizon):
        if not live:
            break
        tables.cover(params.e0 + 2 * (tick + 1))
        root_runs, root_links = array("i"), array("i")
        words: list[bytes] = []
        for r in live:
            rng = rngs[r]
            if rng.random() < p_s:
                root_runs.append(r)
                root_links.append(carrier_draw(r))
            if n_active[r]:
                words.append(_draw_words(rng, n_active[r]))
        agents.append(np.frombuffer(root_runs, dtype=np.intc), tick,
                      np.frombuffer(root_links, dtype=np.intc))
        if len(active):
            u = _uniforms(b"".join(words), scratch)
            active, active_run = agents.step(active, active_run, u, tables, tick, scratch)
        active, active_run = agents.next_active(active, active_run, first_new, scratch)

        if max_agents is not None:
            # Runs whose agent count passed the cap end with this tick.
            size += np.bincount(agents.run[first_new:agents.n], minlength=n_runs)
            over = running & (size > max_agents)
            if over.any():
                censor[over] = tick + 1
                running &= ~over
                keep = running.take(active_run, out=scratch("keep", len(active), np.bool_),
                                    mode="clip")
                n_keep = np.count_nonzero(keep)
                active = active.compress(keep, out=scratch("untruncated", n_keep))
                active_run = active_run.compress(keep, out=scratch("untruncated_run", n_keep))
                stopped = over.tolist()
                live = [r for r in live if not stopped[r]]
        first_new = agents.n
        n_active = np.bincount(active_run, minlength=n_runs).tolist()
        if p_s == 0.0:
            # Without self-generation a run with no agent left is over.
            live = [r for r in live if n_active[r]]

    return agents, censor


def repost_counts_by_link(stats: Iterable[AgentLifeStats]) -> dict[str, int]:
    """Total reposts per carried link; agents without links are skipped."""
    counts: dict[str, int] = {}
    for s in stats:
        if s.carried_link is None:
            continue
        counts[s.carried_link] = counts.get(s.carried_link, 0) + s.total_reposts
    return counts


# Line templates in the format of netmon.jsonl.
# An event line's head, "{" or '{"run": k, ', comes before these fields.
_EVENT_FIELDS = '"tick": {}, "kind": {}, "agent_id": {}, "related_agent_id": {}}}\n'
_LIFE_STATS_LINE = (
    '{{"agent_id": {}, "lifetime": {}, "censored": {}, "total_likes": {}, '
    '"total_reposts": {}, "carried_link": {}}}\n'
).format


def events_to_jsonl(events: Iterable[EventRecord], run: Optional[int] = None) -> str:
    """One JSON object per event, keys tick, kind, agent_id, related_agent_id.

    With ``run`` each line starts with ``"run": run``, as in the event
    log ``netmon simulate`` writes.
    """
    head = "{{" if run is None else '{{"run": %d, ' % run
    line = (head + _EVENT_FIELDS).format
    return "".join([
        line(tick, quote(kind), agent_id, "null" if related is None else related)
        for tick, kind, agent_id, related in events
    ])


def events_from_jsonl(text: str) -> list[EventRecord]:
    """The events of ``events_to_jsonl`` text; blank lines are skipped.

    Other keys, such as ``run``, are ignored.
    """
    return [
        EventRecord(d["tick"], d["kind"], d["agent_id"], d.get("related_agent_id"))
        for d in _json_objects(text)
    ]


def life_stats_to_jsonl(stats: Iterable[AgentLifeStats]) -> str:
    """One JSON object per agent, keys in AgentLifeStats field order."""
    line = _LIFE_STATS_LINE
    return "".join([
        line(agent_id, lifetime, "true" if censored else "false", likes, reposts,
             "null" if link is None else quote(link))
        for agent_id, lifetime, censored, likes, reposts, link in stats
    ])


def life_stats_from_jsonl(text: str) -> list[AgentLifeStats]:
    """The rows of ``life_stats_to_jsonl`` text; blank lines are skipped."""
    return [
        _make_row((d["agent_id"], d["lifetime"], d["censored"], d["total_likes"],
                   d["total_reposts"], d.get("carried_link")))
        for d in _json_objects(text)
    ]


def _json_objects(text: str) -> Iterator[dict]:
    """The JSON object on each non-blank line of ``text``.

    Lines decode, and fail with ``json.JSONDecodeError``, exactly as
    ``json.loads`` has them; a value that is not an object fails the
    same way.
    """
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = decode_line(line)
        if type(obj) is not dict:
            raise json.JSONDecodeError("Expecting a JSON object", line, 0)
        yield obj


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


def calibrated_default_config(
    seed: int = CALIBRATED_SEED,
    horizon: int = CALIBRATED_HORIZON,
) -> SimulationConfig:
    """The shipped default simulation configuration."""
    return SimulationConfig(
        params=BehaviorParams.constant(
            p_s=CALIBRATED_P_S,
            e0=CALIBRATED_E0,
            p_like=CALIBRATED_P_LIKE,
            p_repost=CALIBRATED_P_REPOST,
        ),
        horizon=horizon,
        seed=seed,
        max_agents=None,
        initial_agents=1,
    )
