import dataclasses
import gc
import io
import json
import math
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmon import jsonl, simulator
from netmon.jsonl import quote
from netmon.diffusion import BehaviorParams
from netmon.simulator import (
    EVENT_DEATH,
    EVENT_LIKE,
    EVENT_REPOST,
    EVENT_SELF_GENERATE,
    EVENT_TRUNCATED,
    AgentLifeStats,
    EventRecord,
    LifeStatsTable,
    SimulationConfig,
    TooManyAgentsError,
    calibrated_default_config,
    events_to_jsonl,
    life_stats_from_jsonl,
    life_stats_to_jsonl,
    replicate,
    repost_counts_by_link,
    run_chunks,
    run_simulation,
)

from _oracles import (
    delta_probs,
    reference_events_from_jsonl,
    reference_events_to_jsonl,
    reference_life_stats_from_jsonl,
    reference_life_stats_to_jsonl,
    reference_run,
    reference_runs,
)
from _strategies import SIM_FIELDS, sim_config


def config(p_like, p_repost, e0=1, p_s=0.0, horizon=50, seed=1, **kw):
    params = BehaviorParams.constant(p_s=p_s, e0=e0, p_like=p_like, p_repost=p_repost,
                                     **{k: v for k, v in kw.items()
                                        if k in ("link_carrier_fraction", "link_boost",
                                                 "rich_get_richer_gamma")})
    sim_kw = {k: v for k, v in kw.items() if k in ("max_agents", "initial_agents")}
    return SimulationConfig(params=params, horizon=horizon, seed=seed, **sim_kw)


def text_of(write, data, **kw) -> str:
    """What the file writer ``write`` writes of ``data``, as text."""
    out = io.BytesIO()
    write(data, out, **kw)
    return out.getvalue().decode("ascii")


class TestSingleAgentWalks:
    def test_pure_decay_dies_at_tick_e0(self):
        res = run_simulation(config(0.0, 0.0, e0=3, horizon=10))
        assert [(e.tick, e.kind, e.agent_id) for e in list(res.events)] == [
            (0, EVENT_SELF_GENERATE, 0),
            (3, EVENT_DEATH, 0),
        ]
        (stats,) = res.stats
        assert stats.lifetime == 3
        assert not stats.censored
        assert stats.total_likes == 0
        assert stats.total_reposts == 0

    def test_certain_like_never_dies(self):
        cfg = config(1.0, 0.0, e0=1, horizon=200)
        res = run_simulation(cfg)
        events = list(res.events)
        assert replay(events, cfg) == {0: 1}
        (stats,) = res.stats
        assert stats.censored
        assert stats.lifetime == 200
        assert stats.total_reposts == 0
        # a like event on every tick after birth
        likes = [e for e in events if e.kind == EVENT_LIKE]
        assert len(likes) == 199


class TestDeterminism:
    def test_identical_config_identical_log(self):
        cfg = config(0.3, 0.1, e0=2, p_s=0.2, horizon=80, seed=99,
                     link_carrier_fraction=0.5, link_boost=1.5)
        a = run_simulation(cfg, runs=3)
        b = run_simulation(cfg, runs=3)
        assert text_of(events_to_jsonl, a.events) == text_of(events_to_jsonl, b.events)
        assert list(a.stats) == list(b.stats)
        assert a.truncated_at == b.truncated_at

    def test_different_seeds_differ(self):
        a = run_simulation(config(0.3, 0.1, e0=2, p_s=0.2, horizon=80, seed=1))
        b = run_simulation(config(0.3, 0.1, e0=2, p_s=0.2, horizon=80, seed=2))
        assert text_of(events_to_jsonl, a.events) != text_of(events_to_jsonl, b.events)

    def test_event_recording_does_not_disturb_stream(self):
        cfg = config(0.3, 0.1, e0=2, p_s=0.2, horizon=80, seed=5)
        with_events = run_simulation(cfg, record_events=True, runs=3)
        without = run_simulation(cfg, record_events=False, runs=3)
        assert len(without.events) == 0
        assert list(without.events) == []
        assert [list(run) for run in without.events.runs()] == [[], [], []]
        assert list(with_events.stats) == list(without.stats)


def births(events) -> dict[int, int]:
    """Agent id -> birth tick, from a run's self_generate and repost events."""
    born = {e.agent_id: e.tick for e in events if e.kind == EVENT_SELF_GENERATE}
    born.update((e.related_agent_id, e.tick) for e in events if e.kind == EVENT_REPOST)
    return born


def replay(events, cfg) -> dict[int, int]:
    """Agent id -> energy at the end of a run, replayed step by step from its events.

    Each agent starts at e0 and steps on every tick after its birth until
    it dies or the run's last tick: +2 for a like and a repost, +1 for a
    repost, 0 for a like, -1 for neither.
    """
    kinds = defaultdict(set)
    for e in events:
        if e.kind in (EVENT_LIKE, EVENT_REPOST):
            kinds[(e.agent_id, e.tick)].add(e.kind)
    death = {e.agent_id: e.tick for e in events if e.kind == EVENT_DEATH}
    halt = [e.tick for e in events if e.kind == EVENT_TRUNCATED]
    last_tick = halt[0] if halt else cfg.horizon - 1
    energy = {}
    for aid, born in births(events).items():
        e = cfg.params.e0
        for tick in range(born + 1, death.get(aid, last_tick) + 1):
            step = kinds.get((aid, tick), set())
            e += 2 if len(step) == 2 else 1 if EVENT_REPOST in step else \
                0 if EVENT_LIKE in step else -1
        energy[aid] = e
    return energy


class TestEventLogInvariants:
    """Invariants of the event log and life stats, checked on every run of a batch."""

    CFG = config(0.35, 0.12, e0=2, p_s=0.3, horizon=120, seed=31, link_carrier_fraction=0.4)

    def _runs(self):
        res = run_simulation(self.CFG, runs=4)
        return [(list(events), list(stats))
                for events, stats in zip(res.events.runs(), res.stats.runs())]

    def test_repost_conservation(self):
        for events, stats in self._runs():
            n_repost_events = sum(1 for e in events if e.kind == EVENT_REPOST)
            assert n_repost_events > 0
            assert n_repost_events == sum(s.total_reposts for s in stats)
            # every agent but the self-generated ones is some repost's child
            n_roots = sum(1 for e in events if e.kind == EVENT_SELF_GENERATE)
            assert n_repost_events == len(stats) - n_roots

    def test_repost_children_created_same_tick(self):
        for events, stats in self._runs():
            born = births(events)
            assert sorted(born) == [s.agent_id for s in stats]
            for e in events:
                if e.kind == EVENT_REPOST:
                    assert born[e.related_agent_id] == e.tick
                    assert born[e.agent_id] < e.tick

    def test_no_events_after_death(self):
        for events, _ in self._runs():
            death_tick = {}
            for e in events:
                if e.kind == EVENT_DEATH:
                    assert e.agent_id not in death_tick
                    death_tick[e.agent_id] = e.tick
            for e in events:
                if e.agent_id in death_tick and e.kind != EVENT_DEATH:
                    assert e.tick <= death_tick[e.agent_id]

    def test_dead_iff_energy_zero(self):
        for events, stats in self._runs():
            energy = replay(events, self.CFG)
            dead = {e.agent_id for e in events if e.kind == EVENT_DEATH}
            assert dead
            for s in stats:
                assert (energy[s.agent_id] == 0) == (s.agent_id in dead) == (not s.censored)

    def test_parent_born_strictly_earlier(self):
        for events, _ in self._runs():
            born = births(events)
            for e in events:
                if e.kind == EVENT_REPOST:
                    assert born[e.agent_id] < born[e.related_agent_id]

    def test_lifetime_bounded_by_horizon(self):
        for events, stats in self._runs():
            born = births(events)
            death = {e.agent_id: e.tick for e in events if e.kind == EVENT_DEATH}
            for s in stats:
                assert 1 <= s.lifetime <= 120 - born[s.agent_id]
                end = death.get(s.agent_id, 120)
                assert s.lifetime == end - born[s.agent_id]

    def test_children_inherit_link(self):
        for events, stats in self._runs():
            link = {s.agent_id: s.carried_link for s in stats}
            assert any(link.values())
            for e in events:
                if e.kind == EVENT_REPOST:
                    assert link[e.related_agent_id] == link[e.agent_id]


class TestKernelFidelity:
    def test_step_frequencies_match_kernel(self):
        # Reconstruct every (energy, delta) step from the event log and
        # compare pooled frequencies at fixed energies with the kernel.
        # Subcritical setting (mean offspring 0.6) keeps the population
        # bounded while p_s keeps fresh roots coming.
        cfg = config(0.3, 0.1, e0=3, p_s=0.6, horizon=1500, seed=8)
        res = run_simulation(cfg)
        events = list(res.events)
        by_tick = defaultdict(lambda: defaultdict(set))
        for e in events:
            if e.kind in (EVENT_LIKE, EVENT_REPOST):
                by_tick[e.agent_id][e.tick].add(e.kind)
        death = {e.agent_id: e.tick for e in events if e.kind == EVENT_DEATH}

        steps = Counter()
        for aid, born in births(events).items():
            energy = 3
            end = death.get(aid, cfg.horizon - 1)
            for tick in range(born + 1, end + 1):
                kinds = by_tick[aid].get(tick, set())
                if EVENT_LIKE in kinds and EVENT_REPOST in kinds:
                    delta = 2
                elif EVENT_REPOST in kinds:
                    delta = 1
                elif EVENT_LIKE in kinds:
                    delta = 0
                else:
                    delta = -1
                steps[(energy, delta)] += 1
                energy += delta
            if aid in death:
                assert energy == 0

        assert not res.truncated
        expected = delta_probs(0.3, 0.1)
        n = sum(steps[(3, d)] for d in (-1, 0, 1, 2))
        assert n > 2000
        for d, p in expected.items():
            freq = steps[(3, d)] / n
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 4 * se


class TestLifetimeOracle:
    def test_mean_lifetime_matches_linear_system(self):
        from _oracles import expected_absorption_time

        pooled = replicate(config(0.5, 0.1, e0=2, horizon=500, seed=7), 20_000)
        lifetimes = [s.lifetime for s in pooled if not s.censored]
        mean_lifetime = sum(lifetimes) / len(lifetimes)
        tau = expected_absorption_time(0.5, 0.1, 2)
        assert abs(mean_lifetime - tau) / tau < 0.02


def run_by_run(cfg, n_runs):
    """Pooled stats of the runs seeded seed.., stepped one at a time by the oracle."""
    return [s for run in reference_runs(cfg, n_runs, record_events=False) for s in run.stats]


def assert_equals_oracle(cfg, n_runs):
    """run_simulation of n_runs runs agrees with the oracle run by run: the
    events.jsonl bytes, the life stats and the truncation ticks."""
    res = run_simulation(cfg, runs=n_runs)
    refs = reference_runs(cfg, n_runs)
    assert [list(run) for run in res.events.runs()] == [ref.events for ref in refs]
    assert text_of(events_to_jsonl, res.events) == "".join(
        reference_events_to_jsonl(ref.events, run=k) for k, ref in enumerate(refs))
    assert [list(run) for run in res.stats.runs()] == [ref.stats for ref in refs]
    assert res.truncated_at == [ref.truncated_at for ref in refs]
    assert res.truncated == sum(ref.truncated_at is not None for ref in refs)
    assert len(res.events) == sum(len(ref.events) for ref in refs)


class TestReplicate:
    def test_single_run_equals_run_simulation(self):
        cfg = config(0.3, 0.1, e0=2, p_s=0.3, horizon=60, seed=12)
        assert list(replicate(cfg, 1)) == list(run_simulation(cfg).stats) \
            == reference_run(cfg).stats

    def test_repeatable(self):
        cfg = config(0.3, 0.1, e0=2, p_s=0.3, horizon=60, seed=12)
        assert list(replicate(cfg, 20)) == list(replicate(cfg, 20))

    def test_seed_range_partition(self):
        cfg = config(0.3, 0.1, e0=2, p_s=0.3, horizon=60, seed=100)
        whole = replicate(cfg, 40)
        first = replicate(cfg, 20)
        second_cfg = config(0.3, 0.1, e0=2, p_s=0.3, horizon=60, seed=120)
        second = replicate(second_cfg, 20)
        assert list(whole) == list(first) + list(second)

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            replicate(config(0.5, 0.5), 0)


def _energy_dependent(p_s, **kw):
    # Values leave [0, 1] on both sides, so the clamps matter.  The tables
    # end at energy 8, where both are already below 0: the last values,
    # which hold above it, clamp to what the formulas would give there.
    energies = range(1, 9)
    return BehaviorParams(p_s=p_s, e0=3, p_like=tuple(1.3 - 0.25 * e for e in energies),
                          p_repost=tuple(0.45 - 0.1 * e for e in energies), **kw)


EXACTNESS_GRID = {
    **{
        f"p_s={p_s} carriers={frac}": config(
            0.3, 0.15, e0=2, p_s=p_s, horizon=40, seed=21,
            link_carrier_fraction=frac, link_boost=1.5, initial_agents=2,
        )
        for p_s in (0.0, 0.3)
        for frac in (0.0, 0.5, 1.0)
    },
    "rich-get-richer truncates": config(
        0.3, 0.1, e0=3, p_s=0.3, horizon=60, seed=300, link_carrier_fraction=0.5,
        link_boost=1.5, rich_get_richer_gamma=0.4, max_agents=800,
    ),
    "truncated at tick 0": config(0.3, 0.1, e0=2, p_s=0.3, horizon=20, seed=4,
                                  initial_agents=3, max_agents=2),
    "energy-dependent, clamped": SimulationConfig(
        params=_energy_dependent(0.2, link_carrier_fraction=0.5, link_boost=2.0,
                                 rich_get_richer_gamma=0.1),
        horizon=50, seed=9, max_agents=400,
    ),
    "horizon 1": config(0.5, 0.5, e0=1, p_s=0.3, horizon=1, seed=2,
                        link_carrier_fraction=0.5, initial_agents=2),
    "calibrated": calibrated_default_config(seed=77),
}


class TestBatchedReplicate:
    @pytest.mark.parametrize("name", sorted(EXACTNESS_GRID))
    def test_equals_run_by_run(self, name):
        cfg = EXACTNESS_GRID[name]
        assert list(replicate(cfg, 25)) == run_by_run(cfg, 25)

    @pytest.mark.parametrize("name", sorted(EXACTNESS_GRID))
    def test_run_simulation_equals_oracle(self, name):
        assert_equals_oracle(EXACTNESS_GRID[name], 25)

    def test_grid_reaches_truncation_and_clamps(self):
        truncating = EXACTNESS_GRID["rich-get-richer truncates"]
        assert 0 < run_simulation(truncating, record_events=False, runs=25).truncated < 25
        params = EXACTNESS_GRID["energy-dependent, clamped"].params
        assert params.p_like[0] > 1.0 and params.p_repost[4] < 0.0

    def test_batch_companions_do_not_matter(self):
        # A run's events and rows are the same whatever it is stepped with.
        cfg = EXACTNESS_GRID["rich-get-richer truncates"]
        batch = run_simulation(cfg, runs=6)
        alone = [run_simulation(SimulationConfig(params=cfg.params, horizon=cfg.horizon,
                                                 seed=cfg.seed + k, max_agents=cfg.max_agents))
                 for k in range(6)]
        assert [list(run) for run in batch.events.runs()] == [list(r.events) for r in alone]
        assert [list(run) for run in batch.stats.runs()] == [list(r.stats) for r in alone]
        assert batch.truncated_at == [r.truncated_at[0] for r in alone]

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            run_simulation(config(0.5, 0.5), runs=0)

    def test_truncated_at_tick_zero(self):
        stats = list(replicate(EXACTNESS_GRID["truncated at tick 0"], 4))
        assert [(s.agent_id, s.lifetime, s.censored) for s in stats] == [
            (i, 1, True) for _ in range(4) for i in range(3)
        ]

    def test_tables_start_at_the_lowest_reachable_energy(self):
        # Tables indexed from energy 1 would hold about 10**9 entries.
        params = BehaviorParams.constant(p_s=0.5, e0=10**9, p_like=0.3, p_repost=0.05)
        cfg = SimulationConfig(params=params, horizon=5, seed=3, initial_agents=3)
        start = time.perf_counter()
        assert_equals_oracle(cfg, 5)
        assert time.perf_counter() - start < 1.0

    def test_tables_are_indexed_from_their_start(self):
        # Likes grow likelier as energy falls, so a lookup off the tables'
        # start, max(1, e0 - horizon) = 35, would read another energy's
        # thresholds.
        e0, horizon = 40, 5
        p_like = tuple(0.05 + 0.3 * (e0 - e) for e in range(1, e0 + 2 * horizon + 1))
        params = BehaviorParams(p_s=0.5, e0=e0, p_like=p_like, p_repost=0.05)
        cfg = SimulationConfig(params=params, horizon=horizon, seed=3, initial_agents=3)
        assert simulator._StepTables(params, horizon).low == 35
        assert_equals_oracle(cfg, 5)

    def test_chunks_join_seamlessly(self, monkeypatch):
        cfg = EXACTNESS_GRID["p_s=0.3 carriers=0.5"]
        monkeypatch.setattr(simulator, "CHUNK_RUNS", 4)
        assert list(replicate(cfg, 11)) == run_by_run(cfg, 11)

    def test_columns_match_rows(self):
        cfg = EXACTNESS_GRID["p_s=0.3 carriers=0.5"]
        table = replicate(cfg, 7)
        rows = list(table)
        assert len(table) == len(rows)
        assert table.column("lifetime").tolist() == [s.lifetime for s in rows]
        assert table.column("censored").tolist() == [s.censored for s in rows]
        assert table.column("total_likes").tolist() == [s.total_likes for s in rows]
        assert table.column("total_reposts").tolist() == [s.total_reposts for s in rows]
        assert table.column("run_lengths").tolist() == [
            len(run.stats) for run in reference_runs(cfg, 7, record_events=False)
        ]
        linked = table.column("link_index") >= 0
        assert linked.tolist() == [s.carried_link is not None for s in rows]

    @settings(max_examples=60, deadline=None)
    @given(
        p_s=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        e0=st.integers(1, 4),
        p_like=st.floats(0.0, 1.0),
        p_repost=st.floats(0.0, 1.0),
        carriers=st.sampled_from([0.0, 0.3, 1.0]),
        boost=st.sampled_from([1.0, 1.7]),
        gamma=st.sampled_from([0.0, 0.5]),
        horizon=st.integers(1, 12),
        seed=st.integers(0, 2**40),
        max_agents=st.none() | st.integers(1, 200),
        initial_agents=st.integers(1, 3),
        n_runs=st.integers(1, 5),
    )
    def test_property_equals_run_by_run(self, p_s, e0, p_like, p_repost, carriers, boost,
                                        gamma, horizon, seed, max_agents, initial_agents,
                                        n_runs):
        params = BehaviorParams.constant(
            p_s=p_s, e0=e0, p_like=p_like, p_repost=p_repost,
            link_carrier_fraction=carriers, link_boost=boost, rich_get_richer_gamma=gamma,
        )
        cfg = SimulationConfig(params=params, horizon=horizon, seed=seed,
                               max_agents=max_agents, initial_agents=initial_agents)
        assert list(replicate(cfg, n_runs)) == run_by_run(cfg, n_runs)

    @settings(max_examples=60, deadline=None)
    @given(
        p_s=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        e0=st.integers(1, 4),
        p_like=st.floats(0.0, 1.0),
        p_repost=st.floats(0.0, 1.0),
        carriers=st.sampled_from([0.0, 0.3, 1.0]),
        boost=st.sampled_from([1.0, 1.7]),
        gamma=st.sampled_from([0.0, 0.5]),
        horizon=st.integers(1, 12),
        seed=st.integers(0, 2**40),
        max_agents=st.none() | st.integers(1, 200),
        initial_agents=st.integers(1, 3),
        n_runs=st.integers(1, 5),
    )
    def test_property_events_equal_oracle(self, p_s, e0, p_like, p_repost, carriers, boost,
                                          gamma, horizon, seed, max_agents, initial_agents,
                                          n_runs):
        params = BehaviorParams.constant(
            p_s=p_s, e0=e0, p_like=p_like, p_repost=p_repost,
            link_carrier_fraction=carriers, link_boost=boost, rich_get_richer_gamma=gamma,
        )
        assert_equals_oracle(SimulationConfig(params=params, horizon=horizon, seed=seed,
                                              max_agents=max_agents,
                                              initial_agents=initial_agents), n_runs)


@pytest.mark.parametrize("seed", [0, 1, 20160501, -7, 2**40 + 3])
def test_bulk_draws_equal_random_random(seed):
    import random

    bulk, single = random.Random(seed), random.Random(seed)
    for n in (1, 2, 7, 1000):
        drawn = simulator._uniforms(simulator._draw_words(bulk, n)).tolist()
        assert drawn == [single.random() for _ in range(n)]
    assert bulk.random() == single.random()


def test_cli_import_leaves_numpy_random_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, netmon.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


class TestRepostCountsByLink:
    def test_empty(self):
        assert repost_counts_by_link([]) == {}

    def test_sums_by_link(self):
        stats = [
            AgentLifeStats(0, 5, False, 0, 3, carried_link="x"),
            AgentLifeStats(1, 4, False, 0, 2, carried_link="x"),
            AgentLifeStats(2, 4, False, 0, 9, carried_link=None),
            AgentLifeStats(3, 2, False, 0, 1, carried_link="y"),
        ]
        assert repost_counts_by_link(stats) == {"x": 5, "y": 1}

    def test_generator_and_table_count_as_a_list(self):
        table = replicate(config(0.3, 0.15, e0=2, p_s=0.5, horizon=40, seed=50,
                                 link_carrier_fraction=0.5), 5)
        rows = list(table)
        expected: dict = {}  # keys in order of first appearance
        for row in rows:
            if row.carried_link is not None:
                expected[row.carried_link] = expected.get(row.carried_link, 0) + row.total_reposts
        assert len(expected) > 1 and any(expected.values())
        for stats in (rows, table, (row for row in rows)):
            assert list(repost_counts_by_link(stats).items()) == list(expected.items())

    def test_boosted_links_power_law_beats_exponential(self):
        from netmon.distfit import fit_exponential_tail, fit_powerlaw_mle

        params = BehaviorParams.constant(
            p_s=0.3, e0=3, p_like=0.3, p_repost=0.1,
            link_carrier_fraction=0.5, link_boost=1.5, rich_get_richer_gamma=0.4,
        )
        cfg = SimulationConfig(params=params, horizon=60, seed=300, max_agents=800)
        pooled = replicate(cfg, 200)
        counts = [c for c in repost_counts_by_link(pooled).values() if c >= 1]
        power = fit_powerlaw_mle(counts, xmin=1)
        _, ll_exp = fit_exponential_tail(counts, xmin=1)
        assert power.log_likelihood > ll_exp

    def test_linked_lineages_pool_across_runs_without_collisions(self):
        cfg = config(0.3, 0.15, e0=2, p_s=0.5, horizon=60, seed=50,
                     link_carrier_fraction=1.0)
        pooled = replicate(cfg, 5)
        links = {s.carried_link for s in pooled if s.carried_link}
        # a run's links are tagged with its seed, so runs never merge
        seeds_seen = {ref.split("-")[0] for ref in links}
        assert seeds_seen == {"r50", "r51", "r52", "r53", "r54"}


class TestTruncation:
    def test_max_agents_halts_run(self):
        cfg = config(0.9, 0.9, e0=3, p_s=0.5, horizon=400, seed=3, max_agents=50)
        res = run_simulation(cfg)
        events = list(res.events)
        assert res.truncated == 1
        (truncated_at,) = res.truncated_at
        assert truncated_at is not None
        assert events[-1].kind == EVENT_TRUNCATED
        assert events[-1].agent_id == -1
        # halts shortly after exceeding the cap, not at the horizon
        assert truncated_at < 399
        last_tick = max(e.tick for e in events)
        assert last_tick == truncated_at

    def test_untruncated_run_has_no_marker(self):
        res = run_simulation(config(0.0, 0.0, e0=2, horizon=10))
        assert not res.truncated
        assert res.truncated_at == [None]
        assert all(e.kind != EVENT_TRUNCATED for e in res.events)


class TestActiveAgentLimit:
    """A run past the agents one getrandbits call can draw for stops with an error.

    The real limit is 2**25 - 1 active agents per run; these tests lower
    it rather than grow a run that far.
    """

    SUPERCRITICAL = dict(p_like=0.0, p_repost=0.95, e0=3, horizon=30)

    def test_supercritical_run_raises(self, monkeypatch):
        monkeypatch.setattr(simulator, "_MAX_RUN_ACTIVE", 100)
        cfg = config(**self.SUPERCRITICAL, seed=5)
        with pytest.raises(TooManyAgentsError, match=r"^run with seed 5 has \d+ active agents "
                           r"at tick \d+, .*max_agents is None") as info:
            run_simulation(cfg, record_events=False)
        assert isinstance(info.value, ValueError)
        with pytest.raises(TooManyAgentsError):
            replicate(cfg, 3)

    def test_max_agents_below_the_limit_truncates_instead(self, monkeypatch):
        cfg = config(**self.SUPERCRITICAL, max_agents=100)
        unpatched = run_simulation(cfg, runs=4)
        monkeypatch.setattr(simulator, "_MAX_RUN_ACTIVE", 100)
        patched = run_simulation(cfg, runs=4)
        assert patched.truncated == 4
        assert list(patched.stats) == list(unpatched.stats)
        assert list(patched.events) == list(unpatched.events)

    def test_chunk_past_the_limit_with_every_run_under_it(self, monkeypatch):
        # Twenty runs of up to 60 agents put the chunk, not any one run,
        # past the lowered limit.
        cfg = config(**self.SUPERCRITICAL, max_agents=60)
        unpatched = run_simulation(cfg, record_events=False, runs=20)
        monkeypatch.setattr(simulator, "_MAX_RUN_ACTIVE", 100)
        assert list(run_simulation(cfg, record_events=False, runs=20).stats) == list(
            unpatched.stats)


class TestSerialization:
    def test_events_round_trip(self):
        res = run_simulation(config(0.3, 0.1, e0=2, p_s=0.3, horizon=40, seed=2))
        text = text_of(events_to_jsonl, res.events)
        assert reference_events_from_jsonl(text) == list(res.events)
        first = text.splitlines()[0]
        assert '"tick": 0' in first and '"kind": "self_generate"' in first

    def test_life_stats_round_trip(self):
        res = run_simulation(config(0.3, 0.1, e0=2, p_s=0.3, horizon=40, seed=2,
                                    link_carrier_fraction=0.5))
        text = text_of(life_stats_to_jsonl, res.stats)
        assert life_stats_from_jsonl(text) == list(res.stats)

    def test_integers_unquoted(self):
        res = run_simulation(config(0.0, 0.0, e0=2, horizon=10))
        line = text_of(life_stats_to_jsonl, res.stats).splitlines()[0]
        assert '"lifetime": 2' in line


# Text that json must escape: quotes, backslashes, control characters,
# non-ASCII letters and characters outside the Basic Multilingual Plane.
tricky_text = st.text() | st.sampled_from(
    ['"', "\\", '\\"', "\n", "\r\n", "\x00\x1f\x7f", "\u2028", "é", "漢字", "\U0001f600", ""]
)
json_int = st.integers(-2**63, 2**63)
event_records = st.builds(EventRecord, json_int, tricky_text, json_int,
                          st.none() | json_int)
life_stats_rows = st.builds(AgentLifeStats, json_int, json_int, st.booleans(), json_int,
                            json_int, st.none() | tricky_text)
runs = st.none() | st.integers(0, 2**40)
blank_lines = st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=3)


def with_blank_lines(text: str, blanks: list[str]) -> str:
    """``text`` with the given blank lines put before its lines in turn."""
    lines = text.splitlines(keepends=True)
    for i, blank in enumerate(blanks):
        lines.insert(min(2 * i, len(lines)), blank + "\n")
    return "".join(lines)


TEMPLATE_LINE = ('{"agent_id": 0, "lifetime": 3, "censored": false, "total_likes": 1, '
                 '"total_reposts": 0, "carried_link": "r1-l0"}')


def near_template(old: str, new: str) -> str:
    """A template line with ``old`` made ``new``, between two template lines."""
    return f"{TEMPLATE_LINE}\n{TEMPLATE_LINE.replace(old, new)}\n{TEMPLATE_LINE}\n"


def life_stats_table(seed, chunks):
    """A LifeStatsTable of these chunks, each a list of runs of rows
    (lifetime, censored, total_likes, total_reposts, link_index), and
    its rows as the AgentLifeStats they stand for."""
    columns, rows, run_seed = [], [], seed
    for chunk in chunks:
        flat = [row for run in chunk for row in run]
        lifetime, censored, likes, reposts, link = zip(*flat) if flat else ((),) * 5
        columns.append({
            "run_lengths": np.array([len(run) for run in chunk], dtype=np.int64),
            "lifetime": np.array(lifetime, dtype=np.int32),
            "censored": np.array(censored, dtype=bool),
            "total_likes": np.array(likes, dtype=np.int32),
            "total_reposts": np.array(reposts, dtype=np.int32),
            "link_index": np.array(link, dtype=np.int32),
        })
        for run in chunk:
            rows += [AgentLifeStats(i, *row[:4], None if row[4] < 0 else f"r{run_seed}-l{row[4]}")
                     for i, row in enumerate(run)]
            run_seed += 1
    return LifeStatsTable(seed, columns), rows


@st.composite
def table_chunks(draw):
    """Chunks of runs for ``life_stats_table``, some chunks without links."""
    chunks, int32 = [], st.integers(0, 2**31 - 1)
    for linked in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
        link = st.integers(-1, 2**31 - 1) if linked else st.just(-1)
        row = st.tuples(int32, st.booleans(), int32, int32, link)
        chunks.append(draw(st.lists(st.lists(row, max_size=6), min_size=1, max_size=4)))
    return chunks


class TestSerializationAgainstOracles:
    """The column writers and the reader against json.dumps/json.loads."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**40), chunks=table_chunks(), block_lines=st.integers(1, 12))
    def test_table_writer_matches_json_module(self, seed, chunks, block_lines):
        table, rows = life_stats_table(seed, chunks)
        assert list(table) == rows
        with pytest.MonkeyPatch.context() as mp:
            # Blocks that end inside runs and chunks.
            mp.setattr(jsonl, "BLOCK_LINES", block_lines)
            text = text_of(life_stats_to_jsonl, table)
        assert text == reference_life_stats_to_jsonl(rows)
        assert life_stats_from_jsonl(text) == rows

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(life_stats_rows, max_size=8), blanks=blank_lines)
    def test_life_stats_match_json_module(self, rows, blanks):
        text = reference_life_stats_to_jsonl(rows)
        assert life_stats_from_jsonl(text) == rows
        padded = with_blank_lines(text, blanks)
        assert life_stats_from_jsonl(padded) == reference_life_stats_from_jsonl(padded) == rows

    @settings(max_examples=100, deadline=None)
    @given(row=life_stats_rows, before=st.sampled_from(["", " ", "\t", " \r"]),
           after=st.sampled_from(["", " ", "\t\t", "\r "]))
    def test_surrounding_whitespace_decodes_as_json_loads(self, row, before, after):
        line = before + reference_life_stats_to_jsonl([row]).rstrip("\n") + after
        assert life_stats_from_jsonl(line) == reference_life_stats_from_jsonl(line) == [row]

    @settings(max_examples=100, deadline=None)
    @given(row=life_stats_rows, event=event_records, run=runs,
           junk=st.sampled_from(["x", "}", ", 1", " {}", "[]", "\"", "\t0"]))
    def test_trailing_data_raises_decode_error(self, row, event, run, junk):
        line = reference_life_stats_to_jsonl([row]).rstrip("\n") + junk
        for read in (life_stats_from_jsonl, reference_life_stats_from_jsonl):
            with pytest.raises(json.JSONDecodeError):
                read(line)
        with pytest.raises(json.JSONDecodeError):
            reference_events_from_jsonl(
                reference_events_to_jsonl([event], run=run).rstrip("\n") + junk)

    @pytest.mark.parametrize("line", [
        '{"agent_id": 0, "lifetime": 1',
        '{"agent_id": 0, "lifetime": }',
        "{'agent_id': 0}",
        "agent_id",
        "\ufeff{}",
    ])
    def test_broken_line_raises_decode_error(self, line):
        text = reference_life_stats_to_jsonl([AgentLifeStats(0, 1, True, 0, 0)]) + line + "\n"
        for read in (life_stats_from_jsonl, reference_life_stats_from_jsonl):
            with pytest.raises(json.JSONDecodeError):
                read(text)

    @pytest.mark.parametrize("line", ["[1, 2]", "5", '"text"', "null", " true "])
    def test_line_that_is_not_an_object_raises_decode_error(self, line):
        with pytest.raises(json.JSONDecodeError):
            life_stats_from_jsonl(line + "\n")

    # Text close to what life_stats_to_jsonl writes, which the template
    # path must leave to the line-by-line decoder.
    @pytest.mark.parametrize("text", [
        near_template('"lifetime": 3', '"lifetime": 03'),
        near_template('"lifetime": 3', '"lifetime": -0'),
        near_template('"lifetime": 3', '"lifetime": 1.0'),
        near_template('"lifetime": 3', '"lifetime": 1e3'),
        near_template('"r1-l0"', '"r1\\u002dl0"'),
        near_template('"r1-l0"', '""'),
        (TEMPLATE_LINE + "\r\n") * 3,
        (TEMPLATE_LINE + "\n") * 2 + TEMPLATE_LINE,
        near_template('"r1-l0"', '"r1\x85l0"'),
        near_template('"r1-l0"', '"r1\u2028l0"'),
        near_template('"lifetime": 3', '"lifetime": 3, "lifetime": 4'),
        near_template('"carried_link"', '"extra": 1, "carried_link"'),
        TEMPLATE_LINE + "\n\n" + TEMPLATE_LINE + "\n",
    ], ids=["leading_zero", "minus_zero", "fraction", "exponent", "escaped_link",
            "empty_link", "crlf", "no_final_newline", "raw_x85_in_link",
            "raw_u2028_in_link", "duplicate_key", "extra_key", "blank_line"])
    def test_near_template_text_reads_as_json_loads(self, text):
        def outcome(read):
            try:
                return repr([tuple(row) for row in read(text)])
            except json.JSONDecodeError:
                return json.JSONDecodeError
        assert outcome(life_stats_from_jsonl) == outcome(reference_life_stats_from_jsonl)

    def test_writer_output_read_without_the_line_decoder(self, monkeypatch):
        res = run_simulation(config(0.3, 0.1, e0=2, p_s=0.3, horizon=40, seed=2,
                                    link_carrier_fraction=0.5), runs=3)
        text = text_of(life_stats_to_jsonl, res.stats)

        def decode_line(line):
            raise AssertionError("decoded line by line")

        monkeypatch.setattr(simulator, "decode_line", decode_line)
        assert life_stats_from_jsonl(text) == list(res.stats)

    @settings(max_examples=60, deadline=None)
    @given(fields=SIM_FIELDS, seed=st.integers(0, 2**64), runs=st.integers(1, 7),
           chunk_runs=st.integers(1, 3), block_lines=st.integers(1, 40),
           run=st.integers(0, 2**63))
    def test_column_writers_match_json_module(self, fields, seed, runs, chunk_runs,
                                              block_lines, run):
        cfg = sim_config(fields, seed)
        with pytest.MonkeyPatch.context() as mp:
            # A table of several chunks, and blocks that end inside runs.
            mp.setattr(simulator, "CHUNK_RUNS", chunk_runs)
            mp.setattr(jsonl, "BLOCK_LINES", block_lines)
            table = replicate(cfg, runs)
            result = run_simulation(cfg, runs=runs)
            stats_text = text_of(life_stats_to_jsonl, table)
            events_text = text_of(events_to_jsonl, result.events, run=run)
        assert stats_text == reference_life_stats_to_jsonl(list(table))
        assert life_stats_from_jsonl(stats_text) == list(table)
        assert events_text == "".join(
            reference_events_to_jsonl(events, run=run + k)
            for k, events in enumerate(result.events.runs()))


# Rows whose text fills the reader's template: values up to its 18 digits,
# and links of printable ASCII without quote or backslash.  And rows whose
# text does not: a value one past 18 digits (10**18), a negative one, a link
# that json escapes.
template_ints = st.integers(0, 10**18 - 1) | st.sampled_from([0, 9, 10**17, 10**18 - 1])
template_rows = st.builds(
    AgentLifeStats, template_ints, template_ints, st.booleans(), template_ints, template_ints,
    st.none() | st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                      blacklist_characters='"\\'), max_size=6))
outside_rows = st.builds(AgentLifeStats, st.just(10**18) | json_int, json_int, st.booleans(),
                         json_int, json_int, st.none() | tricky_text)
# What one edit of such text inserts or puts in place of a byte.
EDIT_CHARS = ['"', "\\", "\n", "\r", " ", ",", ":", "{", "}", *"0123456789", "t", "n", "\xe9"]


def read_outcome(read, text):
    """The rows ``read`` makes of ``text``, with each value's type, or its error."""
    try:
        return [tuple((type(v), v) for v in row) for row in read(text)]
    except (json.JSONDecodeError, KeyError) as exc:
        return type(exc), str(exc)


class TestTemplateReader:
    """life_stats_from_jsonl's block scan against json.loads, line by line."""

    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(template_rows, min_size=1, max_size=10),
           outside=st.none() | st.tuples(st.integers(0, 10), outside_rows),
           edit=st.sampled_from(["none", "insert", "delete", "replace"]),
           where=st.floats(0, 1, exclude_max=True), char=st.sampled_from(EDIT_CHARS),
           block_chars=st.integers(1, 5 * 110))
    def test_one_edit_reads_as_json_loads(self, rows, outside, edit, where, char, block_chars):
        if outside is not None:
            rows.insert(*outside)
        text = reference_life_stats_to_jsonl(rows)
        at = int(where * (len(text) + (edit == "insert")))
        text = {"none": text, "insert": text[:at] + char + text[at:],
                "delete": text[:at] + text[at + 1:],
                "replace": text[:at] + char + text[at + 1:]}[edit]
        decoded = []

        def decode_line(line):
            decoded.append(line)
            return jsonl.decode_line(line)

        with pytest.MonkeyPatch.context() as mp:
            # Blocks of one to about five lines, so the edit can fall in a later one.
            mp.setattr(simulator, "_READ_BLOCK_CHARS", block_chars)
            mp.setattr(simulator, "decode_line", decode_line)
            got = read_outcome(life_stats_from_jsonl, text)
        assert got == read_outcome(reference_life_stats_from_jsonl, text)
        if simulator._LIFE_STATS_LINES.fullmatch(text):
            assert not decoded  # template text never reaches the line decoder

    @pytest.mark.parametrize("block_chars", [1, 300, simulator._READ_BLOCK_CHARS])
    def test_equal_links_are_one_string(self, monkeypatch, block_chars):
        res = run_simulation(config(0.3, 0.1, e0=2, p_s=0.3, horizon=40, seed=2,
                                    link_carrier_fraction=0.5), runs=3)
        text = text_of(life_stats_to_jsonl, res.stats)
        monkeypatch.setattr(simulator, "_READ_BLOCK_CHARS", block_chars)
        links = [row.carried_link for row in life_stats_from_jsonl(text)
                 if row.carried_link is not None]
        first = {}
        assert all(first.setdefault(link, link) is link for link in links)
        assert len(links) > 2 * len(first) > 2

    def test_read_holds_a_bounded_excess_over_its_rows(self):
        # 120,000 writer lines.  Read a block at a time, they take about
        # 2 MiB beyond the rows at the peak, the matcher's backtracking state
        # for one block included; a match tuple per line, 38 MiB.
        rng = np.random.default_rng(3)
        n = 120_000
        table = LifeStatsTable(1, [{
            "run_lengths": np.full(300, n // 300),
            "lifetime": rng.integers(0, 100, n, dtype=np.int32),
            "censored": rng.random(n) < 0.2,
            "total_likes": rng.integers(0, 50, n, dtype=np.int32),
            "total_reposts": rng.integers(0, 10, n, dtype=np.int32),
            "link_index": np.where(rng.random(n) < 0.5, rng.integers(0, 40, n), -1).astype(np.int32),
        }])
        text = text_of(life_stats_to_jsonl, table)
        tracemalloc.start()
        try:
            rows = life_stats_from_jsonl(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == list(table)
        assert peak - held < 8 * 2**20


def collections() -> int:
    """Collector passes so far over all generations.

    ``gc.get_stats`` is called before anything is allocated here, and it
    reads the counts before it allocates: the young pass that the first
    allocation after a paused build sets off is not counted.
    """
    stats = gc.get_stats()
    return sum(s["collections"] for s in stats)


class TestReaderCollector:
    """life_stats_from_jsonl builds its rows with the cyclic collector paused."""

    @pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
    def collector_on(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("text, decoded, rows", [
        ((TEMPLATE_LINE + "\n") * 3, False, 3),
        (near_template('"lifetime": 3', '"lifetime": 1e3'), True, 3),
        (TEMPLATE_LINE + "\n{'agent_id': 0}\n", True, None),
    ], ids=["template", "decoder", "bad_line"])
    def test_collector_left_as_found(self, monkeypatch, collector_on, text, decoded, rows):
        seen = []

        def decode_line(line):
            seen.append(gc.isenabled())
            return jsonl.decode_line(line)

        monkeypatch.setattr(simulator, "decode_line", decode_line)
        if rows is None:
            with pytest.raises(json.JSONDecodeError):
                life_stats_from_jsonl(text)
        else:
            assert len(life_stats_from_jsonl(text)) == rows
        assert gc.isenabled() is collector_on
        assert bool(seen) is decoded and not any(seen)  # decoded with the collector paused

    def test_template_rows_read_without_a_collection(self):
        text = "".join(
            f'{{"agent_id": {i}, "lifetime": {i % 40}, "censored": {"true" if i % 3 else "false"}, '
            f'"total_likes": {i % 5}, "total_reposts": {i % 4}, '
            f'"carried_link": {"null" if i % 2 else quote(f"r1-l{i % 9}")}}}\n'
            for i in range(20_000))
        was = gc.isenabled()
        gc.enable()
        try:
            gc.collect()
            before = collections()
            rows = life_stats_from_jsonl(text)
            assert collections() == before
            assert gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert len(rows) == 20_000
        assert rows[9] == AgentLifeStats(9, 9, False, 4, 1, None)
        assert rows[10] == AgentLifeStats(10, 10, True, 0, 2, "r1-l1")


class TestEarlyStop:
    """A run with no agent left and no self-generation stops ticking."""

    def test_run_simulation_stops_after_last_death(self, monkeypatch):
        draws = 0

        class CountingRandom(random.Random):
            def random(self):
                nonlocal draws
                draws += 1
                return super().random()

        monkeypatch.setattr(simulator.random, "Random", CountingRandom)
        long_run = run_simulation(config(0.0, 0.0, e0=1, horizon=10**6))
        assert draws < 10
        short_run = run_simulation(config(0.0, 0.0, e0=1, horizon=10))
        assert list(long_run.stats) == list(short_run.stats)
        assert list(long_run.events) == list(short_run.events)
        assert [s.lifetime for s in long_run.stats] == [1]

    def test_replicate_tables_grow_only_as_ticks_pass(self, monkeypatch):
        calls = 0
        kernel = simulator.effective_repost_prob

        def counting_kernel(*args, **kwargs):
            nonlocal calls
            calls += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(simulator, "effective_repost_prob", counting_kernel)
        cfg = config(0.0, 0.0, e0=1, horizon=10**6)
        # Eagerly the tables would cover energies 1..2 * 10**6 + 1.
        assert list(replicate(cfg, 1)) == list(run_simulation(cfg, record_events=False).stats)
        # Above 0: the tables still reach the kernel through this name,
        # which the benchmark's tracer counts.
        assert 0 < calls < 100


class TestRunChunks:
    """run_chunks is the one place runs are split into chunks and seeded."""

    @settings(max_examples=40, deadline=None)
    @given(chunk_runs=st.integers(1, 4), n_runs=st.integers(1, 9), events=st.booleans(),
           seed=st.integers(0, 2**40))
    def test_chunks_follow_the_rule(self, chunk_runs, n_runs, events, seed):
        cfg = replace(EXACTNESS_GRID["p_s=0.3 carriers=0.5"], seed=seed)
        firsts = range(0, n_runs, chunk_runs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "CHUNK_RUNS", chunk_runs)
            chunks = list(run_chunks(cfg, n_runs, record_events=events))
            pooled = list(replicate(cfg, n_runs))
        assert len(chunks) == len(firsts)
        for chunk, first in zip(chunks, firsts):
            size = min(chunk_runs, n_runs - first)
            alone = run_simulation(replace(cfg, seed=seed + first), record_events=events,
                                   runs=size)
            assert chunk.stats.seed == seed + first
            assert len(chunk.truncated_at) == size
            assert list(chunk.stats) == list(alone.stats)
            assert list(chunk.events) == list(alone.events)
            assert chunk.truncated_at == alone.truncated_at
        assert pooled == [row for chunk in chunks for row in chunk.stats]

    def test_a_chunk_is_stepped_when_taken(self, monkeypatch):
        calls = []
        real = simulator.run_simulation

        def counting(*args, **kwargs):
            calls.append(kwargs["runs"])
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator, "run_simulation", counting)
        monkeypatch.setattr(simulator, "CHUNK_RUNS", 2)
        chunks = run_chunks(config(0.3, 0.1, e0=2), 7)
        assert calls == []
        next(chunks)
        assert calls == [2]

    @pytest.mark.parametrize("n_runs", [0, -1])
    def test_rejects_fewer_than_one_run(self, n_runs):
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            run_chunks(config(0.5, 0.5), n_runs)


class TestConfigValidation:
    def test_bad_horizon(self):
        params = BehaviorParams.constant(p_s=0.0, e0=1, p_like=0.5, p_repost=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(params=params, horizon=0, seed=1)

    def test_bad_initial_agents(self):
        params = BehaviorParams.constant(p_s=0.0, e0=1, p_like=0.5, p_repost=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(params=params, horizon=5, seed=1, initial_agents=0)

    def test_more_initial_agents_than_one_run_can_step(self):
        # All of them step at tick 1; the config is refused before the
        # engine builds one of them.
        params = BehaviorParams.constant(p_s=0.0, e0=1, p_like=0.5, p_repost=0.5)
        SimulationConfig(params=params, horizon=5, seed=1, initial_agents=2**25 - 1)
        for n in (2**25, 10**23):
            with pytest.raises(ValueError, match=r"^initial_agents must be <= 33554431, "):
                SimulationConfig(params=params, horizon=5, seed=1, initial_agents=n)

    # random.Random seeds from abs(seed): run -k would repeat run k.
    @pytest.mark.parametrize("seed", [-1, -3, -2**40])
    def test_negative_seed_rejected(self, seed):
        params = BehaviorParams.constant(p_s=0.0, e0=1, p_like=0.5, p_repost=0.5)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SimulationConfig(params=params, horizon=5, seed=seed)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            calibrated_default_config(seed=seed)

    def test_energy_must_fit_int32(self):
        params = BehaviorParams.constant(p_s=0.0, e0=2**31 - 9, p_like=0.5, p_repost=0.5)
        SimulationConfig(params=params, horizon=4, seed=1)
        with pytest.raises(ValueError, match="horizon"):
            SimulationConfig(params=params, horizon=5, seed=1)

    @pytest.mark.parametrize("probs", [(), [], float("nan"), (0.5, float("nan"))])
    def test_probabilities_need_a_number_or_a_table_of_them(self, probs):
        with pytest.raises(ValueError, match="p_repost must be a number"):
            BehaviorParams(p_s=0.0, e0=1, p_like=0.5, p_repost=probs)


def _from_dict(fields: dict) -> SimulationConfig:
    """The config whose ``dataclasses.asdict`` is ``fields``."""
    fields = dict(fields)
    return SimulationConfig(BehaviorParams(**fields.pop("params")), **fields)


# A probability: a float, or a table of them from energy 1, out of [0, 1]
# and infinite values included.
PROBS = st.floats(allow_nan=False) | st.lists(st.floats(allow_nan=False), min_size=1,
                                              max_size=6)


class TestConfigsAreData:
    """Configs are plain values: equal, hashable and serializable."""

    def test_calibrated_default_equals_itself(self):
        assert calibrated_default_config() == calibrated_default_config()
        assert hash(calibrated_default_config()) == hash(calibrated_default_config())

    @settings(max_examples=100, deadline=None)
    @given(p_like=PROBS, p_repost=PROBS, e0=st.integers(1, 100), horizon=st.integers(1, 100),
           seed=st.integers(0, 2**64), max_agents=st.none() | st.integers(1, 100),
           fraction=st.floats(0.0, 1.0), boost=st.floats(1.0, 10.0),
           gamma=st.floats(0.0, 2.0))
    def test_pickle_and_json_round_trips(self, p_like, p_repost, e0, horizon, seed,
                                         max_agents, fraction, boost, gamma):
        params = BehaviorParams(p_s=0.3, e0=e0, p_like=p_like, p_repost=p_repost,
                                link_carrier_fraction=fraction, link_boost=boost,
                                rich_get_richer_gamma=gamma)
        assert all(isinstance(p, (float, tuple)) for p in (params.p_like, params.p_repost))
        cfg = SimulationConfig(params, horizon=horizon, seed=seed, max_agents=max_agents)
        for copy in (pickle.loads(pickle.dumps(cfg)),
                     _from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))):
            assert copy == cfg and hash(copy) == hash(cfg)

    def test_spawned_worker_replicates_a_pickled_config(self):
        cfg = EXACTNESS_GRID["energy-dependent, clamped"]
        pool = multiprocessing.get_context("spawn").Pool(1)
        try:
            table = pool.apply(replicate, (cfg, 25))
        finally:
            pool.close()
            pool.join()
        here = replicate(cfg, 25)
        for name in simulator._LIFE_STATS_COLUMNS:
            assert table.column(name).tolist() == here.column(name).tolist()
