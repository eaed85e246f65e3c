import json
import math
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmon import simulator
from netmon.diffusion import BehaviorParams, delta_distribution
from netmon.simulator import (
    EVENT_DEATH,
    EVENT_LIKE,
    EVENT_REPOST,
    EVENT_SELF_GENERATE,
    EVENT_TRUNCATED,
    AgentLifeStats,
    EventRecord,
    SimulationConfig,
    calibrated_default_config,
    events_from_jsonl,
    events_to_jsonl,
    life_stats_from_jsonl,
    life_stats_to_jsonl,
    replicate,
    repost_counts_by_link,
    run_simulation,
)

from _oracles import (
    reference_events_from_jsonl,
    reference_events_to_jsonl,
    reference_life_stats_from_jsonl,
    reference_life_stats_to_jsonl,
)


def config(p_like, p_repost, e0=1, p_s=0.0, horizon=50, seed=1, **kw):
    params = BehaviorParams.constant(p_s=p_s, e0=e0, p_like=p_like, p_repost=p_repost,
                                     **{k: v for k, v in kw.items()
                                        if k in ("link_carrier_fraction", "link_boost",
                                                 "rich_get_richer_gamma")})
    sim_kw = {k: v for k, v in kw.items() if k in ("max_agents", "initial_agents")}
    return SimulationConfig(params=params, horizon=horizon, seed=seed, **sim_kw)


class TestSingleAgentWalks:
    def test_pure_decay_dies_at_tick_e0(self):
        res = run_simulation(config(0.0, 0.0, e0=3, horizon=10))
        assert [(e.tick, e.kind, e.agent_id) for e in res.events] == [
            (0, EVENT_SELF_GENERATE, 0),
            (3, EVENT_DEATH, 0),
        ]
        (stats,) = res.stats
        assert stats.lifetime == 3
        assert not stats.censored
        assert stats.total_likes == 0
        assert stats.total_reposts == 0

    def test_certain_like_never_dies(self):
        res = run_simulation(config(1.0, 0.0, e0=1, horizon=200))
        (agent,) = res.agents
        assert agent.alive
        assert agent.energy == 1
        assert agent.reposts_spawned == 0
        (stats,) = res.stats
        assert stats.censored
        assert stats.lifetime == 200
        # a like event on every tick after birth
        likes = [e for e in res.events if e.kind == EVENT_LIKE]
        assert len(likes) == 199


class TestDeterminism:
    def test_identical_config_identical_log(self):
        cfg = config(0.3, 0.1, e0=2, p_s=0.2, horizon=80, seed=99,
                     link_carrier_fraction=0.5, link_boost=1.5)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert events_to_jsonl(a.events) == events_to_jsonl(b.events)
        assert a.stats == b.stats
        assert a.agents == b.agents

    def test_different_seeds_differ(self):
        a = run_simulation(config(0.3, 0.1, e0=2, p_s=0.2, horizon=80, seed=1))
        b = run_simulation(config(0.3, 0.1, e0=2, p_s=0.2, horizon=80, seed=2))
        assert events_to_jsonl(a.events) != events_to_jsonl(b.events)

    def test_event_recording_does_not_disturb_stream(self):
        cfg = config(0.3, 0.1, e0=2, p_s=0.2, horizon=80, seed=5)
        with_events = run_simulation(cfg, record_events=True)
        without = run_simulation(cfg, record_events=False)
        assert without.events == []
        assert with_events.stats == without.stats


class TestEventLogInvariants:
    def _run(self):
        return run_simulation(
            config(0.35, 0.12, e0=2, p_s=0.3, horizon=120, seed=31,
                   link_carrier_fraction=0.4)
        )

    def test_repost_conservation(self):
        res = self._run()
        n_repost_events = sum(1 for e in res.events if e.kind == EVENT_REPOST)
        assert n_repost_events > 0
        assert n_repost_events == sum(a.reposts_spawned for a in res.agents)
        assert n_repost_events == sum(a.authority for a in res.agents)

    def test_repost_children_created_same_tick(self):
        res = self._run()
        by_id = {a.id: a for a in res.agents}
        for e in res.events:
            if e.kind == EVENT_REPOST:
                child = by_id[e.related_agent_id]
                assert child.birth_tick == e.tick
                assert child.parent_id == e.agent_id
                assert by_id[e.agent_id].birth_tick < child.birth_tick

    def test_no_events_after_death(self):
        res = self._run()
        death_tick = {}
        for e in res.events:
            if e.kind == EVENT_DEATH:
                assert e.agent_id not in death_tick
                death_tick[e.agent_id] = e.tick
        for e in res.events:
            if e.agent_id in death_tick and e.kind != EVENT_DEATH:
                assert e.tick <= death_tick[e.agent_id]

    def test_dead_iff_energy_zero(self):
        res = self._run()
        for a in res.agents:
            assert (a.energy == 0) == (not a.alive)

    def test_parent_born_strictly_earlier(self):
        res = self._run()
        by_id = {a.id: a for a in res.agents}
        for a in res.agents:
            if a.parent_id is not None:
                assert by_id[a.parent_id].birth_tick < a.birth_tick

    def test_lifetime_bounded_by_horizon(self):
        res = self._run()
        by_id = {a.id: a for a in res.agents}
        for s in res.stats:
            assert 1 <= s.lifetime <= 120 - by_id[s.agent_id].birth_tick

    def test_children_inherit_link(self):
        res = self._run()
        by_id = {a.id: a for a in res.agents}
        for a in res.agents:
            if a.parent_id is not None:
                assert a.link_ref == by_id[a.parent_id].link_ref


class TestKernelFidelity:
    def test_step_frequencies_match_kernel(self):
        # Reconstruct every (energy, delta) step from the event log and
        # compare pooled frequencies at fixed energies with the kernel.
        # Subcritical setting (mean offspring 0.6) keeps the population
        # bounded while p_s keeps fresh roots coming.
        cfg = config(0.3, 0.1, e0=3, p_s=0.6, horizon=1500, seed=8)
        res = run_simulation(cfg)
        by_tick = defaultdict(lambda: defaultdict(set))
        for e in res.events:
            if e.kind in (EVENT_LIKE, EVENT_REPOST):
                by_tick[e.agent_id][e.tick].add(e.kind)
        death = {e.agent_id: e.tick for e in res.events if e.kind == EVENT_DEATH}

        steps = Counter()
        for a in res.agents:
            energy = 3
            end = death.get(a.id, cfg.horizon - 1)
            for tick in range(a.birth_tick + 1, end + 1):
                kinds = by_tick[a.id].get(tick, set())
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
            if a.id in death:
                assert energy == 0

        assert not res.truncated
        dist = delta_distribution(3, cfg.params)
        expected = {2: dist.p_plus2, 1: dist.p_plus1, 0: dist.p_zero, -1: dist.p_minus1}
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
    """Pooled stats of ``replicate`` computed one scalar run at a time."""
    pooled = []
    for k in range(n_runs):
        single = SimulationConfig(params=cfg.params, horizon=cfg.horizon, seed=cfg.seed + k,
                                  max_agents=cfg.max_agents,
                                  initial_agents=cfg.initial_agents)
        pooled.extend(run_simulation(single, record_events=False).stats)
    return pooled


class TestReplicate:
    def test_single_run_equals_run_simulation(self):
        cfg = config(0.3, 0.1, e0=2, p_s=0.3, horizon=60, seed=12)
        assert list(replicate(cfg, 1)) == run_simulation(cfg).stats

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
    # Values leave [0, 1] on both sides, so the clamps matter.
    return BehaviorParams(p_s=p_s, e0=3, like_prob=lambda e: 1.3 - 0.25 * e,
                          repost_prob=lambda e: 0.45 - 0.1 * e, **kw)


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

    def test_grid_reaches_truncation_and_clamps(self):
        truncating = EXACTNESS_GRID["rich-get-richer truncates"]
        assert any(run_simulation(SimulationConfig(
            params=truncating.params, horizon=truncating.horizon, seed=truncating.seed + k,
            max_agents=truncating.max_agents), record_events=False).truncated
            for k in range(25))
        params = EXACTNESS_GRID["energy-dependent, clamped"].params
        assert params.like_prob(1) > 1.0 and params.repost_prob(5) < 0.0

    def test_truncated_at_tick_zero(self):
        stats = list(replicate(EXACTNESS_GRID["truncated at tick 0"], 4))
        assert [(s.agent_id, s.lifetime, s.censored) for s in stats] == [
            (i, 1, True) for _ in range(4) for i in range(3)
        ]

    def test_chunks_join_seamlessly(self, monkeypatch):
        cfg = EXACTNESS_GRID["p_s=0.3 carriers=0.5"]
        monkeypatch.setattr(simulator, "_CHUNK_RUNS", 4)
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
            sum(1 for s in run_simulation(SimulationConfig(
                params=cfg.params, horizon=cfg.horizon, seed=cfg.seed + k,
                initial_agents=cfg.initial_agents), record_events=False).stats)
            for k in range(7)
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
        seed=st.integers(-1000, 2**40),
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


@pytest.mark.parametrize("seed", [0, 1, 20160501, -7, 2**40 + 3])
def test_bulk_draws_equal_random_random(seed):
    import random

    bulk, single = random.Random(seed), random.Random(seed)
    for n in (1, 2, 7, 1000):
        drawn = simulator._uniforms(simulator._draw_words(bulk, n), simulator._Scratch()).tolist()
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
        assert res.truncated
        assert res.truncated_at is not None
        assert res.events[-1].kind == EVENT_TRUNCATED
        assert res.events[-1].agent_id == -1
        # halts shortly after exceeding the cap, not at the horizon
        assert res.truncated_at < 399
        last_tick = max(e.tick for e in res.events)
        assert last_tick == res.truncated_at

    def test_untruncated_run_has_no_marker(self):
        res = run_simulation(config(0.0, 0.0, e0=2, horizon=10))
        assert not res.truncated
        assert all(e.kind != EVENT_TRUNCATED for e in res.events)


class TestSerialization:
    def test_events_round_trip(self):
        res = run_simulation(config(0.3, 0.1, e0=2, p_s=0.3, horizon=40, seed=2))
        text = events_to_jsonl(res.events)
        assert events_from_jsonl(text) == res.events
        first = text.splitlines()[0]
        assert '"tick": 0' in first and '"kind": "self_generate"' in first

    def test_life_stats_round_trip(self):
        res = run_simulation(config(0.3, 0.1, e0=2, p_s=0.3, horizon=40, seed=2,
                                    link_carrier_fraction=0.5))
        text = life_stats_to_jsonl(res.stats)
        assert life_stats_from_jsonl(text) == res.stats

    def test_integers_unquoted(self):
        res = run_simulation(config(0.0, 0.0, e0=2, horizon=10))
        line = life_stats_to_jsonl(res.stats).splitlines()[0]
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


class TestSerializationAgainstOracles:
    """The template writers and scanner readers against json.dumps/json.loads."""

    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(event_records, max_size=8), run=runs, blanks=blank_lines)
    def test_events_match_json_module(self, events, run, blanks):
        text = events_to_jsonl(events, run=run)
        assert text == reference_events_to_jsonl(events, run=run)
        assert events_from_jsonl(text) == events
        padded = with_blank_lines(text, blanks)
        assert events_from_jsonl(padded) == reference_events_from_jsonl(padded) == events

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(life_stats_rows, max_size=8), blanks=blank_lines)
    def test_life_stats_match_json_module(self, rows, blanks):
        text = life_stats_to_jsonl(rows)
        assert text == reference_life_stats_to_jsonl(rows)
        assert life_stats_from_jsonl(text) == rows
        padded = with_blank_lines(text, blanks)
        assert life_stats_from_jsonl(padded) == reference_life_stats_from_jsonl(padded) == rows

    @settings(max_examples=100, deadline=None)
    @given(row=life_stats_rows, before=st.sampled_from(["", " ", "\t", " \r"]),
           after=st.sampled_from(["", " ", "\t\t", "\r "]))
    def test_surrounding_whitespace_decodes_as_json_loads(self, row, before, after):
        line = before + life_stats_to_jsonl([row]).rstrip("\n") + after
        assert life_stats_from_jsonl(line) == reference_life_stats_from_jsonl(line) == [row]

    @settings(max_examples=100, deadline=None)
    @given(event=event_records, run=runs,
           junk=st.sampled_from(["x", "}", ", 1", " {}", "[]", "\"", "\t0"]))
    def test_trailing_data_raises_decode_error(self, event, run, junk):
        line = events_to_jsonl([event], run=run).rstrip("\n") + junk
        for read in (events_from_jsonl, reference_events_from_jsonl):
            with pytest.raises(json.JSONDecodeError):
                read(line)

    @pytest.mark.parametrize("line", [
        '{"agent_id": 0, "lifetime": 1',
        '{"agent_id": 0, "lifetime": }',
        "{'agent_id': 0}",
        "agent_id",
        "\ufeff{}",
    ])
    def test_broken_line_raises_decode_error(self, line):
        text = life_stats_to_jsonl([AgentLifeStats(0, 1, True, 0, 0)]) + line + "\n"
        for read in (life_stats_from_jsonl, reference_life_stats_from_jsonl):
            with pytest.raises(json.JSONDecodeError):
                read(text)

    @pytest.mark.parametrize("line", ["[1, 2]", "5", '"text"', "null", " true "])
    def test_line_that_is_not_an_object_raises_decode_error(self, line):
        for read in (events_from_jsonl, life_stats_from_jsonl):
            with pytest.raises(json.JSONDecodeError):
                read(line + "\n")


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
        assert long_run.stats == short_run.stats
        assert long_run.events == short_run.events
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
        assert list(replicate(cfg, 1)) == run_simulation(cfg, record_events=False).stats
        assert calls < 100


class TestConfigValidation:
    def test_bad_horizon(self):
        params = BehaviorParams.constant(p_s=0.0, e0=1, p_like=0.5, p_repost=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(params=params, horizon=0, seed=1)

    def test_bad_initial_agents(self):
        params = BehaviorParams.constant(p_s=0.0, e0=1, p_like=0.5, p_repost=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(params=params, horizon=5, seed=1, initial_agents=0)
