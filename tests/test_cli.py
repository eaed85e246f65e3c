import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from dataclasses import replace
from datetime import datetime
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netmon.cli as cli_mod
import netmon.jsonl as jsonl_mod
import netmon.simulator as simulator_mod
from netmon.cli import main
from netmon.distfit import PowerLawFit, WeibullFit
from netmon.diffusion import BehaviorParams
from netmon.simulator import (CHUNK_RUNS, SimulationConfig, events_to_jsonl,
                              life_stats_from_jsonl, life_stats_to_jsonl, run_simulation)

from _oracles import (
    powerlaw_int_samples,
    reference_events_to_jsonl,
    reference_life_stats_to_jsonl,
    reference_read_samples,
    table_columns,
    weibull_samples,
)
from _strategies import SIM_FIELDS, sim_config

FIXTURES = Path(__file__).parent / "fixtures"


def read_tree(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSimulate:
    def test_deterministic_rerun(self, tmp_path):
        args = ["simulate", "--runs", "1", "--seed", "7", "--steps", "40"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")
        assert (tmp_path / "a" / "events.jsonl").exists()
        assert (tmp_path / "a" / "life_stats.jsonl").exists()
        assert (tmp_path / "a" / "run_config.json").exists()

    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_like": 0.5, "popularity": 3}))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "popularity" in capsys.readouterr().err

    def test_invalid_probability_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_s": 1.5}))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "p_s" in capsys.readouterr().err

    def test_run_past_the_active_agent_limit_exits_two(self, tmp_path, capsys, monkeypatch):
        # A supercritical config without max_agents, against a lowered limit.
        monkeypatch.setattr(simulator_mod, "_MAX_RUN_ACTIVE", 100)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_like": 0.0, "p_repost": 0.95, "e0": 3, "horizon": 30}))
        code = main(["simulate", "--config", str(cfg), "--seed", "3", "--no-events",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run with seed 3 has ") and "max_agents is None" in err
        assert err.count("\n") == 1

    # The first chunk past the lowered active-agent limit; a later chunk
    # failing the same way, or with an internal error, after one was written.
    @pytest.mark.parametrize("failure, code", [
        (None, 2), (simulator_mod.TooManyAgentsError("too many"), 2),
        (RuntimeError("internal"), 1),
    ], ids=["first_chunk", "second_chunk", "internal_error"])
    def test_failed_run_leaves_no_output(self, tmp_path, monkeypatch, failure, code):
        monkeypatch.setattr(simulator_mod, "CHUNK_RUNS", 2)
        fields = {"p_like": 0.3, "p_repost": 0.1, "e0": 2, "horizon": 30}
        if failure is None:
            monkeypatch.setattr(simulator_mod, "_MAX_RUN_ACTIVE", 100)
            fields.update(p_like=0.0, p_repost=0.95, e0=3)
        else:
            chunks = []
            real_run_simulation = simulator_mod.run_simulation

            def run_simulation(*args, **kwargs):
                chunks.append(kwargs["runs"])
                if len(chunks) == 2:
                    raise failure
                return real_run_simulation(*args, **kwargs)

            monkeypatch.setattr(simulator_mod, "run_simulation", run_simulation)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--runs", "5", "--seed", "3",
                     "--out", str(out)]) == code
        if failure is not None:
            assert chunks == [2, 2]
        assert os.listdir(out) == []

    def test_failed_run_without_events_leaves_the_older_output_set(self, tmp_path, monkeypatch,
                                                                   capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--runs", "2", "--steps", "5", "--out", str(out)]) == 0
        before = read_tree(out)
        assert sorted(before) == ["events.jsonl", "life_stats.jsonl", "run_config.json"]

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(simulator_mod, "run_simulation", boom)
        assert main(["simulate", "--runs", "2", "--steps", "5", "--no-events",
                     "--out", str(out)]) == 1
        capsys.readouterr()
        assert sorted(os.listdir(out)) == sorted(before) and read_tree(out) == before

    # Python's json reads NaN and Infinity; a NaN boost would give every
    # link carrier NaN thresholds, and would be written back as non-JSON.
    @pytest.mark.parametrize("text, field", [
        ('{"link_boost": NaN, "link_carrier_fraction": 0.5}', "link_boost"),
        ('{"link_boost": Infinity, "p_repost": 0.0, "link_carrier_fraction": 0.5}',
         "link_boost"),
        ('{"rich_get_richer_gamma": NaN, "link_carrier_fraction": 0.5}',
         "rich_get_richer_gamma"),
        ('{"rich_get_richer_gamma": Infinity}', "rich_get_richer_gamma"),
    ])
    def test_non_finite_boost_exits_two(self, tmp_path, capsys, text, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {field} must be finite")
        assert not out.exists()

    # An int field takes a JSON integer and a float field any JSON number;
    # neither takes a boolean or a string, and nothing is rounded.
    @pytest.mark.parametrize("field, value", [
        ("e0", 1.5), ("e0", 3.0), ("e0", "3"), ("e0", True), ("e0", None),
        ("horizon", 30.0), ("seed", "7"), ("runs", False), ("max_agents", 800.0),
        ("max_agents", True), ("initial_agents", "1"),
        ("p_s", True), ("p_like", "0.5"), ("p_repost", None), ("link_boost", False),
        ("rich_get_richer_gamma", [0.4]), ("link_carrier_fraction", {}), ("p_s", 10**400),
        ("p_like", []), ("p_like", [[0.3]]), ("p_repost", [0.1, True]), ("p_like", ["0.5"]),
        ("p_repost", [0.1, None]), ("p_like", True), ("p_repost", [10**400]),
    ])
    def test_config_value_of_the_wrong_type_exits_two(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bad value for config field {field}: {value!r}\n"
        assert not out.exists()

    # Seed -k would repeat run k (random.Random seeds from abs(seed)).
    @pytest.mark.parametrize("fields, flags, seed", [
        ({}, ["--seed", "-1"], -1),
        ({"seed": -1}, [], -1),
        ({"seed": 3}, ["--seed", "-3"], -3),
    ], ids=["flag", "config", "flag_over_config"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, fields, flags, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
        assert not out.exists()

    def test_config_values_of_their_json_type_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_s": 0, "link_boost": 2, "p_like": 0.25, "e0": 3,
                                   "horizon": 5, "max_agents": None}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        sidecar = json.loads((out / "run_config.json").read_text())
        assert {k: sidecar[k] for k in ("p_s", "link_boost", "p_like", "e0", "horizon",
                                        "max_agents")} == {
            "p_s": 0.0, "link_boost": 2.0, "p_like": 0.25, "e0": 3, "horizon": 5,
            "max_agents": None}
        assert type(sidecar["p_s"]) is float and type(sidecar["e0"]) is int

    # Energies live in int32 columns and can reach e0 + 2 * horizon.
    @pytest.mark.parametrize("fields, flags", [
        ({"horizon": 3_000_000_000}, []),
        ({}, ["--steps", "3000000000"]),
        ({"e0": 2**31 - 8, "horizon": 4}, []),
    ])
    def test_energy_past_int32_exits_two(self, tmp_path, capsys, fields, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "horizon" in err
        assert not out.exists()

    @pytest.mark.parametrize("initial_agents", [2**25, 10**23])
    def test_more_initial_agents_than_one_run_can_step_exits_two(
            self, tmp_path, capsys, monkeypatch, initial_agents):
        def run_chunks(*args, **kwargs):
            raise AssertionError("the engine was reached")

        monkeypatch.setattr(cli_mod, "run_chunks", run_chunks)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial_agents": initial_agents, "horizon": 5}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: initial_agents must be <= 33554431, the active agents "
                       f"one run can step, got {initial_agents}\n")
        assert not out.exists()

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_s": 0.2, "e0": 2, "p_like": 0.3, "p_repost": 0.1,
                                   "horizon": 30, "seed": 5, "runs": 2}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 0
        sidecar = json.loads((out / "run_config.json").read_text())
        assert sidecar["seed"] == 9          # flag wins
        assert sidecar["horizon"] == 30      # file value kept
        events = (out / "events.jsonl").read_text().splitlines()
        runs_seen = {json.loads(l)["run"] for l in events}
        assert runs_seen == {0, 1}

    def test_no_events_flag(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--runs", "1", "--seed", "3", "--steps", "20",
                     "--no-events", "--out", str(out)]) == 0
        assert not (out / "events.jsonl").exists()
        assert (out / "life_stats.jsonl").exists()

    def test_rerun_without_events_removes_the_stale_event_log(self, tmp_path):
        args = ["simulate", "--runs", "3", "--seed", "2", "--steps", "20", "--no-events"]
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["simulate", "--runs", "2", "--seed", "1", "--steps", "20",
                     "--out", str(out)]) == 0
        assert main([*args, "--out", str(out)]) == 0
        assert main([*args, "--out", str(fresh)]) == 0
        assert sorted(os.listdir(out)) == ["life_stats.jsonl", "run_config.json"]
        assert read_tree(out) == read_tree(fresh)

    # run_config.json holds every field _load_sim_config reads and nothing
    # else, so it reproduces the run's files byte for byte, itself included.
    @pytest.mark.parametrize("fields", [
        {},
        {"p_s": 0.2, "e0": 3, "p_like": 0.25, "p_repost": 0.15, "link_carrier_fraction": 0.5,
         "link_boost": 1.5, "rich_get_richer_gamma": 0.4, "max_agents": 300,
         "initial_agents": 2},
        {"e0": 3, "p_like": [0.6, 0.4, 0.2], "p_repost": [0.3, 0.15, 0.05, 0.0, 0.1],
         "link_carrier_fraction": 0.5, "link_boost": 1.5},
    ], ids=["defaults", "every_field", "tables"])
    @pytest.mark.parametrize("no_events", [False, True], ids=["events", "no_events"])
    def test_run_config_reproduces_the_run(self, tmp_path, fields, no_events):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        flags = ["--no-events"] if no_events else []
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["simulate", "--config", str(cfg), "--runs", "3", "--seed", "11",
                     "--steps", "25", *flags, "--out", str(first)]) == 0
        assert main(["simulate", "--config", str(first / "run_config.json"), *flags,
                     "--out", str(second)]) == 0
        assert read_tree(second) == read_tree(first)
        assert len(read_tree(first)) == 2 + (not no_events)

    # sha256 of the outputs written by the json.dumps-per-line serializers
    # these files were first produced with.
    PINNED_DIGESTS = {
        "a9": {
            "events.jsonl": "7786600eeafea1f2b2e81ed2d1f730d0d00663567b5ca1a8325bfd2cfe5d4e46",
            "life_stats.jsonl": "25429e2eddd3c081013b1f19eae6ba0b55bc2dacd5b34109116e83f7994e39c9",
        },
        "linked": {
            "events.jsonl": "371e197493c9b9d0e7b95f67491c841a3a3688ee10308e8e396cc46f1fb75605",
            "life_stats.jsonl": "a85af8509781c5ef1daba5f13300691f6c2966eecb87abb4dec50a49f34be220",
        },
    }
    # The A6 link parameters.
    LINKED_CONFIG = {
        "p_s": 0.3, "e0": 3, "p_like": 0.3, "p_repost": 0.1,
        "link_carrier_fraction": 0.5, "link_boost": 1.5, "rich_get_richer_gamma": 0.4,
        "horizon": 60, "max_agents": 800,
    }

    def test_output_bytes_pinned(self, tmp_path):
        self.assert_output_bytes_pinned(tmp_path)

    def test_chunk_boundaries_leave_output_bytes_unchanged(self, tmp_path, monkeypatch):
        # 3 and 5 runs in chunks of 2: full chunks and a last partial one
        monkeypatch.setattr(simulator_mod, "CHUNK_RUNS", 2)
        self.assert_output_bytes_pinned(tmp_path)

    def assert_output_bytes_pinned(self, tmp_path):
        cfg = tmp_path / "linked.json"
        cfg.write_text(json.dumps(self.LINKED_CONFIG))
        for name, args in (
            ("a9", ["--runs", "3", "--seed", "11", "--steps", "50"]),
            ("linked", ["--config", str(cfg), "--runs", "5", "--seed", "7"]),
        ):
            out = tmp_path / name
            assert main(["simulate", *args, "--out", str(out)]) == 0
            digests = {
                f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("events.jsonl", "life_stats.jsonl")
            }
            assert digests == self.PINNED_DIGESTS[name], name

    # Per-energy tables of six entries, each in [0, 1], with carriers, boost,
    # gamma and truncation: the engine's table path, K = 6.
    TABLE_CONFIG = {
        "p_s": 0.25, "e0": 3, "p_like": [1.0, 0.8, 0.5, 0.35, 0.2, 0.0],
        "p_repost": [0.35, 0.25, 0.18, 0.1, 0.0, 0.05], "link_carrier_fraction": 0.6,
        "link_boost": 1.4, "rich_get_richer_gamma": 0.3, "horizon": 40, "max_agents": 500,
        "initial_agents": 2,
    }

    def test_table_config_writes_what_the_engine_steps(self, tmp_path):
        cfg = tmp_path / "tables.json"
        cfg.write_text(json.dumps(self.TABLE_CONFIG))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--runs", "5", "--seed", "7",
                     "--out", str(out)]) == 0
        fields = dict(self.TABLE_CONFIG)
        run = {name: fields.pop(name) for name in ("horizon", "max_agents", "initial_agents")}
        result = run_simulation(SimulationConfig(BehaviorParams(**fields), seed=7, **run),
                                runs=5)
        life_stats, events = io.BytesIO(), io.BytesIO()
        life_stats_to_jsonl(result.stats, life_stats)
        events_to_jsonl(result.events, events)
        assert (out / "life_stats.jsonl").read_bytes() == life_stats.getvalue()
        assert (out / "events.jsonl").read_bytes() == events.getvalue()
        assert json.loads((out / "run_config.json").read_text())["p_like"] == fields["p_like"]

    # One range rule for a probability and for each entry of a table.
    @pytest.mark.parametrize("field, value", [
        ("p_like", 1.5), ("p_repost", -0.1), ("p_like", [0.5, 1.05]), ("p_repost", [-0.2]),
        ("p_like", float("nan")), ("p_repost", [0.1, float("inf")]),
    ])
    def test_probability_outside_zero_one_exits_two(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {field} must be in [0, 1], got {value}\n"
        assert not out.exists()

    def test_default_run_config(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out)]) == 0
        assert (out / "run_config.json").read_text() == (
            "{\n"
            '  "e0": 28,\n'
            '  "horizon": 65,\n'
            '  "initial_agents": 1,\n'
            '  "link_boost": 1.0,\n'
            '  "link_carrier_fraction": 0.0,\n'
            '  "max_agents": null,\n'
            '  "p_like": 0.2,\n'
            '  "p_repost": 0.1,\n'
            '  "p_s": 0.0,\n'
            '  "rich_get_richer_gamma": 0.0,\n'
            '  "runs": 1,\n'
            '  "seed": 20160501\n'
            "}\n"
        )

    # 2 and 20 runs in one chunk each, and in one and ten chunks of 2.
    @pytest.mark.parametrize("chunk_runs", [CHUNK_RUNS, 2], ids=["one_chunk", "chunks_of_2"])
    def test_memory_does_not_grow_with_runs(self, tmp_path, monkeypatch, chunk_runs):
        monkeypatch.setattr(simulator_mod, "CHUNK_RUNS", chunk_runs)
        # Agents never die and one appears every tick, so every run has the
        # same 100 agents and about 5k events, whatever its seed.
        cfg = tmp_path / "steady.json"
        cfg.write_text(json.dumps({"p_s": 1.0, "e0": 1, "p_like": 1.0, "p_repost": 0.0,
                                   "horizon": 100}))

        def peak(runs: int) -> int:
            args = ["simulate", "--config", str(cfg), "--runs", str(runs),
                    "--out", str(tmp_path / f"runs{runs}")]
            tracemalloc.start()
            try:
                assert main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations (caches, lazy imports)
        few, many = peak(2), peak(20)
        assert many < 1.2 * few, (few, many)
        assert (tmp_path / "runs20" / "events.jsonl").read_text().count("\n") == 20 * (
            (tmp_path / "runs2" / "events.jsonl").read_text().count("\n") // 2
        )

    def test_each_chunk_freed_before_the_next_is_stepped(self, tmp_path, monkeypatch):
        # The memory test above cannot see this: its chunks are small next
        # to one block of rendered lines.
        monkeypatch.setattr(simulator_mod, "CHUNK_RUNS", 2)
        real_run_simulation = simulator_mod.run_simulation
        results, alive = [], []

        def run_simulation(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in results))
            result = real_run_simulation(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(simulator_mod, "run_simulation", run_simulation)
        assert main(["simulate", "--runs", "7", "--steps", "20",
                     "--out", str(tmp_path / "out")]) == 0
        assert alive == [0, 0, 0, 0]


class TestSimulateOutputAgainstOracles:
    """netmon simulate's column writers against json.dumps of the row API's rows."""

    @settings(max_examples=60, deadline=None)
    @given(fields=SIM_FIELDS, seed=st.integers(0, 2**40), runs=st.integers(1, 7),
           chunk_runs=st.integers(1, 3), block_lines=st.integers(1, 40), events=st.booleans())
    def test_files_match_json_dumps(self, fields, seed, runs, chunk_runs, block_lines, events):
        # Small chunks and blocks, so that runs straddle both.
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(simulator_mod, "CHUNK_RUNS", chunk_runs), \
                mock.patch.object(jsonl_mod, "BLOCK_LINES", block_lines):
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(fields))
            out = Path(tmp) / "out"
            assert main(["simulate", "--config", str(cfg), "--runs", str(runs),
                         "--seed", str(seed), "--out", str(out),
                         *([] if events else ["--no-events"])]) == 0
            life_stats = (out / "life_stats.jsonl").read_text()
            event_log = (out / "events.jsonl").read_text() if events else None
        # The same runs as one chunk, through the row API.
        result = run_simulation(sim_config(fields, seed), runs=runs)
        assert life_stats == reference_life_stats_to_jsonl(result.stats)
        assert table_columns(life_stats_from_jsonl(life_stats)) == table_columns(result.stats)
        if events:
            assert event_log == "".join(
                reference_events_to_jsonl(run, run=k)
                for k, run in enumerate(result.events.runs()))

    def test_rows_equal_replicate_across_the_chunk_boundary(self, tmp_path):
        # 1,030 runs: a full chunk of the real size and a partial one.
        assert simulator_mod.CHUNK_RUNS < 1030 < 2 * simulator_mod.CHUNK_RUNS
        out = tmp_path / "out"
        assert main(["simulate", "--runs", "1030", "--steps", "30", "--no-events",
                     "--out", str(out)]) == 0
        config = replace(simulator_mod.calibrated_default_config(), horizon=30)
        assert table_columns(life_stats_from_jsonl((out / "life_stats.jsonl").read_text())) == (
            table_columns(simulator_mod.replicate(config, 1030)))


class TestFit:
    def test_weibull_fixture_recovery(self, tmp_path, capsys):
        samples = weibull_samples(1.9, 3.8, 10_000, seed=0)
        src = tmp_path / "samples.txt"
        src.write_text("".join(f"{float(v)!r}\n" for v in samples))
        out = tmp_path / "fit.json"
        assert main(["fit", "weibull", "--input", str(src), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["distribution"] == "weibull"
        assert 1.85 <= obj["k"] <= 1.95
        assert 3.7 <= obj["lambda"] <= 3.9
        assert {"log_likelihood", "n_samples", "ks_statistic"} <= obj.keys()
        assert "k=" in capsys.readouterr().out

    def test_empty_input(self, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("")
        assert main(["fit", "weibull", "--input", str(src),
                     "--out", str(tmp_path / "f.json")]) == 2

    def test_non_numeric_line_cited(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("1.0\n2.0\nbanana\n")
        assert main(["fit", "weibull", "--input", str(src),
                     "--out", str(tmp_path / "f.json")]) == 2
        assert "line 3" in capsys.readouterr().err

    # int() and float() read these as 10, 12, 12 and (float() only) 1000.5.
    @pytest.mark.parametrize("dist, token", [
        (dist, token) for dist in ("weibull", "powerlaw")
        for token in ("1_0", "\u0661\u0662", "\uff11\uff12")
    ] + [("weibull", "1_000.5")])
    def test_number_with_underscore_or_non_ascii_digit_exits_two(self, tmp_path, capsys,
                                                                  dist, token):
        src = tmp_path / "samples.txt"
        src.write_text("".join(f"{i}\n" for i in range(1, 21)) + token + "\n", encoding="utf-8")
        out = tmp_path / "f.json"
        assert main(["fit", dist, "--input", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: non-numeric value on line 21: {token!r}\n"
        assert not out.exists()

    def test_powerlaw_geometric_closed_form(self, tmp_path):
        src = tmp_path / "geo.txt"
        src.write_text("".join(f"{2**j}\n" for j in range(14)))
        out = tmp_path / "fit.json"
        assert main(["fit", "powerlaw", "--input", str(src), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        expected = 1.0 + 14.0 / sum(math.log(2**j / 0.5) for j in range(14))
        assert obj["alpha"] == pytest.approx(expected)
        assert obj["distribution"] == "powerlaw"
        assert obj["xmin"] == 1


# Sample lines around the edges of the bulk read: blank and whitespace-only
# lines, a separator and NBSP around or inside a number, tokens that int()
# or float() read but netmon refuses, non-finite floats, two numbers on one
# line, integers past the float range, and ends of line that splitlines
# (or the universal-newline read) splits on.
_SAMPLE_TOKENS = st.sampled_from([
    "", " ", "\t", "\x1f", "1", "-3", "2.5", "0.1e2", "007", " 4 ", "\xa05\xa0", "6\x1f7",
    "1_0", "\u0661\u0662", "\uff11", "inf", "-inf", "nan", "1e999", "1 2", "x",
    "9" * 400, "-1" + "0" * 309, "1" + "0" * 308,
])
_SAMPLE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", ""])


class TestReadSamples:
    """_read_samples against reference_read_samples, the line-by-line read."""

    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(st.tuples(_SAMPLE_TOKENS, _SAMPLE_ENDS), max_size=8),
           want_int=st.booleans())
    def test_same_samples_or_same_error(self, lines, want_int):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.txt"
            path.write_text("".join(token + end for token, end in lines), encoding="utf-8")

            def outcome(read):
                try:
                    return [(type(v), repr(v)) for v in read(str(path), want_int)]
                except cli_mod.CliError as exc:
                    return f"CliError: {exc}"
            assert outcome(cli_mod._read_samples) == outcome(reference_read_samples)


class TestWriteLines:
    """_write_lines writes its lines to an open file in batches of _WRITE_BATCH."""

    N = cli_mod._WRITE_BATCH

    @pytest.mark.parametrize("count", [0, 1, N - 1, N, N + 1, 2 * N + 1])
    def test_bytes_equal_the_joined_lines(self, tmp_path, count):
        lines = [f"line {i}\n" if i % 3 else f'{{"n": {i}}}\n' for i in range(count)]
        target = tmp_path / "out.jsonl"
        with target.open("w") as fh:
            cli_mod._write_lines(fh, (line for line in lines))
        assert target.read_bytes() == "".join(lines).encode()

    @pytest.mark.parametrize("count", [N, 2 * N + 1])
    def test_one_write_call_per_batch(self, count):
        fh = mock.Mock()
        cli_mod._write_lines(fh, (f"{i}\n" for i in range(count)))
        assert fh.write.call_count == -(-count // self.N)

    # A whole batch of empty lines, and empty lines across a batch boundary.
    @pytest.mark.parametrize("lines", [
        [""] * N + ["after\n"],
        ["before\n"] + [""] * (2 * N) + ["after\n"],
        ["a\n"] * (N - 1) + ["", "", "b\n"],
    ], ids=["empty_batch", "empty_across_batches", "empty_at_boundary"])
    def test_empty_lines_do_not_end_the_file(self, tmp_path, lines):
        target = tmp_path / "out.jsonl"
        with target.open("w") as fh:
            cli_mod._write_lines(fh, (line for line in lines))
        assert target.read_text() == "".join(lines)


class TestPipeline:
    def run_pipeline(self, out_dir, corpus=None, queries=None, redirect=None, extra=()):
        args = [
            "pipeline",
            "--queries", str(queries or FIXTURES / "queries.txt"),
            "--corpus", str(corpus or FIXTURES / "corpus_1000.jsonl"),
            "--redirect-map", str(redirect or FIXTURES / "redirect_map.json"),
            "--out-dir", str(out_dir),
        ]
        return main(args + list(extra))

    def test_fixture_corpus_ratios_exact(self, tmp_path):
        out = tmp_path / "out"
        assert self.run_pipeline(out) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["messages_with_links_fraction"] == 0.580
        assert stats["unique_links_fraction"] == 0.480
        assert stats["n_links"] == 750
        assert stats["n_matched"] == 1000
        for name in ("matched.jsonl", "links.jsonl", "resolved.jsonl", "ranking.json",
                     "manifest.txt", "export.jsonl", "stats.json", "run_config.json"):
            assert (out / name).exists(), name

    def test_outputs_consistent(self, tmp_path):
        out = tmp_path / "out"
        assert self.run_pipeline(out) == 0
        ranking = json.loads((out / "ranking.json").read_text())
        assert [r["rank"] for r in ranking] == list(range(1, len(ranking) + 1))
        citations = [r["citations"] for r in ranking]
        assert citations == sorted(citations, reverse=True)
        assert sum(citations) == 750
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest == [r["key"] for r in ranking if not r["social"]][: len(manifest)]
        export_lines = (out / "export.jsonl").read_text().splitlines()
        assert len(export_lines) == 360
        assert sum(json.loads(l)["citations"] for l in export_lines) == 750

    def test_rerun_byte_identical(self, tmp_path):
        assert self.run_pipeline(tmp_path / "a") == 0
        assert self.run_pipeline(tmp_path / "b") == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_memory_per_reposted_message_bounded(self, tmp_path):
        # Copies of the fixture corpus under fresh ids: every text recurs
        # in each copy, as reposts make it recur.
        lines = (FIXTURES / "corpus_1000.jsonl").read_text().splitlines(keepends=True)

        def peak(copies: int) -> int:
            corpus = tmp_path / f"copies{copies}.jsonl"
            corpus.write_text("".join(line.replace('"id": "', f'"id": "c{c}-', 1)
                                      for c in range(copies) for line in lines))
            tracemalloc.start()
            try:
                assert self.run_pipeline(tmp_path / f"out{copies}", corpus=corpus,
                                         extra=["--max-in-flight", "1"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations (caches, lazy imports)
        few, many = peak(5), peak(25)
        per_message = (many - few) / (20 * len(lines))
        assert per_message <= 470, (few, many, per_message)

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        out = tmp_path / "out"
        assert self.run_pipeline(out, corpus=corpus) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_matched"] == 0
        assert stats["messages_with_links_fraction"] is None
        assert (out / "matched.jsonl").read_text() == ""
        assert (out / "export.jsonl").read_bytes() == b""
        assert (out / "manifest.txt").read_text() == ""

    # sha256 of every output but run_config.json (it holds the input paths),
    # taken from the pipeline before URL parsing moved into resolve().
    EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    FIXTURE_SHA = {
        "export.jsonl": "71a2b9f92fc87ac669bf0f30ea39897908d17b6304af212f724ef1034ed47d14",
        "links.jsonl": "618b1474cf7b9285a816a12f6986bb5e5ddbbf9fc0c9c4b9dd7660c9a8fcc269",
        "manifest.txt": "86fcbe2421785da1aeec8b279a0374a99762d60adddd92e34e0014075bb1b643",
        "matched.jsonl": "cf44634c4c6a939cdc5570aa46e17d58c625270afe160d6cda909f8c8c3f0cab",
        "ranking.json": "a40d36d81aa68bec4d471444fd89bd0cf668a9cc0a1cbcd1922e253c53a9872d",
        "rejects.jsonl": EMPTY_SHA,
        "resolved.jsonl": "7a4f1ef0c3cdf8851e4e6b7dbcf8e0dea30c5e4eb11f123596715ca77a2c5b54",
        "stats.json": "606178a2e07fe477ad538d755599d5384a8895ce0afa57cf16aba6bd91f2fcee",
    }
    PINNED_DIGESTS = {
        "document": FIXTURE_SHA,
        "host": {
            **FIXTURE_SHA,
            "ranking.json": "d67222afb3c8024190170bc051d90bd926325606382673d7cd2f622f47bd3f01",
        },
        "empty": {
            **dict.fromkeys(FIXTURE_SHA, EMPTY_SHA),
            "ranking.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
            "stats.json": "faadc607963b80e38d92094fe7fae7dc14b113124536c10f2bcc65a535bcdb10",
        },
    }

    def test_output_bytes_pinned(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for name, corpus, extra in (
            ("document", None, []),
            ("host", None, ["--granularity", "host"]),
            ("empty", empty, []),
        ):
            out = tmp_path / name
            assert self.run_pipeline(out, corpus=corpus, extra=extra) == 0
            digests = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()
                if p.name != "run_config.json"
            }
            assert digests == self.PINNED_DIGESTS[name], name

    # Timestamps off the canonical "YYYY-MM-DDTHH:MM:SSZ" form that every
    # fixture corpus uses: offsets, fractions, naive stamps and rejects.
    # Forms that Python 3.10 and 3.11 parse differently (week dates, ","
    # fractions, fractions of 1, 2, 4 or 5 digits) are left out.
    FALLBACK_STAMPS = (
        ("m01", "2016-05-01T12:00:00+02:00", "Market rates https://news.test/a"),
        ("m02", "2016-04-30T23:00:00-09:30", "market rates again https://news.test/a"),
        ("m03", "2016-05-01T10:00:00+14:00", "Central bank https://news.test/b"),
        ("m04", "2016-05-01T00:00:00.123Z", "central bank https://news.test/b"),
        ("m05", "2016-05-01T00:00:00.123456Z", "market rates http://bit.ly/hop0060"),
        ("m06", "2016-05-01T01:00:00.500+02:00", "market rates http://bit.ly/hop0060"),
        ("m07", "2016-05-01T01:00:00.999999-09:30", "central bank https://news.test/c"),
        ("m08", "2016-05-01T00:00:00", "market rates https://news.test/c"),
        ("m09", "2016-05-01T05:00:00.250", "central bank https://news.test/a"),
        ("m10", "2016-02-30T00:00:00Z", "market rates https://news.test/d"),
        ("m11", "0001-01-01T00:00:00+01:00", "market rates https://news.test/d"),
        ("m12", "9999-12-31T23:59:59-01:00", "market rates https://news.test/d"),
    )
    # taken from the pipeline that parsed and formatted every timestamp
    FALLBACK_SHA = {
        "export.jsonl": "8dddd720f602c9f4a60edc5e3872b6379c9ade612d35246dd1a990ce1509fd56",
        "links.jsonl": "70985cb69c58b292ac424ea1e3f5f6e843adcac375f1eafeeadcc0ddb178a49e",
        "manifest.txt": "0b71366ea55558ae2c28f5b08fee62c274d6d8a53840b4cd4559666602128905",
        "matched.jsonl": "6965a047d901fc14093942dc02e45b17a95d2f336cce08dc820b6e6d20d513bc",
        "ranking.json": "642ac731eb1cf0d8eaa2e1d436cc9dce99cfef226a5a05378d32a178a9ef1aca",
        "rejects.jsonl": "05e361cb5b39c6e8929cf440995b69247c20974da0065cc7fbf056b0c6f941ec",
        "resolved.jsonl": "bdbe2eb0fb643aa8ffdc7b71971918beec43cd10d6cc215bef32e316bcc66fd8",
        "stats.json": "2233165fb538feb0cb0a215365240bd8fa8c16635b9b816d6efd4afd3f9b46b4",
    }

    def test_fallback_timestamps_output_bytes_pinned(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": mid, "author": f"user{n % 3}", "timestamp": ts, "text": text})
            + "\n"
            for n, (mid, ts, text) in enumerate(self.FALLBACK_STAMPS)
        ))
        out = tmp_path / "out"
        assert self.run_pipeline(out, corpus=corpus) == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()
            if p.name != "run_config.json"
        }
        assert digests == self.FALLBACK_SHA
        exported = [json.loads(l) for l in (out / "export.jsonl").read_text().splitlines()]
        # the earliest instant, not the least text as written
        assert {e["url"]: e["first_seen"] for e in exported}["https://news.test/b"] == (
            "2016-04-30T20:00:00Z")

    def test_online_and_map_mutually_exclusive(self, tmp_path):
        code = self.run_pipeline(tmp_path / "out", extra=["--online"])
        assert code == 2

    def test_env_forces_offline(self, tmp_path, monkeypatch):
        # --online with NETMON_OFFLINE=1 must not touch the network: an
        # empty offline map resolves everything terminally.
        monkeypatch.setenv("NETMON_OFFLINE", "1")
        out = tmp_path / "out"
        args = [
            "pipeline",
            "--queries", str(FIXTURES / "queries.txt"),
            "--corpus", str(FIXTURES / "corpus_1000.jsonl"),
            "--online",
            "--out-dir", str(out),
        ]
        assert main(args) == 0
        sidecar = json.loads((out / "run_config.json").read_text())
        assert sidecar["online"] is False
        assert sidecar["offline_forced"] is True
        stats = json.loads((out / "stats.json").read_text())
        # short links stay unexpanded, so uniqueness differs from 0.48
        assert stats["unique_links_fraction"] != 0.480

    def test_missing_corpus(self, tmp_path):
        code = self.run_pipeline(tmp_path / "out", corpus=tmp_path / "nope.jsonl")
        assert code == 2

    def test_rejects_reported(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            json.dumps({"id": "m1", "author": "a", "timestamp": "2016-05-01T00:00:00Z",
                        "text": "market rates update"}) + "\n{broken\n"
        )
        out = tmp_path / "out"
        assert self.run_pipeline(out, corpus=corpus) == 0
        rejects = (out / "rejects.jsonl").read_text().splitlines()
        assert len(rejects) == 1
        assert json.loads(rejects[0])["line_no"] == 2

    def test_unclosed_ipv6_bracket_is_a_failed_link(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"m{i}", "author": "a", "timestamp": "2016-05-01T00:00:00Z",
                        "text": f"market rates update {url}"}) + "\n"
            for i, url in enumerate(["http://[::1", "https://news.test/a"])
        ))
        out = tmp_path / "out"
        assert self.run_pipeline(out, corpus=corpus) == 0
        resolved = [json.loads(l) for l in (out / "resolved.jsonl").read_text().splitlines()]
        assert [(r["raw_url"], r["status"]) for r in resolved] == [
            ("http://[::1", "fetch_failed"), ("https://news.test/a", "not_shortened"),
        ]
        exported = [json.loads(l)["url"] for l in (out / "export.jsonl").read_text().splitlines()]
        assert exported == ["https://news.test/a"]

    @pytest.mark.parametrize("flags, named", [
        (["--top", "0"], "--top"),
        (["--max-depth", "-1"], "--max-depth"),
        (["--max-in-flight", "0"], "--max-in-flight"),
        (["--max-in-flight", "-1"], "--max-in-flight"),
    ])
    def test_bad_flag_values_exit_two(self, tmp_path, capsys, flags, named):
        assert self.run_pipeline(tmp_path / "out", extra=flags) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mapping", [
        ["http://bit.ly/a", "https://target.test/"],
        {"http://bit.ly/a": 5},
    ])
    def test_redirect_map_not_an_object_exits_two(self, tmp_path, capsys, mapping):
        redirect = tmp_path / "map.json"
        redirect.write_text(json.dumps(mapping))
        assert self.run_pipeline(tmp_path / "out", redirect=redirect) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "redirect map" in err

    def test_registry_line_not_a_url_exits_two(self, tmp_path, capsys):
        registry = tmp_path / "registry.txt"
        registry.write_text("# bases\nhttp://bit.ly/\nnotaurl\n")
        out = tmp_path / "out"
        assert self.run_pipeline(out, extra=["--shortener-registry", str(registry)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "line 3" in err and "notaurl" in err
        assert not out.exists()

    def test_timestamp_out_of_range_in_utc_is_a_reject(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": f"m{i}", "author": "a", "timestamp": ts,
                        "text": "market rates update"}) + "\n"
            for i, ts in enumerate(["0001-01-01T00:00:00+01:00", "2016-05-01T00:00:00Z",
                                    "9999-12-31T23:59:59-01:00"])
        ))
        out = tmp_path / "out"
        assert self.run_pipeline(out, corpus=corpus) == 0
        rejects = [json.loads(l) for l in (out / "rejects.jsonl").read_text().splitlines()]
        assert [(r["line_no"], r["reason"]) for r in rejects] == [
            (1, "bad timestamp: '0001-01-01T00:00:00+01:00'"),
            (3, "bad timestamp: '9999-12-31T23:59:59-01:00'"),
        ]
        assert json.loads((out / "stats.json").read_text())["n_matched"] == 1

    def test_line_not_utf8_is_a_reject(self, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("market rates\n")
        good = {"id": "m1", "author": "a", "timestamp": "2016-05-01T00:00:00Z",
                "text": "market rates caf\u00e9"}
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(json.dumps(good, ensure_ascii=False).encode("utf-8") + b"\n"
                           + json.dumps({**good, "id": "m2"}).encode().replace(b"caf", b"\xff")
                           + b"\n")
        out = tmp_path / "out"
        assert main(["pipeline", "--queries", str(queries), "--corpus", str(corpus),
                     "--out-dir", str(out)]) == 0
        rejects = [json.loads(line) for line in (out / "rejects.jsonl").read_text().splitlines()]
        assert [(r["line_no"], r["reason"]) for r in rejects] == [(2, "invalid UTF-8: byte 0xff")]
        matched = [json.loads(line) for line in (out / "matched.jsonl").read_text().splitlines()]
        assert [(m["id"], m["text"]) for m in matched] == [("m1", "market rates caf\u00e9")]

    def test_year_below_1000_written_with_four_digits(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({
            "id": "m1", "author": "a", "timestamp": "0999-01-01T00:00:00Z",
            "text": "market rates update https://news.test/a",
        }) + "\n")
        out = tmp_path / "out"
        assert self.run_pipeline(out, corpus=corpus) == 0
        matched = json.loads((out / "matched.jsonl").read_text())
        exported = json.loads((out / "export.jsonl").read_text())
        assert matched["timestamp"] == exported["first_seen"] == "0999-01-01T00:00:00Z"


_FUZZ_QUERIES = "market rates\nİstanbul\nstraße\n"
_FUZZ_REDIRECTS = {
    "http://bit.ly/a": "https://news.test/final",
    "http://bit.ly/hop": "http://bit.ly/a",
    "http://bit.ly/loop": "http://bit.ly/loop",
    "http://bit.ly/dead": None,
}
_FUZZ_WORDS = st.sampled_from([
    "market", "RATES", "İstanbul", "STRASSE", "bank", "http://bit.ly/a", "http://bit.ly/hop",
    "http://bit.ly/loop", "http://bit.ly/dead", "https://news.test/x?q=1", "http://[::1",
    "https://youtu.be/v", "(https://wire.test/a).",
])
_FUZZ_MESSAGE = st.fixed_dictionaries(
    {
        "id": st.one_of(st.sampled_from(["m1", "m2", "m3"]), st.integers()),
        "author": st.text(max_size=3),
        "timestamp": st.one_of(
            st.just("2016-05-01T00:00:00Z"),
            st.tuples(
                # instants near either end of the datetime range, and any other
                st.one_of(st.datetimes(max_value=datetime(1, 1, 2)),
                          st.datetimes(min_value=datetime(9999, 12, 31)),
                          st.datetimes()),
                st.sampled_from(["", "Z", "+01:00", "-01:00", "+23:59", "-23:59"]),
            ).map(lambda t: t[0].isoformat() + t[1]),
            st.text(max_size=5),
        ),
        "text": st.lists(st.one_of(_FUZZ_WORDS, st.text(max_size=4)), max_size=8).map(" ".join),
    },
    optional={"extra": st.text(max_size=3)},
)
_FUZZ_LINE = st.one_of(_FUZZ_MESSAGE.map(json.dumps), st.text(max_size=30))
# Corpus lines as bytes: UTF-8 text, or any bytes at all.
_FUZZ_RAW_LINE = st.one_of(_FUZZ_LINE.map(str.encode), st.binary(max_size=30))


class TestPipelineFuzz:
    """Arbitrary corpora run offline: no crash, and reruns are byte-identical."""

    @staticmethod
    def run(root: Path, name: str):
        out = root / name
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([
                "pipeline",
                "--queries", str(root / "queries.txt"),
                "--corpus", str(root / "corpus.jsonl"),
                "--redirect-map", str(root / "redirects.json"),
                "--max-depth", "3",
                "--out-dir", str(out),
            ])
        tree = read_tree(out)
        tree.pop("run_config.json", None)  # holds the output path
        return code, stderr.getvalue(), tree

    @given(st.lists(_FUZZ_RAW_LINE, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_never_crashes_and_reruns_identically(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "queries.txt").write_text(_FUZZ_QUERIES, encoding="utf-8")
            (root / "redirects.json").write_text(json.dumps(_FUZZ_REDIRECTS))
            (root / "corpus.jsonl").write_bytes(b"\n".join(lines))
            first = self.run(root, "a")
            second = self.run(root, "b")
        code, err, tree = first
        assert code == 0 and "Traceback" not in err, err
        assert second == first


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


# Numbers near and beyond the ends of the float range, and ordinary ones.
_EXTREME = st.sampled_from([0, -1, 1, 2.5, 1e-320, 5e-324, 1e-300, 1e300, 1.7e308, 1000,
                            10**400, "nan", "inf", "-Infinity", "1e400", "2"])
_NUMBER = st.one_of(_EXTREME, st.floats(), st.integers(), st.floats(0.01, 100.0))
_JSON_ANY = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=4), _NUMBER),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
_FIT_FIELDS = ("log_likelihood", "n_samples", "ks_statistic", "n_tail")
_FIT_FILE = st.one_of(
    *(
        st.fixed_dictionaries(
            {"distribution": st.just(name), **{key: _NUMBER for key in required}},
            optional={key: st.one_of(_NUMBER, _JSON_ANY) for key in _FIT_FIELDS},
        ).map(json.dumps)
        for name, required in (("weibull", ("k", "lambda")), ("powerlaw", ("alpha", "xmin")))
    ),
    _JSON_ANY.map(json.dumps),
    st.text(max_size=20),
)
_COUNT = st.one_of(st.integers(1, 10**6), _EXTREME, st.floats())
_SAMPLE_FILE = st.one_of(
    st.lists(_COUNT.map(str), min_size=8, max_size=40),
    st.lists(st.tuples(st.text("abc", min_size=1, max_size=3), _COUNT.map(str))
             .map(" ".join), min_size=8, max_size=40),
    st.lists(st.one_of(_COUNT.map(str), st.text(max_size=6)), max_size=40),
).map("\n".join)


class TestInputFileFuzz:
    """fit, compare and plot-points on arbitrary fit and sample files: exit 0 or 2
    with no traceback, and only strict JSON (no NaN or Infinity) written."""

    @staticmethod
    def run(argv):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        return code, stderr.getvalue()

    @given(fit_text=_FIT_FILE, samples=_SAMPLE_FILE)
    @settings(max_examples=150, deadline=None)
    def test_exit_zero_or_two_and_strict_json(self, fit_text, samples):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "fit.json").write_text(fit_text, encoding="utf-8")
            (root / "samples.txt").write_text(samples, encoding="utf-8")
            for argv, out in (
                (["fit", "weibull", "--input", "samples.txt"], "weibull.json"),
                (["fit", "powerlaw", "--input", "samples.txt"], "powerlaw.json"),
                (["compare", "--empirical", "samples.txt", "--baseline-fit", "fit.json"],
                 "report.json"),
                (["plot-points", "--fit", "fit.json", "--x-max", "50"], "curve.csv"),
            ):
                argv = [a if not a.endswith((".json", ".txt")) else str(root / a) for a in argv]
                code, err = self.run([*argv, "--out", str(root / out)])
                assert code in (0, 2) and "Traceback" not in err, (argv, err)
                assert err.count("\n") == (code == 2), err
                if code == 0 and out.endswith(".json"):
                    json.loads((root / out).read_text(), parse_constant=_no_constant)
                if code == 0 and out.endswith(".csv"):
                    rows = (root / out).read_text().splitlines()[1:]
                    assert all(not math.isnan(float(y)) for y in
                               (row.split(",")[1] for row in rows)), rows


_FIT_FILES = {
    "weibull": {"distribution": "weibull", "k": 1.9, "lambda": 180.0, "log_likelihood": 0.0,
                "n_samples": 100, "ks_statistic": 0.0},
    "powerlaw": {"distribution": "powerlaw", "alpha": 2.5, "xmin": 1, "log_likelihood": 0.0,
                 "n_tail": 10},
}
# A fit-file field keeps its JSON type, as a --config field does: no string
# is converted (numeric or not), and an integer field takes no float, not
# even an integral one.
_WRONG_TYPE_FIELDS = pytest.mark.parametrize("dist, key, value", [
    ("weibull", "k", "1_9"), ("weibull", "lambda", " 180 "), ("weibull", "n_samples", "12"),
    ("weibull", "k", "nan"), ("weibull", "lambda", "inf"), ("weibull", "ks_statistic", "nan"),
    ("weibull", "n_samples", 1e300), ("powerlaw", "alpha", "2.5"), ("powerlaw", "alpha", "nan"),
    ("powerlaw", "alpha", "inf"), ("powerlaw", "xmin", "inf"), ("powerlaw", "xmin", 2.0),
])
# The distribution a fit file names picks its type, whatever keys it holds.
_DISAGREEING_DISTRIBUTION = pytest.mark.parametrize("name, named", [
    ("powerlaw", "alpha"), ("gamma", "distribution"), (None, "distribution"),
])


def _assert_bad_fit_file(capsys, out: Path, code: int, *named: str) -> None:
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: bad fit file "), err
    assert all(word in err for word in named), err
    assert not out.exists() and not Path(f"{out}.run.json").exists()


class TestCompare:
    def _baseline(self, tmp_path):
        fit = tmp_path / "baseline.json"
        fit.write_text(json.dumps({"distribution": "weibull", "k": 1.9, "lambda": 180.0,
                                   "log_likelihood": 0.0, "n_samples": 100,
                                   "ks_statistic": 0.0}))
        return fit

    def test_baseline_counts_not_flagged(self, tmp_path):
        counts = [max(1, int(round(v))) for v in weibull_samples(1.9, 180.0, 400, 42)]
        src = tmp_path / "counts.txt"
        src.write_text("".join(f"{c}\n" for c in counts))
        out = tmp_path / "report.json"
        assert main(["compare", "--empirical", str(src),
                     "--baseline-fit", str(self._baseline(tmp_path)),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["flagged"] is False
        assert report["threshold"] == pytest.approx(1.36 / math.sqrt(400))

    def test_keyed_outlier_flagged_in_list(self, tmp_path):
        counts = [max(1, int(round(v))) for v in weibull_samples(1.9, 180.0, 300, 7)]
        src = tmp_path / "counts.txt"
        src.write_text(
            "".join(f"res{i:03d} {c}\n" for i, c in enumerate(counts))
            + "amplified 50000\n"
        )
        out = tmp_path / "report.json"
        assert main(["compare", "--empirical", str(src),
                     "--baseline-fit", str(self._baseline(tmp_path)),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["top_outliers"][0]["key"] == "amplified"

    def test_baseline_fit_not_an_object_exits_two(self, tmp_path, capsys):
        src = tmp_path / "counts.txt"
        src.write_text("".join(f"{i}\n" for i in range(1, 30)))
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps([1.9, 180.0]))
        assert main(["compare", "--empirical", str(src), "--baseline-fit", str(fit),
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fit file" in err

    @pytest.mark.parametrize("field, value", [
        ("k", float("nan")), ("k", 0), ("lambda", float("inf")), ("lambda", -1.0),
        ("log_likelihood", float("-inf")), ("ks_statistic", float("nan")),
    ])
    def test_fit_parameter_out_of_range_exits_two(self, tmp_path, capsys, field, value):
        src = tmp_path / "counts.txt"
        src.write_text("".join(f"{i}\n" for i in range(1, 30)))
        fit = self._baseline(tmp_path)
        fit.write_text(json.dumps({**json.loads(fit.read_text()), field: value}))
        out = tmp_path / "r.json"
        assert main(["compare", "--empirical", str(src), "--baseline-fit", str(fit),
                     "--out", str(out)]) == 2
        assert "out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields", [
        {"alpha": float("nan")}, {"alpha": 1.0}, {"alpha": float("inf")}, {"xmin": 0},
        {"xmin": -1},
    ])
    def test_powerlaw_parameter_out_of_range_exits_two(self, tmp_path, capsys, fields):
        src = tmp_path / "counts.txt"
        src.write_text("".join(f"{i}\n" for i in range(1, 30)))
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps({"distribution": "powerlaw", "alpha": 2.5, "xmin": 1,
                                   **fields}))
        assert main(["compare", "--empirical", str(src), "--baseline-fit", str(fit),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        {"distribution": "powerlaw", "alpha": 2.5, "xmin": 2.7},
        {"distribution": "powerlaw", "alpha": 2.5, "xmin": 1, "n_tail": 10.5},
        {"distribution": "weibull", "k": 1.9, "lambda": 180.0, "n_samples": 99.5},
        {"distribution": "powerlaw", "alpha": 2.5, "xmin": True},
        {"distribution": "powerlaw", "alpha": 2.5, "xmin": 1, "n_tail": False},
        {"distribution": "weibull", "k": True, "lambda": 180.0},
        {"distribution": "weibull", "k": 1.9, "lambda": True},
        {"distribution": "weibull", "k": 1.9, "lambda": 180.0, "n_samples": False},
        {"distribution": "weibull", "k": 1.9, "lambda": 180.0, "ks_statistic": False},
        {"distribution": "weibull", "k": 1.9, "lambda": 180.0, "n_samples": None},
        {"distribution": "powerlaw", "alpha": 2.5, "xmin": 1, "n_tail": None},
    ])
    def test_fraction_in_integer_field_boolean_or_null_exits_two(self, tmp_path, capsys, fields):
        # int() would cut 2.7 to 2, float(True) is 1.0, and a null count read as 0.
        src = tmp_path / "counts.txt"
        src.write_text("".join(f"{i}\n" for i in range(1, 30)))
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(fields))
        out = tmp_path / "r.json"
        assert main(["compare", "--empirical", str(src), "--baseline-fit", str(fit),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad fit file" in err, err
        assert not out.exists()

    def _compare(self, tmp_path, fit_obj) -> tuple[int, Path]:
        src = tmp_path / "counts.txt"
        src.write_text("".join(f"{i}\n" for i in range(1, 30)))
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(fit_obj))
        out = tmp_path / "r.json"
        return main(["compare", "--empirical", str(src), "--baseline-fit", str(fit),
                     "--out", str(out)]), out

    @_WRONG_TYPE_FIELDS
    def test_fit_field_of_the_wrong_type_exits_two(self, tmp_path, capsys, dist, key, value):
        code, out = self._compare(tmp_path, {**_FIT_FILES[dist], key: value})
        _assert_bad_fit_file(capsys, out, code, f"bad value for {key}: {value!r}")

    @_DISAGREEING_DISTRIBUTION
    def test_distribution_disagreeing_with_keys_exits_two(self, tmp_path, capsys, name, named):
        code, out = self._compare(tmp_path, {**_FIT_FILES["weibull"], "distribution": name})
        _assert_bad_fit_file(capsys, out, code, named)

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_two(self, tmp_path, threshold):
        src = tmp_path / "counts.txt"
        src.write_text("".join(f"{i}\n" for i in range(1, 30)))
        assert main(["compare", "--empirical", str(src),
                     "--baseline-fit", str(self._baseline(tmp_path)),
                     "--threshold", threshold, "--out", str(tmp_path / "r.json")]) == 2

    def test_repeated_key_exits_two(self, tmp_path, capsys):
        src = tmp_path / "counts.txt"
        src.write_text("a 5\nb 7\na 9\n" + "".join(f"k{i} {i}\n" for i in range(1, 9)))
        out = tmp_path / "r.json"
        assert main(["compare", "--empirical", str(src),
                     "--baseline-fit", str(self._baseline(tmp_path)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: duplicate key 'a' on line 3 (first on line 1)\n")
        assert not out.exists()

    # int() reads these counts as 10.
    @pytest.mark.parametrize("line", ["a 1_0", "j \u0661\u0660", "1_0", "\uff11\uff10"])
    def test_count_with_underscore_or_non_ascii_digit_exits_two(self, tmp_path, capsys, line):
        keyed = " " in line
        src = tmp_path / "counts.txt"
        src.write_text("".join(f"k{i} {i}\n" if keyed else f"{i}\n" for i in range(1, 13))
                       + line + "\n", encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["compare", "--empirical", str(src),
                     "--baseline-fit", str(self._baseline(tmp_path)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: bad count on line 13: {line!r} (expected 'count' or 'key count')\n")
        assert not out.exists()

    def test_too_few_counts(self, tmp_path):
        src = tmp_path / "counts.txt"
        src.write_text("".join(f"{i}\n" for i in range(1, 9)))
        assert main(["compare", "--empirical", str(src),
                     "--baseline-fit", str(self._baseline(tmp_path)),
                     "--out", str(tmp_path / "r.json")]) == 2


class TestPlotPoints:
    def _fit_file(self, tmp_path, k=1.9, lam=180.0):
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps({"distribution": "weibull", "k": k, "lambda": lam,
                                   "log_likelihood": 0.0, "n_samples": 100,
                                   "ks_statistic": 0.0}))
        return fit

    def test_csv_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["plot-points", "--fit", str(self._fit_file(tmp_path)),
                     "--x-max", "720", "--n", "100", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,pdf"
        assert len(lines) == 101
        xs = [float(l.split(",")[0]) for l in lines[1:]]
        ys = [float(l.split(",")[1]) for l in lines[1:]]
        assert xs[0] == 0.0 and xs[-1] == 720.0
        peak_x = xs[ys.index(max(ys))]
        mode = 180.0 * ((1.9 - 1.0) / 1.9) ** (1.0 / 1.9)
        assert abs(peak_x - mode) <= 720.0 / 99

    def test_bad_fit_file(self, tmp_path):
        fit = tmp_path / "fit.json"
        fit.write_text("{not json")
        assert main(["plot-points", "--fit", str(fit), "--x-max", "10",
                     "--out", str(tmp_path / "c.csv")]) == 2

    @pytest.mark.parametrize("k, lam", [(1.9, float("inf")), (float("nan"), 180.0), (1.9, 0.0)])
    def test_fit_parameter_out_of_range_exits_two(self, tmp_path, capsys, k, lam):
        out = tmp_path / "curve.csv"
        assert main(["plot-points", "--fit", str(self._fit_file(tmp_path, k=k, lam=lam)),
                     "--x-max", "10", "--out", str(out)]) == 2
        assert "out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("x_max", ["nan", "inf", "0"])
    def test_x_max_not_positive_and_finite_exits_two(self, tmp_path, x_max):
        assert main(["plot-points", "--fit", str(self._fit_file(tmp_path)),
                     "--x-max", x_max, "--out", str(tmp_path / "c.csv")]) == 2

    def _plot(self, tmp_path, fit_obj) -> tuple[int, Path]:
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(fit_obj))
        out = tmp_path / "c.csv"
        return main(["plot-points", "--fit", str(fit), "--x-max", "10", "--out", str(out)]), out

    @_WRONG_TYPE_FIELDS
    def test_fit_field_of_the_wrong_type_exits_two(self, tmp_path, capsys, dist, key, value):
        code, out = self._plot(tmp_path, {**_FIT_FILES[dist], key: value})
        _assert_bad_fit_file(capsys, out, code, f"bad value for {key}: {value!r}")

    @_DISAGREEING_DISTRIBUTION
    def test_distribution_disagreeing_with_keys_exits_two(self, tmp_path, capsys, name, named):
        code, out = self._plot(tmp_path, {**_FIT_FILES["weibull"], "distribution": name})
        _assert_bad_fit_file(capsys, out, code, named)

    def test_powerlaw_fit_rejected(self, tmp_path):
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps({"distribution": "powerlaw", "alpha": 2.5, "xmin": 1,
                                   "log_likelihood": 0.0, "n_tail": 10}))
        assert main(["plot-points", "--fit", str(fit), "--x-max", "10",
                     "--out", str(tmp_path / "c.csv")]) == 2


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FITS = st.one_of(
    st.builds(WeibullFit, k=_POSITIVE, lam=_POSITIVE, log_likelihood=_FINITE,
              n_samples=st.integers(min_value=0), ks_statistic=_FINITE),
    st.builds(PowerLawFit, alpha=st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
              xmin=st.integers(min_value=1), log_likelihood=_FINITE,
              n_tail=st.integers(min_value=0)),
)


class TestFitFile:
    """The fit file `netmon fit` writes, as compare and plot-points read it."""

    @given(fit=_FITS)
    @settings(max_examples=100, deadline=None)
    def test_written_fit_reads_back_equal(self, fit):
        distribution = "weibull" if isinstance(fit, WeibullFit) else "powerlaw"
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                mock.patch.object(cli_mod, f"fit_{distribution}_mle", lambda *a, **kw: fit):
            samples, out = Path(tmp) / "samples.txt", Path(tmp) / "fit.json"
            samples.write_text("1\n")
            assert main(["fit", distribution, "--input", str(samples), "--out", str(out)]) == 0
            assert cli_mod._load_fit(str(out)) == fit

    @pytest.mark.parametrize("distribution, keys", [
        ("weibull", ["distribution", "k", "lambda", "log_likelihood", "n_samples",
                     "ks_statistic"]),
        ("powerlaw", ["distribution", "alpha", "xmin", "log_likelihood", "n_tail"]),
    ])
    def test_layout_pinned(self, tmp_path, capsys, distribution, keys):
        samples = tmp_path / "samples.txt"
        samples.write_text("".join(f"{2**j}\n" for j in range(14)))
        out = tmp_path / "fit.json"
        assert main(["fit", distribution, "--input", str(samples), "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())) == keys

    def test_sidecar_holds_the_normalized_out_path(self, tmp_path, monkeypatch, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("".join(f"{2**j}\n" for j in range(14)))
        fit = tmp_path / "weibull.json"
        assert main(["fit", "weibull", "--input", str(samples), "--out", str(fit)]) == 0
        for command in (["fit", "weibull", "--input", str(samples)],
                        ["compare", "--empirical", str(samples), "--baseline-fit", str(fit)],
                        ["plot-points", "--fit", str(fit), "--x-max", "10"]):
            (tmp_path / command[0]).mkdir()
            monkeypatch.chdir(tmp_path / command[0])
            capsys.readouterr()
            assert main([*command, "--out", "./sub//w.json"]) == 0
            assert json.loads(Path("sub/w.json.run.json").read_text())["out"] == "sub/w.json"
        assert capsys.readouterr().out.endswith(" curve points -> sub/w.json\n")


class TestExitCodesAndDeterminism:
    def test_internal_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(simulator_mod, "run_simulation", boom)
        code = main(["simulate", "--runs", "1", "--out", str(tmp_path / "out")])
        assert code == 1

    def test_fit_compare_plot_rerun_byte_identical(self, tmp_path):
        samples = tmp_path / "samples.txt"
        samples.write_text("".join(f"{float(v)!r}\n"
                                   for v in weibull_samples(1.9, 3.8, 200, seed=1)))
        counts = tmp_path / "counts.txt"
        counts.write_text("".join(f"{max(1, int(v))}\n"
                                  for v in weibull_samples(1.9, 180.0, 50, seed=2)))
        outputs = {}
        for tag in ("a", "b"):
            fit = tmp_path / f"fit_{tag}.json"
            curve = tmp_path / f"curve_{tag}.csv"
            report = tmp_path / f"report_{tag}.json"
            assert main(["fit", "weibull", "--input", str(samples), "--out", str(fit)]) == 0
            assert main(["plot-points", "--fit", str(fit), "--x-max", "20",
                         "--out", str(curve)]) == 0
            assert main(["compare", "--empirical", str(counts),
                         "--baseline-fit", str(fit), "--out", str(report)]) == 0
            outputs[tag] = (fit.read_bytes(), curve.read_bytes(), report.read_bytes())
        assert outputs["a"] == outputs["b"]


class TestUnusablePaths:
    """A path that cannot be used exits 2 with one error line naming it."""

    def assert_one_error_line(self, capsys, path):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--queries", "--corpus"])
    def test_pipeline_input_is_a_directory(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        args = {"--queries": FIXTURES / "queries.txt", "--corpus": FIXTURES / "corpus_1000.jsonl",
                "--out-dir": out, flag: tmp_path}
        assert main(["pipeline", *(str(x) for pair in args.items() for x in pair)]) == 2
        self.assert_one_error_line(capsys, tmp_path)
        assert not out.exists()

    def test_pipeline_query_file_not_utf8(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_bytes(b"market rates\ncaf\xff\n")
        out = tmp_path / "out"
        assert main(["pipeline", "--queries", str(queries),
                     "--corpus", str(FIXTURES / "corpus_1000.jsonl"),
                     "--out-dir", str(out)]) == 2
        self.assert_one_error_line(capsys, queries)
        assert not out.exists()

    def test_pipeline_out_dir_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        assert main(["pipeline", "--queries", str(FIXTURES / "queries.txt"),
                     "--corpus", str(FIXTURES / "corpus_1000.jsonl"),
                     "--out-dir", str(out)]) == 2
        self.assert_one_error_line(capsys, out)

    def test_simulate_out_names_a_file(self, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("")
        assert main(["simulate", "--runs", "1", "--steps", "5", "--out", str(out)]) == 2
        self.assert_one_error_line(capsys, out)
        assert out.read_text() == ""

    # The move onto the output, or onto its sidecar, fails: the error names
    # that path, not the temporary file, and no temporary file is left.
    # A fit published before its sidecar's move failed stays.
    @pytest.mark.parametrize("blocked, left", [
        ("w.json", ["samples.txt", "w.json"]),
        ("w.json.run.json", ["samples.txt", "w.json", "w.json.run.json"]),
    ], ids=["out_is_a_directory", "sidecar_is_a_directory"])
    def test_fit_output_path_is_a_directory(self, tmp_path, capsys, blocked, left):
        samples = tmp_path / "samples.txt"
        samples.write_text("".join(f"{2**j}\n" for j in range(14)))
        (tmp_path / blocked).mkdir()
        assert main(["fit", "weibull", "--input", str(samples),
                     "--out", str(tmp_path / "w.json")]) == 2
        self.assert_one_error_line(capsys, f"{tmp_path / blocked}: Is a directory")
        assert sorted(os.listdir(tmp_path)) == left
        assert os.listdir(tmp_path / blocked) == []

    # A fit that cannot be written prints no result: the summary line
    # follows the write, as with compare and plot-points.
    @pytest.mark.parametrize("distribution", ["weibull", "powerlaw"])
    def test_fit_out_under_a_file_prints_nothing(self, tmp_path, capsys, distribution):
        samples = tmp_path / "samples.txt"
        samples.write_text("".join(f"{2**j}\n" for j in range(14)))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["fit", distribution, "--input", str(samples),
                     "--out", str(blocker / "fit.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(blocker) in captured.err
        assert sorted(os.listdir(tmp_path)) == ["blocker", "samples.txt"]

    # An --out that names a directory is refused before any file is opened,
    # with one line naming it, for every command that writes one file.
    @pytest.mark.parametrize("out", [".", "", "..", "sub", "sub/", "sub/.", "missing/"])
    @pytest.mark.parametrize("command", ["fit", "compare", "plot-points"])
    def test_output_path_naming_a_directory(self, tmp_path, monkeypatch, capsys, command, out):
        samples = tmp_path / "samples.txt"
        samples.write_text("".join(f"{2**j}\n" for j in range(14)))
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps({"distribution": "weibull", "k": 1.9, "lambda": 180.0}))
        (tmp_path / "work" / "sub").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "work")
        before = sorted(tmp_path.rglob("*"))
        argv = {"fit": ["fit", "weibull", "--input", str(samples)],
                "compare": ["compare", "--empirical", str(samples), "--baseline-fit", str(fit)],
                "plot-points": ["plot-points", "--fit", str(fit), "--x-max", "10"]}[command]
        assert main([*argv, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {out}: Is a directory\n"
        assert sorted(tmp_path.rglob("*")) == before


_PIPELINE = ["pipeline", "--queries", str(FIXTURES / "queries.txt"),
             "--corpus", str(FIXTURES / "corpus_1000.jsonl"),
             "--redirect-map", str(FIXTURES / "redirect_map.json"), "--out-dir"]
_PIPELINE_STAGES = ("load_query_packet", "load_corpus", "dedupe", "match_queries",
                    "rejects_jsonl", "matched_jsonl", "extract_links", "links_jsonl",
                    "resolve_all", "resolved_jsonl", "build_link_records", "link_stats",
                    "rank_resources", "ranking_json", "fetch_manifest",
                    "build_export_records", "export_stream")
# Each command, its argv up to the output directory, and the netmon.cli
# names of the stages it calls.
_DIR_COMMANDS = {
    "simulate": (["simulate", "--runs", "2", "--seed", "1", "--steps", "10", "--out"],
                 ("run_chunks", "life_stats_to_jsonl", "events_to_jsonl")),
    "simulate_no_events": (["simulate", "--runs", "3", "--seed", "2", "--steps", "10",
                            "--no-events", "--out"], ("run_chunks", "life_stats_to_jsonl")),
    "pipeline": (_PIPELINE, _PIPELINE_STAGES),
    "pipeline_host": ([*_PIPELINE[:-1], "--granularity", "host", "--top", "5", "--out-dir"],
                      _PIPELINE_STAGES),
}
# A command, and the stage made to raise in it (None: none).
_DIR_STEP = st.sampled_from(sorted(_DIR_COMMANDS)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from((None, *_DIR_COMMANDS[name][1]))))


def _listing(out: Path) -> dict:
    """Every entry of ``out`` with its bytes; none if there is no ``out``."""
    return {name: (out / name).read_bytes() for name in os.listdir(out)} if out.exists() else {}


class TestOutputSets:
    """simulate and pipeline publish their files together or not at all."""

    @staticmethod
    def run(name: str, out: Path, stage=None) -> int:
        raising = mock.Mock(side_effect=RuntimeError("induced failure"))
        with mock.patch.object(cli_mod, stage, raising) if stage else contextlib.nullcontext(), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main([*_DIR_COMMANDS[name][0], str(out)])

    # The earlier run read a shorter corpus, so each of its files differs.
    @pytest.mark.parametrize("stage", ["resolve_all", "export_stream"])
    def test_failed_pipeline_rerun_leaves_the_earlier_output_set(self, tmp_path, stage):
        corpus = tmp_path / "corpus.jsonl"
        with open(FIXTURES / "corpus_1000.jsonl", encoding="utf-8") as fh:
            corpus.write_text("".join(islice(fh, 300)), encoding="utf-8")
        out = tmp_path / "out"
        argv = [*_PIPELINE, str(out)]
        argv[argv.index("--corpus") + 1] = str(corpus)
        assert main(argv) == 0
        before = _listing(out)
        assert len(before) == 9  # eight outputs and run_config.json
        assert self.run("pipeline", out, stage) == 1
        assert _listing(out) == before

    # After every step the directory holds what a fresh run of the last
    # command that succeeded writes: no file of an earlier or a failed run,
    # and no temporary file.
    @given(steps=st.lists(_DIR_STEP, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_directory_equals_a_fresh_run_of_the_last_success(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            fresh = {}
            for name in {name for name, _ in steps}:
                assert self.run(name, root / name) == 0
                fresh[name] = _listing(root / name)
            out, expected = root / "out", {}
            for name, stage in steps:
                assert self.run(name, out, stage) == (0 if stage is None else 1)
                if stage is None:
                    expected = fresh[name]
                assert _listing(out) == expected, (name, stage)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "netmon", "simulate", "--runs", "1", "--seed", "1",
             "--steps", "10", "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "life_stats.jsonl").exists()

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "netmon", "simulate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


class TestCollectorPauseAndParser:
    """main runs each command with the cyclic collector off, builds its parser once."""

    @pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
    def collector_on(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("case, outcome", [
        ("success", ("return", 0)),
        ("cli_error", ("return", 2)),
        ("missing_corpus", ("return", 2)),
        ("raising_command", ("return", 1)),
        ("usage_error", ("exit", 2)),
        ("help", ("exit", 0)),
    ])
    def test_collector_state_restored_on_every_exit(self, tmp_path, monkeypatch, capsys,
                                                    collector_on, case, outcome):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = str(tmp_path / "out")
        simulate = ["simulate", "--runs", "1", "--steps", "5", "--out", out]
        argv = {
            "success": simulate,
            "cli_error": ["fit", "weibull", "--input", str(empty), "--out", out],
            "missing_corpus": ["pipeline", "--queries", str(FIXTURES / "queries.txt"),
                               "--corpus", str(tmp_path / "missing.jsonl"), "--out-dir", out],
            "raising_command": simulate,
            "usage_error": ["simulate"],
            "help": ["--help"],
        }[case]
        if case == "raising_command":
            def boom(*args, **kwargs):
                raise RuntimeError("induced failure")

            monkeypatch.setattr(simulator_mod, "run_simulation", boom)
        try:
            got = ("return", main(argv))
        except SystemExit as exc:
            got = ("exit", exc.code)
        capsys.readouterr()
        assert got == outcome
        assert gc.isenabled() is collector_on

    def test_command_runs_with_collector_off_and_patch_reaches_it(
            self, tmp_path, monkeypatch, capsys, collector_on):
        argv = ["fit", "weibull", "--input", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "fit.json")]
        assert main(argv) == 2  # the real cmd_fit: no such input file
        seen = []

        def fake_fit(args):
            seen.append((args.distribution, gc.isenabled()))
            return 0

        # patched after a first call, so after the parser was built
        monkeypatch.setattr(cli_mod, "cmd_fit", fake_fit)
        assert main(argv) == 0
        assert seen == [("weibull", False)]
        assert gc.isenabled() is collector_on

    def test_parser_built_once(self, tmp_path, capsys):
        from netmon.cli import build_parser

        build_parser.cache_clear()
        argv = ["fit", "weibull", "--input", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "fit.json")]
        assert main(argv) == main(argv) == 2
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cyclic_garbage_does_not_grow_with_input(self, tmp_path, capsys):
        # The premise of the pause: what a run leaves for the collector is a
        # constant, so pausing it costs no memory that grows with the input.
        lines = (FIXTURES / "corpus_1000.jsonl").read_text().splitlines(keepends=True)

        def pipeline(copies: int) -> list:
            corpus = tmp_path / f"copies{copies}.jsonl"
            corpus.write_text("".join(line.replace('"id": "', f'"id": "c{c}-', 1)
                                      for c in range(copies) for line in lines))
            return ["pipeline", "--queries", str(FIXTURES / "queries.txt"),
                    "--corpus", str(corpus), "--redirect-map", str(FIXTURES / "redirect_map.json"),
                    "--out-dir", str(tmp_path / f"pipeline{copies}")]

        def simulate(runs: int) -> list:
            return ["simulate", "--runs", str(runs), "--out", str(tmp_path / f"simulate{runs}")]

        def cyclic_garbage(argv: list) -> int:
            gc.collect()
            assert main(argv) == 0
            return gc.collect()

        for small, large in ((pipeline(1), pipeline(5)), (simulate(2), simulate(20))):
            cyclic_garbage(small)  # first-call allocations (caches, lazy imports)
            assert cyclic_garbage(small) == cyclic_garbage(large)
