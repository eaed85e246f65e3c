"""The four benchmark workloads and the layer metrics read from a trace.

Each workload builds its inputs from the seed, runs one timed operation
per repetition, and checks that operation's outputs afterwards.  A
repetition reports how many operations it attempted, how many failed
(an injected failure that netmon handled counts here too) and which
output checks did not hold.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from netmon import cli, distfit, simulator

import inputs
from tracer import Tracer

# A simulation workload runs in pieces; piece p of seed s uses replicate
# seeds (s * MAX_PIECES + p) * runs onward, so no two pieces or seeds
# share a run.
MAX_PIECES = 1000
WEIBULL_K_BAND = (1.7, 2.1)          # acceptance criterion A1
OK_STATUSES = ("resolved", "not_shortened")
# Warm-up runs at one fixed seed, so set-up time does not depend on how
# much work a small simulation happens to do at the workload's seed.
WARM_SEED = 0


# Offline resolution is pure Python under the GIL, so extra resolver
# threads only contend: on a 2-CPU machine two threads ran a distinct-URL
# piece about 30% slower than one, and the time of a piece then tracked
# the reference loop far worse (correlation 0.5 instead of 0.78).
MAX_IN_FLIGHT = 1


@dataclass
class Outcome:
    """Operations of one repetition; a failed output check fails them all."""

    attempted: int
    failed: int = 0            # operations that failed, handled or not
    injected: int = 0          # failures the inputs were built to cause
    problems: list[str] = field(default_factory=list)

    @property
    def counted_failed(self) -> int:
        return self.attempted if self.problems else self.failed

    @property
    def unexpected(self) -> int:
        """Failures that were not injected."""
        return self.attempted if self.problems else self.failed - self.injected


# ------------------------------------------------------------ simulations

class SimCalibrated:
    """``replicate`` of the calibrated default config, then the A1 fit."""

    name = "sim_calibrated"
    messages = 0

    def __init__(self, runs: int, pieces: int = 1):
        self.runs = runs
        self.pieces = pieces
        self._pooled_counts: dict[int, list[int]] = {}

    def build(self, directory: Path, seed: int) -> None:
        self.seed = seed

    def warm_up(self, directory: Path) -> None:
        small = SimCalibrated(runs=20)
        small.build(directory, WARM_SEED)
        small.run(MAX_PIECES - 1, directory)

    def run(self, piece: int, out: Path):
        """(piece, pooled counts or None, operations that raised)."""
        base = (self.seed * MAX_PIECES + piece) * self.runs
        try:
            pooled = simulator.replicate(
                simulator.calibrated_default_config(seed=base), self.runs
            )
        except Exception:
            return piece, None, self.runs + 1
        counts = [s.total_reposts for s in pooled if not s.censored and s.total_reposts > 0]
        try:
            distfit.fit_weibull_mle(counts)
        except Exception:
            return piece, counts, 1
        return piece, counts, 0

    def check(self, result, out: Path) -> Outcome:
        piece, counts, failed = result
        if counts is not None:
            self._pooled_counts[piece] = counts
        return Outcome(attempted=self.runs + 1, failed=failed)

    def finish(self) -> list[str]:
        """A1's band on the fit of every piece's counts pooled together."""
        counts = [c for piece in sorted(self._pooled_counts) for c in self._pooled_counts[piece]]
        if len(counts) < distfit.MIN_SAMPLES:
            return ["too few completed agents to check the Weibull shape"]
        k = distfit.fit_weibull_mle(counts).k
        lo, hi = WEIBULL_K_BAND
        return [] if lo <= k <= hi else [f"pooled Weibull k={k:.4f} outside [{lo}, {hi}]"]


class SimLinkedCli:
    """The modeler's CLI workflow on the A6 link parameters."""

    name = "sim_linked_cli"
    messages = 0

    def __init__(self, runs: int, pieces: int = 1):
        self.runs = runs
        self.pieces = pieces

    def build(self, directory: Path, seed: int) -> None:
        self.seed = seed
        self.config = inputs.write_linked_config(directory)

    def warm_up(self, directory: Path) -> None:
        small = SimLinkedCli(runs=10)
        small.build(directory, WARM_SEED)
        small.run(MAX_PIECES - 1, directory / "out")

    def run(self, piece: int, out: Path):
        base = (self.seed * MAX_PIECES + piece) * self.runs
        sim_dir = out / "sim"
        codes = [cli.main([
            "simulate", "--config", str(self.config), "--runs", str(self.runs),
            "--seed", str(base), "--out", str(sim_dir),
        ])]
        if codes[0] != 0:
            return codes, None
        stats = simulator.life_stats_from_jsonl((sim_dir / "life_stats.jsonl").read_text())
        by_link = simulator.repost_counts_by_link(stats)
        (out / "lifetimes.txt").write_text(
            "".join(f"{s.lifetime}\n" for s in stats if not s.censored)
        )
        (out / "link_counts.txt").write_text(
            "".join(f"{c}\n" for c in by_link.values() if c >= 1)
        )
        (out / "link_counts_keyed.txt").write_text(
            "".join(f"{key} {c}\n" for key, c in by_link.items() if c >= 1)
        )
        for argv in (
            ["fit", "weibull", "--input", str(out / "lifetimes.txt"),
             "--out", str(out / "weibull.json")],
            ["fit", "powerlaw", "--input", str(out / "link_counts.txt"), "--xmin", "1",
             "--out", str(out / "powerlaw.json")],
            ["compare", "--empirical", str(out / "link_counts_keyed.txt"),
             "--baseline-fit", str(out / "powerlaw.json"), "--out", str(out / "compare.json")],
        ):
            codes.append(cli.main(argv))
        return codes, stats

    def check(self, result, out: Path) -> Outcome:
        codes, stats = result
        outcome = Outcome(attempted=self.runs + 3)
        if codes[0] != 0:
            outcome.failed = outcome.attempted
            outcome.problems.append(f"simulate exited {codes[0]}")
            return outcome
        for step, code in zip(("fit weibull", "fit powerlaw", "compare"), codes[1:]):
            if code != 0:
                outcome.failed += 1
                outcome.problems.append(f"{step} exited {code}")
        # Every agent is born by a self_generate or repost event, every like
        # and repost is an event, and every completed agent has a death.
        events = (out / "sim" / "events.jsonl").read_text()
        n = {kind: events.count(f'"kind": "{kind}"')
             for kind in ("self_generate", "repost", "like", "death")}
        expected = {
            "agents": len(stats),
            "reposts": sum(s.total_reposts for s in stats),
            "likes": sum(s.total_likes for s in stats),
            "deaths": sum(not s.censored for s in stats),
        }
        seen = {
            "agents": n["self_generate"] + n["repost"],
            "reposts": n["repost"],
            "likes": n["like"],
            "deaths": n["death"],
        }
        for key, value in expected.items():
            if seen[key] != value:
                outcome.problems.append(
                    f"events.jsonl has {seen[key]} {key}, life_stats.jsonl {value}"
                )
        return outcome

    def finish(self) -> list[str]:
        return []


# -------------------------------------------------------------- pipelines

class Pipeline:
    """``netmon pipeline`` offline, once per generated corpus (piece)."""

    def __init__(self, name: str, copies: int, distinct_urls: bool, pieces: int = 1):
        self.name = name
        self.copies = copies
        self.distinct_urls = distinct_urls
        self.pieces = pieces
        self.messages = pieces * copies * inputs.N_MESSAGES

    def build(self, directory: Path, seed: int) -> None:
        self.seed = seed
        self.dirs = [directory / f"piece{p}" for p in range(self.pieces)]
        self.expect = []
        for p, d in enumerate(self.dirs):
            d.mkdir()
            self.expect.append(inputs.write_corpus(
                d, seed * MAX_PIECES + p, self.copies, self.distinct_urls
            ))

    def warm_up(self, directory: Path) -> None:
        small = Pipeline(self.name, 1, self.distinct_urls)
        small.build(directory, WARM_SEED)
        small.run(0, directory / "out")

    def run(self, piece: int, out: Path):
        d = self.dirs[piece]
        return piece, cli.main([
            "pipeline",
            "--queries", str(d / "queries.txt"),
            "--corpus", str(d / "corpus.jsonl"),
            "--redirect-map", str(d / "redirects.json"),
            "--max-in-flight", str(MAX_IN_FLIGHT),
            "--out-dir", str(out),
        ])

    def check(self, result, out: Path) -> Outcome:
        piece, code = result
        expect = self.expect[piece]
        outcome = Outcome(
            attempted=expect.lines + expect.distinct_raw_urls,
            injected=expect.rejected + sum(
                n for status, n in expect.statuses.items() if status not in OK_STATUSES
            ),
        )
        if code != 0:
            outcome.failed = outcome.attempted
            outcome.problems.append(f"pipeline exited {code}")
            return outcome
        stats = json.loads((out / "stats.json").read_text())
        statuses: dict[str, int] = {}
        with open(out / "resolved.jsonl") as fh:
            for line in fh:
                status = json.loads(line)["status"]
                statuses[status] = statuses.get(status, 0) + 1
        n_rejects = sum(1 for _ in open(out / "rejects.jsonl"))
        outcome.failed = n_rejects + sum(
            n for status, n in statuses.items() if status not in OK_STATUSES
        )

        kept = expect.lines - expect.rejected
        wanted = {
            "n_messages": kept,
            "n_rejected": expect.rejected,
            "n_links": expect.links,
            "messages_with_links_fraction": expect.messages_with_links / kept,
        }
        if not self.distinct_urls:
            wanted["unique_links_fraction"] = inputs.N_FINALS / expect.links
        for key, value in wanted.items():
            if stats.get(key) != value:
                outcome.problems.append(f"stats.json {key}={stats.get(key)!r}, want {value!r}")
        if n_rejects != expect.rejected:
            outcome.problems.append(f"{n_rejects} rejects, want {expect.rejected}")
        if statuses != expect.statuses:
            outcome.problems.append(f"status histogram {statuses}, want {expect.statuses}")
        if not self.distinct_urls:
            n_ranked = len(json.loads((out / "ranking.json").read_text()))
            if n_ranked != inputs.N_FINALS:
                outcome.problems.append(f"{n_ranked} ranked resources, want {inputs.N_FINALS}")
        return outcome

    def finish(self) -> list[str]:
        return []


def make(name: str):
    """The workload called ``name`` at its benchmark size."""
    if name == "sim_calibrated":
        return SimCalibrated(runs=50, pieces=20)
    if name == "sim_linked_cli":
        return SimLinkedCli(runs=15, pieces=10)
    if name == "pipeline_shared":
        return Pipeline(name, copies=20, distinct_urls=False)
    if name == "pipeline_distinct":
        return Pipeline(name, copies=2, distinct_urls=True, pieces=5)
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------- tracing

def _count_runs(tracer: Tracer, result) -> None:
    stats = result.stats
    tracer.add("simulator.runs")
    tracer.add("simulator.agents", len(stats))
    tracer.add("simulator.agent_steps",
               sum(s.lifetime for s in stats) - sum(s.censored for s in stats))
    tracer.add("simulator.truncated_runs", int(result.truncated))
    tracer.add("simulator.events", len(result.events))


def _count_corpus(tracer: Tracer, result) -> None:
    messages, rejects = result
    tracer.add("ingest.lines", len(messages) + len(rejects))
    tracer.add("ingest.rejected", len(rejects))


def _count_resolved(tracer: Tracer, result) -> None:
    tracer.add("linknet.distinct_raw_urls", len(result))
    for r in result.values():
        tracer.add(f"linknet.status.{r.status}")


def _count_ranked(tracer: Tracer, result) -> None:
    # cmd_pipeline ranks once at document granularity.
    tracer.add("pipeline.resources", len(result))


# (target the caller binds, span name, counter hook)
SPANS = (
    ("netmon.cli.cmd_simulate", "cli.cmd_simulate", None),
    ("netmon.cli.cmd_pipeline", "cli.cmd_pipeline", None),
    ("netmon.simulator.replicate", "simulator.replicate", None),
    ("netmon.simulator.run_simulation", "simulator.run_simulation", _count_runs),
    ("netmon.cli.run_simulation", "simulator.run_simulation", _count_runs),
    ("netmon.cli.life_stats_to_jsonl", "simulator.life_stats_to_jsonl", None),
    ("netmon.simulator.life_stats_from_jsonl", "simulator.life_stats_from_jsonl", None),
    ("netmon.distfit.fit_weibull_mle", "distfit.fit_weibull_mle", None),
    ("netmon.cli.fit_weibull_mle", "distfit.fit_weibull_mle", None),
    ("netmon.cli.fit_powerlaw_mle", "distfit.fit_powerlaw_mle", None),
    ("netmon.distfit.ks_statistic", "distfit.ks_statistic", None),
    ("netmon.pipeline.ks_statistic", "distfit.ks_statistic", None),
    ("netmon.cli.compare_to_model", "pipeline.compare_to_model", None),
    ("netmon.cli.load_corpus", "ingest.load_corpus", _count_corpus),
    ("netmon.cli.dedupe", "ingest.dedupe", None),
    ("netmon.cli.match_queries", "ingest.match_queries",
     lambda t, r: t.add("ingest.matched", len(r))),
    ("netmon.cli.extract_links", "linknet.extract_links",
     lambda t, r: t.add("linknet.links", len(r))),
    ("netmon.cli.resolve_all", "linknet.resolve_all", _count_resolved),
    ("netmon.cli.build_link_records", "linknet.build_link_records", None),
    ("netmon.cli.link_stats", "linknet.link_stats", None),
    ("netmon.cli.rank_resources", "pipeline.rank_resources", _count_ranked),
    ("netmon.cli.fetch_manifest", "pipeline.fetch_manifest", None),
    ("netmon.cli.build_export_records", "pipeline.build_export_records",
     lambda t, r: t.add("pipeline.export_lines", len(r))),
    ("netmon.cli.export_stream", "pipeline.export_stream", None),
)

# Calls too frequent to time one by one are only counted.
COUNTS = (
    ("netmon.simulator.effective_repost_prob", "diffusion.kernel_calls"),
    ("netmon.linknet.urlsplit", "linknet.url_parses"),
)
FETCHER = ("netmon.cli.OfflineFetcher", "linknet.fetches")


def install(tracer: Tracer) -> None:
    """Wrap every traced name; ``tracer.restore()`` undoes it."""
    for target, name, hook in SPANS:
        tracer.span(target, name, hook)
    for target, name in COUNTS:
        tracer.count(target, name)
    tracer.count_instance_calls(*FETCHER)


STATUSES = ("resolved", "not_shortened", "fetch_failed", "loop_detected", "depth_exceeded")

# Layer metrics that are exact counts; every other one is a time.
COUNT_METRICS = (
    "simulator.runs", "simulator.agents", "simulator.agent_steps",
    "simulator.truncated_runs", "simulator.events",
    "diffusion.kernel_calls", "diffusion.kernel_calls_per_agent_step",
    "ingest.lines", "ingest.rejected", "ingest.matched",
    "linknet.links", "linknet.distinct_raw_urls", "linknet.fetches",
    "linknet.url_parses", "linknet.url_parses_per_link",
    *(f"linknet.status.{s}" for s in STATUSES),
    "pipeline.resources", "pipeline.export_lines",
)

LAYER_UNITS = {
    **{name: "count" for name in COUNT_METRICS},
    "diffusion.kernel_calls_per_agent_step": "ratio",
    "linknet.url_parses_per_link": "ratio",
    "simulator.run_s": "s",
    "simulator.ns_per_agent_step": "ns",
    "simulator.run_ms_p50": "ms",
    "simulator.run_ms_p99": "ms",
    "simulator.replicate_self_s": "s",
    "simulator.life_stats_write_s": "s",
    "simulator.life_stats_read_s": "s",
    "cli.simulate_self_s": "s",
    "distfit.weibull_fit_ms": "ms",
    "distfit.ks_ms": "ms",
    "distfit.powerlaw_fit_ms": "ms",
    "pipeline.compare_ms": "ms",
    "ingest.load_us_per_msg": "us/msg",
    "ingest.dedupe_us_per_msg": "us/msg",
    "ingest.match_us_per_msg": "us/msg",
    "linknet.extract_us_per_msg": "us/msg",
    "linknet.resolve_us_per_msg": "us/msg",
    "linknet.records_us_per_msg": "us/msg",
    "linknet.stats_us_per_msg": "us/msg",
    "pipeline.rank_us_per_msg": "us/msg",
    "pipeline.export_us_per_msg": "us/msg",
    "cli.pipeline_self_us_per_msg": "us/msg",
    "trace_overhead": "ratio",
    "raw_wall_s": "s",
}


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def layer_metrics(spans, counts, messages: int) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    run_durations = []
    for _, name, start, end, _, self_s in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + self_s
        if name == "simulator.run_simulation":
            run_durations.append(end - start)

    def t(name):
        return total.get(name, 0.0)

    def per_msg(seconds):
        return seconds / messages * 1e6 if messages else 0.0

    steps = counts["simulator.agent_steps"]
    links = counts["linknet.links"]
    m = {
        "simulator.run_s": t("simulator.run_simulation"),
        "simulator.ns_per_agent_step":
            t("simulator.run_simulation") / steps * 1e9 if steps else 0.0,
        "simulator.run_ms_p50": _percentile(run_durations, 50) * 1e3,
        "simulator.run_ms_p99": _percentile(run_durations, 99) * 1e3,
        "simulator.replicate_self_s": self_time.get("simulator.replicate", 0.0),
        "simulator.life_stats_write_s": t("simulator.life_stats_to_jsonl"),
        "simulator.life_stats_read_s": t("simulator.life_stats_from_jsonl"),
        "cli.simulate_self_s": self_time.get("cli.cmd_simulate", 0.0),
        "diffusion.kernel_calls_per_agent_step":
            counts["diffusion.kernel_calls"] / steps if steps else 0.0,
        "distfit.weibull_fit_ms": t("distfit.fit_weibull_mle") * 1e3,
        "distfit.ks_ms": t("distfit.ks_statistic") * 1e3,
        "distfit.powerlaw_fit_ms": t("distfit.fit_powerlaw_mle") * 1e3,
        "pipeline.compare_ms": t("pipeline.compare_to_model") * 1e3,
        "ingest.load_us_per_msg": per_msg(t("ingest.load_corpus")),
        "ingest.dedupe_us_per_msg": per_msg(t("ingest.dedupe")),
        "ingest.match_us_per_msg": per_msg(t("ingest.match_queries")),
        "linknet.extract_us_per_msg": per_msg(t("linknet.extract_links")),
        "linknet.resolve_us_per_msg": per_msg(t("linknet.resolve_all")),
        "linknet.records_us_per_msg": per_msg(t("linknet.build_link_records")),
        "linknet.stats_us_per_msg": per_msg(t("linknet.link_stats")),
        "pipeline.rank_us_per_msg":
            per_msg(t("pipeline.rank_resources") + t("pipeline.fetch_manifest")),
        "pipeline.export_us_per_msg":
            per_msg(t("pipeline.build_export_records") + t("pipeline.export_stream")),
        "cli.pipeline_self_us_per_msg": per_msg(self_time.get("cli.cmd_pipeline", 0.0)),
        "linknet.url_parses_per_link": counts["linknet.url_parses"] / links if links else 0.0,
    }
    for name in COUNT_METRICS:
        m.setdefault(name, counts[name])
    return m
