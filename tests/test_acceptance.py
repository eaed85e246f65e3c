"""Acceptance checklist for the package, criteria A1 through A10.

Each test prints one [A#] PASS/FAIL line (run with ``pytest -s`` to see
them) and enforces the stated tolerance and runtime budget.
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np

from netmon.cli import main
from netmon.diffusion import BehaviorParams
from netmon.distfit import WeibullFit, fit_exponential_tail, fit_powerlaw_mle, fit_weibull_mle
from netmon.linknet import (
    DEFAULT_SHORTENER_BASES,
    STATUS_DEPTH,
    STATUS_FAILED,
    STATUS_LOOP,
    STATUS_NOT_SHORTENED,
    STATUS_RESOLVED,
    OfflineFetcher,
    is_shortener,
    resolve,
)
from netmon.pipeline import compare_to_model
from netmon.simulator import (
    EVENT_DEATH,
    SimulationConfig,
    _draw_words,
    _StepTables,
    _uniforms,
    calibrated_default_config,
    replicate,
    repost_counts_by_link,
    run_simulation,
)

from _oracles import delta_probs, expected_absorption_time, weibull_samples

FIXTURES = Path(__file__).parent / "fixtures"


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def test_a1_model_calibration_weibull_shape():
    """Default config: pooled repost counts fit Weibull k in [1.7, 2.1]."""
    t0 = time.perf_counter()
    pooled = replicate(calibrated_default_config(), 10_000)
    counts = [s.total_reposts for s in pooled if not s.censored and s.total_reposts > 0]
    fit = fit_weibull_mle(counts)
    elapsed = time.perf_counter() - t0
    ok = 1.7 <= fit.k <= 2.1 and elapsed < 60.0
    report("A1", ok, f"k={fit.k:.3f} lam={fit.lam:.3f} n={fit.n_samples} "
                     f"elapsed={elapsed:.1f}s (budget 60s)")


def test_a2_weibull_mle_recovery_sweep():
    """20 seeds of n=10^4 Weibull(1.9, 3.8): k within 0.05, lam within 0.1."""
    t0 = time.perf_counter()
    worst_k = worst_lam = 0.0
    for seed in range(777, 797):
        fit = fit_weibull_mle(weibull_samples(1.9, 3.8, 10_000, seed))
        worst_k = max(worst_k, abs(fit.k - 1.9))
        worst_lam = max(worst_lam, abs(fit.lam - 3.8))
    elapsed = time.perf_counter() - t0
    ok = worst_k <= 0.05 and worst_lam <= 0.1 and elapsed < 5.0
    report("A2", ok, f"worst |k-1.9|={worst_k:.4f} worst |lam-3.8|={worst_lam:.4f} "
                     f"elapsed={elapsed:.1f}s (budget 5s)")


def test_a3_kernel_fidelity():
    """Step frequencies drawn through the engine's thresholds match the
    conditional formulas, 3 settings."""
    t0 = time.perf_counter()
    n = 10**6
    # (energy, params, link carrier, repost probability the formulas use)
    settings = [
        (1, dict(p_like=0.5, p_repost=0.5), False, 0.5),
        (3, dict(p_like=0.2, p_repost=0.4, link_boost=2.0), True, min(1.0, 2.0 * 0.4)),
        (5, dict(p_like=0.9, p_repost=0.05), False, 0.05),
    ]
    worst_z = 0.0
    for energy, pkw, linked, p_repost in settings:
        params = BehaviorParams.constant(p_s=0.0, e0=energy, **pkw)
        tables = _StepTables(params)
        # the engine's uniforms: one random.Random stream, read in bulk
        u = _uniforms(_draw_words(random.Random(97 + energy), n))
        energies = np.full(n, energy, dtype=np.int32)
        if linked:
            both, reposted, kept = tables.outcomes(u, energies, np.ones(n, dtype=bool),
                                                   np.zeros(n, dtype=np.int32))
        else:
            both, reposted, kept = tables.outcomes(u, energies)
        freq = {2: int(both.sum()), 1: int((reposted & ~both).sum()),
                0: int((kept & ~reposted).sum()), -1: int((~kept).sum())}
        for delta, p in delta_probs(pkw["p_like"], p_repost).items():
            se = math.sqrt(p * (1.0 - p) / n)
            if se > 0:
                worst_z = max(worst_z, abs(freq[delta] / n - p) / se)
    elapsed = time.perf_counter() - t0
    ok = worst_z < 4.0 and elapsed < 10.0
    report("A3", ok, f"worst deviation={worst_z:.2f} standard errors "
                     f"elapsed={elapsed:.1f}s (budget 10s)")


def test_a4_absorbing_death():
    """Step-table rows over energies 1..100 are distributions, energy 0
    has none; no events after death in 10^3 runs."""
    t0 = time.perf_counter()
    params = BehaviorParams.constant(p_s=0.3, e0=2, p_like=0.35, p_repost=0.12)
    tables = _StepTables(params)
    # Energy e reads row min(e, rows) - 1; the rows start at energy 1.
    index = np.minimum(np.arange(1, 101), tables.rows) - 1
    c2, c21, c210 = (np.atleast_1d(c)[index] for c in tables.thresholds)
    rows = np.column_stack((c2, c21 - c2, c210 - c21, 1.0 - c210))
    ok_chain = (tables.rows == 1 and bool((rows >= 0.0).all())
                and float(np.abs(rows.sum(axis=1) - 1.0).max()) < 1e-12)

    # Seeds 0..999, stepped together as one batch.
    result = run_simulation(SimulationConfig(params=params, horizon=60, seed=0), runs=1000)
    ok_sim = True
    for events in result.events.runs():
        death_tick = {}
        for tick, kind, agent_id, _ in events:
            if kind == EVENT_DEATH:
                ok_sim = ok_sim and agent_id not in death_tick
                death_tick[agent_id] = tick
            elif agent_id in death_tick:
                ok_sim = False
    elapsed = time.perf_counter() - t0
    ok = ok_chain and ok_sim and elapsed < 5.0
    report("A4", ok, f"chain={'ok' if ok_chain else 'bad'} "
                     f"simulation={'ok' if ok_sim else 'bad'} "
                     f"elapsed={elapsed:.1f}s (budget 5s)")


def test_a5_lifetime_oracle():
    """Mean simulated lifetime vs absorbing-chain solution, within 2%."""
    t0 = time.perf_counter()
    params = BehaviorParams.constant(p_s=0.0, e0=2, p_like=0.5, p_repost=0.1)
    cfg = SimulationConfig(params=params, horizon=500, seed=7)
    pooled = replicate(cfg, 100_000)
    lifetimes = [s.lifetime for s in pooled if not s.censored]
    mean_lifetime = sum(lifetimes) / len(lifetimes)
    tau = expected_absorption_time(0.5, 0.1, 2, max_energy=200)
    rel_err = abs(mean_lifetime - tau) / tau
    elapsed = time.perf_counter() - t0
    ok = rel_err < 0.02 and elapsed < 30.0
    report("A5", ok, f"mean={mean_lifetime:.4f} oracle={tau:.4f} "
                     f"rel_err={rel_err:.3%} elapsed={elapsed:.1f}s (budget 30s)")


def test_a6_power_function_tail():
    """Boosted links: power-law beats exponential on per-link counts."""
    t0 = time.perf_counter()
    wins = 0
    n_seeds = 20
    for i in range(n_seeds):
        params = BehaviorParams.constant(
            p_s=0.3, e0=3, p_like=0.3, p_repost=0.1,
            link_carrier_fraction=0.5, link_boost=1.5, rich_get_richer_gamma=0.4,
        )
        cfg = SimulationConfig(params=params, horizon=60, seed=300 + 1000 * i,
                               max_agents=800)
        pooled = replicate(cfg, 60)
        counts = [c for c in repost_counts_by_link(pooled).values() if c >= 1]
        power = fit_powerlaw_mle(counts, xmin=1)
        _, ll_exp = fit_exponential_tail(counts, xmin=1)
        if power.log_likelihood > ll_exp:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = wins >= 18
    report("A6", ok, f"power-law wins {wins}/{n_seeds} seeds (need >= 18) "
                     f"elapsed={elapsed:.1f}s")


def test_a7_pipeline_ratios(tmp_path):
    """Fixture corpus: link fractions exactly 0.580 and 0.480."""
    t0 = time.perf_counter()
    out = tmp_path / "out"
    code = main([
        "pipeline",
        "--queries", str(FIXTURES / "queries.txt"),
        "--corpus", str(FIXTURES / "corpus_1000.jsonl"),
        "--redirect-map", str(FIXTURES / "redirect_map.json"),
        "--out-dir", str(out),
    ])
    stats = json.loads((out / "stats.json").read_text())
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and stats["messages_with_links_fraction"] == 0.580
        and stats["unique_links_fraction"] == 0.480
        and elapsed < 5.0
    )
    report("A7", ok, f"fractions={stats['messages_with_links_fraction']}/"
                     f"{stats['unique_links_fraction']} elapsed={elapsed:.1f}s (budget 5s)")


def test_a8_short_link_handling():
    """All nine shortener bases recognized; statuses exact on fixtures."""
    t0 = time.perf_counter()
    ok = len(DEFAULT_SHORTENER_BASES) == 9
    for base in DEFAULT_SHORTENER_BASES:
        ok = ok and is_shortener(base + "x1")
        swapped = base.replace("https://", "#").replace("http://", "https://").replace("#", "http://")
        ok = ok and is_shortener(swapped + "x1")

    mapping = {}
    expected = []
    for i, base in enumerate(DEFAULT_SHORTENER_BASES):
        short = f"{base}t{i}"
        mapping[short] = f"https://target.test/{i}"
        expected.append((short, STATUS_RESOLVED, f"https://target.test/{i}", 2))
    mapping["http://bit.ly/loop1"] = "http://bit.ly/loop2"
    mapping["http://bit.ly/loop2"] = "http://bit.ly/loop1"
    expected.append(("http://bit.ly/loop1", STATUS_LOOP, "http://bit.ly/loop2", 2))
    for i in range(12):
        mapping[f"http://ow.ly/hop{i}"] = f"http://ow.ly/hop{i+1}"
    expected.append(("http://ow.ly/hop0", STATUS_DEPTH, "http://ow.ly/hop10", 11))
    mapping["http://j.mp/dead"] = None
    expected.append(("http://j.mp/dead", STATUS_FAILED, "http://j.mp/dead", 1))
    expected.append(
        ("https://plain.test/article", STATUS_NOT_SHORTENED, "https://plain.test/article", 1)
    )

    fetcher = OfflineFetcher(mapping)
    for raw, want_status, want_final, want_len in expected:
        res = resolve(raw, fetcher, max_depth=10)
        ok = ok and res.status == want_status
        ok = ok and res.final_url == want_final
        ok = ok and len(res.redirect_chain) == want_len
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report("A8", ok, f"{len(expected)} fixture rows, 9 bases "
                     f"elapsed={elapsed:.2f}s (budget 1s)")


def test_a9_cli_determinism(tmp_path):
    """cmd_simulate and cmd_pipeline rerun byte-identically offline."""
    def tree(root: Path) -> dict:
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    sim_args = ["simulate", "--runs", "3", "--seed", "11", "--steps", "50"]
    code_a = main(sim_args + ["--out", str(tmp_path / "sim_a")])
    code_b = main(sim_args + ["--out", str(tmp_path / "sim_b")])
    sim_ok = code_a == code_b == 0 and tree(tmp_path / "sim_a") == tree(tmp_path / "sim_b")

    pipe_args = [
        "pipeline",
        "--queries", str(FIXTURES / "queries.txt"),
        "--corpus", str(FIXTURES / "corpus_1000.jsonl"),
        "--redirect-map", str(FIXTURES / "redirect_map.json"),
    ]
    code_c = main(pipe_args + ["--out-dir", str(tmp_path / "pipe_a")])
    code_d = main(pipe_args + ["--out-dir", str(tmp_path / "pipe_b")])
    pipe_ok = code_c == code_d == 0 and tree(tmp_path / "pipe_a") == tree(tmp_path / "pipe_b")

    report("A9", sim_ok and pipe_ok,
           f"simulate={'identical' if sim_ok else 'differs'} "
           f"pipeline={'identical' if pipe_ok else 'differs'}")


def test_a10_anomaly_hook():
    """Outlier injection is listed; baseline data rarely flagged."""
    t0 = time.perf_counter()
    baseline = WeibullFit(k=1.9, lam=1800.0, log_likelihood=0.0, n_samples=100,
                          ks_statistic=0.0)
    # 100x the baseline's 99.9th percentile 1800 * ln(1000)^(1/1.9)
    outlier_value = int(100 * 1800.0 * math.log(1000.0) ** (1 / 1.9))
    not_flagged = outliers_listed = 0
    for seed in range(100):
        counts = {
            f"r{i}": max(1, int(round(v)))
            for i, v in enumerate(weibull_samples(1.9, 1800.0, 400, 23_000 + seed))
        }
        if not compare_to_model(counts, baseline).flagged:
            not_flagged += 1
        counts["amplified"] = outlier_value
        injected = compare_to_model(counts, baseline)
        if any(key == "amplified" for key, _, _ in injected.top_outliers):
            outliers_listed += 1
    elapsed = time.perf_counter() - t0
    ok = not_flagged >= 95 and outliers_listed == 100 and elapsed < 10.0
    report("A10", ok, f"not_flagged={not_flagged}/100 (need >= 95) "
                      f"outlier_listed={outliers_listed}/100 "
                      f"elapsed={elapsed:.1f}s (budget 10s)")
