"""Command-line entry point for the modeling and monitoring workflows.

Subcommands: ``simulate`` (agent-space evolution), ``fit`` (Weibull /
power-law MLE), ``pipeline`` (query scan to export), ``compare``
(anomaly check against a model baseline) and ``plot-points`` (density
curve for external plotting).

Exit codes: 0 success, 2 usage or input error, 1 internal failure.
Every run echoes its fully resolved configuration (seed included) to a
sidecar JSON, which it publishes last, once all its outputs are in place
(``_output_set``): a failed run leaves the earlier outputs as they were.
Setting NETMON_OFFLINE=1 forces the offline redirect fetcher no matter
what flags say.

``main`` builds its argument parser once per process and runs each
command with the cyclic garbage collector paused, putting the
collector's state back on every exit.  A command's data is acyclic, and
the cyclic garbage a command leaves (argparse's and the JSON encoder's)
does not grow with its input, so a collector pass would only walk live
objects.  Library entry points such as ``replicate``, ``load_corpus``
and ``life_stats_from_jsonl`` leave the collector alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import traceback
from contextlib import contextmanager, suppress
from itertools import islice
from pathlib import Path

from .diffusion import BehaviorParams, is_finite
from .distfit import (
    ConvergenceError,
    PowerLawFit,
    WeibullFit,
    emit_pdf_points,
    fit_powerlaw_mle,
    fit_weibull_mle,
)
from .ingest import (
    dedupe,
    load_corpus,
    load_query_packet,
    match_queries,
    matched_jsonl,
    rejects_jsonl,
)
from .jsonl import collector_paused
from .linknet import (
    DEFAULT_SHORTENER_BASES,
    LinkParseError,
    LiveFetcher,
    OfflineFetcher,
    build_link_records,
    canonicalize,
    extract_links,
    link_stats,
    links_jsonl,
    resolve_all,
    resolved_jsonl,
)
from .pipeline import (
    build_export_records,
    compare_to_model,
    export_stream,
    fetch_manifest,
    rank_resources,
    ranking_json,
)
from .simulator import (
    SimulationConfig,
    TooManyAgentsError,
    calibrated_default_config,
    events_to_jsonl,
    life_stats_to_jsonl,
    run_chunks,
    run_simulation,  # unused here; perfbench's tracer binds netmon.cli.run_simulation
)

__all__ = ["main"]


class CliError(Exception):
    """Input problem; reported on stderr with exit code 2."""


# The files that simulate and pipeline write beside a run_config.json, which
# describes one run: each of them that a run does not write is stale there.
_RUN_DIR_FILES = ("life_stats.jsonl", "events.jsonl", "rejects.jsonl", "matched.jsonl",
                  "links.jsonl", "resolved.jsonl", "ranking.json", "manifest.txt",
                  "export.jsonl", "stats.json")


@contextmanager
def _output_set(out_dir: Path, sidecar: str, config: dict, stale=()):
    """Publish files in ``out_dir`` as one set, its sidecar last.

    Makes ``out_dir`` and yields ``open_output(name, mode)``: a temporary file
    there for the output ``name``, open until the block ends.  If it ends
    normally, the sidecar (``config`` as JSON) is written, the ``stale`` names
    not written are removed, and each file is moved onto its name, the sidecar
    last, so that a sidecar marks a complete set.  On an exception the
    temporary files are removed and the earlier outputs stay as they were.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    pending = {}  # output name -> its temporary file, until it is moved

    def open_output(name: str, mode: str = "w"):
        pending[name] = fh = open(out_dir / f".{name}.partial", mode)
        return fh

    try:
        yield open_output
        open_output(sidecar).write(json.dumps(config, indent=2, sort_keys=True) + "\n")
        for fh in pending.values():
            fh.close()
        for name in set(stale) - pending.keys():
            (out_dir / name).unlink(missing_ok=True)
        for name, fh in list(pending.items()):
            os.replace(fh.name, out_dir / name)
            del pending[name]
    finally:
        for fh in pending.values():
            with suppress(OSError):
                fh.close()
            with suppress(OSError):
                os.unlink(fh.name)


def _write_output(out: str, text: str, config: dict) -> Path:
    """Write ``text`` to the file ``out``, making its directory, and beside
    it the sidecar ``<out>.run.json``: ``config`` plus ``"out"``.

    An ``out`` that names a directory (an existing one, or a final name
    that is empty, ``.`` or ``..``) is refused before any file is opened.
    """
    if os.path.basename(out) in ("", ".", "..") or os.path.isdir(out):
        raise CliError(f"{out}: Is a directory")
    path = Path(out)
    with _output_set(path.parent, f"{path.name}.run.json",
                     {**config, "out": str(path)}) as open_output:
        open_output(path.name).write(text)
    return path


def _read_text(path: Path, what: str) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{what} {path} is not UTF-8: {exc}") from exc


def _read_json(path: Path, what: str):
    """The JSON value of an input file."""
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep nesting
        raise CliError(f"{what} is not valid JSON: {exc}") from exc


def _typed(value, kind):
    """A JSON field's ``value`` as ``kind``: an int field takes a JSON integer,
    a float field any JSON number (OverflowError past the float range), and a
    tuple field a float field's value or a non-empty array of them, as a list
    of floats.  A boolean is none of these, no string is converted, and
    anything else is a TypeError."""
    if kind is tuple:
        if isinstance(value, list) and value:
            return [_typed(v, float) for v in value]
        kind = float
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise TypeError(f"not a JSON {kind.__name__}: {value!r}")
    return kind(value)


def _number(token: str, kind):
    """``kind(token)``, but a ValueError for the ``_`` separators and non-ASCII
    digits that ``int`` and ``float`` accept (``1_0`` as 10, ``١٢`` as 12)."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a plain ASCII number: {token!r}")
    return kind(token)


# ---------------------------------------------------------------- simulate

# The simulate fields, BehaviorParams' then SimulationConfig's but params then
# runs, each with its JSON kind (_typed) from _KINDS: a field without one fails
# at import.  A tuple field is a probability or a per-energy table of them.
_PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(BehaviorParams))
_RUN_FIELDS = tuple(f.name for f in dataclasses.fields(SimulationConfig) if f.name != "params")
_KINDS = {"p_s": float, "e0": int, "p_like": tuple, "p_repost": tuple,
          "link_carrier_fraction": float, "link_boost": float, "rich_get_richer_gamma": float,
          "horizon": int, "seed": int, "max_agents": int, "initial_agents": int, "runs": int}
_SIM_CONFIG_FIELDS = {n: _KINDS[n] for n in (*_PARAM_FIELDS, *_RUN_FIELDS, "runs")}


def _default_sim_config() -> dict:
    """Every simulate field at its value in the calibrated default config."""
    config = calibrated_default_config()
    values = {**vars(config.params), **vars(config), "runs": 1}
    return {name: values[name] for name in _SIM_CONFIG_FIELDS}


def _load_sim_config(args) -> dict:
    resolved = _default_sim_config()
    if args.config is not None:
        loaded = _read_json(Path(args.config), "config file")
        if not isinstance(loaded, dict):
            raise CliError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in _SIM_CONFIG_FIELDS:
                raise CliError(f"unknown config field: {key}")
            try:
                resolved[key] = (None if key == "max_agents" and value is None
                                 else _typed(value, _SIM_CONFIG_FIELDS[key]))
            except (TypeError, OverflowError) as exc:
                raise CliError(f"bad value for config field {key}: {value!r}") from exc
    # flags override the config file
    for key, flag in (("horizon", args.steps), ("seed", args.seed), ("runs", args.runs)):
        if flag is not None:
            resolved[key] = flag
    return resolved


def cmd_simulate(args) -> int:
    resolved = _load_sim_config(args)
    if resolved["runs"] < 1:
        raise CliError(f"runs must be >= 1, got {resolved['runs']}")
    # BehaviorParams clamps a probability outside [0, 1] when it reads it; the
    # command refuses one, in either form.
    for name in _PARAM_FIELDS:
        value = resolved[name]
        if _SIM_CONFIG_FIELDS[name] is tuple and not all(0.0 <= p <= 1.0 for p in (
                value if isinstance(value, list) else [value])):
            raise CliError(f"{name} must be in [0, 1], got {value}")
    try:
        params = BehaviorParams(**{name: resolved[name] for name in _PARAM_FIELDS})
        config = SimulationConfig(params, **{name: resolved[name] for name in _RUN_FIELDS})
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    # Each chunk is written a block of lines at a time and freed before the
    # next one is stepped: memory holds one chunk's agent columns plus one
    # block's lines, whatever the number of runs.
    out_dir = Path(args.out)
    n_agents = 0
    with _output_set(out_dir, "run_config.json", resolved,
                     stale=_RUN_DIR_FILES) as open_output:
        life_stats_out = open_output("life_stats.jsonl", "wb")
        events_out = None if args.no_events else open_output("events.jsonl", "wb")
        for result in run_chunks(config, resolved["runs"],
                                 record_events=events_out is not None):
            n_agents += len(result.stats)
            life_stats_to_jsonl(result.stats, life_stats_out)
            if events_out is not None:
                events_to_jsonl(result.events, run=result.stats.seed - config.seed,
                                out=events_out)
            del result
    print(f"simulated {resolved['runs']} run(s), {n_agents} agents -> {out_dir}")
    return 0


# --------------------------------------------------------------------- fit

def _read_samples(path_str: str, want_int: bool) -> list:
    """The numbers of a samples file, one per non-blank line: ints, or floats."""
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


# Each fit type's distribution name, its range check, and its fields in
# file order: attribute, file key, kind and default (None: required).
_FIT_TABLE = {
    WeibullFit: ("weibull", lambda fit: fit.k > 0 and fit.lam > 0, (
        ("k", "k", float, None),
        ("lam", "lambda", float, None),
        ("log_likelihood", "log_likelihood", float, 0.0),
        ("n_samples", "n_samples", int, 0),
        ("ks_statistic", "ks_statistic", float, 0.0),
    )),
    PowerLawFit: ("powerlaw", lambda fit: fit.alpha > 1 and fit.xmin >= 1, (
        ("alpha", "alpha", float, None),
        ("xmin", "xmin", int, 1),
        ("log_likelihood", "log_likelihood", float, 0.0),
        ("n_tail", "n_tail", int, 0),
    )),
}


def _fit_to_dict(fit) -> dict:
    name, _, fields = _FIT_TABLE[type(fit)]
    return {"distribution": name, **{key: getattr(fit, attr) for attr, key, _, _ in fields}}


def _load_fit(path_str: str):
    """The fit in a fit file, of the type its ``distribution`` names or, with
    none, of the first type whose first key it has.  Each field keeps its
    JSON type (``_typed``), the fit passes its range check, floats are finite."""
    path = Path(path_str)
    obj = _read_json(path, "fit file")
    if not isinstance(obj, dict):
        raise CliError(f"fit file {path} must hold a JSON object")
    fit_type = next((t for t, (name, _, fields) in _FIT_TABLE.items()
                     if (obj["distribution"] == name if "distribution" in obj
                         else fields[0][1] in obj)), None)
    if fit_type is None:
        raise CliError(f"bad fit file {path}: names no known distribution")
    name, in_range, fields = _FIT_TABLE[fit_type]
    values = {}
    for attr, key, kind, default in fields:
        if default is None and key not in obj:
            raise CliError(f"bad fit file {path}: a {name} fit needs {key}")
        value = obj.get(key, default)
        try:
            values[attr] = _typed(value, kind)
        except (TypeError, OverflowError) as exc:
            raise CliError(f"bad fit file {path}: bad value for {key}: {value!r}") from exc
    fit = fit_type(**values)
    floats = [values[attr] for attr, _, kind, _ in fields if kind is float]
    if not (in_range(fit) and all(map(math.isfinite, floats))):
        raise CliError(f"bad fit file {path}: parameters out of range in {_fit_to_dict(fit)}")
    return fit


def cmd_fit(args) -> int:
    if args.distribution == "weibull":
        samples = _read_samples(args.input, want_int=False)
        try:
            fit = fit_weibull_mle(samples)
        except (ValueError, ConvergenceError) as exc:
            raise CliError(f"weibull fit failed: {exc}") from exc
        summary = f"k={fit.k:.6g} lambda={fit.lam:.6g}"
    else:
        samples = _read_samples(args.input, want_int=True)
        try:
            fit = fit_powerlaw_mle(samples, xmin=args.xmin)
        except ValueError as exc:
            raise CliError(f"power-law fit failed: {exc}") from exc
        summary = f"alpha={fit.alpha:.6g} xmin={fit.xmin}"

    _write_output(args.out, json.dumps(_fit_to_dict(fit), indent=2) + "\n",
                  {"distribution": args.distribution, "input": args.input,
                   "xmin": args.xmin if args.distribution == "powerlaw" else None})
    print(summary)
    return 0


# ---------------------------------------------------------------- pipeline

_WRITE_BATCH = 1024


def _write_lines(fh, lines) -> None:
    """Write the text lines of the iterable ``lines`` to the open file ``fh``,
    ``_WRITE_BATCH`` lines per ``write`` call, so that memory holds one batch,
    not the file.  An empty line, or a batch of them, does not end the file.
    """
    lines = iter(lines)
    while batch := list(islice(lines, _WRITE_BATCH)):
        fh.write("".join(batch))


def cmd_pipeline(args) -> int:
    offline_forced = os.environ.get("NETMON_OFFLINE") == "1"
    if args.online and args.redirect_map:
        raise CliError("--online and --redirect-map are mutually exclusive")
    if args.top < 1:
        raise CliError(f"--top must be >= 1, got {args.top}")
    if args.max_depth < 0:
        raise CliError(f"--max-depth must be >= 0, got {args.max_depth}")
    if args.max_in_flight < 1:
        raise CliError(f"--max-in-flight must be >= 1, got {args.max_in_flight}")

    queries_path = Path(args.queries)
    corpus_path = Path(args.corpus)
    query_lines = _read_text(queries_path, "query file").splitlines()
    try:
        packet = load_query_packet(query_lines)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    registry = DEFAULT_SHORTENER_BASES
    if args.shortener_registry:
        text = _read_text(Path(args.shortener_registry), "shortener registry")
        bases = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            base = line.strip()
            if not base or base.startswith("#"):
                continue
            try:
                canonicalize(base)
            except LinkParseError as exc:
                raise CliError(f"shortener registry line {line_no}: {exc}") from exc
            bases.append(base)
        registry = tuple(bases)

    if args.online and not offline_forced:
        fetcher = LiveFetcher()
    else:
        mapping = {}
        if args.redirect_map:
            map_path = Path(args.redirect_map)
            mapping = _read_json(map_path, "redirect map")
            if not isinstance(mapping, dict) or not all(
                isinstance(target, (str, type(None))) for target in mapping.values()
            ):
                raise CliError(
                    f"redirect map {map_path} must hold a JSON object of URL -> URL or null"
                )
        fetcher = OfflineFetcher(mapping)

    # stages 1-2: scan and match; bytes that are not UTF-8 reach
    # load_corpus as lone surrogates, which it rejects line by line
    with corpus_path.open(encoding="utf-8", errors="surrogateescape") as fh:
        messages, rejects = load_corpus(fh)
    messages = dedupe(messages)
    matched = match_queries(messages, packet)
    # From here on only the matched messages are needed: match_queries
    # returned them (the same objects), so dropping the loaded list frees
    # the rest.
    n_messages = len(messages)
    del messages

    run_config = {
        "queries": str(queries_path), "corpus": str(corpus_path),
        "online": bool(args.online and not offline_forced), "offline_forced": offline_forced,
        **{name: getattr(args, name) for name in ("redirect_map", "granularity", "top",
                                                  "max_depth", "max_in_flight",
                                                  "shortener_registry")},
    }
    # entered only now, so that an unusable input leaves no output directory
    out_dir = Path(args.out_dir)
    with _output_set(out_dir, "run_config.json", run_config,
                     stale=_RUN_DIR_FILES) as open_output:
        _write_lines(open_output("rejects.jsonl"), rejects_jsonl(rejects))
        n_rejected = len(rejects)
        del rejects
        _write_lines(open_output("matched.jsonl"), matched_jsonl(matched))

        # stage 3: extract hyperlinks
        extracted = extract_links(matched)
        _write_lines(open_output("links.jsonl"), links_jsonl(extracted))

        # stage 4: open short addresses, canonicalize, rank
        resolved = resolve_all(
            extracted, fetcher, registry=registry, max_depth=args.max_depth,
            max_in_flight=args.max_in_flight,
        )
        _write_lines(open_output("resolved.jsonl"), resolved_jsonl(resolved.values()))

        citations = build_link_records(extracted, resolved)
        # summary statistics, taken now so that the link occurrences can be
        # freed before ranking; the link ratios are undefined when nothing matched
        stats = link_stats(matched, extracted, resolved, citations) if matched else None
        n_links = len(extracted)
        del extracted
        ranked = rank_resources(citations, granularity=args.granularity)
        open_output("ranking.json").write(ranking_json(ranked))

        # stage 5 boundary: manifest for the downstream crawler
        doc_ranked = ranked if args.granularity == "document" else rank_resources(citations)
        manifest = fetch_manifest(doc_ranked, top_n=args.top)
        open_output("manifest.txt").write("".join(u + "\n" for u in manifest))

        # stage 6: export stream for the corporate system
        export_records = build_export_records(citations, packet)
        open_output("export.jsonl", "wb").write(export_stream(export_records))

        stats_obj = {
            "n_messages": n_messages,
            "n_matched": len(matched),
            "n_rejected": n_rejected,
            "n_links": n_links,
            "messages_with_links_fraction": stats and stats.messages_with_links_fraction,
            "unique_links_fraction": stats and stats.unique_links_fraction,
            "unique_links_fraction_pre_resolution": (
                stats and stats.unique_links_fraction_pre_resolution
            ),
            "per_source_counts": dict(sorted(stats.per_source_counts.items())) if stats else {},
        }
        open_output("stats.json").write(json.dumps(stats_obj, indent=2) + "\n")

    print(f"pipeline: {n_messages} messages, {len(matched)} matched, "
          f"{n_links} links, {len(ranked)} resources -> {out_dir}")
    return 0


# ----------------------------------------------------------------- compare

def _read_counts(path_str: str):
    path = Path(path_str)
    keyed: dict[str, int] = {}
    key_lines: dict[str, int] = {}
    plain: list[int] = []
    for line_no, line in enumerate(_read_text(path, "empirical file").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        try:
            if len(parts) not in (1, 2):
                raise ValueError(stripped)
            count = _number(parts[-1], int)
            if not is_finite(count):
                raise ValueError(f"{count} does not fit a float")
        except ValueError as exc:
            raise CliError(
                f"bad count on line {line_no}: {stripped!r} "
                "(expected 'count' or 'key count')"
            ) from exc
        if len(parts) == 1:
            plain.append(count)
        else:
            key = parts[0]
            if key in keyed:
                raise CliError(f"duplicate key {key!r} on line {line_no} "
                               f"(first on line {key_lines[key]})")
            keyed[key] = count
            key_lines[key] = line_no
    if keyed and plain:
        raise CliError("mix of keyed and plain count lines")
    return keyed or plain


def cmd_compare(args) -> int:
    if args.threshold is not None and not math.isfinite(args.threshold):
        # report.json holds it, and JSON has no NaN or infinity
        raise CliError(f"--threshold must be finite, got {args.threshold}")
    counts = _read_counts(args.empirical)
    baseline = _load_fit(args.baseline_fit)
    try:
        report = compare_to_model(
            counts, baseline, threshold=args.threshold,
            series_name=Path(args.empirical).stem,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    obj = {
        "series_name": report.series_name,
        "baseline": _fit_to_dict(report.baseline),
        "empirical_ks": report.empirical_ks,
        "threshold": report.threshold,
        "flagged": report.flagged,
        "top_outliers": [
            {"key": k, "count": c, "model_tail_probability": p}
            for k, c, p in report.top_outliers
        ],
    }
    _write_output(args.out, json.dumps(obj, indent=2) + "\n",
                  {"empirical": args.empirical, "baseline_fit": args.baseline_fit,
                   "threshold": args.threshold})
    print(f"ks={report.empirical_ks:.6g} threshold={report.threshold:.6g} "
          f"flagged={report.flagged}")
    return 0


# ------------------------------------------------------------- plot-points

def cmd_plot_points(args) -> int:
    fit = _load_fit(args.fit)
    if not isinstance(fit, WeibullFit):
        raise CliError("plot-points needs a weibull fit file")
    try:
        points = emit_pdf_points(fit, x_max=args.x_max, n_points=args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    csv = "x,pdf\n" + "".join(f"{x!r},{y!r}\n" for x, y in points)
    out = _write_output(args.out, csv, {"fit": args.fit, "x_max": args.x_max, "n": args.n})
    print(f"wrote {len(points)} curve points -> {out}")
    return 0


# -------------------------------------------------------------------- main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="netmon",
        description="Agent-based message diffusion model and link-monitoring pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="evolve the agent space")
    p_sim.add_argument("--config", help="JSON config file (flags override it)")
    p_sim.add_argument("--steps", type=int, help="simulation horizon in ticks")
    p_sim.add_argument("--seed", type=int, help="base random seed")
    p_sim.add_argument("--runs", type=int, help="number of replications (seeds seed..seed+runs-1)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--no-events", action="store_true",
                       help="skip the event log, keep life stats only")

    p_fit = sub.add_parser("fit", help="fit a distribution to samples")
    p_fit.add_argument("distribution", choices=["weibull", "powerlaw"])
    p_fit.add_argument("--input", required=True, help="one number per line")
    p_fit.add_argument("--out", required=True, help="fit JSON output path")
    p_fit.add_argument("--xmin", type=int, default=1, help="power-law tail cutoff")

    p_pipe = sub.add_parser("pipeline", help="run scan/extract/resolve/rank/export")
    p_pipe.add_argument("--queries", required=True, help="query packet file")
    p_pipe.add_argument("--corpus", required=True, help="line-delimited JSON corpus")
    p_pipe.add_argument("--redirect-map", help="offline redirect map JSON")
    p_pipe.add_argument("--online", action="store_true",
                        help="resolve redirects over HTTP (NETMON_OFFLINE=1 overrides)")
    p_pipe.add_argument("--top", type=int, default=100, help="manifest size")
    p_pipe.add_argument("--granularity", choices=["document", "host"], default="document")
    p_pipe.add_argument("--max-depth", type=int, default=10, help="redirect hop limit")
    p_pipe.add_argument("--max-in-flight", type=int, default=8,
                        help="parallel resolutions")
    p_pipe.add_argument("--shortener-registry", help="file of short-address bases")
    p_pipe.add_argument("--out-dir", required=True)

    p_cmp = sub.add_parser("compare", help="anomaly check against a baseline fit")
    p_cmp.add_argument("--empirical", required=True,
                       help="counts file: 'count' or 'key count' per line")
    p_cmp.add_argument("--baseline-fit", required=True, help="fit JSON from `netmon fit`")
    p_cmp.add_argument("--threshold", type=float, default=None,
                       help="KS flag threshold (default 1.36/sqrt(n))")
    p_cmp.add_argument("--out", required=True, help="report JSON output path")

    p_plot = sub.add_parser("plot-points", help="emit density curve points as CSV")
    p_plot.add_argument("--fit", required=True, help="weibull fit JSON")
    p_plot.add_argument("--x-max", type=float, required=True)
    p_plot.add_argument("--n", type=int, default=100, help="number of points")
    p_plot.add_argument("--out", required=True, help="CSV output path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so a command patched onto this module is the
    # one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    # The cyclic collector is paused while the command runs: its data is
    # acyclic, so a pass would walk every live object and free nothing.
    with collector_paused():
        try:
            return command(args)
        except (CliError, TooManyAgentsError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:
            return 1
        except OSError as exc:  # an unusable path: missing, a directory, under a file, ...
            name = exc.filename2 or exc.filename  # os.replace's destination, not its source
            where = f"{name}: {exc.strerror}" if name and exc.strerror else exc
            print(f"error: {where}", file=sys.stderr)
            return 2
        except Exception:
            traceback.print_exc()
            return 1


if __name__ == "__main__":
    sys.exit(main())
