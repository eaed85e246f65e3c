"""netmon benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a netmon checkout; netmon is imported from its
``src`` directory, and the run exits 1 without a result when it is not
there.  Every time the benchmark reports is measured against the
reference loop of ``reference.py``, timed right before and right after
it: the time divided by the loop's mean time around it, times
``REF_SECONDS``.  That cancels the shared machine's swings in speed.

Set-up is the import of netmon plus the median of three rounds of
generating the inputs from the seed and one warm-up operation
(``setup_s``).  A workload's timed operation is a fixed list of pieces;
passes over all pieces repeat until ``--seconds`` have passed (at least
three passes), and ``wall_s`` is the sum over pieces of each piece's
median time.

With ``--trace 1`` passes alternate between untraced and traced, the
per-layer metrics come from the traced passes, ``trace_overhead`` is
the traced ``wall_s`` over the untraced one, minus 1, and ``raw_wall_s``
is ``wall_s`` before it is measured against the reference loop.  The
spans of every traced pass are written to
``.perfbench_work/spans-<workload>-<seed>.jsonl``.

The last line of standard output is the result object; the lines before
it give the machine, the end-to-end numbers and any failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
NAMES = ("sim_calibrated", "sim_linked_cli", "pipeline_shared", "pipeline_distinct")
SETUPS = 3
MIN_PASSES = 3


def import_netmon(root: Path = ROOT):
    """Import netmon from the ``src`` directory under ``root`` and nowhere else."""
    src = root / "src"
    if not (src / "netmon" / "__init__.py").is_file():
        raise SystemExit(f"error: no netmon package under {src}")
    sys.path.insert(0, str(src))
    import netmon.cli  # noqa: F401  (the modules every workload touches)
    import netmon

    if Path(netmon.__file__).resolve().parent != (src / "netmon").resolve():
        raise SystemExit(f"error: imported netmon from {netmon.__file__}, not {src}")
    return netmon


def machine_info() -> dict:
    import numpy

    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def input_digest(directory: Path) -> str:
    """Hash of every file under ``directory``, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(workload, seed: int, run_dir: Path) -> tuple[float, Path, list[str]]:
    """Build the inputs and warm up SETUPS times; median time, last input dir."""
    times, digests = [], []
    ref_before = reference.timed()
    for i in range(SETUPS):
        directory = run_dir / f"inputs{i}"
        warm = run_dir / f"warm{i}"
        directory.mkdir(parents=True)
        warm.mkdir()
        t0 = time.perf_counter()
        workload.build(directory, seed)
        with contextlib.redirect_stdout(io.StringIO()):
            workload.warm_up(warm)
        dt = time.perf_counter() - t0
        ref_after = reference.timed()
        times.append(scaled(dt, ref_before, ref_after))
        ref_before = ref_after
        digests.append(input_digest(directory))
    problems = [] if len(set(digests)) == 1 else ["equal seeds gave different inputs"]
    return statistics.median(times), directory, problems


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` as the machine at its usual speed would have taken them."""
    return seconds / ((ref_before + ref_after) / 2) * reference.REF_SECONDS


def measure(workload, seconds: float, trace: bool, run_dir: Path, spans_path: Path):
    """Run passes over the workload's pieces until ``seconds`` pass.

    Returns each piece's scaled and raw times per mode (untraced,
    traced), the outcome of every repetition, the layer metrics of
    every traced pass and the number of passes.
    """
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    modes = (False, True) if trace else (False,)
    times = {mode: [[] for _ in range(workload.pieces)] for mode in modes}
    raw = {mode: [[] for _ in range(workload.pieces)] for mode in modes}
    layer_rows = []
    outcomes = []
    all_spans = []
    pass_times = []
    out = run_dir / "out"
    start = time.perf_counter()
    passes = 0
    ref_before = reference.timed()
    while passes < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(pass_times) <= seconds
    ):
        pass_start = time.perf_counter()
        for traced in modes:
            for piece in range(workload.pieces):
                shutil.rmtree(out, ignore_errors=True)
                if traced:
                    workloads.install(tracer)
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        t0 = time.perf_counter()
                        result = workload.run(piece, out)
                        dt = time.perf_counter() - t0
                finally:
                    tracer.restore()
                ref_after = reference.timed()
                times[traced][piece].append(scaled(dt, ref_before, ref_after))
                raw[traced][piece].append(dt)
                ref_before = ref_after
                outcomes.append(workload.check(result, out))
            if traced:
                spans, counts = tracer.take()
                all_spans.extend(spans)
                layer_rows.append(workloads.layer_metrics(spans, counts, workload.messages))
        pass_times.append(time.perf_counter() - pass_start)
        passes += 1
    shutil.rmtree(out, ignore_errors=True)
    if trace:
        Tracer.write(all_spans, spans_path)
    return times, raw, outcomes, layer_rows, passes


def total(piece_times: list[list[float]]) -> float:
    """The sum over pieces of each piece's median time."""
    return sum(statistics.median(t) for t in piece_times)


def summarize_layers(layer_rows: list[dict], times: dict, raw: dict) -> dict:
    import workloads

    metrics = {}
    for name in layer_rows[0]:
        if name in workloads.COUNT_METRICS:
            # Every pass runs the same pieces, so counts repeat exactly.
            metrics[name] = layer_rows[0][name]
        else:
            metrics[name] = statistics.median(row[name] for row in layer_rows)
    metrics["trace_overhead"] = total(times[True]) / total(times[False]) - 1.0
    metrics["raw_wall_s"] = total(raw[False])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reference.reference()
    ref_before = reference.timed()
    t0 = time.perf_counter()
    import_netmon()
    import workloads
    import_s = scaled(time.perf_counter() - t0, ref_before, reference.timed())

    info = machine_info()
    print("machine: " + json.dumps(info, sort_keys=True))
    workload = workloads.make(args.workload)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_median, input_dir, problems = set_up(workload, args.seed, run_dir)
        times, raw, outcomes, layer_rows, passes = measure(
            workload, args.seconds, bool(args.trace), input_dir, spans_path
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems += workload.finish()
    for outcome in outcomes:
        problems += outcome.problems

    attempted = sum(o.attempted for o in outcomes)
    failed_all = sum(o.counted_failed for o in outcomes)
    unexpected = sum(o.unexpected for o in outcomes)
    error_rate = failed_all / attempted
    wall = total(times[False])
    raw_wall = total(raw[False])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = import_s + setup_median

    print(
        f"{args.workload} seed={args.seed}: wall_s={wall:.4f} s (raw {raw_wall:.4f} s) "
        f"peak_rss_mb={peak_rss_mb:.1f} MB setup_s={setup_s:.4f} s "
        f"error_rate={error_rate:.6f} ({failed_all}/{attempted}) "
        f"passes={passes} pieces={workload.pieces}"
    )
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}")

    if args.trace:
        metrics = {
            name: {"value": value, "unit": workloads.LAYER_UNITS[name]}
            for name, value in summarize_layers(layer_rows, times, raw).items()
        }
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "success_rate": {"value": 1.0 - error_rate, "unit": "ratio"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": unexpected,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
