"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import shutil
import sys
import threading
import types

import pytest

import run

run.import_netmon()

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def tiny(name):
    """Each workload at a size that runs in well under a second."""
    return {
        "sim_calibrated": lambda: workloads.SimCalibrated(runs=50),
        "sim_linked_cli": lambda: workloads.SimLinkedCli(runs=8),
        "pipeline_shared": lambda: workloads.Pipeline(name, 2, distinct_urls=False),
        "pipeline_distinct": lambda: workloads.Pipeline(name, 2, distinct_urls=True),
    }[name]()


def snapshot(directory):
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def run_once(workload, out, tracer=None):
    if tracer is not None:
        workloads.install(tracer)
    try:
        result = workload.run(0, out)
    finally:
        if tracer is not None:
            tracer.restore()
    return result


def test_same_seed_same_inputs(tmp_path):
    digests = {}
    for seed, copy in ((5, "a"), (5, "b"), (6, "c")):
        for distinct in (False, True):
            d = tmp_path / f"{copy}{distinct}"
            d.mkdir()
            inputs.write_corpus(d, seed, 3, distinct)
            inputs.write_linked_config(d)
            digests[copy, distinct] = run.input_digest(d)
    for distinct in (False, True):
        assert digests["a", distinct] == digests["b", distinct]
        assert digests["a", distinct] != digests["c", distinct]


@pytest.mark.parametrize("name", run.NAMES)
def test_outputs_pass_their_checks(name, tmp_path, capsys):
    workload = tiny(name)
    workload.build(tmp_path, 3)
    out = tmp_path / "out"
    outcome = workload.check(run_once(workload, out), out)
    assert outcome.problems == []
    assert outcome.unexpected == 0
    assert workload.finish() == []


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_run_leaves_outputs_identical(name, tmp_path, capsys):
    workload = tiny(name)
    workload.build(tmp_path, 3)
    out = tmp_path / "out"
    plain = run_once(workload, out)
    plain_files = snapshot(out) if out.exists() else {}
    shutil.rmtree(out, ignore_errors=True)
    traced = run_once(workload, out, Tracer())
    traced_files = snapshot(out) if out.exists() else {}
    assert traced_files == plain_files
    if name == "sim_calibrated":
        assert traced == plain


def test_wrappers_are_removed():
    targets = [t for t, _, _ in workloads.SPANS] + [t for t, _ in workloads.COUNTS]
    targets.append(workloads.FETCHER[0])

    def current(target):
        module, attr = target.rsplit(".", 1)
        return getattr(importlib.import_module(module), attr)

    originals = {t: current(t) for t in targets}
    tracer = Tracer()
    workloads.install(tracer)
    try:
        assert all(current(t) is not originals[t] for t in targets)
    finally:
        tracer.restore()
    assert all(current(t) is originals[t] for t in targets)
    assert not tracer.installed


@pytest.mark.parametrize("name", run.NAMES)
def test_counters_repeat_exactly(name, tmp_path, capsys):
    workload = tiny(name)
    workload.build(tmp_path, 4)
    seen = []
    for i in range(2):
        tracer = Tracer()
        run_once(workload, tmp_path / f"out{i}", tracer)
        spans, counts = tracer.take()
        metrics = workloads.layer_metrics(spans, counts, workload.messages)
        seen.append((counts, {k: metrics[k] for k in workloads.COUNT_METRICS}))
        assert set(metrics) | {"trace_overhead", "raw_wall_s"} == set(workloads.LAYER_UNITS)
    assert seen[0] == seen[1]
    assert sum(seen[0][0].values()) > 0


def test_self_time_excludes_children():
    toy = types.ModuleType("perfbench_toy")

    def inner():
        return sum(range(20000))

    def outer():
        return toy.inner() + toy.inner()

    toy.inner, toy.outer = inner, outer
    sys.modules[toy.__name__] = toy
    tracer = Tracer()
    try:
        tracer.span("perfbench_toy.outer", "outer")
        tracer.span("perfbench_toy.inner", "inner")
        toy.outer()
    finally:
        tracer.restore()
        del sys.modules[toy.__name__]
    spans, _ = tracer.take()
    by_name = {}
    for sid, name, start, end, parent, self_s in spans:
        by_name.setdefault(name, []).append((sid, start, end, parent, self_s))
    (outer_id, o_start, o_end, o_parent, o_self), = by_name["outer"]
    assert o_parent is None
    children = by_name["inner"]
    assert [c[3] for c in children] == [outer_id, outer_id]
    covered = sum(c[2] - c[1] for c in children)
    assert o_self == pytest.approx(o_end - o_start - covered, abs=1e-4)
    assert all(c[4] == pytest.approx(c[2] - c[1], abs=1e-4) for c in children)


def test_counters_are_thread_safe():
    toy = types.ModuleType("perfbench_toy_threads")
    toy.ping = lambda: None
    sys.modules[toy.__name__] = toy
    tracer = Tracer()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer.count("perfbench_toy_threads.ping", "pings")

        def hammer():
            for _ in range(20000):
                toy.ping()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
        tracer.restore()
        del sys.modules[toy.__name__]
    assert tracer.counts["pings"] == 4 * 20000


def test_reference_loop_is_fixed_and_leaves_gc_alone():
    import gc

    import reference

    assert reference.reference() == reference.reference()
    assert gc.isenabled()
    assert reference.timed() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.timed()
        assert not gc.isenabled()
    finally:
        gc.enable()
