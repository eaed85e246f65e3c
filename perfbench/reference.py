"""A fixed reference loop that measures how fast the machine is right now.

The benchmark's machine is a shared virtual machine whose speed moves by
up to 1.7x within minutes, with no steal time reported: CPU time moves
with wall time, so neither filters it out.  The reference loop is timed
right before and right after every timed operation; an operation's time
is reported as its ratio to the reference's time around it, times
``REF_SECONDS``.  That reads as seconds on the machine at its usual
speed, and a change to netmon moves it in full, since the loop calls
nothing of netmon.

The loop is pure-Python work of the kinds netmon does, in two parts of
about equal time.  The first is seeded random draws with probability
tests, dict tallies, small objects, string formatting and splitting, and
JSON round trips; it stays in the CPU caches.  The second builds a
table of a few megabytes keyed by URL-like strings and visits it in
shuffled order, as the pipeline's per-URL tables are; it misses the
caches.  On the pipeline workloads a loop of the first part alone swung
more than the pipeline did when the machine's speed moved, and the
second part corrected that.
"""

from __future__ import annotations

import gc
import json
import random
import time

# The loop's median time on a 2-vCPU Intel Xeon, Python 3.11.7.
REF_SECONDS = 0.070
STEPS = 1600
BATCH = 150
TABLE = 16000


class _Agent:
    __slots__ = ("id", "likes", "reposts", "alive")

    def __init__(self, ident: int):
        self.id = ident
        self.likes = 0
        self.reposts = 0
        self.alive = True


def reference() -> int:
    """Run the loop once; the result is a checksum that never changes."""
    rng = random.Random(20160704)
    agents = [_Agent(i) for i in range(64)]
    tally: dict[str, int] = {}
    rows = []
    checksum = 0
    for step in range(STEPS):
        agent = agents[step % len(agents)]
        x = rng.random()
        if x < 0.3:
            agent.likes += 1
        elif x < 0.4:
            agent.reposts += 1
        host = f"h{agent.id % 17}.example"
        url = f"http://{host}/p/{step % 101}?ref={agent.reposts}"
        scheme, _, rest = url.partition("://")
        key = rest.split("/", 1)[0].lower()
        tally[key] = tally.get(key, 0) + 1
        rows.append({"id": step, "agent": agent.id, "url": url, "p": x})
        if len(rows) == BATCH:
            text = "\n".join(json.dumps(r, sort_keys=True) for r in rows)
            checksum += sum(json.loads(line)["id"] for line in text.splitlines())
            rows = []
    ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    checksum += len(ranked) + sum(a.likes + a.reposts for a in agents)

    keys = [f"http://h{i % 977}.example/p/{i}" for i in range(TABLE)]
    table = {key: [i, None] for i, key in enumerate(keys)}
    order = list(range(TABLE))
    rng.shuffle(order)
    for i in order:
        row = table[keys[i]]
        row[1] = row[0] + 1
        checksum += row[1]
    return checksum


def timed() -> float:
    """Seconds one run of the loop takes now.

    The cyclic garbage collector is off while it runs: a collection
    walks every object of the process, so its cost would depend on what
    the workload left on the heap rather than on the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
