#!/usr/bin/env python3
"""Rebuild bench/pinned.json: the instance catalogues of `vanishing` and
`tor_edge` with their costs, and the answer digest of every operation.

    python3 bench/pin.py

Run it only at a commit whose answers are trusted, and only when the
workloads themselves change: the digests it writes are what every later
run is checked against.  It refuses to pin while any operation fails.
A catalogue operation's cost is its best-of-three seconds on the pinning
host; it only orders the catalogue into strata.  The traced call count is
pinned beside it.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from gen import tor_instance, vanishing_instance
from run import import_prokit
from tracer import Tracer
from workloads import (
    GOLDEN_PATH,
    PINNED_PATH,
    build,
    task_keys,
    tor_op,
    vanishing_op,
)

VANISHING_SMALL = 120   # instances; one operation each
VANISHING_HEAVY = 8
TOR_SMALL = 100         # instances; two operations each (degrees 0 and 1)
TOR_HEAVY = 6           # instances; degree 0 only
# (tail, stratum): the `tail` costliest small operations run in every pass;
# of the rest the seed picks one of each `stratum` cost neighbours
STRATA = {"vanishing": (4, 4), "tor_edge": (8, 4)}
TIMINGS = 3             # untraced runs that time each operation


def split_ideal(pk, inst):
    """The sequence's ideal stabilizes at a proper nontrivial idempotent, so
    R/I^c needs the free resolution whose ranks double at every step."""
    R, _, seq = inst
    _, e = pk.rings.ideal_stabilization(pk.rings.ideal(R, list(seq)))
    return not e.is_zero() and e != R.one()


def measure(tracer, key, op):
    """(digest, traced calls, best-of-TIMINGS seconds) of one operation."""
    run_op, check = op
    tracer.reset()
    tracer.install()
    try:
        out = run_op()
    finally:
        tracer.uninstall()
    ok, digest = check(out)
    if not ok:
        raise SystemExit(f"pin.py: {key} gives a wrong answer; nothing pinned")
    calls = sum(s[0] for s in tracer.stats.values())
    times = []
    for _ in range(TIMINGS):
        t0 = perf_counter()
        run_op()
        times.append(perf_counter() - t0)
    print(f"{key:>36} {calls:8d} calls {min(times):8.4f} s", file=sys.stderr)
    return digest, calls, min(times)


def catalogue(tracer, workload, small, heavy):
    """Strata of the small operations by pinned seconds (the costliest
    alone, the rest in groups of cost neighbours); heavy ones fixed."""
    tail, stratum = STRATA[workload]
    digest, calls, seconds = {}, {}, {}
    for key, op in small + heavy:
        digest[key], calls[key], seconds[key] = measure(tracer, key, op)
    order = sorted((k for k, _ in small), key=lambda k: (seconds[k], k))
    body, top = order[: len(order) - tail], order[len(order) - tail:]
    first = stratum + len(body) % stratum   # the cheapest remainder joins stratum 0
    strata = [body[:first]] + [body[i: i + stratum] for i in range(first, len(body), stratum)]
    strata += [[k] for k in top]
    return {"strata": strata, "fixed": [k for k, _ in heavy], "digest": digest,
            "calls": calls, "seconds": {k: round(v, 6) for k, v in seconds.items()}}


def vanishing(pk, tracer):
    small = [(f"s{i}", vanishing_op(pk, vanishing_instance(pk, i, 0)))
             for i in range(VANISHING_SMALL)]
    heavy, i = [], 0
    while len(heavy) < VANISHING_HEAVY:
        inst = vanishing_instance(pk, i, 1)
        if split_ideal(pk, inst):
            heavy.append((f"h{i}", vanishing_op(pk, inst)))
        i += 1
    return catalogue(tracer, "vanishing", small, heavy)


def tor_edge(pk, tracer):
    small = []
    for i in range(TOR_SMALL):
        inst = tor_instance(pk, i, 0)
        small += [(f"s{i}:{d}", tor_op(pk, inst, d)) for d in (0, 1)]
    heavy = [(f"h{i}:0", tor_op(pk, tor_instance(pk, i, 1), 0)) for i in range(TOR_HEAVY)]
    return catalogue(tracer, "tor_edge", small, heavy)


def tasks(pk, tracer):
    golden = GOLDEN_PATH.read_bytes()
    digest = {}
    for key, run_op, check in build(pk, "tasks", task_keys(), golden):
        digest[key] = measure(tracer, key, (run_op, check))[0]
    return {"digest": digest}


def main():
    pk, tracer = import_prokit(), Tracer()
    pinned = {"tasks": tasks(pk, tracer), "vanishing": vanishing(pk, tracer),
              "tor_edge": tor_edge(pk, tracer)}
    PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
