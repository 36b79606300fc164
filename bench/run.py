#!/usr/bin/env python3
"""prokit benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload tasks|vanishing|tor_edge \
        --seed N --seconds S --trace 0|1

Run from the root of a prokit checkout.  One process, one caller, each
operation issued after the previous one returns.  A run repeats passes over
the operation set the seed selects until about S seconds are spent, checks
every answer, and prints one JSON object as its last line.  With --trace 0
it holds the end-to-end metrics (at least MIN_SAMPLES operations and
MIN_PASSES passes are timed); with --trace 1 untraced and traced passes
alternate, at least two of each, and it holds the per-layer metrics.  The
line before it is a `detail` object: sample counts, failed_frac, host-drift
probes, raw (unscaled) seconds, failures and layer names that no longer
exist.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from tracer import Tracer
from workloads import GOLDEN_PATH, REPO_DIR, build, load_pinned, plan

SRC_DIR = REPO_DIR / "src"
OUT_DIR = REPO_DIR / ".bench_out"
WORKLOADS = ("tasks", "vanishing", "tor_edge")
MIN_SAMPLES = 100
MIN_PASSES = 3
IMPORT_SAMPLES = 7
SETUP_SAMPLES = 4       # input builds before the timed phase, besides one per pass
PROBE_EVERY = 0.5       # seconds of operations between two host probes
# host_probe() seconds on an idle 2-vCPU x86-64 VM under CPython 3.11.
# Reported seconds are scaled to a host where the probe takes this long
# (see bench/README.md, "Host drift"); raw seconds are in `detail`.
REFERENCE_PROBE_S = 0.021
PROKIT_MODULES = ("intlinalg", "rings", "modules", "complexes", "analysis", "tasks", "cli")

# per-layer functions reported by name; every other traced name still
# counts towards its layer's totals
LAYER_FUNCTIONS = {
    "intlinalg": ("snf", "hnf", "span_contains", "IntLinearSystem.__init__",
                  "IntLinearSystem.solve", "IntMatrix.__mul__", "IntMatrix.apply",
                  "GroupHom.compose", "direct_sum_groups"),
    "rings": ("check_ring_axioms", "FiniteRing.__init__"),
    "modules": ("FgModule.validate", "free_resolution", "span_closure",
                "local_cohomology", "direct_sum_modules", "module_power"),
    "complexes": ("cech_tor_compare", "cech_homology", "cech_cohomology",
                  "koszul_complex", "stable_limit"),
    "analysis": ("lipman_profile", "gm_profile", "weak_profile",
                 "injective_criterion", "local_global_check", "cartier_check"),
    "tasks": ("parse_spec", "run_task", "emit_report"),
}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    f"import {', '.join('prokit.' + m for m in PROKIT_MODULES)}\n"
    "print(time.perf_counter() - t)\n"
)


def import_prokit():
    """Import prokit from the checkout's src/ (never an installed copy)."""
    if not (SRC_DIR / "prokit" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no prokit sources under {SRC_DIR}; run from a prokit checkout")
    sys.path.insert(0, str(SRC_DIR))
    for name in PROKIT_MODULES:
        importlib.import_module(f"prokit.{name}")
    return sys.modules["prokit"]


def import_seconds(probes):
    """Median seconds to import prokit in a fresh interpreter; appends a
    host probe after each import to `probes`."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC_DIR)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout))
        probes.append(host_probe())
    return statistics.median(times)


def host_probe():
    """Seconds for a fixed stdlib-only loop: a gauge of how fast the shared
    host runs right now, independent of prokit."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


def host_scale(probes):
    """Factor that converts seconds measured next to these probes into
    seconds on a host where the probe takes REFERENCE_PROBE_S."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload, seed, seconds, trace, tiny=False):
    """Measure one run; returns (result, detail) dicts.  `tiny` runs one
    untraced (and, with `trace`, one traced) pass over a two-or-three
    operation set, for the self-test."""
    pk = import_prokit()
    pinned = load_pinned()
    digests = pinned[workload]["digest"]
    golden = GOLDEN_PATH.read_bytes() if workload == "tasks" else None
    keys = plan(workload, seed, pinned, tiny)
    tracer = Tracer() if trace else None

    setup_probes = [host_probe()]
    import_s = import_seconds(setup_probes)
    gen_s = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        build(pk, workload, keys, golden)
        gen_s.append(perf_counter() - t0)
        setup_probes.append(host_probe())
    raw_walls, walls, traced_walls, samples, probes = [], [], [], [], []
    layer_passes = []      # traced passes: (stats, edges, host scale)
    attempted = failed = 0
    failures = []
    t_start = perf_counter()
    pass_s = []
    while True:
        t_pass = perf_counter()
        traced = trace and len(walls) > len(traced_walls)
        gc.collect()
        pass_probes = [host_probe()]
        if traced:
            tracer.reset()
            tracer.install()
        try:
            t0 = perf_counter()
            ops = build(pk, workload, keys, golden)
            gen_s.append(perf_counter() - t0)
            results = []
            since_probe = 0.0
            for key, op, _ in ops:
                t0 = perf_counter()
                try:
                    out, error = op(), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    out, error = None, f"{type(exc).__name__}: {exc}"
                lat = perf_counter() - t0
                results.append((lat, out, error))
                since_probe += lat
                if since_probe >= PROBE_EVERY:
                    pass_probes.append(host_probe())
                    since_probe = 0.0
        finally:
            if traced:
                tracer.uninstall()
        pass_probes.append(host_probe())
        probes += pass_probes
        scale = host_scale(pass_probes)
        for (key, _, check), (lat, out, error) in zip(ops, results):
            attempted += 1
            if error is None:
                ok, digest = check(out)
                if not ok:
                    error = "wrong answer"
                elif digest != digests.get(key):
                    error = f"digest {digest} != pinned {digests.get(key)}"
            if error is not None:
                failed += 1
                failures.append(f"{key}: {error}")
        lats = [r[0] * scale for r in results]
        if traced:
            traced_walls.append(sum(lats))
            layer_passes.append((*tracer.snapshot(), scale))
        else:
            raw_walls.append(sum(r[0] for r in results))
            walls.append(sum(lats))
            samples.extend(lats)
        pass_s.append(perf_counter() - t_pass)
        if tiny:
            if len(traced_walls) >= (1 if trace else 0):
                break
            continue
        if trace:
            done = len(traced_walls) >= 2
        else:
            done = len(samples) >= MIN_SAMPLES and len(walls) >= MIN_PASSES
        elapsed = perf_counter() - t_start
        if done and elapsed + statistics.median(pass_s) / 2 > seconds:
            break

    detail = {
        "workload": workload,
        "seed": seed,
        "passes": len(walls),
        "traced_passes": len(traced_walls),
        "ops_per_pass": len(keys),
        "op_samples": len(samples),
        "failed_frac": failed / attempted,
        "host_probe_s": statistics.median(probes),
        "setup_host_probe_s": statistics.median(setup_probes),
        "import_s": import_s,
        "generate_s": statistics.median(gen_s),
        "raw_wall_s": statistics.median(raw_walls),
        "raw_wall_s_passes": raw_walls,
        "failures": failures[:10],
    }
    correct = failed == 0
    if not trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (statistics.median(samples), "s"),
            "op_p90_s": (percentile(samples, 90), "s"),
            "setup_s": ((import_s + statistics.median(gen_s)) * host_scale(setup_probes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics, layer_detail = layer_metrics(layer_passes, tracer)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls), "ratio")
        detail.update(layer_detail)
        correct = correct and layer_detail["counts_stable"]
        write_trace(workload, seed, layer_passes[0])
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, detail


def layer_metrics(layer_passes, tracer):
    """Per-layer metrics from the traced passes: call counts of the first
    pass (they repeat exactly), medians of host-scaled self and inclusive
    seconds."""
    first = layer_passes[0][0]
    counts_stable = all(
        {n: s[0] for n, s in stats.items()} == {n: s[0] for n, s in first.items()}
        for stats, _, _ in layer_passes
    )

    def seconds(names, field):
        return statistics.median(
            scale * sum(stats[n][field] for n in names if n in stats)
            for stats, _, scale in layer_passes
        )

    metrics = {}
    absent = list(tracer.absent)
    for layer, funcs in LAYER_FUNCTIONS.items():
        for func in funcs:
            name = f"{layer}.{func}"
            if name not in first:
                absent.append(name)
            metrics[f"{name}.calls"] = (first.get(name, (0,))[0], "count")
            metrics[f"{name}.self_s"] = (seconds([name], 1), "s")
            metrics[f"{name}.incl_s"] = (seconds([name], 2), "s")
    for layer in LAYER_FUNCTIONS:
        names = [n for n in first if n.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = (sum(first[n][0] for n in names), "count")
        metrics[f"{layer}.self_s"] = (seconds(names, 1), "s")
    calls, raised = first.get("complexes.stable_limit", (0, 0.0, 0.0, 0))[::3]
    metrics["complexes.stable_limit.raised"] = (raised, "count")
    metrics["complexes.stable_limit.ok_ratio"] = (
        (calls - raised) / calls if calls else 1.0, "ratio")
    detail = {"counts_stable": counts_stable, "absent": sorted(set(absent))}
    return metrics, detail


def write_trace(workload, seed, traced_pass):
    """Write the first traced pass's spans, aggregated per function and per
    (parent, child) edge, in raw seconds to .bench_out/ for inspection."""
    stats, edges, _ = traced_pass
    OUT_DIR.mkdir(exist_ok=True)
    doc = {
        "functions": {n: {"calls": s[0], "self_s": s[1], "incl_s": s[2], "raised": s[3]}
                      for n, s in sorted(stats.items()) if s[0]},
        "edges": [{"parent": p, "child": c, "calls": v[0], "incl_s": v[1]}
                  for (p, c), v in sorted(edges.items(), key=lambda kv: -kv[1][1])],
    }
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
