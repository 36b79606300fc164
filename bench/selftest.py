#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload on a two-or-three-operation pass, untraced and traced,
and checks that every metric BENCHMARK.json names is emitted with its unit,
that nothing failed (failed_frac = 0), and that traced call counts repeat
exactly between two runs.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import REPO_DIR

SPEC = json.loads((REPO_DIR / "BENCHMARK.json").read_text())


def check_metrics(result, declared, label):
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            raise SystemExit(f"selftest: {label}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            raise SystemExit(f"selftest: {label}: {m['name']} has unit {got[m['name']]['unit']}")
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        raise SystemExit(f"selftest: {label}: undeclared metrics {sorted(extra)}")


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        result, detail = run.run(name, 1, 0, trace=False, tiny=True)
        check_metrics(result, SPEC["end_to_end"], f"{name} --trace 0")
        traced, tdetail = run.run(name, 1, 0, trace=True, tiny=True)
        check_metrics(traced, SPEC["per_layer"], f"{name} --trace 1")
        again, _ = run.run(name, 1, 0, trace=True, tiny=True)
        for res, det in ((result, detail), (traced, tdetail)):
            if not res["correct"] or det["failed_frac"] != 0:
                raise SystemExit(f"selftest: {name}: failures {det['failures']}")
        counts = {k: v for k, v in traced["metrics"].items() if k.endswith(".calls")}
        if counts != {k: v for k, v in again["metrics"].items() if k.endswith(".calls")}:
            raise SystemExit(f"selftest: {name}: traced call counts differ between runs")
        print(f"selftest: {name} ok ({detail['ops_per_pass']} operations, "
              f"{len(result['metrics'])} + {len(traced['metrics'])} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
