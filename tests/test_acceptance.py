"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces the stated instance counts, tolerances, and runtime budgets.
Random batteries are seeded and therefore replayable.
"""

import time
from math import prod

from prokit.analysis import (
    bounded_torsion_index,
    cartier_check,
    gm_profile,
    injective_criterion,
    lipman_profile,
    local_global_check,
    verify_bound_transfer,
    weak_profile,
)
from prokit.complexes import (
    cech_cohomology,
    cech_homology,
    cech_tor_compare,
    colon_identification,
)
from prokit.errors import ProkitError
from prokit.intlinalg import IntMatrix, snf
from prokit.modules import (
    adic_completion,
    local_cohomology,
    matlis_dual,
    modules_isomorphic,
    ring_as_module,
    submodule_module,
    torsion_submodule,
)
from prokit.randgen import rng_from_seed
from prokit.rings import ideal, zmod
from prokit.tasks import parse_spec, run_task

from complex_reference import hom_module
from linalg_reference import det
from random_instances import random_element, random_instance, random_ring


def report_line(num, ok, label, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {label} ({time.monotonic() - t0:.2f}s)")
    assert ok, f"criterion {num} failed: {label}"


def test_acceptance_01_exact_linalg_oracles():
    t0 = time.monotonic()
    rng = rng_from_seed(0xA001)
    failures = 0
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        A = IntMatrix(rows, cols, [rng.randint(-20, 20) for _ in range(rows * cols)])
        D, U, V = snf(A)
        if U * A * V != D:
            failures += 1
            continue
        diag = [D[i, i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a and b % a != 0:
                failures += 1
        if rows == cols:
            d = det(A)
            if d != 0 and prod(diag) != abs(d):
                failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 5.0
    report_line(1, ok, f"200 SNF oracles, {failures} failures, {elapsed:.2f}s < 5s", t0)


def test_acceptance_02_koszul_colon_identification():
    t0 = time.monotonic()
    rng = rng_from_seed(0xA002)
    failures = 0
    count = 0
    while count < 100:
        R, M, seq = random_instance(rng, k_max=3)
        if M.is_zero_module():
            continue
        i = rng.randint(1, len(seq))
        n = rng.randint(1, 2)
        extras = [e for e in (1, 2) if n + e <= 4][: rng.randint(1, 2)]
        try:
            witness, verified = colon_identification(
                list(seq[: i - 1]), seq[i - 1], n, M, extra_levels=tuple(extras)
            )
        except ProkitError:
            failures += 1
            count += 1
            continue
        if not verified or not all(sq["commutes"] for sq in witness["squares"]):
            failures += 1
        count += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 60.0
    report_line(2, ok, f"100 colon identifications, {failures} failures, {elapsed:.2f}s < 60s", t0)


def test_acceptance_03_single_element_law():
    t0 = time.monotonic()
    rng = rng_from_seed(0xA003)
    failures = 0
    for _ in range(100):
        R, M, _ = random_instance(rng, k_max=1)
        x = random_element(rng, R)
        c, _ = bounded_torsion_index(M, x)
        lip = lipman_profile(M, [x], 2)
        gm = gm_profile(M, [x], 2)
        for n in (1, 2):
            if lip.entry(1, n) != n + c or gm.entry(1, n) != lip.entry(1, n):
                failures += 1
                break
    ok = failures == 0
    report_line(3, ok, f"100 single-element laws, {failures} failures", t0)


def test_acceptance_04_bound_transfer():
    t0 = time.monotonic()
    rng = rng_from_seed(0xA004)
    failures = 0
    for _ in range(50):
        R, M, seq = random_instance(rng, k_max=3)
        n_max = 3
        lip = lipman_profile(M, seq, n_max)
        gm = gm_profile(M, seq, len(seq) * n_max)
        try:
            out = verify_bound_transfer(M, seq, lip, gm)
        except ProkitError:
            failures += 1
            continue
        if not out.passed:
            failures += 1
    ok = failures == 0
    report_line(4, ok, f"50 bound transfers, {failures} failures", t0)


def test_acceptance_05_finite_implies_proregular_and_weak():
    t0 = time.monotonic()
    rng = rng_from_seed(0xA005)
    inconclusive = 0
    for _ in range(100):
        R, M, seq = random_instance(rng, k_max=3)
        n_max = 2
        lip = lipman_profile(M, seq, n_max)
        gm = gm_profile(M, seq, n_max)
        wk = weak_profile(M, seq, n_max)
        for prof in (lip, gm, wk):
            if not prof.all_conclusive():
                inconclusive += 1
                break
    ok = inconclusive == 0
    report_line(5, ok, f"100 instances, {inconclusive} with inconclusive profiles", t0)


def test_acceptance_06_homological_vanishing():
    t0 = time.monotonic()
    rng = rng_from_seed(0xA006)
    failures = 0
    for _ in range(100):
        R, M, seq = random_instance(rng, k_max=3)
        I = ideal(R, list(seq))
        k = len(seq)
        bad = False
        for i in range(1, k + 1):
            if not cech_cohomology(list(seq), M, i).is_zero_module():
                bad = True
            if not local_cohomology(M, I, i).is_zero_module():
                bad = True
        h0 = cech_cohomology(list(seq), M, 0)
        gamma, _ = submodule_module(M, torsion_submodule(M, I))
        lc0 = local_cohomology(M, I, 0)
        if not (modules_isomorphic(h0, gamma) and modules_isomorphic(h0, lc0)):
            bad = True
        try:
            for i in range(1, k + 1):
                if not cech_homology(list(seq), M, i).is_zero_module():
                    bad = True
            ch0 = cech_homology(list(seq), M, 0)
            lam, _ = adic_completion(M, I)
            if not modules_isomorphic(ch0, lam):
                bad = True
        except ProkitError:
            bad = True
        if bad:
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 120.0
    report_line(6, ok, f"100 vanishing batteries, {failures} failures, {elapsed:.2f}s < 120s", t0)


def test_acceptance_07_injective_dual_criteria():
    t0 = time.monotonic()
    # exactly the instance stream of criterion 5; modes drawn separately
    rng_inst = rng_from_seed(0xA005)
    instances = [random_instance(rng_inst, k_max=3) for _ in range(100)]
    rng_mode = rng_from_seed(0xA007)
    failures = 0
    for R, M, seq in instances:
        mode = "proregular" if rng_mode.random() < 0.5 else "weak"
        out = injective_criterion(M, seq, mode)
        if not out.passed or not out.details["agrees_with_profile"]:
            failures += 1
    hom_failures = 0
    rng2 = rng_from_seed(0xA007)
    for _ in range(20):
        R, notables = random_ring(rng2)
        E = matlis_dual(ring_as_module(R))
        H = hom_module(E, E)
        seq = [random_element(rng2, R) for _ in range(rng2.randint(1, 2))]
        try:
            for i in range(1, len(seq) + 1):
                if not cech_homology(list(seq), H, i).is_zero_module():
                    hom_failures += 1
                    break
        except ProkitError:
            hom_failures += 1
    ok = failures == 0 and hom_failures == 0
    report_line(
        7,
        ok,
        f"100 criteria ({failures} fail), 20 hom(E,E) vanishings ({hom_failures} fail)",
        t0,
    )


def test_acceptance_08_example_reproductions():
    t0 = time.monotonic()
    from prokit.cli import _load_task_text

    task = parse_spec(_load_task_text("fixture:ex1_truncated"))
    report = run_task(task)
    seqs = {tuple(s["sequence"]): s for s in report.body["results"]["sequences"]}
    fwd = seqs[("x",)]
    rev = seqs[("one", "x")]
    ok = (
        fwd["tracked"]["entry_1_1"] == [3, 4, 5, 6, 7]
        and fwd["divergence"]["entry_1_1"]
        and rev["bounded"]["profile_entries"]
        and all(
            m == n
            for lvl in rev["levels"]
            for i, n, m, _ in lvl["profile"]["rows"]
        )
    )
    task2 = parse_spec(_load_task_text("fixture:ex2_truncated"))
    report2 = run_task(task2)
    seq2 = report2.body["results"]["sequences"][0]
    ok = ok and seq2["tracked"]["torsion_index_max"] == [2, 3, 4, 5]
    ok = ok and seq2["divergence"]["torsion_index_max"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    report_line(8, ok, f"family sweeps reproduce both examples, {elapsed:.2f}s < 30s", t0)


def test_acceptance_09_local_global():
    t0 = time.monotonic()
    rng = rng_from_seed(0xA009)
    failures = 0
    for trial in range(50):
        R, M, seq = random_instance(rng, k_max=2)
        if trial % 3 == 0:
            try:
                out = local_global_check(M, seq)
            except ProkitError:
                failures += 1
                continue
        else:
            f = random_element(rng, R)
            covering = [f, R.one() - f]
            out = local_global_check(M, seq, covering=covering)
        if not out.passed:
            failures += 1
    ok = failures == 0
    report_line(9, ok, f"50 local-global checks, {failures} failures", t0)


def test_acceptance_10_cartier_prism():
    t0 = time.monotonic()
    R = zmod(12)
    out = cartier_check(R, ideal(R, [R.from_int(3)]), R.from_int(2))
    fixture_ok = out.passed and all(
        conclusive and m == n for i, n, m, conclusive in out.details["profile_rows"]
    ) and out.details["divisible"]
    rng = rng_from_seed(0xA010)
    mismatches = 0
    for _ in range(50):
        R, notables = random_ring(rng)
        gens = [random_element(rng, R) for _ in range(rng.randint(1, 2))]
        I = ideal(R, gens)
        x = random_element(rng, R)
        res = cartier_check(R, I, x, n_max=2)
        if res.details["profile_conclusive"] != res.details["divisible"]:
            mismatches += 1
    ok = fixture_ok and mismatches == 0
    report_line(10, ok, f"prism fixture ok={fixture_ok}, 50 random (a)<=>(b), {mismatches} mismatches", t0)


def test_acceptance_11_tor_edge_comparison():
    t0 = time.monotonic()
    rng = rng_from_seed(0xA011)
    failures = 0
    for _ in range(20):
        R, M, seq = random_instance(rng, k_max=2, module_order=64)
        N = ring_as_module(R) if rng.random() < 0.4 else M
        for i in (0, 1):
            try:
                lhs, rhs, agree = cech_tor_compare(M, N, seq, i, i + 2)
            except ProkitError:
                failures += 1
                continue
            if not agree:
                failures += 1
    ok = failures == 0
    report_line(11, ok, f"20 Tor edge comparisons at i in {{0,1}}, {failures} failures", t0)


def test_acceptance_12_determinism():
    t0 = time.monotonic()
    from prokit.cli import _load_task_text

    ok = True
    for name in ("z12_battery", "prism_style", "ex1_truncated"):
        text = _load_task_text(f"fixture:{name}")
        a = run_task(parse_spec(text))
        b = run_task(parse_spec(text))
        if a.body_bytes() != b.body_bytes():
            ok = False
    report_line(12, ok, "byte-identical report bodies across reruns", t0)
