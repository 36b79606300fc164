"""The three workloads: which operations a pass runs, how each is run, and
how its answer is checked.

An operation returns `(ok, digest)`: `ok` is the workload's own test of the
answer and `digest` hashes the outputs, which must equal the value pinned
in `pinned.json`.  The digests catch wrong answers that the mathematical
checks alone would pass, e.g. a cache returning zero modules.

`tasks` runs a fixed multiset of task documents; its seed only orders them.
`vanishing` and `tor_edge` draw from pinned catalogues of generated
instances.  Their cheap ("small") operations are cut into strata of cost
neighbours, the costliest few alone; the seed picks one operation per
stratum and the order.  Their heavy operations over Z/2 x Z/4 x Z/8 run in
every pass.  That keeps the cost of a pass, and the spread of operation
latencies, nearly independent of the seed, while each seed runs different
inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from gen import tor_instance, vanishing_instance

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
PINNED_PATH = BENCH_DIR / "pinned.json"
FIXTURES = ("z12_battery", "prism_style", "ex1_truncated", "ex2_truncated")
GOLDEN_PATH = REPO_DIR / "tests" / "data" / "ex1_sweep_golden.json"

# generated sweeps: (family kind, extra keys, levels, sequence groups); one
# document per level and per group.  The polynomial levels carry both
# sequences in one document, as the fixtures do; the cheap two-power levels
# take one document per sequence.  That makes 25 documents, so the 50th and
# 90th latency percentiles fall in the middle of one document's samples
# rather than between two documents of different cost.
X, ONE_X = ("x",), ("one", "x")
SWEEPS = (
    ("truncated_two_power", {}, range(2, 10), ((X,), (ONE_X,))),
    ("truncated_polynomial", {"q": 2}, range(2, 7), ((X, ONE_X),)),
)


def digest_of(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def load_pinned():
    return json.loads(PINNED_PATH.read_text())


# ---------------------------------------------------------------------------
# tasks


def sweep_document(kind, extra, N, seqs):
    family = {"kind": kind, **extra, "range": [N, N], "sequences": [list(q) for q in seqs]}
    doc = {"schema": 1, "family": family, "analysis": {"kind": "sweep"},
           "bounds": {"n_max": 2}, "seed": 7}
    return json.dumps(doc, sort_keys=True)


def task_keys():
    keys = [f"fixture:{name}" for name in FIXTURES]
    for kind, _, levels, groups in SWEEPS:
        for N in levels:
            for seqs in groups:
                keys.append(f"sweep:{kind}:{N}:{'|'.join('+'.join(q) for q in seqs)}")
    return keys


def task_text(key):
    if key.startswith("fixture:"):
        name = key.split(":", 1)[1]
        return (REPO_DIR / "src" / "prokit" / "fixtures" / f"{name}.json").read_text()
    _, kind, N, seqs = key.split(":")
    extra = next(e for k, e, _, _ in SWEEPS if k == kind)
    return sweep_document(kind, extra, int(N), [q.split("+") for q in seqs.split("|")])


def task_op(pk, key, text, golden):
    def run():
        report = pk.tasks.run_task(pk.tasks.parse_spec(text))
        emitted = pk.tasks.emit_report(report, "json")
        return report, emitted

    def check(out):
        report, emitted = out
        body = report.body_bytes()
        doc = json.loads(emitted)
        doc.pop("timing", None)
        ok = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() == body
        if key == "fixture:ex1_truncated":
            ok = ok and body == golden
        return ok, hashlib.sha256(body).hexdigest()[:16]

    return run, check


# ---------------------------------------------------------------------------
# vanishing: the criterion-06 battery


def vanishing_op(pk, inst):
    R, M, seq = inst
    cx, md = pk.complexes, pk.modules

    def run():
        I = pk.rings.ideal(R, list(seq))
        k = len(seq)
        zero = []      # modules that must vanish
        pairs = []     # module pairs that must agree
        for i in range(1, k + 1):
            zero.append(cx.cech_cohomology(list(seq), M, i))
            zero.append(md.local_cohomology(M, I, i))
        h0 = cx.cech_cohomology(list(seq), M, 0)
        gamma, _ = md.submodule_module(M, md.torsion_submodule(M, I))
        lc0 = md.local_cohomology(M, I, 0)
        pairs += [(h0, gamma, md.modules_isomorphic(h0, gamma)),
                  (h0, lc0, md.modules_isomorphic(h0, lc0))]
        for i in range(1, k + 1):
            zero.append(cx.cech_homology(list(seq), M, i))
        ch0 = cx.cech_homology(list(seq), M, 0)
        lam, _ = md.adic_completion(M, I)
        pairs.append((ch0, lam, md.modules_isomorphic(ch0, lam)))
        return zero, pairs

    def check(out):
        zero, pairs = out
        ok = all(Z.is_zero_module() for Z in zero) and all(p[2] for p in pairs)
        factors = [Z.group.invariant_factors for Z in zero]
        factors += [(A.group.invariant_factors, B.group.invariant_factors) for A, B, _ in pairs]
        return ok, digest_of(factors)

    return run, check


# ---------------------------------------------------------------------------
# tor_edge: cech_tor_compare at degree 0 or 1


def tor_op(pk, inst, i):
    R, M, N, seq = inst

    def run():
        return pk.complexes.cech_tor_compare(M, N, list(seq), i, i + 2)

    def check(out):
        lhs, rhs, agree = out
        return agree, digest_of((lhs.group.invariant_factors, rhs.group.invariant_factors))

    return run, check


# ---------------------------------------------------------------------------
# catalogue keys: "s17" / "h3" name small / heavy instance 17 / 3; tor_edge
# keys add the degree, "s17:1"


def parse_key(key):
    parts = key.split(":")
    return parts[0][0] == "h", int(parts[0][1:]), (int(parts[1]) if len(parts) > 1 else None)


def plan(workload, seed, pinned, tiny=False):
    """The operation keys of one pass, in order; a function of the seed."""
    rng = random.Random(seed)
    if workload == "tasks":
        keys = task_keys()
        if tiny:
            keys = [k for k in keys if k.endswith((":2:x", ":2:x|one+x", "prism_style"))]
    else:
        cat = pinned[workload]
        strata = cat["strata"][:2] if tiny else cat["strata"]
        keys = [rng.choice(s) for s in strata] + ([] if tiny else list(cat["fixed"]))
    rng.shuffle(keys)
    return keys


def build(pk, workload, keys, golden=None):
    """Fresh inputs for one pass: a list of (key, run, check)."""
    ops = []
    cache = {}
    for key in keys:
        if workload == "tasks":
            ops.append((key, *task_op(pk, key, task_text(key), golden)))
            continue
        heavy, index, degree = parse_key(key)
        if (heavy, index) not in cache:
            make = vanishing_instance if workload == "vanishing" else tor_instance
            cache[(heavy, index)] = make(pk, index, heavy)
        inst = cache[(heavy, index)]
        if workload == "vanishing":
            ops.append((key, *vanishing_op(pk, inst)))
        else:
            ops.append((key, *tor_op(pk, inst, degree)))
    return ops
