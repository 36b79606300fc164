"""Task files, the check battery, family sweeps, and report emission.

A task file is one JSON document (schema 1) naming a ring, optional
modules and elements, sequences, an analysis kind, and bounds.  Reports
have a canonical JSON body that is byte-identical across reruns with the
same seed; timing lives outside the body.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import __version__
from .errors import (
    BoundViolation,
    ParseError,
    ProkitError,
    UnknownReference,
)
from .analysis import (
    bounded_torsion_index,
    cartier_check,
    gm_profile,
    injective_criterion,
    is_effective_cartier,
    lipman_profile,
    local_global_check,
    power_stability_check,
    verify_bound_transfer,
    weak_profile,
)
from .complexes import cech_cohomology, cech_homology, colon_identification, cech_tor_compare
from .modules import (
    adic_completion,
    local_cohomology,
    module_from_presentation,
    modules_isomorphic,
    ring_as_module,
    submodule_module,
    torsion_submodule,
    torsion_by_colon_ascent,
)
from .randgen import rng_from_seed
from .rings import (
    check_ring_axioms,
    ideal,
    product_ring,
    quotient_ring,
    ring_from_raw,
    truncated_polynomial,
    truncated_polynomial_family,
    truncated_two_power,
    zmod,
)

SCHEMA_VERSION = 1


@dataclass
class TaskSpec:
    ring: object
    named: dict                 # name -> RingElement
    modules: dict               # name -> FgModule
    sequences: dict             # name -> list of RingElement
    analysis: dict
    bounds: dict
    seed: int
    echo: dict                  # the parsed JSON document, echoed into reports
    family: dict | None = None


@dataclass
class Report:
    body: dict
    timing: dict = field(default_factory=dict)

    @property
    def exit_code(self):
        return self.body.get("exit_code", 0)

    def body_bytes(self):
        return json.dumps(self.body, sort_keys=True, separators=(",", ":")).encode()


def _build_ring(spec, validate=True):
    kind = spec.get("kind")
    named = {}
    if kind == "zmod":
        R = zmod(int(spec["m"]))
    elif kind == "product":
        factors = []
        for sub in spec["factors"]:
            Rf, sub_named = _build_ring(sub)
            factors.append(Rf)
        R, _ = product_ring(factors)
    elif kind == "truncated_two_power":
        R, x, one = truncated_two_power(int(spec["N"]))
        named["x"] = x
    elif kind == "truncated_polynomial":
        R, t = truncated_polynomial(int(spec["q"]), int(spec["n"]))
        named["x"] = t
    elif kind == "truncated_polynomial_family":
        R, x, one = truncated_polynomial_family(int(spec["q"]), int(spec["N"]))
        named["x"] = x
    elif kind == "quotient":
        base, base_named = _build_ring(spec["ring"])
        gens = [_resolve_element(base, base_named, ref) for ref in spec["ideal"]]
        R, project = quotient_ring(base, ideal(base, gens))
        named = {name: project(el) for name, el in base_named.items()}
    elif kind == "raw":
        if validate:
            R = ring_from_raw(
                [int(o) for o in spec["orders"]],
                [[tuple(int(c) for c in col) for col in row] for row in spec["products"]],
                tuple(int(c) for c in spec["unit"]),
            )
        else:
            # axioms tasks diagnose broken tables instead of rejecting them
            from .intlinalg import FinAbGroup, IntMatrix
            from .rings import FiniteRing

            orders = [int(o) for o in spec["orders"]]
            products = [
                [tuple(int(c) for c in col) for col in row] for row in spec["products"]
            ]
            n = len(orders)
            mult = [
                IntMatrix.from_cols([list(products[i][j]) for j in range(n)], rows=n)
                for i in range(n)
            ]
            R = FiniteRing(FinAbGroup(tuple(orders)), mult, tuple(int(c) for c in spec["unit"]), check=False)
    else:
        raise ParseError(f"unknown ring kind {kind!r}")
    named["one"] = R.one()
    named["zero"] = R.zero()
    return R, named


def _resolve_element(R, named, ref):
    if isinstance(ref, str):
        if ref not in named:
            raise UnknownReference(f"element name {ref!r} is not declared")
        return named[ref]
    if isinstance(ref, int):
        return R.from_int(ref)
    if isinstance(ref, (list, tuple)):
        if len(ref) != R.rank:
            raise ParseError(f"coordinate vector of length {len(ref)} for rank {R.rank}")
        return R.element(tuple(int(c) for c in ref))
    raise ParseError(f"cannot interpret element reference {ref!r}")


def _build_module(R, named, spec):
    kind = spec.get("kind", "ring")
    if kind == "ring":
        return ring_as_module(R)
    if kind == "free":
        from .modules import free_module

        return free_module(R, int(spec["rank"])).module
    if kind == "presentation":
        gens = int(spec["generators"])
        rels = [
            [_resolve_element(R, named, ref) for ref in rel]
            for rel in spec.get("relations", [])
        ]
        for rel in rels:
            if len(rel) != gens:
                raise ParseError("relation length must equal the generator count")
        M, _, _ = module_from_presentation(R, gens, rels)
        return M
    raise ParseError(f"unknown module kind {kind!r}")


def parse_spec(text):
    """Parse and validate a task document; all names must resolve."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"task document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema {doc.get('schema')!r}")
    family = doc.get("family")
    ring_spec = doc.get("ring")
    if ring_spec is None and family is None:
        raise ParseError("task needs a ring or a family")
    bounds = dict(doc.get("bounds", {}))
    for key, val in bounds.items():
        if key in ("n_max", "m_max", "i_max", "resolution_length") and int(val) < 1:
            raise BoundViolation(f"bound {key} must be positive, got {val}")
        bounds[key] = int(val)
    seed = int(doc.get("seed", 0))
    analysis = dict(doc.get("analysis", {}))
    if family is not None:
        lo, hi = family.get("range", [2, 4])
        if int(lo) < 1 or int(hi) < int(lo):
            raise BoundViolation(f"bad family range {family.get('range')}")
        return TaskSpec(None, {}, {}, _family_sequences(family), analysis, bounds, seed, doc, family)
    diagnosing = analysis.get("kind") == "axioms"
    R, named = _build_ring(ring_spec, validate=not diagnosing)
    for name, ref in doc.get("elements", {}).items():
        named[name] = _resolve_element(R, named, ref)
    modules = {}
    if not diagnosing:
        for name, mspec in doc.get("modules", {"M": {"kind": "ring"}}).items():
            modules[name] = _build_module(R, named, mspec)
        if not modules:
            modules["M"] = ring_as_module(R)
    sequences = {}
    for name, refs in doc.get("sequences", {}).items():
        sequences[name] = [_resolve_element(R, named, ref) for ref in refs]
    if analysis.get("kind") == "profile" and analysis.get("profile") == "weak":
        if bounds.get("i_max", 1) < 1:
            raise BoundViolation("i_max must be >= 1 for weak profiles")
    return TaskSpec(R, named, modules, sequences, analysis, bounds, seed, doc, None)


def _family_sequences(family):
    seqs = family.get("sequences")
    if seqs is None:
        seqs = [family.get("sequence", ["x"])]
    return {"_family": seqs}


def _analysis_module(task):
    name = task.analysis.get("module")
    if name is None:
        return next(iter(task.modules.values()))
    if name not in task.modules:
        raise UnknownReference(f"module {name!r} is not declared")
    return task.modules[name]


def _analysis_sequence(task):
    name = task.analysis.get("sequence")
    if name is None:
        if not task.sequences:
            raise UnknownReference("no sequence declared")
        return next(iter(task.sequences.values()))
    if name not in task.sequences:
        raise UnknownReference(f"sequence {name!r} is not declared")
    return task.sequences[name]


def _profile_payload(profile):
    return {
        "kind": profile.kind,
        "n_max": profile.n_max,
        "m_max": profile.m_max,
        "rows": [list(r) for r in profile.rows()],
        "conclusive": profile.all_conclusive(),
    }


def _outcome_payload(outcome):
    return {
        "name": outcome.name,
        "passed": outcome.passed,
        "details": _jsonable(outcome.details),
        "certificates": [
            {"kind": c.kind, "data": _jsonable(c.data)} for c in outcome.certificates
        ],
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    return str(value)


def run_profile_task(task):
    M = _analysis_module(task)
    seq = _analysis_sequence(task)
    n_max = task.bounds.get("n_max", 3)
    m_max = task.bounds.get("m_max")
    kinds = task.analysis.get("profiles", [task.analysis.get("profile", "lipman")])
    results = {}
    inconclusive = False
    for kind in kinds:
        if kind == "lipman":
            prof = lipman_profile(M, seq, n_max, m_max)
        elif kind == "gm":
            prof = gm_profile(M, seq, n_max, m_max)
        elif kind == "weak":
            prof = weak_profile(M, seq, n_max, m_max, task.bounds.get("i_max"))
        else:
            raise ParseError(f"unknown profile kind {kind!r}")
        results[kind] = _profile_payload(prof)
        inconclusive = inconclusive or not prof.all_conclusive()
    return results, (2 if inconclusive else 0)


ALL_CHECKS = (
    "profiles",
    "single_element",
    "bound_transfer",
    "thm2",
    "injective_proregular",
    "injective_weak",
    "vanishing",
    "colon_identification",
    "power_stability",
    "local_global",
    "torsion_routes",
    "tor_compare",
)


def run_verify_task(task):
    M = _analysis_module(task)
    seq = _analysis_sequence(task)
    R = task.ring
    n_max = task.bounds.get("n_max", 2)
    m_max = task.bounds.get("m_max")
    rng = rng_from_seed(task.seed)
    requested = task.analysis.get("checks", "all")
    checks = ALL_CHECKS if requested == "all" else tuple(requested)
    results = {}
    failed = False
    inconclusive = False

    lip = gm = weak = None

    def note(name, payload, ok):
        nonlocal failed
        results[name] = payload
        if not ok:
            failed = True

    for check in checks:
        try:
            if check == "profiles":
                lip = lipman_profile(M, seq, n_max, m_max)
                gm = gm_profile(M, seq, n_max, m_max)
                weak = weak_profile(M, seq, n_max, m_max)
                ok = lip.all_conclusive() and gm.all_conclusive() and weak.all_conclusive()
                inconclusive = inconclusive or not ok
                note(
                    "profiles",
                    {
                        "lipman": _profile_payload(lip),
                        "gm": _profile_payload(gm),
                        "weak": _profile_payload(weak),
                        "passed": ok,
                    },
                    ok,
                )
            elif check == "single_element":
                payload = []
                ok = True
                pool = list(seq) + [
                    R.element(tuple(rng.randrange(d) for d in R.additive.invariant_factors))
                    for _ in range(2)
                ]
                for x in pool:
                    c, _ = bounded_torsion_index(M, x)
                    p_l = lipman_profile(M, [x], 2)
                    p_g = gm_profile(M, [x], 2)
                    good = all(
                        p_l.entry(1, n) == n + c and p_g.entry(1, n) == p_l.entry(1, n)
                        for n in (1, 2)
                    )
                    payload.append(
                        {"element": list(x.coords), "torsion_index": c, "law_holds": good}
                    )
                    ok = ok and good
                note("single_element", {"cases": payload, "passed": ok}, ok)
            elif check == "bound_transfer":
                if lip is None:
                    lip = lipman_profile(M, seq, n_max, m_max)
                    gm = gm_profile(M, seq, n_max, m_max)
                out = verify_bound_transfer(M, seq, lip, gm)
                note("bound_transfer", _outcome_payload(out), out.passed)
            elif check == "thm2":
                if lip is None:
                    lip = lipman_profile(M, seq, n_max, m_max)
                if weak is None:
                    weak = weak_profile(M, seq, n_max, m_max)
                ok = (not lip.all_conclusive()) or weak.all_conclusive()
                note(
                    "thm2",
                    {
                        "lipman_conclusive": lip.all_conclusive(),
                        "weak_conclusive": weak.all_conclusive(),
                        "passed": ok,
                    },
                    ok,
                )
            elif check == "injective_proregular":
                out = injective_criterion(M, seq, "proregular")
                note("injective_proregular", _outcome_payload(out), out.passed)
            elif check == "injective_weak":
                out = injective_criterion(M, seq, "weak")
                note("injective_weak", _outcome_payload(out), out.passed)
            elif check == "vanishing":
                payload, ok, inc = _vanishing_battery(M, seq)
                inconclusive = inconclusive or inc
                note("vanishing", payload, ok)
            elif check == "colon_identification":
                payload = []
                ok = True
                for i in range(1, len(seq) + 1):
                    witness, verified = colon_identification(
                        list(seq[: i - 1]), seq[i - 1], 1, M
                    )
                    payload.append(_jsonable(witness))
                    ok = ok and verified
                note("colon_identification", {"positions": payload, "passed": ok}, ok)
            elif check == "power_stability":
                out = power_stability_check(M, seq, [2] * len(seq))
                note("power_stability", _outcome_payload(out), out.passed)
            elif check == "local_global":
                out = local_global_check(M, seq, mode="maximal")
                note("local_global", _outcome_payload(out), out.passed)
            elif check == "torsion_routes":
                I = ideal(R, list(seq))
                a = torsion_submodule(M, I)
                b = torsion_by_colon_ascent(M, I)
                ok = a == b
                note(
                    "torsion_routes",
                    {"orders": [a.order(), b.order()], "passed": ok},
                    ok,
                )
            elif check == "tor_compare":
                payload = []
                ok = True
                for i in (0, 1):
                    lhs, rhs, agree = cech_tor_compare(M, M, seq, i, i + 2)
                    payload.append(
                        {
                            "degree": i,
                            "lhs_factors": list(lhs.group.invariant_factors),
                            "rhs_factors": list(rhs.group.invariant_factors),
                            "isomorphic": agree,
                        }
                    )
                    ok = ok and agree
                note("tor_compare", {"degrees": payload, "passed": ok}, ok)
            else:
                raise ParseError(f"unknown check {check!r}")
        except ParseError:
            raise
        except ProkitError as exc:
            note(check, {"error": f"{type(exc).__name__}: {exc}", "passed": False}, False)

    # optional Cartier checks when the task declares an ideal and an element
    cart = task.analysis.get("cartier")
    if cart:
        I = ideal(R, [_resolve_element(R, task.named, g) for g in cart["ideal"]])
        x = _resolve_element(R, task.named, cart["x"])
        out = cartier_check(R, I, x, task.bounds.get("n_max", 3), task.bounds.get("m_max"))
        note("cartier", _outcome_payload(out), out.passed)
        cov = cart.get("covering")
        if cov:
            covering = [_resolve_element(R, task.named, f) for f in cov]
            out2 = is_effective_cartier(R, I, covering)
            # chart degeneracy is expected; record without failing the run
            payload2 = _outcome_payload(out2)
            payload2["advisory"] = True
            results["effective_cartier"] = payload2

    exit_code = 1 if failed else (2 if inconclusive else 0)
    return results, exit_code


def _vanishing_battery(M, seq):
    k = len(seq)
    R = M.ring
    I = ideal(R, list(seq))
    payload = {}
    ok = True
    for i in range(1, k + 1):
        z = cech_cohomology(list(seq), M, i).is_zero_module()
        payload[f"cech_cohomology_{i}_zero"] = z
        ok = ok and z
    h0 = cech_cohomology(list(seq), M, 0)
    gamma, _ = submodule_module(M, torsion_submodule(M, I))
    lc0 = local_cohomology(M, I, 0)
    agree0 = modules_isomorphic(h0, gamma) and modules_isomorphic(h0, lc0)
    payload["cech0_is_torsion"] = agree0
    ok = ok and agree0
    for i in range(1, k + 1):
        z = local_cohomology(M, I, i).is_zero_module()
        payload[f"local_cohomology_{i}_zero"] = z
        ok = ok and z
    inconclusive = False
    try:
        for i in range(1, k + 1):
            z = cech_homology(list(seq), M, i).is_zero_module()
            payload[f"cech_homology_{i}_zero"] = z
            ok = ok and z
        ch0 = cech_homology(list(seq), M, 0)
        lam, _ = adic_completion(M, I)
        agree_l = modules_isomorphic(ch0, lam)
        payload["cech_homology0_is_completion"] = agree_l
        ok = ok and agree_l
    except ProkitError as exc:
        payload["cech_homology_error"] = str(exc)
        inconclusive = True
    payload["passed"] = ok and not inconclusive
    return payload, ok, inconclusive


def run_axioms_task(task):
    failures = check_ring_axioms(task.ring)
    results = {
        "axioms": {
            "failures": failures,
            "order": task.ring.order(),
            "invariant_factors": list(task.ring.additive.invariant_factors),
            "passed": not failures,
        }
    }
    return results, 0 if not failures else 1


def _family_level(family, N):
    kind = family["kind"]
    if kind == "truncated_two_power":
        R, x, one = truncated_two_power(N)
    elif kind == "truncated_polynomial":
        R, x, one = truncated_polynomial_family(int(family.get("q", 2)), N)
    else:
        raise ParseError(f"unknown family kind {kind!r}")
    return R, {"x": x, "one": one, "zero": R.zero()}


def _sweep_one(family, seq_refs, N, n_max, m_max):
    R, named = _family_level(family, N)
    seq = [_resolve_element(R, named, ref) for ref in seq_refs]
    M = ring_as_module(R)
    prof = lipman_profile(M, seq, n_max, m_max)
    torsion = [bounded_torsion_index(M, x)[0] for x in seq]
    return {
        "N": N,
        "ring_order": R.order(),
        "profile": _profile_payload(prof),
        "entry_1_1": prof.entry(1, 1) if prof.conclusive(1, 1) else None,
        "torsion_indices": torsion,
    }


def run_family_sweep(task):
    family = task.family
    lo, hi = (int(v) for v in family.get("range", [2, 4]))
    n_max = task.bounds.get("n_max", 2)
    m_max = task.bounds.get("m_max")
    seqs = task.sequences["_family"]
    results = {"parameters": list(range(lo, hi + 1)), "sequences": []}
    inconclusive = False
    for seq_refs in seqs:
        levels = [_sweep_one(family, seq_refs, N, n_max, m_max) for N in range(lo, hi + 1)]
        entry_track = [lvl["entry_1_1"] for lvl in levels]
        torsion_track = [max(lvl["torsion_indices"]) for lvl in levels]
        rows_track = [tuple(map(tuple, lvl["profile"]["rows"])) for lvl in levels]
        def strictly_increasing(vals):
            return all(
                a is not None and b is not None and b > a for a, b in zip(vals, vals[1:])
            )

        def constant(vals):
            return all(a == b for a, b in zip(vals, vals[1:]))

        inconclusive = inconclusive or any(v is None for v in entry_track)
        results["sequences"].append(
            {
                "sequence": seq_refs,
                "levels": levels,
                "tracked": {
                    "entry_1_1": entry_track,
                    "torsion_index_max": torsion_track,
                },
                "divergence": {
                    "entry_1_1": strictly_increasing(entry_track),
                    "torsion_index_max": strictly_increasing(torsion_track),
                },
                "bounded": {
                    "entry_1_1": constant(entry_track),
                    "profile_entries": constant(rows_track),
                },
            }
        )
    return results, (2 if inconclusive else 0)


def run_task(task):
    """Dispatch a parsed task and assemble the deterministic report."""
    t0 = time.monotonic()
    kind = task.analysis.get("kind", "verify" if task.family is None else "sweep")
    if task.family is not None:
        kind = "sweep"
    if kind == "profile":
        results, code = run_profile_task(task)
    elif kind == "verify":
        results, code = run_verify_task(task)
    elif kind == "axioms":
        results, code = run_axioms_task(task)
    elif kind == "sweep":
        results, code = run_family_sweep(task)
    else:
        raise ParseError(f"unknown analysis kind {kind!r}")
    body = {
        "schema": SCHEMA_VERSION,
        "tool": "prokit",
        "version": __version__,
        "seed": task.seed,
        "task": task.echo,
        "analysis_kind": kind,
        "results": results,
        "exit_code": code,
    }
    report = Report(body=body, timing={"seconds": round(time.monotonic() - t0, 6)})
    return report


# ---------------------------------------------------------------------------
# Emission


def emit_report(report, fmt="json", include_timing=True):
    """json is the canonical full form; csv flattens profile tables; text is
    a human-readable summary."""
    if fmt == "json":
        doc = dict(report.body)
        if include_timing:
            doc["timing"] = report.timing
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "csv":
        lines = ["i,n,m,conclusive"]
        for name, prof in _iter_profiles(report.body.get("results", {})):
            lines.append(f"# profile: {name}")
            for i, n, m, conclusive in prof["rows"]:
                lines.append(f"{i},{n},{m},{str(bool(conclusive)).lower()}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "text":
        lines = [
            f"prokit {report.body['version']} report "
            f"(seed {report.body['seed']}, exit {report.body['exit_code']})"
        ]
        for name, value in sorted(report.body.get("results", {}).items()):
            if isinstance(value, dict) and value.get("advisory"):
                lines.append(f"  [info] {name} (advisory)")
            elif isinstance(value, dict) and "passed" in value:
                status = "PASS" if value["passed"] else "FAIL"
                lines.append(f"  [{status}] {name}")
            elif isinstance(value, dict) and "rows" in value:
                lines.append(f"  [prof] {name}: conclusive={value.get('conclusive')}")
            else:
                lines.append(f"  [info] {name}")
        if include_timing and report.timing:
            lines.append(f"  time: {report.timing.get('seconds')}s")
        return ("\n".join(lines) + "\n").encode()
    raise ParseError(f"unknown format {fmt!r}")


def _iter_profiles(results, prefix=""):
    """Walk a result tree yielding every profile payload with its path."""
    if isinstance(results, dict):
        if "rows" in results and "m_max" in results:
            yield prefix.rstrip("."), results
            return
        for name, value in sorted(results.items()):
            yield from _iter_profiles(value, f"{prefix}{name}.")
    elif isinstance(results, list):
        for idx, value in enumerate(results):
            label = value.get("N") if isinstance(value, dict) and "N" in value else idx
            yield from _iter_profiles(value, f"{prefix}{label}.")
