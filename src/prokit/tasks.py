"""Task files, the check table, family sweeps, and report emission.

A task file is one JSON document (schema 1) naming a ring, optional
modules and elements, sequences, an analysis kind, and bounds.  Reports
have a canonical JSON body that is byte-identical across reruns with the
same seed; timing lives outside the body.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul

from . import __version__
from .errors import (
    BoundViolation,
    InsufficientBound,
    ParseError,
    ProkitError,
    UnknownReference,
)
from .analysis import (
    Profile,
    _scan_context,
    bounded_torsion_index,
    cartier_check,
    default_budget,
    gm_profile,
    injective_criterion,
    is_effective_cartier,
    lipman_profile,
    local_global_check,
    power_stability_check,
    verify_bound_transfer,
    weak_profile,
)
from .complexes import (
    cech_cohomology,
    cech_homology,
    cech_tor_comparisons,
    colon_identification,
)
from .intlinalg import IntMatrix, cokernel_presentation
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
    fitting_split,
    ideal,
    product_ring,
    quotient_ring,
    _raw_ring,
    require_prime,
    ring_from_raw,
    truncated_polynomial,
    truncated_polynomial_factors,
    truncated_polynomial_family,
    truncated_two_power,
    truncated_two_power_factors,
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


_REQUIRED = object()


def _int(value):
    """A JSON integer as itself; `int()` would also take a string, a float
    or a boolean, so any other value is rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _field(spec, key, convert=_int, default=_REQUIRED):
    """`convert(spec[key])`, or `default` when the key is absent.

    The one reader of task-document fields: a spec that is not an object, a
    missing required key, or a value `convert` rejects is a ParseError."""
    if not isinstance(spec, dict):
        raise ParseError(f"expected a JSON object around {key!r}, got {type(spec).__name__}")
    if key not in spec:
        if default is _REQUIRED:
            raise ParseError(f"missing field {key!r}")
        return default
    try:
        return convert(spec[key])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad value for field {key!r}: {exc}") from exc


def _int_pair(value):
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected a list of exactly two integers, got {value!r}")
    return _int(value[0]), _int(value[1])


def _count(value):
    count = _int(value)
    if count < 0:
        raise ValueError(f"expected a count >= 0, got {count}")
    return count


def _list(value):
    """A JSON array as a list; a string or object would split into its
    characters or keys, so any other value is rejected."""
    if not isinstance(value, list):
        raise ValueError(f"expected a JSON array, got {value!r}")
    return value


def _int_list(value):
    return [_int(v) for v in _list(value)]


def _products_table(value):
    return [[tuple(_int_list(col)) for col in _list(row)] for row in _list(value)]


def _build_ring(spec, validate=True):
    kind = _field(spec, "kind", str, None)
    named = {}
    if kind == "zmod":
        R = zmod(_field(spec, "m"))
    elif kind == "product":
        factors = []
        for sub in _field(spec, "factors", _list):
            Rf, sub_named = _build_ring(sub)
            factors.append(Rf)
        R, _ = product_ring(factors)
    elif kind == "truncated_two_power":
        R, x, one = truncated_two_power(_field(spec, "N"))
        named["x"] = x
    elif kind == "truncated_polynomial":
        R, t = truncated_polynomial(_field(spec, "q"), _field(spec, "n"))
        named["x"] = t
    elif kind == "truncated_polynomial_family":
        R, x, one = truncated_polynomial_family(_field(spec, "q"), _field(spec, "N"))
        named["x"] = x
    elif kind == "quotient":
        base, base_named = _build_ring(_field(spec, "ring", dict))
        gens = [_resolve_element(base, base_named, ref) for ref in _field(spec, "ideal", _list)]
        R, project = quotient_ring(base, ideal(base, gens))
        named = {name: project(el) for name, el in base_named.items()}
    elif kind == "raw":
        orders = _field(spec, "orders", _int_list)
        if any(d < 1 for d in orders):
            raise ParseError(f"raw orders must be >= 1, got {orders}")
        products = _field(spec, "products", _products_table)
        unit = tuple(_field(spec, "unit", _int_list))
        n = len(orders)
        if len(products) != n or any(
            len(row) != n or any(len(entry) != n for entry in row) for row in products
        ):
            raise ParseError(f"raw products must be a {n}x{n} table of length-{n} vectors")
        if len(unit) != n:
            raise ParseError(f"raw unit has length {len(unit)}, expected {n}")
        # axioms tasks diagnose broken tables instead of rejecting them
        R = (ring_from_raw if validate else _raw_ring)(orders, products, unit)
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
    if isinstance(ref, int) and not isinstance(ref, bool):
        return R.from_int(ref)
    if isinstance(ref, (list, tuple)):
        if len(ref) != R.rank:
            raise ParseError(f"coordinate vector of length {len(ref)} for rank {R.rank}")
        try:
            return R.element(tuple(_int(c) for c in ref))
        except ValueError as exc:
            raise ParseError(f"bad coordinate vector {ref!r}: {exc}") from exc
    raise ParseError(f"cannot interpret element reference {ref!r}")


def _build_module(R, named, spec):
    kind = _field(spec, "kind", str, "ring")
    if kind == "ring":
        return ring_as_module(R)
    if kind == "free":
        from .modules import free_module

        return free_module(R, _field(spec, "rank", _count)).module
    if kind == "presentation":
        gens = _field(spec, "generators", _count)
        rels = [
            [_resolve_element(R, named, ref) for ref in rel]
            for rel in _field(spec, "relations", _reference_lists, [])
        ]
        for rel in rels:
            if len(rel) != gens:
                raise ParseError("relation length must equal the generator count")
        M, _, _ = module_from_presentation(R, gens, rels)
        return M
    raise ParseError(f"unknown module kind {kind!r}")


def parse_spec(text, kind=None):
    """Parse and validate a task document; all names must resolve.

    `kind`, when given, is the analysis kind the caller runs; it replaces
    the document's `analysis.kind` of a ring task before the ring is built,
    because the kind decides whether a raw ring is rejected or diagnosed
    (`axioms`) and whether modules are built.  Family tasks always sweep."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"task document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema {doc.get('schema')!r}")
    family = _field(doc, "family", dict, None)
    ring_spec = _field(doc, "ring", dict, None)
    if ring_spec is None and family is None:
        raise ParseError("task needs a ring or a family")
    bounds = _field(doc, "bounds", dict, {})
    for key in bounds:
        if key not in ("n_max", "m_max", "i_max"):
            raise ParseError(f"unknown bound {key!r}")
        bounds[key] = _field(bounds, key)
        if bounds[key] < 1:
            raise BoundViolation(f"bound {key} must be positive, got {bounds[key]}")
    seed = _field(doc, "seed", default=0)
    analysis = _field(doc, "analysis", dict, {})
    if family is not None:
        lo, hi = _field(family, "range", _int_pair, (2, 4))
        if lo < 1 or hi < lo:
            raise BoundViolation(f"bad family range {family.get('range')}")
        if family.get("kind") == "truncated_polynomial":
            require_prime(_field(family, "q", default=2))
        return TaskSpec(None, {}, {}, _family_sequences(family), analysis, bounds, seed, doc, family)
    if kind is not None:
        analysis["kind"] = kind
    diagnosing = analysis.get("kind") == "axioms"
    R, named = _build_ring(ring_spec, validate=not diagnosing)
    for name, ref in _field(doc, "elements", dict, {}).items():
        named[name] = _resolve_element(R, named, ref)
    modules = {}
    if not diagnosing:
        for name, mspec in _field(doc, "modules", dict, {"M": {"kind": "ring"}}).items():
            modules[name] = _build_module(R, named, mspec)
        if not modules:
            modules["M"] = ring_as_module(R)
    seq_specs = _field(doc, "sequences", dict, {})
    sequences = {
        name: [_resolve_element(R, named, ref) for ref in _field(seq_specs, name, _list)]
        for name in seq_specs
    }
    return TaskSpec(R, named, modules, sequences, analysis, bounds, seed, doc, None)


def _reference_lists(value):
    if not all(isinstance(refs, list) for refs in _list(value)):
        raise ValueError(f"expected a list of element-reference lists, got {value!r}")
    return value


def _family_sequences(family):
    seqs = _field(family, "sequences", _reference_lists, None)
    if seqs is None:
        seqs = [_field(family, "sequence", _list, ["x"])]
    if not all(seqs):
        raise ParseError("a sweep tracks entry (1, 1), so no family sequence may be empty")
    return {"_family": seqs}


def _analysis_module(task):
    name = _field(task.analysis, "module", str, None)
    if name is None:
        return next(iter(task.modules.values()))
    if name not in task.modules:
        raise UnknownReference(f"module {name!r} is not declared")
    return task.modules[name]


def _analysis_sequence(task):
    name = _field(task.analysis, "sequence", str, None)
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
    kinds = _field(task.analysis, "profiles", _list, None)
    if kinds is None:
        kinds = [_field(task.analysis, "profile", str, "lipman")]
    results = {}
    inconclusive = False
    for kind in kinds:
        if kind == "lipman":
            prof = lipman_profile(M, seq, n_max, m_max)
        elif kind == "gm":
            prof = gm_profile(M, seq, n_max, m_max)
        elif kind == "weak":
            i_max = task.bounds.get("i_max")
            if i_max is not None and i_max > len(seq):
                raise BoundViolation(f"bound i_max {i_max} exceeds the sequence length {len(seq)}")
            prof = weak_profile(M, seq, n_max, m_max, i_max)
        else:
            raise ParseError(f"unknown profile kind {kind!r}")
        results[kind] = _profile_payload(prof)
        inconclusive = inconclusive or not prof.all_conclusive()
    return results, (2 if inconclusive else 0)


def _check_names(value):
    return ALL_CHECKS if value == "all" else tuple(_list(value))


# Each check reads (M, seq, n_max, m_max, rng), the document's analysis
# module, sequence, bounds and seeded stream, and returns (payload, passed,
# inconclusive): passed is False only for a counterexample.


def _profiles_check(M, seq, n_max, m_max, rng):
    profiles = {
        "lipman": lipman_profile(M, seq, n_max, m_max),
        "gm": gm_profile(M, seq, n_max, m_max),
        "weak": weak_profile(M, seq, n_max, m_max),
    }
    payload = {kind: _profile_payload(prof) for kind, prof in profiles.items()}
    payload["passed"] = all(prof.all_conclusive() for prof in profiles.values())
    # a profile has no counterexample: undecided entries leave it inconclusive
    return payload, True, not payload["passed"]


def _single_element_check(M, seq, n_max, m_max, rng):
    R = M.ring
    cases = []
    pool = list(seq) + [
        R.element(tuple(rng.randrange(d) for d in R.additive.invariant_factors))
        for _ in range(2)
    ]
    holds = _scan_context(M).holds
    for x in pool:
        c, _ = bounded_torsion_index(M, x)
        p_l = lipman_profile(M, [x], 2)
        p_g = gm_profile(M, [x], 2)
        # n + c is the scans' stop bound when c = c_R(x), taken untested,
        # so the inclusions on either side of it are tested here
        good = all(
            p_l.entry(1, n) == n + c
            and p_g.entry(1, n) == p_l.entry(1, n)
            and holds("lipman", [], x, n, n + c)
            and (c == 0 or not holds("lipman", [], x, n, n + c - 1))
            for n in (1, 2)
        )
        cases.append({"element": list(x.coords), "torsion_index": c, "law_holds": good})
    ok = all(case["law_holds"] for case in cases)
    return {"cases": cases, "passed": ok}, ok, False


def _thm2_check(M, seq, n_max, m_max, rng):
    lip = lipman_profile(M, seq, n_max, m_max).all_conclusive()
    weak = weak_profile(M, seq, n_max, m_max).all_conclusive()
    ok = not lip or weak
    return {"lipman_conclusive": lip, "weak_conclusive": weak, "passed": ok}, ok, False


def _colon_identification_check(M, seq, n_max, m_max, rng):
    positions = []
    ok = True
    for i in range(1, len(seq) + 1):
        witness, verified = colon_identification(list(seq[: i - 1]), seq[i - 1], 1, M)
        positions.append(_jsonable(witness))
        ok = ok and verified
    return {"positions": positions, "passed": ok}, ok, False


def _torsion_routes_check(M, seq, n_max, m_max, rng):
    I = ideal(M.ring, list(seq))
    a = torsion_submodule(M, I)
    b = torsion_by_colon_ascent(M, I)
    ok = a == b
    return {"orders": [a.order(), b.order()], "passed": ok}, ok, False


def _tor_compare_check(M, seq, n_max, m_max, rng):
    # degrees 0 and 1 share one resolution of M and one completion
    degrees = [
        {
            "degree": i,
            "lhs_factors": list(lhs.group.invariant_factors),
            "rhs_factors": list(rhs.group.invariant_factors),
            "isomorphic": agree,
        }
        for i, (lhs, rhs, agree) in enumerate(cech_tor_comparisons(M, M, seq, (0, 1)))
    ]
    ok = all(d["isomorphic"] for d in degrees)
    return {"degrees": degrees, "passed": ok}, ok, False


def _outcome_check(run):
    """The table entry of a check that returns a `CheckOutcome`."""

    def check(M, seq, n_max, m_max, rng):
        out = run(M, seq, n_max, m_max)
        return _outcome_payload(out), out.passed, False

    return check


_CHECKS = {
    "profiles": _profiles_check,
    "single_element": _single_element_check,
    "bound_transfer": _outcome_check(
        lambda M, seq, n_max, m_max: verify_bound_transfer(
            M, seq, lipman_profile(M, seq, n_max, m_max), gm_profile(M, seq, n_max, m_max)
        )
    ),
    "thm2": _thm2_check,
    "injective_proregular": _outcome_check(
        lambda M, seq, *_: injective_criterion(M, seq, "proregular")
    ),
    "injective_weak": _outcome_check(lambda M, seq, *_: injective_criterion(M, seq, "weak")),
    "vanishing": lambda M, seq, *_: _vanishing_battery(M, seq),
    "colon_identification": _colon_identification_check,
    "power_stability": _outcome_check(
        lambda M, seq, *_: power_stability_check(M, seq, [2] * len(seq))
    ),
    "local_global": _outcome_check(lambda M, seq, *_: local_global_check(M, seq)),
    "torsion_routes": _torsion_routes_check,
    "tor_compare": _tor_compare_check,
}
ALL_CHECKS = tuple(_CHECKS)


def run_verify_task(task):
    args = (
        _analysis_module(task),
        _analysis_sequence(task),
        task.bounds.get("n_max", 2),
        task.bounds.get("m_max"),
        rng_from_seed(task.seed),
    )
    results = {}
    failed = inconclusive = False
    for name in _field(task.analysis, "checks", _check_names, ALL_CHECKS):
        # a tuple test, so a list or an object named as a check is not hashed
        if name not in ALL_CHECKS:
            raise ParseError(f"unknown check {name!r}")
        try:
            payload, passed, undecided = _CHECKS[name](*args)
        except ParseError:
            raise
        except ProkitError as exc:
            payload = {"error": f"{type(exc).__name__}: {exc}", "passed": False}
            # a budget or enumeration limit leaves the check undecided, not failed
            passed = undecided = isinstance(exc, InsufficientBound)
        results[name] = payload
        failed = failed or not passed
        inconclusive = inconclusive or undecided

    # optional Cartier checks when the task declares an ideal and an element
    cart = task.analysis.get("cartier")
    if cart:
        R = task.ring

        def element(ref):
            return _resolve_element(R, task.named, ref)

        def elements(refs):
            return [element(ref) for ref in _list(refs)]

        I = ideal(R, _field(cart, "ideal", elements))
        x = _field(cart, "x", element)
        out = cartier_check(R, I, x, task.bounds.get("n_max", 3), task.bounds.get("m_max"))
        results["cartier"] = _outcome_payload(out)
        failed = failed or not out.passed
        covering = _field(cart, "covering", elements, None)
        if covering:
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
        z = cech_cohomology(seq, M, i).is_zero_module()
        payload[f"cech_cohomology_{i}_zero"] = z
        ok = ok and z
    h0 = cech_cohomology(seq, M, 0)
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
            z = cech_homology(seq, M, i).is_zero_module()
            payload[f"cech_homology_{i}_zero"] = z
            ok = ok and z
        ch0 = cech_homology(seq, M, 0)
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


def _family_factors(family, hi):
    """The factors R_1..R_hi of a family, each with its table of names;
    level N of the family is R_1 x ... x R_N."""
    kind = _field(family, "kind", str)
    if kind == "truncated_two_power":
        factors = truncated_two_power_factors(hi)
    elif kind == "truncated_polynomial":
        factors = truncated_polynomial_factors(_field(family, "q", default=2), hi)
    else:
        raise ParseError(f"unknown family kind {kind!r}")
    return [(R, {"x": x, "one": R.one(), "zero": R.zero()}) for R, x in factors]


class _FactorSweep:
    """The factors of a family sweep and their scans, each made once per
    sweep and read by every level that contains its factor.

    A level reads only maxima over its factors, so scans are chained over
    factor prefixes: the scan of factor j starts each entry at the running
    maximum of factors 1..j-1, and the prefix 1..j keeps max(that, m_j), or
    None once a factor has no witness.  Scans run at the sweep's largest
    budget: the document's m_max, or else the default budget of the top
    level's order.  A prefix is kept under the coordinates of its items on
    each factor, and each factor module keeps the scan data of its scans.
    A level's torsion index of x is the largest Fitting index of its items
    x_j, each split once and kept on its factor R_j, where the scans of x_j
    read it as their stop bound."""

    def __init__(self, family, hi, n_max, m_max):
        self.factors = _family_factors(family, hi)
        self.modules = [ring_as_module(R) for R, _ in self.factors]
        # orders[N - 1] is the order of level N
        self.orders = list(accumulate((R.order() for R, _ in self.factors), mul))
        self.n_max = n_max
        self.m_max = m_max
        self.scans = {}
        self.presentations = {}

    def _budget(self, N, k):
        if self.m_max is not None:
            return self.m_max
        return default_budget(self.orders[N - 1], k, self.n_max)

    def _resolve(self, N, ref):
        """The element `ref` of level N as its images in R_1..R_N.  A name
        resolves in each factor's table and an int by `from_int`; a
        coordinate list is read in the level's additive group, presented
        over the factors' generators, and lifted to them by the section."""
        level = self.factors[:N]
        if not isinstance(ref, (list, tuple)):
            return [_resolve_element(R, named, ref) for R, named in level]
        if N not in self.presentations:
            orders = [d for R, _ in level for d in R.additive.invariant_factors]
            G, _, S = cokernel_presentation(IntMatrix.zero(len(orders), 0), orders)
            self.presentations[N] = G, S
        G, S = self.presentations[N]
        if len(ref) != G.rank:
            raise ParseError(f"coordinate vector of length {len(ref)} for rank {G.rank}")
        try:
            lift = S.apply(G.reduce(tuple(_int(c) for c in ref)))
        except ValueError as exc:
            raise ParseError(f"bad coordinate vector {ref!r}: {exc}") from exc
        parts = []
        for R, _ in level:
            parts.append(R.element(lift[: R.rank]))
            lift = lift[R.rank :]
        return parts

    def _maxima(self, seqs):
        """Entries (i, n) over the prefix of factors 1..len(seqs), where
        seqs[j] is the sequence on factor j: each the running maximum of the
        factors' least witnesses, or None.  Each prefix is scanned once, its
        last factor from the maxima of the prefix before it, and kept in
        `scans` under the coordinates of its sequences."""
        top = self._budget(len(self.factors), len(seqs[0]))
        prefix, maxima = (), None
        for M, seq in zip(self.modules, seqs):
            prefix += (tuple(x.coords for x in seq),)
            if prefix not in self.scans:
                start = None
                if maxima is not None:
                    # a witness missing on an earlier factor starts past the budget
                    start = {key: top + 1 if m is None else m for key, m in maxima.items()}
                self.scans[prefix] = lipman_profile(M, seq, self.n_max, top, start).entries
            maxima = self.scans[prefix]
        return maxima

    def level(self, N, seq_refs):
        """One sequence at level N, read off the prefix of factors 1..N."""
        parts = [self._resolve(N, ref) for ref in seq_refs]
        seqs = list(zip(*parts))
        torsion_indices = [max(fitting_split(x.ring, x)[0] for x in xs) for xs in parts]
        maxima = self._maxima(seqs)
        budget = self._budget(N, len(seq_refs))
        entries = {key: m if m is not None and m <= budget else None for key, m in maxima.items()}
        prof = Profile("lipman", len(seq_refs), self.n_max, budget, entries)
        return {
            "N": N,
            "ring_order": self.orders[N - 1],
            "profile": _profile_payload(prof),
            "entry_1_1": prof.entry(1, 1) if prof.conclusive(1, 1) else None,
            "torsion_indices": torsion_indices,
        }


def run_family_sweep(task):
    """Lipman profiles and torsion indices of each level of a truncated
    family, read off its factors; no product ring is built.

    Level N is R = R_1 x ... x R_N, so M = R splits as the sum of the
    e_j M, and the levels, colons and inclusions of a witness scan split
    with it: condition (n, m) holds over R iff it holds on every factor.
    Validity is upward closed in m: if u lies in N_(m+1) :_M y^(m+1), then
    y u lies in N_m :_M y^m, as the levels decrease, and that is contained
    in N_n :_M y^(m-n) when (n, m) holds, so u lies in N_n :_M y^(m+1-n).
    So the least m that holds on every factor is max_j m_j of the factors'
    least witnesses, and level N's entry is that maximum when every m_j is
    found and at most level N's own budget, and inconclusive otherwise.
    The annihilators 0 :_M x^c split the same way, so the torsion index is
    max_j c_j, where c_j is the Fitting index of x_j on R_j (M = R_j is
    faithful, so its torsion index is the ring's), and the order of level N
    is the product of the |R_j|.  `local_global_check` verifies the same
    law on the direct route.

    Only the maximum is read, so factor j is scanned from the running
    maximum r of factors 1..j-1: by upward closure the first m >= r that
    holds on factor j is max(r, m_j), the running maximum of factors 1..j.
    One test at r settles m_j <= r, and the scan goes past r only when
    m_j > r; a factor with no witness leaves the entry inconclusive at
    every later level.  Each (factor prefix, sequence) is scanned once, at
    the sweep's largest budget, so every level reads the witnesses its
    budget allows.  The sweep is inconclusive (exit 2) when any entry of
    any level's profile is."""
    family = task.family
    lo, hi = _field(family, "range", _int_pair, (2, 4))
    n_max = task.bounds.get("n_max", 2)
    m_max = task.bounds.get("m_max")
    seqs = task.sequences["_family"]
    results = {"parameters": list(range(lo, hi + 1)), "sequences": []}
    inconclusive = False
    per_sequence = [[] for _ in seqs]
    if seqs:  # a sweep with no sequences builds no factor
        sweep = _FactorSweep(family, hi, n_max, m_max)
        for N in range(lo, hi + 1):
            for levels, seq_refs in zip(per_sequence, seqs):
                levels.append(sweep.level(N, seq_refs))
    for seq_refs, levels in zip(seqs, per_sequence):
        entry_track = [lvl["entry_1_1"] for lvl in levels]
        torsion_track = [max(lvl["torsion_indices"]) for lvl in levels]
        rows_track = [tuple(map(tuple, lvl["profile"]["rows"])) for lvl in levels]
        def strictly_increasing(vals):
            return all(
                a is not None and b is not None and b > a for a, b in zip(vals, vals[1:])
            )

        def constant(vals):
            return all(a == b for a, b in zip(vals, vals[1:]))

        inconclusive = inconclusive or not all(lvl["profile"]["conclusive"] for lvl in levels)
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
    kind = "sweep" if task.family is not None else task.analysis.get("kind", "verify")
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


def emit_report(report, fmt="json"):
    """json is the canonical full form; csv flattens profile tables; text is
    a human-readable summary."""
    if fmt == "json":
        doc = dict(report.body)
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
        if report.timing:
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
