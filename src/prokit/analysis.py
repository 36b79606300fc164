"""Minimal-witness profiles and the verification battery.

A profile materializes the "for all n there is m" quantifier of the
proregularity definitions: for each position (or homological degree) i and
each level n it records the least witness exponent m, found by linear scan
from n upward.  Validity is upward-closed in m, so the first hit is the
minimum.  Entries that exhaust the search bound are recorded as
inconclusive together with that bound; over a finite module the default
budget always suffices, so an inconclusive entry at the default budget
signals a bug rather than an expected outcome."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .errors import IdentificationFailure, InsufficientBound, NotCovering
from .intlinalg import hom_kernel_span, span_lattice, span_leq, span_subgroup_order
from .complexes import KoszulTower, cech_cohomology, pro_zero_index
from .modules import (
    Submodule,
    colon_submodule,
    hom_module,
    ideal_power_image,
    intersect_spans,
    is_divisible,
    localize_module,
    matlis_dual,
    power_image,
    quotient_module,
    ring_as_module,
    subquotient_module,
    torsion_submodule,
)
from .rings import ideal, ideal_sum, is_covering, localize, primitive_idempotents


@dataclass(frozen=True)
class Profile:
    """Table (i, n) -> minimal witness m, or None with the search bound."""

    kind: str
    length: int
    n_max: int
    m_max: int
    entries: dict

    def entry(self, i, n):
        return self.entries[(i, n)]

    def conclusive(self, i, n):
        return self.entries[(i, n)] is not None

    def all_conclusive(self):
        return all(v is not None for v in self.entries.values())

    def rows(self):
        """Rows (i, n, m, conclusive) ordered by (i, n); inconclusive rows
        carry the exhausted bound in the m column."""
        out = []
        for (i, n) in sorted(self.entries):
            m = self.entries[(i, n)]
            out.append((i, n, m if m is not None else self.m_max, m is not None))
        return out


@dataclass(frozen=True)
class Certificate:
    kind: str
    data: dict


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    certificates: tuple = ()


def default_budget(M, k, n_max):
    """n_max + ceil(log2 |M|) * (k + 1); annihilator and power chains in a
    finite module are shorter than log2 |M|."""
    o = max(M.order(), 2)
    return n_max + (o - 1).bit_length() * (k + 1)


# ---------------------------------------------------------------------------
# Bounded torsion and the three profiles


def bounded_torsion_index(M, x):
    """Least c with 0 :_M x^c = 0 :_M x^{c+1}, plus the strictly increasing
    chain of annihilator orders as the witness."""
    zero = Submodule(M, M.zero_span())
    prev = colon_submodule(M, zero, x, 0)
    chain = []
    c = 0
    while True:
        nxt = colon_submodule(M, zero, x, c + 1)
        if nxt == prev:
            return c, chain
        chain.append(nxt.order())
        prev = nxt
        c += 1


def _lipman_condition(M, xs, y, n, m, cache):
    """Display-(2) inclusion at (n, m), cross-checked against the zero-map
    form of display (1)."""
    key = ("pow", m)
    if key not in cache:
        cache[key] = power_image(M, xs, [m] * len(xs))
    Nm = cache[key]
    key = ("pow", n)
    if key not in cache:
        cache[key] = power_image(M, xs, [n] * len(xs))
    Nn = cache[key]
    left = colon_submodule(M, Nm, y, m)
    right = colon_submodule(M, Nn, y, m - n)
    incl = left.leq(right)
    # zero-map form: y^{m-n} maps the colon into the level-n submodule
    ymn = M.action_hom(y ** (m - n))
    mapped = span_lattice(M.group, [ymn.matrix.apply(M.group.reduce(tuple(c))) for c in left.span.cols_list()])
    zero_map_form = span_leq(M.group, mapped, Nn.span)
    if incl != zero_map_form:
        raise IdentificationFailure("the two forms of the proregularity condition disagree")
    return incl


def _gm_condition(M, I, y, n, m, cache):
    key = ("ipow", m)
    if key not in cache:
        cache[key] = ideal_power_image(M, I, m)
    Nm = cache[key]
    key = ("ipow", n)
    if key not in cache:
        cache[key] = ideal_power_image(M, I, n)
    Nn = cache[key]
    left = colon_submodule(M, Nm, y, m)
    right = colon_submodule(M, Nn, y, m - n)
    return left.leq(right)


def lipman_profile(M, x_seq, n_max, m_max=None):
    """Minimal witnesses for the elementwise-power form of proregularity."""
    k = len(x_seq)
    m_max = m_max if m_max is not None else default_budget(M, k, n_max)
    entries = {}
    for i in range(1, k + 1):
        xs = list(x_seq[: i - 1])
        y = x_seq[i - 1]
        cache = {}
        for n in range(1, n_max + 1):
            found = None
            for m in range(n, m_max + 1):
                if _lipman_condition(M, xs, y, n, m, cache):
                    found = m
                    break
            entries[(i, n)] = found
    return Profile("lipman", k, n_max, m_max, entries)


def gm_profile(M, x_seq, n_max, m_max=None):
    """Minimal witnesses for the ideal-power form of proregularity."""
    k = len(x_seq)
    m_max = m_max if m_max is not None else default_budget(M, k, n_max)
    R = M.ring
    entries = {}
    for i in range(1, k + 1):
        I = ideal(R, list(x_seq[: i - 1]))
        y = x_seq[i - 1]
        cache = {}
        for n in range(1, n_max + 1):
            found = None
            for m in range(n, m_max + 1):
                if _gm_condition(M, I, y, n, m, cache):
                    found = m
                    break
            entries[(i, n)] = found
    return Profile("gm", k, n_max, m_max, entries)


def weak_profile(M, x_seq, n_max, m_max=None, i_max=None):
    """Minimal pro-zero witnesses for the Koszul homology transitions,
    indexed by homological degree i = 1..i_max."""
    k = len(x_seq)
    i_max = i_max if i_max is not None else k
    m_max = m_max if m_max is not None else default_budget(M, k, n_max)
    tower = KoszulTower(list(x_seq), M)
    entries = {}
    for i in range(1, i_max + 1):
        for n in range(1, n_max + 1):
            entries[(i, n)] = pro_zero_index(list(x_seq), M, i, n, m_max, tower=tower)
    return Profile("weak", i_max, n_max, m_max, entries)


def violating_certificate(M, x_seq, kind, i, n, m):
    """An explicit element of the level-m colon whose y^{m-n} multiple is
    nonzero in the level-n quotient, or None when the inclusion holds."""
    xs = list(x_seq[: i - 1])
    y = x_seq[i - 1]
    if kind == "lipman":
        Nm = power_image(M, xs, [m] * len(xs))
        Nn = power_image(M, xs, [n] * len(xs))
    else:
        I = ideal(M.ring, xs)
        Nm = ideal_power_image(M, I, m)
        Nn = ideal_power_image(M, I, n)
    left = colon_submodule(M, Nm, y, m)
    ymn = M.action_hom(y ** (m - n))
    for col in left.span.cols_list():
        u = M.group.element(col)
        if u.is_zero():
            continue
        img = ymn(u)
        if not Nn.contains(img):
            return Certificate(
                "violating-element",
                {"i": i, "n": n, "m": m, "element": list(u.coords), "image": list(img.coords)},
            )
    return None


# ---------------------------------------------------------------------------
# Bound transfer and power stability


def verify_bound_transfer(M, x_seq, lip, gm):
    """Entrywise bound transfer between the two proregularity forms:
    gm(i, n) <= i * lip(i, n), and lip(i, n) <= gm(i, i*n)."""
    certificates = []
    checked = 0
    for (i, n), lip_m in lip.entries.items():
        gm_m = gm.entries.get((i, n))
        if lip_m is None or gm_m is None:
            raise InsufficientBound(f"inconclusive entry at ({i}, {n})")
        checked += 1
        if gm_m > i * lip_m:
            certificates.append(
                Certificate("bound-violation", {"side": "gm<=i*lip", "i": i, "n": n,
                                          "gm": gm_m, "lip": lip_m})
            )
        if n * i <= gm.n_max:
            gm_in = gm.entries.get((i, i * n))
            if gm_in is None:
                raise InsufficientBound(f"inconclusive entry at ({i}, {i * n})")
            if lip_m > gm_in:
                certificates.append(
                    Certificate("bound-violation", {"side": "lip<=gm@i*n", "i": i, "n": n,
                                              "lip": lip_m, "gm_at_in": gm_in})
                )
    return CheckOutcome(
        "bound_transfer",
        passed=not certificates,
        details={"entries_checked": checked},
        certificates=tuple(certificates),
    )


def power_stability_check(M, x_seq, exponents):
    """Profiles of x and of the powered sequence x^(n_) are both fully
    conclusive within m <= n + ceil(log2 |M|) (finite modules are always
    proregular)."""
    if any(e < 1 for e in exponents):
        raise InsufficientBound("exponents must be >= 1")
    o = max(M.order(), 2)
    slack = (o - 1).bit_length()
    n_max = 3
    m_max = n_max + slack
    base = lipman_profile(M, x_seq, n_max, m_max)
    powered_seq = [x ** e for x, e in zip(x_seq, exponents)]
    powered = lipman_profile(M, powered_seq, n_max, m_max)
    ok = True
    for prof in (base, powered):
        for (i, n), m in prof.entries.items():
            if m is None or m > n + slack:
                ok = False
    return CheckOutcome(
        "power_stability",
        passed=ok,
        details={
            "base_rows": base.rows(),
            "powered_rows": powered.rows(),
            "bound_slack": slack,
        },
    )


# ---------------------------------------------------------------------------
# Injective-dual criteria


def injective_criterion(M, x_seq, mode):
    """Cohomological criteria against the injective cogenerator E = R^dual.

    proregular mode: for each position i, the localization sequence of
    D = torsion_{x_1..x_{i-1}}(Hom(M, E)) must have vanishing first Cech
    cohomology at x_i, and D / torsion_{x_1..x_i}(Hom(M, E)) must be
    x_i-divisible.  weak mode: all higher Cech cohomology of Hom(M, E)
    vanishes.  The verdict is compared with the conclusiveness of the
    matching profile."""
    R = M.ring
    E = matlis_dual(ring_as_module(R))
    H = hom_module(M, E)
    k = len(x_seq)
    details = {}
    ok = True
    if mode == "proregular":
        for i in range(1, k + 1):
            prefix = list(x_seq[: i - 1])
            span_prev = torsion_submodule(H, ideal(R, prefix)).span
            span_cur = torsion_submodule(H, ideal(R, prefix + [x_seq[i - 1]])).span
            D = subquotient_module(H, span_prev, H.zero_span()).module
            vanish = cech_cohomology([x_seq[i - 1]], D, 1).is_zero_module()
            Q = subquotient_module(H, span_prev, span_cur).module
            divisible = is_divisible(Q, x_seq[i - 1])
            details[f"position_{i}"] = {"cech1_vanishes": vanish, "divisible": divisible}
            ok = ok and vanish and divisible
        profile = lipman_profile(M, x_seq, 2)
    elif mode == "weak":
        for i in range(1, k + 1):
            vanish = cech_cohomology(list(x_seq), H, i).is_zero_module()
            details[f"degree_{i}"] = {"cech_vanishes": vanish}
            ok = ok and vanish
        profile = weak_profile(M, x_seq, 2)
    else:
        raise InsufficientBound(f"unknown criterion mode {mode!r}")
    agrees = ok == profile.all_conclusive()
    details["profile_conclusive"] = profile.all_conclusive()
    details["agrees_with_profile"] = agrees
    return CheckOutcome(f"injective_criterion_{mode}", passed=ok and agrees, details=details)


# ---------------------------------------------------------------------------
# Regular sequences with a bounded-torsion tail


def regular_then_bounded(M, x_seq, y):
    """A regular sequence extended by one bounded-torsion element stays
    proregular; additionally verifies the graded-piece cardinality law
    |x^n M / x^{n+1} M| = |M/xM|^{binom(k+n-1, n)} for n <= 3."""
    R = M.ring
    k = len(x_seq)
    regular = []
    for i in range(1, k + 1):
        prefix = power_image(M, list(x_seq[: i - 1]), [1] * (i - 1))
        Q, _ = quotient_module(M, prefix)
        ker = hom_kernel_span(Q.action_hom(x_seq[i - 1]))
        injective = (
            span_subgroup_order(Q.group, ker) == 1 if Q.group.rank else True
        )
        regular.append(injective)
    full = power_image(M, list(x_seq), [1] * k)
    Qfull, _ = quotient_module(M, full)
    c, chain = bounded_torsion_index(Qfull, y)
    hypothesis_ok = all(regular)
    details = {
        "regular_positions": regular,
        "tail_torsion_index": c,
        "tail_chain_orders": chain,
    }
    if not hypothesis_ok:
        details["hypothesis_failed"] = True
        return CheckOutcome("regular_then_bounded", passed=False, details=details)
    prof = lipman_profile(M, list(x_seq) + [y], 3)
    details["profile_rows"] = prof.rows()
    conclusion = prof.all_conclusive()
    # graded-piece cardinalities, ideal powers of the full prefix
    if k >= 1:
        I = ideal(R, list(x_seq))
        base = Qfull.order()
        card_ok = True
        for n in range(0, 4):
            upper = ideal_power_image(M, I, n).order()
            lower = ideal_power_image(M, I, n + 1).order()
            expected = base ** comb(k + n - 1, n)
            if upper // lower != expected:
                card_ok = False
                details.setdefault("cardinality_failures", []).append(
                    {"n": n, "observed": upper // lower, "expected": expected}
                )
        details["cardinality_ok"] = card_ok
        conclusion = conclusion and card_ok
    return CheckOutcome("regular_then_bounded", passed=conclusion, details=details)


# ---------------------------------------------------------------------------
# Local-global


def local_global_check(M, x_seq, covering=None, mode=None, n_max=2, m_max=None):
    """Diagonal injectivity into the covering localizations, and the
    local-global law: the global minimal witness at every profile entry is
    the maximum of the local ones."""
    R = M.ring
    if mode == "maximal":
        covering = primitive_idempotents(R)
    if not covering:
        raise NotCovering("no covering sequence supplied")
    ok_cov, _ = is_covering(R, covering)
    if not ok_cov:
        raise NotCovering("the given elements do not generate the unit ideal")
    locs = [localize(R, f) for f in covering]
    # diagonal injectivity: intersection of the kernels of the e_j actions
    inter = None
    for loc in locs:
        ker = hom_kernel_span(M.action_hom(loc.idempotent))
        inter = ker if inter is None else intersect_spans(M.group, inter, ker)
    diagonal_injective = (
        span_subgroup_order(M.group, inter) == 1 if M.group.rank else True
    )
    m_max = m_max if m_max is not None else default_budget(M, len(x_seq), n_max)
    global_lip = lipman_profile(M, x_seq, n_max, m_max)
    global_weak = weak_profile(M, x_seq, n_max, m_max)
    local_lips = []
    local_weaks = []
    for loc in locs:
        Mj = localize_module(M, loc)
        xj = [loc.localize_element(x) for x in x_seq]
        local_lips.append(lipman_profile(Mj, xj, n_max, m_max))
        local_weaks.append(weak_profile(Mj, xj, n_max, m_max))
    certificates = []
    for name, glob, locals_ in (
        ("lipman", global_lip, local_lips),
        ("weak", global_weak, local_weaks),
    ):
        for key, g in glob.entries.items():
            local_vals = [p.entries[key] for p in locals_]
            if g is None or any(v is None for v in local_vals):
                certificates.append(
                    Certificate("inconclusive-entry", {"profile": name, "entry": key})
                )
                continue
            if g != max(local_vals):
                certificates.append(
                    Certificate(
                        "local-global-mismatch",
                        {"profile": name, "entry": key, "global": g, "local": local_vals},
                    )
                )
    passed = diagonal_injective and not certificates
    return CheckOutcome(
        "local_global",
        passed=passed,
        details={
            "diagonal_injective": diagonal_injective,
            "covering_size": len(covering),
            "global_lipman": global_lip.rows(),
            "global_weak": global_weak.rows(),
        },
        certificates=tuple(certificates),
    )


# ---------------------------------------------------------------------------
# Cartier / prism


def cartier_profile(R, I, x, n_max, m_max):
    """Minimal witnesses for the ideal form: I^m : x^m inside I^n : x^{m-n}."""
    M = ring_as_module(R)
    cache = {}
    entries = {}
    for n in range(1, n_max + 1):
        found = None
        for m in range(n, m_max + 1):
            if _gm_condition(M, I, x, n, m, cache):
                found = m
                break
        entries[(1, n)] = found
    return Profile("cartier", 1, n_max, m_max, entries)


def cartier_check(R, I, x, n_max=3, m_max=None):
    """The colon-profile form (a) against the injective-divisibility form
    (b); both are computed independently and the verdicts compared, which
    must agree whenever the quotient by the ideal has bounded torsion."""
    M = ring_as_module(R)
    span = I.span
    Q, _ = quotient_module(M, Submodule(M, span))
    c, _ = bounded_torsion_index(Q, x)
    m_max = m_max if m_max is not None else default_budget(M, 1, n_max)
    prof = cartier_profile(R, I, x, n_max, m_max)
    E = matlis_dual(M)
    span_I = torsion_submodule(E, I).span
    span_Ix = torsion_submodule(E, ideal_sum(I, ideal(R, [x]))).span
    Qd = subquotient_module(E, span_I, span_Ix).module
    divisible = is_divisible(Qd, x)
    # the equivalent span form: Gamma_I(E) = x Gamma_I(E) + Gamma_{(I,x)}(E)
    xA = E.action_hom(x)
    combined = span_lattice(
        E.group,
        [xA.matrix.apply(E.group.reduce(tuple(col))) for col in span_I.cols_list()]
        + span_Ix.cols_list(),
    )
    sum_form = combined == span_I
    equivalent = prof.all_conclusive() == divisible
    return CheckOutcome(
        "cartier",
        passed=equivalent and (divisible == sum_form),
        details={
            "bounded_torsion_index": c,
            "profile_rows": prof.rows(),
            "profile_conclusive": prof.all_conclusive(),
            "divisible": divisible,
            "sum_form": sum_form,
        },
    )


def is_effective_cartier(R, I, covering):
    """Chart-by-chart search for a single non-zerodivisor generator; over a
    finite ring a non-zerodivisor is a unit, so only charts where the ideal
    localizes to the unit ideal can pass (the degeneracy is recorded)."""
    ok_cov, _ = is_covering(R, covering)
    if not ok_cov:
        raise NotCovering("the given elements do not generate the unit ideal")
    charts = []
    overall = True
    for f in covering:
        loc = localize(R, f)
        Lr = loc.ring
        if Lr.is_zero_ring():
            charts.append({"chart": list(f.coords), "zero_chart": True, "passes": True})
            continue
        J = ideal(Lr, [loc.localize_element(g) for g in I.generators])
        generator = None
        for cand in J.span_elements():
            principal = ideal(Lr, [cand]).span == J.span
            if not principal:
                continue
            ker = hom_kernel_span(Lr.multiplication_hom(cand))
            regular = span_subgroup_order(Lr.additive, ker) == 1
            if regular:
                generator = cand
                break
        passes = generator is not None
        charts.append(
            {
                "chart": list(f.coords),
                "unit_ideal": J.is_unit_ideal(),
                "generator": list(generator.coords) if generator else None,
                "passes": passes,
            }
        )
        overall = overall and passes
    return CheckOutcome(
        "effective_cartier",
        passed=overall,
        details={
            "charts": charts,
            "note": "over a finite ring non-zerodivisors are units, so only "
            "charts with unit image ideal can pass",
        },
    )
