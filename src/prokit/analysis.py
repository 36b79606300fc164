"""Minimal-witness profiles and the verification battery.

A profile materializes the "for all n there is m" quantifier of the
proregularity definitions: for each position (or homological degree) i and
each level n it records the least witness exponent m.  Validity is
upward-closed in m, so the first hit of a scan from n upward is the
minimum.  Entries that exhaust the search bound are recorded as
inconclusive together with that bound.  A colon entry (i, n) has its least
witness m in n <= m <= n + c_M(y) <= n + c_R(y), for c_M(y) the bounded
torsion index of the scanned element y on M and c_R(y) its Fitting index,
which the ring keeps (`fitting_split`) and every scan stops at (see
`_witness_scan`).  `default_budget` lies above n + c_M(y): at the default
budget no colon entry is inconclusive, so an inconclusive entry comes only
from a smaller m_max.

Lipman's, Greenlees-May's and the Cartier profile share one condition,
(N_m :_M y^m) <= (N_n :_M y^(m-n)), and one scan, `_witness_scan`; they
differ only in the levels N_m that `_levels` yields: x^(m) M (elementwise
powers of the prefix) or I^m M (powers of the prefix ideal, over R itself
for Cartier).  The scans of one module share the `_ScanContext` that the
module keeps.  The weak profile scans Koszul transitions instead."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import islice, repeat

from .errors import (
    IdentificationFailure,
    InsufficientBound,
    InvalidSpec,
    NotCovering,
)
from .intlinalg import (
    hom_kernel_span,
    intersect_spans,
    preimage_span,
    span_lattice,
    span_leq,
    span_subgroup_order,
)
from .complexes import KoszulTower, cech_cohomology, pro_zero_index
from .modules import (
    Submodule,
    colon_submodule,
    image_submodule,
    is_divisible,
    localize_module,
    matlis_dual,
    quotient_module,
    ring_as_module,
    subquotient_module,
    torsion_submodule,
)
from .rings import (
    fitting_split,
    ideal,
    ideal_product,
    ideal_sum,
    is_covering,
    localize,
    primitive_idempotents,
)


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


def default_budget(order, k, n_max):
    """n_max + ceil(log2 |M|) * (k + 1) for a module M of the given order.

    The least witness of a colon entry (i, n) satisfies n <= m <= n +
    c_M(y), where c_M(y) <= log2 |M| is the bounded torsion index of the
    scanned element y (see `_witness_scan`); annihilator and power chains in
    a finite module are shorter than log2 |M|.  So this budget, at least
    n_max + 2 log2 |M| for k >= 1, leaves no colon entry inconclusive.  A
    scan's stop bound n + c_R(y) may lie above it when M is smaller than its
    ring, but the scan's first hit, at most n + c_M(y), does not."""
    return n_max + (max(order, 2) - 1).bit_length() * (k + 1)


# ---------------------------------------------------------------------------
# Bounded torsion and the three profiles


def bounded_torsion_index(M, x):
    """Least c with 0 :_M x^c = 0 :_M x^{c+1}, plus the strictly increasing
    chain of annihilator orders as the witness.  0 :_M x^{c+1} is the
    preimage of 0 :_M x^c under x, so no power of x is formed.

    >>> from prokit.rings import zmod
    >>> R = zmod(8)
    >>> bounded_torsion_index(ring_as_module(R), R.from_int(2))
    (3, [2, 4, 8])
    """
    act = M.action_hom(x)
    prev = M.zero_span()
    chain = []
    while True:
        nxt = preimage_span(act, prev)
        if nxt == prev:
            return len(chain), chain
        chain.append(span_subgroup_order(M.group, nxt))
        prev = nxt


def _levels(M, kind, xs):
    """The levels N_1, N_2, ... of a colon scan over the prefix xs, each
    one multiplication past the one before: x^(m) M (elementwise powers,
    Lipman) for kind "lipman", I^m M with I = (xs) (ideal powers,
    Greenlees-May) for any other kind.  Over the empty prefix every level
    is 0."""
    if not xs:
        zero = image_submodule(M, [])
        while True:
            yield zero
    if kind == "lipman":
        gens = list(xs)
        while True:
            yield image_submodule(M, gens)
            gens = [g * x for g, x in zip(gens, xs)]
    I = J = ideal(M.ring, list(xs))
    while True:
        yield image_submodule(M, J.span_elements())
        J = ideal_product(J, I)


def _levels_key(kind, xs):
    """The key under which a `_ScanContext` keeps the levels of
    `_levels(M, kind, xs)`.  Over at most one prefix item the two kinds give
    the same levels, (x)^m M = x^m M, so the empty prefix has one zero chain
    for Lipman, Greenlees-May and Cartier."""
    kind = "lipman" if kind == "lipman" or len(xs) <= 1 else "gm"
    return kind, tuple(x.coords for x in xs)


class _ScanContext:
    """What the colon scans of one module M share.  M keeps it, made by
    `_scan_context` on its first scan, so every scan of M reads it and a
    module equal to M but distinct from it shares nothing.  Values do not
    depend on which scans ran before: colons are keyed by canonical spans
    and finished scans by their full key.  It keeps

    - `colons`: N :_M y^e, the preimage of N under y^e, keyed by (matrix of
      y^e, canonical span of N); canonical spans identify submodules, so
      each distinct colon is built once;
    - `actions`: per y, by coordinates, [y^e or None for e = 0, the
      actions of y^0..y^e]; y^1 is y, each later power one product more;
    - `levels`: per `_levels_key`, [the `_levels` generator, N_1, N_2, ...],
      the levels built so far.  When N_1 = M every later level is N_1 with
      nothing built: over a finite ring, I M = M for I = (xs) gives
      I + ann M = R, hence x^(m) + ann M = R and N_m = M for every m;
    - `scans`: finished `_witness_scan` results, keyed by (levels key, y,
      n_max, m_max, starts), and finished `weak_profile`s, keyed by
      ("weak", sequence, n_max, m_max, i_max)."""

    def __init__(self, M):
        # M keeps the context, so the context, its levels and its colons
        # refer to M through a weak proxy: no reference cycle, so the scan
        # data is freed with M by reference counting, not left to the cycle
        # collector
        self.module = weakref.proxy(M)
        self.colons = {}
        self.actions = {}
        self.levels = {}
        self.scans = {}

    def action(self, y, e):
        """The action of y^e on M."""
        if y.coords not in self.actions:
            self.actions[y.coords] = [None, [self.module.action_hom(self.module.ring.one())]]
        built = self.actions[y.coords]
        while len(built[1]) <= e:
            built[0] = y if built[0] is None else built[0] * y
            built[1].append(self.module.action_hom(built[0]))
        return built[1][e]

    def level(self, kind, xs, m):
        """N_m, the m-th item of `_levels(M, kind, xs)`."""
        key = _levels_key(kind, xs)
        if key not in self.levels:
            self.levels[key] = [_levels(self.module, key[0], xs)]
        built = self.levels[key]
        while len(built) <= m:
            built.append(next(built[0]))
            if len(built) == 2 and built[1].order() == self.module.order():
                built[0] = repeat(built[1])  # N_1 = M: every level is M
        return built[m]

    def colon(self, y, e, level):
        """level :_M y^e: the level itself for e = 0 or a level equal to M
        (M :_M y^e = M), else its preimage under y^e, built once."""
        if e == 0 or level.order() == self.module.order():
            return level
        act = self.action(y, e)
        key = (act.matrix, level.span)
        if key not in self.colons:
            self.colons[key] = Submodule(self.module, preimage_span(act, level.span))
        return self.colons[key]

    def holds(self, kind, xs, y, n, m):
        """Whether (N_m :_M y^m) <= (N_n :_M y^(m-n)) for m >= n and the
        levels of `_levels(M, kind, xs)`.  The inclusion, through
        `Submodule.leq`, is cross-checked against the zero-map form
        y^(m-n) (N_m :_M y^m) <= N_n, membership of the mapped generators
        in the canonical N_n by `span_leq`."""
        Nm, Nn = self.level(kind, xs, m), self.level(kind, xs, n)
        left = self.colon(y, m, Nm)
        incl = left.leq(self.colon(y, m - n, Nn))
        if incl != span_leq(self.module.group, self.action(y, m - n).matrix * left.span, Nn.span):
            raise IdentificationFailure("the two forms of the proregularity condition disagree")
        return incl


def _scan_context(M):
    """The `_ScanContext` that M keeps, made on the first call."""
    if M._scans is None:
        M._scans = _ScanContext(M)
    return M._scans


def _witness_scan(M, kind, xs, y, n_max, m_max, start=None):
    """{n: least m in [s_n, m_max] with (N_m :_M y^m) <= (N_n :_M y^(m-n))}
    for n = 1..n_max, None where no m is, with N_m the m-th level of
    `_levels(M, kind, xs)` and s_n = max(n, start[n]), or n without
    `start`.  Levels, actions, colons and the finished scan are kept in M's
    `_ScanContext`; each inclusion is tested by `_ScanContext.holds`.

    The theorem: the least witness m satisfies n <= m <= n + c, for c =
    c_M(y) the bounded torsion index of y on M.  By Fitting's lemma M is
    the direct sum of y^c M and 0 :_M y^c, split by an idempotent e that
    acts as a power of y, so e splits every level, colon and inclusion.
    On e M, y is invertible with inverse a power of y, which maps every
    level into itself, so the condition holds at m = n; on (1 - e) M,
    y^c = 0, so for m - n >= c the right-hand colon is everything.  Any
    upper bound for c does as well, and the scan reads one that its ring
    keeps: the Fitting index c_R(y) of `fitting_split(M.ring, y)`.  Its
    idempotent e has y^(c_R) (1 - e) = 0 in R, so y^(c_R) kills (1 - e) M
    and c_M(y) <= c_R(y), with equality for M = R.

    The levels decrease, so validity is upward closed in m (the argument is
    in `tasks.run_family_sweep`), and the first hit at or above s_n is the
    larger of s_n and the least witness.  So for hi = n + c: if s_n >= hi,
    the entry is s_n with no test; otherwise m = s_n, s_n + 1, ... is
    tested, and the scan stops at hi without testing it.  An entry above
    m_max is None."""
    starts = None if start is None else tuple(start[n] for n in range(1, n_max + 1))
    key = (_levels_key(kind, xs), y.coords, n_max, m_max, starts)
    context = _scan_context(M)
    if key not in context.scans:
        c = fitting_split(M.ring, y)[0]
        found = {}
        for n in range(1, n_max + 1):
            lo = n if start is None else max(n, start[n])
            bound = max(lo, n + c)
            found[n] = bound if bound <= m_max else None
            for m in range(lo, min(bound, m_max + 1)):
                if context.holds(kind, xs, y, n, m):
                    found[n] = m
                    break
        context.scans[key] = found
    return dict(context.scans[key])


def _profile(M, x_seq, kind, n_max, m_max, start):
    k = len(x_seq)
    m_max = m_max if m_max is not None else default_budget(M.order(), k, n_max)
    entries = {}
    for i in range(1, k + 1):
        starts = None if start is None else {n: start[(i, n)] for n in range(1, n_max + 1)}
        scan = _witness_scan(M, kind, x_seq[: i - 1], x_seq[i - 1], n_max, m_max, starts)
        entries.update(((i, n), m) for n, m in scan.items())
    return Profile(kind, k, n_max, m_max, entries)


def lipman_profile(M, x_seq, n_max, m_max=None, start=None):
    """Minimal witnesses for the elementwise-power form of proregularity.

    With `start`, a map (i, n) -> lower bound, entry (i, n) is the least
    witness at or above its bound."""
    return _profile(M, x_seq, "lipman", n_max, m_max, start)


def gm_profile(M, x_seq, n_max, m_max=None):
    """Minimal witnesses for the ideal-power form of proregularity."""
    return _profile(M, x_seq, "gm", n_max, m_max, None)


def weak_profile(M, x_seq, n_max, m_max=None, i_max=None):
    """Minimal pro-zero witnesses for the Koszul homology transitions,
    indexed by homological degree i = 1..i_max.  The finished profile is
    kept on M, so the checks that ask M for the same profile build one
    Koszul tower."""
    k = len(x_seq)
    i_max = i_max if i_max is not None else k
    m_max = m_max if m_max is not None else default_budget(M.order(), k, n_max)
    context = _scan_context(M)
    key = ("weak", tuple(x.coords for x in x_seq), n_max, m_max, i_max)
    if key not in context.scans:
        tower = KoszulTower(x_seq, M)
        context.scans[key] = {
            (i, n): pro_zero_index(tower, i, n, m_max)
            for i in range(1, i_max + 1)
            for n in range(1, n_max + 1)
        }
    return Profile("weak", i_max, n_max, m_max, dict(context.scans[key]))


def violating_certificate(M, x_seq, kind, i, n, m):
    """An explicit element of the level-m colon whose y^{m-n} multiple is
    nonzero in the level-n quotient, or None when the inclusion holds.
    One entry checked element by element, apart from the profile scans."""
    y = x_seq[i - 1]
    levels = list(islice(_levels(M, kind, x_seq[: i - 1]), m))
    Nn = levels[n - 1]
    left = colon_submodule(M, levels[m - 1], y, m)
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
        raise InvalidSpec("exponents must be >= 1")
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

    Hom_R(M, E) is read as the Matlis dual M^dual = Hom_Z(M, Q/Z): by
    tensor-Hom adjunction, Hom_R(M, Hom_Z(R, Q/Z)) = Hom_Z(M, Q/Z) through
    the natural isomorphism phi -> (m -> phi(m)(1)), so H needs no linear
    system.

    proregular mode: for each position i, the localization sequence of
    D = torsion_{x_1..x_{i-1}}(H) must have vanishing first Cech
    cohomology at x_i, and D / torsion_{x_1..x_i}(H) must be
    x_i-divisible.  weak mode: all higher Cech cohomology of H vanishes.
    The verdict is compared with the conclusiveness of the matching
    profile."""
    R = M.ring
    H = matlis_dual(M)
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
            vanish = cech_cohomology(x_seq, H, i).is_zero_module()
            details[f"degree_{i}"] = {"cech_vanishes": vanish}
            ok = ok and vanish
        profile = weak_profile(M, x_seq, 2)
    else:
        raise InvalidSpec(f"unknown criterion mode {mode!r}")
    agrees = ok == profile.all_conclusive()
    details["profile_conclusive"] = profile.all_conclusive()
    details["agrees_with_profile"] = agrees
    return CheckOutcome(f"injective_criterion_{mode}", passed=ok and agrees, details=details)


# ---------------------------------------------------------------------------
# Local-global


def local_global_check(M, x_seq, covering=None):
    """Diagonal injectivity into the covering localizations, and the
    local-global law: the global minimal witness at every profile entry
    (n <= 2) is the maximum of the local ones.  The covering defaults to the
    primitive idempotents, whose charts are the local factors."""
    R = M.ring
    if covering is None:
        covering = primitive_idempotents(R)
    if not covering:
        # the empty family generates the unit ideal exactly when 1 = 0
        if not R.is_zero_ring():
            raise NotCovering("no covering sequence supplied")
    elif not is_covering(R, covering)[0]:
        raise NotCovering("the given elements do not generate the unit ideal")
    locs = [localize(R, f) for f in covering]
    # diagonal injectivity: intersection of the kernels of the e_j actions
    inter = None
    for loc in locs:
        ker = hom_kernel_span(M.action_hom(loc.idempotent))
        inter = ker if inter is None else intersect_spans(M.group, inter, ker)
    if inter is None:  # no charts: the diagonal lands in the zero module
        inter = M.full_span()
    diagonal_injective = span_subgroup_order(M.group, inter) == 1
    n_max = 2
    m_max = default_budget(M.order(), len(x_seq), n_max)
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
            # with no charts (the zero ring) there is no local value to match
            if local_vals and g != max(local_vals):
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
    scan = _witness_scan(M, "cartier", I.generators, x, n_max, m_max)
    return Profile("cartier", 1, n_max, m_max, {(1, n): m for n, m in scan.items()})


def cartier_check(R, I, x, n_max=3, m_max=None):
    """The colon-profile form (a) against the injective-divisibility form
    (b); both are computed independently and the verdicts compared, which
    must agree whenever the quotient by the ideal has bounded torsion."""
    M = ring_as_module(R)
    span = I.span
    Q, _ = quotient_module(M, Submodule(M, span))
    c, _ = bounded_torsion_index(Q, x)
    m_max = m_max if m_max is not None else default_budget(M.order(), 1, n_max)
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
