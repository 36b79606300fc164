"""Profiles, bound transfer, criteria, local-global, Cartier checks."""

import gc
import weakref
from itertools import islice
from math import comb

import pytest

import prokit.analysis as analysis
from prokit.errors import IdentificationFailure, NotCovering
from prokit.analysis import (
    CheckOutcome,
    _levels,
    _scan_context,
    _witness_scan,
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
    violating_certificate,
    weak_profile,
)
from prokit.intlinalg import (
    hom_kernel_span,
    preimage_span,
    span_lattice,
    span_leq,
    span_subgroup_order,
)
from prokit.modules import (
    FgModule,
    Submodule,
    image_submodule,
    quotient_module,
    ring_as_module,
    zero_module,
)
from prokit.randgen import rng_from_seed
from prokit.rings import (
    FiniteRing,
    fitting_split,
    ideal,
    truncated_polynomial_family,
    truncated_two_power,
    zero_ring,
    zmod,
)
from test_rings import ideal_power
from random_instances import random_instance


def test_bounded_torsion_index_z8():
    R = zmod(8)
    M = ring_as_module(R)
    c, chain = bounded_torsion_index(M, R.from_int(2))
    assert c == 3
    assert chain == [2, 4, 8]


def test_bounded_torsion_index_unit():
    R = zmod(8)
    M = ring_as_module(R)
    c, chain = bounded_torsion_index(M, R.from_int(5))
    assert c == 0 and chain == []


def test_bounded_torsion_truncated_family_law():
    R, x, _ = truncated_two_power(3)
    M = ring_as_module(R)
    c, chain = bounded_torsion_index(M, x)
    assert c == 3
    assert chain[-1] == R.order()


def test_lipman_profile_z8():
    R = zmod(8)
    M = ring_as_module(R)
    prof = lipman_profile(M, [R.from_int(2)], 3)
    for n in (1, 2, 3):
        assert prof.entry(1, n) == n + 3


def test_lipman_profile_unit_prefix():
    R, x, one = truncated_two_power(3)
    M = ring_as_module(R)
    prof = lipman_profile(M, [one, x], 2)
    for n in (1, 2):
        assert prof.entry(1, n) == n
        assert prof.entry(2, n) == n


def test_unit_prefix_builds_one_level_and_no_colon(monkeypatch):
    # N_1 = M makes every level M, and M :_M y^e = M, so a unit prefix
    # builds N_1 alone and its colons take no preimage; the inclusions
    # are still tested and cross-checked, and hold at m = n
    R, x, one = truncated_two_power(3)
    M = ring_as_module(R)
    built, preimages = [], []
    real_image, real_preimage = analysis.image_submodule, analysis.preimage_span
    monkeypatch.setattr(
        analysis, "image_submodule", lambda M, xs: built.append(1) or real_image(M, xs)
    )
    monkeypatch.setattr(
        analysis, "preimage_span", lambda f, s: preimages.append(1) or real_preimage(f, s)
    )
    context = _scan_context(M)
    for kind in ("lipman", "gm"):
        for m in range(1, 6):
            level = context.level(kind, [one, x], m)
            assert level.order() == M.order()
            assert context.colon(x, m, level) is level
            assert context.holds(kind, [one, x], x, 1, m)
    assert len(built) == 2 and preimages == []
    assert _witness_scan(M, "lipman", [x, one], x, 3, 9) == {1: 1, 2: 2, 3: 3}


def test_lipman_profile_x_then_unit():
    R, x, one = truncated_two_power(3)
    M = ring_as_module(R)
    prof = lipman_profile(M, [x, one], 2)
    for n in (1, 2):
        assert prof.entry(1, n) == n + 3
        assert prof.entry(2, n) == n


def test_single_element_law_gm_equals_lipman():
    R = zmod(12)
    M = ring_as_module(R)
    for k in (2, 3, 5, 6):
        x = R.from_int(k)
        lip = lipman_profile(M, [x], 3)
        gm = gm_profile(M, [x], 3)
        c, _ = bounded_torsion_index(M, x)
        for n in (1, 2, 3):
            assert lip.entry(1, n) == n + c
            assert gm.entry(1, n) == lip.entry(1, n)


def test_gm_profile_two_elements_conclusive():
    R = zmod(12)
    M = ring_as_module(R)
    prof = gm_profile(M, [R.from_int(3), R.from_int(2)], 3)
    assert prof.all_conclusive()


def test_weak_profile_z8():
    R = zmod(8)
    M = ring_as_module(R)
    prof = weak_profile(M, [R.from_int(2)], 3)
    for n in (1, 2, 3):
        assert prof.entry(1, n) == n + 3


def test_weak_profile_unit_everywhere_n():
    R = zmod(12)
    M = ring_as_module(R)
    prof = weak_profile(M, [R.from_int(7), R.from_int(2)], 2)
    assert prof.all_conclusive()


def test_weak_profile_truncated_family():
    R, x, _ = truncated_two_power(4)
    M = ring_as_module(R)
    prof = weak_profile(M, [x], 1, i_max=1)
    assert prof.entry(1, 1) == 5


def test_validity_upward_closed():
    # if m witnesses level n then any larger m witnesses it too
    R = zmod(12)
    M = ring_as_module(R)
    seq = [R.from_int(2), R.from_int(6)]
    hits = [m for m in range(1, 9) if violating_certificate(M, seq, "lipman", 2, 1, m) is None]
    assert hits == list(range(hits[0], 9))


def test_colon_scans_form_no_ring_powers(monkeypatch):
    # each power in a scan is one multiplication past the one before
    from prokit.analysis import cartier_profile
    from prokit.rings import RingElement

    R, x, one = truncated_two_power(5)
    M = ring_as_module(R)
    calls = []
    real = RingElement.__pow__
    monkeypatch.setattr(RingElement, "__pow__", lambda self, e: calls.append(e) or real(self, e))
    assert lipman_profile(M, [x, x + one, x], 2).all_conclusive()
    assert gm_profile(M, [x, x], 2).all_conclusive()
    cartier_profile(R, ideal(R, [x]), x, 2, 8)
    assert bounded_torsion_index(M, x)[0] == 5
    assert calls == []


def ideal_power_image(M, I, n):
    """I^n * M as a submodule, with I^n formed afresh."""
    return image_submodule(M, ideal_power(I, n).span_elements())


def test_scan_levels_match_power_images():
    # the scan grows each level by one factor; power_image forms each power afresh
    from prokit.modules import power_image

    R, x, one = truncated_two_power(5)
    M = ring_as_module(R)
    for xs in ([], [x], [x, x + x, one]):
        lip = list(islice(_levels(M, "lipman", xs), 6))
        gm = list(islice(_levels(M, "gm", xs), 6))
        for m in range(1, 7):
            assert lip[m - 1] == power_image(M, xs, [m] * len(xs))
            assert gm[m - 1] == ideal_power_image(M, ideal(R, xs), m)


def _reference_witness_scan(M, levels, y, n_max, m_max):
    """The scan with every colon recomputed: N_m :_M y^m once per m, and
    N_n :_M y^(m-n) afresh at each step, with the mapped span y^(m-n) *
    left canonicalized before the zero-map cross-check."""
    power = M.ring.one()
    acts = [M.action_hom(power)]
    N = [None]
    lefts = [None]
    found = {}
    for n in range(1, n_max + 1):
        found[n] = None
        for m in range(n, m_max + 1):
            while len(lefts) <= m:
                power = power * y
                acts.append(M.action_hom(power))
                N.append(next(levels))
                lefts.append(Submodule(M, preimage_span(acts[-1], N[-1].span)))
            left = lefts[m]
            incl = left.leq(Submodule(M, preimage_span(acts[m - n], N[n].span)))
            mapped = span_lattice(M.group, (acts[m - n].matrix * left.span).cols_list())
            if incl != span_leq(M.group, mapped, N[n].span):
                raise IdentificationFailure("the two forms of the proregularity condition disagree")
            if incl:
                found[n] = m
                break
    return found


def _scan_corpus():
    """(M, x, cartier) cases, with cartier = (generators of I, x) over the
    ring of M: the four fixtures, the two truncated families with (x) and
    (one, x), 40 seeded random draws, and degenerate inputs."""
    Z12 = zmod(12)
    one, zero, two, three = (Z12.from_int(v) for v in (1, 0, 2, 3))
    R12 = ring_as_module(Z12)
    cases = [(R12, [two, three], ([two, three], three)), (R12, [two], ([three], two))]
    families = [truncated_two_power(N) for N in range(2, 8)]
    families += [truncated_polynomial_family(2, N) for N in range(2, 6)]
    for R, x, unit in families:
        M = ring_as_module(R)
        cases += [(M, [x], ([x], x)), (M, [unit, x], ([unit], x))]
    rng = rng_from_seed(0xA18)
    for _ in range(40):
        _, M, seq = random_instance(rng, k_max=3)
        cases.append((M, seq, (seq[:-1], seq[-1])))
    Z0 = zero_ring()
    cases += [
        (zero_module(Z12), [two, three], ([two], three)),
        (ring_as_module(Z0), [Z0.one(), Z0.zero()], ([], Z0.one())),
        (R12, [one, zero, two], ([zero], two)),
        (R12, [zero, one, three], ([one], zero)),
    ]
    return cases


def test_witness_scan_matches_reference_scan():
    # default budgets, and a budget of n_max that leaves entries open.  A
    # scan started at s_n returns max(s_n, least witness) while that is
    # within the budget, and None otherwise.  Scans of one module share the
    # scan data it keeps; the unstarted scan runs on an equal module with
    # none.
    rng = rng_from_seed(0xA23)

    def both(M, kind, xs, y, n_max, m_max):
        fast = _witness_scan(FgModule(M.ring, M.group, M.actions), kind, xs, y, n_max, m_max)
        assert fast == _reference_witness_scan(M, _levels(M, kind, xs), y, n_max, m_max)
        # starts around the least witness and past the budget
        start = {
            n: rng.choice([0, n, m_max + 1] + ([] if m is None else [m - 1, m, m + 1]))
            for n, m in fast.items()
        }
        started = _witness_scan(M, kind, xs, y, n_max, m_max, start)
        for n, m in fast.items():
            bound = None if m is None else max(start[n], m)
            assert started[n] == (bound if bound is not None and bound <= m_max else None)
        return fast

    for M, seq, (gens, x) in _scan_corpus():
        RM = ring_as_module(M.ring)
        for m_max in (default_budget(M.order(), len(seq), 3), 3):
            for i in range(1, len(seq) + 1):
                for kind in ("lipman", "gm"):
                    both(M, kind, seq[: i - 1], seq[i - 1], 3, m_max)
            both(RM, "cartier", ideal(M.ring, gens).generators, x, 3, m_max)
    Z8 = zmod(8)
    assert both(ring_as_module(Z8), "lipman", [], Z8.from_int(2), 3, 3) == {1: None, 2: None, 3: None}


def test_witness_bound_theorem():
    # The least witness m of every colon entry (i, n) satisfies
    # n <= m <= n + c, for c = c_M(y) of the scanned element y by
    # `bounded_torsion_index`, and the default budget lies above n + c.
    # A scan that stops at n + c' for any c' >= c equals the reference scan
    # at the default and at tight budgets, and from random starts returns
    # max(start, least witness) within budget.  The scan reads its stop
    # bound from the Fitting split its ring keeps, so c' is set there, on a
    # copy of the ring that a fresh module is built over.
    rng = rng_from_seed(0xA27)
    cases = []
    for M, seq, (gens, x) in _scan_corpus():
        cases += [(M, kind, seq[: i - 1], seq[i - 1]) for i in range(1, len(seq) + 1)
                  for kind in ("lipman", "gm")]
        cases.append((ring_as_module(M.ring), "cartier", ideal(M.ring, gens).generators, x))
    for _ in range(30):
        _, M, seq = random_instance(rng, k_max=3)
        cases += [(M, rng.choice(["lipman", "gm"]), seq[: i - 1], seq[i - 1])
                  for i in range(1, len(seq) + 1)]
    tight = 0
    for M, kind, xs, y in cases:
        c = bounded_torsion_index(M, y)[0]
        budget = default_budget(M.order(), len(xs) + 1, 3)
        least = _reference_witness_scan(M, _levels(M, kind, xs), y, 3, budget)
        assert all(n <= least[n] <= n + c < budget for n in least), (kind, xs, y)
        tight += any(least[n] == n + c for n in least)
        for m_max in (budget, rng.randint(1, 6)):
            R = M.ring
            ring = FiniteRing(R.additive, R.mult_matrices, R.unit_coords)
            ring._splits[y.coords] = c + rng.choice([0, 0, 1, 4]), fitting_split(R, y)[1]
            fresh = FgModule(ring, M.group, M.actions)
            scan = _witness_scan(fresh, kind, xs, y, 3, m_max)
            assert scan == _reference_witness_scan(M, _levels(M, kind, xs), y, 3, m_max)
            start = {n: rng.randint(0, n + c + 2) for n in least}
            started = _witness_scan(fresh, kind, xs, y, 3, m_max, start)
            for n, m in least.items():
                assert started[n] == (max(m, start[n]) if max(m, start[n]) <= m_max else None)
    # the bound is reached, so no smaller one would do
    assert tight > len(cases) // 2


def test_fitting_index_bounds_the_torsion_index():
    # c_M(y) <= c_R(y) for the Fitting index c_R(y) that the ring keeps,
    # with equality for M = R; the corpus and the random draws include
    # modules on which the bound is strict
    rng = rng_from_seed(0xA35)
    cases = [(M, y) for M, seq, _ in _scan_corpus() for y in seq]
    for _ in range(60):
        _, M, seq = random_instance(rng, k_max=3)
        cases += [(M, y) for y in seq]
    strict = 0
    for M, y in cases:
        c_R = fitting_split(M.ring, y)[0]
        c_M = bounded_torsion_index(M, y)[0]
        assert c_M <= c_R
        assert bounded_torsion_index(ring_as_module(M.ring), y)[0] == c_R
        strict += c_M < c_R
    assert strict > 0


def _non_faithful_cases():
    """(M, y) with M = R/aR for a a nonunit, so ann M is not 0 and c_M(y)
    can lie below c_R(y)."""
    Z8, Z12 = zmod(8), zmod(12)
    cases = [(Z8, Z8.from_int(2), Z8.from_int(2)), (Z12, Z12.from_int(2), Z12.from_int(2))]
    cases += [(Z12, Z12.from_int(6), Z12.from_int(2)), (Z8, Z8.from_int(4), Z8.from_int(6))]
    for N in range(2, 6):
        R, x, one = truncated_two_power(N)
        cases += [(R, x, x), (R, x * x, x), (R, x, x + one)]
    for N in range(2, 5):
        R, x, one = truncated_polynomial_family(2, N)
        cases += [(R, x * x, x), (R, x, x * x)]
    out = []
    for R, a, y in cases:
        RM = ring_as_module(R)
        M, _ = quotient_module(RM, image_submodule(RM, [a]))
        out.append((M, y))
    return out


def test_scans_of_non_faithful_modules_match_the_reference():
    # on R/aR the scan stops at n + c_R(y), which may lie above n + c_M(y)
    # and above the default budget of the smaller module; its entries still
    # equal the reference scan, for both kinds and both prefixes
    strict = 0
    for M, y in _non_faithful_cases():
        R = M.ring
        strict += bounded_torsion_index(M, y)[0] < fitting_split(R, y)[0]
        for xs in ([], [R.one()], [y]):
            for kind in ("lipman", "gm"):
                for m_max in (default_budget(M.order(), len(xs) + 1, 3), 3):
                    fresh = FgModule(R, M.group, M.actions)
                    scan = _witness_scan(fresh, kind, xs, y, 3, m_max)
                    reference = _reference_witness_scan(M, _levels(M, kind, xs), y, 3, m_max)
                    assert scan == reference, (M.order(), kind, xs, y, m_max)
    assert strict >= 5


def test_witness_scan_builds_each_colon_once(monkeypatch):
    # N_m = 0 at every level of an i = 1 scan, and x^e = 0 for e >= 5, so
    # most colons repeat; each distinct (action, level) with e >= 1 is one
    # preimage, and the cross-check canonicalizes nothing
    R, x, _ = truncated_two_power(5)
    M = ring_as_module(R)
    preimages, lattices = [], []
    real_preimage, real_lattice = analysis.preimage_span, analysis.span_lattice
    monkeypatch.setattr(
        analysis, "preimage_span", lambda f, s: preimages.append(s) or real_preimage(f, s)
    )
    monkeypatch.setattr(
        analysis, "span_lattice", lambda *a: lattices.append(a) or real_lattice(*a)
    )
    prof = lipman_profile(M, [x], 3)
    found = {n: prof.entry(1, n) for n in (1, 2, 3)}
    assert found == {1: 6, 2: 7, 3: 8}
    levels = [None] + list(islice(_levels(M, "lipman", []), max(found.values())))
    acts = [M.action_hom(x ** e).matrix for e in range(len(levels))]
    pairs = set()
    for n, witness in found.items():
        for m in range(n, witness + 1):
            pairs.add((acts[m], levels[m].span))
            if m > n:
                pairs.add((acts[m - n], levels[n].span))
    assert len(preimages) == len(pairs) == 5
    assert lattices == []


def test_equal_modules_share_no_scan_data(monkeypatch):
    # a module equal to M but distinct from it scans from nothing, so its
    # profile takes as many preimages as M's first one did; a second
    # profile of M reads M's kept scans and takes none
    R, x, one = truncated_two_power(4)
    M = ring_as_module(R)
    preimages = []
    real = analysis.preimage_span
    monkeypatch.setattr(analysis, "preimage_span", lambda f, s: preimages.append(1) or real(f, s))
    first = lipman_profile(M, [x, x + one], 3)
    taken = len(preimages)
    assert taken > 0
    twin = FgModule(M.ring, M.group, M.actions)
    assert twin == M and twin is not M
    assert lipman_profile(twin, [x, x + one], 3) == first
    assert len(preimages) == 2 * taken
    assert lipman_profile(M, [x, x + one], 3) == first
    assert len(preimages) == 2 * taken


def test_scan_data_dies_with_its_module():
    # no reference cycle holds a module's scan data, so it dies with the
    # module before any collection runs
    R, x, _ = truncated_two_power(3)
    M = ring_as_module(R)
    lipman_profile(M, [x], 2)
    weak_profile(M, [x], 2)
    kept = weakref.ref(_scan_context(M))
    gc.disable()
    try:
        del M
        assert kept() is None
    finally:
        gc.enable()


def test_violating_certificate_exists_below_witness():
    R = zmod(8)
    M = ring_as_module(R)
    prof = lipman_profile(M, [R.from_int(2)], 2)
    m_min = prof.entry(1, 1)
    for m in range(1, m_min):
        cert = violating_certificate(M, [R.from_int(2)], "lipman", 1, 1, m)
        assert cert is not None
    assert violating_certificate(M, [R.from_int(2)], "lipman", 1, 1, m_min) is None


def test_bound_transfer_single_element():
    R = zmod(8)
    M = ring_as_module(R)
    x = [R.from_int(2)]
    lip = lipman_profile(M, x, 3)
    gm = gm_profile(M, x, 3)
    outcome = verify_bound_transfer(M, x, lip, gm)
    assert outcome.passed


def test_bound_transfer_truncated_mixed():
    R, x, one = truncated_two_power(3)
    M = ring_as_module(R)
    seq = [x, one]
    lip = lipman_profile(M, seq, 3)
    gm = gm_profile(M, seq, 3)
    assert verify_bound_transfer(M, seq, lip, gm).passed


def test_bound_transfer_z12():
    R = zmod(12)
    M = ring_as_module(R)
    seq = [R.from_int(3), R.from_int(2)]
    lip = lipman_profile(M, seq, 3)
    gm = gm_profile(M, seq, 3)
    assert verify_bound_transfer(M, seq, lip, gm).passed


def test_power_stability_z8():
    R = zmod(8)
    M = ring_as_module(R)
    out = power_stability_check(M, [R.from_int(2)], [2])
    assert out.passed
    # the profile of x^2 = 4 has entries n + 2 (annihilator chain of 4)
    rows = dict(((i, n), m) for i, n, m, _ in out.details["powered_rows"])
    assert rows[(1, 1)] == 3


def test_power_stability_identity_exponents():
    R = zmod(12)
    M = ring_as_module(R)
    out = power_stability_check(M, [R.from_int(2)], [1])
    assert out.passed
    assert out.details["base_rows"] == out.details["powered_rows"]


def test_injective_criterion_proregular_z8():
    R = zmod(8)
    M = ring_as_module(R)
    out = injective_criterion(M, [R.from_int(2)], "proregular")
    assert out.passed
    assert out.details["agrees_with_profile"]


def test_injective_criterion_weak_z12():
    R = zmod(12)
    M = ring_as_module(R)
    out = injective_criterion(M, [R.from_int(2), R.from_int(3)], "weak")
    assert out.passed


def test_injective_criterion_unit_sequence():
    R = zmod(12)
    M = ring_as_module(R)
    out = injective_criterion(M, [R.one()], "proregular")
    assert out.passed


def regular_then_bounded(M, x_seq, y):
    """A regular sequence extended by one bounded-torsion element stays
    proregular; additionally verifies the graded-piece cardinality law
    |x^n M / x^{n+1} M| = |M/xM|^{binom(k+n-1, n)} for n <= 3."""
    k = len(x_seq)
    regular = []
    for i in range(1, k + 1):
        Q, _ = quotient_module(M, image_submodule(M, x_seq[: i - 1]))
        ker = hom_kernel_span(Q.action_hom(x_seq[i - 1]))
        regular.append(span_subgroup_order(Q.group, ker) == 1)
    Qfull, _ = quotient_module(M, image_submodule(M, x_seq))
    c, chain = bounded_torsion_index(Qfull, y)
    details = {
        "regular_positions": regular,
        "tail_torsion_index": c,
        "tail_chain_orders": chain,
    }
    if not all(regular):
        details["hypothesis_failed"] = True
        return CheckOutcome("regular_then_bounded", passed=False, details=details)
    prof = lipman_profile(M, list(x_seq) + [y], 3)
    details["profile_rows"] = prof.rows()
    conclusion = prof.all_conclusive()
    # graded-piece cardinalities, ideal powers of the full prefix
    if k >= 1:
        base = Qfull.order()
        card_ok = True
        # |I^n M| for n = 0..4: M, then one chain I M, I^2 M, I^3 M, I^4 M
        orders = [M.order()] + [N.order() for N in islice(_levels(M, "gm", x_seq), 4)]
        for n in range(0, 4):
            upper, lower = orders[n], orders[n + 1]
            expected = base ** comb(k + n - 1, n)
            if upper // lower != expected:
                card_ok = False
                details.setdefault("cardinality_failures", []).append(
                    {"n": n, "observed": upper // lower, "expected": expected}
                )
        details["cardinality_ok"] = card_ok
        conclusion = conclusion and card_ok
    return CheckOutcome("regular_then_bounded", passed=conclusion, details=details)


def test_regular_then_bounded_unit_regular():
    R = zmod(8)
    M = ring_as_module(R)
    out = regular_then_bounded(M, [R.from_int(3)], R.from_int(2))
    assert out.passed
    assert out.details["regular_positions"] == [True]


def test_regular_then_bounded_empty_prefix():
    R = zmod(8)
    M = ring_as_module(R)
    out = regular_then_bounded(M, [], R.from_int(2))
    assert out.passed
    assert out.details["tail_torsion_index"] == 3


def test_regular_then_bounded_forms_ideal_powers_once(monkeypatch):
    # |I^n M| for n = 0..4 comes from one chain I, I^2, I^3, I^4: three
    # ideal products, where asking for I^n and I^(n+1) afresh at each n
    # made nine
    import prokit.analysis
    import prokit.rings

    calls = []
    real = prokit.rings.ideal_product

    def counting(I, J):
        calls.append(1)
        return real(I, J)

    monkeypatch.setattr(prokit.rings, "ideal_product", counting)
    monkeypatch.setattr(prokit.analysis, "ideal_product", counting)
    R = zmod(12)
    out = regular_then_bounded(ring_as_module(R), [R.from_int(5)], R.from_int(2))
    assert out.passed and out.details["cardinality_ok"]
    assert len(calls) == 3


def test_regular_then_bounded_z12():
    R = zmod(12)
    M = ring_as_module(R)
    out = regular_then_bounded(M, [R.from_int(5)], R.from_int(2))
    assert out.passed


def test_regular_then_bounded_reports_failure():
    R = zmod(8)
    M = ring_as_module(R)
    out = regular_then_bounded(M, [R.from_int(2)], R.from_int(2))
    assert not out.passed
    assert out.details.get("hypothesis_failed")


def test_local_global_z6_covering():
    R = zmod(6)
    M = ring_as_module(R)
    out = local_global_check(M, [R.from_int(2)], covering=[R.from_int(3), R.from_int(4)])
    assert out.passed
    assert out.details["diagonal_injective"]
    rows = dict(((i, n), m) for i, n, m, _ in out.details["global_lipman"])
    assert rows[(1, 1)] == 2  # c = 1 in the Z/2 chart, 0 in the Z/3 chart


def test_local_global_unit_covering():
    R = zmod(12)
    M = ring_as_module(R)
    out = local_global_check(M, [R.from_int(2)], covering=[R.one()])
    assert out.passed


def test_local_global_maximal_mode():
    R = zmod(12)
    M = ring_as_module(R)
    out = local_global_check(M, [R.from_int(2)])
    assert out.passed


def test_local_global_rejects_noncovering():
    R = zmod(6)
    M = ring_as_module(R)
    with pytest.raises(NotCovering):
        local_global_check(M, [R.from_int(2)], covering=[R.from_int(2)])
    # an empty covering is not the default one: only the zero ring has it
    with pytest.raises(NotCovering):
        local_global_check(M, [R.from_int(2)], covering=[])


def test_cartier_prism_fixture():
    R = zmod(12)
    out = cartier_check(R, ideal(R, [R.from_int(3)]), R.from_int(2))
    assert out.passed
    assert out.details["bounded_torsion_index"] == 0
    for i, n, m, conclusive in out.details["profile_rows"]:
        assert conclusive and m == n
    assert out.details["divisible"]


def test_cartier_unit_ideal():
    R = zmod(12)
    out = cartier_check(R, ideal(R, [R.one()]), R.from_int(2))
    assert out.passed
    for i, n, m, conclusive in out.details["profile_rows"]:
        assert conclusive and m == n


def test_cartier_z8_nilpotent():
    # with x inside I the level-m colon is everything, so the minimal
    # witness is m(n) = 2n (frozen from direct enumeration over Z/8)
    R = zmod(8)
    out = cartier_check(R, ideal(R, [R.from_int(2)]), R.from_int(2))
    assert out.passed
    rows = dict(((i, n), m) for i, n, m, _ in out.details["profile_rows"])
    assert rows[(1, 1)] == 2
    assert rows[(1, 2)] == 4
    assert rows[(1, 3)] == 6
    assert out.details["divisible"]


def test_effective_cartier_examples():
    R = zmod(12)
    out = is_effective_cartier(R, ideal(R, [R.one()]), [R.one()])
    assert out.passed
    out2 = is_effective_cartier(R, ideal(R, [R.from_int(2)]), [R.from_int(4), R.from_int(9)])
    assert not out2.passed  # the Z/3 chart sees the zero ideal
    R6 = zmod(6)
    out3 = is_effective_cartier(R6, ideal(R6, [R6.from_int(5)]), [R6.one()])
    assert out3.passed


def test_default_budget_formula():
    assert default_budget(ring_as_module(zmod(8)).order(), 1, 3) == 3 + 3 * 2
    # the zero module's order 1 reads as 2
    assert default_budget(1, 2, 2) == default_budget(2, 2, 2) == 2 + 1 * 3


def test_power_stability_z12_cubed():
    R = zmod(12)
    M = ring_as_module(R)
    out = power_stability_check(M, [R.from_int(2)], [3])
    assert out.passed


def test_effective_cartier_covering_3_4():
    # the chart at 3 sees the image of (2) as a non-unit ideal, so the
    # search finds no non-zerodivisor generator there
    R = zmod(12)
    out = is_effective_cartier(R, ideal(R, [R.from_int(2)]), [R.from_int(3), R.from_int(4)])
    assert not out.passed
    charts = {tuple(c["chart"]): c for c in out.details["charts"]}
    assert charts[(3,)]["passes"] is False
    assert charts[(4,)]["passes"] is True
