"""Degenerate inputs and independent enumeration oracles."""

import itertools

from prokit.analysis import gm_profile, lipman_profile, local_global_check
from prokit.modules import (
    free_resolution,
    localize_module,
    matlis_dual,
    module_from_presentation,
    modules_isomorphic,
    ring_as_module,
)
from prokit.rings import ideal, localize, zmod, zero_ring, product_ring
from complex_reference import ChainComplex, hom_module, koszul_complex
from test_modules import tensor_module


def test_resolution_as_chain_complex():
    R = zmod(4)
    M, _, _ = module_from_presentation(R, 1, [[R.from_int(2)]])
    res = free_resolution(M, 3)
    modules = {i: f.module for i, f in enumerate(res.frees)}
    diffs = {i: res.differential(i) for i in range(1, len(res.frees))}
    C = ChainComplex(modules, diffs)  # construction checks d o d = 0
    assert modules_isomorphic(C.homology(0).module, M)
    for i in (1, 2):
        assert C.homology(i).module.is_zero_module()


def test_localization_map_is_ring_hom():
    for modulus, f in ((12, 2), (6, 4), (36, 6)):
        R = zmod(modulus)
        loc = localize(R, R.from_int(f))
        for a in R.elements():
            for b in (R.from_int(3), R.from_int(f), R.one()):
                lhs = loc.localize_element(a * b)
                rhs = loc.localize_element(a) * loc.localize_element(b)
                assert lhs == rhs
        assert loc.localize_element(R.one()) == loc.ring.one()


def test_profiles_on_zero_module():
    R = zmod(6)
    Z, _, _ = module_from_presentation(R, 1, [[R.one()]])
    assert Z.is_zero_module()
    prof = lipman_profile(Z, [R.from_int(2), R.from_int(3)], 2)
    assert prof.all_conclusive()
    assert all(m == n for (i, n), m in prof.entries.items())


def test_local_global_with_nilpotent_covering_element():
    # {f, 1-f} always covers; here f = 2 in Z/4 is nilpotent, so one chart
    # is the zero ring and the whole weight falls on the other chart
    R = zmod(4)
    M = ring_as_module(R)
    f = R.from_int(2)
    out = local_global_check(M, [R.from_int(2)], covering=[f, R.one() - f])
    assert out.passed


def test_modules_over_zero_ring():
    Z = zero_ring()
    M = ring_as_module(Z)
    assert M.is_zero_module()
    assert matlis_dual(M).is_zero_module()
    assert tensor_module(M, M).is_zero_module()
    assert hom_module(M, M).is_zero_module()


def test_koszul_on_product_ring_element():
    R, embed = product_ring([zmod(4), zmod(3)])
    parts = [zmod(4).from_int(2), zmod(3).from_int(1)]
    x = embed(parts)  # nilpotent in one factor, unit in the other
    M = ring_as_module(R)
    kos = koszul_complex([x], M)
    h1 = kos.complex.homology(1).module
    # annihilator of (2,1) is {(a,0): 2a = 0 mod 4} of order 2
    assert h1.order() == 2


def brute_colon_condition(modulus, xs, y, n, m):
    """Enumeration oracle for the elementwise-power inclusion over Z/mod."""
    ring = range(modulus)

    def power_image(exps):
        out = set()
        coeffs = [pow(x, e, modulus) for x, e in zip(xs, exps)]
        for combo in itertools.product(ring, repeat=len(xs)):
            out.add(sum(c * a for c, a in zip(coeffs, combo)) % modulus)
        return out or {0}

    Nm = power_image([m] * len(xs))
    Nn = power_image([n] * len(xs))
    ym = pow(y, m, modulus)
    ymn = pow(y, m - n, modulus)
    left = {r for r in ring if (ym * r) % modulus in Nm}
    right = {r for r in ring if (ymn * r) % modulus in Nn}
    return left <= right


def test_lipman_profile_against_enumeration():
    modulus = 12
    R = zmod(modulus)
    M = ring_as_module(R)
    for xs_ints in ([2, 3], [2, 6], [4, 2], [6, 10]):
        seq = [R.from_int(v) for v in xs_ints]
        prof = lipman_profile(M, seq, 2)
        for (i, n), m in prof.entries.items():
            xs = xs_ints[: i - 1]
            y = xs_ints[i - 1]
            assert brute_colon_condition(modulus, xs, y, n, m)
            if m > n:
                assert not brute_colon_condition(modulus, xs, y, n, m - 1)


def brute_gm_condition(modulus, xs, y, n, m):
    """Enumeration oracle for the ideal-power inclusion over Z/mod."""
    ring = range(modulus)

    def ideal_power_set(e):
        # the ideal (xs)^e: additive span of e-fold products of generators
        if not xs:
            return {0}
        gens = {0}
        prods = {1}
        for _ in range(e):
            prods = {(p * x) % modulus for p in prods for x in xs}
        span = {0}
        frontier = list(prods)
        while frontier:
            cur = frontier.pop()
            for s in list(span):
                v = (s + cur) % modulus
                if v not in span:
                    span.add(v)
                    frontier.append(v)
        # close under ring multiplication
        closed = {(r * s) % modulus for r in ring for s in span}
        full = set()
        frontier = list(closed)
        while frontier:
            cur = frontier.pop()
            if cur in full:
                continue
            full.add(cur)
            for s in list(full):
                v = (s + cur) % modulus
                if v not in full:
                    frontier.append(v)
        return full

    Nm = ideal_power_set(m)
    Nn = ideal_power_set(n)
    ym = pow(y, m, modulus)
    ymn = pow(y, m - n, modulus)
    left = {r for r in ring if (ym * r) % modulus in Nm}
    right = {r for r in ring if (ymn * r) % modulus in Nn}
    return left <= right


def test_gm_profile_against_enumeration():
    modulus = 12
    R = zmod(modulus)
    M = ring_as_module(R)
    for xs_ints in ([2, 3], [3, 2], [2, 6]):
        seq = [R.from_int(v) for v in xs_ints]
        prof = gm_profile(M, seq, 2)
        for (i, n), m in prof.entries.items():
            xs = xs_ints[: i - 1]
            y = xs_ints[i - 1]
            assert brute_gm_condition(modulus, xs, y, n, m)
            if m > n:
                assert not brute_gm_condition(modulus, xs, y, n, m - 1)


def test_pro_zero_against_annihilator_arithmetic():
    # for one element, the transition H_1(x^m) -> H_1(x^n) is zero exactly
    # when x^{m-n} kills the annihilator of x^m: enumeration oracle
    from prokit.complexes import KoszulTower, pro_zero_index

    for modulus in (8, 12, 16, 18):
        R = zmod(modulus)
        M = ring_as_module(R)
        for xv in range(2, modulus):
            x = R.from_int(xv)
            got = pro_zero_index(KoszulTower([x], M), 1, 1, 20)
            expected = None
            for m in range(1, 21):
                ann = {r for r in range(modulus) if (pow(xv, m, modulus) * r) % modulus == 0}
                if all((pow(xv, m - 1, modulus) * r) % modulus == 0 for r in ann):
                    expected = m
                    break
            assert got == expected, (modulus, xv, got, expected)
