"""Koszul and Cech complexes, transitions, inverse systems, identifications."""

import pytest

from prokit.errors import NotStabilized
from prokit.intlinalg import GroupHom
from prokit.modules import (
    ModuleHom,
    adic_completion,
    generated_submodule,
    modules_isomorphic,
    power_image,
    quotient_module,
    ring_as_module,
    submodule_module,
    torsion_submodule,
)
from prokit.complexes import (
    InverseSystem,
    KoszulTower,
    cech_cohomology,
    cech_homology,
    cech_tor_compare,
    colon_identification,
    complex_homology,
    koszul_complex,
    koszul_transition,
    pro_zero_index,
    stable_limit,
)
from prokit.rings import ideal, truncated_two_power, zmod
from prokit.modules import cyclic_quotient_module


def test_koszul_single_element_z8():
    R = zmod(8)
    M = ring_as_module(R)
    kos = koszul_complex([R.from_int(2)], M)
    h1 = complex_homology(kos.complex, 1)
    h0 = complex_homology(kos.complex, 0)
    assert h1.order() == 2   # 0 : 2 = {0, 4}
    assert h0.order() == 2   # Z/8 / 2 Z/8


def test_koszul_unit_kills_homology():
    R = zmod(8)
    M = ring_as_module(R)
    kos = koszul_complex([R.from_int(3)], M)
    assert complex_homology(kos.complex, 0).is_zero_module()
    assert complex_homology(kos.complex, 1).is_zero_module()


def test_koszul_two_elements_z4():
    R = zmod(4)
    M = ring_as_module(R)
    two = R.from_int(2)
    kos = koszul_complex([two, two], M)
    assert complex_homology(kos.complex, 0).order() == 2
    assert complex_homology(kos.complex, 1).order() == 4
    assert complex_homology(kos.complex, 2).order() == 2


def test_koszul_h0_and_top_match_direct_computations():
    R = zmod(12)
    M = ring_as_module(R)
    xs = [R.from_int(2), R.from_int(3)]
    kos = koszul_complex(xs, M)
    # H_0 = M / (x1, x2) M
    h0 = complex_homology(kos.complex, 0)
    quot, _ = quotient_module(M, generated_submodule(M, [M.act(x, g) for x in xs for g in M.generators()]))
    assert modules_isomorphic(h0, quot)
    # H_k = joint annihilator
    hk = complex_homology(kos.complex, 2)
    from prokit.modules import colon_submodule, intersect_spans, Submodule

    zero = generated_submodule(M, [])
    ann = intersect_spans(
        M.group,
        colon_submodule(M, zero, xs[0], 1).span,
        colon_submodule(M, zero, xs[1], 1).span,
    )
    ann_mod, _ = submodule_module(M, Submodule(M, ann))
    assert modules_isomorphic(hk, ann_mod)


def test_koszul_transition_identity_and_nilpotent():
    R = zmod(8)
    M = ring_as_module(R)
    x = [R.from_int(2)]
    cmap, src, tgt = koszul_transition(x, 1, 1, M)
    assert cmap.component(1).hom.equals_map(GroupHom.identity(src.packs[1][0].group))
    # m=4, n=1: multiplication by 2^3 = 0 on Z/8
    cmap2, _, _ = koszul_transition(x, 4, 1, M)
    assert cmap2.component(1).is_zero_map()


def test_koszul_transition_functorial():
    R = zmod(12)
    M = ring_as_module(R)
    xs = [R.from_int(2), R.from_int(6)]
    tower = KoszulTower(xs, M)
    direct = tower.transition(4, 1)
    step = tower.transition(2, 1)
    step2 = tower.transition(4, 2)
    for j in range(3):
        lhs = direct.component(j).hom
        rhs = step.component(j).hom.compose(step2.component(j).hom)
        assert lhs.equals_map(rhs)


def test_pro_zero_index_examples():
    R = zmod(8)
    M = ring_as_module(R)
    assert pro_zero_index([R.from_int(2)], M, 1, 1, 10) == 4
    assert pro_zero_index([R.from_int(3)], M, 1, 1, 10) == 1
    Rt, x, one = truncated_two_power(3)
    Mt = ring_as_module(Rt)
    assert pro_zero_index([x], Mt, 1, 1, 10) == 4


def test_pro_zero_inconclusive_is_none():
    R = zmod(8)
    M = ring_as_module(R)
    assert pro_zero_index([R.from_int(2)], M, 1, 1, 2) is None


def test_colon_identification_z8():
    R = zmod(8)
    M = ring_as_module(R)
    witness, ok = colon_identification([R.from_int(4)], R.from_int(2), 1, M)
    assert ok
    assert witness["colon_quotient_order"] == 2
    assert witness["koszul_h1_order"] == 2
    assert all(sq["commutes"] for sq in witness["squares"])


def test_colon_identification_unit_colon():
    R = zmod(8)
    M = ring_as_module(R)
    witness, ok = colon_identification([R.from_int(2)], R.one(), 1, M)
    assert ok
    assert witness["colon_quotient_order"] == 1


def test_colon_identification_unit_y():
    R = zmod(8)
    M = ring_as_module(R)
    witness, ok = colon_identification([R.from_int(2)], R.from_int(3), 1, M)
    assert ok
    assert witness["colon_quotient_order"] == 1


def test_cech_cohomology_z12():
    R = zmod(12)
    M = ring_as_module(R)
    x = [R.from_int(2)]
    h0 = cech_cohomology(x, M, 0)
    assert h0.order() == 4
    gamma, _ = submodule_module(M, torsion_submodule(M, ideal(R, x)))
    assert modules_isomorphic(h0, gamma)
    assert cech_cohomology(x, M, 1).is_zero_module()


def test_cech_cohomology_unit_vanishes():
    R = zmod(12)
    M = ring_as_module(R)
    x = [R.from_int(7)]
    assert cech_cohomology(x, M, 0).is_zero_module()
    assert cech_cohomology(x, M, 1).is_zero_module()


def test_cech_two_elements_vanishing():
    R = zmod(12)
    M = ring_as_module(R)
    xs = [R.from_int(2), R.from_int(3)]
    assert cech_cohomology(xs, M, 1).is_zero_module()
    assert cech_cohomology(xs, M, 2).is_zero_module()
    h0 = cech_cohomology(xs, M, 0)
    gamma, _ = submodule_module(M, torsion_submodule(M, ideal(R, xs)))
    assert modules_isomorphic(h0, gamma)


def test_stable_limit_constant_system():
    R = zmod(12)
    M = ring_as_module(R)
    ident = ModuleHom(M, M, GroupHom.identity(M.group))
    system = InverseSystem([M] * 4, [ident] * 3)
    assert system.verify_functoriality()
    limit, s = stable_limit(system)
    assert limit.order() == 12
    assert s == 1


def test_stable_limit_needs_enough_indices():
    R = zmod(12)
    M = ring_as_module(R)
    ident = ModuleHom(M, M, GroupHom.identity(M.group))
    with pytest.raises(NotStabilized):
        stable_limit(InverseSystem([M, M], [ident]))


def test_stable_limit_annihilator_system_is_zero():
    # modules 0 : 2^n inside Z/8 with multiplication transitions
    R = zmod(8)
    M = ring_as_module(R)
    from prokit.modules import Submodule, colon_submodule, generated_submodule

    zero = generated_submodule(M, [])
    n_max = 6
    mods = []
    incls = []
    for n in range(1, n_max + 1):
        S, incl = submodule_module(M, colon_submodule(M, zero, R.from_int(2), n))
        mods.append(S)
        incls.append(incl)
    adj = []
    for n in range(1, n_max):
        src = mods[n]      # level n+1
        tgt = mods[n - 1]  # level n
        cols = []
        for j in range(src.group.rank):
            gen = src.group.element(tuple(1 if t == j else 0 for t in range(src.group.rank)))
            v = M.action_hom(R.from_int(2))(incls[n](gen))
            # classify in the target submodule copy
            from prokit.intlinalg import solve_hom

            pre = solve_hom(incls[n - 1].hom, v)
            cols.append(list(pre.coords))
        from prokit.intlinalg import IntMatrix

        mat = (
            IntMatrix.from_cols(cols, rows=tgt.group.rank)
            if cols
            else IntMatrix(tgt.group.rank, 0, [])
        )
        adj.append(ModuleHom(src, tgt, GroupHom(src.group, tgt.group, mat)))
    system = InverseSystem(mods, adj)
    limit, _ = stable_limit(system)
    assert limit.is_zero_module()


def test_stable_limit_completion_system():
    # modules Z/12 / 2^n Z/12 with projections: limit of order 4
    R = zmod(12)
    M = ring_as_module(R)
    n_max = 5
    mods = []
    projs = []
    for n in range(1, n_max + 1):
        Q, proj = quotient_module(M, power_image(M, [R.from_int(2)], [n]))
        mods.append(Q)
        projs.append(proj)
    adj = []
    for n in range(1, n_max):
        src, tgt = mods[n], mods[n - 1]
        cols = []
        from prokit.intlinalg import IntMatrix, solve_hom

        for j in range(src.group.rank):
            gen = src.group.element(tuple(1 if t == j else 0 for t in range(src.group.rank)))
            lift = solve_hom(projs[n].hom, gen)
            cols.append(list(projs[n - 1](lift).coords))
        mat = (
            IntMatrix.from_cols(cols, rows=tgt.group.rank)
            if cols
            else IntMatrix(tgt.group.rank, 0, [])
        )
        adj.append(ModuleHom(src, tgt, GroupHom(src.group, tgt.group, mat)))
    system = InverseSystem(mods, adj)
    assert system.verify_functoriality()
    limit, _ = stable_limit(system)
    assert limit.order() == 4


def test_cech_homology_degree0_is_completion():
    R = zmod(12)
    M = ring_as_module(R)
    x = [R.from_int(2)]
    h0 = cech_homology(x, M, 0)
    lam, _ = adic_completion(M, ideal(R, x))
    assert modules_isomorphic(h0, lam)
    assert h0.order() == 4


def test_cech_homology_higher_vanishes():
    R = zmod(8)
    M = ring_as_module(R)
    assert cech_homology([R.from_int(2)], M, 1).is_zero_module()


def test_cech_homology_retry_keeps_levels(monkeypatch):
    # over Z/2 x Z/4 x Z/8 four levels do not stabilize; the retry at eight
    # levels extends the first four instead of building them again
    import prokit.complexes as cx

    calls = []
    real = cx.koszul_complex

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cx, "koszul_complex", counting)
    R, x, _ = truncated_two_power(3)
    assert cech_homology([x], ring_as_module(R), 1).is_zero_module()
    assert len(calls) == 8


def test_cech_homology_unit():
    R = zmod(12)
    M = ring_as_module(R)
    one = [R.one()]
    assert cech_homology(one, M, 0).is_zero_module()
    assert cech_homology(one, M, 1).is_zero_module()


def test_cech_tor_compare_free_target():
    R = zmod(12)
    M = ring_as_module(R)
    N = ring_as_module(R)
    lhs, rhs, ok = cech_tor_compare(M, N, [R.from_int(2)], 0, 2)
    assert ok
    lam, _ = adic_completion(M, ideal(R, [R.from_int(2)]))
    assert modules_isomorphic(lhs, lam)


def test_cech_tor_compare_degree0_and_1():
    R = zmod(12)
    M = ring_as_module(R)
    N = cyclic_quotient_module(R, ideal(R, [R.from_int(2)]))
    for i in (0, 1):
        lhs, rhs, ok = cech_tor_compare(M, N, [R.from_int(2)], i, i + 2)
        assert ok, i


def test_cech_tor_compare_z8():
    R = zmod(8)
    M = ring_as_module(R)
    N = cyclic_quotient_module(R, ideal(R, [R.from_int(2)]))
    for i in (0, 1):
        lhs, rhs, ok = cech_tor_compare(M, N, [R.from_int(2)], i, i + 2)
        assert ok, i


def test_koszul_transition_degree2_multiplier():
    # on a two-element sequence the top-degree component multiplies by x1*x2
    R = zmod(12)
    M = ring_as_module(R)
    xs = [R.from_int(2), R.from_int(3)]
    cmap, src, tgt = koszul_transition(xs, 2, 1, M)
    expected = M.action_hom(xs[0] * xs[1])
    # the degree-2 packs hold a single block, so the component is the action
    comp = cmap.component(2).hom
    inj = tgt.packs[2][1][0].hom
    proj = src.packs[2][2][0].hom
    assert comp.equals_map(inj.compose(expected).compose(proj))


def test_zero_complex_homology():
    from prokit.complexes import ChainComplex
    from prokit.modules import zero_module

    R = zmod(4)
    C = ChainComplex({0: zero_module(R)}, {})
    assert complex_homology(C, 0).is_zero_module()
