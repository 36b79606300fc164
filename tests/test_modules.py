"""Module functors: submodules, colon, torsion, duality, Hom/tensor, Tor/Ext."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest

from prokit.errors import AxiomViolation, DimensionMismatch, InvalidSpec
from prokit.intlinalg import (
    FinAbGroup,
    GroupElement,
    GroupHom,
    IntMatrix,
    cokernel_presentation,
    hom_image_span,
    hom_kernel_span,
    linear_combination,
    span_contains,
    span_lattice,
    span_subgroup_order,
)
from prokit.randgen import rng_from_seed
from prokit.rings import (
    RingElement,
    ideal,
    product_ring,
    stable_idempotent,
    truncated_polynomial,
    truncated_two_power,
    zero_ring,
    zmod,
)
from prokit.modules import (
    FgModule,
    ModuleHom,
    _free_map_from_images,
    _greedy_generators,
    adic_completion,
    block_hom,
    colon_submodule,
    free_module,
    free_resolution,
    generated_submodule,
    is_divisible,
    local_cohomology,
    matlis_dual,
    module_fingerprint,
    module_from_presentation,
    module_power,
    modules_isomorphic,
    power_image,
    quotient_module,
    ring_as_module,
    span_closure,
    span_generators,
    submodule_module,
    torsion_by_colon_ascent,
    torsion_submodule,
    zero_module,
)
from prokit.complexes import cech_cohomology, cech_homology
from complex_reference import (
    composed_block_hom,
    cyclic_quotient_module,
    derived_functor,
    hom_module,
    hom_module_data,
    power_pack,
)
from test_analysis import ideal_power_image
from random_instances import random_instance, random_module, random_ring


def brute_subgroup(M, predicate):
    return {m.coords for m in M.group.elements() if predicate(m)}


def submodule_set(S):
    seen = {S.parent.zero().coords}
    frontier = [S.parent.zero()]
    gens = S.span_elements()
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur + g
            if nxt.coords not in seen:
                seen.add(nxt.coords)
                frontier.append(nxt)
    return seen


def test_ring_as_module_and_generators():
    R = zmod(12)
    M = ring_as_module(R)
    assert M.order() == 12
    assert M.validate() == []
    gens = span_generators(M, M.full_span())
    assert len(gens) == 1


def test_module_from_presentation_z4_mod_2():
    R = zmod(4)
    M, _, _ = module_from_presentation(R, 1, [[R.from_int(2)]])
    assert M.order() == 2
    two = R.from_int(2)
    assert M.action_hom(two).is_zero_map()


def test_module_from_presentation_free_and_zero():
    R = zmod(6)
    M, _, _ = module_from_presentation(R, 1, [])
    assert M.order() == 6
    Z, _, _ = module_from_presentation(R, 1, [[R.from_int(5)]])  # unit relation
    assert Z.is_zero_module()


def test_generated_submodule_examples():
    R = zmod(12)
    M = ring_as_module(R)
    S = generated_submodule(M, [M.element((2,))])
    assert submodule_set(S) == {(k,) for k in range(0, 12, 2)}
    S1 = generated_submodule(M, [M.element((1,))])
    assert S1.order() == M.order()
    R6 = zmod(6)
    M6 = ring_as_module(R6)
    S2 = generated_submodule(M6, [M6.element((2,)), M6.element((3,))])
    assert S2.order() == M6.order()


def test_inclusion_chain_power_species():
    # x^{nk} M <= x^{(n)} M <= x^n M for the three submodule species
    R = zmod(12)
    M = ring_as_module(R)
    xs = [R.from_int(2), R.from_int(3)]
    k = len(xs)
    I = ideal(R, xs)
    for n in (1, 2, 3):
        low = ideal_power_image(M, I, n * k)
        mid = power_image(M, xs, [n] * k)
        high = ideal_power_image(M, I, n)
        assert low.leq(mid)
        assert mid.leq(high)


def test_colon_submodule_examples():
    R = zmod(8)
    M = ring_as_module(R)
    four_m = power_image(M, [R.from_int(4)], [1])
    col = colon_submodule(M, four_m, R.from_int(2), 1)
    assert submodule_set(col) == {(0,), (2,), (4,), (6,)}
    n_again = colon_submodule(M, four_m, R.one(), 1)
    assert n_again == four_m
    zero = generated_submodule(M, [])
    allm = colon_submodule(M, zero, R.from_int(2), 3)
    assert allm.order() == M.order()


def test_colon_monotone_and_no_plateau():
    R = zmod(8)
    M = ring_as_module(R)
    zero = generated_submodule(M, [])
    x = R.from_int(2)
    chain = [colon_submodule(M, zero, x, e) for e in range(6)]
    for a, b in zip(chain, chain[1:]):
        assert a.leq(b)
    # once two consecutive colons agree the chain is constant
    stable_at = next(i for i in range(5) if chain[i] == chain[i + 1])
    for j in range(stable_at, 5):
        assert chain[j] == chain[j + 1]


def test_torsion_submodule_examples():
    R = zmod(12)
    M = ring_as_module(R)
    G = torsion_submodule(M, ideal(R, [R.from_int(2)]))
    assert submodule_set(G) == {(0,), (3,), (6,), (9,)}
    G0 = torsion_submodule(M, ideal(R, [R.zero()]))
    assert G0.order() == M.order()
    G1 = torsion_submodule(M, ideal(R, [R.one()]))
    assert G1.is_zero()


def test_torsion_two_routes_agree():
    rings = [zmod(12), zmod(8), zmod(36)]
    for R in rings:
        M = ring_as_module(R)
        for k in range(R.order()):
            I = ideal(R, [R.from_int(k)])
            a = torsion_submodule(M, I)
            b = torsion_by_colon_ascent(M, I)
            assert a == b, (R.order(), k)


def test_is_divisible_examples():
    R6 = zmod(6)
    M6 = ring_as_module(R6)
    # quotient Z/6 -> Z/3: the image of 2 is a unit there
    three = generated_submodule(M6, [M6.element((3,))])
    Q, _ = quotient_module(M6, three)
    assert Q.order() == 3
    assert is_divisible(Q, R6.from_int(2))
    assert is_divisible(Q, R6.one())
    R8 = zmod(8)
    M8 = ring_as_module(R8)
    assert not is_divisible(M8, R8.from_int(2))


def test_matlis_dual_sizes_and_double_dual():
    R = zmod(12)
    M = ring_as_module(R)
    D = matlis_dual(M)
    assert D.order() == M.order()
    DD = matlis_dual(D)
    assert DD.group == M.group
    for a, b in zip(DD.actions, M.actions):
        assert a.equals_map(b)


def test_matlis_dual_of_small_module():
    R = zmod(4)
    M, _, _ = module_from_presentation(R, 1, [[R.from_int(2)]])
    D = matlis_dual(M)
    assert D.order() == 2


def dual_pairing(M, phi, m):
    """The Q/Z pairing of a dual element with a module element, as a
    Fraction reduced into [0, 1)."""
    d = M.group.invariant_factors
    total = Fraction(0)
    for c_phi, c_m, dj in zip(phi.coords, m.coords, d):
        total += Fraction(c_phi * c_m, dj)
    return total - (total.numerator // total.denominator)


def test_dual_pairing_nondegenerate():
    R = zmod(8)
    M = ring_as_module(R)
    D = matlis_dual(M)
    for phi in D.group.elements():
        if phi.is_zero():
            continue
        assert any(dual_pairing(M, phi, m) != 0 for m in M.group.elements())


def test_hom_module_examples():
    R = zmod(4)
    M2, _, _ = module_from_presentation(R, 1, [[R.from_int(2)]])
    RM = ring_as_module(R)
    H = hom_module(M2, RM)
    assert H.order() == 2
    H2 = hom_module(M2, M2)
    assert H2.order() == 2
    # Hom(R, M) is isomorphic to M
    HM = hom_module(RM, M2)
    assert modules_isomorphic(HM, M2)


def test_hom_module_encode_decode():
    R = zmod(4)
    M2, _, _ = module_from_presentation(R, 1, [[R.from_int(2)]])
    data = hom_module_data(M2, ring_as_module(R))
    for h in data.module.group.elements():
        f = data.to_group_hom(h)
        assert data.from_group_hom(f) == h
        # equivariance of every decoded hom
        assert ModuleHom(M2, ring_as_module(R), f).check_equivariance()


def adjunction_map(M):
    """The adjunction map psi: Hom_R(M, R^dual) -> M^dual, phi -> (m ->
    phi(m)(1)), as a ModuleHom out of the reference Hom module.  A dual
    element chi has coordinates d_j chi(e_j) on M's generators e_j of
    order d_j."""
    R = M.ring
    RM = ring_as_module(R)
    data = hom_module_data(M, matlis_dual(RM))
    H, D = data.module, matlis_dual(M)
    cols = []
    for h in H.generators():
        phi = data.to_group_hom(h)
        col = []
        for e, d in zip(M.generators(), M.group.invariant_factors):
            value = d * dual_pairing(RM, phi(e), R.one())
            assert value.denominator == 1
            col.append(value.numerator)
        cols.append(col)
    mat = IntMatrix.from_cols(cols, rows=D.group.rank) if cols else IntMatrix(D.group.rank, 0, [])
    return ModuleHom(H, D, GroupHom(H.group, D.group, mat))


def is_certified_isomorphism(f):
    """f is a well-defined R-linear map with zero kernel span and full
    image span: an isomorphism shown, not a fingerprint match."""
    return (
        f.hom.is_well_defined()
        and f.check_equivariance()
        and span_subgroup_order(f.source.group, hom_kernel_span(f.hom)) == 1
        and span_subgroup_order(f.target.group, hom_image_span(f.hom)) == f.target.order()
    )


def _adjunction_cases():
    # the draws of acceptance criterion 07 (the stream of criterion 05)
    rng = rng_from_seed(0xA005)
    for _ in range(100):
        yield random_instance(rng, k_max=3)[1]
    R = zmod(12)
    yield ring_as_module(R)
    yield cyclic_quotient_module(R, ideal(R, [R.from_int(4)]))
    yield zero_module(R)
    yield ring_as_module(zero_ring())


def test_hom_into_dual_is_matlis_dual():
    for M in _adjunction_cases():
        assert is_certified_isomorphism(adjunction_map(M))


def test_adjunction_certificate_refuses_a_non_bijective_map():
    # 2 psi is R-linear but kills the 2-torsion: only bijectivity refuses it
    R = zmod(12)
    for M in (ring_as_module(R), cyclic_quotient_module(R, ideal(R, [R.from_int(4)]))):
        psi = adjunction_map(M)
        two = psi.target.action_hom(R.from_int(2))
        doubled = ModuleHom(psi.source, psi.target, two.compose(psi.hom))
        assert doubled.check_equivariance()
        assert not is_certified_isomorphism(doubled)


# Tensor products: the runtime takes none, so the construction lives here
# with its tests (and `test_invariants`, `test_edge_cases` import it).


@dataclass(frozen=True)
class TensorData:
    """M tensor_R N presented by generator pairs modulo balancing."""

    module: FgModule
    left: FgModule
    right: FgModule
    _proj: IntMatrix
    _pair_moduli: tuple

    def pure(self, m, n):
        coords = [cm * cn for cm in m.coords for cn in n.coords]
        return self.module.element(self._proj.apply(tuple(coords))) if self.module.group.rank else self.module.zero()


def tensor_module_data(M, N):
    if M.ring != N.ring:
        raise DimensionMismatch("tensor of modules over different rings")
    R = M.ring
    a = M.group.invariant_factors
    b = N.group.invariant_factors
    s = M.group.rank
    r = N.group.rank
    nvars = s * r
    pair = tuple(gcd(a[j], b[k]) for j in range(s) for k in range(r))
    if nvars == 0:
        return TensorData(zero_module(R), M, N, IntMatrix(0, 0, []), pair)
    rel_cols = []
    for rho in range(R.rank):
        A = M.actions[rho].matrix
        B = N.actions[rho].matrix
        for j in range(s):
            for k in range(r):
                # (e_rho e_j) x f_k - e_j x (e_rho f_k)
                col = [0] * nvars
                for i in range(s):
                    col[i * r + k] += A[i, j]
                for l in range(r):
                    col[j * r + l] -= B[l, k]
                rel_cols.append(col)
    Rel = IntMatrix.from_cols(rel_cols, rows=nvars) if rel_cols else IntMatrix.zero(nvars, 0)
    G, P, S = cokernel_presentation(Rel, list(pair))
    lifts = S.cols_list()
    actions = []
    for rho in range(R.rank):
        A = M.actions[rho].matrix
        cols = []
        for w in lifts:
            v = [0] * nvars
            for i in range(s):
                for k in range(r):
                    v[i * r + k] = sum(A[i, j] * w[j * r + k] for j in range(s))
            cols.append(list(P.apply(tuple(v))))
        mat = IntMatrix.from_cols(cols, rows=G.rank) if cols else IntMatrix(G.rank, 0, [])
        actions.append(GroupHom(G, G, mat))
    module = FgModule(R, G, actions)
    return TensorData(module, M, N, P, pair)


def tensor_module(M, N):
    return tensor_module_data(M, N).module


def test_tensor_module_examples():
    R = zmod(4)
    RM = ring_as_module(R)
    M2, _, _ = module_from_presentation(R, 1, [[R.from_int(2)]])
    T = tensor_module(M2, RM)
    assert modules_isomorphic(T, M2)
    T2 = tensor_module(M2, M2)
    assert T2.order() == 2
    R12 = zmod(12)
    A = cyclic_quotient_module(R12, ideal(R12, [R12.from_int(2)]))   # Z/2
    B = cyclic_quotient_module(R12, ideal(R12, [R12.from_int(3)]))   # Z/3
    T3 = tensor_module(A, B)
    assert T3.is_zero_module()


def test_tensor_pure_bilinear():
    R = zmod(6)
    M = ring_as_module(R)
    data = tensor_module_data(M, M)
    a, b = M.element((2,)), M.element((3,))
    assert data.pure(a, b) == data.pure(M.element((1,)), M.element((6 * 6 + 6,))) or True
    # r(m x n) = (rm) x n = m x (rn)
    r = R.from_int(5)
    lhs = data.module.action_hom(r)(data.pure(a, b))
    assert lhs == data.pure(M.act(r, a), b)
    assert lhs == data.pure(a, M.act(r, b))


def test_free_resolution_of_ring_module():
    R = zmod(12)
    M = ring_as_module(R)
    res = free_resolution(M, 3)
    assert res.ranks == (1, 0, 0, 0)
    aug = res.augmentation()
    assert aug.check_equivariance()


def test_free_resolution_periodic():
    R = zmod(4)
    M, _, _ = module_from_presentation(R, 1, [[R.from_int(2)]])
    res = free_resolution(M, 3)
    assert res.ranks == (1, 1, 1, 1)
    # alternating multiplication-by-2 differentials
    for mat in res.ring_matrices:
        assert len(mat) == 1 and mat[0][0].coords == (2,)


def test_free_resolution_exactness():
    R = zmod(12)
    _assert_exact(free_resolution(cyclic_quotient_module(R, ideal(R, [R.from_int(4)])), 3))


def test_free_resolution_zero_module():
    R = zmod(4)
    Z, _, _ = module_from_presentation(R, 1, [[R.one()]])
    res = free_resolution(Z, 2)
    assert res.ranks == (0, 0, 0)


def test_derived_functor_examples():
    R = zmod(4)
    M2, _, _ = module_from_presentation(R, 1, [[R.from_int(2)]])
    tor0 = derived_functor("tor", M2, M2, 0)
    assert modules_isomorphic(tor0, tensor_module(M2, M2))
    tor1 = derived_functor("tor", M2, M2, 1)
    assert tor1.order() == 2
    ext1 = derived_functor("ext", M2, M2, 1)
    assert ext1.order() == 2
    ext0 = derived_functor("ext", M2, M2, 0)
    assert modules_isomorphic(ext0, hom_module(M2, M2))


def test_tor_of_free_vanishes():
    R = zmod(12)
    RM = ring_as_module(R)
    M = cyclic_quotient_module(R, ideal(R, [R.from_int(4)]))
    for i in (1, 2):
        assert derived_functor("tor", RM, M, i).is_zero_module()


def test_derived_independent_of_resolution_length():
    R = zmod(4)
    M2, _, _ = module_from_presentation(R, 1, [[R.from_int(2)]])
    a = derived_functor("tor", M2, M2, 1, resolution_length=2)
    b = derived_functor("tor", M2, M2, 1, resolution_length=4)
    assert modules_isomorphic(a, b)


def test_adic_completion_examples():
    R = zmod(12)
    M = ring_as_module(R)
    L, proj = adic_completion(M, ideal(R, [R.from_int(2)]))
    assert L.order() == 4
    assert proj.check_equivariance()
    L0, _ = adic_completion(M, ideal(R, [R.zero()]))
    assert L0.order() == 12
    R8 = zmod(8)
    M8 = ring_as_module(R8)
    L8, _ = adic_completion(M8, ideal(R8, [R8.from_int(2)]))
    assert L8.order() == 8


def test_completion_torsion_same_idempotent():
    # multiplication by e maps M onto eM with kernel 0:e, so |M/eM| = |0:e|
    R = zmod(12)
    M = ring_as_module(R)
    I = ideal(R, [R.from_int(2)])
    L, _ = adic_completion(M, I)
    G = torsion_submodule(M, I)
    assert L.order() == G.order()
    L2, _ = adic_completion(L, I)
    assert modules_isomorphic(L2, L)


def test_local_cohomology_examples():
    R = zmod(12)
    M = ring_as_module(R)
    I = ideal(R, [R.from_int(2)])
    h0 = local_cohomology(M, I, 0)
    assert h0.order() == 4
    assert modules_isomorphic(h0, submodule_module(M, torsion_submodule(M, I))[0])
    h1 = local_cohomology(M, I, 1)
    assert h1.is_zero_module()
    with pytest.raises(AxiomViolation, match="negative cohomological degree"):
        local_cohomology(M, I, -1)
    # the unit ideal has e = 1, so every degree vanishes, degree 0 included
    unit = ideal(R, [R.one()])
    for i in (0, 1, 2):
        assert local_cohomology(M, unit, i).is_zero_module()
    # the zero ideal has e = 0, so H^0 is all of M
    assert local_cohomology(M, ideal(R, [R.zero()]), 0).order() == M.order()
    assert local_cohomology(M, ideal(R, [R.zero()]), 1).is_zero_module()
    Z = zero_ring()
    for N, J in ((ring_as_module(Z), ideal(Z, [Z.one()])), (zero_module(R), I)):
        for i in (0, 1, 2):
            assert local_cohomology(N, J, i).is_zero_module()



def _ext_route_agrees(M, I, k):
    """Ext^i(R/eR, M) through a free resolution, the route local_cohomology
    no longer takes: zero for 1 <= i <= k, and (1 - e)M in degree 0."""
    R = M.ring
    Q = cyclic_quotient_module(R, ideal(R, [stable_idempotent(I)]))
    for i in range(1, k + 1):
        if not derived_functor("ext", Q, M, i).is_zero_module():
            return False
    ext0, lc0 = derived_functor("ext", Q, M, 0), local_cohomology(M, I, 0)
    return (
        ext0.group.invariant_factors == lc0.group.invariant_factors
        and modules_isomorphic(ext0, lc0)
    )


def test_local_cohomology_matches_ext_route():
    # the draws of acceptance criterion 06, then the degenerate inputs
    rng = rng_from_seed(0xA006)
    for _ in range(100):
        R, M, seq = random_instance(rng, k_max=3)
        assert _ext_route_agrees(M, ideal(R, list(seq)), len(seq)), (R, seq)
    R, Z = zmod(12), zero_ring()
    two = ideal(R, [R.from_int(2)])
    assert _ext_route_agrees(ring_as_module(Z), ideal(Z, [Z.one()]), 2)
    assert _ext_route_agrees(zero_module(R), two, 2)
    assert _ext_route_agrees(ring_as_module(R), ideal(R, [R.one()]), 2)
    assert _ext_route_agrees(ring_as_module(R), ideal(R, []), 2)


def _fingerprints_agree(A, B):
    """The comparison `modules_isomorphic` made before equal modules were
    decided by the identity: fingerprints alone."""
    return module_fingerprint(A) == module_fingerprint(B)


def _conjugated(M, i, j, c):
    """M presented in the basis g_j + c g_i (i < j, so d_i | d_j and the
    change of basis P = 1 + c E_ij is an automorphism): P^-1 A P for each
    action A, reduced modulo the factors."""
    n, facs = M.group.rank, M.group.invariant_factors

    def shear(t):
        return IntMatrix.from_rows(
            [[int(r == k) + t * (r == i and k == j) for k in range(n)] for r in range(n)]
        )

    P, P_inv = shear(c), shear(-c)
    actions = []
    for A in M.actions:
        rows = (P_inv * A.matrix * P).rows_list()
        reduced = [[e % facs[r] for e in row] for r, row in enumerate(rows)]
        actions.append(GroupHom(M.group, M.group, IntMatrix.from_rows(reduced)))
    return FgModule(M.ring, M.group, actions)


def _comparison_corpus():
    """Seeded pairs of modules over one ring: the comparisons of the
    criterion-06 battery and the Ext route on its draws (equal modules,
    bar one Ext-route pair), each drawn module against a conjugated
    presentation of itself, and non-isomorphic modules with equal
    invariant factors."""
    rng = rng_from_seed(0xA006)
    for _ in range(100):
        R, M, seq = random_instance(rng, k_max=3)
        I = ideal(R, list(seq))
        h0 = cech_cohomology(list(seq), M, 0)
        gamma, _ = submodule_module(M, torsion_submodule(M, I))
        lc0 = local_cohomology(M, I, 0)
        Q = cyclic_quotient_module(R, ideal(R, [stable_idempotent(I)]))
        yield from ((h0, gamma), (h0, lc0), (derived_functor("ext", Q, M, 0), lc0))
        yield cech_homology(list(seq), M, 0), adic_completion(M, I)[0]
        if M.group.rank >= 2:
            yield M, _conjugated(M, 0, M.group.rank - 1, rng.randint(1, 3))
    # F_2[t]/t^2 against k^2 (t acts as 0): both of group Z/2 + Z/2
    T, t = truncated_polynomial(2, 2)
    k = cyclic_quotient_module(T, ideal(T, [t]))
    yield ring_as_module(T), module_power(k, 2).module
    # the residue fields of the three local factors of Z/2 x Z/4 x Z/8: all
    # of group Z/2, each killed by the idempotents of the other two factors
    factors = [zmod(2), zmod(4), zmod(8)]
    W, embed = product_ring(factors)

    def residue(a):
        u = embed([F.from_int(2 if b == a else 1) for b, F in enumerate(factors)])
        return cyclic_quotient_module(W, ideal(W, [u]))

    for a, b in itertools.combinations(range(3), 2):
        yield residue(a), residue(b)


def test_modules_isomorphic_matches_the_fingerprint_comparison():
    # equal modules are decided by the identity, every other pair by the
    # fingerprints, so the answer is the fingerprint comparison's throughout
    kinds = {"equal": 0, "presented differently": 0, "not isomorphic": 0}
    for A, B in _comparison_corpus():
        assert modules_isomorphic(A, B) == _fingerprints_agree(A, B), (A, B)
        if A == B:
            kinds["equal"] += 1
        elif _fingerprints_agree(A, B):
            kinds["presented differently"] += 1
        else:
            assert A.group == B.group, (A, B)
            kinds["not isomorphic"] += 1
    assert kinds["equal"] >= 400
    assert kinds["presented differently"] >= 10
    assert kinds["not isomorphic"] == 4


def test_equal_modules_compute_no_fingerprint(monkeypatch):
    import prokit.modules as md

    calls = []
    real = md.module_fingerprint
    monkeypatch.setattr(md, "module_fingerprint", lambda M: calls.append(M) or real(M))
    R = zmod(12)
    M = ring_as_module(R)
    assert modules_isomorphic(M, ring_as_module(R)) and calls == []
    two = ideal(R, [R.from_int(2)])
    assert modules_isomorphic(local_cohomology(M, two, 0), local_cohomology(M, two, 0))
    assert calls == []
    assert not modules_isomorphic(M, cyclic_quotient_module(R, two))
    assert len(calls) == 2


def _span_closure_by_rounds(M, vectors):
    """The round-by-round closure span_closure ran before: apply every action
    to every span column, keep the images outside the span, repeat."""
    span = span_lattice(M.group, vectors)
    while True:
        images = [
            M.group.reduce(A.matrix.apply(M.group.reduce(tuple(c))))
            for c in span.cols_list()
            for A in M.actions
        ]
        new = [v for v in images if not span_contains(M.group, span, v)]
        if not new:
            return span
        span = span_lattice(M.group, span.cols_list() + new)


def test_span_closure_matches_round_by_round_closure():
    # rings of rank >= 2, where the additive span of a vector is rarely closed
    rng = random.Random(0x5C10)
    cases = []
    while len(cases) < 40:
        R, _ = random_ring(rng)
        if R.rank < 2:
            continue
        M = rng.choice(
            [ring_as_module(R), random_module(rng, R), module_power(ring_as_module(R), 2).module]
        )
        vectors = [
            tuple(rng.randrange(d) for d in M.group.invariant_factors)
            for _ in range(rng.randint(1, 2))
        ]
        cases.append((M, vectors))
    cases.append((ring_as_module(zero_ring()), []))
    cases.append((zero_module(zmod(12)), []))
    cases.append((zero_module(zmod(12)), [()]))
    for M, vectors in cases:
        assert span_closure(M, vectors) == _span_closure_by_rounds(M, vectors)


def _acceptance_11_draws():
    """The (M, N) pairs of acceptance criterion 11, drawn the same way."""
    rng = rng_from_seed(0xA011)
    for _ in range(20):
        R, M, _ = random_instance(rng, k_max=2, module_order=64)
        yield M, ring_as_module(R) if rng.random() < 0.4 else M


def _free_map_by_action_homs(F_src, tgt_module, images):
    """The free-map construction before: one assembled action hom per ring
    coordinate, applied to one image."""
    cols = []
    for gen in F_src.module.generators():
        acc = tgt_module.zero()
        for r, image in zip(F_src.coords(gen), images):
            acc = acc + tgt_module.action_hom(tgt_module.ring.element(r))(image)
        cols.append(acc.coords)
    mat = IntMatrix.from_cols(cols, rows=tgt_module.group.rank)
    return GroupHom(F_src.module.group, tgt_module.group, mat)


def test_free_resolution_maps_match_action_hom_construction():
    for _, N in _acceptance_11_draws():
        res = free_resolution(N, 3)
        # generator images: the module generators, then each kernel
        # generator rebuilt from its ring coordinates
        images = [span_generators(N, N.full_span())]
        images += [[F.element(col) for col in cols] for F, cols in zip(res.frees, res.ring_matrices)]
        targets = [N] + [F.module for F in res.frees[:-1]]
        for F, tgt, imgs, hom in zip(res.frees, targets, images, res.group_homs):
            assert hom.equals_map(_free_map_by_action_homs(F, tgt, imgs))


def _projections(R, s):
    return power_pack(module_power(ring_as_module(R), s))[2]


def _coords_by_projections(R, projs, m):
    """Ring coordinates as decoded before: one projection hom per copy."""
    return tuple(RingElement(R, p(m).coords) for p in projs)


def _free_map_by_projections(F_src, projs, tgt_module, images):
    """The free map as built before: every generator decoded by the
    projections, then a linear combination over all image products."""
    products = [A.matrix.apply(img.coords) for img in images for A in tgt_module.actions]
    cols = []
    for gen in F_src.module.generators():
        coeffs = [c for r in _coords_by_projections(tgt_module.ring, projs, gen) for c in r.coords]
        cols.append(tgt_module.group.reduce(linear_combination(coeffs, products)))
    mat = IntMatrix.from_cols(cols, rows=tgt_module.group.rank)
    return GroupHom(F_src.module.group, tgt_module.group, mat)


def _free_coords_rings():
    return [
        zmod(12),
        product_ring([zmod(2), zmod(4), zmod(8)])[0],
        truncated_polynomial(2, 3)[0],
    ]


def test_free_module_coords_match_projection_decoding():
    # coords reads each copy at its positions and reduces into R's factors;
    # elements are unreduced and negative on purpose
    rng = random.Random(0xF4EE)
    for R in _free_coords_rings():
        for s in range(5):
            F = free_module(R, s)
            _, injs, projs = power_pack(module_power(ring_as_module(R), s))
            top = 3 * max(F.module.group.invariant_factors, default=1)
            for _ in range(20):
                raw = tuple(rng.randint(-top, top) for _ in range(F.module.group.rank))
                m = GroupElement(F.module.group, raw)
                decoded = _coords_by_projections(R, projs, m)
                assert F.coords(m) == tuple(r.coords for r in decoded), (R, s, raw)
                facs = R.additive.invariant_factors
                rs = [R.element([rng.randrange(d) for d in facs]) for _ in range(s)]
                acc = F.module.zero()
                for inj, r in zip(injs, rs):
                    acc = acc + inj(r.as_group_element())
                assert F.element(rs) == acc


def _free_resolution_by_projections(M, length):
    """`free_resolution` as built before, with projection decoding; returns
    (ring matrices, group homs)."""
    R = M.ring
    gens = span_generators(M, M.full_span())
    frees = [free_module(R, len(gens))]
    projs = [_projections(R, len(gens))]
    homs = [_free_map_by_projections(frees[0], projs[0], M, gens)]
    ring_mats = []
    for _ in range(length):
        ker_gens = span_generators(frees[-1].module, hom_kernel_span(homs[-1]))
        ring_mats.append(tuple(_coords_by_projections(R, projs[-1], v) for v in ker_gens))
        frees.append(free_module(R, len(ker_gens)))
        projs.append(_projections(R, len(ker_gens)))
        homs.append(_free_map_by_projections(frees[-1], projs[-1], frees[-2].module, ker_gens))
    return tuple(ring_mats), homs


def test_free_resolution_matches_projection_decoding():
    for M, N in _acceptance_11_draws():
        for mod in (M, N):
            res = free_resolution(mod, 3)
            ring_mats, homs = _free_resolution_by_projections(mod, 3)
            assert res.ring_matrices == ring_mats
            assert [h.matrix for h in res.group_homs] == [h.matrix for h in homs]


def _greedy_by_full_closure(M, pool, target):
    """The greedy loop before: the whole chosen set closed again at each
    step."""
    chosen, span = [], M.zero_span()
    for g in pool:
        if span == target:
            break
        if not span_contains(M.group, span, g.coords):
            chosen.append(g)
            span = span_closure(M, span.cols_list() + [g.coords])
    return chosen, span


def _sum_first_pool(X, span):
    """The pool of `span_generators`: the sum of the span's nonzero columns,
    then those columns."""
    cols = [g for g in map(X.group.element, span.cols_list()) if not g.is_zero()]
    return [sum(cols[1:], cols[0])] + cols if cols else []


def test_greedy_generators_match_full_closure():
    for M, N in _acceptance_11_draws():
        res = free_resolution(N, 1)
        F0 = res.frees[0].module
        ker = hom_kernel_span(res.group_homs[0])
        cases = [(X, X.full_span()) for X in (M, N)] + [(F0, ker)]
        for X, target in cases:
            pool = _sum_first_pool(X, target)
            chosen, span = _greedy_generators(X, pool, target)
            assert (chosen, span) == _greedy_by_full_closure(X, pool, target)
            assert span == span_closure(X, [g.coords for g in chosen]) == target
            gens = span_generators(X, target)
            # the greedy pick, without its leading sum, or from the columns alone
            assert gens in (chosen, chosen[1:], _column_generators(X, target))
            assert span_closure(X, [g.coords for g in gens]) == target


def _column_generators(M, span):
    """The reference rule for kernels: the greedy pick from the span's
    nonzero columns alone, with no leading sum."""
    return _greedy_generators(M, _sum_first_pool(M, span)[1:], span)[0]


def _reference_resolution_ranks(M, length):
    """The ranks of a greedy resolution whose M generators come from the
    sum-first pool with no drop, and whose kernel generators come from
    `_column_generators`."""
    gens = _greedy_generators(M, _sum_first_pool(M, M.full_span()), M.full_span())[0]
    frees = [free_module(M.ring, len(gens))]
    hom = _free_map_from_images(frees[0], M, gens)
    for _ in range(length):
        ker_gens = _column_generators(frees[-1].module, hom_kernel_span(hom))
        frees.append(free_module(M.ring, len(ker_gens)))
        hom = _free_map_from_images(frees[-1], frees[-2].module, ker_gens)
    return tuple(F.rank for F in frees)


def _assert_exact(res):
    """The augmentation is onto with kernel im d_1, and ker d_i = im d_(i+1)."""
    M, homs = res.module, res.group_homs
    assert span_subgroup_order(M.group, hom_image_span(homs[0])) == M.order()
    for i in range(res.length):
        assert hom_kernel_span(homs[i]) == hom_image_span(homs[i + 1])
    for i in range(1, res.length + 1):
        assert res.differential(i).check_equivariance()


def test_span_generators_never_resolve_above_the_column_rule():
    # 303 draws of order at most 64, resolved to length 3
    rng = random.Random(0x5E4)
    total = reference = 0
    for _ in range(303):
        R, _ = random_ring(rng)
        M = random_module(rng, R, max_order=64)
        res = free_resolution(M, 3)
        ref = _reference_resolution_ranks(M, 3)
        assert all(a <= b for a, b in zip(res.ranks, ref)), (res.ranks, ref)
        _assert_exact(res)
        total, reference = total + sum(res.ranks), reference + sum(ref)
    assert total < reference


def test_order_two_modules_over_two_power_ring_resolve_cyclically():
    # the residue fields of Z/2 x Z/4 x Z/8, the modules of the heavy
    # Tor comparisons, found by seeded presentations
    R, _, _ = truncated_two_power(3)
    rng = random.Random(0x2B)
    found = {}
    while len(found) < 3:
        M = random_module(rng, R, max_order=2)
        if M.order() == 2 and M not in found:
            found[M] = _reference_resolution_ranks(M, 2)
            res = free_resolution(M, 2)
            assert res.ranks == (1, 1, 1)
            _assert_exact(res)
    # the column rule: (1, 2, 4) for the residue field of Z/2, (1, 3, 7)
    # for those of Z/4 and Z/8
    assert sorted(found.values()) == [(1, 2, 4), (1, 3, 7), (1, 3, 7)]


def test_hom_module_round_trip_on_seeded_draws():
    rng = random.Random(0x40E)
    for _ in range(12):
        R, _ = random_ring(rng)
        M, N = random_module(rng, R, max_order=64), random_module(rng, R, max_order=64)
        data = hom_module_data(M, N)
        H = data.module
        for h in itertools.islice(H.group.elements(), 24):
            f = data.to_group_hom(h)
            assert f.is_well_defined()
            assert ModuleHom(M, N, f).check_equivariance()
            assert data.from_group_hom(f) == h
        # the action of basis element k on Hom is composition with N's action
        for A, B in zip(H.actions, N.actions):
            for h in H.generators():
                assert data.to_group_hom(A(h)).equals_map(B.compose(data.to_group_hom(h)))


def test_truncated_two_power_annihilator_chain():
    R, x, _ = truncated_two_power(3)
    M = ring_as_module(R)
    zero = generated_submodule(M, [])
    # 0 : x^m strictly grows until m = 3 (the family law c(N) = N)
    prev = None
    orders = []
    for m in range(5):
        col = colon_submodule(M, zero, x, m)
        orders.append(col.order())
    assert orders[3] == orders[4] == R.order()
    assert orders[0] < orders[1] < orders[2] < orders[3]


# ---------------------------------------------------------------------------
# Direct-sum assembly


def direct_sum_groups(groups):
    """Direct sum in canonical form through a cokernel presentation of the
    concatenated factors: the reference for `module_power`'s layout.
    Returns (G, injections, projections)."""
    orders = [d for g in groups for d in g.invariant_factors]
    n = len(orders)
    G, P, S = cokernel_presentation(IntMatrix.zero(n, 0), orders)
    injections = []
    projections = []
    offset = 0
    for g in groups:
        r = g.rank
        # injection: old generator -> its row block image under P
        inj_cols = []
        for j in range(r):
            vec = [0] * n
            vec[offset + j] = 1
            inj_cols.append(list(P.apply(tuple(vec))))
        inj = GroupHom(
            g, G, IntMatrix.from_cols(inj_cols, rows=G.rank) if inj_cols else IntMatrix(G.rank, 0, [])
        )
        # projection: canonical generator -> section -> block coordinates
        proj_rows = [list(S.row(offset + j)) for j in range(r)]
        proj = GroupHom(
            G, g, IntMatrix.from_rows(proj_rows) if proj_rows else IntMatrix(0, G.rank, [])
        )
        injections.append(inj)
        projections.append(proj)
        offset += r
    return G, injections, projections


def test_direct_sum_groups():
    A = FinAbGroup((2,))
    B = FinAbGroup((3,))
    G, injs, projs = direct_sum_groups([A, B])
    assert G.order() == 6
    a = injs[0](A.element((1,)))
    b = injs[1](B.element((1,)))
    assert projs[0](a) == A.element((1,))
    assert projs[1](a).is_zero()
    assert projs[1](b) == B.element((1,))
    assert not (a + b).is_zero()


def _presented(modulus, relations, factors):
    R = zmod(modulus)
    rels = [[R.from_int(c) for c in rel] for rel in relations]
    N, _, _ = module_from_presentation(R, len(factors), rels)
    assert N.group.invariant_factors == factors
    return N


POWER_BASES = {
    "2-4-8": (8, [[2, 0, 0], [0, 4, 0]], (2, 4, 8)),
    "2-4-4": (4, [[2, 0, 0]], (2, 4, 4)),  # equal factors: selection order matters
}


@pytest.mark.parametrize("base", sorted(POWER_BASES))
@pytest.mark.parametrize("s", [0, 1, 3])
def test_module_power_is_a_permutation_layout(base, s):
    N = _presented(*POWER_BASES[base])
    P = module_power(N, s)
    assert P.base is N and P.rank == s
    if s == 0:
        assert P.module.is_zero_module() and P.positions == ()
        return
    # every generator of the power is one generator of one copy
    slots = sorted(p for pos in P.positions for p in pos)
    assert slots == list(range(P.module.group.rank))
    for pos in P.positions:
        assert [P.module.group.invariant_factors[p] for p in pos] == list(N.group.invariant_factors)
    # the maps read off the positions are the canonical direct sum's
    G, injs, projs = power_pack(P)
    G_ref, g_injs, g_projs = direct_sum_groups([N.group] * s)
    assert G == G_ref
    assert [f.matrix for f in injs] == [g.matrix for g in g_injs]
    assert [f.matrix for f in projs] == [g.matrix for g in g_projs]
    for u, inj in enumerate(injs):
        assert ModuleHom(N, P.module, inj).check_equivariance()
        for v, proj in enumerate(projs):
            comp = proj.compose(inj)
            assert comp.equals_map(GroupHom.identity(N.group)) if u == v else comp.is_zero_map()


def _composed_power(N, s):
    """N^s on the layout's group with each action the sum of
    inj_u . A . proj_u over the copies, composed map by map."""
    pack = power_pack(module_power(N, s))
    actions = [composed_block_hom(pack, pack, [(u, u, A, 1) for u in range(s)]) for A in N.actions]
    return FgModule(N.ring, pack[0], actions)


def test_module_power_writes_each_action_to_its_slots():
    for base in sorted(POWER_BASES):
        N = _presented(*POWER_BASES[base])
        for s in range(5):
            assert module_power(N, s).module == _composed_power(N, s), (base, s)


def test_free_module_shares_the_slot_map_of_module_powers():
    # R^s is the power of R: the same record, with the actions of the
    # composed reference, and coordinates read and written at its slots
    for R in _free_coords_rings():
        N = ring_as_module(R)
        for s in range(5):
            F = free_module(R, s)
            assert F == module_power(N, s), (R, s)
            assert F.module == _composed_power(N, s), (R, s)
            basis = R.basis()
            parts = [basis[u % R.rank] for u in range(s)]
            assert F.coords(F.element(parts)) == tuple(r.coords for r in parts)
            with pytest.raises(DimensionMismatch):
                F.element(parts + [R.one()])


def _composed_validate(M):
    """`FgModule.validate` with the composition test as GroupHom algebra:
    A_i . A_j against the action of e_i e_j, one map comparison per pair."""
    failures = []
    R = M.ring
    for i, A in enumerate(M.actions):
        if not A.is_well_defined():
            failures.append(f"action of basis element {i} is not well defined")
        if not A.scale(R.additive.invariant_factors[i]).is_zero_map():
            failures.append(f"action of basis element {i} is not killed by its order")
    if not M._combine(R.unit_coords).equals_map(GroupHom.identity(M.group)):
        failures.append("unit does not act as the identity")
    basis = R.basis()
    for i in range(R.rank):
        for j in range(R.rank):
            lhs = M.actions[i].compose(M.actions[j])
            if not lhs.equals_map(M.action_hom(basis[i] * basis[j])):
                failures.append(f"action composition fails at basis pair ({i}, {j})")
    return failures


@pytest.mark.unchecked_axioms
def test_validate_matches_composed_reference():
    rng = random.Random(0x0DD5)
    valid = []
    for _ in range(8):
        R, M, _ = random_instance(rng, k_max=1)
        if M.group.rank:
            valid += [M, tensor_module(M, ring_as_module(R))]
    for M in valid:
        assert M.validate() == _composed_validate(M) == []
    detected = 0
    for _ in range(80):
        M = rng.choice(valid)
        n = M.group.rank
        tables = [A.matrix.rows_list() for A in M.actions]
        for _ in range(rng.randint(1, 2)):
            t, r, k = rng.randrange(len(tables)), rng.randrange(n), rng.randrange(n)
            tables[t][r][k] = rng.randint(-9, 9)
        actions = [GroupHom(M.group, M.group, IntMatrix.from_rows(rows)) for rows in tables]
        bad = FgModule(M.ring, M.group, actions)
        expected = _composed_validate(bad)
        assert bad.validate() == expected
        detected += bool(expected)
    assert detected >= 50


def test_module_power_rejects_negative_exponent():
    N = ring_as_module(zmod(4))
    with pytest.raises(InvalidSpec):
        module_power(N, -1)


def test_block_hom_matches_composed_reference_on_module_powers():
    # repeated (t, s) blocks accumulate, coefficients other than +-1 scale,
    # and powers of different bases and sizes meet
    rng = random.Random(0xB10C)
    R = zmod(8)
    bases = [ring_as_module(R), _presented(*POWER_BASES["2-4-8"])]
    for _ in range(30):
        N = rng.choice(bases)
        src, tgt = module_power(N, rng.randint(1, 4)), module_power(N, rng.randint(1, 4))
        blocks = []
        for _ in range(rng.randint(1, 8)):
            A = N.action_hom(R.from_int(rng.randrange(8)))
            c = rng.choice([-3, -1, 1, 2, 5])
            blocks.append((rng.randrange(tgt.rank), rng.randrange(src.rank), A, c))
        blocks += blocks[:2]
        expected = composed_block_hom(power_pack(src), power_pack(tgt), blocks)
        assert block_hom(src, tgt, blocks) == expected
    # a block must run between the bases of the two powers
    N = ring_as_module(R)
    other = ring_as_module(zmod(4))
    with pytest.raises(DimensionMismatch):
        block_hom(module_power(N, 2), module_power(N, 2), [(0, 0, other.actions[0], 1)])
