"""Exact linear algebra: normal forms, presentations, kernels."""

import random
from math import prod

import pytest

from prokit.intlinalg import (
    FinAbGroup,
    GroupHom,
    IntLinearSystem,
    IntMatrix,
    cokernel_presentation,
    det,
    direct_sum_groups,
    hnf,
    kernel_generators,
    mat_inverse_unimodular,
    quotient_group,
    snf,
    solve_hom,
    span_lattice,
    subgroup_embedding,
)
from prokit.errors import InfiniteCokernel


def random_matrix(rng, max_dim=6, max_entry=20):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix(m, n, [rng.randint(-max_entry, max_entry) for _ in range(m * n)])


def is_unimodular(U):
    return abs(det(U)) == 1


def test_hnf_identity():
    I = IntMatrix.identity(2)
    H, U = hnf(I)
    assert H == I and U == I


def test_hnf_zero():
    Z = IntMatrix.zero(2, 2)
    H, U = hnf(Z)
    assert H == Z
    assert is_unimodular(U)


def test_hnf_small():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    H, U = hnf(A)
    assert U * A == H
    assert is_unimodular(U)
    # row echelon with positive pivots
    pivots = []
    for i in range(H.rows):
        row = H.row(i)
        nz = [j for j, e in enumerate(row) if e]
        if nz:
            pivots.append((i, nz[0]))
            assert row[nz[0]] > 0
    cols = [c for _, c in pivots]
    assert cols == sorted(cols)


def test_snf_identity_and_1x1():
    I = IntMatrix.identity(3)
    D, U, V = snf(I)
    assert D == I and U * I * V == D
    D, U, V = snf(IntMatrix.from_rows([[6]]))
    assert D == IntMatrix.from_rows([[6]])


def test_snf_divisibility_example():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    D, U, V = snf(A)
    assert U * A * V == D
    assert [D[0, 0], D[1, 1]] == [2, 4]  # gcd 2, |det| 8


def test_snf_random_properties():
    rng = random.Random(20240801)
    for _ in range(100):
        A = random_matrix(rng)
        D, U, V = snf(A)
        assert U * A * V == D
        assert is_unimodular(U) and is_unimodular(V)
        diag = [D[i, i] for i in range(min(D.rows, D.cols))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        # off-diagonal zero
        for i in range(D.rows):
            for j in range(D.cols):
                if i != j:
                    assert D[i, j] == 0
        if A.rows == A.cols:
            d = det(A)
            if d != 0:
                assert prod(diag) == abs(d)


def test_linear_system_solve_and_kernel():
    rng = random.Random(7)
    for _ in range(50):
        A = random_matrix(rng, max_dim=4, max_entry=8)
        sys = IntLinearSystem(A)
        x = tuple(rng.randint(-5, 5) for _ in range(A.cols))
        y = A.apply(x)
        sol = sys.solve(y)
        assert sol is not None
        assert A.apply(sol) == y
        for k in sys.kernel_basis():
            assert all(v == 0 for v in A.apply(k))


def test_unimodular_inverse():
    rng = random.Random(11)
    for _ in range(20):
        A = random_matrix(rng, max_dim=4, max_entry=6)
        _, U, V = snf(A)
        for M in (U, V):
            W = mat_inverse_unimodular(M)
            assert M * W == IntMatrix.identity(M.rows)


def test_cokernel_single_relation():
    G, P, _ = cokernel_presentation(IntMatrix.from_rows([[2]]), [0])
    assert G.invariant_factors == (2,)


def test_cokernel_diagonal():
    G, _, _ = cokernel_presentation(IntMatrix.diagonal([2, 4]), [0, 0])
    assert G.invariant_factors == (2, 4)


def test_cokernel_derived_example():
    G, _, _ = cokernel_presentation(IntMatrix.from_rows([[2, 4], [6, 8]]), [0, 0])
    assert G.invariant_factors == (2, 4)


def test_cokernel_infinite():
    with pytest.raises(InfiniteCokernel):
        cokernel_presentation(IntMatrix.zero(2, 0), [2, 0])


def assert_section(rng, G, P, S):
    """P * S is the identity modulo G, and lifting h through S is the raw
    solve of [P | diag(G)] x = h, unreduced."""
    assert (S.rows, S.cols) == (P.cols, G.rank)
    ident = IntMatrix.identity(G.rank).cols_list()
    assert [G.reduce(c) for c in (P * S).cols_list()] == [G.reduce(c) for c in ident]
    raw = IntLinearSystem(P.hstack(IntMatrix.diagonal(list(G.invariant_factors))))
    for _ in range(5):
        h = tuple(rng.randint(-3 * d, 3 * d) for d in G.invariant_factors)
        assert S.apply(h) == raw.solve(h)[: P.cols]


def test_cokernel_idempotent():
    # presenting the presented group returns the same invariant factors,
    # and every presentation comes with a section of its projection
    rng = random.Random(3)
    for _ in range(30):
        A = random_matrix(rng, max_dim=4, max_entry=10)
        try:
            G, P, S = cokernel_presentation(A, [rng.choice([0, 2, 4, 6]) for _ in range(A.rows)])
        except InfiniteCokernel:
            continue
        assert_section(rng, G, P, S)
        G2, P2, S2 = cokernel_presentation(
            IntMatrix.zero(G.rank, 0), list(G.invariant_factors)
        )
        assert G2.invariant_factors == G.invariant_factors
        assert_section(rng, G2, P2, S2)
    # zero-rank groups and empty relation matrices
    for A, moduli in (
        (IntMatrix.identity(2), [0, 0]),
        (IntMatrix.zero(2, 0), [1, 1]),
        (IntMatrix.zero(0, 0), []),
        (IntMatrix.zero(3, 0), [6, 4, 2]),
    ):
        G, P, S = cokernel_presentation(A, moduli)
        assert_section(rng, G, P, S)


def test_projection_maps_onto_generators():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    G, P, _ = cokernel_presentation(A, [0, 0])
    # relations must die under the projection
    for colv in A.cols_list():
        img = G.element(P.apply(tuple(colv)))
        assert img.is_zero()


def mult_hom(G, k):
    return GroupHom(G, G, IntMatrix.diagonal([k] * G.rank))


def brute_kernel(f):
    return {x for x in f.source.elements() if f(x).is_zero()}


def subgroup_span_set(G, gens):
    seen = {G.zero()}
    frontier = [G.zero()]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur + g
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_solve_hom_kernel_mult2_z8():
    G = FinAbGroup((8,))
    f = mult_hom(G, 2)
    gens = kernel_generators(f)
    spanned = subgroup_span_set(G, gens)
    assert spanned == {G.element((0,)), G.element((4,))}


def test_solve_hom_identity_preimage():
    G = FinAbGroup((4, 12))
    f = GroupHom.identity(G)
    y = G.element((3, 7))
    assert solve_hom(f, y) == y


def test_solve_hom_zero_map_kernel():
    G = FinAbGroup((4,))
    f = GroupHom.zero(G, G)
    gens = kernel_generators(f)
    assert subgroup_span_set(G, gens) == set(G.elements())


def test_solve_hom_no_preimage():
    G = FinAbGroup((8,))
    f = mult_hom(G, 2)
    assert solve_hom(f, G.element((1,))) is None


def test_kernel_matches_bruteforce_random():
    rng = random.Random(99)
    for _ in range(40):
        facs = sorted(rng.sample([2, 2, 4, 4, 8, 3, 9, 6, 12], rng.randint(1, 2)))
        try:
            G = FinAbGroup(tuple(sorted(facs, key=lambda d: d)))
        except Exception:
            continue
        if G.order() > 256:
            continue
        mat = IntMatrix(
            G.rank, G.rank, [rng.randint(0, 12) for _ in range(G.rank * G.rank)]
        )
        f = GroupHom(G, G, mat)
        if not f.is_well_defined():
            continue
        gens = kernel_generators(f)
        assert subgroup_span_set(G, gens) == brute_kernel(f)


def test_quotient_z8_by_4():
    G = FinAbGroup((8,))
    Q, proj, _ = quotient_group(G, [(4,)])
    assert Q.order() == 4
    assert Q.invariant_factors == (4,)
    assert proj(G.element((4,))).is_zero()


def test_quotient_trivial_subgroup():
    G = FinAbGroup((6, 12))
    Q, proj, _ = quotient_group(G, [])
    assert Q.invariant_factors == G.invariant_factors


def test_quotient_full_subgroup():
    G = FinAbGroup((8,))
    Q, _, _ = quotient_group(G, [(1,)])
    assert Q.order() == 1


def test_quotient_order_law():
    rng = random.Random(5)
    for _ in range(30):
        G = FinAbGroup(tuple(rng.choice([(4,), (2, 4), (3, 12), (8,), (2, 2)])))
        gens = [tuple(rng.randrange(d) for d in G.invariant_factors) for _ in range(2)]
        Q, proj, _ = quotient_group(G, gens)
        sub = subgroup_span_set(G, [G.element(g) for g in gens])
        assert Q.order() * len(sub) == G.order()
        for g in gens:
            assert proj(G.element(g)).is_zero()


def test_subgroup_embedding_roundtrip():
    G = FinAbGroup((4, 8))
    data = subgroup_embedding(G, [(2, 0), (0, 4)])
    H = data.group
    assert H.order() == 4
    for h in H.elements():
        img = data.inclusion(h)
        assert data.classify(img).coords == h.coords
    assert data.inclusion.is_well_defined()


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


def test_span_lattice_canonical_equality():
    G = FinAbGroup((12,))
    s1 = span_lattice(G, [(2,)])
    s2 = span_lattice(G, [(10,)])
    assert s1 == s2  # both generate {0,2,...,10}
    s3 = span_lattice(G, [(4,)])
    assert s1 != s3
