"""Exact linear algebra: normal forms, presentations, kernels."""

import random
from math import gcd, prod

import pytest

from prokit.intlinalg import (
    FinAbGroup,
    GroupElement,
    GroupHom,
    GroupSubquotient,
    IntMatrix,
    _solve,
    cokernel_presentation,
    hom_image_span,
    column_lattice,
    hom_kernel_span,
    intersect_spans,
    preimage_span,
    snf,
    span_contains,
    span_lattice,
    span_leq,
    span_subgroup_order,
    subgroup_embedding,
    subquotient_group,
)
from prokit.errors import DimensionMismatch, InfiniteCokernel

from linalg_reference import (
    IntLinearSystem,
    det,
    hnf,
    hstack,
    kernel_generators,
    mat_inverse_unimodular,
    neg,
    quotient_group,
    solve_hom,
)


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


def assert_section(G, P, S, A, moduli):
    """P * S is the identity over Z (stronger than modulo G), and P kills
    every relation column (A's columns and the moduli) modulo G."""
    assert (S.rows, S.cols) == (P.cols, G.rank)
    assert P * S == IntMatrix.identity(G.rank)
    relations = A.cols_list() + [
        [m if t == i else 0 for t in range(A.rows)] for i, m in enumerate(moduli)
    ]
    for col in relations:
        assert G.element(P.apply(tuple(col))).is_zero()


def test_cokernel_idempotent():
    # presenting the presented group returns the same invariant factors,
    # and every presentation comes with a section of its projection
    rng = random.Random(3)
    for _ in range(30):
        A = random_matrix(rng, max_dim=4, max_entry=10)
        moduli = [rng.choice([0, 2, 4, 6]) for _ in range(A.rows)]
        try:
            G, P, S = cokernel_presentation(A, moduli)
        except InfiniteCokernel:
            continue
        assert_section(G, P, S, A, moduli)
        empty = IntMatrix.zero(G.rank, 0)
        G2, P2, S2 = cokernel_presentation(empty, list(G.invariant_factors))
        assert G2.invariant_factors == G.invariant_factors
        assert_section(G2, P2, S2, empty, list(G.invariant_factors))
    # zero-rank groups and empty relation matrices
    for A, moduli in (
        (IntMatrix.identity(2), [0, 0]),
        (IntMatrix.zero(2, 0), [1, 1]),
        (IntMatrix.zero(0, 0), []),
        (IntMatrix.zero(3, 0), [6, 4, 2]),
    ):
        G, P, S = cokernel_presentation(A, moduli)
        assert_section(G, P, S, A, moduli)


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
    quo = quotient_group(G, [(4,)])
    assert quo.group.order() == 4
    assert quo.group.invariant_factors == (4,)
    assert quo.classify(G.element((4,))).is_zero()


def test_quotient_trivial_subgroup():
    G = FinAbGroup((6, 12))
    quo = quotient_group(G, [])
    assert quo.group.invariant_factors == G.invariant_factors


def test_quotient_full_subgroup():
    G = FinAbGroup((8,))
    quo = quotient_group(G, [(1,)])
    assert quo.group.order() == 1


def test_quotient_order_law():
    rng = random.Random(5)
    for _ in range(30):
        G = FinAbGroup(tuple(rng.choice([(4,), (2, 4), (3, 12), (8,), (2, 2)])))
        gens = [tuple(rng.randrange(d) for d in G.invariant_factors) for _ in range(2)]
        quo = quotient_group(G, gens)
        sub = subgroup_span_set(G, [G.element(g) for g in gens])
        assert quo.group.order() * len(sub) == G.order()
        for g in gens:
            assert quo.classify(G.element(g)).is_zero()


def test_subgroup_embedding_roundtrip():
    G = FinAbGroup((4, 8))
    data = subgroup_embedding(G, [(2, 0), (0, 4)])
    H = data.group
    assert H.order() == 4
    for h in H.elements():
        img = data.lift(h)
        assert data.classify(img).coords == h.coords
    assert data.lift.is_well_defined()


RECORD_CHAINS = [(), (2,), (12,), (2, 4), (2, 2, 8), (3, 6, 12), (4, 4, 8, 16)]


def random_endo(rng, G):
    """A random well-defined endomorphism: entry (i, j) is a multiple of
    d_i / gcd(d_i, d_j)."""
    d = G.invariant_factors
    r = G.rank
    entries = [
        rng.randrange(-3, 4) * (d[i] // gcd(d[i], d[j])) for i in range(r) for j in range(r)
    ]
    return GroupHom(G, G, IntMatrix(r, r, entries))


def rand_vec(rng, n):
    return tuple(rng.randrange(-9, 10) for _ in range(n))


def representatives(rng, G, v):
    """v reduced, with a random multiple of the relations added, and with
    every coordinate made negative."""
    d = G.invariant_factors
    return [
        G.reduce(v),
        tuple(a + rng.randrange(1, 5) * m for a, m in zip(v, d)),
        tuple(a % m - rng.randrange(1, 5) * m for a, m in zip(v, d)),
    ]


def record_cases(rng, G):
    """(kind, record, canonical span of N) for random subgroups, quotients
    and subquotients of G built from random homs."""
    vecs = [rand_vec(rng, G.rank) for _ in range(2)]
    f, g, h = (random_endo(rng, G) for _ in range(3))
    zero = span_lattice(G, [])
    yield "subgroup", subgroup_embedding(G, vecs), zero
    yield "subgroup", subgroup_embedding(G, hom_kernel_span(f).cols_list()), zero
    yield "quotient", quotient_group(G, vecs), span_lattice(G, vecs)
    # ker(f g) / ker(g) and im(g) / im(g h)
    for L, N in (
        (hom_kernel_span(f.compose(g)), hom_kernel_span(g)),
        (hom_image_span(g), hom_image_span(g.compose(h))),
    ):
        yield "subquotient", subquotient_group(G, L, N), N


def test_subquotient_record_classify_against_reference(monkeypatch):
    import prokit.intlinalg as intlinalg

    rng = random.Random(0x5B0)
    snf_calls = []
    real_snf = intlinalg.snf
    for G in map(FinAbGroup, RECORD_CHAINS):
        for _ in range(3):
            for kind, rec, im_span in record_cases(rng, G):
                H = rec.group
                members = [rec.lift.matrix.apply(rand_vec(rng, H.rank)) for _ in range(4)]
                members += [rec.span.apply(rand_vec(rng, G.rank)) for _ in range(4)]
                outside = [rand_vec(rng, G.rank) for _ in range(6)]
                outside = [v for v in outside if not span_contains(G, rec.span, v)]
                if kind == "subgroup":
                    # solve_hom is the reference: the lift is injective
                    expected = [solve_hom(rec.lift, G.element(v)) for v in members]
                monkeypatch.setattr(intlinalg, "snf", lambda A: snf_calls.append(A) or real_snf(A))
                for idx, v in enumerate(members):
                    classes = [rec.classify(GroupElement(G, w)) for w in representatives(rng, G, v)]
                    assert classes[1:] == classes[:1] * 2
                    if kind == "subgroup":
                        assert classes[0] == expected[idx]
                    else:
                        back = rec.lift(classes[0]).coords
                        assert span_contains(G, im_span, [a - b for a, b in zip(back, v)])
                for h in list(H.elements())[:16]:
                    assert rec.classify(rec.lift(h)) == h
                for v in outside:
                    with pytest.raises(DimensionMismatch):
                        rec.classify(GroupElement(G, v))
                monkeypatch.setattr(intlinalg, "snf", real_snf)
    # classification is forward substitution: no normal form at all
    assert snf_calls == []


def _two_step_presentation(A, moduli):
    """The presentation route before one Smith form per presentation: an
    SNF of the raw relation columns, then the section from an
    `IntLinearSystem` solve of [P | diag(group)] x = e_i."""
    r = A.rows
    rel_cols = A.cols_list()
    rel_cols += [[m if t == i else 0 for t in range(r)] for i, m in enumerate(moduli) if m]
    D, U, _ = snf(IntMatrix.from_cols(rel_cols, rows=r))
    diag = [D[i, i] if i < min(D.rows, D.cols) else 0 for i in range(r)]
    assert all(diag)
    kept = [i for i in range(r) if diag[i] > 1]
    G = FinAbGroup(tuple(diag[i] for i in kept))
    P = IntMatrix(len(kept), r, [x for i in kept for x in U.row(i)])
    lifts = []
    if kept:
        system = IntLinearSystem(hstack(P, IntMatrix.diagonal(list(G.invariant_factors))))
        lifts = [system.solve(tuple(int(t == i) for t in range(G.rank)))[:r] for i in range(G.rank)]
    return G, P, IntMatrix.from_cols(lifts, rows=r)


def _two_step_subgroup(G, vecs):
    """The subgroup route before: relations among the span's columns from
    an `IntLinearSystem` kernel basis, then a presentation."""
    span = span_lattice(G, vecs)
    r = G.rank
    system = IntLinearSystem(hstack(span, IntMatrix.diagonal(list(G.invariant_factors))))
    rels = [k[:r] for k in system.kernel_basis()]
    H, P, S = _two_step_presentation(IntMatrix.from_cols(rels, rows=r), [0] * r)
    lift = IntMatrix.from_cols([G.reduce(c) for c in (span * S).cols_list()], rows=r)
    return GroupSubquotient(H, GroupHom(H, G, lift), span, P)


def _two_step_quotient(G, vecs):
    Q, P, S = _two_step_presentation(IntMatrix.from_cols(vecs, rows=G.rank), list(G.invariant_factors))
    return GroupSubquotient(Q, GroupHom(Q, G, S), IntMatrix.identity(G.rank), P)


def _two_step_subquotient(G, ker_vecs, im_vecs):
    """L/N as the quotient of the subgroup L by the classes of N."""
    sub = _two_step_subgroup(G, ker_vecs)
    quo = _two_step_quotient(sub.group, [sub.classify(G.element(v)).coords for v in im_vecs])
    return GroupSubquotient(
        quo.group, sub.lift.compose(quo.lift), sub.span, quo.projection * sub.projection
    )


def assert_subquotient_laws(G, rec, im_span):
    """classify after lift is the identity, N classifies to 0, and
    |L| = |N| * |L/N|."""
    for h in list(rec.group.elements())[:32]:
        assert rec.classify(rec.lift(h)) == h
    for v in im_span.cols_list():
        assert rec.classify(G.element(v)).is_zero()
    assert span_subgroup_order(G, rec.span) == span_subgroup_order(G, im_span) * rec.group.order()


def test_subquotient_records_match_the_two_step_route():
    rng = random.Random(0x2573)
    for G in map(FinAbGroup, RECORD_CHAINS):
        for _ in range(3):
            vecs = [rand_vec(rng, G.rank) for _ in range(2)]
            f, g = random_endo(rng, G), random_endo(rng, G)
            L, N = hom_kernel_span(f.compose(g)), hom_kernel_span(g)
            pairs = [
                (subgroup_embedding(G, vecs), _two_step_subgroup(G, vecs), span_lattice(G, [])),
                (quotient_group(G, vecs), _two_step_quotient(G, vecs), span_lattice(G, vecs)),
                (
                    subquotient_group(G, L, N),
                    _two_step_subquotient(G, L.cols_list(), N.cols_list()),
                    N,
                ),
            ]
            for new, old, im_span in pairs:
                assert new.group == old.group
                assert new.span == old.span
                assert_subquotient_laws(G, new, im_span)
                assert_subquotient_laws(G, old, im_span)


def _smith_route_subquotient(G, L, N):
    """L/N by forward substitution and one Smith reduction, whatever N."""
    import prokit.intlinalg as intlinalg

    coeffs = list(intlinalg._span_coefficients(G.rank, L, N.cols_list()))
    Q, P, S = intlinalg._smith_presentation(IntMatrix.from_cols(coeffs, rows=G.rank))
    return GroupSubquotient(Q, GroupHom(Q, G, L * S), L, P)


def test_zero_subquotient_equals_the_smith_route(monkeypatch):
    # L/L is the trivial record field for field, with no normal form; a
    # non-canonical span is still refused, also when N is L
    import prokit.intlinalg as intlinalg

    rng = random.Random(0x5A0)
    cases = 0
    for G in map(FinAbGroup, RECORD_CHAINS):
        spans = [span_lattice(G, []), IntMatrix.identity(G.rank)]
        for _ in range(4):
            f, g = random_endo(rng, G), random_endo(rng, G)
            spans += [hom_kernel_span(f.compose(g)), span_lattice(G, [rand_vec(rng, G.rank)])]
        for L in spans:
            expected = _smith_route_subquotient(G, L, L)
            with monkeypatch.context() as mp:
                mp.setattr(intlinalg, "snf", None)
                mp.setattr(intlinalg, "_span_coefficients", None)
                record = subquotient_group(G, L, L)
            assert record == expected and record.group.order() == 1
            cases += 1
        if G.rank:
            for bad in (
                IntMatrix.diagonal([-d for d in G.invariant_factors]),
                IntMatrix.from_cols(spans[0].cols_list() + [[0] * G.rank], rows=G.rank),
            ):
                with pytest.raises(DimensionMismatch):
                    subquotient_group(G, bad, bad)
                with pytest.raises(DimensionMismatch):
                    subquotient_group(G, spans[0], bad)
    assert cases == 10 * len(RECORD_CHAINS)


def _unit(rng, G):
    """A multiplier that is a unit modulo every invariant factor of G."""
    exponent = G.invariant_factors[-1] if G.rank else 1
    units = [u for u in range(-2 * exponent - 1, 2 * exponent + 2) if gcd(u, exponent) == 1]
    return rng.choice(units)


def _regenerated(rng, G, vecs):
    """Another generating set of the subgroup the vectors generate: shuffled,
    each scaled by a unit, padded with integer combinations and relations."""
    units = [_unit(rng, G) for _ in vecs]
    out = [tuple(u * a for a in v) for u, v in zip(units, vecs)]
    for _ in range(2):
        combo = [0] * G.rank
        for v in vecs:
            q = rng.randint(-3, 3)
            combo = [a + q * b for a, b in zip(combo, v)]
        out.append(tuple(a + rng.randint(-2, 2) * d for a, d in zip(combo, G.invariant_factors)))
    rng.shuffle(out)
    return out


def test_subquotient_records_depend_only_on_the_subgroups():
    rng = random.Random(0xCA9)
    for G in map(FinAbGroup, RECORD_CHAINS):
        for _ in range(4):
            ker = [rand_vec(rng, G.rank) for _ in range(rng.randint(1, 3))]
            # N inside L: combinations of L's generators
            qs = [rng.randint(-2, 2) for _ in ker]
            im = [tuple(sum(q * v[t] for q, v in zip(qs, ker)) for t in range(G.rank))]
            ker2, im2 = _regenerated(rng, G, ker), _regenerated(rng, G, im)
            assert subgroup_embedding(G, ker) == subgroup_embedding(G, ker2)
            assert quotient_group(G, im) == quotient_group(G, im2)
            spans, spans2 = (
                (span_lattice(G, a), span_lattice(G, b)) for a, b in ((ker, im), (ker2, im2))
            )
            assert subquotient_group(G, *spans) == subquotient_group(G, *spans2)
            # a relation lattice presents the same way from any generating set
            A, A2 = (IntMatrix.from_cols(vs, rows=G.rank) for vs in (ker, ker2))
            moduli = list(G.invariant_factors)
            assert cokernel_presentation(A, moduli) == cokernel_presentation(A2, moduli)


def test_presentations_run_one_smith_form_and_no_linear_system(monkeypatch):
    """Each presentation runs at most one SNF, and none when its relation
    matrix is a diagonal that sorts to a divisibility chain; the ring
    layer's solves (units, coverings, Fitting splits and the idempotent
    search built on them) run none: every SNF belongs to a presentation,
    and no linear system runs."""
    import prokit.intlinalg as intlinalg
    from prokit.rings import (
        fitting_split,
        is_covering,
        primitive_idempotents,
        product_ring,
        truncated_polynomial,
        truncated_two_power,
        zmod,
    )

    counts = {"snf": 0, "system": 0, "presentation": 0}
    real_snf, real_init = intlinalg.snf, IntLinearSystem.__init__
    real_presentation = intlinalg._smith_presentation

    def counting_snf(A):
        counts["snf"] += 1
        return real_snf(A)

    def counting_init(self, A):
        counts["system"] += 1
        real_init(self, A)

    def counting_presentation(H):
        counts["presentation"] += 1
        return real_presentation(H)

    rng = random.Random(0x1F0)
    cases = []  # (function, arguments, most SNFs, or None for any number)
    for G in map(FinAbGroup, RECORD_CHAINS):
        vecs = [rand_vec(rng, G.rank) for _ in range(2)]
        f, g = random_endo(rng, G), random_endo(rng, G)
        L, N = hom_kernel_span(f.compose(g)), hom_kernel_span(g)
        A = IntMatrix.from_cols(vecs, rows=G.rank)
        cases += [
            (cokernel_presentation, (A, list(G.invariant_factors)), 1),
            (subgroup_embedding, (G, vecs), 1),
            (quotient_group, (G, vecs), 1),
            (subquotient_group, (G, L, N), 1),
        ]
    for G in map(FinAbGroup, RECORD_CHAINS):
        # diagonal chains: the relations of G, in any order, over the
        # trivial subgroup or as the raw relations of a presentation
        moduli = list(reversed(G.invariant_factors))
        cases += [
            (cokernel_presentation, (IntMatrix.zero(G.rank, 0), moduli), 0),
            (quotient_group, (G, []), 0),
            (subquotient_group, (G, IntMatrix.identity(G.rank), span_lattice(G, [])), 0),
        ]
    cases += [
        (product_ring, ([zmod(2), zmod(8), zmod(4)],), 0),
        # diag(6, 10, 15) is no chain, so it still takes the Smith route
        (product_ring, ([zmod(6), zmod(10), zmod(15)],), 1),
    ]
    rings = [
        zmod(12),
        product_ring([zmod(8), zmod(4)])[0],
        truncated_two_power(3)[0],
        truncated_polynomial(2, 4)[0],
    ]
    for R in rings:
        elems = list(R.elements())
        y, z = R.from_int(2), rng.choice(elems)
        cases += [
            (R.is_unit, (y,), 0),
            (R.is_unit, (R.one(),), 0),
            (is_covering, (R, [y, z]), 0),
            (fitting_split, (R, y), 0),
            (fitting_split, (R, z), 0),
            # each local factor is localized, and so presented, once
            (primitive_idempotents, (R,), None),
        ]
    monkeypatch.setattr(intlinalg, "snf", counting_snf)
    monkeypatch.setattr(intlinalg, "_smith_presentation", counting_presentation)
    monkeypatch.setattr(IntLinearSystem, "__init__", counting_init)
    for fn, args, most in cases:
        counts.update(snf=0, system=0, presentation=0)
        fn(*args)
        assert counts["snf"] <= counts["presentation"], fn.__name__
        if most is not None:
            assert counts["snf"] <= most, fn.__name__
        assert counts["system"] == 0, fn.__name__


def _smith_route(H):
    """(group, P, S) for Z^r / H Z^r always through `snf`: the formula of
    `_smith_presentation` without its diagonal route."""
    D, U, V = snf(H)
    r = H.rows
    kept = [i for i in range(r) if D[i, i] > 1]
    HV = H * V
    P = IntMatrix(len(kept), r, [x for i in kept for x in U.row(i)])
    S = IntMatrix(r, len(kept), [HV[t, i] // D[i, i] for t in range(r) for i in kept])
    return FinAbGroup(tuple(D[i, i] for i in kept)), P, S


def test_diagonal_presentations_match_the_smith_route(monkeypatch):
    """`_smith_presentation` equals the SNF route field for field on seeded
    diagonals (1s, ties, rank 0, chains in any order) and on non-chains and
    non-diagonal matrices; it runs no SNF exactly on the diagonals whose
    sorted entries form a divisibility chain."""
    import prokit.intlinalg as intlinalg

    rng = random.Random(0xD1A6)
    chains = [(), (1,), (1, 1), (2, 2), (1, 2, 2, 8), (3, 6, 6, 12), (1, 4, 4, 8, 16)]
    corpus = [(list(c), True) for c in chains]
    for _ in range(300):
        chain = [1]
        for _ in range(rng.randint(0, 5)):
            chain.append(chain[-1] * rng.choice([1, 1, 2, 3]))
        rng.shuffle(chain)
        corpus.append((chain, True))
    for diag in ([2, 3], [6, 10, 15], [4, 6], [3, 1, 2]):
        corpus.append((diag, False))
    for _ in range(300):
        diag = [rng.randint(1, 12) for _ in range(rng.randint(1, 5))]
        ordered = sorted(diag)
        corpus.append((diag, all(b % a == 0 for a, b in zip(ordered, ordered[1:]))))
    snf_calls = []
    real_snf = intlinalg.snf
    monkeypatch.setattr(intlinalg, "snf", lambda A: snf_calls.append(1) or real_snf(A))
    seen = {True: 0, False: 0}
    for diag, is_chain in corpus:
        H = IntMatrix.diagonal(diag)
        snf_calls.clear()
        assert intlinalg._smith_presentation(H) == _smith_route(H), diag
        assert len(snf_calls) == (0 if is_chain else 1), diag
        seen[is_chain] += 1
    # a diagonal chain with one off-diagonal entry is not diagonal
    for _ in range(100):
        r = rng.randint(2, 4)
        data = [0] * (r * r)
        for i in range(r):
            data[i * r + i] = rng.choice([1, 2, 4])
        i, j = rng.sample(range(r), 2)
        data[i * r + j] = rng.randint(1, 5)
        H = IntMatrix(r, r, data)
        if det(H) == 0:
            continue
        snf_calls.clear()
        assert intlinalg._smith_presentation(H) == _smith_route(H)
        assert len(snf_calls) == 1
    assert seen[True] >= 300 and seen[False] >= 50


def test_induced_actions_match_induced_hom():
    """`induced_actions(maps, rec)` equals `induced_hom(f, rec, rec)` per map
    on the subquotient corpus (zero groups included), and refuses a map of
    another group or one that carries L outside L."""
    from prokit.intlinalg import induced_actions, induced_hom

    rng = random.Random(0x1AC7)
    zero_groups = 0
    for G in map(FinAbGroup, RECORD_CHAINS):
        for _ in range(8):
            f, g = random_endo(rng, G), random_endo(rng, G)
            # N = ker g lies in L = ker(f g); a map is compared only when
            # it carries the lift's columns into L, as `induced_hom` needs
            L, N = hom_kernel_span(f.compose(g)), hom_kernel_span(g)
            for lo, hi in ((L, N), (L, L), (N, N), (span_lattice(G, []),) * 2):
                rec = subquotient_group(G, lo, hi)
                maps = [g, g.compose(g), GroupHom.identity(G), GroupHom.zero(G, G)]
                lifted = [(h, (h.matrix * rec.lift.matrix).cols_list()) for h in maps]
                maps = [h for h, cols in lifted if all(span_contains(G, lo, c) for c in cols)]
                assert induced_actions(maps, rec) == [induced_hom(h, rec, rec) for h in maps]
                zero_groups += rec.group.rank == 0
    assert zero_groups > 0
    G = FinAbGroup((2, 4))
    rec = subgroup_embedding(G, [(1, 0)])  # L = {0, (1, 0)}
    stay = GroupHom(G, G, IntMatrix.from_rows([[1, 0], [0, 1]]))
    leave = GroupHom(G, G, IntMatrix.from_rows([[1, 0], [1, 1]]))  # (1, 0) -> (1, 1)
    with pytest.raises(DimensionMismatch):
        induced_hom(leave, rec, rec)
    with pytest.raises(DimensionMismatch):
        induced_actions([stay, leave], rec)
    # a map of another group is refused, on a zero group too
    H = FinAbGroup((2,))
    trivial = subquotient_group(G, span_lattice(G, []), span_lattice(G, []))
    for target in (rec, trivial):
        with pytest.raises(DimensionMismatch):
            induced_actions([GroupHom.identity(H)], target)


def test_one_solve_matches_linear_system_reference():
    """`_solve` finds x with A x = b in G exactly when the SNF reference
    does, and its x solves the system; A may have no columns, G may be
    trivial, and b may be unreduced or negative."""
    rng = random.Random(0x501E)
    found = {True: 0, False: 0}
    for G in map(FinAbGroup, RECORD_CHAINS):
        relations = IntMatrix.diagonal(list(G.invariant_factors))
        for _ in range(24):
            s = rng.randint(0, 3)
            A = IntMatrix(G.rank, s, [rng.randrange(-9, 10) for _ in range(G.rank * s)])
            b = rand_vec(rng, G.rank)
            if rng.random() < 0.5:
                image = A.apply(rand_vec(rng, s))
                b = rng.choice(representatives(rng, G, image))
            x = _solve(A, b, G, (G.order(),) * s)
            expected = IntLinearSystem(hstack(A, relations)).solve(b)
            assert (x is None) == (expected is None)
            found[x is not None] += 1
            if x is not None:
                assert len(x) == s
                assert G.reduce([a - c for a, c in zip(A.apply(x), b)]) == G.zero().coords
    assert found[True] and found[False]
    trivial, Z12 = FinAbGroup(()), FinAbGroup((12,))
    assert _solve(IntMatrix(0, 2, []), (), trivial, (1, 1)) == (0, 0)
    assert _solve(IntMatrix(1, 0, []), (-24,), Z12, ()) == ()
    assert _solve(IntMatrix(1, 0, []), (5,), Z12, ()) is None
    assert _solve(IntMatrix(1, 1, [8]), (-28,), Z12, (3,)) is not None


def test_span_lattice_canonical_equality():
    G = FinAbGroup((12,))
    s1 = span_lattice(G, [(2,)])
    s2 = span_lattice(G, [(10,)])
    assert s1 == s2  # both generate {0,2,...,10}
    s3 = span_lattice(G, [(4,)])
    assert s1 != s3


SPAN_CHAINS = [(), (2,), (12,), (2, 4), (2, 2, 8), (3, 6, 12), (4, 4, 8, 16)]


def _old_span_contains(G, span, vector):
    relations = IntMatrix.diagonal(list(G.invariant_factors))
    system = IntLinearSystem(hstack(span, relations) if span.cols else relations)
    return system.solve(tuple(vector)) is not None


def _random_vector(rng, G):
    return tuple(rng.randint(-3 * d, 3 * d) for d in G.invariant_factors)


def _random_member(rng, G, span):
    """An unreduced lattice vector: a random combination of span columns."""
    v = [0] * G.rank
    for col in span.cols_list():
        q = rng.randint(-3, 3)
        v = [a + q * b for a, b in zip(v, col)]
    return tuple(v)


def test_canonical_span_membership_matches_old_formulas():
    rng = random.Random(0xA4C0)
    for facs in SPAN_CHAINS:
        G = FinAbGroup(facs)
        spans = [
            span_lattice(G, []),
            span_lattice(G, IntMatrix.identity(G.rank).cols_list()),
        ]
        for _ in range(6):
            gens = [_random_vector(rng, G) for _ in range(rng.randint(1, 3))]
            spans.append(span_lattice(G, gens))
        for span in spans:
            assert span_subgroup_order(G, span) == G.order() // abs(det(span))
            vectors = [_random_vector(rng, G) for _ in range(8)]
            vectors += [_random_member(rng, G, span) for _ in range(4)]
            for v in vectors:
                assert span_contains(G, span, v) == _old_span_contains(G, span, v)
            for outer in spans:
                old = span_lattice(G, span.cols_list() + outer.cols_list()) == outer
                assert span_leq(G, span, outer) == old
        if G.rank:
            # both answers occur on every nontrivial chain
            zero, full = spans[0], spans[1]
            assert not span_contains(G, zero, G.generator(0).coords)
            assert span_contains(G, full, _random_vector(rng, G))


def test_non_canonical_span_raises():
    G = FinAbGroup((2, 4))
    upper = IntMatrix.from_rows([[1, 1], [0, 2]])
    negative = IntMatrix.from_rows([[-1, 0], [0, 2]])
    narrow = IntMatrix.from_rows([[1], [0]])
    full = span_lattice(G, IntMatrix.identity(2).cols_list())
    for span in (upper, negative, narrow):
        with pytest.raises(DimensionMismatch):
            span_contains(G, span, (1, 1))
        with pytest.raises(DimensionMismatch):
            span_leq(G, full, span)
        with pytest.raises(DimensionMismatch):
            span_subgroup_order(G, span)
    with pytest.raises(DimensionMismatch):
        span_contains(G, full, (1, 1, 1))


def test_product_kernels_match_naive_loops():
    rng = random.Random(0xA4C1)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(20)]
    for m, k, n in shapes:
        A = IntMatrix(m, k, [rng.randint(-9, 9) for _ in range(m * k)])
        B = IntMatrix(k, n, [rng.randint(-9, 9) for _ in range(k * n)])
        C = A * B
        naive = [sum(A[i, t] * B[t, j] for t in range(k)) for i in range(m) for j in range(n)]
        assert (C.rows, C.cols) == (m, n)
        assert C._data == tuple(naive)
        vec = [rng.randint(-9, 9) for _ in range(k)]
        expected = tuple(sum(A[i, t] * vec[t] for t in range(k)) for i in range(m))
        assert A.apply(vec) == expected
        assert A.apply(tuple(vec)) == expected


# ---------------------------------------------------------------------------
# Canonical spans by one transform-free Hermite reduction, against the SNF
# kernel bodies and the HNF-with-transform lattice they replaced


def _ref_column_lattice(n, vectors):
    cols = [list(v) for v in vectors]
    if not cols:
        return IntMatrix(n, 0, [])
    H, _ = hnf(IntMatrix.from_cols(cols, rows=n).transpose())
    rows = [r for r in H.rows_list() if any(r)]
    return IntMatrix.from_rows(rows).transpose() if rows else IntMatrix(n, 0, [])


def _ref_span_lattice(G, vectors):
    relations = IntMatrix.diagonal(list(G.invariant_factors)).cols_list()
    return _ref_column_lattice(G.rank, [*vectors, *relations])


def _ref_preimage_span(f, span):
    r_src = f.source.rank
    if f.target.rank == 0 or r_src == 0:
        return _ref_span_lattice(f.source, IntMatrix.identity(r_src).cols_list())
    parts = f.matrix
    if span.cols:
        parts = hstack(parts, span)
    parts = hstack(parts, IntMatrix.diagonal(list(f.target.invariant_factors)))
    vecs = [k[:r_src] for k in IntLinearSystem(parts).kernel_basis()]
    return _ref_span_lattice(f.source, vecs)


def _ref_hom_kernel_span(f):
    s, t = f.source.rank, f.target.rank
    if s == 0:
        return IntMatrix(0, 0, [])
    if t == 0:
        return _ref_span_lattice(f.source, IntMatrix.identity(s).cols_list())
    stacked = hstack(f.matrix, IntMatrix.diagonal(list(f.target.invariant_factors)))
    vecs = [k[:s] for k in IntLinearSystem(stacked).kernel_basis()]
    return _ref_span_lattice(f.source, vecs)


def _ref_intersect_spans(G, s1, s2):
    if not s1.cols or not s2.cols:
        return s1 if not s1.cols else s2
    system = IntLinearSystem(hstack(s1, neg(s2)))
    vecs = [s1.apply(tuple(k[: s1.cols])) for k in system.kernel_basis()]
    return _ref_span_lattice(G, vecs)


def _ref_preimage_lattice(A, span, moduli):
    """hom_module_data's lattice as it was computed from one SNF kernel."""
    vecs = [k[: A.cols] for k in IntLinearSystem(hstack(A, span)).kernel_basis()]
    vecs += IntMatrix.diagonal(list(moduli)).cols_list()
    return _ref_column_lattice(A.cols, vecs)


HERMITE_CHAINS = RECORD_CHAINS + [(2, 4, 8, 8, 16)]


def assert_column_hermite(span):
    """Column echelon form with positive pivots, each pivot's row reduced
    into [0, pivot) in the columns before it: the shape that makes the
    basis unique (checked directly, since `hnf` shares the Hermite loop)."""
    pivots = []
    for col in span.cols_list():
        p = next(i for i, e in enumerate(col) if e)
        assert col[p] > 0 and all(p > q for q in pivots)
        assert all(0 <= span[p, c] < col[p] for c in range(len(pivots)))
        pivots.append(p)


def random_hom(rng, G, H):
    """A random well-defined hom G -> H with unreduced and negative entries:
    entry (i, j) is a multiple of h_i / gcd(h_i, g_j) in [-3 h_i, 3 h_i]."""
    g, h = G.invariant_factors, H.invariant_factors
    entries = []
    for i in range(H.rank):
        for j in range(G.rank):
            unit = h[i] // gcd(h[i], g[j])
            entries.append(rng.randint(-3 * gcd(h[i], g[j]), 3 * gcd(h[i], g[j])) * unit)
    return GroupHom(G, H, IntMatrix(H.rank, G.rank, entries))


def random_span(rng, G):
    return span_lattice(G, [rand_vec(rng, G.rank) for _ in range(rng.randint(0, 3))])


def test_hermite_spans_match_snf_kernel_reference(monkeypatch):
    import prokit.intlinalg as intlinalg

    rng = random.Random(0x4E2F)
    snf_calls = []
    real_snf = intlinalg.snf
    counting = lambda A: snf_calls.append(A) or real_snf(A)
    chains = [FinAbGroup(c) for c in HERMITE_CHAINS]
    for G in chains:
        for _ in range(12):
            H = rng.choice(chains)
            f = random_hom(rng, G, H)
            assert f.is_well_defined()
            target_spans = [span_lattice(H, []), random_span(rng, H), random_span(rng, H)]
            s1 = random_span(rng, G)
            s2 = _ref_hom_kernel_span(random_hom(rng, G, rng.choice(chains)))
            vecs = [rand_vec(rng, G.rank) for _ in range(rng.randint(0, 4))]
            expected = (
                [_ref_preimage_span(f, span) for span in target_spans],
                _ref_hom_kernel_span(f),
                _ref_intersect_spans(G, s1, s2),
                _ref_column_lattice(G.rank, vecs),
                _ref_span_lattice(G, vecs),
            )
            monkeypatch.setattr(intlinalg, "snf", counting)
            got = (
                [preimage_span(f, span) for span in target_spans],
                hom_kernel_span(f),
                intersect_spans(G, s1, s2),
                column_lattice(G.rank, vecs),
                span_lattice(G, vecs),
            )
            monkeypatch.setattr(intlinalg, "snf", real_snf)
            assert got == expected
            for span in [*got[0], *got[1:]]:
                assert_column_hermite(span)
    # the canonical spans, kernels, preimages and meets run no SNF
    assert snf_calls == []


def test_hom_module_lattice_matches_snf_kernel_reference(monkeypatch):
    import complex_reference
    from complex_reference import cyclic_quotient_module, hom_module_data
    from prokit.modules import matlis_dual, module_from_presentation, ring_as_module
    from prokit.rings import ideal, truncated_two_power, zmod

    R = zmod(12)
    T, x, _ = truncated_two_power(3)
    M2, _, _ = module_from_presentation(zmod(4), 1, [[zmod(4).from_int(2)]])
    real = complex_reference.preimage_lattice
    pairs = [
        (ring_as_module(R), ring_as_module(R)),
        (cyclic_quotient_module(R, ideal(R, [R.from_int(4)])), matlis_dual(ring_as_module(R))),
        (ring_as_module(T), matlis_dual(ring_as_module(T))),
        (cyclic_quotient_module(T, ideal(T, [x])), ring_as_module(T)),
        (M2, ring_as_module(zmod(4))),
    ]
    for M, N in pairs:
        new = hom_module_data(M, N)
        monkeypatch.setattr(complex_reference, "preimage_lattice", _ref_preimage_lattice)
        old = hom_module_data(M, N)
        monkeypatch.setattr(complex_reference, "preimage_lattice", real)
        assert new._lattice == old._lattice
        assert new.module.group == old.module.group
        assert [a.matrix for a in new.module.actions] == [a.matrix for a in old.module.actions]
