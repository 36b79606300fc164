"""Ring constructors, Fitting splits, localization, idempotents, coverings."""

import random

import pytest

from prokit.errors import AxiomViolation, DimensionMismatch, InsufficientBound, InvalidSpec
from prokit.intlinalg import (
    FinAbGroup,
    IntMatrix,
    _solve,
    cokernel_presentation,
    hom_image_span,
    span_contains,
    span_lattice,
    span_subgroup_order,
)
from prokit.rings import (
    SPLIT_ENUM_LIMIT,
    FiniteRing,
    Ideal,
    check_ring_axioms,
    fitting_split,
    ideal,
    ideal_product,
    ideal_span,
    ideal_stabilization,
    is_covering,
    localize,
    primitive_idempotents,
    product_ring,
    quotient_ring,
    ring_from_raw,
    stable_idempotent,
    truncated_polynomial,
    truncated_polynomial_family,
    truncated_two_power,
    zero_ring,
    zmod,
)


from linalg_reference import IntLinearSystem, hstack
from random_instances import random_ring


def ideal_power(I, n):
    """I^n by repeated `ideal_product`, with I^0 the unit ideal."""
    if n == 0:
        return Ideal(I.ring, (I.ring.one(),))
    result = I
    for _ in range(n - 1):
        result = ideal_product(result, I)
    return result


def test_zmod_basics():
    R = zmod(6)
    assert R.order() == 6
    assert R.rank == 1
    assert R.one().coords == (1,)
    assert (R.from_int(4) * R.from_int(5)).coords == (2,)
    assert check_ring_axioms(R) == []


def test_zmod_rejects_small():
    with pytest.raises(InvalidSpec):
        zmod(1)


def test_truncated_two_power_3():
    R, x, one = truncated_two_power(3)
    assert R.additive.invariant_factors == (2, 4, 8)
    assert R.order() == 64
    # x is the image of (2, 2, 2); in the first factor 2 = 0
    assert x.coords == (0, 2, 2)
    assert one == R.one()
    assert check_ring_axioms(R) == []


def test_product_ring_z2_z3():
    R, embed = product_ring([zmod(2), zmod(3)])
    assert R.order() == 6
    u = embed([zmod(2).one(), zmod(3).one()])
    assert u == R.one()
    assert check_ring_axioms(R) == []


@pytest.mark.unchecked_axioms
def test_corrupted_structure_constants_reported():
    # Z/4 with e1*e1 = 3*e1 while the unit claims e1: unit law must fail
    with pytest.raises(AxiomViolation):
        ring_from_raw([4], [[(3,)]], (1,))
    bad = FiniteRing(FinAbGroup((4,)), [IntMatrix.from_rows([[3]])], (1,))
    failures = check_ring_axioms(bad)
    assert any("unit law" in f for f in failures)


def test_raw_orders_below_one_are_rejected():
    # a raw order is an additive order, so -2 is not read as 2 (Z/2), nor
    # [2, -4] as Z/2 x Z/4; documents reject such orders at parse time
    from prokit.rings import _raw_ring

    for orders in ([-2], [0], [2, -4]):
        n = len(orders)
        table = [[[int(i == j == k) for k in range(n)] for j in range(n)] for i in range(n)]
        unit = [1] * n
        with pytest.raises(InvalidSpec, match="raw orders must be >= 1"):
            ring_from_raw(orders, table, unit)
        with pytest.raises(InvalidSpec, match="raw orders must be >= 1"):
            _raw_ring(orders, table, unit)
    assert ring_from_raw([2], [[[1]]], [1]).order() == 2


def _triple_loop_ring_axioms(R):
    """`check_ring_axioms` as it was before its associativity test became
    one matrix comparison per basis pair: n^3 `mul_coords` pairs."""
    failures = []
    n = R.rank
    if n == 0:
        return failures
    basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    d = R.additive.invariant_factors
    for i in range(n):
        for j in range(i, n):
            if R.mul_coords(basis[i], basis[j]) != R.mul_coords(basis[j], basis[i]):
                failures.append(f"commutativity fails at basis pair ({i}, {j})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = R.mul_coords(R.mul_coords(basis[i], basis[j]), basis[k])
                rhs = R.mul_coords(basis[i], R.mul_coords(basis[j], basis[k]))
                if lhs != rhs:
                    failures.append(f"associativity fails at basis triple ({i}, {j}, {k})")
    for i in range(n):
        if R.mul_coords(R.unit_coords, basis[i]) != basis[i]:
            failures.append(f"unit law fails at basis element {i}")
    for i in range(n):
        for j in range(n):
            prod_coords = R.mul_coords(basis[i], basis[j])
            scaled = tuple(d[i] * c for c in prod_coords)
            if any(s % dk != 0 for s, dk in zip(scaled, d)):
                failures.append(f"order well-definedness fails at ({i}, {j})")
    return failures


@pytest.mark.unchecked_axioms
def test_check_ring_axioms_matches_triple_loop():
    valid = [
        zmod(12),
        product_ring([zmod(2), zmod(3)])[0],
        product_ring([zmod(4), zmod(6)])[0],
        truncated_two_power(3)[0],
        truncated_polynomial(3, 3)[0],
        truncated_polynomial_family(2, 3)[0],
        quotient_ring(zmod(12), ideal(zmod(12), [zmod(12).from_int(4)]))[0],
        localize(zmod(12), zmod(12).from_int(3)).ring,
    ]
    for R in valid:
        assert check_ring_axioms(R) == _triple_loop_ring_axioms(R) == []
    rng = random.Random(0x5EED06)
    detected = 0
    for _ in range(80):
        R = rng.choice(valid)
        n = R.rank
        tables = [m.rows_list() for m in R.mult_matrices]
        for _ in range(rng.randint(1, 3)):
            t, r, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            tables[t][r][k] = rng.randint(-20, 20)
        unit = list(R.unit_coords)
        if rng.random() < 0.25:
            unit[rng.randrange(n)] += rng.randint(1, 3)
        bad = FiniteRing(R.additive, [IntMatrix.from_rows(rows) for rows in tables], unit)
        expected = _triple_loop_ring_axioms(bad)
        assert check_ring_axioms(bad) == expected
        detected += bool(expected)
    assert detected >= 60


def test_fitting_split_z12_at_2():
    R = zmod(12)
    c, e = fitting_split(R, R.from_int(2))
    assert c == 2
    assert e == R.from_int(4)
    assert e * e == e


def test_fitting_split_unit():
    R = zmod(12)
    c, e = fitting_split(R, R.from_int(5))
    assert (c, e) == (0, R.one())


def test_fitting_split_nilpotent():
    R = zmod(8)
    c, e = fitting_split(R, R.from_int(2))
    assert c == 3
    assert e.is_zero()


def test_fitting_split_rejects_an_element_of_another_ring():
    # 2 in Z/8 has the coordinates of 2 in Z/12, whose split is kept on
    # Z/12; it is refused before the kept splits are read
    R12, R8 = zmod(12), zmod(8)
    assert fitting_split(R12, R12.from_int(2)) == (2, R12.from_int(4))
    with pytest.raises(DimensionMismatch, match="scalar from a different ring"):
        fitting_split(R12, R8.from_int(2))
    assert fitting_split(R8, R8.from_int(2)) == (3, R8.zero())
    # an equal ring built apart names the same elements
    assert fitting_split(R12, zmod(12).from_int(2)) == (2, R12.from_int(4))


def test_fitting_power_chain_strict():
    # x^{c-1} R strictly contains x^c R when c >= 1
    R = zmod(12)
    x = R.from_int(2)
    c, e = fitting_split(R, x)
    orders = [
        span_subgroup_order(R.additive, hom_image_span(R.multiplication_hom(x ** n)))
        for n in range(c + 2)
    ]
    assert orders[c] == orders[c + 1]
    for n in range(c):
        assert orders[n] > orders[n + 1]


def test_localize_z12_at_2():
    R = zmod(12)
    loc = localize(R, R.from_int(2))
    assert loc.ring.order() == 3
    assert loc.idempotent == R.from_int(4)
    fx = loc.localize_element(R.from_int(2))
    assert loc.ring.is_unit(fx)


def test_localize_at_unit_is_iso_copy():
    R = zmod(12)
    loc = localize(R, R.from_int(7))
    assert loc.ring.order() == 12
    assert loc.ring.additive.invariant_factors == (12,)


def test_localize_at_nilpotent_is_zero():
    R = zmod(8)
    loc = localize(R, R.from_int(2))
    assert loc.ring.is_zero_ring()


def test_localize_idempotence():
    # localizing again at the image of f changes nothing
    R = zmod(12)
    f = R.from_int(2)
    loc = localize(R, f)
    loc2 = localize(loc.ring, loc.localize_element(f))
    assert loc2.ring.additive.invariant_factors == loc.ring.additive.invariant_factors
    assert loc2.idempotent == loc.ring.one()


def test_is_covering_examples():
    R = zmod(6)
    ok, coeffs = is_covering(R, [R.from_int(3), R.from_int(4)])
    assert ok
    total = R.zero()
    for a, f in zip(coeffs, [R.from_int(3), R.from_int(4)]):
        total = total + a * f
    assert total == R.one()
    ok, _ = is_covering(R, [R.one()])
    assert ok
    ok, coeffs = is_covering(R, [R.from_int(2)])
    assert not ok and coeffs is None


def test_ideal_stabilization_examples():
    R = zmod(12)
    c, e = ideal_stabilization(ideal(R, [R.from_int(2)]))
    assert (c, e) == (2, R.from_int(4))
    c, e = ideal_stabilization(ideal(R, [R.one()]))
    assert (c, e) == (0, R.one())
    R8 = zmod(8)
    c, e = ideal_stabilization(ideal(R8, [R8.from_int(2)]))
    assert c == 3 and e.is_zero()


def test_ideal_stabilization_invariants():
    # the stable power I^c is e R, so local cohomology can present R/I^c by e
    Z12 = zmod(12)
    P, embed = product_ring([zmod(4), zmod(3)])
    cases = [
        ideal(Z12, [Z12.from_int(2)]),
        ideal(P, [embed([zmod(4).from_int(2), zmod(3).one()])]),  # e = (0, 1)
        ideal(Z12, [Z12.zero()]),
        ideal(Z12, [Z12.from_int(5)]),  # the unit ideal
    ]
    for I in cases:
        R = I.ring
        c, e = ideal_stabilization(I)
        Ic = ideal_power(I, c)
        assert ideal_power(I, c + 1).span == Ic.span
        for g in Ic.span_elements():
            assert e * g == g
        assert ideal(R, [e]).span == Ic.span
    _, e = ideal_stabilization(cases[1])
    assert e not in (P.zero(), P.one())  # a proper idempotent


def test_primitive_idempotents_z6():
    R = zmod(6)
    es = primitive_idempotents(R)
    assert sorted(e.coords[0] for e in es) == [3, 4]


def test_primitive_idempotents_z8_local():
    R = zmod(8)
    es = primitive_idempotents(R)
    assert len(es) == 1 and es[0] == R.one()


def test_primitive_idempotents_z12():
    R = zmod(12)
    es = primitive_idempotents(R)
    assert sorted(e.coords[0] for e in es) == [4, 9]
    total = R.zero()
    for e in es:
        total = total + e
    assert total == R.one()
    assert (es[0] * es[1]).is_zero()


# The local-ring criterion by enumeration, the reference for the factors
# `primitive_idempotents` splits off.


def nonunits_form_ideal(R, limit=SPLIT_ENUM_LIMIT):
    """Direct check that the non-units are closed under addition and under
    multiplication by arbitrary elements (the local-ring criterion)."""
    if R.order() > limit:
        raise InsufficientBound("ring too large to enumerate")
    nonunits = {y.coords for y in R.elements() if not R.is_unit(y)}
    for a in nonunits:
        for b in nonunits:
            if R.additive.reduce(tuple(x + y for x, y in zip(a, b))) not in nonunits:
                return False
        for r in R.elements():
            if R.mul_coords(a, r.coords) not in nonunits:
                return False
    return True


def test_primitive_idempotents_product():
    R, _ = product_ring([zmod(4), zmod(9), zmod(5)])
    es = primitive_idempotents(R)
    assert len(es) == 3
    orders = 1
    for e in es:
        loc = localize(R, e)
        assert nonunits_form_ideal(loc.ring)
        orders *= loc.ring.order()
    assert orders == R.order()


def test_primitive_idempotents_same_prime_product():
    # same-characteristic factors exercise the Fitting enumeration
    R, _ = product_ring([zmod(2), zmod(2)])
    assert len(primitive_idempotents(R)) == 2
    R3, _ = product_ring([zmod(3), zmod(3), zmod(3)])
    assert len(primitive_idempotents(R3)) == 3


def test_primitive_idempotents_truncated_two_power():
    # the truncation is a product of local rings Z/2 x Z/4 x Z/8
    R, x, _ = truncated_two_power(3)
    es = primitive_idempotents(R)
    assert len(es) == 3
    orders = sorted(localize(R, e).ring.order() for e in es)
    assert orders == [2, 4, 8]


def test_quotient_ring():
    R = zmod(12)
    Q, project = quotient_ring(R, ideal(R, [R.from_int(4)]))
    assert Q.order() == 4
    assert project(R.from_int(4)).is_zero()
    with pytest.raises(InvalidSpec):
        quotient_ring(R, ideal(R, [R.from_int(5)]))


def test_truncated_polynomial():
    R, t = truncated_polynomial(2, 3)
    assert R.order() == 8
    assert not (t * t).is_zero()
    assert (t * t * t).is_zero()
    with pytest.raises(InvalidSpec):
        truncated_polynomial(4, 2)


def test_truncated_polynomial_family():
    S, x, one = truncated_polynomial_family(2, 3)
    # components F_2[t]/(t^n) for n = 1, 2, 3: orders 2, 4, 8
    assert S.order() == 64
    assert (x ** 3).is_zero()
    assert not (x ** 2).is_zero()


def test_covering_diagonal_injective():
    # covering implies the diagonal into the localizations is injective at R
    R = zmod(6)
    fs = [R.from_int(3), R.from_int(4)]
    ok, _ = is_covering(R, fs)
    assert ok
    locs = [localize(R, f) for f in fs]
    for r in R.elements():
        if all(loc.localize_element(r).is_zero() for loc in locs):
            assert r.is_zero()


def _idempotent_rings():
    P, _ = product_ring([zmod(4), zmod(6)])
    Q, _ = product_ring([zmod(3), truncated_polynomial(2, 2)[0]])
    return [zmod(12), truncated_two_power(3)[0], P, Q]


def test_fitting_idempotent_is_multiplicative():
    # every element is a unit or nilpotent in each local factor, so
    # e_{xy} = e_x e_y; the Cech complex builds every e_S from this
    for R in _idempotent_rings():
        e = {x.coords: fitting_split(R, x)[1] for x in R.elements()}
        for x in R.elements():
            for y in R.elements():
                assert e[(x * y).coords] == e[x.coords] * e[y.coords]


def _closure_ideal_span(R, generators):
    """The ideal span as the closure loop made it: close the additive span
    under multiplication by every basis element, round after round."""
    if R.rank == 0:
        return IntMatrix(0, 0, [])
    span = span_lattice(R.additive, [g.coords for g in generators])
    while True:
        new_vecs = []
        for col in span.cols_list():
            for b in R.basis():
                prod_coords = R.mul_coords(R.additive.reduce(tuple(col)), b.coords)
                if not span_contains(R.additive, span, prod_coords):
                    new_vecs.append(prod_coords)
        if not new_vecs:
            return span
        span = span_lattice(R.additive, span.cols_list() + new_vecs)


def test_ideal_span_matches_closure_loop():
    rng = random.Random(0x1DEA)
    P, _ = product_ring([zmod(4), zmod(6), truncated_polynomial(2, 3)[0]])
    rings = [zmod(12), P, zero_ring()] + [truncated_two_power(N)[0] for N in (3, 4, 5)]
    for R in rings:
        gen_sets = [[], [R.zero()], [R.one()]]
        for _ in range(12):
            gen_sets.append(
                [
                    R.element([rng.randrange(-d, 2 * d) for d in R.additive.invariant_factors])
                    for _ in range(rng.randint(1, 3))
                ]
            )
        for gens in gen_sets:
            assert ideal_span(R, gens) == _closure_ideal_span(R, gens)
        I = ideal(R, gen_sets[-1])
        # ideal_product passes r^2 generators
        assert ideal_product(I, I).span == _closure_ideal_span(
            R, [a * b for a in I.span_elements() for b in I.span_elements()]
        )


def test_lazy_ideal_span_matches_ideal_span_and_keeps_equality():
    """An ideal builds its span on first read, not at construction nor for
    `stable_idempotent`; the span equals `ideal_span`, and equality and
    hashing, which read it, agree with the eagerly built spans: ideals with
    the same span are equal and hash alike, whatever their generators."""
    rng = random.Random(0x1A2E)
    rings = [zmod(12), product_ring([zmod(4), zmod(6)])[0], zero_ring(), truncated_two_power(4)[0]]
    for R in rings:
        elems = list(R.elements())
        for _ in range(10):
            gens = [rng.choice(elems) for _ in range(rng.randint(0, 3))]
            I = ideal(R, gens)
            assert I._span is None
            stable_idempotent(I)
            assert I._span is None
            assert I.span == ideal_span(R, gens)
            assert I.span is I.span
            # the same ideal from its span's elements, built in another order
            J = ideal(R, I.span_elements())
            K = ideal(R, list(reversed(gens)))
            assert I == J == K and hash(I) == hash(J) == hash(K)
            assert (ideal(R, gens) == ideal(R, gens + [R.one()])) == (
                ideal_span(R, gens) == ideal_span(R, gens + [R.one()])
            )
            assert len({I, J, K}) == 1


def _solved_stable_idempotent(I):
    """(c, e) with I^c = I^{c+1} = e R, e found by solving e * g = g over
    the span of I^c, as `ideal_stabilization` did before the Fitting form."""
    R = I.ring
    if R.rank == 0:
        return 0, R.zero()
    cur = Ideal(R, (R.one(),))
    c = 0
    while True:
        nxt = ideal_product(cur, I)
        if nxt.span == cur.span:
            break
        cur = nxt
        c += 1
    if cur.order() == 1:
        return c, R.zero()
    gens = cur.span_elements()
    r = R.rank
    cond_rows, rhs = [], []
    for g in gens:
        for k in range(r):
            cond_rows.append([(s * g).coords[k] for s in gens])
            rhs.append(g.coords[k])
    d = R.additive.invariant_factors
    mod_cols = []
    for t in range(len(gens)):
        for k in range(r):
            col = [0] * (len(gens) * r)
            col[t * r + k] = d[k]
            mod_cols.append(col)
    A = IntMatrix.from_rows(cond_rows)
    stacked = hstack(A, IntMatrix.from_cols(mod_cols, rows=len(gens) * r))
    sol = IntLinearSystem(stacked).solve(tuple(rhs))
    e = R.zero()
    for coeff, s in zip(sol[: len(gens)], gens):
        e = e + s.scale(coeff)
    return c, e


def test_is_unit_matches_enumerated_unit_table():
    rings = [
        zmod(12),
        product_ring([zmod(8), zmod(4)])[0],
        truncated_two_power(3)[0],
        truncated_polynomial(2, 4)[0],
    ]
    for R in rings:
        elems = list(R.elements())
        one = R.one()
        units = {u.coords for u in elems if any(u * v == one for v in elems)}
        assert one.coords in units and R.zero().coords not in units
        assert {u.coords for u in elems if R.is_unit(u)} == units


def test_stable_idempotent_matches_linear_solve():
    rng = random.Random(0x57AB)
    Z = zero_ring()
    cases = [ideal(Z, []), ideal(Z, [Z.zero()])]
    for R in _idempotent_rings():
        cases += [ideal(R, []), ideal(R, [R.zero()]), ideal(R, [R.one()])]
        elems = list(R.elements())
        for _ in range(10):
            cases.append(ideal(R, rng.sample(elems, rng.randint(1, 3))))
    for I in cases:
        expected = _solved_stable_idempotent(I)
        assert ideal_stabilization(I) == expected
        assert stable_idempotent(I) == expected[1]


# The structure-constant constructors that `_transported_ring` replaced,
# kept as a reference: each builds the per-pair product table over the old
# generators and transports every product of two lifts separately.


def _reference_canonical_ring(orders, products, unit_coords):
    s = len(orders)
    G, P, S = cokernel_presentation(IntMatrix.zero(s, 0), list(orders))
    if G.rank == 0:
        return zero_ring(), P
    lifts = S.cols_list()

    def old_mul(a, b):
        out = [0] * s
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                if ca and cb:
                    for k in range(s):
                        out[k] += ca * cb * products[i][j][k]
        return tuple(out)

    mult = [
        IntMatrix.from_cols(
            [list(P.apply(old_mul(lifts[i], lifts[j]))) for j in range(G.rank)], rows=G.rank
        )
        for i in range(G.rank)
    ]
    return FiniteRing(G, mult, P.apply(tuple(unit_coords))), P


def _reference_product_ring(factors):
    blocks = [(t, j) for t, R in enumerate(factors) for j in range(R.rank)]
    orders = [factors[t].additive.invariant_factors[j] for t, j in blocks]

    def gen_product(a, b):
        (ta, ja), (tb, jb) = blocks[a], blocks[b]
        if ta != tb:
            return (0,) * len(blocks)
        R = factors[ta]
        basis = R.basis()
        prod = R.mul_coords(basis[ja].coords, basis[jb].coords)
        return tuple(prod[jk] if tk == ta else 0 for tk, jk in blocks)

    products = [[gen_product(i, j) for j in range(len(blocks))] for i in range(len(blocks))]
    unit = tuple(factors[t].unit_coords[j] for t, j in blocks)
    ring, P = _reference_canonical_ring(orders, products, unit)

    def embed(parts):
        vec = tuple(parts[t].coords[j] for t, j in blocks)
        return ring.element(P.apply(vec)) if ring.rank else ring.zero()

    return ring, embed


def _reference_quotient_ring(R, I):
    G, P, S = cokernel_presentation(I.span, list(R.additive.invariant_factors))
    lifts = S.cols_list()
    mult = [
        IntMatrix.from_cols(
            [list(P.apply(R.mul_coords(lifts[i], lifts[j]))) for j in range(G.rank)],
            rows=G.rank,
        )
        for i in range(G.rank)
    ]
    Q = FiniteRing(G, mult, P.apply(R.unit_coords))
    return Q, lambda elem: Q.element(P.apply(elem.coords))


def _reference_truncated_polynomial(q, n):
    products = [
        [tuple(1 if k == i + j else 0 for k in range(n)) for j in range(n)] for i in range(n)
    ]
    ring, P = _reference_canonical_ring([q] * n, products, (1,) + (0,) * (n - 1))
    return ring, ring.element(P.apply(tuple(1 if k == 1 else 0 for k in range(n))))


def _reduced(R):
    """The multiplication matrices with each row reduced modulo its factor."""
    d = R.additive.invariant_factors
    return [[[x % dk for x in row] for row, dk in zip(m.rows_list(), d)] for m in R.mult_matrices]


def _same_ring(new, ref):
    return (
        new.additive == ref.additive
        and _reduced(new) == _reduced(ref)
        and new.unit_coords == ref.unit_coords
    )


def _raw_table(R):
    """Structure constants of R over its own basis: a valid raw table."""
    basis = [b.coords for b in R.basis()]
    return [[list(R.mul_coords(a, b)) for b in basis] for a in basis]


def _transport_corpus():
    """(label, new ring, reference ring, [(new element, reference element)])
    over the seeded corpus of derived rings."""
    rng = random.Random(0x7A45)
    out = []
    for N in range(1, 8):
        new, x, one = truncated_two_power(N)
        factors = [zmod(2 ** n) for n in range(1, N + 1)]
        ref, embed = _reference_product_ring(factors)
        out.append((f"two_power {N}", new, ref, [(x, embed([f.from_int(2) for f in factors]))]))
    for q in (2, 3, 5):
        for n in range(1, 6):
            new, t = truncated_polynomial(q, n)
            ref, tref = _reference_truncated_polynomial(q, n)
            out.append((f"poly {q},{n}", new, ref, [(t, tref)]))
        for N in range(1, 5):
            new, x, one = truncated_polynomial_family(q, N)
            comps = [_reference_truncated_polynomial(q, n) for n in range(1, N + 1)]
            ref, embed = _reference_product_ring([c[0] for c in comps])
            out.append((f"family {q},{N}", new, ref, [(x, embed([c[1] for c in comps]))]))
    moduli = [[6, 10, 15], [4, 6], [3, 5], [12, 18], [2, 2, 2]]
    moduli += [[rng.randint(2, 12) for _ in range(rng.randint(1, 3))] for _ in range(6)]
    for ms in moduli:
        factors = [zmod(m) for m in ms]
        new, embed_new = product_ring(factors)
        ref, embed_ref = _reference_product_ring(factors)
        parts = [f.from_int(rng.randint(0, 40)) for f in factors]
        out.append((f"product {ms}", new, ref, [(embed_new(parts), embed_ref(parts))]))
    mixed = [truncated_polynomial(3, 2)[0], zmod(10)]
    new, embed_new = product_ring(mixed)
    ref, embed_ref = _reference_product_ring(mixed)
    parts = [mixed[0].basis()[1], mixed[1].from_int(3)]
    out.append(("product mixed", new, ref, [(embed_new(parts), embed_ref(parts))]))
    bases = [zmod(12), zmod(36), product_ring([zmod(6), zmod(10), zmod(15)])[0]]
    bases += [truncated_two_power(3)[0], truncated_polynomial_family(3, 3)[0]]
    for R in bases:
        elems = list(R.elements())
        for _ in range(4):
            I = ideal(R, rng.sample(elems, rng.randint(1, 2)))
            if I.is_unit_ideal():
                continue
            new, project_new = quotient_ring(R, I)
            ref, project_ref = _reference_quotient_ring(R, I)
            r = rng.choice(elems)
            out.append((f"quotient of {R}", new, ref, [(project_new(r), project_ref(r))]))
    for R in bases + [zmod(7), truncated_polynomial(2, 3)[0]]:
        orders, table = list(R.additive.invariant_factors), _raw_table(R)
        new = ring_from_raw(orders, table, R.unit_coords)
        ref, _ = _reference_canonical_ring(orders, table, R.unit_coords)
        out.append((f"raw {R}", new, ref, []))
    return out


def test_transported_rings_match_structure_constant_reference():
    # equal after reducing each row modulo its invariant factor, with equal
    # presentation (the embedded/projected elements), unit and named elements
    for label, new, ref, pairs in _transport_corpus():
        assert _same_ring(new, ref), label
        for a, b in pairs:
            assert a.coords == b.coords, label


def test_multiplication_entries_are_reduced():
    for label, new, _, _ in _transport_corpus():
        d = new.additive.invariant_factors
        for m in new.mult_matrices:
            for row, dk in zip(m.rows_list(), d):
                assert all(0 <= x < dk for x in row), label


@pytest.mark.unchecked_axioms  # the axiom check itself multiplies by mul_coords
def test_derived_rings_build_without_pairwise_products(monkeypatch):
    calls = []
    mul_coords = FiniteRing.mul_coords
    monkeypatch.setattr(
        FiniteRing, "mul_coords", lambda self, a, b: calls.append(1) or mul_coords(self, a, b)
    )
    R = product_ring([zmod(6), zmod(10), zmod(15)])[0]
    T = truncated_two_power(4)[0]
    I, J = ideal(R, [R.from_int(2)]), ideal(T, [T.from_int(4)])
    # an ideal's span is built on first read, from its own products, which
    # are not the quotient ring's
    I.span, J.span
    calls.clear()
    product_ring([R, T, zmod(9)])
    quotient_ring(R, I)
    quotient_ring(T, J)
    truncated_polynomial_family(3, 4)
    assert calls == []


def _dense_mul_coords(R, a, b):
    """The product of two coordinate vectors by the dense walk over the
    r x r x r structure tensor, one row of a multiplication matrix at a
    time; the reference for `FiniteRing.mul_coords`, which sums over the
    nonzero constants it keeps."""
    rows = R.rank
    out = [0] * rows
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        mi = R.mult_matrices[i]
        for k in range(rows):
            row = mi.row(k)
            s = 0
            for j, cb in enumerate(b):
                if cb:
                    s += cb * row[j]
            out[k] += ca * s
    return R.additive.reduce(tuple(out))


def _vectors(rng, R, count):
    """Reduced coordinate vectors of R, then unreduced and negative ones."""
    d = R.additive.invariant_factors
    reduced = [tuple(rng.randrange(m) for m in d) for _ in range(count)]
    return reduced + [tuple(rng.randint(-3 * m, 3 * m) for m in d) for _ in range(count)]


def _assert_kernel_matches_dense(rng, R, count=6):
    vecs = _vectors(rng, R, count) + [b.coords for b in R.basis()]
    for a in vecs:
        for b in vecs:
            assert R.mul_coords(a, b) == _dense_mul_coords(R, a, b), (R, a, b)


def test_mul_coords_matches_dense_reference():
    rng = random.Random(0x5CA7)
    rings = [random_ring(rng)[0] for _ in range(12)]
    rings += [
        product_ring([zmod(4), zmod(6), truncated_polynomial(3, 2)[0]])[0],
        product_ring([zmod(12), truncated_polynomial(2, 3)[0]])[0],
        truncated_two_power(3)[0],
        truncated_polynomial_family(2, 3)[0],
        zmod(7),
        zmod(512),
        zero_ring(),
    ]
    rings += [truncated_polynomial(q, n)[0] for q in (2, 3, 5) for n in (1, 4, 6)]
    for R in [zmod(36), truncated_two_power(3)[0], truncated_polynomial_family(3, 2)[0]]:
        elems = list(R.elements())
        for _ in range(3):
            I = ideal(R, rng.sample(elems, 2))
            if not I.is_unit_ideal():
                rings.append(quotient_ring(R, I)[0])
        rings += [localize(R, f).ring for f in rng.sample(elems, 3)]
    for R in rings:
        _assert_kernel_matches_dense(rng, R)


@pytest.mark.unchecked_axioms
def test_mul_coords_matches_dense_reference_on_raw_tables():
    # tables with unreduced and negative constants, which only the raw
    # constructor and the axioms task see: the kernel sums the same
    # integers as the dense walk, whatever the entries
    rng = random.Random(0xD0A5)
    for _ in range(20):
        G = FinAbGroup(rng.choice([(5,), (9,), (2, 4), (3, 6), (2, 4, 8), (2, 2, 12)]))
        r = G.rank
        mats = [
            IntMatrix(r, r, [rng.choice([0, 0, rng.randint(-20, 20)]) for _ in range(r * r)])
            for _ in range(r)
        ]
        R = FiniteRing(G, mats, tuple(rng.randint(-5, 5) for _ in range(r)))
        _assert_kernel_matches_dense(rng, R)


def _count_products(monkeypatch):
    """A list that gains an entry per `FiniteRing.mul_coords` call."""
    calls = []
    mul_coords = FiniteRing.mul_coords
    monkeypatch.setattr(
        FiniteRing, "mul_coords", lambda self, a, b: calls.append(1) or mul_coords(self, a, b)
    )
    return calls


def test_power_takes_bit_length_plus_popcount_products(monkeypatch):
    R = truncated_polynomial_family(3, 3)[0]
    x = R.basis()[-1] + R.from_int(2)
    calls = _count_products(monkeypatch)
    for e in range(70):
        calls.clear()
        power = x ** e
        assert len(calls) == (0 if e <= 1 else e.bit_length() + bin(e).count("1") - 2), e
        walked = R.one()
        for _ in range(e):
            walked = walked * x
        assert power == walked, e


def _basis_product_fitting_split(R, x):
    """The Fitting split of x with the chain x^c R read off the products of
    x^c with the ring basis, one span per step; the reference for
    `fitting_split`, which reads the split off one power of x and one
    solve."""

    def image_span(elem):
        return span_lattice(R.additive, [(elem * b).coords for b in R.basis()])

    if R.rank == 0:
        return 0, R.zero()
    prev, cur, c = image_span(R.one()), R.one(), 0
    while True:
        nxt_elem = cur * x
        nxt = image_span(nxt_elem)
        if nxt == prev:
            break
        prev, cur, c = nxt, nxt_elem, c + 1
    if c == 0:
        return 0, R.one()
    if span_subgroup_order(R.additive, prev) == 1:
        return c, R.zero()
    A = R.multiplication_hom(cur).matrix * prev
    exponent = R.additive.invariant_factors[-1]
    sol = _solve(A, cur.coords, R.additive, (exponent,) * prev.cols)
    return c, R.element(prev.apply(sol))


def _chain_factor_fitting_split(R, e, y):
    """The Fitting split of y inside e R by the chain y^k e R: one span per
    step, stepped by multiplication by y on the previous span until it
    stalls at k = c, then eps = prev * x for the canonical span prev of
    y^c e R and a solution x of (y^c * prev) x = y^c.  The reference for
    `_factor_fitting_idempotent`, which reads eps off one power of e y and
    one solve, and c off y^k (e - eps) = 0."""
    mult_y = R.multiplication_hom(y).matrix
    if e.coords == R.unit_coords:
        prev = IntMatrix.identity(R.rank)
    else:
        prev = hom_image_span(R.multiplication_hom(e))
    cur, c = e, 0
    while True:
        nxt = span_lattice(R.additive, (mult_y * prev).cols_list())
        if nxt == prev:
            break
        prev, cur, c = nxt, cur * y, c + 1
    if c == 0:
        return 0, e
    if span_subgroup_order(R.additive, prev) == 1:
        return c, R.zero()
    A = R.multiplication_hom(cur).matrix * prev
    exponent = R.additive.invariant_factors[-1]
    x = _solve(A, cur.coords, R.additive, (exponent,) * prev.cols)
    return c, R.element(prev.apply(x))


def _factor_split_corpus():
    """(R, e, y) for every factor e (each primitive idempotent, and 1) and
    every y, on seeded rings, products over mixed primes, F_2[t]/t^n, the
    truncated two-power ring and the zero ring."""
    rng = random.Random(0xF1F7)
    rings = [random_ring(rng)[0] for _ in range(20)]
    rings += [
        product_ring([zmod(4), zmod(3), truncated_polynomial(3, 2)[0]])[0],
        product_ring([zmod(12), truncated_polynomial(2, 3)[0], zmod(5)])[0],
        truncated_two_power(3)[0],
        zero_ring(),
    ]
    rings += [truncated_polynomial(2, n)[0] for n in range(1, 6)]
    for R in rings:
        for e in primitive_idempotents(R) + [R.one()]:
            for y in R.elements():
                yield R, e, y


def test_factor_fitting_split_matches_chain_reference():
    from prokit.rings import _factor_fitting_idempotent

    for R, e, y in _factor_split_corpus():
        new = _factor_fitting_idempotent(R, e, y)
        assert new == _chain_factor_fitting_split(R, e, y), (R, e, y)


def _linear_fitting_index(R, e, y, eps):
    """The least k with y^k (e - eps) = 0, by a walk over k = 0, 1, ...,
    one product per step; the reference for the galloping search of
    `_factor_fitting_idempotent` over the kept powers (e y)^(2^t)."""
    c, rest = 0, e - eps
    while not rest.is_zero():
        rest, c = rest * y, c + 1
    return c


def test_factor_fitting_index_matches_linear_walk():
    # the corpus above, whose indices stay below 6, and rings with indices
    # up to 11, where the search halves over several powers
    from prokit.rings import _factor_fitting_idempotent

    corpus = list(_factor_split_corpus())
    for R in [zmod(2 ** 11), zmod(2 ** 7 * 3), truncated_polynomial(2, 9)[0]]:
        corpus += [(R, e, y) for e in [R.one()] + primitive_idempotents(R) for y in R.elements()]
    for R, e, y in corpus:
        c, eps = _factor_fitting_idempotent(R, e, y)
        assert c == _linear_fitting_index(R, e, y, eps), (R, e, y)


def test_fitting_index_of_two_on_two_powers_takes_no_walk(monkeypatch):
    # on Z/2^j, 2 is nilpotent of index j, so eps = 0 and the squarings'
    # powers are the tests: the index takes bit_length(j - 1) - 1 products
    # beyond them, where the linear walk took j; with e = 1, e y is y
    from prokit.rings import _factor_fitting_idempotent

    calls = _count_products(monkeypatch)
    for j in range(1, 13):
        R = zmod(2 ** j)
        squarings = (R.order().bit_length() - 1).bit_length()
        calls.clear()
        assert _factor_fitting_idempotent(R, R.one(), R.from_int(2)) == (j, R.zero())
        assert len(calls) == squarings + 1 + max((j - 1).bit_length() - 1, 0), j


def test_fitting_split_of_a_large_prime_field():
    # Z/p above the enumeration limit: every nonzero element is a unit,
    # (0, 1) by both routes, and 0 is nilpotent of index 1
    p = 4099
    assert p > SPLIT_ENUM_LIMIT and all(p % q for q in range(2, 65))
    R = zmod(p)
    for y in R.elements():
        expected = (1, R.zero()) if y.is_zero() else (0, R.one())
        assert fitting_split(R, y) == expected == _chain_factor_fitting_split(R, R.one(), y), y


@pytest.mark.unchecked_axioms
def test_fitting_split_on_a_corrupt_unit_raises():
    # Z/9 with x * y = 2xy has unit 5, not the declared 1: the split of 1
    # finds eps = 5, and 1 - 5 is a unit, so no power of 1 kills it; the
    # split stops at the bound c < bit_length(|R|) instead of looping
    R = FiniteRing(FinAbGroup((9,)), [IntMatrix(1, 1, [2])], (1,))
    with pytest.raises(AxiomViolation, match="ring data corrupt"):
        fitting_split(R, R.one())


def test_fitting_split_matches_basis_product_reference():
    rng = random.Random(0xF175)
    rings = [random_ring(rng)[0] for _ in range(40)]
    rings += [
        zmod(12),
        product_ring([zmod(8), zmod(4)])[0],
        truncated_two_power(3)[0],
        truncated_polynomial(2, 4)[0],
    ]
    for R in rings:
        for x in R.elements():
            assert fitting_split(R, x) == _basis_product_fitting_split(R, x), (R, x)
