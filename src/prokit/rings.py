"""Finite commutative unital rings given by structure constants.

A ring is a finite abelian group in invariant-factor form together with a
multiplication tensor over that basis and a distinguished unit.  The
constructors cover cyclic rings, finite products, quotients by ideals, the
truncated families used for the divergence sweeps, and raw structure
constants.  On top of the arithmetic sit the Fitting decomposition (which
realizes localization at a single element), ideal power stabilization,
covering sequences, and the primitive idempotent splitting into local
factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AxiomViolation,
    DecompositionBoundExceeded,
    DimensionMismatch,
    InvalidSpec,
)
from .intlinalg import (
    FinAbGroup,
    GroupHom,
    IntLinearSystem,
    IntMatrix,
    cokernel_presentation,
    solve_hom,
    span_contains,
    span_lattice,
    span_subgroup_order,
    subgroup_embedding,
)

# full-element scans (unit tables, idempotent search) only below these orders
ENUMERATION_LIMIT = 1 << 16
SPLIT_ENUM_LIMIT = 1 << 12


class FiniteRing:
    """Finite commutative unital ring over an invariant-factor basis.

    `mult_matrices[i]` is the matrix of multiplication by the i-th basis
    element acting on the additive group; its column j holds the coordinates
    of e_i * e_j, so the structure tensor is c[i][j][k] = mult_matrices[i][k, j].
    """

    def __init__(self, additive, mult_matrices, unit_coords, check=True):
        self.additive = additive
        self.mult_matrices = tuple(mult_matrices)
        self.unit_coords = additive.reduce(tuple(unit_coords)) if additive.rank else ()
        if check:
            failures = check_ring_axioms(self)
            if failures:
                raise AxiomViolation("; ".join(failures[:3]))

    @property
    def rank(self):
        return self.additive.rank

    def order(self):
        return self.additive.order()

    def is_zero_ring(self):
        return self.rank == 0

    def element(self, coords):
        return RingElement(self, self.additive.reduce(tuple(int(c) for c in coords)))

    def zero(self):
        return self.element((0,) * self.rank)

    def one(self):
        return RingElement(self, self.unit_coords)

    def from_int(self, k):
        """k times the unit; the image of the integer k."""
        return self.one().scale(k)

    def basis(self):
        return [
            self.element(tuple(1 if i == j else 0 for i in range(self.rank)))
            for j in range(self.rank)
        ]

    def multiplication_hom(self, elem):
        """Multiplication by `elem` as a GroupHom on the additive group."""
        rows = self.rank
        acc = [[0] * rows for _ in range(rows)]
        for i, c in enumerate(elem.coords):
            if c == 0:
                continue
            mi = self.mult_matrices[i]
            for r in range(rows):
                row = mi.row(r)
                ar = acc[r]
                for j in range(rows):
                    ar[j] += c * row[j]
        m = IntMatrix.from_rows(acc) if rows else IntMatrix(0, 0, [])
        return GroupHom(self.additive, self.additive, m)

    def mul_coords(self, a, b):
        """Coordinates of the product of two coordinate vectors."""
        rows = self.rank
        out = [0] * rows
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            mi = self.mult_matrices[i]
            for k in range(rows):
                row = mi.row(k)
                s = 0
                for j, cb in enumerate(b):
                    if cb:
                        s += cb * row[j]
                out[k] += ca * s
        return self.additive.reduce(tuple(out))

    def elements(self, limit=ENUMERATION_LIMIT):
        for g in self.additive.elements(limit=limit):
            yield RingElement(self, g.coords)

    def is_unit(self, elem):
        return solve_hom(self.multiplication_hom(elem), self.one().as_group_element()) is not None

    def is_nilpotent(self, elem):
        y = elem
        steps = max(1, self.order().bit_length())
        for _ in range(steps):
            if y.is_zero():
                return True
            y = y * y
        return y.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, FiniteRing)
            and self.additive == other.additive
            and self.mult_matrices == other.mult_matrices
            and self.unit_coords == other.unit_coords
        )

    def __hash__(self):
        return hash((self.additive, self.mult_matrices, self.unit_coords))

    def __str__(self):
        return f"FiniteRing({self.additive}, order {self.order()})"


@dataclass(frozen=True)
class RingElement:
    ring: FiniteRing
    coords: tuple

    def as_group_element(self):
        from .intlinalg import GroupElement

        return GroupElement(self.ring.additive, self.coords)

    def __add__(self, other):
        self._check(other)
        return self.ring.element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return self.ring.element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return self.ring.element(tuple(-a for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.mul_coords(self.coords, other.coords))

    def scale(self, k):
        return self.ring.element(tuple(k * a for a in self.coords))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def _check(self, other):
        if self.ring != other.ring:
            raise DimensionMismatch("elements of different rings")

    def __str__(self):
        return str(tuple(self.coords))


def check_ring_axioms(R):
    """Basis-level diagnostics: commutativity, associativity, unit law, and
    well-definedness of the multiplication modulo the additive orders.
    Returns a list of failure descriptions (empty when all axioms hold)."""
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


# ---------------------------------------------------------------------------
# Constructors


def zmod(m):
    """The cyclic ring Z/m.

    >>> R = zmod(12)
    >>> (R.from_int(7) * R.from_int(4)).coords
    (4,)
    """
    if m < 2:
        raise InvalidSpec(f"zmod modulus must be >= 2, got {m}")
    G = FinAbGroup((m,))
    return FiniteRing(G, [IntMatrix.identity(1)], (1,))


def zero_ring():
    """The zero ring: empty basis, 0 = 1."""
    return FiniteRing(FinAbGroup(()), [], ())


def _canonical_ring(orders, products, unit_coords):
    """Canonicalize a ring presented over generators of the given additive
    orders, transporting the product along the base change.  Returns
    (ring, P) with P the coordinate projection old -> new."""
    s = len(orders)
    G, P, S = cokernel_presentation(IntMatrix.zero(s, 0), list(orders))
    if G.rank == 0:
        return zero_ring(), P
    lifts = S.cols_list()

    def old_mul(a, b):
        out = [0] * s
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                pij = products[i][j]
                for k in range(s):
                    out[k] += ca * cb * pij[k]
        return tuple(out)

    mult_matrices = []
    for i in range(G.rank):
        cols = [list(P.apply(old_mul(lifts[i], lifts[j]))) for j in range(G.rank)]
        mult_matrices.append(IntMatrix.from_cols(cols, rows=G.rank))
    ring = FiniteRing(G, mult_matrices, P.apply(tuple(unit_coords)))
    return ring, P


def ring_from_raw(orders, products, unit_coords):
    """Ring from raw structure constants over generators with the given
    additive orders; `products[i][j]` is the coordinate vector of g_i * g_j.
    Axioms are validated on the canonicalized result."""
    ring, _ = _canonical_ring(orders, products, unit_coords)
    return ring


def product_ring(factors):
    """Finite product of rings with componentwise operations.

    Returns (ring, embed); embed maps a tuple with one element per factor to
    the corresponding element of the product.
    """
    orders = []
    blocks = []  # (factor index, index within the factor) per generator
    for t, R in enumerate(factors):
        for j in range(R.rank):
            orders.append(R.additive.invariant_factors[j])
            blocks.append((t, j))
    s = len(orders)

    def gen_product(a, b):
        ta, ja = blocks[a]
        tb, jb = blocks[b]
        out = [0] * s
        if ta != tb:
            return tuple(out)
        R = factors[ta]
        prod_coords = R.mul_coords(
            tuple(1 if i == ja else 0 for i in range(R.rank)),
            tuple(1 if i == jb else 0 for i in range(R.rank)),
        )
        for k, (tk, jk) in enumerate(blocks):
            if tk == ta:
                out[k] = prod_coords[jk]
        return tuple(out)

    products = [[gen_product(i, j) for j in range(s)] for i in range(s)]
    unit = [factors[tk].unit_coords[jk] for (tk, jk) in blocks]
    ring, P = _canonical_ring(orders, products, tuple(unit))

    def embed(parts):
        if len(parts) != len(factors):
            raise DimensionMismatch("one element per factor required")
        vec = [parts[tk].coords[jk] for (tk, jk) in blocks]
        return ring.element(P.apply(tuple(vec))) if ring.rank else ring.zero()

    return ring, embed


@dataclass(frozen=True)
class Ideal:
    """Ideal of a finite ring, normalized to a canonical additive span."""

    ring: FiniteRing
    generators: tuple
    span: IntMatrix = field(compare=False, default=None)

    def __post_init__(self):
        if self.span is None:
            object.__setattr__(self, "span", ideal_span(self.ring, self.generators))

    def contains(self, elem):
        if self.ring.rank == 0:
            return True
        return span_contains(self.ring.additive, self.span, elem.coords)

    def order(self):
        if self.ring.rank == 0:
            return 1
        return span_subgroup_order(self.ring.additive, self.span)

    def is_unit_ideal(self):
        return self.contains(self.ring.one())

    def is_zero_ideal(self):
        return self.order() == 1

    def span_elements(self):
        """Ring elements of the canonical span columns (reduced)."""
        return [self.ring.element(c) for c in self.span.cols_list()]

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.ring == other.ring and self.span == other.span

    def __hash__(self):
        return hash((self.ring, self.span))


def ideal_span(R, generators):
    """Canonical additive span of the generated ideal: close the additive
    span under multiplication by every basis element."""
    if R.rank == 0:
        return IntMatrix(0, 0, [])
    span = span_lattice(R.additive, [g.coords for g in generators])
    basis_elems = R.basis()
    while True:
        new_vecs = []
        for col in span.cols_list():
            for b in basis_elems:
                prod_coords = R.mul_coords(R.additive.reduce(tuple(col)), b.coords)
                if not span_contains(R.additive, span, prod_coords):
                    new_vecs.append(prod_coords)
        if not new_vecs:
            return span
        span = span_lattice(R.additive, span.cols_list() + new_vecs)


def ideal(R, generators):
    return Ideal(R, tuple(generators))


def ideal_product(I, J):
    gens = [a * b for a in I.span_elements() for b in J.span_elements()]
    return Ideal(I.ring, tuple(gens))


def ideal_sum(I, J):
    return Ideal(I.ring, I.generators + J.generators)


def ideal_power(I, n):
    if n == 0:
        return Ideal(I.ring, (I.ring.one(),))
    result = I
    for _ in range(n - 1):
        result = ideal_product(result, I)
    return result


def quotient_ring(R, I):
    """Quotient by a proper ideal; the unit ideal is rejected (construct the
    zero ring explicitly when that is what you mean).  Returns (Q, project)."""
    if I.is_unit_ideal():
        raise InvalidSpec("quotient by the unit ideal; use zero_ring instead")
    G, P, S = cokernel_presentation(I.span, list(R.additive.invariant_factors))
    if G.rank == 0:
        raise AxiomViolation("proper ideal produced a trivial quotient; data corrupt")
    lifts = S.cols_list()
    mult_matrices = []
    for i in range(G.rank):
        cols = [list(P.apply(R.mul_coords(lifts[i], lifts[j]))) for j in range(G.rank)]
        mult_matrices.append(IntMatrix.from_cols(cols, rows=G.rank))
    Q = FiniteRing(G, mult_matrices, P.apply(R.unit_coords))

    def project(elem):
        return Q.element(P.apply(elem.coords))

    return Q, project


def truncated_two_power(N):
    """Truncation of the product of Z/2^n: the ring Z/2 x Z/4 x ... x Z/2^N.

    Returns (ring, x, one) with x the image of (2 mod 2^n)_n.
    """
    if N < 1:
        raise InvalidSpec("truncation length must be >= 1")
    factors = [zmod(2 ** n) for n in range(1, N + 1)]
    ring, embed = product_ring(factors)
    x = embed([Rf.from_int(2) for Rf in factors])
    return ring, x, ring.one()


def truncated_polynomial(q, n):
    """The ring F_q[t]/(t^n) for a prime q.  Returns (ring, tbar)."""
    if q < 2 or any(q % p == 0 for p in range(2, int(q ** 0.5) + 1)):
        raise InvalidSpec(f"modulus {q} is not prime")
    if n < 1:
        raise InvalidSpec("nilpotency order must be >= 1")
    # basis 1, t, ..., t^{n-1}; every order is q, already a divisibility chain
    orders = [q] * n
    products = [
        [
            tuple(1 if k == i + j else 0 for k in range(n)) if i + j < n else (0,) * n
            for j in range(n)
        ]
        for i in range(n)
    ]
    unit = tuple(1 if k == 0 else 0 for k in range(n))
    ring, P = _canonical_ring(orders, products, unit)
    tbar = ring.element(P.apply(tuple(1 if k == 1 else 0 for k in range(n))))
    return ring, tbar


def truncated_polynomial_family(q, N):
    """Product of F_q[t]/(t^n) for n = 1..N with the diagonal image of t;
    the finite analog of the power-series truncation family.  Returns
    (ring, x, one)."""
    comps = [truncated_polynomial(q, n) for n in range(1, N + 1)]
    ring, embed = product_ring([c[0] for c in comps])
    x = embed([c[1] for c in comps])
    return ring, x, ring.one()


# ---------------------------------------------------------------------------
# Multiplicative structure


def _image_span(R, elem):
    """Canonical span of the principal ideal elem * R."""
    return span_lattice(R.additive, [(elem * b).coords for b in R.basis()])


def fitting_split(R, x):
    """Fitting decomposition along x.

    Returns (c, e): c minimal with x^c R = x^{c+1} R and e the unique
    idempotent with e R = x^c R.  Multiplication by x is bijective on e R
    and nilpotent on (1-e) R.  Units give (0, 1), nilpotents (c, 0).

    >>> R = zmod(12)
    >>> c, e = fitting_split(R, R.from_int(2))
    >>> c, e.coords
    (2, (4,))
    """
    if R.rank == 0:
        return 0, R.zero()
    return _factor_fitting_idempotent(R, R.one(), x)


@dataclass(frozen=True)
class Localization:
    """Localization of a finite ring at one element, realized as e R."""

    ring: FiniteRing          # e R on its own canonical basis
    idempotent: RingElement   # e in the original ring
    stabilization_index: int  # minimal c with x^c R = x^{c+1} R
    map: GroupHom             # additive map r -> e r, original -> localized
    section: GroupHom         # additive inclusion, localized -> original

    def localize_element(self, elem):
        return RingElement(self.ring, self.map(elem.as_group_element()).coords)

    def pull_back(self, elem):
        """Original-ring representative of a localized element."""
        from .intlinalg import GroupElement

        g = self.section(GroupElement(self.ring.additive, elem.coords))
        return RingElement(self.idempotent.ring, g.coords)


def localize(R, f):
    """Localization at f: the factor ring e R with unit e, where e is the
    Fitting idempotent of f.  The image of f is a unit there; nilpotent f
    yields the zero ring."""
    c, e = fitting_split(R, f)
    if R.rank == 0 or e.is_zero():
        Z = zero_ring()
        triv = GroupHom(R.additive, Z.additive, IntMatrix(0, R.rank, []))
        sec = GroupHom(Z.additive, R.additive, IntMatrix(R.rank, 0, []))
        return Localization(Z, e, c, triv, sec)
    sub = subgroup_embedding(R.additive, _image_span(R, e).cols_list())
    G = sub.group
    basis_lifts = [
        R.element(sub.inclusion(G.element(tuple(1 if t == i else 0 for t in range(G.rank)))).coords)
        for i in range(G.rank)
    ]
    retract_cols = [
        list(sub.classify((e * b).as_group_element()).coords) for b in R.basis()
    ]
    retraction = GroupHom(
        R.additive,
        G,
        IntMatrix.from_cols(retract_cols, rows=G.rank),
    )
    mult_matrices = []
    for i in range(G.rank):
        cols = [
            list(sub.classify((basis_lifts[i] * basis_lifts[j]).as_group_element()).coords)
            for j in range(G.rank)
        ]
        mult_matrices.append(IntMatrix.from_cols(cols, rows=G.rank))
    unit_new = sub.classify(e.as_group_element()).coords
    L = FiniteRing(G, mult_matrices, unit_new)
    return Localization(L, e, c, retraction, sub.inclusion)


def is_covering(R, elements):
    """Covering test: do the elements generate the unit ideal?  On success
    returns (True, coefficients) with sum(a_i * f_i) = 1."""
    if not elements:
        raise InvalidSpec("covering test needs a nonempty element list")
    if R.rank == 0:
        return True, [R.zero() for _ in elements]
    r = R.rank
    cols = []
    for f in elements:
        cols.extend(R.multiplication_hom(f).matrix.cols_list())
    A = IntMatrix.from_cols(cols, rows=r)
    stacked = A.hstack(IntMatrix.diagonal(list(R.additive.invariant_factors)))
    sol = IntLinearSystem(stacked).solve(R.unit_coords)
    if sol is None:
        return False, None
    coeffs = [R.element(sol[t * r : (t + 1) * r]) for t in range(len(elements))]
    acc = R.zero()
    for a, f in zip(coeffs, elements):
        acc = acc + a * f
    if acc != R.one():
        raise AxiomViolation("covering certificate failed to reproduce 1")
    return True, coeffs


def ideal_stabilization(I):
    """Minimal c with I^c = I^{c+1} (I^0 = R), plus the idempotent generator
    of the stable power I^c = e R."""
    R = I.ring
    if R.rank == 0:
        return 0, R.zero()
    cur = Ideal(R, (R.one(),))  # I^0
    c = 0
    while True:
        nxt = ideal_product(cur, I)
        if nxt.span == cur.span:
            break
        cur = nxt
        c += 1
    stable = cur
    if stable.is_zero_ideal():
        return c, R.zero()
    gens = stable.span_elements()
    r = R.rank
    # unknowns: coefficients of e over the stable span; conditions e*g = g
    cond_rows = []
    rhs = []
    for g in gens:
        for k in range(r):
            cond_rows.append([(s * g).coords[k] for s in gens])
            rhs.append(g.coords[k])
    A = IntMatrix.from_rows(cond_rows)
    d = R.additive.invariant_factors
    mod_cols = []
    for t in range(len(gens)):
        for k in range(r):
            col = [0] * (len(gens) * r)
            col[t * r + k] = d[k]
            mod_cols.append(col)
    stacked = A.hstack(IntMatrix.from_cols(mod_cols, rows=len(gens) * r))
    sol = IntLinearSystem(stacked).solve(tuple(rhs))
    if sol is None:
        raise AxiomViolation("stable ideal power has no idempotent generator; data corrupt")
    e = R.zero()
    for coeff, s in zip(sol[: len(gens)], gens):
        e = e + s.scale(coeff)
    return c, e


def _is_local(R, limit=SPLIT_ENUM_LIMIT):
    """Local iff every element is a unit or nilpotent (finite commutative)."""
    if R.order() > limit:
        raise DecompositionBoundExceeded(
            f"locality check needs enumeration; order {R.order()} exceeds {limit}"
        )
    for y in R.elements():
        if not R.is_nilpotent(y) and not R.is_unit(y):
            return False
    return True


def nonunits_form_ideal(R, limit=SPLIT_ENUM_LIMIT):
    """Direct check that the non-units are closed under addition and under
    multiplication by arbitrary elements (the local-ring criterion)."""
    if R.order() > limit:
        raise DecompositionBoundExceeded("ring too large to enumerate")
    nonunits = {y.coords for y in R.elements() if not R.is_unit(y)}
    for a in nonunits:
        for b in nonunits:
            if R.additive.reduce(tuple(x + y for x, y in zip(a, b))) not in nonunits:
                return False
        for r in R.elements():
            if R.mul_coords(a, r.coords) not in nonunits:
                return False
    return True


def primitive_idempotents(R):
    """Orthogonal primitive idempotents summing to 1; each factor e R is a
    local ring.

    The search first splits 1 along the additive primary components (those
    idempotents come for free), then refines each factor with Fitting
    idempotents of its elements, enumerated in deterministic coordinate
    order.  Rings too large to enumerate raise DecompositionBoundExceeded.
    """
    if R.rank == 0:
        return []
    order = R.order()
    primes = []
    n = order
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    current = []
    for p in primes:
        ppart = 1
        o = order
        while o % p == 0:
            ppart *= p
            o //= p
        rest = order // ppart
        # scalar congruent to 1 mod p-part and 0 mod the rest: CRT idempotent
        scalar = rest * pow(rest % ppart, -1, ppart) if rest % ppart else 0
        if rest == 1:
            scalar = 1
        e = R.one().scale(scalar)
        if not e.is_zero():
            current.append(e)
    if not current:
        current = [R.one()]

    result = []
    work = list(current)
    while work:
        e = work.pop(0)
        factor_order = span_subgroup_order(R.additive, _image_span(R, e))
        if factor_order > SPLIT_ENUM_LIMIT:
            raise DecompositionBoundExceeded(
                f"factor of order {factor_order} too large to enumerate"
            )
        split = None
        for y in R.elements():
            ey = e * y
            if ey.is_zero() or ey == e:
                continue
            _, eps = _factor_fitting_idempotent(R, e, ey)
            if not eps.is_zero() and eps != e:
                split = eps
                break
        if split is None:
            result.append(e)
        else:
            work.append(split)
            work.append(e - split)

    total = R.zero()
    for e in result:
        if e * e != e:
            raise DecompositionBoundExceeded("splitting produced a non-idempotent")
        total = total + e
    if total != R.one():
        raise DecompositionBoundExceeded("idempotents do not sum to 1")
    for i, a in enumerate(result):
        for b in result[i + 1 :]:
            if not (a * b).is_zero():
                raise DecompositionBoundExceeded("idempotents are not orthogonal")
    for e in result:
        if not _is_local(localize(R, e).ring):
            raise DecompositionBoundExceeded("splitting stalled on a non-local factor")
    return sorted(result, key=lambda e: e.coords)


def _factor_fitting_idempotent(R, e, y):
    """Fitting split of y inside the factor ring e R, computed in R.

    Returns (c, eps): c minimal with y^c e R = y^{c+1} e R and eps the
    idempotent with eps R = y^c e R; eps is 0 for nilpotent-on-the-factor
    and e for units of the factor."""
    prev = _image_span(R, e)
    cur = e
    c = 0
    while True:
        nxt_elem = cur * y
        nxt = _image_span(R, nxt_elem)
        if nxt == prev:
            break
        prev = nxt
        cur = nxt_elem
        c += 1
    yc = cur
    span_elems = [R.element(col) for col in prev.cols_list()]
    if all(s.is_zero() for s in span_elems):
        return c, R.zero()
    # solve y^c * eps = y^c with eps in the span of y^c e R; Fitting's lemma
    # makes the solution idempotent and the identity of y^c e R
    cols = [list((yc * s).coords) for s in span_elems]
    A = IntMatrix.from_cols(cols, rows=R.rank)
    stacked = A.hstack(IntMatrix.diagonal(list(R.additive.invariant_factors)))
    sol = IntLinearSystem(stacked).solve(yc.coords)
    if sol is None:
        raise AxiomViolation("factor Fitting equation unsolvable; ring data corrupt")
    eps = R.zero()
    for coeff, s in zip(sol[: len(span_elems)], span_elems):
        eps = eps + s.scale(coeff)
    return c, eps
