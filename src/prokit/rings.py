"""Finite commutative unital rings given by structure constants.

A ring is a finite abelian group in invariant-factor form together with a
multiplication tensor over that basis and a distinguished unit.  The
constructors cover cyclic rings, finite products, quotients by ideals, the
truncated families used for the divergence sweeps, and raw structure
constants.  Raw tables, products and quotients are built one way
(`_transported_ring`): from a presentation (G, P, S) of the new additive
group over old generators and the matrices L_a of multiplication by each
old generator, the new basis element i multiplies by P * L(S_i) * S, each
column reduced into G, with no per-pair structure constants.  A truncated
polynomial ring needs no presentation: its shift matrices already act on
(q,)^n.  On top of the arithmetic sit the Fitting decomposition (which
realizes localization at a single element), ideal power stabilization,
covering sequences, and the primitive idempotent splitting into local
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    AxiomViolation,
    DecompositionBoundExceeded,
    DimensionMismatch,
    InsufficientBound,
    InvalidSpec,
)
from .intlinalg import (
    FinAbGroup,
    GroupHom,
    IntMatrix,
    _solve,
    cokernel_presentation,
    induced_actions,
    linear_combination,
    matrix_combination,
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
    Products run over the nonzero constants alone, which the first product
    reads off and keeps on the ring.  Equality and hashing ignore them, and
    equality returns at once when both sides are the same object.

    The constructor checks no axioms.  Ring data from outside enters only
    through `ring_from_raw`, which runs `check_ring_axioms`; the `axioms`
    task diagnoses a raw table without rejecting it; every other ring is
    built from valid rings by a construction that keeps the axioms.  The
    test suite checks the axioms of every ring it constructs.
    """

    def __init__(self, additive, mult_matrices, unit_coords):
        self.additive = additive
        self.mult_matrices = tuple(mult_matrices)
        self.unit_coords = additive.reduce(tuple(unit_coords)) if additive.rank else ()
        # x.coords -> fitting_split(self, x), kept by its first call for x;
        # equality and hashing ignore it
        self._splits = {}
        # per basis element i, the (j, k, c[i][j][k]) with c != 0
        self._constants = None

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
        m = matrix_combination(elem.coords, self.mult_matrices, self.rank)
        return GroupHom(self.additive, self.additive, m)

    def mul_coords(self, a, b):
        """Coordinates of the product: a_i * b_j * c summed into coordinate k
        over the kept (j, k, c) of each nonzero a_i, and reduced once.

        >>> truncated_two_power(3)[0].mul_coords((1, 3, 5), (1, 2, 7))  # Z/2 x Z/4 x Z/8
        (1, 2, 3)
        """
        if self._constants is None:
            r = self.rank
            self._constants = [
                [(j, k, m[k, j]) for j in range(r) for k in range(r) if m[k, j]]
                for m in self.mult_matrices
            ]
        out = [0] * self.rank
        for ca, terms in zip(a, self._constants):
            if ca:
                for j, k, c in terms:
                    out[k] += ca * c * b[j]
        return tuple(x % d for x, d in zip(out, self.additive.invariant_factors))

    def elements(self, limit=ENUMERATION_LIMIT):
        for g in self.additive.elements(limit=limit):
            yield RingElement(self, g.coords)

    def is_unit(self, elem):
        m, G = self.multiplication_hom(elem).matrix, self.additive
        return _solve(m, self.unit_coords, G, G.invariant_factors) is not None

    def __eq__(self, other):
        return self is other or (
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
        # from the leading bit down: bit_length(n) + popcount(n) - 2 products
        result = self if n else self.ring.one()
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
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
    Returns a list of failure descriptions (empty when all axioms hold).

    Runs at runtime on raw tables only: `ring_from_raw` rejects a table that
    fails, and the `axioms` task reports the failures; the test suite runs
    it on every ring it constructs.  Associativity costs one matrix
    comparison per basis pair (i, j): column k of L_{e_i e_j} is
    (e_i e_j) e_k and column k of L_i . reduce(L_j) is e_i (e_j e_k), with
    L_t the multiplication matrix of e_t.
    """
    failures = []
    n = R.rank
    if n == 0:
        return failures
    basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    d = R.additive.invariant_factors
    prods = [[R.mul_coords(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if prods[i][j] != prods[j][i]:
                failures.append(f"commutativity fails at basis pair ({i}, {j})")
    L = R.mult_matrices
    flat = [[m[r, k] for r in range(n) for k in range(n)] for m in L]
    # row t of reduce(L_j): the t-th coordinates of e_j e_k over k
    reduced_rows = [[[prods[j][k][t] for k in range(n)] for t in range(n)] for j in range(n)]
    mods = [dr for dr in d for _ in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = linear_combination(prods[i][j], flat)
            rhs = []
            for r in range(n):
                rhs.extend(linear_combination(L[i].row(r), reduced_rows[j]))
            diff = [(a - b) % m for a, b, m in zip(lhs, rhs, mods)]
            if any(diff):
                for k in range(n):
                    if any(diff[r * n + k] for r in range(n)):
                        failures.append(f"associativity fails at basis triple ({i}, {j}, {k})")
    for i in range(n):
        if R.mul_coords(R.unit_coords, basis[i]) != basis[i]:
            failures.append(f"unit law fails at basis element {i}")
    for i in range(n):
        for j in range(n):
            scaled = tuple(d[i] * c for c in prods[i][j])
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


def _transported_ring(G, P, S, left, unit_coords):
    """The ring on the presented group G, carried over from the
    multiplication of s old generators.

    (G, P, S) comes from `cokernel_presentation` over the s old
    generators, so column i of S lifts the new basis element e_i and P
    projects old coordinates onto G.  `left[a]` is the s x s matrix of
    multiplication by old generator a, so the lift S_i multiplies by
    L(S_i) = sum_a S[a, i] * left[a] and e_i by P * L(S_i) * S, each column
    reduced into G.  This is the one way a ring is built from another: raw
    tables, products and quotients differ only in their `left`.
    """
    if G.rank == 0:
        return zero_ring()
    d = G.invariant_factors
    lifts = S.cols_list()
    proj_cols = P.cols_list()
    mult_matrices = []
    for lift in lifts:
        cols = matrix_combination(lift, left, P.cols).cols_list()
        images = [linear_combination(linear_combination(b, cols), proj_cols) for b in lifts]
        reduced = [[x % m for x, m in zip(v, d)] for v in images]
        mult_matrices.append(IntMatrix.from_cols(reduced, rows=G.rank))
    return FiniteRing(G, mult_matrices, P.apply(tuple(unit_coords)))


def _raw_ring(orders, products, unit_coords):
    """The ring of raw structure constants, transported to the canonical
    basis of the additive group, with no axiom checked: the `axioms` task
    reports what `check_ring_axioms` finds in it.  An order below 1 is
    InvalidSpec, not read as its absolute value."""
    if any(d < 1 for d in orders):
        raise InvalidSpec(f"raw orders must be >= 1, got {list(orders)}")
    s = len(orders)
    G, P, S = cokernel_presentation(IntMatrix.zero(s, 0), list(orders))
    left = [IntMatrix.from_cols([list(v) for v in row], rows=s) for row in products]
    return _transported_ring(G, P, S, left, unit_coords)


def ring_from_raw(orders, products, unit_coords):
    """Ring from raw structure constants over generators with the given
    additive orders; `products[i][j]` is the coordinate vector of g_i * g_j.

    Raw tables are where ring data from outside enters, so this is the one
    constructor that checks the axioms at runtime: `check_ring_axioms` runs
    on the canonicalized result (`_raw_ring`) and any failure raises
    AxiomViolation naming the first three.
    """
    ring = _raw_ring(orders, products, unit_coords)
    failures = check_ring_axioms(ring)
    if failures:
        raise AxiomViolation("; ".join(failures[:3]))
    return ring


def product_ring(factors):
    """Finite product of rings with componentwise operations.

    Returns (ring, embed); embed maps a tuple with one element per factor to
    the corresponding element of the product.
    """
    orders = [d for R in factors for d in R.additive.invariant_factors]
    s = len(orders)
    # generator (t, j) multiplies by factor t's matrix j in block t
    left = []
    offset = 0
    for R in factors:
        for m in R.mult_matrices:
            rows = [[0] * s for _ in range(s)]
            for r in range(R.rank):
                rows[offset + r][offset : offset + R.rank] = m.row(r)
            left.append(IntMatrix.from_rows(rows))
        offset += R.rank
    unit = [c for R in factors for c in R.unit_coords]
    G, P, S = cokernel_presentation(IntMatrix.zero(s, 0), orders)
    ring = _transported_ring(G, P, S, left, unit)

    def embed(parts):
        if len(parts) != len(factors):
            raise DimensionMismatch("one element per factor required")
        vec = [c for part in parts for c in part.coords]
        return ring.element(P.apply(tuple(vec))) if ring.rank else ring.zero()

    return ring, embed


@dataclass(frozen=True)
class Ideal:
    """Ideal of a finite ring, normalized to a canonical additive span.

    The span (`ideal_span`) is computed on its first read and kept; an
    ideal that is only passed to `stable_idempotent`, which reads the
    generators, never builds it.  Equality and hashing read the span."""

    ring: FiniteRing
    generators: tuple
    _span: IntMatrix = field(init=False, compare=False, default=None, repr=False)
    # e with I^c = e R, kept by the first `stable_idempotent(I)`
    idempotent: RingElement = field(init=False, compare=False, default=None, repr=False)

    @property
    def span(self):
        """The canonical additive span, built on the first read."""
        if self._span is None:
            object.__setattr__(self, "_span", ideal_span(self.ring, self.generators))
        return self._span

    def contains(self, elem):
        return span_contains(self.ring.additive, self.span, elem.coords)

    def order(self):
        return span_subgroup_order(self.ring.additive, self.span)

    def is_unit_ideal(self):
        return self.contains(self.ring.one())

    def span_elements(self):
        """Ring elements of the canonical span columns (reduced)."""
        return [self.ring.element(c) for c in self.span.cols_list()]

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.ring == other.ring and self.span == other.span

    def __hash__(self):
        return hash((self.ring, self.span))


def ideal_span(R, generators):
    """Canonical additive span of the generated ideal: one reduction of the
    products of the generators with the basis.  R is additively spanned by
    its basis, so those products span R * (generators); a canonical span is
    unique, so it is the span any generating set gives.  More generators
    than the rank r (`ideal_product` passes r^2) are first replaced by the
    r columns of their canonical span, which generate the same additive
    group with the relations."""
    if R.rank == 0:
        return IntMatrix(0, 0, [])
    gens = [g.coords for g in generators]
    if len(gens) > R.rank:
        gens = [R.additive.reduce(tuple(c)) for c in span_lattice(R.additive, gens).cols_list()]
    basis = [b.coords for b in R.basis()]
    return span_lattice(R.additive, [R.mul_coords(g, b) for g in gens for b in basis])


def ideal(R, generators):
    return Ideal(R, tuple(generators))


def ideal_product(I, J):
    gens = [a * b for a in I.span_elements() for b in J.span_elements()]
    return Ideal(I.ring, tuple(gens))


def ideal_sum(I, J):
    return Ideal(I.ring, I.generators + J.generators)


def quotient_ring(R, I):
    """Quotient by a proper ideal; the unit ideal is rejected (construct the
    zero ring explicitly when that is what you mean).  Returns (Q, project)."""
    if I.is_unit_ideal():
        raise InvalidSpec("quotient by the unit ideal; use zero_ring instead")
    G, P, S = cokernel_presentation(I.span, list(R.additive.invariant_factors))
    if G.rank == 0:
        raise AxiomViolation("proper ideal produced a trivial quotient; data corrupt")
    Q = _transported_ring(G, P, S, R.mult_matrices, R.unit_coords)

    def project(elem):
        return Q.element(P.apply(elem.coords))

    return Q, project


def truncated_two_power_factors(N):
    """The factors Z/2^n, n = 1..N, of `truncated_two_power(N)`, each with
    the image of 2.  Returns [(ring, x)]."""
    if N < 1:
        raise InvalidSpec("truncation length must be >= 1")
    return [(R, R.from_int(2)) for R in (zmod(2 ** n) for n in range(1, N + 1))]


def truncated_two_power(N):
    """Truncation of the product of Z/2^n: the ring Z/2 x Z/4 x ... x Z/2^N.

    Returns (ring, x, one) with x the image of (2 mod 2^n)_n.
    """
    return _diagonal_product(truncated_two_power_factors(N))


def _diagonal_product(factors):
    """(ring, x, one) for factors [(R_n, x_n)]: the product of the R_n with
    x = (x_n)_n."""
    ring, embed = product_ring([R for R, _ in factors])
    return ring, embed([x for _, x in factors]), ring.one()


def require_prime(q):
    """Raise InvalidSpec unless the integer q is a prime."""
    if q < 2 or any(q % p == 0 for p in range(2, int(q ** 0.5) + 1)):
        raise InvalidSpec(f"modulus {q} is not prime")


def truncated_polynomial(q, n):
    """The ring F_q[t]/(t^n) for a prime q.  Returns (ring, tbar)."""
    require_prime(q)
    if n < 1:
        raise InvalidSpec("nilpotency order must be >= 1")
    # basis 1, t, ..., t^{n-1}: (q,)^n is already a divisibility chain, and
    # t^i shifts t^j to t^{i+j}
    shifts = [
        IntMatrix.from_rows([[1 if k == i + j else 0 for j in range(n)] for k in range(n)])
        for i in range(n)
    ]
    ring = FiniteRing(FinAbGroup((q,) * n), shifts, (1,) + (0,) * (n - 1))
    return ring, ring.element(tuple(1 if k == 1 else 0 for k in range(n)))


def truncated_polynomial_factors(q, N):
    """The factors F_q[t]/(t^n), n = 1..N, of
    `truncated_polynomial_family(q, N)`, each with the image of t.
    Returns [(ring, t)]."""
    return [truncated_polynomial(q, n) for n in range(1, N + 1)]


def truncated_polynomial_family(q, N):
    """Product of F_q[t]/(t^n) for n = 1..N with the diagonal image of t;
    the finite analog of the power-series truncation family.  Returns
    (ring, x, one)."""
    return _diagonal_product(truncated_polynomial_factors(q, N))


# ---------------------------------------------------------------------------
# Multiplicative structure


def fitting_split(R, x):
    """Fitting decomposition along x.

    Returns (c, e): c minimal with x^c R = x^{c+1} R and e the unique
    idempotent with e R = x^c R.  Multiplication by x is bijective on e R
    and nilpotent on (1-e) R.  Units give (0, 1), nilpotents (c, 0).

    The bound c < bit_length(|R|): each strict step of the chain
    R > xR > x^2 R > ... > x^c R is a proper subgroup, so it at least
    halves the ideal; hence 2^c <= |R| < 2^bit_length(|R|).  The same
    holds for y in a factor ring e R.  A nilpotent x has x^c = 0, so
    s squarings with 2^s >= bit_length(|R|) reach x^c; the split
    (`_factor_fitting_idempotent`) rests on this bound; the Cech homology
    reads no level of x, only its idempotents (`complexes._homology_limit`).

    c bounds the torsion index of x on every R-module M: x^c (1 - e) = 0
    in R, so x^c kills (1 - e) M while x is bijective on e M, and
    0 :_M x^c = 0 :_M x^(c+1).  It is the stop bound of every colon scan
    (`analysis._witness_scan`), and equals the torsion index for M = R.

    The split is a function of (R, x) alone: the first call for x computes
    it and keeps it on R, and later calls for x read it there.  An x of
    another ring is a DimensionMismatch, as its coordinates name a
    different element of R.

    >>> R = zmod(12)
    >>> c, e = fitting_split(R, R.from_int(2))
    >>> c, e.coords
    (2, (4,))
    """
    if x.ring != R:
        raise DimensionMismatch("scalar from a different ring")
    if R.rank == 0:
        return 0, R.zero()
    if x.coords not in R._splits:
        R._splits[x.coords] = _factor_fitting_idempotent(R, R.one(), x)
    return R._splits[x.coords]


@dataclass(frozen=True)
class Localization:
    """Localization of a finite ring at one element, realized as e R."""

    ring: FiniteRing          # e R on its own canonical basis
    idempotent: RingElement   # e in the original ring
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
    _, e = fitting_split(R, f)
    if R.rank == 0 or e.is_zero():
        Z = zero_ring()
        triv = GroupHom(R.additive, Z.additive, IntMatrix(0, R.rank, []))
        sec = GroupHom(Z.additive, R.additive, IntMatrix(R.rank, 0, []))
        return Localization(Z, e, triv, sec)
    sub = subgroup_embedding(R.additive, R.multiplication_hom(e).matrix.cols_list())
    lifts = [R.element(c) for c in sub.lift.matrix.cols_list()]
    mults = induced_actions([R.multiplication_hom(x) for x in lifts], sub)
    mult_matrices = [h.matrix for h in mults]
    L = FiniteRing(sub.group, mult_matrices, sub.classify(e.as_group_element()).coords)
    retraction = sub.classify_hom(R.multiplication_hom(e))
    return Localization(L, e, retraction, sub.lift)


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
    sol = _solve(A, R.unit_coords, R.additive, R.additive.invariant_factors * len(elements))
    if sol is None:
        return False, None
    coeffs = [R.element(sol[t * r : (t + 1) * r]) for t in range(len(elements))]
    acc = R.zero()
    for a, f in zip(coeffs, elements):
        acc = acc + a * f
    if acc != R.one():
        raise AxiomViolation("covering certificate failed to reproduce 1")
    return True, coeffs


def ring_product(R, elements):
    """The product of a list of elements of R, none by the unit (1 if empty)."""
    return math.prod(elements[1:], start=elements[0]) if elements else R.one()


def stable_idempotent(I):
    """The idempotent e with I^c = e R for the stable power I^c of I.

    A finite ring is a product of local rings R_j (Atiyah-Macdonald, ch. 8).
    In R_j an element is a unit or nilpotent, so I^c has the factor R_j
    when some generator is a unit there and is 0 there otherwise; the
    Fitting idempotent of g is the sum of the 1_j where g is a unit.  So
    e = 1 - prod(1 - e_g) over the generators g, read from their Fitting
    splits (`fitting_split`, kept on the ring) on the first call for I; e
    is kept on I for later calls.

    >>> R = zmod(12)
    >>> stable_idempotent(ideal(R, [R.from_int(2), R.from_int(6)])).coords
    (4,)
    """
    if I.idempotent is None:
        one = I.ring.one()
        rest = ring_product(I.ring, [one - fitting_split(I.ring, g)[1] for g in I.generators])
        object.__setattr__(I, "idempotent", one - rest)
    return I.idempotent


def ideal_stabilization(I):
    """Minimal c with I^c = I^{c+1} (I^0 = R), plus the idempotent generator
    of the stable power I^c = e R (`stable_idempotent`)."""
    R = I.ring
    cur = Ideal(R, (R.one(),))  # I^0
    c = 0
    while True:
        nxt = ideal_product(cur, I)
        if nxt.span == cur.span:
            break
        cur = nxt
        c += 1
    return c, stable_idempotent(I)


def primitive_idempotents(R):
    """Orthogonal primitive idempotents summing to 1; each factor e R is a
    local ring.

    The search first splits 1 along the additive primary components, which
    come for free: for |R| = p^a m with p not dividing m, m * 1 is a unit on
    the p-part of R and 0 on the rest, so its Fitting idempotent
    (`fitting_split`) is the unit of the p-part.  Then each factor e R is
    refined by the Fitting idempotents of its elements, enumerated through
    its own additive group (the span of the columns of multiplication by
    e) in deterministic coordinate order.  That visits every element of
    e R, so a factor that no element splits has only units and nilpotents
    and is local.  Factors too large to enumerate raise InsufficientBound;
    a splitting that breaks the idempotent laws raises
    DecompositionBoundExceeded.
    """
    if R.rank == 0:
        return []
    order = R.order()
    work, n, p = [], order, 2
    while n > 1:
        if p * p > n:
            p = n  # what is left of n is prime
        if n % p == 0:
            while n % p == 0:
                n //= p
            m = order
            while m % p == 0:
                m //= p
            work.append(fitting_split(R, R.from_int(m))[1])
        p += 1

    result = []
    while work:
        e = work.pop()
        sub = subgroup_embedding(R.additive, R.multiplication_hom(e).matrix.cols_list())
        if sub.group.order() > SPLIT_ENUM_LIMIT:
            raise InsufficientBound(f"factor of order {sub.group.order()} too large to enumerate")
        for g in sub.group.elements():
            _, eps = _factor_fitting_idempotent(R, e, RingElement(R, sub.lift(g).coords))
            if not eps.is_zero() and eps != e:
                work += [eps, e - eps]
                break
        else:
            result.append(e)

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
    return sorted(result, key=lambda e: e.coords)


def _factor_fitting_idempotent(R, e, y):
    """Fitting split of y inside the factor ring e R, computed in R.

    Returns (c, eps): c minimal with y^c e R = y^{c+1} e R and eps the
    idempotent with eps R = y^c e R; eps is 0 for nilpotent-on-the-factor
    and e for units of the factor.  By the bound of `fitting_split`, c <
    N = bit_length(|R|), so z = (e y)^(2^s) with 2^s >= N (s squarings) is
    a unit on each local factor of e R where y is a unit and 0 where y is
    nilpotent; eps is 1 on the first kind and 0 on the second.  So eps = z
    when z is 0 or idempotent, and otherwise eps = z w for any solution w
    of z^2 w = z (w inverts z on eps R, which is all z lives on, so eps
    does not depend on the w the solver returns).  On (e - eps) R, y is
    nilpotent, so c is the least k with y^k (e - eps) = 0, found by a
    galloping search over the squarings' powers in about 2 log2(c) products."""
    n = R.order().bit_length()
    powers = [y if e.coords == R.unit_coords else e * y]  # (e y)^(2^t), t = 0..s
    for _ in range((n - 1).bit_length()):
        powers.append(powers[-1] * powers[-1])
    z = powers[-1]
    zz = z * z
    if z.is_zero() or zz == z:
        eps = z
    else:
        G = R.additive
        w = _solve(R.multiplication_hom(zz).matrix, z.coords, G, G.invariant_factors)
        if w is None:
            raise AxiomViolation("factor Fitting equation unsolvable; ring data corrupt")
        eps = z * R.element(w)
    rest = e - eps
    if rest.is_zero():
        return 0, eps
    # the first t with (e y)^(2^t) rest = 0 puts c in (2^(t-1), 2^t], and
    # halving that interval with the lower powers finds it
    below, low = 0, rest  # y^below rest = low, not 0
    for t, p in enumerate(powers):
        tested = p if eps.is_zero() else p * rest  # rest = e when eps = 0
        if tested.is_zero():
            break
        below, low = 1 << t, tested
    for j in range(t - 2, -1, -1):
        cand = low * powers[j]
        if not cand.is_zero():
            below, low = below + (1 << j), cand
    if below >= n:  # also when no power kills rest, as then below >= 2^s >= n
        raise AxiomViolation("Fitting index reached bit_length(|R|); ring data corrupt")
    return below + 1, eps
