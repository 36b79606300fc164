"""Finitely generated modules over finite rings.

Modules are finite abelian groups with one action matrix per ring basis
element.  This file carries the functor toolkit the analysis layer runs on:
submodule spans, colon and torsion constructions, divisibility, Matlis
duality (the character module M^dual, which is Hom_R(M, R^dual) for the
injective cogenerator R^dual), free resolutions (free modules addressed
by index: R^s is the module power of R), adic completion, and local
cohomology, which comes from the stable idempotent with no resolution.
Tor/Ext through a resolution of the first argument (`derived_functor`),
homology of a two-map complex (`homology_module`), the cyclic module R/I
(`cyclic_quotient_module`) and Hom_R(M, N) from its action-commutation
system over Z are reference routes in `tests/complex_reference.py`: the
runtime takes none of them, and the test suite checks local cohomology,
the Tor comparison and the Matlis dual against them.

Submodules are stored as canonical column-HNF spans of the additive
lattice, so equality compares the matrices, and membership and inclusion
are forward substitution along the lower-triangular span
(`intlinalg.span_contains`), with no normal form per query.  The submodule
generated by some vectors is one canonical span of their images under the
ring basis (`span_closure`).

A direct sum of modules is a power N^s, and it is described by its slot
map alone: `module_power` returns one record (`ModulePower`: the module,
its base N and `positions`, from `_power_layout`), and `free_module(R, s)`
is that record for N = R.  One writer (`_written`) puts each block of a
map at the slots of its copies; it writes each power's own actions and,
under `block_hom`, every map between powers: the Koszul, Cech and total
complexes of the complexes layer, which are all built on module powers.
No injection or projection matrix is formed.
Quotient generators are lifted back only through the section read off
the one Smith reduction of `intlinalg` (quotients and subquotients);
nothing here solves for a lift on its own.  Quotient,
submodule, subquotient and localized modules carry an
`intlinalg.GroupSubquotient` and get all their actions from one
`intlinalg.induced_actions` call on it, the one lift/classify path: one
classification of every action's lifted columns, and none on a zero
module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AxiomViolation, DimensionMismatch, InvalidSpec
from .intlinalg import (
    FinAbGroup,
    GroupHom,
    GroupSubquotient,
    IntMatrix,
    _moduli_matrix,
    _selection_order,
    hom_image_span,
    hom_kernel_span,
    induced_actions,
    intersect_spans,
    linear_combination,
    matrix_combination,
    preimage_span,
    span_contains,
    span_lattice,
    span_leq,
    span_subgroup_order,
    subgroup_embedding,
    subquotient_group,
)
from .rings import RingElement, stable_idempotent


class FgModule:
    """Finitely generated module over a FiniteRing: a finite abelian group
    plus the action of each ring basis element.

    The constructor checks no axioms.  A module from outside enters only as
    a presentation, a quotient of a free module (`module_from_presentation`),
    and every construction here builds modules from modules, so the axioms
    hold by construction.  The test suite runs `validate` on every module
    it constructs.
    """

    def __init__(self, ring, group, actions):
        self.ring = ring
        self.group = group
        self.actions = tuple(actions)
        if len(self.actions) != ring.rank:
            raise DimensionMismatch("one action per ring basis element required")
        # the `analysis._ScanContext` of this module, made by its first
        # scan; equality and hashing ignore it
        self._scans = None

    def validate(self):
        """Well-defined actions, each killed by the additive order of its
        basis element, unit acting as identity, structure-constant
        compatibility of the action maps.  Returns a list of failure
        descriptions (empty when all axioms hold)."""
        failures = []
        R = self.ring
        for i, A in enumerate(self.actions):
            if not A.is_well_defined():
                failures.append(f"action of basis element {i} is not well defined")
            if not A.scale(R.additive.invariant_factors[i]).is_zero_map():
                failures.append(f"action of basis element {i} is not killed by its order")
        unit_action = self._combine(R.unit_coords)
        if not unit_action.equals_map(GroupHom.identity(self.group)):
            failures.append("unit does not act as the identity")
        # A_i A_j against A_{e_i e_j}, entrywise modulo the factor of each row
        n = self.group.rank
        mods = [d for d in self.group.invariant_factors for _ in range(n)]
        rows = [[A.matrix.row(r) for r in range(n)] for A in self.actions]
        flat = [[e for row in rs for e in row] for rs in rows]
        basis = [tuple(1 if t == i else 0 for t in range(R.rank)) for i in range(R.rank)]
        for i in range(R.rank):
            for j in range(R.rank):
                lhs = [e for row in rows[i] for e in linear_combination(row, rows[j])]
                rhs = linear_combination(R.mul_coords(basis[i], basis[j]), flat)
                if any((a - b) % m for a, b, m in zip(lhs, rhs, mods)):
                    failures.append(f"action composition fails at basis pair ({i}, {j})")
        return failures

    def _combine(self, ring_coords):
        """Group hom for the action of the element with these coordinates."""
        mat = matrix_combination(ring_coords, [A.matrix for A in self.actions], self.group.rank)
        return GroupHom(self.group, self.group, mat)

    def action_hom(self, relem):
        if relem.ring != self.ring:
            raise DimensionMismatch("scalar from a different ring")
        return self._combine(relem.coords)

    def act(self, relem, m):
        return self.action_hom(relem)(m)

    def element(self, coords):
        return self.group.element(coords)

    def zero(self):
        return self.group.zero()

    def generators(self):
        return self.group.generators()

    def order(self):
        return self.group.order()

    def is_zero_module(self):
        return self.group.rank == 0

    def full_span(self):
        """The canonical span of the whole group: the identity."""
        return IntMatrix.identity(self.group.rank)

    def zero_span(self):
        """The canonical span of 0: the relations diag(d_1..d_r)."""
        return _moduli_matrix(self.group)

    def __eq__(self, other):
        return (
            isinstance(other, FgModule)
            and self.ring == other.ring
            and self.group == other.group
            and self.actions == other.actions
        )

    def __hash__(self):
        return hash((self.ring, self.group, self.actions))

    def __str__(self):
        return f"FgModule({self.group} over ring of order {self.ring.order()})"


def zero_module(R):
    G = FinAbGroup(())
    return FgModule(R, G, [GroupHom.identity(G)] * R.rank)


@dataclass(frozen=True)
class ModuleHom:
    """R-linear map between modules, carried by a group hom."""

    source: FgModule
    target: FgModule
    hom: GroupHom

    def __post_init__(self):
        if self.hom.source != self.source.group or self.hom.target != self.target.group:
            raise DimensionMismatch("underlying hom does not match the modules")

    def check_equivariance(self):
        for i in range(self.source.ring.rank):
            lhs = self.hom.compose(self.source.actions[i])
            rhs = self.target.actions[i].compose(self.hom)
            if not lhs.equals_map(rhs):
                return False
        return True

    def __call__(self, m):
        return self.hom(m)

    def compose(self, other):
        return ModuleHom(other.source, self.target, self.hom.compose(other.hom))

    def is_zero_map(self):
        return self.hom.is_zero_map()

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, GroupHom.zero(source.group, target.group))


def ring_as_module(R):
    """R as a module over itself."""
    actions = [GroupHom(R.additive, R.additive, m) for m in R.mult_matrices]
    return FgModule(R, R.additive, actions)


@dataclass(frozen=True)
class ModulePower:
    """N^s, the direct sum of s copies of N, described by its slot map alone.

    The layout (`_power_layout`) is a permutation, so generator p of the
    power's group is generator j of copy u for exactly one (u, j):
    `positions[u][j]` is that p.  Elements are written and read at those
    positions, and every map into a power, out of it or between powers is
    written there (`_written`); no injection or projection is formed.  The
    free module R^s is the power of R (`free_module`)."""

    module: FgModule
    base: FgModule  # N
    positions: tuple  # positions[u][j]: the generator of N^s that is generator j of copy u

    @property
    def rank(self):
        """s, the number of copies."""
        return len(self.positions)

    def element(self, parts):
        """The element with part u in copy u; each part is given by the
        coordinates of an element of N (a ring element, for R^s)."""
        if len(parts) != self.rank:
            raise DimensionMismatch("one part per copy")
        coords = [0] * self.module.group.rank
        for pos, part in zip(self.positions, parts):
            for p, c in zip(pos, part.coords):
                coords[p] = c
        return self.module.element(coords)

    def coords(self, m):
        """The coordinates of the parts of an element, one tuple per copy:
        its entries at the copy's positions, reduced into N's factors."""
        reduce = self.base.group.reduce
        return tuple(reduce(tuple(m.coords[p] for p in pos)) for pos in self.positions)


def _power_layout(group, s):
    """The group of s copies of `group` and positions[u][j], the generator
    that is generator j of copy u.

    The copy-major factor list is sorted by `intlinalg._selection_order`:
    the first smallest remaining factor is swapped forward.  That is the
    order `snf` leaves a diagonal divisibility chain in, and the one
    `_smith_presentation` reads such a diagonal in, so no normal form is
    needed and the layout is the canonical direct sum of s copies."""
    r = group.rank
    # slot[p]: the copy-major index placed at position p
    facs, slot = _selection_order(group.invariant_factors * s)
    positions = [[0] * r for _ in range(s)]
    for p, q in enumerate(slot):
        positions[q // r][q % r] = p
    return FinAbGroup(tuple(facs)), tuple(map(tuple, positions))


def _written(rows, cols, src_positions, tgt_positions, blocks):
    """The rows x cols matrix that sums c * A over the blocks (t, s, A, c),
    A a GroupHom from copy s to copy t: entry (a, b) of c * A goes to
    (tgt_positions[t][a], src_positions[s][b]).  The one writer of maps
    between module powers and of their actions."""
    acc = [0] * (rows * cols)
    for t, s, A, c in blocks:
        # A's row-major entries, read with one running index
        data, i = A.matrix._data, 0
        at = src_positions[s]
        for pa in tgt_positions[t]:
            row = pa * cols
            for pb in at:
                x = data[i]
                i += 1
                if x:
                    acc[row + pb] += c * x
    return IntMatrix._of(rows, cols, tuple(acc))


def module_power(N, s):
    """N^s as a `ModulePower` (the zero module for s = 0), laid out by
    `_power_layout`, with each action N's on every copy (`_written`).

    Over Z/2 x Z/4, two copies of the group (2, 4) interleave: the factors
    2 of both copies come first.

    >>> from prokit.rings import product_ring, zmod
    >>> R, _ = product_ring([zmod(2), zmod(4)])
    >>> P = module_power(ring_as_module(R), 2)
    >>> P.module.group.invariant_factors, P.positions
    ((2, 2, 4, 4), ((0, 2), (1, 3)))
    """
    if s < 0:
        raise InvalidSpec(f"module power needs s >= 0, got {s}")
    if s == 1:
        # one copy is laid out as N itself
        return ModulePower(N, N, (tuple(range(N.group.rank)),))
    G, positions = _power_layout(N.group, s)
    n = G.rank
    actions = [
        GroupHom(G, G, _written(n, n, positions, positions, [(u, u, A, 1) for u in range(s)]))
        for A in N.actions
    ]
    return ModulePower(FgModule(N.ring, G, actions), N, positions)


def free_module(R, s):
    """R^s: the `module_power` of R as a module over itself."""
    return module_power(ring_as_module(R), s)


def block_hom(src, tgt, blocks):
    """The map from the power `src` to the power `tgt` that sums c * A from
    copy s to copy t over the blocks (t, s, A, c), A a GroupHom from the
    group of src's base to that of tgt's, written at the slots
    (`_written`)."""
    if any(A.source != src.base.group or A.target != tgt.base.group for _, _, A, _ in blocks):
        raise DimensionMismatch("block does not fit its summands")
    G, H = src.module.group, tgt.module.group
    return GroupHom(G, H, _written(H.rank, G.rank, src.positions, tgt.positions, blocks))


# ---------------------------------------------------------------------------
# Submodules


@dataclass(frozen=True)
class Submodule:
    """Canonical additive span, closed under every ring action."""

    parent: FgModule
    span: IntMatrix

    def contains(self, m):
        return span_contains(self.parent.group, self.span, m.coords)

    def leq(self, other):
        if self.parent != other.parent:
            raise DimensionMismatch("submodules of different modules")
        return span_leq(self.parent.group, self.span, other.span)

    def order(self):
        return span_subgroup_order(self.parent.group, self.span)

    def span_elements(self):
        return [self.parent.element(c) for c in self.span.cols_list()]

    def is_zero(self):
        return self.order() == 1

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.parent == other.parent
            and self.span == other.span
        )

    def __hash__(self):
        return hash((self.parent.group, self.span))


def span_closure(M, vectors):
    """Canonical span of the submodule generated by `vectors`: the additive
    span of b.v over the ring basis b.  It contains each v, since the basis
    spans 1, and it is closed, since b.(b'.v) = (bb').v, so one reduction
    gives it."""
    return span_lattice(M.group, [A.matrix.apply(v) for A in M.actions for v in vectors])


def generated_submodule(M, gens):
    """Smallest submodule containing the given elements."""
    return Submodule(M, span_closure(M, [g.coords for g in gens]))


def image_submodule(M, elements):
    """(a_1, ..., a_j) M: the sum of the action images (each already
    action-closed, so no closure pass is needed)."""
    cols = []
    for a in elements:
        cols.extend(M.action_hom(a).matrix.cols_list())
    return Submodule(M, span_lattice(M.group, cols))


def power_image(M, elements, exponents):
    """(x_1^{m_1}, ..., x_j^{m_j}) M."""
    if len(elements) != len(exponents):
        raise DimensionMismatch("one exponent per element")
    return image_submodule(M, [x ** m for x, m in zip(elements, exponents)])


def colon_submodule(M, N, x, e):
    """N :_M x^e, the elements multiplied into N by x^e."""
    A = M.action_hom(x ** e)
    return Submodule(M, preimage_span(A, N.span))


def torsion_submodule(M, I):
    """I-torsion via the stable idempotent: 0 :_M e where I^c = e R."""
    e = stable_idempotent(I)
    return Submodule(M, hom_kernel_span(M.action_hom(e)))


def torsion_by_colon_ascent(M, I):
    """Independent torsion computation that mirrors the definition: ascend
    S <- (S :_M I) until the chain stabilizes."""
    gens = list(I.generators)
    if not gens:
        return Submodule(M, M.full_span())
    hom_list = [M.action_hom(g) for g in gens]
    span = M.zero_span()
    while True:
        nxt = None
        for A in hom_list:
            pre = preimage_span(A, span)
            nxt = pre if nxt is None else intersect_spans(M.group, nxt, pre)
        if nxt == span:
            return Submodule(M, span)
        span = nxt


def is_divisible(Q, x):
    """x * Q = Q, i.e. the action of x is surjective."""
    img = span_lattice(Q.group, Q.action_hom(x).matrix.cols_list())
    return span_subgroup_order(Q.group, img) == Q.order()


# ---------------------------------------------------------------------------
# Quotients, submodule modules, subquotients


def quotient_module_data(M, N):
    """M / N with induced actions.  Returns (Q, projection, quo) with quo
    the GroupSubquotient of M.group that lifts and classifies."""
    span = N.span if isinstance(N, Submodule) else N
    quo = subquotient_group(M.group, M.full_span(), span)
    Q = FgModule(M.ring, quo.group, induced_actions(M.actions, quo))
    # a quotient's span is the identity, so its projection acts on M coordinates
    return Q, ModuleHom(M, Q, GroupHom(M.group, quo.group, quo.projection)), quo


def quotient_module(M, N):
    """M / N with induced actions.  Returns (Q, projection)."""
    Q, proj, _ = quotient_module_data(M, N)
    return Q, proj


def submodule_module(M, N):
    """The submodule N (or its canonical span) as an abstract module.
    Returns (S, inclusion)."""
    span = N.span if isinstance(N, Submodule) else N
    sub = subquotient_group(M.group, span, M.zero_span())
    S = FgModule(M.ring, sub.group, induced_actions(M.actions, sub))
    return S, ModuleHom(S, M, sub.lift)


@dataclass(frozen=True)
class SubquotientData:
    """A ker/im subquotient module; `data` is its GroupSubquotient of the
    ambient group, which lifts classes and classifies cycles."""

    module: FgModule
    ambient: FgModule
    data: GroupSubquotient


def subquotient_module(M, ker_span, im_span):
    """(ker_span)/(im_span) with induced actions, for canonical spans; raises
    DimensionMismatch unless im lies inside ker."""
    data = subquotient_group(M.group, ker_span, im_span)
    H = FgModule(M.ring, data.group, induced_actions(M.actions, data))
    return SubquotientData(H, M, data)


# ---------------------------------------------------------------------------
# Presentations and generators


def module_from_presentation(R, generators, relations):
    """R^generators / (R-span of the relation vectors).

    Relations are sequences of ring elements of length `generators`.
    Returns (module, the free power R^generators, projection ModuleHom).
    """
    F = free_module(R, generators)
    rel_elems = [F.element(list(rel)) for rel in relations]
    N = generated_submodule(F.module, rel_elems)
    Q, proj = quotient_module(F.module, N)
    return Q, F, proj


def span_generators(M, span):
    """Irredundant module generators of the submodule a canonical span
    describes, chosen greedily.

    The pool is the sum of the span's nonzero columns, then those columns.
    Over a product of local rings the columns of a canonical span tend to
    split along the factors, so greedy selection takes one column per
    factor; their sum meets every factor at once.  When the sum led two or
    more chosen generators and the rest generate the span without it, it is
    dropped.  The sum can cancel on a factor (2 + 2 = 0 in Z/4), so where it
    stays, the greedy pick from the columns alone is taken instead if it is
    no larger.  Each generator lies outside the submodule generated by the
    ones before it, and the sum stays only when the others fall short; the
    set is not guaranteed minimal.

    Over Z/2 x Z/4 x Z/8 with x = (0, 2, 2), R/xR and each kernel of its
    resolution are cyclic (generating each kernel from its columns alone
    gives ranks (1, 2, 6)):

    >>> from prokit.rings import truncated_two_power
    >>> R, x, _ = truncated_two_power(3)
    >>> M = quotient_module(ring_as_module(R), image_submodule(ring_as_module(R), [x]))[0]
    >>> len(span_generators(M, M.full_span()))
    1
    >>> free_resolution(M, 2).ranks
    (1, 1, 1)
    """
    cols = [g for g in (M.group.element(c) for c in span.cols_list()) if not g.is_zero()]
    if not cols:
        return []
    total = sum(cols[1:], cols[0])
    chosen, _ = _greedy_generators(M, [total] + cols, span)
    if len(chosen) < 2 or chosen[0] is not total:
        return chosen
    if span_closure(M, [g.coords for g in chosen[1:]]) == span:
        return chosen[1:]
    # the sum was needed; where the columns alone do as well, take them
    plain = _greedy_generators(M, cols, span)[0]
    return plain if len(plain) <= len(chosen) else chosen


def _greedy_generators(M, pool, target):
    """The elements of `pool`, in order, that lie outside the submodule
    generated by those chosen before them, until that submodule is the
    span `target`.  Returns (chosen, span of the submodule they generate)."""
    chosen = []
    span = M.zero_span()
    for g in pool:
        if span == target:
            break
        if not span_contains(M.group, span, g.coords):
            chosen.append(g)
            # the span is already closed, so only g's images join it
            span = span_lattice(
                M.group, span.cols_list() + [A.matrix.apply(g.coords) for A in M.actions]
            )
    return chosen, span


# ---------------------------------------------------------------------------
# Duality


def matlis_dual(M):
    """Character module M^dual = Hom_Z(M, Q/Z) with the transposed action.

    In invariant-factor coordinates the dual group has the same factors and
    the action matrices are D A^T D^{-1}, integral precisely because the
    originals were well defined.  By tensor-Hom adjunction this is also
    Hom_R(M, R^dual) for the injective cogenerator R^dual = matlis_dual(R):
    phi maps to m -> phi(m)(1), with inverse chi -> (m -> (r -> chi(r m))).
    """
    d = M.group.invariant_factors
    n = M.group.rank
    actions = []
    for A in M.actions:
        mat = A.matrix
        entries = []
        for i in range(n):
            for j in range(n):
                q, rem = divmod(d[i] * mat[j, i], d[j])
                if rem:
                    raise AxiomViolation("action matrix is not well defined")
                entries.append(q)
        actions.append(GroupHom(M.group, M.group, IntMatrix(n, n, entries)))
    return FgModule(M.ring, FinAbGroup(d), actions)


# ---------------------------------------------------------------------------
# Free resolutions


@dataclass(frozen=True)
class Resolution:
    """Finite free resolution F_L -> ... -> F_0 -> M -> 0.

    `ring_matrices[i]` presents d_{i+1}: F_{i+1} -> F_i as a tuple of
    columns of ring elements; `group_homs[0]` is the augmentation
    F_0 -> M and `group_homs[i]` the underlying hom of d_i for i >= 1.
    """

    module: FgModule
    frees: tuple
    ring_matrices: tuple
    group_homs: tuple

    @property
    def length(self):
        return len(self.frees) - 1

    @property
    def ranks(self):
        return tuple(f.rank for f in self.frees)

    def augmentation(self):
        return ModuleHom(self.frees[0].module, self.module, self.group_homs[0])

    def differential(self, i):
        """d_i: F_i -> F_{i-1} as a ModuleHom, 1 <= i <= length."""
        return ModuleHom(
            self.frees[i].module, self.frees[i - 1].module, self.group_homs[i]
        )


def _free_map_from_images(F_src, tgt_module, images):
    """GroupHom from a free module determined by generator images: the
    generator at `positions[u][j]`, e_j of copy u, goes to e_j . image_u,
    one basis action applied to each image."""
    cols = [None] * F_src.module.group.rank
    for pos, img in zip(F_src.positions, images):
        for p, A in zip(pos, tgt_module.actions):
            cols[p] = tgt_module.group.reduce(A.matrix.apply(img.coords))
    mat = IntMatrix.from_cols(cols, rows=tgt_module.group.rank)
    return GroupHom(F_src.module.group, tgt_module.group, mat)


def free_resolution(M, length):
    """Greedy free resolution: the `span_generators` of M, then of each
    kernel, become the next free basis, so exactness in the middle holds by
    construction (and is re-verified by the test suite).  The generators are
    irredundant in the greedy sense of `span_generators` but not guaranteed
    minimal, so the ranks can exceed those of a minimal resolution.  Each
    map is written column by column from the generator images, and each
    kernel generator is read back into ring coordinates at the free
    module's positions (`ModulePower.coords`)."""
    if length < 0:
        raise DimensionMismatch("resolution length must be >= 0")
    R = M.ring
    gens = span_generators(M, M.full_span())
    frees = [free_module(R, len(gens))]
    homs = [_free_map_from_images(frees[0], M, gens)]
    ring_mats = []
    for _ in range(length):
        prev = frees[-1]
        ker_span = hom_kernel_span(homs[-1])
        ker_gens = span_generators(prev.module, ker_span)
        Fn = free_module(R, len(ker_gens))
        ring_mats.append(
            tuple(tuple(RingElement(R, c) for c in prev.coords(v)) for v in ker_gens)
        )
        homs.append(_free_map_from_images(Fn, prev.module, ker_gens))
        frees.append(Fn)
    return Resolution(M, tuple(frees), tuple(ring_mats), tuple(homs))


# ---------------------------------------------------------------------------
# Completion and local cohomology


def adic_completion(M, I):
    """Stable-power completion M / I^c M; returns (module, surjection)."""
    e = stable_idempotent(I)
    return quotient_module(M, image_submodule(M, [e]))


def local_cohomology(M, I, i):
    """H^i_I(M) = Ext^i(R/eR, M) for the stable idempotent e, I^c = e R.
    R/eR is isomorphic to (1 - e)R, a direct summand of R, so it is
    projective: H^i_I(M) = 0 for i >= 1 and H^0_I(M) = (1 - e)M (Weibel,
    An Introduction to Homological Algebra, 2.4).  No resolution is built;
    the tests check this against the Ext route of `derived_functor` (in
    `tests/complex_reference.py`).

    >>> from prokit.rings import ideal, zmod
    >>> R = zmod(12)
    >>> I = ideal(R, [R.from_int(2)])
    >>> [local_cohomology(ring_as_module(R), I, i).order() for i in (0, 1)]
    [4, 1]
    """
    if i < 0:
        raise AxiomViolation("negative cohomological degree")
    if i >= 1:
        return zero_module(M.ring)
    e = stable_idempotent(I)
    return submodule_module(M, image_submodule(M, [M.ring.one() - e]))[0]


def localize_module(M, loc):
    """e M as a module over the localized ring e R.

    The localized scalars act through their representatives inside R, which
    is exact because e M is an R-direct summand."""
    sub = subgroup_embedding(M.group, M.action_hom(loc.idempotent).matrix.cols_list())
    actions = induced_actions([M.action_hom(loc.pull_back(b)) for b in loc.ring.basis()], sub)
    return FgModule(loc.ring, sub.group, actions)


# ---------------------------------------------------------------------------
# Isomorphism: the identity of equal modules, else fingerprints


def module_fingerprint(M):
    """Isomorphism invariants: group factors plus kernel and image factors
    of every basis action.  Agreement is necessary for isomorphism, not
    sufficient; `modules_isomorphic` falls back to it only for modules
    that are presented differently."""
    parts = [tuple(M.group.invariant_factors)]
    for A in M.actions:
        ker_sub = subquotient_group(M.group, hom_kernel_span(A), M.zero_span()).group
        im_sub = subquotient_group(M.group, hom_image_span(A), M.zero_span()).group
        parts.append((ker_sub.invariant_factors, im_sub.invariant_factors))
    return tuple(parts)


def modules_isomorphic(A, B):
    """True when A and B are equal modules, an isomorphism shown, or have
    equal fingerprints, isomorphism not ruled out.

    Equal modules (`FgModule.__eq__`: the same ring, group and action
    matrices, not the same object) are isomorphic by the identity of the
    group; no invariant is computed.  The coordinates of a subquotient
    depend only on its subgroups, so two routes to the same subquotient
    give equal modules, and that is what the comparisons of the runtime
    meet.  Modules presented differently fall back to `module_fingerprint`,
    a necessary condition only.  The fingerprint depends on the group and
    actions alone, so equal modules have equal fingerprints and the
    shortcut changes no answer."""
    return A == B or module_fingerprint(A) == module_fingerprint(B)
