"""Finitely generated modules over finite rings.

Modules are finite abelian groups with one action matrix per ring basis
element.  This file carries the functor toolkit the analysis layer runs on:
submodule spans, colon and torsion constructions, divisibility, Matlis
duality against the injective cogenerator R^dual, Hom and tensor, free
resolutions with Tor/Ext, adic completion, and local cohomology.

Submodules are stored as canonical column-HNF spans of the additive
lattice, so equality and inclusion tests are cheap: equality compares
the matrices, and membership and inclusion are forward substitution
along the lower-triangular span (`intlinalg.span_contains`), with no
normal form per query.  The profile searches in the analysis layer and
`span_closure` lean on that.

`block_hom` is the one place where maps between direct sums are assembled:
the actions of direct sums and module powers, the Tor/Ext differentials
here, and the Koszul, Cech and total complexes of the complexes layer.
Quotient generators are lifted back only through the section that
`intlinalg.cokernel_presentation` returns (quotients, subquotients, Hom
and tensor modules); nothing here solves for a lift on its own.  Quotient,
submodule, subquotient and localized modules carry an
`intlinalg.GroupSubquotient` and get their actions from
`intlinalg.induced_hom`, the one lift/classify path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import AxiomViolation, DimensionMismatch, InvalidSpec
from .intlinalg import (
    FinAbGroup,
    GroupHom,
    GroupSubquotient,
    IntLinearSystem,
    IntMatrix,
    cokernel_presentation,
    direct_sum_groups,
    hom_image_span,
    hom_kernel_span,
    induced_hom,
    intersect_spans,
    linear_combination,
    preimage_lattice,
    preimage_span,
    quotient_group,
    span_contains,
    span_lattice,
    span_leq,
    span_subgroup_order,
    subgroup_embedding,
    subquotient_group,
)
from .rings import RingElement, ideal, ideal_power, stable_idempotent


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
        n = self.group.rank
        acc = [[0] * n for _ in range(n)]
        for i, c in enumerate(ring_coords):
            if c == 0:
                continue
            m = self.actions[i].matrix
            for r in range(n):
                row = m.row(r)
                ar = acc[r]
                for j in range(n):
                    ar[j] += c * row[j]
        mat = IntMatrix.from_rows(acc) if n else IntMatrix(0, 0, [])
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
        return span_lattice(self.group, [g.coords for g in self.generators()])

    def zero_span(self):
        return span_lattice(self.group, [])

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
class FreeModuleData:
    """A free module R^s with its block bookkeeping."""

    module: FgModule
    rank: int
    injections: tuple   # GroupHom R.additive -> F.group, one per copy
    projections: tuple  # GroupHom F.group -> R.additive

    def element(self, ring_elements):
        if len(ring_elements) != self.rank:
            raise DimensionMismatch("one ring element per free generator")
        acc = self.module.zero()
        for inj, r in zip(self.injections, ring_elements):
            acc = acc + inj(r.as_group_element())
        return acc

    def coords(self, m):
        """Decode a group element into its tuple of ring coordinates."""
        R = self.module.ring
        return tuple(RingElement(R, proj(m).coords) for proj in self.projections)

    def generator(self, u):
        R = self.module.ring
        return self.element([R.one() if t == u else R.zero() for t in range(self.rank)])


def free_module(R, s):
    F, injs, projs = module_power(ring_as_module(R), s)
    return FreeModuleData(
        F, s, tuple(inj.hom for inj in injs), tuple(proj.hom for proj in projs)
    )


def block_hom(src, tgt, blocks):
    """The hom sum of c * inj_t . A . proj_s over the blocks (t, s, A, c).

    `src` and `tgt` are direct-sum packs (X, injections, projections), X a
    group or a module and the maps GroupHoms or ModuleHoms; A runs from
    source summand s to target summand t.  Every block is written straight
    into one target matrix through the nonzero entries of the injection and
    projection matrices (0/1 permutations for module powers).
    """
    G = getattr(src[0], "group", src[0])
    H = getattr(tgt[0], "group", tgt[0])
    inj_cols = {}
    proj_rows = {}
    acc = [0] * (H.rank * G.rank)
    for t, s, A, c in blocks:
        inj = getattr(tgt[1][t], "hom", tgt[1][t])
        proj = getattr(src[2][s], "hom", src[2][s])
        if A.source != proj.target or A.target != inj.source:
            raise DimensionMismatch("block does not fit its summands")
        if t not in inj_cols:
            inj_cols[t] = [_nonzero(inj.matrix.col(a)) for a in range(inj.matrix.cols)]
        if s not in proj_rows:
            proj_rows[s] = [_nonzero(proj.matrix.row(b)) for b in range(proj.matrix.rows)]
        for a, icol in enumerate(inj_cols[t]):
            for b, x in enumerate(A.matrix.row(a)):
                if x == 0:
                    continue
                for j, w in proj_rows[s][b]:
                    xw = c * x * w
                    for i, v in icol:
                        acc[i * G.rank + j] += v * xw
    return GroupHom(G, H, IntMatrix._of(H.rank, G.rank, tuple(acc)))


def _nonzero(vec):
    return [(i, v) for i, v in enumerate(vec) if v]


def _sum_module(R, pack, modules):
    """The module on a direct-sum pack of groups, with ModuleHom maps."""
    G, injs, projs = pack
    blocks = [[(t, t, m.actions[i], 1) for t, m in enumerate(modules)] for i in range(R.rank)]
    M = FgModule(R, G, [block_hom(pack, pack, b) for b in blocks])
    minjs = [ModuleHom(m, M, inj) for m, inj in zip(modules, injs)]
    mprojs = [ModuleHom(M, m, proj) for m, proj in zip(modules, projs)]
    return M, minjs, mprojs


def direct_sum_modules(modules):
    """Direct sum with injections and projections as ModuleHoms."""
    if not modules:
        raise DimensionMismatch("empty direct sum is not constructed")
    return _sum_module(modules[0].ring, direct_sum_groups([m.group for m in modules]), modules)


def module_power(N, s):
    """N^s with injections and projections (the zero module for s = 0).

    The copy-major factor list of N^s is sorted by selection: the first
    smallest remaining factor is swapped forward.  That is the order `snf`
    leaves a diagonal divisibility chain in, so no normal form is needed and
    the layout agrees with `direct_sum_groups([N.group] * s)`; the
    injections and projections are 0/1 permutation matrices.
    """
    if s < 0:
        raise InvalidSpec(f"module power needs s >= 0, got {s}")
    if s == 0:
        return zero_module(N.ring), [], []
    facs = list(N.group.invariant_factors) * s
    n, r = len(facs), N.group.rank
    slot = list(range(n))  # slot[p]: the copy-major index placed at position p
    for t in range(n):
        p = min(range(t, n), key=facs.__getitem__)
        facs[t], facs[p] = facs[p], facs[t]
        slot[t], slot[p] = slot[p], slot[t]
    G = FinAbGroup(tuple(facs))
    injs, projs = [], []
    for u in range(s):
        place = IntMatrix._of(
            n, r, tuple(1 if slot[i] == u * r + j else 0 for i in range(n) for j in range(r))
        )
        injs.append(GroupHom(N.group, G, place))
        projs.append(GroupHom(G, N.group, place.transpose()))
    return _sum_module(N.ring, (G, injs, projs), [N] * s)


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

    def is_full(self):
        return self.order() == self.parent.order()

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.parent == other.parent
            and self.span == other.span
        )

    def __hash__(self):
        return hash((self.parent.group, self.span))


def span_closure(M, vectors):
    """Close an additive span under all ring actions."""
    span = span_lattice(M.group, vectors)
    mats = [a.matrix for a in M.actions]
    while True:
        new_vecs = []
        for col in span.cols_list():
            reduced = M.group.reduce(tuple(col))
            for mat in mats:
                img = M.group.reduce(mat.apply(reduced))
                if not span_contains(M.group, span, img):
                    new_vecs.append(img)
        if not new_vecs:
            return span
        span = span_lattice(M.group, span.cols_list() + new_vecs)


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


def ideal_power_image(M, I, n):
    """I^n * M as a submodule."""
    return image_submodule(M, ideal_power(I, n).span_elements())


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
    quo = quotient_group(M.group, span.cols_list())
    Q = FgModule(M.ring, quo.group, [induced_hom(A, quo, quo) for A in M.actions])
    # a quotient's span is the identity, so its projection acts on M coordinates
    return Q, ModuleHom(M, Q, GroupHom(M.group, quo.group, quo.projection)), quo


def quotient_module(M, N):
    """M / N with induced actions.  Returns (Q, projection)."""
    Q, proj, _ = quotient_module_data(M, N)
    return Q, proj


def submodule_module_data(M, N):
    """The submodule N as an abstract module.  Returns (S, inclusion, sub)
    with sub the GroupSubquotient of M.group that classifies ambient
    elements."""
    span = N.span if isinstance(N, Submodule) else N
    sub = subgroup_embedding(M.group, span.cols_list())
    S = FgModule(M.ring, sub.group, [induced_hom(A, sub, sub) for A in M.actions])
    return S, ModuleHom(S, M, sub.lift), sub


def submodule_module(M, N):
    """The submodule N as an abstract module.  Returns (S, inclusion)."""
    S, incl, _ = submodule_module_data(M, N)
    return S, incl


@dataclass(frozen=True)
class SubquotientData:
    """A ker/im subquotient module; `data` is its GroupSubquotient of the
    ambient group, which lifts classes and classifies cycles."""

    module: FgModule
    ambient: FgModule
    data: GroupSubquotient


def subquotient_module(M, ker_span, im_span):
    """(ker_span)/(im_span) with induced actions; im must lie inside ker."""
    if not span_leq(M.group, im_span, ker_span):
        raise AxiomViolation("image span does not lie inside the kernel span")
    data = subquotient_group(M.group, ker_span.cols_list(), im_span.cols_list())
    H = FgModule(M.ring, data.group, [induced_hom(A, data, data) for A in M.actions])
    return SubquotientData(H, M, data)


def homology_module(X, outgoing, incoming):
    """ker(outgoing)/im(incoming) at the module X; either map may be None
    (treated as the zero map out of or into X)."""
    ker = hom_kernel_span(outgoing) if outgoing is not None else X.full_span()
    im = hom_image_span(incoming) if incoming is not None else X.zero_span()
    return subquotient_module(X, ker, im)


# ---------------------------------------------------------------------------
# Presentations and generators


def module_from_presentation(R, generators, relations):
    """R^generators / (R-span of the relation vectors).

    Relations are sequences of ring elements of length `generators`.
    Returns (module, free data, projection ModuleHom).
    """
    F = free_module(R, generators)
    rel_elems = [F.element(list(rel)) for rel in relations]
    N = generated_submodule(F.module, rel_elems)
    Q, proj = quotient_module(F.module, N)
    return Q, F, proj


def module_generators(M, candidates=None):
    """A small module generating set, chosen greedily.

    The sum of all group generators is tried first (it recovers the unit for
    cyclic-style modules), then the group generators in order.
    """
    if M.group.rank == 0:
        return []
    gens = M.generators()
    total = gens[0]
    for g in gens[1:]:
        total = total + g
    pool = candidates if candidates is not None else [total] + gens
    chosen = []
    span = M.zero_span()
    full = M.full_span()
    for g in pool:
        if span == full:
            break
        if not span_contains(M.group, span, g.coords):
            chosen.append(g)
            span = span_closure(M, span.cols_list() + [g.coords])
    if span != full:
        raise AxiomViolation("candidate set failed to generate the module")
    return chosen


def _minimize_span_generators(M, span):
    """Greedy module generators for the submodule a span describes."""
    cols = [c for c in span.cols_list() if not M.group.element(c).is_zero()]
    chosen = []
    cur = M.zero_span()
    for c in cols:
        vec = M.group.reduce(tuple(c))
        if not span_contains(M.group, cur, vec):
            chosen.append(M.group.element(vec))
            cur = span_closure(M, cur.cols_list() + [vec])
        if cur == span:
            break
    return chosen


# ---------------------------------------------------------------------------
# Duality, Hom, tensor


def matlis_dual(M):
    """Character module Hom(M, Q/Z) with the transposed action.

    In invariant-factor coordinates the dual group has the same factors and
    the action matrices are D A^T D^{-1}, integral precisely because the
    originals were well defined.
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


def dual_pairing(M, phi, m):
    """The Q/Z pairing of a dual element with a module element, as a
    Fraction reduced into [0, 1)."""
    d = M.group.invariant_factors
    total = Fraction(0)
    for c_phi, c_m, dj in zip(phi.coords, m.coords, d):
        total += Fraction(c_phi * c_m, dj)
    return total - (total.numerator // total.denominator)


def _hom_matrix_from_coeffs(source_group, target_group, pair_moduli, t):
    """Concrete hom matrix for elementary-generator coefficients t."""
    r = target_group.rank
    s = source_group.rank
    b = target_group.invariant_factors
    entries = [0] * (r * s)
    for idx, coeff in enumerate(t):
        i, j = divmod(idx, s)
        entries[i * s + j] = coeff * (b[i] // pair_moduli[idx])
    return GroupHom(source_group, target_group, IntMatrix(r, s, entries))


@dataclass(frozen=True)
class HomModuleData:
    """Hom_R(M, N) as a module, with encode/decode to concrete homs."""

    module: FgModule
    source: FgModule
    target: FgModule
    _lattice: IntMatrix   # columns: coefficient vectors spanning the hom lattice
    _proj: IntMatrix      # lattice coordinates -> module generators
    _section: IntMatrix   # module generators -> lattice coordinates, a section of _proj
    _pair_moduli: tuple

    def to_group_hom(self, h):
        t = self._lattice.apply(self._section.apply(h.coords))
        return _hom_matrix_from_coeffs(
            self.source.group, self.target.group, self._pair_moduli, t
        )

    def from_group_hom(self, f):
        t = _hom_coeffs_of(self.source.group, self.target.group, self._pair_moduli, f)
        nvars = len(self._pair_moduli)
        stacked = (
            self._lattice.hstack(IntMatrix.diagonal(list(self._pair_moduli)))
            if nvars
            else self._lattice
        )
        sol = IntLinearSystem(stacked).solve(tuple(t))
        if sol is None:
            raise AxiomViolation("hom does not lie in the computed hom lattice")
        return self.module.element(self._proj.apply(tuple(sol[: self._lattice.cols])))


def _hom_coeffs_of(source_group, target_group, pair_moduli, f):
    r = target_group.rank
    s = source_group.rank
    b = target_group.invariant_factors
    t = []
    for i in range(r):
        for j in range(s):
            scale = b[i] // pair_moduli[i * s + j]
            q, rem = divmod(f.matrix[i, j], scale)
            if rem:
                raise AxiomViolation("hom matrix entry off the elementary lattice")
            t.append(q)
    return t


def hom_module_data(M, N):
    """Hom_R(M, N) from the action-commutation linear system over Z."""
    if M.ring != N.ring:
        raise DimensionMismatch("hom between modules over different rings")
    R = M.ring
    a = M.group.invariant_factors
    b = N.group.invariant_factors
    s = M.group.rank
    r = N.group.rank
    pair_moduli = tuple(gcd(a[j], b[i]) for i in range(r) for j in range(s))
    nvars = r * s
    if nvars == 0:
        empty = IntMatrix(0, 0, [])
        return HomModuleData(zero_module(R), M, N, empty, empty, empty, pair_moduli)

    def scale(i, j):
        return b[i] // pair_moduli[i * s + j]

    # equivariance of Phi: Phi A_k = B_k Phi modulo target orders, entrywise
    cond_rows = []
    cond_mods = []
    for k in range(R.rank):
        Ak = M.actions[k].matrix
        Bk = N.actions[k].matrix
        for i in range(r):
            for j in range(s):
                row = [0] * nvars
                for jp in range(s):
                    row[i * s + jp] += scale(i, jp) * Ak[jp, j]
                for ip in range(r):
                    row[ip * s + j] -= Bk[i, ip] * scale(ip, j)
                cond_rows.append(row)
                cond_mods.append(b[i])
    C = IntMatrix.from_rows(cond_rows)
    L = preimage_lattice(C, IntMatrix.diagonal(cond_mods), pair_moduli)
    # present L / diag(pair_moduli): relations among the lattice basis
    decode_sys = IntLinearSystem(L.hstack(IntMatrix.diagonal(list(pair_moduli))))
    rel_cols = [list(k[: L.cols]) for k in decode_sys.kernel_basis()]
    RelM = IntMatrix.from_cols(rel_cols, rows=L.cols) if rel_cols else IntMatrix.zero(L.cols, 0)
    G, P, S = cokernel_presentation(RelM, [0] * L.cols)
    # canonical generators lifted to coefficient vectors
    concrete = [
        _hom_matrix_from_coeffs(M.group, N.group, pair_moduli, L.apply(S.col(i)))
        for i in range(G.rank)
    ]
    actions = []
    for k in range(R.rank):
        Bk = N.actions[k]
        cols = []
        for f in concrete:
            g = Bk.compose(f)
            tvec = _hom_coeffs_of(M.group, N.group, pair_moduli, g)
            sol = decode_sys.solve(tuple(tvec))
            if sol is None:
                raise AxiomViolation("hom action left the hom lattice")
            cols.append(list(P.apply(tuple(sol[: L.cols]))))
        mat = IntMatrix.from_cols(cols, rows=G.rank) if cols else IntMatrix(G.rank, 0, [])
        actions.append(GroupHom(G, G, mat))
    module = FgModule(R, G, actions)
    return HomModuleData(module, M, N, L, P, S, pair_moduli)


def hom_module(M, N):
    return hom_module_data(M, N).module


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


# ---------------------------------------------------------------------------
# Resolutions and derived functors


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
    """GroupHom from a free module determined by generator images."""
    cols = []
    for j in range(F_src.module.group.rank):
        gen = F_src.module.group.element(
            tuple(1 if t == j else 0 for t in range(F_src.module.group.rank))
        )
        rc = F_src.coords(gen)
        acc = tgt_module.zero()
        for u, r in enumerate(rc):
            acc = acc + tgt_module.action_hom(r)(images[u])
        cols.append(list(acc.coords))
    mat = (
        IntMatrix.from_cols(cols, rows=tgt_module.group.rank)
        if cols
        else IntMatrix(tgt_module.group.rank, 0, [])
    )
    return GroupHom(F_src.module.group, tgt_module.group, mat)


def free_resolution(M, length):
    """Greedy free resolution: minimized kernel generators become the next
    free basis, so exactness in the middle holds by construction (and is
    re-verified by the test suite)."""
    if length < 0:
        raise DimensionMismatch("resolution length must be >= 0")
    gens = module_generators(M)
    frees = [free_module(M.ring, len(gens))]
    homs = [_free_map_from_images(frees[0], M, gens)]
    ring_mats = []
    for _ in range(length):
        prev = frees[-1]
        ker_span = hom_kernel_span(homs[-1])
        ker_gens = _minimize_span_generators(prev.module, ker_span)
        Fn = free_module(M.ring, len(ker_gens))
        ring_mats.append(tuple(tuple(prev.coords(v)) for v in ker_gens))
        homs.append(_free_map_from_images(Fn, prev.module, ker_gens))
        frees.append(Fn)
    return Resolution(M, tuple(frees), tuple(ring_mats), tuple(homs))


def derived_functor(kind, M, N, i, resolution_length=None):
    """Tor_i(M, N) via tensoring a free resolution of M with N, or
    Ext^i(M, N) via Hom from the same resolution."""
    if i < 0:
        raise DimensionMismatch("derived functor degree must be >= 0")
    L = resolution_length if resolution_length is not None else i + 1
    if L < i + 1:
        raise DimensionMismatch("resolution length must be at least degree + 1")
    res = free_resolution(M, L)
    powers = [module_power(N, r) for r in res.ranks]

    def blocks(j):
        # d_j: copy u of F_j -> copy v of F_{j-1} multiplies by ring_matrices[j-1][u][v]
        return [
            (u, v, N.action_hom(rel))
            for u, col in enumerate(res.ring_matrices[j - 1])
            for v, rel in enumerate(col)
        ]

    if kind == "tor":
        def diff(j):
            # d_j tensor N
            return block_hom(powers[j], powers[j - 1], [(v, u, A, 1) for u, v, A in blocks(j)])

        outgoing = diff(i) if i >= 1 else None
        incoming = diff(i + 1)
        return homology_module(powers[i][0], outgoing, incoming).module

    if kind == "ext":
        def codiff(j):
            # delta^j: Hom(F_{j-1}, N) -> Hom(F_j, N); transposed blocks
            return block_hom(powers[j - 1], powers[j], [(u, v, A, 1) for u, v, A in blocks(j)])

        outgoing = codiff(i + 1)
        incoming = codiff(i) if i >= 1 else None
        return homology_module(powers[i][0], outgoing, incoming).module

    raise DimensionMismatch(f"unknown derived functor kind {kind!r}")


# ---------------------------------------------------------------------------
# Completion and local cohomology


def adic_completion(M, I):
    """Stable-power completion M / I^c M; returns (module, surjection)."""
    e = stable_idempotent(I)
    return quotient_module(M, image_submodule(M, [e]))


def cyclic_quotient_module(R, I):
    """R / I as a cyclic module presented with a single free generator."""
    gens = [(g,) for g in I.span_elements()]
    module, _, _ = module_from_presentation(R, 1, gens)
    return module


def local_cohomology(M, I, i):
    """H^i_I(M) as Ext^i(R/I^c, M) for the stable power index c; the colimit
    over n is eventually constant because the powers I^n are."""
    e = stable_idempotent(I)
    stable = ideal(M.ring, [e])  # I^c = e R
    if stable.is_unit_ideal():
        return zero_module(M.ring)
    return derived_functor("ext", cyclic_quotient_module(M.ring, stable), M, i)


def localize_module(M, loc):
    """e M as a module over the localized ring e R.

    The localized scalars act through their representatives inside R, which
    is exact because e M is an R-direct summand."""
    span = span_lattice(M.group, M.action_hom(loc.idempotent).matrix.cols_list())
    sub = subgroup_embedding(M.group, span.cols_list())
    actions = [
        induced_hom(M.action_hom(loc.pull_back(b)), sub, sub) for b in loc.ring.basis()
    ]
    return FgModule(loc.ring, sub.group, actions)


# ---------------------------------------------------------------------------
# Isomorphism fingerprints


def module_fingerprint(M):
    """Isomorphism invariants: group factors plus kernel and image factors
    of every basis action.  Agreement is necessary for isomorphism; it is
    the comparison used where no natural map is available."""
    parts = [tuple(M.group.invariant_factors)]
    for A in M.actions:
        ker_sub = subgroup_embedding(M.group, hom_kernel_span(A).cols_list()).group
        im_sub = subgroup_embedding(M.group, hom_image_span(A).cols_list()).group
        parts.append((ker_sub.invariant_factors, im_sub.invariant_factors))
    return tuple(parts)


def modules_isomorphic(A, B):
    return module_fingerprint(A) == module_fingerprint(B)
