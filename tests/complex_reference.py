"""The whole-complex route: reference answers the tests compare against.

`prokit.complexes` never builds a complex whole.  It reads Koszul homology
and its transitions as spans of one `KoszulTower`'s chains, and the colon
identification reads H_1 off the tower of one element.  This module builds
complexes whole, so that the tests can check the tower against an
independent answer:

- `ChainComplex`, whose homology is `homology_module` (ker / im at one
  module), and `ComplexMap`, which checks that every component commutes
  with the differentials;
- `koszul_complex`, every differential of K(x; M) tensor L at once on the
  tower's layout, kept as a `KoszulData`;
- `power_pack`, the injections and projections of a module power built
  from its slot map, and `composed_block_hom`, a map between direct sums
  composed as inj . A . proj block by block: the runtime forms neither;
- `derived_functor`, Tor and Ext through a resolution of the first
  argument, the reference for local cohomology and the Tor comparison;
- `cyclic_quotient_module`, R/I presented with one free generator;
- `hom_module`, Hom_R(M, N) from the action-commutation system over Z,
  kept as a `HomModuleData` that decodes elements to group homs; the
  runtime reads Hom_R(M, R^dual) as the Matlis dual M^dual instead, and
  the tests certify the adjunction map between the two;
- `reference_colon_identification`, the colon identification on full
  Koszul complexes, its transition checked as a `ComplexMap`.
"""

from dataclasses import dataclass
from math import gcd

from prokit.complexes import _KoszulLayout
from prokit.errors import AxiomViolation, DimensionMismatch, IdentificationFailure
from prokit.intlinalg import (
    GroupHom,
    IntMatrix,
    _smith_presentation,
    _span_classes,
    _span_coefficients,
    hom_image_span,
    hom_kernel_span,
    induced_hom,
    preimage_lattice,
    span_subgroup_order,
)
from prokit.modules import (
    FgModule,
    ModuleHom,
    Submodule,
    block_hom,
    colon_submodule,
    free_resolution,
    module_from_presentation,
    module_power,
    power_image,
    quotient_module_data,
    subquotient_module,
    zero_module,
)


def homology_module(X, outgoing, incoming):
    """ker(outgoing)/im(incoming) at the module X; either map may be None
    (treated as the zero map out of or into X)."""
    ker = hom_kernel_span(outgoing) if outgoing is not None else X.full_span()
    im = hom_image_span(incoming) if incoming is not None else X.zero_span()
    return subquotient_module(X, ker, im)


@dataclass(frozen=True)
class ChainComplex:
    """Graded modules with degree-lowering differentials d_i: X_i -> X_{i-1}.

    Degrees outside the stored support are zero modules.  d o d = 0 is
    verified at construction on every adjacent pair of differentials."""

    modules: dict
    diffs: dict

    def __post_init__(self):
        for i, d in self.diffs.items():
            if d.source != self.modules[i] or d.target != self.modules[i - 1]:
                raise AxiomViolation(f"differential {i} does not match the grading")
        for i, d in self.diffs.items():
            up = self.diffs.get(i + 1)
            if up is not None and not d.compose(up).is_zero_map():
                raise AxiomViolation(f"d_{i} after d_{i + 1} is not zero")

    def differential(self, i):
        return self.diffs.get(i)

    def homology(self, i):
        """Homology at degree i as a SubquotientData."""
        X = self.modules.get(i)
        if X is None:
            raise AxiomViolation(f"no module in degree {i}")
        return homology_module(
            X,
            self.diffs.get(i).hom if i in self.diffs else None,
            self.diffs.get(i + 1).hom if i + 1 in self.diffs else None,
        )


@dataclass(frozen=True)
class ComplexMap:
    """Degreewise map of chain complexes, commuting with differentials."""

    source: ChainComplex
    target: ChainComplex
    components: dict

    def __post_init__(self):
        for i, f in self.components.items():
            ds = self.source.diffs.get(i)
            dt = self.target.diffs.get(i)
            if ds is None or dt is None:
                continue
            lower = self.components.get(i - 1)
            if lower is None:
                continue
            if not dt.hom.compose(f.hom).equals_map(lower.hom.compose(ds.hom)):
                raise AxiomViolation(f"component {i} does not commute with differentials")

    def component(self, i):
        return self.components.get(i)


@dataclass(frozen=True)
class KoszulData:
    """Koszul complex of a sequence on a module, with block bookkeeping.

    `blocks`, `index`, `powers` and the complex cover every degree."""

    complex: ChainComplex
    sequence: tuple
    module: FgModule
    blocks: dict      # degree -> list of blocks (S, q, u), one copy of M each
    index: dict       # degree -> {block: position in that degree}
    powers: dict      # degree -> the ModulePower of its blocks


def koszul_complex(x_seq, M, res=None):
    """K(x_1, ..., x_k; M), or Tot(K(x_1, ..., x_k) tensor M tensor L) for a
    free resolution `res` = L of some module, with every differential built
    on the layout a `KoszulTower` uses (blocks as in `_KoszulLayout`)."""
    layout = _KoszulLayout(len(x_seq), M, res)
    powers = {d: layout.pack(d) for d in layout.degrees}
    diffs = {d: layout.differential(x_seq, d) for d in layout.degrees[1:]}
    C = ChainComplex({d: P.module for d, P in powers.items()}, diffs)
    return KoszulData(C, tuple(x_seq), M, layout.blocks, layout.index, powers)


def power_pack(P):
    """(group, injections, projections) of the module power P, the
    GroupHoms built from its slot map: generator j of copy u is generator
    positions[u][j] of the power."""
    G, B = P.module.group, P.base.group
    injs, projs = [], []
    for pos in P.positions:
        place = IntMatrix(G.rank, B.rank, [p == i for i in range(G.rank) for p in pos])
        injs.append(GroupHom(B, G, place))
        projs.append(GroupHom(G, B, place.transpose()))
    return G, injs, projs


def composed_block_hom(src, tgt, blocks):
    """The sum of c * inj_t . A . proj_s over the blocks (t, s, A, c), for
    direct-sum packs (group, injections, projections), composed map by map:
    the reference for `modules.block_hom`, on summands of any kind."""
    total = GroupHom.zero(src[0], tgt[0])
    for t, s, A, c in blocks:
        total = total + tgt[1][t].compose(A).compose(src[2][s]).scale(c)
    return total


def cyclic_quotient_module(R, I):
    """R / I as a cyclic module presented with a single free generator."""
    gens = [(g,) for g in I.span_elements()]
    module, _, _ = module_from_presentation(R, 1, gens)
    return module


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
        return homology_module(powers[i].module, outgoing, incoming).module

    if kind == "ext":
        def codiff(j):
            # delta^j: Hom(F_{j-1}, N) -> Hom(F_j, N); transposed blocks
            return block_hom(powers[j - 1], powers[j], [(u, v, A, 1) for u, v, A in blocks(j)])

        outgoing = codiff(i + 1)
        incoming = codiff(i) if i >= 1 else None
        return homology_module(powers[i].module, outgoing, incoming).module

    raise DimensionMismatch(f"unknown derived functor kind {kind!r}")


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
        return self.module.element(_span_classes(self._lattice, self._proj, [t])[0])


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
    # L is canonical, square and full rank, so it presents the hom group
    # with relations L^-1 diag(pair_moduli), and t decodes to P * L^-1 t,
    # both by forward substitution
    L = preimage_lattice(C, IntMatrix.diagonal(cond_mods), pair_moduli)
    rels = _span_coefficients(nvars, L, IntMatrix.diagonal(list(pair_moduli)).cols_list())
    G, P, S = _smith_presentation(IntMatrix.from_cols(list(rels), rows=nvars))
    # canonical generators lifted to coefficient vectors
    concrete = [
        _hom_matrix_from_coeffs(M.group, N.group, pair_moduli, L.apply(S.col(i)))
        for i in range(G.rank)
    ]
    actions = []
    for Bk in N.actions:
        tvecs = [_hom_coeffs_of(M.group, N.group, pair_moduli, Bk.compose(f)) for f in concrete]
        cols = [G.reduce(c) for c in _span_classes(L, P, tvecs)]
        mat = IntMatrix.from_cols(cols, rows=G.rank) if cols else IntMatrix(G.rank, 0, [])
        actions.append(GroupHom(G, G, mat))
    module = FgModule(R, G, actions)
    return HomModuleData(module, M, N, L, P, S, pair_moduli)


def hom_module(M, N):
    return hom_module_data(M, N).module


def reference_colon_identification(xs, y, n, M, extra_levels=(1, 2)):
    """`complexes.colon_identification` on full Koszul complexes: H_1 of
    `koszul_complex([y^l], M/x^(l)M)` through `ChainComplex.homology`, and
    the transition between levels checked as a `ComplexMap`."""

    def level(nn):
        Nsub = power_image(M, xs, [nn] * len(xs)) if xs else Submodule(M, M.zero_span())
        lhs = subquotient_module(M, colon_submodule(M, Nsub, y, nn).span, Nsub.span)
        Q, proj, quo = quotient_module_data(M, Nsub)
        kos = koszul_complex([y ** nn], Q)
        rhs = kos.complex.homology(1)
        return lhs, quo, Q, proj, kos, rhs

    def canonical_map(lhs, proj, kos, rhs):
        # class of v in the colon quotient -> class of v in 0 :_Q y^n, the
        # cycles of the degree-1 block
        f = power_pack(kos.powers[1])[1][0].compose(proj.hom)
        return ModuleHom(lhs.module, rhs.module, induced_hom(f, lhs.data, rhs.data))

    def check_iso(f):
        if f.source.order() != f.target.order():
            return False
        if span_subgroup_order(f.source.group, hom_kernel_span(f.hom)) != 1:
            return False
        return f.check_equivariance()

    lhs_n, quo_n, Q_n, proj_n, kos_n, rhs_n = level(n)
    chi_n = canonical_map(lhs_n, proj_n, kos_n, rhs_n)
    if not check_iso(chi_n):
        raise IdentificationFailure(f"canonical map is not an isomorphism at level {n}")
    witness = {
        "level": n,
        "colon_quotient_order": lhs_n.module.order(),
        "koszul_h1_order": rhs_n.module.order(),
        "squares": [],
    }
    for extra in extra_levels:
        m = n + extra
        lhs_m, quo_m, Q_m, proj_m, kos_m, rhs_m = level(m)
        chi_m = canonical_map(lhs_m, proj_m, kos_m, rhs_m)
        if not check_iso(chi_m):
            raise IdentificationFailure(f"canonical map is not an isomorphism at level {m}")
        # map (3): multiplication by y^(m-n) between colon quotients
        ymn = y ** (m - n)
        map3 = induced_hom(M.action_hom(ymn), lhs_m.data, lhs_n.data)
        # map (4): the Koszul transition K(y^m; Q_m) -> K(y^n; Q_n):
        # degree 0 the base projection, degree 1 multiplication by y^(m-n)
        # composed with the projection; verified to commute, then induced.
        base = ModuleHom(Q_m, Q_n, induced_hom(GroupHom.identity(M.group), quo_m, quo_n))
        comp1 = ModuleHom(
            kos_m.powers[1].module,
            kos_n.powers[1].module,
            power_pack(kos_n.powers[1])[1][0]
            .compose(Q_n.action_hom(ymn))
            .compose(base.hom)
            .compose(power_pack(kos_m.powers[1])[2][0]),
        )
        cmap = ComplexMap(kos_m.complex, kos_n.complex, {0: base, 1: comp1})
        map4 = induced_hom(cmap.component(1).hom, rhs_m.data, rhs_n.data)
        # the (3)/(4) square: chi_n o map3 == map4 o chi_m
        left = chi_n.hom.compose(map3)
        right = map4.compose(chi_m.hom)
        if not left.equals_map(right):
            raise IdentificationFailure(f"square fails between levels {m} and {n}")
        witness["squares"].append({"m": m, "n": n, "commutes": True})
    return witness, True
