"""Chain complexes, Koszul and Cech machinery, inverse systems.

Koszul complexes are built on lexicographically ordered subsets with the
sign of a face given by the position of the dropped index; transitions
between power levels multiply each subset summand by the matching product
of element powers.  Cech complexes localize through Fitting idempotents.
Cech homology is computed as the stabilized inverse limit of Koszul
homology, which for finite modules agrees with the derived-Hom definition
because the lim^1 term dies (Mittag-Leffler).

Every differential and transition between direct sums here is a list of
blocks handed to `modules.block_hom`, the one place where such maps are
assembled."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import AxiomViolation, IdentificationFailure, NotStabilized
from .intlinalg import GroupHom, IntMatrix, hom_image_span, span_lattice
from .modules import (
    FgModule,
    ModuleHom,
    Submodule,
    adic_completion,
    block_hom,
    colon_submodule,
    direct_sum_modules,
    free_resolution,
    homology_module,
    module_power,
    power_image,
    quotient_module_data,
    submodule_module,
    submodule_module_data,
    subquotient_module,
    zero_module,
)
from .rings import fitting_split


@dataclass(frozen=True)
class ChainComplex:
    """Graded modules with degree-lowering differentials d_i: X_i -> X_{i-1}.

    Degrees outside the stored support are zero modules.  d o d = 0 is
    verified at construction."""

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

    def degrees(self):
        return sorted(self.modules)

    def module(self, i):
        return self.modules.get(i)

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


def complex_homology(C, i):
    """ker d_i / im d_{i+1} with its induced module structure."""
    return C.homology(i).module


def resolution_complex(res):
    """A free resolution as a validated ChainComplex F_L -> ... -> F_0."""
    modules = {i: f.module for i, f in enumerate(res.frees)}
    diffs = {i: res.differential(i) for i in range(1, len(res.frees))}
    return ChainComplex(modules, diffs)


def induced_on_homology(comp_hom, src_data, tgt_data):
    """Map on homology induced by an ambient hom carrying cycles to cycles."""
    src = src_data.module
    tgt = tgt_data.module
    cols = []
    for j in range(src.group.rank):
        gen = src.group.element(tuple(1 if t == j else 0 for t in range(src.group.rank)))
        v = comp_hom(src_data.lift(gen))
        cols.append(list(tgt_data.classify(v).coords))
    mat = (
        IntMatrix.from_cols(cols, rows=tgt.group.rank)
        if cols
        else IntMatrix(tgt.group.rank, 0, [])
    )
    return ModuleHom(src, tgt, GroupHom(src.group, tgt.group, mat))


# ---------------------------------------------------------------------------
# Koszul complexes


@dataclass(frozen=True)
class KoszulData:
    """Koszul complex of a sequence on a module, with block bookkeeping."""

    complex: ChainComplex
    sequence: tuple
    module: FgModule
    subsets: dict     # degree -> list of index tuples (lexicographic)
    packs: dict       # degree -> (module, injections, projections)


def koszul_complex(x_seq, M):
    """K(x_1, ..., x_k; M): degree j holds one copy of M per j-subset."""
    if not x_seq:
        raise AxiomViolation("Koszul complex of an empty sequence")
    k = len(x_seq)
    subsets = {j: list(itertools.combinations(range(k), j)) for j in range(k + 1)}
    packs = {j: module_power(M, len(subsets[j])) for j in range(k + 1)}
    modules = {j: packs[j][0] for j in range(k + 1)}
    acts = [M.action_hom(x) for x in x_seq]
    diffs = {}
    for j in range(1, k + 1):
        index_of = {S: idx for idx, S in enumerate(subsets[j - 1])}
        blocks = [
            (index_of[S[:t] + S[t + 1 :]], s_idx, acts[e], -1 if t % 2 else 1)
            for s_idx, S in enumerate(subsets[j])
            for t, e in enumerate(S)
        ]
        diffs[j] = ModuleHom(modules[j], modules[j - 1], block_hom(packs[j], packs[j - 1], blocks))
    C = ChainComplex(modules, diffs)
    return KoszulData(C, tuple(x_seq), M, subsets, packs)


def koszul_powers(x_seq, n):
    return [x ** n for x in x_seq]


def koszul_transition(x_seq, m, n, M, source=None, target=None):
    """Natural map K(x^(m); M) -> K(x^(n); M) for m >= n: the summand of a
    subset S is multiplied by prod_{i in S} x_i^{m-n}."""
    if m < n:
        raise AxiomViolation("transition needs m >= n")
    src = source if source is not None else koszul_complex(koszul_powers(x_seq, m), M)
    tgt = target if target is not None else koszul_complex(koszul_powers(x_seq, n), M)
    comps = {}
    for j in src.subsets:
        hom = _transition_component(x_seq, src, tgt, j, m - n)
        comps[j] = ModuleHom(src.packs[j][0], tgt.packs[j][0], hom)
    return ComplexMap(src.complex, tgt.complex, comps), src, tgt


def _subset_multiplier(x_seq, S, e, M):
    """Action on M of the product of x_i^e over i in S."""
    mult = M.ring.one()
    for i in S:
        mult = mult * (x_seq[i] ** e)
    return M.action_hom(mult)


def _transition_component(x_seq, src, tgt, j, e):
    """Degree-j component of the Koszul transition K(x^(n+e); M) -> K(x^(n); M)."""
    blocks = [
        (idx, idx, _subset_multiplier(x_seq, S, e, src.module), 1)
        for idx, S in enumerate(src.subsets[j])
    ]
    return block_hom(src.packs[j], tgt.packs[j], blocks)


class KoszulTower:
    """Koszul complexes of x^(n) on M for varying n, with homology caches."""

    def __init__(self, x_seq, M):
        self.x_seq = tuple(x_seq)
        self.M = M
        self._levels = {}
        self._homology = {}

    def level(self, n):
        if n not in self._levels:
            self._levels[n] = koszul_complex(koszul_powers(self.x_seq, n), self.M)
        return self._levels[n]

    def homology(self, i, n):
        key = (i, n)
        if key not in self._homology:
            self._homology[key] = self.level(n).complex.homology(i)
        return self._homology[key]

    def transition(self, m, n):
        cmap, _, _ = koszul_transition(
            self.x_seq, m, n, self.M, source=self.level(m), target=self.level(n)
        )
        return cmap

    def transition_component(self, i, m, n):
        """Single degree-i component of the transition, without building the
        other degrees (commutation is a theorem, exercised by the tests)."""
        return _transition_component(self.x_seq, self.level(m), self.level(n), i, m - n)

    def induced(self, i, m, n):
        comp = self.transition_component(i, m, n)
        return induced_on_homology(comp, self.homology(i, m), self.homology(i, n))


def pro_zero_index(x_seq, M, i, n, m_max, tower=None):
    """Least m >= n with the transition H_i(x^(m); M) -> H_i(x^(n); M) zero,
    or None when the bound m_max is exhausted."""
    if i < 1 or n < 1:
        raise AxiomViolation("pro-zero search needs i >= 1 and n >= 1")
    if tower is None:
        tower = KoszulTower(x_seq, M)
    if tower.homology(i, n).module.is_zero_module():
        return n
    for m in range(n, m_max + 1):
        if tower.induced(i, m, n).is_zero_map():
            return m
    return None


# ---------------------------------------------------------------------------
# The colon/Koszul identification of the multiplication maps


def _colon_quotient_data(M, xs, y, n):
    """(x^(n) M :_M y^n) / x^(n) M as a SubquotientData."""
    Nsub = power_image(M, xs, [n] * len(xs)) if xs else Submodule(M, M.zero_span())
    col = colon_submodule(M, Nsub, y, n)
    return subquotient_module(M, col.span, Nsub.span), Nsub


def _quotient_transition(Qm, section_m, Qn, projn):
    """Induced projection M/span_m -> M/span_n for span_m <= span_n, through
    the section of the level-m projection."""
    M = projn.source
    cols = [list(projn(M.group.element(c)).coords) for c in section_m.cols_list()]
    mat = (
        IntMatrix.from_cols(cols, rows=Qn.group.rank)
        if cols
        else IntMatrix(Qn.group.rank, 0, [])
    )
    return ModuleHom(Qm, Qn, GroupHom(Qm.group, Qn.group, mat))


def colon_identification(xs, y, n, M, extra_levels=(1, 2)):
    """Identify (x^(n)M :_M y^n)/x^(n)M with H_1(y^n; H_0(x^(n); M)) and
    verify that multiplication by y^(m-n) on the colon quotients matches the
    Koszul transition on H_1, for m = n + each extra level.

    Returns a dict of witnesses; raises IdentificationFailure if any part
    fails (the identification is a theorem, so failure means a bug)."""

    def level(nn):
        lhs, Nsub = _colon_quotient_data(M, xs, y, nn)
        Q, proj, section = quotient_module_data(M, Nsub)
        kos = koszul_complex([y ** nn], Q)
        rhs = kos.complex.homology(1)
        return lhs, section, Q, proj, kos, rhs

    def canonical_map(lhs, proj, kos, rhs):
        # class of v in the colon quotient -> class of v in 0 :_Q y^n
        src = lhs.module
        pack1 = kos.packs[1]
        cols = []
        for j in range(src.group.rank):
            gen = src.group.element(
                tuple(1 if t == j else 0 for t in range(src.group.rank))
            )
            v = lhs.lift(gen)
            q = proj(v)
            cyc = pack1[1][0](q)  # inject into the degree-1 block
            cols.append(list(rhs.classify(cyc).coords))
        mat = (
            IntMatrix.from_cols(cols, rows=rhs.module.group.rank)
            if cols
            else IntMatrix(rhs.module.group.rank, 0, [])
        )
        return ModuleHom(src, rhs.module, GroupHom(src.group, rhs.module.group, mat))

    def check_iso(f):
        if f.source.order() != f.target.order():
            return False
        from .intlinalg import hom_kernel_span, span_subgroup_order

        ker = hom_kernel_span(f.hom)
        if f.source.group.rank and span_subgroup_order(f.source.group, ker) != 1:
            return False
        return f.check_equivariance()

    lhs_n, _, Q_n, proj_n, kos_n, rhs_n = level(n)
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
        lhs_m, section_m, Q_m, proj_m, kos_m, rhs_m = level(m)
        chi_m = canonical_map(lhs_m, proj_m, kos_m, rhs_m)
        if not check_iso(chi_m):
            raise IdentificationFailure(f"canonical map is not an isomorphism at level {m}")
        # map (3): multiplication by y^(m-n) between colon quotients
        ymn = y ** (m - n)
        cols = []
        src = lhs_m.module
        for j in range(src.group.rank):
            gen = src.group.element(tuple(1 if t == j else 0 for t in range(src.group.rank)))
            v = lhs_m.lift(gen)
            w = M.action_hom(ymn)(v)
            cols.append(list(lhs_n.classify(w).coords))
        mat = (
            IntMatrix.from_cols(cols, rows=lhs_n.module.group.rank)
            if cols
            else IntMatrix(lhs_n.module.group.rank, 0, [])
        )
        map3 = ModuleHom(src, lhs_n.module, GroupHom(src.group, lhs_n.module.group, mat))
        # map (4): the Koszul transition K(y^m; Q_m) -> K(y^n; Q_n):
        # degree 0 the base projection, degree 1 multiplication by y^(m-n)
        # composed with the projection; verified to commute, then induced.
        base = _quotient_transition(Q_m, section_m, Q_n, proj_n)
        comp0 = base
        comp1 = ModuleHom(
            kos_m.packs[1][0],
            kos_n.packs[1][0],
            kos_n.packs[1][1][0]
            .hom.compose(Q_n.action_hom(ymn))
            .compose(base.hom)
            .compose(kos_m.packs[1][2][0].hom),
        )
        cmap = ComplexMap(
            kos_m.complex, kos_n.complex, {0: comp0, 1: comp1}
        )  # construction validates commuting
        map4 = induced_on_homology(cmap.component(1).hom, rhs_m, rhs_n)
        # the (3)/(4) square: chi_n o map3 == map4 o chi_m
        left = chi_n.hom.compose(map3.hom)
        right = map4.hom.compose(chi_m.hom)
        if not left.equals_map(right):
            raise IdentificationFailure(f"square fails between levels {m} and {n}")
        witness["squares"].append({"m": m, "n": n, "commutes": True})
    return witness, True


# ---------------------------------------------------------------------------
# Cech complexes via localization


@dataclass(frozen=True)
class CechData:
    """Cech cochain complex of a sequence on a module.

    Degree j is the direct sum over j-subsets S of the localizations e_S M,
    where e_S is the Fitting idempotent of the product of the x_i, i in S.
    """

    module: FgModule
    sequence: tuple
    subsets: dict
    locs: dict        # subset -> (abstract module, inclusion, subgroup data)
    packs: dict       # degree -> (module, injections, projections)
    codiffs: dict     # j -> ModuleHom C^j -> C^{j+1}

    def cohomology_data(self, i):
        X = self.packs[i][0]
        outgoing = self.codiffs.get(i)
        incoming = self.codiffs.get(i - 1)
        return homology_module(
            X,
            outgoing.hom if outgoing is not None else None,
            incoming.hom if incoming is not None else None,
        )


def _localized_module(M, elems):
    """e_S M as an abstract module, with inclusion and classify data."""
    R = M.ring
    f = R.one()
    for x in elems:
        f = f * x
    _, e = fitting_split(R, f)
    span = span_lattice(M.group, M.action_hom(e).matrix.cols_list())
    S, incl, data = submodule_module_data(M, Submodule(M, span))
    return S, incl, data, e


def cech_complex(x_seq, M):
    """The Cech cochain complex 0 -> M -> (+) M_{x_i} -> ... with
    lexicographic subsets and position signs."""
    k = len(x_seq)
    subsets = {j: list(itertools.combinations(range(k), j)) for j in range(k + 1)}
    locs = {}
    for j in range(k + 1):
        for S in subsets[j]:
            locs[S] = _localized_module(M, [x_seq[i] for i in S])
    packs = {j: direct_sum_modules([locs[S][0] for S in subsets[j]]) for j in range(k + 1)}
    codiffs = {}
    for j in range(k):
        index_of = {S: idx for idx, S in enumerate(subsets[j])}
        blocks = []
        for t_idx, T in enumerate(subsets[j + 1]):
            for a, dropped in enumerate(T):
                S = tuple(e for e in T if e != dropped)
                sign = -1 if a % 2 else 1
                S_mod, S_incl, _, _ = locs[S]
                T_mod, _, T_data, eT = locs[T]
                # localize further: include into M, multiply by e_T, classify
                cols = []
                for u in range(S_mod.group.rank):
                    gen = S_mod.group.element(
                        tuple(1 if t == u else 0 for t in range(S_mod.group.rank))
                    )
                    v = M.action_hom(eT)(S_incl(gen))
                    cols.append(list(T_data.classify(v).coords))
                mat = (
                    IntMatrix.from_cols(cols, rows=T_mod.group.rank)
                    if cols
                    else IntMatrix(T_mod.group.rank, 0, [])
                )
                step = GroupHom(S_mod.group, T_mod.group, mat)
                blocks.append((t_idx, index_of[S], step, sign))
        hom = block_hom(packs[j], packs[j + 1], blocks)
        codiffs[j] = ModuleHom(packs[j][0], packs[j + 1][0], hom)
    # verify d o d = 0 on the cochain complex
    for j in range(k - 1):
        if not codiffs[j + 1].compose(codiffs[j]).is_zero_map():
            raise AxiomViolation(f"Cech codifferential fails d o d = 0 at degree {j}")
    return CechData(M, tuple(x_seq), subsets, locs, packs, codiffs)


def cech_cohomology(x_seq, M, i):
    """H^i of the Cech cochain complex; degree 0 equals the torsion
    submodule of the generated ideal."""
    data = cech_complex(x_seq, M)
    if i > len(x_seq):
        return zero_module(M.ring)
    return data.cohomology_data(i).module


# ---------------------------------------------------------------------------
# Inverse systems and Cech homology


class InverseSystem:
    """Modules M_1 .. M_{n_max} with transitions tau_{m,n} for m >= n,
    stored as adjacent steps tau_{n+1 -> n} and composed on demand."""

    def __init__(self, modules, adjacent):
        if len(adjacent) != max(len(modules) - 1, 0):
            raise AxiomViolation("need one adjacent transition per step")
        self.modules = list(modules)
        self.adjacent = list(adjacent)

    @property
    def n_max(self):
        return len(self.modules)

    def module(self, n):
        return self.modules[n - 1]

    def transition(self, m, n):
        """tau_{m,n}: M_m -> M_n for m >= n (identity when m = n)."""
        if m < n:
            raise AxiomViolation("transition needs m >= n")
        if m == n:
            X = self.module(n)
            return ModuleHom(X, X, GroupHom.identity(X.group))
        f = self.adjacent[m - 2]  # tau_{m -> m-1}
        for step in range(m - 1, n, -1):
            f = self.adjacent[step - 2].compose(f)
        return f

    def verify_functoriality(self, samples=None):
        triples = samples or []
        if not triples and self.n_max >= 3:
            triples = [(self.n_max, (self.n_max + 1) // 2, 1)]
        for l, m, n in triples:
            direct = self.transition(l, n)
            composed = self.transition(m, n).compose(self.transition(l, m))
            if not direct.hom.equals_map(composed.hom):
                return False
        return True


def stable_limit(system):
    """Eventual-image limit of an inverse system of finite modules.

    For each n the images im(tau_{m,n}) stabilize; the stabilized subsystem
    has surjective transitions (Mittag-Leffler), and once those become
    isomorphisms the inverse limit is the stable value.  Raises
    NotStabilized when the index range ends before both stabilizations are
    witnessed with at least one repeated step."""
    from .intlinalg import span_subgroup_order

    n_max = system.n_max
    # eventual images E_n for the longest prefix of indices where the image
    # chain is seen to be constant through the top of the range (the repeat
    # at m = n_max is the witness)
    eventual = []
    for n in range(1, n_max):
        spans = [hom_image_span(system.transition(m, n).hom) for m in range(n, n_max + 1)]
        stable_span = spans[-1]
        m0 = None
        for idx in range(len(spans)):
            if all(s == stable_span for s in spans[idx:]):
                m0 = n + idx
                break
        if m0 is None or m0 >= n_max:
            break
        eventual.append(stable_span)
    n0 = len(eventual)
    if n0 < 2:
        raise NotStabilized(
            f"eventual images witnessed only up to index {n0} within range {n_max}"
        )
    # Mittag-Leffler surjectivity of the restricted transitions
    for n in range(1, n0):
        tau = system.transition(n + 1, n)
        Gm = system.module(n + 1).group
        image_of_E = span_lattice(
            system.module(n).group,
            [tau.hom.matrix.apply(Gm.reduce(tuple(c))) for c in eventual[n].cols_list()],
        )
        if image_of_E != eventual[n - 1]:
            raise NotStabilized("stabilized transitions are not surjective")
    # isomorphism tail of the stabilized subsystem (surjective + equal size)
    sizes = [
        span_subgroup_order(system.module(n).group, eventual[n - 1])
        if system.module(n).group.rank
        else 1
        for n in range(1, n0 + 1)
    ]
    s = None
    for n in range(1, n0 + 1):
        if all(sz == sizes[n - 1] for sz in sizes[n - 1 :]):
            s = n
            break
    if s is None or s > n0 - 1:
        raise NotStabilized("stabilized subsystem has no witnessed isomorphism tail")
    limit_mod, _ = submodule_module(
        system.module(s), Submodule(system.module(s), eventual[s - 1])
    )
    return limit_mod, s


def _homology_limit(M, n_max, homology, component):
    """stable_limit of the inverse system of homology(n) (a SubquotientData)
    for n = 1, 2, ..., with the adjacent transitions induced by
    component(n), the group hom of level n + 1 -> level n.

    With n_max given, exactly n_max levels are used.  Otherwise the range
    starts at 4 and doubles on NotStabilized up to a cap set by the size of
    M; the levels of a shorter range are kept and extended, never rebuilt."""
    cap = n_max or max(6, 2 * max(M.order(), 2).bit_length() + 2)
    attempt = n_max or 4
    datas, adjacent = [], []
    while True:
        while len(datas) < attempt:
            datas.append(homology(len(datas) + 1))
            n = len(datas) - 1
            if n:
                adjacent.append(induced_on_homology(component(n), datas[n], datas[n - 1]))
        try:
            limit, _ = stable_limit(InverseSystem([d.module for d in datas], adjacent))
            return limit
        except NotStabilized:
            if n_max is not None or attempt >= cap:
                raise
            attempt = min(cap, attempt * 2)


def cech_homology(x_seq, M, i, n_max=None):
    """Cech homology via stabilized limits of Koszul homology; degree 0 is
    the adic completion, degree i >= 1 vanishes for finite modules."""
    if i < 0:
        raise AxiomViolation("negative homological degree")
    if i > len(x_seq):
        return zero_module(M.ring)
    tower = KoszulTower(x_seq, M)
    return _homology_limit(
        M,
        n_max,
        lambda n: tower.homology(i, n),
        lambda n: tower.transition_component(i, n + 1, n),
    )


# ---------------------------------------------------------------------------
# Tor comparison through the Cech-homology of a tensored resolution


def _total_complex_level(x_seq, n, M, res):
    """Tot(K(x^(n)) tensor M tensor L) for a free resolution L of N.

    Blocks of degree d are (S, q, u) with |S| + q = d and u a copy index of
    the free rank in degree q; every block is one copy of M."""
    k = len(x_seq)
    ranks = res.ranks
    subsets = {j: list(itertools.combinations(range(k), j)) for j in range(k + 1)}
    degrees = range(0, k + len(ranks))
    blocks = {}
    for d in degrees:
        blist = []
        for j in range(0, min(d, k) + 1):
            q = d - j
            if q >= len(ranks):
                continue
            for S in subsets[j]:
                for u in range(ranks[q]):
                    blist.append((j, S, q, u))
        blocks[d] = blist
    packs = {d: module_power(M, len(blocks[d])) for d in degrees}
    index = {d: {b: idx for idx, b in enumerate(blocks[d])} for d in degrees}
    acts = [M.action_hom(x ** n) for x in x_seq]
    diffs = {}
    for d in degrees:
        if d == 0 or not blocks[d]:
            continue
        tgt_index = index[d - 1]
        hom_blocks = []
        for b_idx, (j, S, q, u) in enumerate(blocks[d]):
            # Koszul part: drop one index, multiply by x^n, position sign
            for t, e in enumerate(S):
                T = S[:t] + S[t + 1 :]
                hom_blocks.append((tgt_index[(j - 1, T, q, u)], b_idx, acts[e], (-1) ** t))
            # resolution part: (-1)^j id tensor d_L
            if q >= 1:
                for v, rel in enumerate(res.ring_matrices[q - 1][u]):
                    tgt_idx = tgt_index[(j, S, q - 1, v)]
                    hom_blocks.append((tgt_idx, b_idx, M.action_hom(rel), (-1) ** j))
        hom = block_hom(packs[d], packs[d - 1], hom_blocks)
        diffs[d] = ModuleHom(packs[d][0], packs[d - 1][0], hom)
    C = ChainComplex({d: packs[d][0] for d in degrees}, diffs)
    return C, blocks, packs, index


def _total_transition(x_seq, m, n, M, res, src_pack, tgt_pack):
    """Transition between total complexes: subset blocks scaled by the
    product of x_i^(m-n), identity on the resolution part."""
    C_m, blocks_m, packs_m, _ = src_pack
    C_n, _, packs_n, index_n = tgt_pack
    comps = {}
    for d, blist in blocks_m.items():
        hom_blocks = [
            (index_n[d][b], b_idx, _subset_multiplier(x_seq, b[1], m - n, M), 1)
            for b_idx, b in enumerate(blist)
        ]
        hom = block_hom(packs_m[d], packs_n[d], hom_blocks)
        comps[d] = ModuleHom(packs_m[d][0], packs_n[d][0], hom)
    return ComplexMap(C_m, C_n, comps)


def cech_tor_compare(M, N, x_seq, i, resolution_length, n_max=None):
    """Compare lim_n H_i(K(x^(n)) tensor M tensor L) against
    Tor_i(completion(M), N) for a free resolution L of N.

    Returns (lhs, rhs, agree) where agreement is isomorphism of invariant
    factors plus the action fingerprint."""
    if resolution_length <= i:
        raise AxiomViolation("resolution length must exceed the degree")
    from .modules import derived_functor, modules_isomorphic
    from .rings import Ideal

    res = free_resolution(N, resolution_length)
    levels = {}

    def homology(n):
        levels[n] = _total_complex_level(x_seq, n, M, res)
        return levels[n][0].homology(i)

    def component(n):
        cmap = _total_transition(x_seq, n + 1, n, M, res, levels[n + 1], levels[n])
        return cmap.component(i).hom

    lhs = _homology_limit(M, n_max, homology, component)
    I = Ideal(M.ring, tuple(x_seq))
    lam, _ = adic_completion(M, I)
    rhs = derived_functor("tor", lam, N, i)
    return lhs, rhs, modules_isomorphic(lhs, rhs)
