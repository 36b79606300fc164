"""Koszul and Cech machinery, Cech homology, the colon identification.

Koszul complexes are built on lexicographically ordered subsets with the
sign of a face given by the position of the dropped index; transitions
between power levels multiply each subset summand by the matching product
of element powers.  The Koszul builder takes an optional free resolution L
and then builds the total complex of K(x) tensor M tensor L (the plain
Koszul complex is the case L = R in degree 0), so Cech homology and the
Tor comparison share one `KoszulTower` and one limit (`_homology_limit`).
What does not depend on the sequence's entries (the blocks, one module
power per distinct block count, the d_L blocks) is one private layout per
tower, each part formed on first use; each level only adds the Koszul face
blocks of x^(n).  A tower keeps differentials, not levels: each d_d of a
level is assembled once, when first read.  Koszul homology and its
transitions are read as spans of the chains: the Cech-homology limit,
the weak profile (`_transition_image`), the Tor side of the comparison and
the colon identification, which reads H_1(y^n; M/x^(n)M) off the tower of
the one element y.
The Cech complex (`CechData`) keeps the tower of the Fitting idempotents
e of its sequence, one split per element, kept on the ring, and is built
on that tower's layout: degree j is the power M^(k choose j), its
codifferential is the layout's faces transposed, copy S to copy T by the
face's sign times e_T (the product of its elements' idempotents), and the
localizations (+) e_S M are the subcomplex cut out by E = diag(e_S), the
tower's transition by e.  Like a tower, it assembles each E_j and each
codifferential once, when first read.  `cech_complex` keeps the last
complex it built, keyed by the module's identity and the sequence, so
the per-degree calls `cech_cohomology` and `cech_homology` on one (M, x)
read every degree off one complex and its tower: each module power,
action, E_j, d^j and Koszul differential is built once over all 2(k + 1)
degrees, and at most one complex is kept alive.  No complex is built
whole at runtime: the whole-complex route (`koszul_complex`,
`ChainComplex`, `ComplexMap`) is a reference in
`tests/complex_reference.py` that only the tests take.

Cech homology is the inverse limit of Koszul homology H_i(x^(m)), which for
finite modules agrees with the derived-Hom definition because the lim^1
term dies (Mittag-Leffler).  Over a finite ring it needs no level of x:
on each local factor every e_j is 1 or 0, and the limit is read off level
1 of the tower of e that the Cech complex keeps, with its E_i
(`_homology_limit`).

Every differential, codifferential, transition and E_j between module
powers here is a list of blocks handed to `modules.block_hom`, which
writes each block at the slots of its copies (the `positions` of the
`modules.ModulePower` records), with no injection or projection.  The
maps between colon quotients, quotients M/x^(n)M and their Koszul
homology in the colon identification are `intlinalg.induced_hom` on the
subquotients' `GroupSubquotient` records, the one lift/classify path."""

from __future__ import annotations

import itertools

from .errors import AxiomViolation, DimensionMismatch, IdentificationFailure
from .intlinalg import (
    GroupHom,
    hom_image_span,
    hom_kernel_span,
    induced_hom,
    span_lattice,
    span_subgroup_order,
)
from .modules import (
    ModuleHom,
    Submodule,
    adic_completion,
    block_hom,
    colon_submodule,
    free_resolution,
    module_power,
    modules_isomorphic,
    power_image,
    quotient_module_data,
    subquotient_module,
    zero_module,
)
from .rings import Ideal, fitting_split, ring_product


# ---------------------------------------------------------------------------
# Koszul complexes


class _KoszulLayout:
    """The parts of K(x; M) tensor L that do not depend on the entries of
    x, for a sequence of length k: the blocks of each degree and their
    index, formed up front; and, formed on first use, one `module_power`
    of M per distinct block count (degrees with as many blocks share it)
    and the Koszul face and (-1)^|S| id tensor d_L blocks of each
    differential, with one action of M per distinct ring element (entries
    of x and of L's differentials).  A `KoszulTower` builds one for all its
    levels; `differential(x, d)` adds the Koszul face blocks of x.

    Degree d is one copy of M per block (S, q, u): S a subset of the indices
    (a tuple), q = d - |S| a degree of L and u < ranks[q] a basis index of
    L_q.  Without a resolution the ranks are (1,), so degree d holds one
    block (S, 0, 0) per d-subset.  Blocks are ordered by |S|, then S
    lexicographically, then u.  The differential sends block (S, q, u) to
    (S minus S[t], q, u) by x_{S[t]} with sign (-1)^t, and to (S, q - 1, v)
    by the ring entry of d_L from u to v with sign (-1)^|S|.  The empty
    sequence gives M in degree 0 (M tensor L without the Koszul part)."""

    def __init__(self, k, M, res):
        ranks = res.ranks if res is not None else (1,)
        self.M = M
        self.res = res
        self.degrees = range(k + len(ranks))
        self.blocks = {
            d: [
                (S, d - j, u)
                for j in range(max(0, d - len(ranks) + 1), min(d, k) + 1)
                for S in itertools.combinations(range(k), j)
                for u in range(ranks[d - j])
            ]
            for d in self.degrees
        }
        self.index = {d: {b: i for i, b in enumerate(self.blocks[d])} for d in self.degrees}
        self._powers = {}       # block count -> module_power(M, count)
        self._diff_blocks = {}  # degree -> (faces, d_L blocks)
        self._acts = {}         # ring element -> its action on M

    def pack(self, d):
        """The `ModulePower` M^s for the s blocks of degree d."""
        s = len(self.blocks[d])
        if s not in self._powers:
            self._powers[s] = module_power(self.M, s)
        return self._powers[s]

    def action(self, r):
        """The action of the ring element r on M, formed once per r."""
        if r.coords not in self._acts:
            self._acts[r.coords] = self.M.action_hom(r)
        return self._acts[r.coords]

    def diff_blocks(self, d):
        """The blocks of d_d that do not depend on x: the Koszul faces as
        (target block, source block, entry of x, sign), and the
        (-1)^|S| id tensor d_L blocks as (target, source, action, sign)."""
        if d not in self._diff_blocks:
            below = self.index[d - 1]
            faces, res_part = [], []
            for b_idx, (S, q, u) in enumerate(self.blocks[d]):
                for t, e in enumerate(S):
                    face = (S[:t] + S[t + 1 :], q, u)
                    faces.append((below[face], b_idx, e, -1 if t % 2 else 1))
                if q:
                    sign = -1 if len(S) % 2 else 1
                    for v, rel in enumerate(self.res.ring_matrices[q - 1][u]):
                        if rel.is_zero():
                            continue
                        res_part.append((below[(S, q - 1, v)], b_idx, self.action(rel), sign))
            self._diff_blocks[d] = faces, res_part
        return self._diff_blocks[d]

    def differential(self, x_seq, d):
        """d_d of K(x; M) tensor L: the blocks of `diff_blocks` with each
        face's entry of x replaced by its action, between the module powers
        of degrees d and d - 1, the only ones it forms."""
        faces, res_part = self.diff_blocks(d)
        blocks = [(t, s, self.action(x_seq[e]), c) for t, s, e, c in faces] + res_part
        source, target = self.pack(d), self.pack(d - 1)
        return ModuleHom(source.module, target.module, block_hom(source, target, blocks))

    def transition(self, y_seq, j):
        """Degree-j component of the transition K(x^(n+e)) -> K(x^(n)) for
        y = x^(e): block (S, q, u) is multiplied by the product of the y_i,
        i in S, one product per subset S, its action read off `action`."""
        R = self.M.ring
        subsets = {S for S, _, _ in self.blocks[j]}
        acts = {S: self.action(ring_product(R, [y_seq[i] for i in S])) for S in subsets}
        blocks = [(b, b, acts[S], 1) for b, (S, _, _) in enumerate(self.blocks[j])]
        return block_hom(self.pack(j), self.pack(j), blocks)


class KoszulTower:
    """The differentials of the Koszul complexes of x^(n) on M for varying
    n; with a free resolution `res`, of the total complexes of K(x^(n))
    tensor M tensor res (see `_KoszulLayout`).  Every level shares one
    layout, and no level is built whole: each d_d of a level is assembled
    once, when first read.  Level 2n's entries square level n's, and a
    transition by x^(e) takes level e's, when built, and is kept per degree
    and e, as the cycles and boundaries read are, as spans of C_i."""

    def __init__(self, x_seq, M, res=None):
        self.x_seq = tuple(x_seq)
        self.M = M
        self._layout = _KoszulLayout(len(self.x_seq), M, res)
        self._sequences = {}  # n -> x^(n)
        self._diffs = {}      # (n, d) -> d_d of level n
        self._transitions = {}  # (i, e) -> degree-i transition by x^(e)
        self._spans = {}      # ("Z" or "B", i, n) -> a canonical span in C_i

    def _powers(self, n):
        if n not in self._sequences:
            half = self._sequences.get(n // 2) if n % 2 == 0 else None
            seq = [y * y for y in half] if half is not None else [x ** n for x in self.x_seq]
            self._sequences[n] = tuple(seq)
        return self._sequences[n]

    def chains(self, i):
        """C_i, one copy of M per block of degree i at every level."""
        return self._layout.pack(i).module

    def differential(self, n, d):
        """d_d of level n, 1 <= d <= the top degree; d o d = 0 is checked
        once per adjacent pair of a level, when its second map is built."""
        if (n, d) not in self._diffs:
            f = self._layout.differential(self._powers(n), d)
            below, above = self._diffs.get((n, d - 1)), self._diffs.get((n, d + 1))
            for lower, upper, e in ((below, f, d), (f, above, d + 1)):
                if lower is not None and upper is not None and not lower.compose(upper).is_zero_map():
                    raise AxiomViolation(f"d_{e - 1} after d_{e} is not zero at level {n}")
            self._diffs[(n, d)] = f
        return self._diffs[(n, d)]

    def cycles(self, i, n):
        """Z_i(x^(n)) = ker d_i, kept; all of C_0 in degree 0."""
        if ("Z", i, n) not in self._spans:
            Z = hom_kernel_span(self.differential(n, i).hom) if i else self.chains(0).full_span()
            self._spans["Z", i, n] = Z
        return self._spans["Z", i, n]

    def boundaries(self, i, n):
        """B_i(x^(n)) = im d_(i+1), kept; zero in the top degree."""
        if ("B", i, n) not in self._spans:
            top = i == self._layout.degrees[-1]
            B = self.chains(i).zero_span() if top else hom_image_span(self.differential(n, i + 1).hom)
            self._spans["B", i, n] = B
        return self._spans["B", i, n]

    def transition_component(self, i, m, n):
        """Single degree-i component of the transition x^(m) -> x^(n), on the
        layout alone: no differential is built (commutation is a theorem,
        exercised by the tests)."""
        if (i, m - n) not in self._transitions:
            self._transitions[i, m - n] = self._layout.transition(self._powers(m - n), i)
        return self._transitions[i, m - n]


def _transition_image(tower, i, m, n):
    """(tau Z_i(x^(m)) + B_i(x^(n)), B_i(x^(n))) as canonical spans of C_i,
    for tau the degree-i transition x^(m) -> x^(n), m >= n: the classes of
    the image of H_i(x^(m)) -> H_i(x^(n)), and of zero.  The map is zero
    exactly when the two are equal, and its image is their subquotient.
    For m = n, tau is the identity and B lies in Z: the pair is (Z, B)."""
    bounds = tower.boundaries(i, n)
    if m == n:
        return tower.cycles(i, n), bounds
    tau = tower.transition_component(i, m, n).matrix
    moved = (tau * tower.cycles(i, m)).cols_list()
    return span_lattice(tower.chains(i).group, moved + bounds.cols_list()), bounds


def pro_zero_index(tower, i, n, m_max):
    """Least m in [n, m_max] with the transition H_i(x^(m); M) ->
    H_i(x^(n); M) of the tower's levels zero, or None when there is none,
    so None for n > m_max, as in the colon scans.  At m = n the transition
    is the identity, zero exactly when H_i(x^(n)) = 0.  Each m is one span
    comparison (`_transition_image`)."""
    k = len(tower.x_seq)
    if not 1 <= i <= k:
        raise AxiomViolation(f"pro-zero search needs 1 <= i <= {k}, got i = {i}")
    if n < 1:
        raise AxiomViolation("pro-zero search needs n >= 1")
    for m in range(n, m_max + 1):
        image, bounds = _transition_image(tower, i, m, n)
        if image == bounds:
            return m
    return None


# ---------------------------------------------------------------------------
# The colon/Koszul identification of the multiplication maps


def colon_identification(xs, y, n, M, extra_levels=(1, 2)):
    """Identify (x^(n)M :_M y^n)/x^(n)M with H_1(y^n; Q_n), Q_n = M/x^(n)M,
    and verify that multiplication by y^(m-n) on the colon quotients matches
    the Koszul transition on H_1, for m = n + each extra level.

    H_1 at level l is read off `KoszulTower([y], Q_l)` as the spans
    (Z_1, B_1) of its chains C_1, which for one element is Q_l itself (a
    one-copy power is laid out as the module), so the canonical map chi_l
    is the projection M -> Q_l, induced on the subquotients.

    Returns a dict of witnesses; raises IdentificationFailure if any part
    fails (the identification is a theorem, so failure means a bug)."""

    def level(l):
        Nsub = power_image(M, xs, [l] * len(xs)) if xs else Submodule(M, M.zero_span())
        lhs = subquotient_module(M, colon_submodule(M, Nsub, y, l).span, Nsub.span)
        _, proj, quo = quotient_module_data(M, Nsub)
        tower = KoszulTower([y], proj.target)
        rhs = subquotient_module(tower.chains(1), *_transition_image(tower, 1, l, l))
        # class of v in the colon quotient -> class of v in 0 :_Q y^l
        chi = ModuleHom(lhs.module, rhs.module, induced_hom(proj.hom, lhs.data, rhs.data))
        if not (
            chi.source.order() == chi.target.order()
            and span_subgroup_order(chi.source.group, hom_kernel_span(chi.hom)) == 1
            and chi.check_equivariance()
        ):
            raise IdentificationFailure(f"canonical map is not an isomorphism at level {l}")
        return lhs, rhs, chi, quo, tower.differential(l, 1).hom

    lhs_n, rhs_n, chi_n, quo_n, d_n = level(n)
    witness = {
        "level": n,
        "colon_quotient_order": lhs_n.module.order(),
        "koszul_h1_order": rhs_n.module.order(),
        "squares": [],
    }
    for extra in extra_levels:
        m = n + extra
        lhs_m, rhs_m, chi_m, quo_m, d_m = level(m)
        ymn = M.action_hom(y ** (m - n))
        # map (3): multiplication by y^(m-n) between colon quotients
        map3 = induced_hom(ymn, lhs_m.data, lhs_n.data)
        # map (4): the Koszul transition K(y^m; Q_m) -> K(y^n; Q_n) is the
        # base projection in degree 0 and y^(m-n) times it in degree 1; its
        # one square d_1(y^n) o (y^(m-n) base) = base o d_1(y^m) is checked
        base = induced_hom(GroupHom.identity(M.group), quo_m, quo_n)
        tau = induced_hom(ymn, quo_m, quo_n)
        if not d_n.compose(tau).equals_map(base.compose(d_m)):
            raise IdentificationFailure(f"Koszul transition fails d_1 between levels {m} and {n}")
        map4 = induced_hom(tau, rhs_m.data, rhs_n.data)
        # the (3)/(4) square: chi_n o map3 == map4 o chi_m
        if not chi_n.hom.compose(map3).equals_map(map4.compose(chi_m.hom)):
            raise IdentificationFailure(f"square fails between levels {m} and {n}")
        witness["squares"].append({"m": m, "n": n, "commutes": True})
    return witness, True


# ---------------------------------------------------------------------------
# Cech complexes via localization


class CechData:
    """Cech cochain complex of a sequence on a module, on the Koszul layout.

    Degree j is M^(k choose j), one copy per j-subset S in the layout's
    order, and `idempotent(j)` is E_j = diag(e_S), where e_S is the Fitting
    idempotent of the product of the x_i, i in S.  A finite ring is a
    product of local rings, where each element is a unit or nilpotent, so
    that idempotent is the product of the e_i = e_{x_i}: E_j is the
    degree-j transition by e of `tower`, the Koszul tower of e on M, whose
    layout the complex is built on.  The codifferential `codifferential(j)`
    sends copy S to each copy T containing S by +-e_T.  Since e_T e_S =
    e_T, d = d E = E d: the complex of localizations (+) e_S M is the
    subcomplex E M^(k choose j), and d kills (1 - E) M^(k choose j).

    Like `KoszulTower`, the complex is never built whole: each E_j (kept
    by the tower) and each d^j is assembled once, when first read, with one
    action of M per distinct e_S (the layout's).  The Cech homology reads
    level 1 of the same tower and the same E_i.
    """

    def __init__(self, x_seq, M):
        self.module = M
        self.sequence = tuple(x_seq)
        self.tower = KoszulTower([fitting_split(M.ring, x)[1] for x in self.sequence], M)
        self._layout = self.tower._layout
        self._actions = {}      # S -> action of e_S
        self._codiffs = {}      # j -> d^j

    def _action(self, S):
        """The action of e_S, the product of the e_i over i in S, on M,
        formed once per S."""
        if S not in self._actions:
            e = ring_product(self.module.ring, [self.tower.x_seq[i] for i in S])
            self._actions[S] = self._layout.action(e)
        return self._actions[S]

    def idempotent(self, j):
        """E_j = diag(e_S) on C^j: the tower's degree-j transition by e."""
        return self.tower.transition_component(j, 2, 1)

    def codifferential(self, j):
        """d^j: C^j -> C^(j+1), 0 <= j < k, the transpose of the layout's
        degree-(j + 1) faces: copy S to copy T by the face's sign times e_T.
        Built on first read; d o d = 0 is checked once per adjacent pair,
        when its second map is built."""
        if j not in self._codiffs:
            layout = self._layout
            faces, _ = layout.diff_blocks(j + 1)
            blocks = [(t, s, self._action(layout.blocks[j + 1][t][0]), c) for s, t, _, c in faces]
            source, target = layout.pack(j), layout.pack(j + 1)
            f = ModuleHom(source.module, target.module, block_hom(source, target, blocks))
            below, above = self._codiffs.get(j - 1), self._codiffs.get(j + 1)
            for lower, upper, e in ((below, f, j - 1), (f, above, j)):
                if lower is None or upper is None:
                    continue
                if not upper.compose(lower).is_zero_map():
                    raise AxiomViolation(f"Cech codifferential fails d o d = 0 at degree {e}")
            self._codiffs[j] = f
        return self._codiffs[j]

    def cohomology_data(self, i):
        """H^i of the localized subcomplex: E_i ker d^i / im d^(i-1).  It
        builds E_i, d^i and d^(i-1), where they exist, and no other map."""
        X = self._layout.pack(i).module
        k = len(self.sequence)
        ker = hom_kernel_span(self.codifferential(i).hom) if i < k else X.full_span()
        cycles = span_lattice(X.group, (self.idempotent(i).matrix * ker).cols_list())
        im = hom_image_span(self.codifferential(i - 1).hom) if i else X.zero_span()
        return subquotient_module(X, cycles, im)


# the last complex `cech_complex` built: (M, sequence, CechData), or None
_kept = None


def cech_complex(x_seq, M):
    """The Cech cochain complex 0 -> M -> (+) M_{x_i} -> ... on the module
    powers of the layout of `KoszulTower(e, M)`, e the Fitting idempotents
    of the x_i, kept as `tower` for the Cech homology (see `CechData`).  It
    forms one Fitting split per x_i (kept on the ring, `fitting_split`) and
    the tower, and no map: e_S is the product of the e_i over i in S (1 for
    the empty set), and each E_j and d^j is built when first read.

    The last complex built is kept in one slot, keyed by the identity of M
    and the sequence (a tuple of elements of M's ring), and a call with the
    same key returns it, so successive degrees of one (M, x) share its maps.
    Equal but distinct modules never share a complex, and a call on another
    key drops the kept one.  An element of another ring is a
    DimensionMismatch, raised before the slot is read.

    >>> from prokit.rings import zmod
    >>> from prokit.modules import ring_as_module
    >>> R = zmod(12)
    >>> cech = cech_complex([R.from_int(2)], ring_as_module(R))
    >>> [cech.cohomology_data(i).module.order() for i in (0, 1)]
    [4, 1]
    """
    global _kept
    seq = tuple(x_seq)
    if any(x.ring != M.ring for x in seq):
        raise DimensionMismatch("scalar from a different ring")
    if _kept is None or _kept[0] is not M or _kept[1] != seq:
        _kept = (M, seq, CechData(seq, M))
    return _kept[2]


def cech_cohomology(x_seq, M, i):
    """H^i of the Cech cochain complex; degree 0 equals the torsion
    submodule of the generated ideal.  One degree per call, read off the
    kept `cech_complex(x, M)`: the first degree of (M, x) builds E_i, d^i
    and d^(i-1) and no other map, and each later degree adds only the maps
    around it that are not built yet."""
    if i < 0:
        raise AxiomViolation("negative cohomological degree")
    if i > len(x_seq):
        return zero_module(M.ring)
    return cech_complex(x_seq, M).cohomology_data(i).module


# ---------------------------------------------------------------------------
# Cech homology on the Fitting idempotents


def _homology_limit(tower, i):
    """lim_m H_i(x^(m)) for the x whose Fitting idempotents e are the
    tower's sequence: the one subquotient (E_i Z_i(e) + B_i(e)) / B_i(e) of
    the chains C_i at level 1, E_i = diag(e_S) the degree-i transition by
    e.  It builds d_i and d_(i+1) of level 1 and no other differential:
    e^2 = e, so level 2 is level 1, and a tower whose level 2 is not its
    level 1 is an AxiomViolation.

    Why it is the limit: R is a product of local rings (Atiyah-Macdonald,
    ch. 8), where each x_j is a unit (e_j = 1) or nilpotent (e_j = 0), and
    the complexes split along them.  Where some e_j = 1, K(x_j^m) and
    K(e_j) are contractible, so Tot(K(-) tensor M tensor L) is exact for
    x^(m) and for e: the limit is 0, and so is the subquotient (E_i maps
    cycles to cycles, which are boundaries).  Where every e_j = 0, every
    x_j is nilpotent: for m at least every Fitting index the faces of
    K(x^(m)) vanish, H_i(x^(m)) is the sum over subsets S of
    H_(i-|S|)(M tensor L), and the transition from level m' >= 2m
    multiplies summand S by the x_j^(m'-m), j in S, killing every S but
    the empty one, on which it is the identity.  So the images are the
    same for all m' >= 2m (Mittag-Leffler, Weibel 3.5), and the limit is
    H_i(M tensor L) on S = empty.  The faces of K(e) vanish there too, and
    E_i is the identity on S = empty and kills every other block: the
    subquotient is that same H_i(M tensor L)."""
    if tower._powers(2) != tower._powers(1):
        raise AxiomViolation("the Cech homology limit needs a tower of idempotents")
    C, bounds = tower.chains(i), tower.boundaries(i, 1)
    moved = (tower.transition_component(i, 2, 1).matrix * tower.cycles(i, 1)).cols_list()
    return subquotient_module(C, span_lattice(C.group, moved + bounds.cols_list()), bounds).module


def cech_homology(x_seq, M, i):
    """Cech homology lim_n H_i(x^(n); M), read off level 1 of the tower of
    the Fitting idempotents of x (see `_homology_limit`); degree 0 is the
    adic completion, degree i >= 1 vanishes for finite modules.  The tower
    is that of the kept `cech_complex(x, M)`, so the degrees of one (M, x)
    share their differentials, spans and E_i with each other and with the
    Cech cohomology.

    >>> from prokit.rings import zmod
    >>> from prokit.modules import ring_as_module
    >>> R = zmod(12)
    >>> [cech_homology([R.from_int(2)], ring_as_module(R), i).order() for i in (0, 1)]
    [4, 1]
    """
    if i < 0:
        raise AxiomViolation("negative homological degree")
    if i > len(x_seq):
        return zero_module(M.ring)
    return _homology_limit(cech_complex(x_seq, M).tower, i)


# ---------------------------------------------------------------------------
# Tor comparison through the Cech-homology of a tensored resolution


def cech_tor_compare(M, N, x_seq, i, resolution_length):
    """Compare lim_n H_i(K(x^(n)) tensor M tensor L) against
    Tor_i(completion(M), N) for a free resolution L of N.

    One resolution L serves both sides: Tor is balanced, so Tor_i(Lambda, N)
    is H_i(Lambda tensor L), the empty-sequence Koszul complex on the
    completion Lambda with L.  The tests check it against Tor through a
    resolution of Lambda (`derived_functor` in `tests/complex_reference.py`).
    Both sides are read as spans: the limit off level 1 of the tower of
    the Fitting idempotents of x on M (`_homology_limit`), and Tor as H_i
    at level 1 of the empty-sequence tower on Lambda, from its d_i and
    d_(i+1) alone (`_transition_image`).

    H_i of either side reads only the blocks of degrees i and i + 1, which
    hold L_0 .. L_(i+1) and are the same in every resolution of length at
    least i + 1.  So `resolution_length` (which must exceed i) never
    changed the answer, and only L_0 .. L_(i+1) are built.

    Returns (lhs, rhs, agree), agree from `modules_isomorphic`: when the
    two sides are equal modules the identity is the isomorphism shown;
    otherwise agreement is equal fingerprints, a necessary condition
    only."""
    if i < 0:
        raise AxiomViolation("negative homological degree")
    if resolution_length <= i:
        raise AxiomViolation("resolution length must exceed the degree")
    return cech_tor_comparisons(M, N, x_seq, [i])[0]


def cech_tor_comparisons(M, N, x_seq, degrees):
    """`cech_tor_compare` at each of the degrees, from one resolution of N
    through the highest degree plus one, one completion of M and one tower
    on each side.  A longer resolution has the same L_0 .. L_(i+1), so each
    degree gets the answer `cech_tor_compare` gives it."""
    if min(degrees) < 0:
        raise AxiomViolation("negative homological degree")
    res = free_resolution(N, max(degrees) + 1)
    limits = KoszulTower([fitting_split(M.ring, x)[1] for x in x_seq], M, res)
    lam, _ = adic_completion(M, Ideal(M.ring, tuple(x_seq)))
    tor = KoszulTower((), lam, res)
    out = []
    for i in degrees:
        lhs = _homology_limit(limits, i)
        rhs = subquotient_module(tor.chains(i), *_transition_image(tor, i, 1, 1)).module
        out.append((lhs, rhs, modules_isomorphic(lhs, rhs)))
    return out
