"""Exact integer linear algebra and finite abelian group arithmetic.

Everything here is computed over Python's arbitrary-precision integers:
Hermite and Smith normal forms and the standard toolkit for finite abelian
groups presented by invariant factors (homs, kernels, images, subgroups,
quotients).  Canonical spans, kernels, preimages and intersections come
from one transform-free Hermite reduction, with no SNF: Hermite form is
unique, so any generating set of a lattice gives the same span.  There is
one solve of A x = b in a group (`_solve`): the canonical preimage of the
group's relations under [b | A], read off its first basis column, so it
runs the same Hermite reduction and no SNF.  Direct sums are not built
here: the module layer lays out module powers by permutation
(`modules.module_power`).  All values are immutable after construction
and all operations are pure functions.

Every presentation is one Smith reduction D = U * H * V of a square,
nonsingular relation matrix H (`_smith_presentation`, the one caller of
`snf`): the projection P is the kept rows of U and the section S the kept
columns of U^-1 = H * V * D^-1, so P * S = I over Z with no second solve.
A diagonal H whose entries, sorted by selection (`_selection_order`), form
a divisibility chain needs no reduction: `snf` would only make those
swaps, so D is the sorted diagonal, U the permutation and V = U^T, and the
record is read off them.
`cokernel_presentation` first reduces its relations to their canonical
basis, and `subquotient_group` presents L/N by L^-1 N, the coefficients
of N's canonical span over L's from forward substitution; it takes the
canonical spans themselves, so the coordinates depend only on the
subgroups, never on their generators.  A zero subquotient (N = L) is the
trivial record, with no reduction.
Every quotient lift in the package (subgroups, quotients, quotient rings,
subquotients) is a product with such a section.
`GroupSubquotient` and `induced_hom` are the one lift/classify path:
subgroups (`subgroup_embedding`, N = 0 with span diag(G)) and quotients
(L = G with span I) canonicalize their generators once and are cases of
`subquotient_group`, the record classifies an element by forward
substitution on its canonical span (no normal form), and every map induced
on a subgroup, quotient or subquotient classifies the columns of f * lift:
`induced_hom` for one map (homology maps, the colon identification), and
`induced_actions` for the actions of a module or ring on one record, all
in one classification, with no work at all on a zero group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod
from operator import mul

from .errors import DimensionMismatch, InfiniteCokernel


# ---------------------------------------------------------------------------
# Integer matrices


class IntMatrix:
    """Immutable dense integer matrix stored row-major.

    The public constructor coerces every entry with `int()` and checks the
    length.  Kernel outputs, whose entries are ints by construction, go
    through the trusted `_of`, which does neither (the test suite checks
    its contract on every call)."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows, cols, entries):
        entries = tuple(int(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self._data = entries

    @classmethod
    def _of(cls, rows, cols, data):
        """A matrix on `data`, a tuple of rows * cols ints, taken as is."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._data = data
        return m

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        if any(len(r) != cols for r in rows_list):
            raise DimensionMismatch("ragged rows")
        return cls._of(rows, cols, tuple(e for r in rows_list for e in r))

    @classmethod
    def from_cols(cls, cols_list, rows=None):
        ncols = len(cols_list)
        if ncols == 0:
            return cls._of(rows or 0, 0, ())
        nrows = len(cols_list[0])
        if any(len(c) != nrows for c in cols_list):
            raise DimensionMismatch("ragged columns")
        return cls._of(
            nrows, ncols, tuple(cols_list[j][i] for i in range(nrows) for j in range(ncols))
        )

    @classmethod
    def identity(cls, n):
        return cls._of(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows, cols):
        return cls._of(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag):
        n = len(diag)
        return cls._of(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, idx):
        i, j = idx
        return self._data[i * self.cols + j]

    def row(self, i):
        return self._data[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        # a slice step must not be 0, and a matrix with no columns has none
        return self._data[j :: self.cols] if self.cols else ()

    def rows_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def cols_list(self):
        return [list(self._data[j :: self.cols]) for j in range(self.cols)]

    def transpose(self):
        cols = self.cols
        return IntMatrix._of(
            cols, self.rows, tuple(e for j in range(cols) for e in self._data[j::cols])
        )

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.cols} != {other.rows}")
            ocols = other.cols
            other_cols = [other._data[j::ocols] for j in range(ocols)]
            out = []
            for i in range(self.rows):
                ri = self.row(i)
                out.extend(sum(map(mul, ri, cj)) for cj in other_cols)
            return IntMatrix._of(self.rows, ocols, tuple(out))
        return NotImplemented

    def apply(self, vec):
        """Matrix-vector product as a tuple of ints."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"{len(vec)} != {self.cols}")
        return tuple(sum(map(mul, self.row(i), vec)) for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.rows_list()})"

    def is_zero(self):
        return all(e == 0 for e in self._data)


def linear_combination(coeffs, vectors):
    """The sum of c * v over coefficients c and equal-length vectors v,
    skipping zero coefficients.

    >>> linear_combination([2, 0, -1], [(1, 2), (5, 5), (0, 3)])
    [2, 1]
    """
    out = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            out = [a + c * b for a, b in zip(out, v)]
    return out


def matrix_combination(coeffs, matrices, n):
    """The n x n matrix sum of c * m over coefficients c and n x n
    matrices m, skipping zero coefficients (`linear_combination` on the
    row-major entries).

    >>> matrix_combination([3, 0], [IntMatrix.identity(2), IntMatrix.zero(2, 2)], 2).rows_list()
    [[3, 0], [0, 3]]
    """
    if not matrices:
        return IntMatrix.zero(n, n)
    return IntMatrix._of(n, n, tuple(linear_combination(coeffs, [m._data for m in matrices])))


def _swap_rows(rows, i, j):
    rows[i], rows[j] = rows[j], rows[i]


def _hermite(rows, width):
    """The one Hermite loop: reduce equal-length integer rows in place to
    row Hermite normal form with pivots in the first `width` columns only,
    and no transform: positive pivots, zeros below and entries above each
    pivot reduced into [0, pivot).  The pivot is the smallest nonzero
    |entry|, which keeps entries small without randomization.  Returns the
    number of pivot rows, which come first."""
    m = len(rows)
    r = 0  # next pivot row
    for j in range(width):
        if r == m:
            break
        # pick smallest |entry| below (and including) row r in column j
        best = None
        for i in range(r, m):
            if rows[i][j] != 0 and (best is None or abs(rows[i][j]) < abs(rows[best][j])):
                best = i
        if best is None:
            continue
        _swap_rows(rows, r, best)
        # clear below the pivot by repeated reduction (gcd cascade); a pass
        # with no swap leaves every remainder zero
        dirty = True
        while dirty:
            dirty = False
            for i in range(r + 1, m):
                if rows[i][j] == 0:
                    continue
                q = rows[i][j] // rows[r][j]
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                if rows[i][j] != 0 and abs(rows[i][j]) < abs(rows[r][j]):
                    _swap_rows(rows, r, i)
                    dirty = True
        if rows[r][j] < 0:
            rows[r] = [-x for x in rows[r]]
        # reduce entries above the pivot
        for i in range(r):
            q = rows[i][j] // rows[r][j]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def snf(A: IntMatrix):
    """Smith normal form.

    Returns (D, U, V) with D = U * A * V diagonal, nonnegative diagonal
    entries satisfying d_1 | d_2 | ..., and U, V unimodular.

    >>> A = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> D, U, V = snf(A)
    >>> D.rows_list()
    [[2, 0], [0, 4]]
    >>> U * A * V == D
    True
    """
    m, n = A.rows, A.cols
    a = A.rows_list()
    u = IntMatrix.identity(m).rows_list()
    v = IntMatrix.identity(n).rows_list()  # takes every column operation, so ends as V

    def col_op(j, k, q):
        # column_j -= q * column_k  on a; same on V (acting on the right)
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def col_swap(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def pivot_search(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while True:
        pos = pivot_search(t)
        if pos is None:
            break
        i0, j0 = pos
        _swap_rows(a, t, i0)
        _swap_rows(u, t, i0)
        col_swap(t, j0)
        while True:
            # clear column t
            moved = False
            for i in range(t + 1, m):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t] != 0:
                    _swap_rows(a, t, i)
                    _swap_rows(u, t, i)
                    moved = True
            if moved:
                continue
            # clear row t
            for j in range(t + 1, n):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                if q:
                    col_op(j, t, q)
                if a[t][j] != 0:
                    col_swap(t, j)
                    moved = True
            if not moved:
                break
        # pivot must divide every remaining entry; if not, fold the bad row in
        p = a[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
        if t == min(m, n):
            break
    D = IntMatrix.from_rows(a) if a else IntMatrix(0, n, [])
    U = IntMatrix.from_rows(u)
    V = IntMatrix.from_rows(v)
    return D, U, V


# ---------------------------------------------------------------------------
# Finite abelian groups


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group in invariant-factor form d_1 | d_2 | ... | d_r.

    Factors equal to 1 are never stored; the trivial group has no factors.
    """

    invariant_factors: tuple
    # diag(invariant factors), kept by the first `_moduli_matrix(self)`;
    # equality and hashing ignore it
    _relations: IntMatrix = field(init=False, compare=False, default=None, repr=False)

    def __post_init__(self):
        facs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        for d in facs:
            if d < 2:
                raise DimensionMismatch(f"invariant factor {d} < 2")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise DimensionMismatch(f"divisibility chain broken: {a} does not divide {b}")

    @property
    def rank(self):
        return len(self.invariant_factors)

    def order(self):
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def reduce(self, coords):
        if len(coords) != self.rank:
            raise DimensionMismatch("coordinate length mismatch")
        return tuple(c % d for c, d in zip(coords, self.invariant_factors))

    def element(self, coords):
        return GroupElement(self, self.reduce(tuple(int(c) for c in coords)))

    def zero(self):
        return self.element((0,) * self.rank)

    def generator(self, j):
        return self.element(tuple(1 if i == j else 0 for i in range(self.rank)))

    def generators(self):
        return [self.generator(j) for j in range(self.rank)]

    def elements(self, limit=100_000):
        """Iterate all elements; guarded against accidental blowup."""
        if self.order() > limit:
            raise DimensionMismatch(f"group order {self.order()} exceeds limit {limit}")
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield GroupElement(self, coords)

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " + ".join(f"Z/{d}" for d in self.invariant_factors)


@dataclass(frozen=True)
class GroupElement:
    group: FinAbGroup
    coords: tuple

    def __add__(self, other):
        self._check(other)
        return self.group.element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return self.group.element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return self.group.element(tuple(-a for a in self.coords))

    def scale(self, k):
        return self.group.element(tuple(k * a for a in self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def _check(self, other):
        if self.group != other.group:
            raise DimensionMismatch("elements of different groups")

    def __str__(self):
        return str(tuple(self.coords))


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between finite abelian groups, columns = generator images."""

    source: FinAbGroup
    target: FinAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.rank or self.matrix.cols != self.source.rank:
            raise DimensionMismatch(
                f"hom matrix {self.matrix.rows}x{self.matrix.cols} does not fit "
                f"{self.target.rank}x{self.source.rank}"
            )

    def is_well_defined(self):
        """d_j^source times column j must vanish in the target."""
        for j, dj in enumerate(self.source.invariant_factors):
            for i, di in enumerate(self.target.invariant_factors):
                if (dj * self.matrix[i, j]) % di != 0:
                    return False
        return True

    def __call__(self, elem):
        if elem.group != self.source:
            raise DimensionMismatch("element not in source group")
        return self.target.element(self.matrix.apply(elem.coords))

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise DimensionMismatch("composition mismatch")
        return GroupHom(other.source, self.target, self.matrix * other.matrix)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise DimensionMismatch("hom sum mismatch")
        m = IntMatrix._of(
            self.matrix.rows,
            self.matrix.cols,
            tuple(a + b for a, b in zip(self.matrix._data, other.matrix._data)),
        )
        return GroupHom(self.source, self.target, m)

    def scale(self, k):
        data = tuple(k * a for a in self.matrix._data)
        m = IntMatrix._of(self.matrix.rows, self.matrix.cols, data)
        return GroupHom(self.source, self.target, m)

    @classmethod
    def identity(cls, G):
        return cls(G, G, IntMatrix.identity(G.rank))

    @classmethod
    def zero(cls, G, H):
        return cls(G, H, IntMatrix.zero(H.rank, G.rank))

    def is_zero_map(self):
        """Zero as a map, i.e. every generator image vanishes in the target."""
        for j in range(self.source.rank):
            col = self.matrix.col(j)
            if any(c % d != 0 for c, d in zip(col, self.target.invariant_factors)):
                return False
        return True

    def equals_map(self, other):
        if self.source != other.source or self.target != other.target:
            return False
        diff = tuple(a - b for a, b in zip(self.matrix._data, other.matrix._data))
        m = IntMatrix._of(self.matrix.rows, self.matrix.cols, diff)
        return GroupHom(self.source, self.target, m).is_zero_map()


# ---------------------------------------------------------------------------
# Presentations, subgroups, quotients


def _moduli_matrix(group):
    """The relations diag(d_1..d_r) of the group, the canonical span of its
    zero subgroup: built on the first call and kept on the group."""
    if group._relations is None:
        object.__setattr__(group, "_relations", IntMatrix.diagonal(group.invariant_factors))
    return group._relations


def cokernel_presentation(A: IntMatrix, moduli):
    """Present Z^rows / (column span of A + moduli relations) canonically.

    `moduli` gives one integer per row; 0 leaves the row unconstrained
    (allowed internally, but the resulting quotient must still be finite).
    Returns (group, P, S): the projection matrix P maps old Z^rows
    coordinates onto the new generators, and the section S is a rows x
    group.rank matrix whose column i is a lift of generator e_i, with
    P * S = I over Z.  This is the one place quotient generators are
    lifted back: a lift of h is S * h.

    The relations are first reduced to their canonical basis H
    (`column_lattice`), so (group, P, S) depends only on the relation
    lattice.  One Smith reduction D = U * H * V of that square matrix gives
    P, the kept rows of U, and S, the kept columns of U^-1 = H * V * D^-1
    (see `_smith_presentation`).

    >>> G, P, S = cokernel_presentation(IntMatrix.from_rows([[2, 4], [6, 8]]), [0, 0])
    >>> G.invariant_factors
    (2, 4)
    >>> (P * S).rows_list()
    [[1, 0], [0, 1]]
    """
    if len(moduli) != A.rows:
        raise DimensionMismatch("moduli length must equal row count")
    r = A.rows
    rel_cols = A.cols_list()
    rel_cols += [[m if t == i else 0 for t in range(r)] for i, m in enumerate(moduli) if m]
    H = column_lattice(r, rel_cols)
    if H.cols < r:
        raise InfiniteCokernel("quotient has free rank")
    return _smith_presentation(H)


def _selection_order(entries):
    """(sorted, slot) for a list of integers sorted by selection: for each
    position t in turn, the first smallest remaining entry is swapped to t.
    slot[t] is the index in `entries` of the entry that ends at t.  On a
    positive diagonal these are exactly the swaps `snf` makes, as its pivot
    is the first smallest remaining entry."""
    entries = list(entries)
    n = len(entries)
    slot = list(range(n))
    for t in range(n):
        p = min(range(t, n), key=entries.__getitem__)
        entries[t], entries[p] = entries[p], entries[t]
        slot[t], slot[p] = slot[p], slot[t]
    return entries, slot


def _smith_presentation(H):
    """(group, P, S) for Z^r / H Z^r, H square and nonsingular, from one
    Smith reduction D = U * H * V.  The kept rows of U (diagonal entries
    d_i > 1) are P; since H = U^-1 * D * V^-1, column i of U^-1 is
    H * V[:, i] / d_i, an exact division, and its kept columns are S.
    So P * S = I over Z (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4), and P kills the columns of H modulo the group.

    A diagonal H whose entries sorted by selection (`_selection_order`)
    form a positive divisibility chain runs no reduction.  On it `snf`
    swaps each first smallest remaining entry forward, finds nothing to
    clear, and every pivot divides the rest, so D is the sorted diagonal,
    U the permutation with row t = e_slot[t] and V = U^T.  Then H * V[:, i]
    = d_i e_slot[i], so S is the kept columns of U^T: field for field what
    the Smith route gives, as Smith forms are unique."""
    r = H.rows
    data = H._data
    diag, slot = _selection_order(data[:: r + 1])
    if (
        not any(x for k, x in enumerate(data) if k % (r + 1))
        and (not diag or diag[0] > 0)
        and all(b % a == 0 for a, b in zip(diag, diag[1:]))
    ):
        kept = [i for i in range(r) if diag[i] > 1]
        P = IntMatrix._of(len(kept), r, tuple(int(slot[i] == t) for i in kept for t in range(r)))
        return FinAbGroup(tuple(diag[i] for i in kept)), P, P.transpose()
    D, U, V = snf(H)
    kept = [i for i in range(r) if D[i, i] > 1]
    # SNF diagonals divide in order, so the kept tail is already a chain
    group = FinAbGroup(tuple(D[i, i] for i in kept))
    HV = H * V
    P = IntMatrix._of(len(kept), r, tuple(x for i in kept for x in U.row(i)))
    S = IntMatrix._of(r, len(kept), tuple(HV[t, i] // D[i, i] for t in range(r) for i in kept))
    return group, P, S


def _lattice_basis(rows, lead, n):
    """Trailing parts of the pivot rows whose first `lead` entries vanish
    after one Hermite reduction of `rows` (length lead + n each), as the
    columns of an n-row matrix: a basis of the row lattice's meet with
    0 x Z^n, which depends on that lattice only, as Hermite form is unique."""
    p = _hermite(rows, lead + n)
    kept = [row[lead:] for row in rows[:p] if not any(row[:lead])]
    return IntMatrix._of(n, len(kept), tuple(row[i] for i in range(n) for row in kept))


def column_lattice(n, vectors):
    """Canonical column-HNF basis of the lattice in Z^n spanned by
    `vectors`."""
    return _lattice_basis([list(v) for v in vectors], 0, n)


def span_lattice(group, vectors):
    """Canonical basis of the lattice spanned by `vectors` plus the group
    relations diag(invariant factors).  Uniquely determines the subgroup,
    so equality of subgroups is equality of these matrices."""
    return column_lattice(group.rank, [*vectors, *_moduli_matrix(group).cols_list()])


def preimage_lattice(A, span, moduli):
    """Canonical basis of {v : A v in the column lattice of `span`} +
    diag(moduli) in Z^(A.cols): the rows of [A^T | I ; span^T | 0 ;
    0 | diag(moduli)] whose first A.rows entries vanish after one Hermite
    reduction.  No normal form with transforms runs."""
    s = A.cols
    rows = [c + e for c, e in zip(A.cols_list(), IntMatrix.identity(s).rows_list())]
    rows += [c + [0] * s for c in span.cols_list()]
    rows += [[0] * (A.rows + t) + [m] + [0] * (s - t - 1) for t, m in enumerate(moduli)]
    return _lattice_basis(rows, A.rows, s)


def preimage_span(f, span):
    """Canonical span (in source coordinates) of {v : f(v) lies in the
    lattice of `span`}, for a span of f's target that contains its
    relations.  The kernel of multiplication by 2 on Z/8 is 4Z/8:

    >>> Z8 = FinAbGroup((8,))
    >>> double = GroupHom(Z8, Z8, IntMatrix(1, 1, [2]))
    >>> preimage_span(double, span_lattice(Z8, [])).rows_list()
    [[4]]
    """
    return preimage_lattice(f.matrix, span, f.source.invariant_factors)


def _solve(A, b, group, moduli):
    """One x with A x = b in `group`, or None when b is not in the image of
    A, for an A whose column j is killed by moduli[j] in the group.

    The one solve: the canonical preimage of diag(group) under [b | A],
    with t taken modulo |group|, is the lattice of the (t, v) with
    t b + A v = 0 in the group.  Its first basis column starts with the
    least t > 0 that puts t b in im A, so b is in im A exactly when that
    entry is 1, and then x = -v.  One Hermite reduction and no Smith form,
    and x depends only on the lattice.  2x = 4 is solvable in Z/8, and
    2x = 1 is not:

    >>> Z8 = FinAbGroup((8,))
    >>> _solve(IntMatrix(1, 1, [2]), (4,), Z8, (8,))
    (-2,)
    >>> _solve(IntMatrix(1, 1, [2]), (1,), Z8, (8,)) is None
    True
    """
    stacked = IntMatrix.from_cols([tuple(b), *A.cols_list()], rows=group.rank)
    first = preimage_lattice(stacked, _moduli_matrix(group), (group.order(), *moduli)).col(0)
    return tuple(-v for v in first[1:]) if first[0] == 1 else None


def intersect_spans(G, s1, s2):
    """Canonical span of the meet of two span lattices of G, plus G's
    relations: one Hermite reduction of [s1^T | s1^T ; s2^T | 0 ;
    0 | diag(G)]."""
    r = G.rank
    rows = [c + c for c in s1.cols_list()] + [c + [0] * r for c in s2.cols_list()]
    rows += [[0] * r + d for d in _moduli_matrix(G).rows_list()]
    return _lattice_basis(rows, r, r)


def _canonical_diagonal(r, span):
    """Diagonal of a canonical span of rank r; raises unless `span` has the
    shape `span_lattice` gives it: r x r, lower-triangular, positive
    diagonal."""
    data = span._data
    if (
        span.rows != r
        or span.cols != r
        or any(data[i * r + i] <= 0 or any(data[i * r + i + 1 : (i + 1) * r]) for i in range(r))
    ):
        raise DimensionMismatch("span is not a canonical span_lattice basis")
    return data[:: r + 1]


def _span_coefficients(r, span, vectors):
    """For each vector, the integer coefficients c with span * c = v, or
    None when v is not in the lattice of the canonical r x r span.

    Forward substitution: column s of the span is zero above row s, so a
    lattice vector whose entries 0..t-1 vanish is a combination of
    columns t..r-1 alone, and its entry t is the pivot span[t, t] times
    the coefficient of column t.  Entry t must therefore be a multiple q
    of the pivot, and v lies in the lattice exactly when v - q * column t
    (whose entries 0..t vanish) does.  The span is square with a positive
    diagonal, so c is unique.  O(r^2) integer operations per vector and no
    normal form; vectors may be unreduced or negative.  A generator, so a
    membership test stops at the first vector outside the lattice."""
    diag = _canonical_diagonal(r, span)
    columns = [span._data[t::r] for t in range(r)]
    for vector in vectors:
        if len(vector) != r:
            raise DimensionMismatch("vector length must equal the span rank")
        v = list(vector)
        coeffs = []
        for t, (p, col) in enumerate(zip(diag, columns)):
            q, rest = divmod(v[t], p)
            if rest:
                coeffs = None
                break
            coeffs.append(q)
            if q:
                for i in range(t + 1, r):
                    v[i] -= q * col[i]
        yield coeffs


def _in_canonical_span(group, span, vectors):
    """True when every vector lies in the lattice of the canonical span
    (see `_span_coefficients`)."""
    return all(c is not None for c in _span_coefficients(group.rank, span, vectors))


def span_contains(group, span, vector):
    """Membership of `vector` in the subgroup described by `span`.

    `span` must be canonical, i.e. come from `span_lattice`.  It then
    contains the relation lattice diag(d_1..d_r), so it is a full-rank
    lower-triangular basis, and forward substitution along its columns
    decides membership exactly (see `_in_canonical_span`)."""
    return _in_canonical_span(group, span, [vector])


def span_subgroup_order(group, span):
    """Order of the subgroup a canonical span describes."""
    # the span lattice contains the relation lattice, hence is full rank;
    # its index in Z^r is |det|, the product of its triangular diagonal
    return group.order() // prod(_canonical_diagonal(group.rank, span))


def span_leq(group, inner, outer):
    """Inclusion test: every column of `inner` lies in the lattice of the
    canonical span `outer`, decided by the forward substitution of
    `span_contains`.  Only `outer` must be canonical; the columns of
    `inner` may be any generators, unreduced or negative."""
    return _in_canonical_span(group, outer, inner.cols_list())


@dataclass(frozen=True)
class GroupSubquotient:
    """A subquotient L/N of an ambient group G (N <= L <= G) as an abstract
    group, with the one lift and classify path for derived groups.

    `lift` is a hom from `group` into G sending each class to a
    representative in L: the span times the section of the presentation,
    the inclusion for a subgroup (N = 0).  `span` is the canonical span of
    L (`span_lattice`), and `projection` maps coefficients over the span's
    columns onto `group`.  Classifying v in L
    solves span * c = v by forward substitution and reduces projection * c,
    so no normal form runs.  The class does not depend on the representative
    (unreduced or negative coordinates are fine), and for a subgroup it is
    the unique preimage under the injective lift.
    """

    group: FinAbGroup
    lift: GroupHom
    span: IntMatrix
    projection: IntMatrix

    def classify(self, elem):
        """Class in `group` of an element of L given in G coordinates;
        raises DimensionMismatch when the element is not in L."""
        return self.group.element(_span_classes(self.span, self.projection, [elem.coords])[0])

    def classify_hom(self, f):
        """The hom sending x to the class of f(x), for f with image in L."""
        if f.target != self.lift.target:
            raise DimensionMismatch("hom does not land in the ambient group")
        classes = _span_classes(self.span, self.projection, f.matrix.cols_list())
        cols = [self.group.reduce(c) for c in classes]
        return GroupHom(f.source, self.group, IntMatrix.from_cols(cols, rows=self.group.rank))


def _span_classes(span, projection, vectors):
    """projection * c for the coefficients c of each vector over the
    canonical span (`_span_coefficients`); raises DimensionMismatch when a
    vector is not in the span's lattice."""
    out = []
    for c in _span_coefficients(span.rows, span, vectors):
        if c is None:
            raise DimensionMismatch("element is not in the subgroup")
        out.append(projection.apply(c))
    return out


def induced_hom(f, src, tgt):
    """The hom src.group -> tgt.group induced by an ambient hom f that
    carries src's L into tgt's L and src's N into tgt's N: the columns of
    f * src.lift, classified in tgt."""
    return tgt.classify_hom(f.compose(src.lift))


def induced_actions(maps, rec):
    """The endomorphisms of rec.group induced by ambient endomorphisms f
    that carry rec's L into L and N into N: `induced_hom(f, rec, rec)` for
    each f, with the columns of every f * lift classified in one call.
    Raises DimensionMismatch when an f is not an endomorphism of the
    ambient group or carries a column of the lift outside L.  On a zero
    group each map is the 0 x 0 hom, with nothing composed or classified."""
    G, Q = rec.lift.target, rec.group
    maps = list(maps)
    if any(f.source != G or f.target != G for f in maps):
        raise DimensionMismatch("hom does not act on the ambient group")
    n = Q.rank
    if n == 0:
        return [GroupHom(Q, Q, IntMatrix._of(0, 0, ()))] * len(maps)
    lift = rec.lift.matrix
    columns = [c for f in maps for c in (f.matrix * lift).cols_list()]
    classes = [Q.reduce(c) for c in _span_classes(rec.span, rec.projection, columns)]
    return [
        GroupHom(Q, Q, IntMatrix.from_cols(classes[a * n : (a + 1) * n], rows=n))
        for a in range(len(maps))
    ]


def subgroup_embedding(G, gen_vectors):
    """The subgroup of G generated by the given coordinate vectors, as a
    GroupSubquotient whose lift is the inclusion: `subquotient_group` with
    N = 0, whose canonical span is diag(G)."""
    return subquotient_group(G, span_lattice(G, gen_vectors), _moduli_matrix(G))


def subquotient_group(G, L, N):
    """L/N for canonical spans L and N of G (as `span_lattice` gives them),
    N inside L.  Both are square, full rank and lower-triangular, so the
    coefficients L^-1 N of N's columns over L's come from forward
    substitution, with no normal form; they present L/N on the span's
    columns, and one Smith reduction of that square matrix
    (`_smith_presentation`) gives (group, P, S).  The record's projection
    is P and its lift L * S.  Every matrix here depends only on the two
    subgroups.  When N = L the quotient is zero and the record is built
    directly, field for field what the Smith route gives (group (), lift
    G.rank x 0, span L, projection 0 x G.rank), with no substitution and
    no normal form.  Raises DimensionMismatch when N is not inside L."""
    _canonical_diagonal(G.rank, N)
    if N == L:
        Q = FinAbGroup(())
        lift = GroupHom(Q, G, IntMatrix._of(G.rank, 0, ()))
        return GroupSubquotient(Q, lift, L, IntMatrix._of(0, G.rank, ()))
    coeffs = list(_span_coefficients(G.rank, L, N.cols_list()))
    if None in coeffs:
        raise DimensionMismatch("element is not in the subgroup")
    Q, P, S = _smith_presentation(IntMatrix.from_cols(coeffs, rows=G.rank))
    return GroupSubquotient(Q, GroupHom(Q, G, L * S), L, P)


def hom_kernel_span(f: GroupHom):
    """Canonical span (in source coordinates) of ker f, the preimage of 0."""
    return preimage_span(f, _moduli_matrix(f.target))


def hom_image_span(f: GroupHom):
    """Canonical span (in target coordinates) of im f."""
    return span_lattice(f.target, f.matrix.cols_list())
