"""Exact integer linear algebra and finite abelian group arithmetic.

Everything here is computed over Python's arbitrary-precision integers:
Hermite and Smith normal forms with their unimodular transforms, integer
linear system solving, and the standard toolkit for finite abelian groups
presented by invariant factors (homs, kernels, images, subgroups,
quotients, direct sums).  All values are immutable after construction and
all operations are pure functions.

`cokernel_presentation` is the one lift primitive: it returns a section
with every projection, and every quotient lift in the package (subgroups,
quotients, direct sums, quotient rings, Hom and tensor modules,
subquotients) is a product with that section.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .errors import AxiomViolation, DimensionMismatch, InfiniteCokernel


# ---------------------------------------------------------------------------
# Integer matrices


class IntMatrix:
    """Immutable dense integer matrix stored row-major."""

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
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        if any(len(r) != cols for r in rows_list):
            raise DimensionMismatch("ragged rows")
        return cls(rows, cols, [e for r in rows_list for e in r])

    @classmethod
    def from_cols(cls, cols_list, rows=None):
        ncols = len(cols_list)
        if ncols == 0:
            return cls(rows or 0, 0, [])
        nrows = len(cols_list[0])
        if any(len(c) != nrows for c in cols_list):
            raise DimensionMismatch("ragged columns")
        return cls(
            nrows, ncols, [cols_list[j][i] for i in range(nrows) for j in range(ncols)]
        )

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, diag):
        n = len(diag)
        return cls(n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, idx):
        i, j = idx
        return self._data[i * self.cols + j]

    def row(self, i):
        return self._data[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return tuple(self._data[i * self.cols + j] for i in range(self.rows))

    def rows_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def cols_list(self):
        return [list(self.col(j)) for j in range(self.cols)]

    def transpose(self):
        return IntMatrix(
            self.cols, self.rows, [self[i, j] for j in range(self.cols) for i in range(self.rows)]
        )

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.cols} != {other.rows}")
            out = []
            ocols = other.cols
            for i in range(self.rows):
                ri = self.row(i)
                for j in range(ocols):
                    out.append(sum(ri[t] * other[t, j] for t in range(self.cols)))
            return IntMatrix(self.rows, ocols, out)
        return NotImplemented

    def apply(self, vec):
        """Matrix-vector product as a tuple of ints."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"{len(vec)} != {self.cols}")
        return tuple(
            sum(self.row(i)[t] * vec[t] for t in range(self.cols)) for i in range(self.rows)
        )

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return IntMatrix.from_rows(rows) if rows else IntMatrix(0, self.cols + other.cols, [])

    def neg(self):
        return IntMatrix(self.rows, self.cols, [-e for e in self._data])

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


def _swap_rows(rows, i, j):
    rows[i], rows[j] = rows[j], rows[i]


def hnf(A: IntMatrix):
    """Row Hermite normal form.

    Returns (H, U) with H = U * A, U unimodular, H in row-echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Pivot selection takes the smallest-magnitude nonzero candidate, which
    keeps intermediate entries small without randomization.
    """
    m, n = A.rows, A.cols
    a = A.rows_list()
    u = IntMatrix.identity(m).rows_list()
    r = 0  # next pivot row
    for j in range(n):
        # pick smallest |entry| below (and including) row r in column j
        best = None
        for i in range(r, m):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best][j])):
                best = i
        if best is None:
            continue
        _swap_rows(a, r, best)
        _swap_rows(u, r, best)
        # clear below the pivot by repeated reduction (gcd cascade)
        while True:
            dirty = False
            for i in range(r + 1, m):
                if a[i][j] == 0:
                    continue
                q = a[i][j] // a[r][j]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                if a[i][j] != 0 and abs(a[i][j]) < abs(a[r][j]):
                    _swap_rows(a, r, i)
                    _swap_rows(u, r, i)
                    dirty = True
            if not dirty and all(a[i][j] == 0 for i in range(r + 1, m)):
                break
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        # reduce entries above the pivot
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == m:
            break
    return IntMatrix.from_rows(a) if a else IntMatrix(0, n, []), IntMatrix.from_rows(u)


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


def det(A: IntMatrix):
    """Exact determinant via fraction-free Gaussian elimination (Bareiss)."""
    if A.rows != A.cols:
        raise DimensionMismatch("determinant of non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    a = A.rows_list()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            _swap_rows(a, k, swap)
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_inverse_unimodular(U: IntMatrix):
    """Inverse of a unimodular integer matrix, again with integer entries."""
    n = U.rows
    H, W = hnf(U)
    if H != IntMatrix.identity(n):
        raise DimensionMismatch("matrix is not unimodular")
    return W


class IntLinearSystem:
    """Solver for A x = y over the integers, reusing one SNF of A."""

    def __init__(self, A: IntMatrix):
        self.A = A
        self.D, self.U, self.V = snf(A)
        self.rank = sum(
            1 for i in range(min(A.rows, A.cols)) if self.D[i, i] != 0
        )

    def solve(self, y):
        """One integer solution of A x = y, or None if there is none."""
        if len(y) != self.A.rows:
            raise DimensionMismatch("rhs length mismatch")
        w = self.U.apply(tuple(y))
        x = [0] * self.A.cols
        for i in range(self.A.rows):
            d = self.D[i, i] if i < min(self.A.rows, self.A.cols) else 0
            if i < self.rank:
                if w[i] % d != 0:
                    return None
                x[i] = w[i] // d
            elif w[i] != 0:
                return None
        return self.V.apply(tuple(x))

    def kernel_basis(self):
        """Columns of V beyond the rank span ker A exactly."""
        return [self.V.col(j) for j in range(self.rank, self.A.cols)]


# ---------------------------------------------------------------------------
# Finite abelian groups


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group in invariant-factor form d_1 | d_2 | ... | d_r.

    Factors equal to 1 are never stored; the trivial group has no factors.
    """

    invariant_factors: tuple

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
        m = IntMatrix(
            self.matrix.rows,
            self.matrix.cols,
            [a + b for a, b in zip(self.matrix._data, other.matrix._data)],
        )
        return GroupHom(self.source, self.target, m)

    def scale(self, k):
        m = IntMatrix(self.matrix.rows, self.matrix.cols, [k * a for a in self.matrix._data])
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
        diff = [a - b for a, b in zip(self.matrix._data, other.matrix._data)]
        m = IntMatrix(self.matrix.rows, self.matrix.cols, diff)
        return GroupHom(self.source, self.target, m).is_zero_map()


# ---------------------------------------------------------------------------
# Presentations, subgroups, quotients


def _moduli_matrix(group):
    return IntMatrix.diagonal(list(group.invariant_factors))


def cokernel_presentation(A: IntMatrix, moduli):
    """Present Z^rows / (column span of A + moduli relations) canonically.

    `moduli` gives one integer per row; 0 leaves the row unconstrained
    (allowed internally, but the resulting quotient must still be finite).
    Returns (group, P, S): the projection matrix P maps old Z^rows
    coordinates onto the new generators, and the section S is a rows x
    group.rank matrix whose column i is a lift of generator e_i, so
    P * S = I modulo the group's invariant factors.  This is the one place
    quotient generators are lifted back: a lift of h is S * h.

    S comes from one solve of [P | diag(group)] x = e_i.  That matrix maps
    onto Z^group.rank (P is onto the group), so its Smith diagonal is all
    ones and `IntLinearSystem.solve` is linear in the right-hand side:
    S * h equals the solution of [P | diag(group)] x = h, cut to its first
    `rows` entries, as raw integers.

    >>> G, P, S = cokernel_presentation(IntMatrix.from_rows([[2, 4], [6, 8]]), [0, 0])
    >>> G.invariant_factors
    (2, 4)
    >>> [G.reduce(c) for c in (P * S).cols_list()]
    [(1, 0), (0, 1)]
    """
    if len(moduli) != A.rows:
        raise DimensionMismatch("moduli length must equal row count")
    rel_cols = A.cols_list()
    for i, mval in enumerate(moduli):
        if mval:
            rel_cols.append([mval if t == i else 0 for t in range(A.rows)])
    if rel_cols:
        R = IntMatrix.from_cols(rel_cols, rows=A.rows)
    else:
        R = IntMatrix.zero(A.rows, 0)
    D, U, V = snf(R)
    r = A.rows
    diag = [D[i, i] if i < min(D.rows, D.cols) else 0 for i in range(r)]
    if any(d == 0 for d in diag):
        raise InfiniteCokernel("quotient has free rank")
    kept = [i for i in range(r) if diag[i] > 1]
    facs = [diag[i] for i in kept]
    # SNF diagonals divide in order, so the kept tail is already a chain
    group = FinAbGroup(tuple(facs))
    g = group.rank
    if not g:
        return group, IntMatrix(0, r, []), IntMatrix.zero(r, 0)
    P = IntMatrix.from_rows([list(U.row(i)) for i in kept])
    system = IntLinearSystem(P.hstack(_moduli_matrix(group)))
    lifts = []
    for i in range(g):
        sol = system.solve(tuple(1 if t == i else 0 for t in range(g)))
        if sol is None:
            raise AxiomViolation("presentation projection is not surjective")
        lifts.append(sol[:r])
    return group, P, IntMatrix.from_cols(lifts, rows=r)


def hom_from_gen_images(source, target, images):
    """Hom sending the j-th source generator to images[j]."""
    cols = [list(img.coords) for img in images]
    m = IntMatrix.from_cols(cols, rows=target.rank) if cols else IntMatrix(target.rank, 0, [])
    return GroupHom(source, target, m)


def span_lattice(group, vectors):
    """Canonical column-HNF basis of the lattice spanned by `vectors` plus
    the group relations.  Uniquely determines the subgroup, so equality of
    subgroups is equality of these matrices."""
    cols = [list(v) for v in vectors]
    cols += _moduli_matrix(group).cols_list()
    if not cols:
        return IntMatrix(group.rank, 0, [])
    M = IntMatrix.from_cols(cols, rows=group.rank)
    H, _ = hnf(M.transpose())
    rows = [r for r in H.rows_list() if any(r)]
    return IntMatrix.from_rows(rows).transpose() if rows else IntMatrix(group.rank, 0, [])


def span_contains(group, span, vector):
    """Membership of `vector` in the subgroup described by `span`."""
    sys = IntLinearSystem(span.hstack(_moduli_matrix(group)) if span.cols else _moduli_matrix(group))
    return sys.solve(tuple(vector)) is not None


def span_subgroup_order(group, span):
    """Order of the subgroup a canonical span describes."""
    if group.rank == 0:
        return 1
    # the span lattice contains the relation lattice, hence is full rank;
    # its index in Z^r is |det| of any basis matrix
    if span.cols != group.rank:
        raise DimensionMismatch("canonical span must be full rank for a finite group")
    idx = abs(det(span))
    return group.order() // idx


def span_leq(group, inner, outer):
    """Inclusion test for canonical spans."""
    merged = span_lattice(group, inner.cols_list() + outer.cols_list())
    return merged == outer


@dataclass(frozen=True)
class SubgroupData:
    """A subgroup realized abstractly: H plus the injective inclusion into G."""

    group: FinAbGroup
    inclusion: GroupHom

    def classify(self, elem):
        """Coordinates in H of an element of G known to lie in the subgroup."""
        pre = solve_hom(self.inclusion, elem)
        if pre is None:
            raise DimensionMismatch("element is not in the subgroup")
        return pre


def subgroup_embedding(G, gen_vectors):
    """Abstract group of the subgroup of G generated by the given coordinate
    vectors, together with its inclusion hom."""
    span = span_lattice(G, gen_vectors)
    basis = span.cols_list()
    s = len(basis)
    if s == 0 or G.rank == 0:
        H = FinAbGroup(())
        return SubgroupData(H, GroupHom(H, G, IntMatrix(G.rank, 0, [])))
    # relations among the basis vectors inside G
    stacked = IntMatrix.from_cols(basis, rows=G.rank).hstack(_moduli_matrix(G))
    sys = IntLinearSystem(stacked)
    ker = sys.kernel_basis()
    rel_cols = [list(k[:s]) for k in ker]
    R = IntMatrix.from_cols(rel_cols, rows=s) if rel_cols else IntMatrix.zero(s, 0)
    H, _, S = cokernel_presentation(R, [0] * s)
    # inclusion: each new generator's lift, a Z^s combination, taken into G
    B = IntMatrix.from_cols(basis, rows=G.rank)
    images = [G.element(B.apply(S.col(i))) for i in range(H.rank)]
    return SubgroupData(H, hom_from_gen_images(H, G, images))


def quotient_group(G, gen_vectors):
    """Quotient of G by the subgroup generated by the given coordinate
    vectors.  Returns (Q, projection hom, section matrix); see
    `cokernel_presentation` for the section."""
    cols = [list(v) for v in gen_vectors]
    A = IntMatrix.from_cols(cols, rows=G.rank) if cols else IntMatrix.zero(G.rank, 0)
    Q, P, S = cokernel_presentation(A, list(G.invariant_factors))
    return Q, GroupHom(G, Q, P), S


def solve_hom(f: GroupHom, y: GroupElement):
    """One preimage of y under f, or None if y is not in the image."""
    if y.group != f.target:
        raise DimensionMismatch("rhs not in target group")
    s, t = f.source.rank, f.target.rank
    stacked = f.matrix.hstack(_moduli_matrix(f.target)) if t else IntMatrix(0, s, [])
    if t == 0:
        return f.source.zero()
    sys = IntLinearSystem(stacked)
    sol = sys.solve(y.coords)
    if sol is None:
        return None
    return f.source.element(sol[:s])


def hom_kernel(f: GroupHom):
    """Kernel of f as a SubgroupData of the source."""
    s, t = f.source.rank, f.target.rank
    if s == 0:
        return subgroup_embedding(f.source, [])
    if t == 0:
        return subgroup_embedding(f.source, IntMatrix.identity(s).cols_list())
    stacked = f.matrix.hstack(_moduli_matrix(f.target))
    sys = IntLinearSystem(stacked)
    vecs = [k[:s] for k in sys.kernel_basis()]
    # source relations always sit inside the kernel lattice
    vecs += IntMatrix.diagonal(list(f.source.invariant_factors)).cols_list()
    return subgroup_embedding(f.source, vecs)


def kernel_generators(f: GroupHom):
    """Generators of ker f as elements of the source group."""
    data = hom_kernel(f)
    return [data.inclusion(g) for g in data.group.generators()]


def hom_kernel_span(f: GroupHom):
    """Canonical span (in source coordinates) of ker f."""
    s, t = f.source.rank, f.target.rank
    if s == 0:
        return IntMatrix(0, 0, [])
    if t == 0:
        return span_lattice(f.source, IntMatrix.identity(s).cols_list())
    stacked = f.matrix.hstack(_moduli_matrix(f.target))
    sys = IntLinearSystem(stacked)
    vecs = [k[:s] for k in sys.kernel_basis()]
    return span_lattice(f.source, vecs)


def hom_image_span(f: GroupHom):
    """Canonical span (in target coordinates) of im f."""
    return span_lattice(f.target, f.matrix.cols_list())


def direct_sum_groups(groups):
    """Direct sum in canonical form.  Returns (G, injections, projections)."""
    orders = [d for g in groups for d in g.invariant_factors]
    n = len(orders)
    A = IntMatrix.zero(n, 0)
    G, P, S = cokernel_presentation(A, orders)
    injections = []
    projections = []
    offset = 0
    for g in groups:
        r = g.rank
        # injection: old generator -> its row block image under P
        inj_cols = []
        for j in range(r):
            vec = [0] * n
            vec[offset + j] = 1
            inj_cols.append(list(P.apply(tuple(vec))))
        inj = GroupHom(
            g, G, IntMatrix.from_cols(inj_cols, rows=G.rank) if inj_cols else IntMatrix(G.rank, 0, [])
        )
        # projection: canonical generator -> section -> block coordinates
        proj_rows = [list(S.row(offset + j)) for j in range(r)]
        proj = GroupHom(
            G, g, IntMatrix.from_rows(proj_rows) if proj_rows else IntMatrix(0, G.rank, [])
        )
        injections.append(inj)
        projections.append(proj)
        offset += r
    return G, injections, projections
