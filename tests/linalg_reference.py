"""Reference linear algebra for the tests: the transform-carrying Hermite
form, the SNF-based integer linear system and the kernels and preimages
built on it.  `prokit.intlinalg` solves A x = b by one canonical preimage
(`_solve`) and keeps `snf` for presentations alone; these are the routes
it replaced, kept as the independent answers the tests compare against.
The Bareiss determinant `det` is the independent oracle of acceptance
criterion 01, which checks the Smith form against it."""

from prokit.errors import DimensionMismatch
from prokit.intlinalg import (
    GroupHom,
    GroupElement,
    IntMatrix,
    _hermite,
    _swap_rows,
    hom_kernel_span,
    snf,
    subquotient_group,
)


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


def _relations(G):
    return IntMatrix.diagonal(list(G.invariant_factors))


def hnf(A: IntMatrix):
    """Row Hermite normal form.

    Returns (H, U) with H = U * A, U unimodular, H in row-echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot):
    the Hermite loop on the rows of [A | I], pivots limited to A's columns."""
    m, n = A.rows, A.cols
    rows = [a + e for a, e in zip(A.rows_list(), IntMatrix.identity(m).rows_list())]
    _hermite(rows, n)
    H = IntMatrix._of(m, n, tuple(x for row in rows for x in row[:n]))
    return H, IntMatrix._of(m, m, tuple(x for row in rows for x in row[n:]))


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


def solve_hom(f: GroupHom, y: GroupElement):
    """One preimage of y under f, or None if y is not in the image."""
    if y.group != f.target:
        raise DimensionMismatch("rhs not in target group")
    if f.target.rank == 0:
        return f.source.zero()
    sol = IntLinearSystem(f.matrix.hstack(_relations(f.target))).solve(y.coords)
    if sol is None:
        return None
    return f.source.element(sol[: f.source.rank])


def hom_kernel(f: GroupHom):
    """Kernel of f as a GroupSubquotient of the source."""
    return subquotient_group(f.source, hom_kernel_span(f), _relations(f.source))


def kernel_generators(f: GroupHom):
    """Generators of ker f as elements of the source group."""
    data = hom_kernel(f)
    return [data.lift(g) for g in data.group.generators()]
