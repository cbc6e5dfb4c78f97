"""Exact integer linear algebra for homology-level decisions.

Hermite and Smith normal forms over Z with unimodular transforms,
finitely generated abelian groups presented by relation vectors,
integer homomorphisms with kernel computation, and the two
obstruction-theoretic decision procedures: existence of a Hausdorff
integration for a smooth divisor (a mod-2 functional factoring through
the pushforward image) and existence of a coorientation double cover
(membership in a mod-2 column space).  Everything here is exact; no
floating point.

Hermite form.  ``_hermite_pass`` inserts the rows one at a time,
combines a row with the pivot row that owns its leading column by an
extended-gcd step, and after every insertion reduces the entries above
each pivot modulo that pivot, leftmost pivot first, from the first
pivot column the insertion changed (the columns left of it are still
reduced) (Kannan and Bachem, SIAM J. Comput. 8, 1979).  Rows that
vanish on the matrix (kernel rows) are kept in Hermite form on their
carried tail.  ``_hermite_rows`` then reduces the other rows' tails
modulo the kernel rows, so the tails stay bounded on rectangular and
rank-deficient inputs too; its result is the row Hermite normal form
of the lattice the rows span, over all columns including the tail.
That form is unique, so any route to it gives the same bits.

Kernels and lattices, one Hermite pass each.  ``integer_kernel_basis``
runs one pass over the rows of [M^T | I]; the tails of the rows that
vanish on M^T are the Hermite basis of the kernel lattice (the columns
of the Smith transform V past the rank, by uniqueness); the other
rows' tails are not read, so they are not reduced.  A lattice
test (``lattice_member``, ``IntHom``, ``kernel_generators``) runs one
tail-less pass over the lattice's generators and reduces v at each
pivot column: a remainder means v is not a member, and v is one iff it
ends at zero.  So ``IntHom`` factors its codomain lattice once, and
``kernel_generators`` its block's kernel once and its domain lattice
once; neither runs a Smith form.

Smith normal form.  Row and column Hermite forms alternate until the
matrix is diagonal (a column form is the row form of the transpose);
then diagonal pairs that break the divisibility chain are replaced by
their gcd and lcm.  U and V are not unique, so this alternation fixes
their bits.

Digit bound.  Let h be the number of decimal digits of the Hadamard
bound prod ||row||_2 of M.  Every entry of U and V has at most 2h + 10
digits on the inputs the tests check (seeded n x n matrices with
entries in [-9, 9] for n = 24, 32, 40, and rank-deficient and
rectangular products); at n = 40 the entries reach 53 digits against
h = 62.  The bound is measured, not proven: Kannan and Bachem prove
polynomial size for the square nonsingular case only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .errors import DimensionMismatch, MalformedPresentation

__all__ = [
    "smith_normal_form",
    "integer_determinant",
    "integer_kernel_basis",
    "lattice_member",
    "HomologyPresentation",
    "IntHom",
    "kernel_generators",
    "hausdorff_smooth_decision",
    "double_cover_exists",
]


def _as_int_matrix(M) -> List[List[int]]:
    rows = [[int(x) for x in row] for row in M]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise MalformedPresentation("ragged integer matrix")
    return rows


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _lead(row, start: int, width: int):
    """First column c >= start with row[c] != 0 among the first ``width``, or None."""
    for c in range(start, width):
        if row[c]:
            return c
    return None


def _insert(pivots, row, lo: int, hi: int):
    """Insert ``row`` into Hermite rows ``pivots`` ({leading column: row}).

    Only columns lo..hi-1 decide leading columns; the rest of the row is
    carried along.  While the row leads in a column that a pivot row
    owns, the two are combined by the unimodular extended-gcd step
    [[x, y], [-b/g, a/g]].  Returns (the row, if it became zero on
    lo..hi-1, else None; the leftmost pivot column whose row changed or
    was added, or None when ``pivots`` is unchanged).
    """
    first = None
    c = _lead(row, lo, hi)
    while c is not None and c in pivots:
        p = pivots[c]
        a, b = p[c], row[c]
        if b % a == 0:
            q = b // a
            row = [v - q * u for u, v in zip(p, row)]
        else:
            g, x, y = _xgcd(a, b)
            a, b = a // g, b // g
            pivots[c] = [x * u + y * v for u, v in zip(p, row)]
            row = [a * v - b * u for u, v in zip(p, row)]
            if first is None:
                first = c
        c = _lead(row, c + 1, hi)
    if c is None:
        return row, first
    pivots[c] = row if row[c] > 0 else [-v for v in row]
    return None, c if first is None else first


def _reduce(targets, pivots, start: int = 0):
    """Reduce each target row's entry at every pivot column >= ``start`` into [0, pivot).

    Leftmost pivot first: a reduction changes only columns at or right
    of its pivot, so later ones never undo earlier ones.  With the pivot
    rows themselves as targets this reduces above each pivot (a row is
    zero left of its own pivot, so nothing below one changes).  After an
    insertion that changed pivot rows from column ``start`` on, every
    entry at a pivot column left of ``start`` is still in [0, pivot), so
    those columns are skipped.
    """
    for cj in sorted(c for c in pivots if c >= start):
        pj = pivots[cj]
        d = pj[cj]
        for ri in targets:
            if ri is pj:
                continue
            q = ri[cj] // d
            if q:
                ri[cj:] = [u - q * v for u, v in zip(ri[cj:], pj[cj:])]


def _hermite_pass(rows, width: int):
    """Row Hermite form by insertion, with size reduction.

    Each row is a list whose first ``width`` entries are the matrix and
    whose tail is carried along (the transform).  Rows are inserted one
    at a time (``_insert``), and after each insertion every entry above
    a pivot is reduced into [0, pivot), so no entry outgrows the pivots
    (Kannan and Bachem 1979).  Rows that become zero on the matrix are
    kernel rows: their tails are kept in Hermite form of their own.
    Returns (pivot rows, kernel rows), each a dict by leading column;
    the pivot rows' tails are not yet reduced modulo the kernel rows.
    """
    pivots, kernel = {}, {}
    for row in rows:
        zero, start = _insert(pivots, row, 0, width)
        if zero is not None:
            _, tail_start = _insert(kernel, zero, width, len(zero))
            if tail_start is not None:
                _reduce(kernel.values(), kernel, tail_start)
        if start is not None:
            _reduce(pivots.values(), pivots, start)
    return pivots, kernel


def _hermite_rows(rows, width: int):
    """The row Hermite normal form of ``rows`` over all their columns.

    The pivot rows of ``_hermite_pass`` by leading column, with their
    tails reduced modulo the kernel rows (which keeps the transform
    bounded when the matrix is not square or not of full rank), then
    the kernel rows.
    """
    pivots, kernel = _hermite_pass(rows, width)
    out = [pivots[c] for c in sorted(pivots)]
    _reduce(out, kernel)
    return out + [kernel[c] for c in sorted(kernel)]


def _is_diagonal(S) -> bool:
    return all(not x for i, row in enumerate(S) for j, x in enumerate(row) if i != j)


def smith_normal_form(M):
    """Smith normal form ``U * M * V = S`` over Z.

    U and V are unimodular (det +-1) and S is diagonal with nonnegative
    entries satisfying the divisibility chain d1 | d2 | ...  Arbitrary
    precision integers throughout.  Returns nested lists (U, S, V).

    Row and column Hermite forms alternate until S is diagonal (each
    column form is the row form of the transpose, carrying V^T); then
    the diagonal pairs that break the chain are replaced by their gcd
    and lcm.
    """
    S = _as_int_matrix(M)
    m = len(S)
    n = len(S[0]) if m else 0
    U = _identity(m)
    V = _identity(n)
    if not (m and n):
        return U, S, V
    while True:
        rows = _hermite_rows([s + u for s, u in zip(S, U)], n)
        S = [r[:n] for r in rows]
        U = [r[n:] for r in rows]
        if _is_diagonal(S):
            break
        cols = _hermite_rows([list(s) + list(v) for s, v in zip(zip(*S), zip(*V))], m)
        S = [list(r) for r in zip(*(c[:m] for c in cols))]
        V = [list(r) for r in zip(*(c[m:] for c in cols))]
        if _is_diagonal(S):
            break
    r = min(m, n)
    for i in range(r):
        for j in range(i + 1, r):
            a, b = S[i][i], S[j][j]
            if a == 0 or b % a == 0:
                continue
            # [[x, y], [-b/g, a/g]] diag(a, b) [[1, -y b/g], [1, x a/g]] = diag(g, a b/g)
            g, x, y = _xgcd(a, b)
            a, b = a // g, b // g
            S[i][i], S[j][j] = g, a * b * g
            U[i], U[j] = ([x * u + y * v for u, v in zip(U[i], U[j])],
                          [a * v - b * u for u, v in zip(U[i], U[j])])
            for row in V:
                vi, vj = row[i], row[j]
                row[i], row[j] = vi + vj, x * a * vj - y * b * vi
    return U, S, V


def integer_determinant(M) -> int:
    """Exact determinant over Z (fraction-free Bareiss elimination).

    Unimodularity of SNF transforms cannot be checked in floating point;
    their entries overflow doubles quickly.
    """
    M = _as_int_matrix(M)
    n = len(M)
    if n == 0:
        return 1
    if any(len(r) != n for r in M):
        raise MalformedPresentation("determinant of a non-square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def integer_kernel_basis(M) -> List[List[int]]:
    """Hermite basis of the integer kernel lattice {x : M x = 0}.

    One Hermite pass over the rows of [M^T | I]: the rows that vanish on
    M^T carry, in their tails, the Hermite form of the kernel lattice
    (the other rows' tails are not read, so they are not reduced).  That
    form is unique, so it equals the columns of the Smith transform V
    past the rank.
    """
    M = _as_int_matrix(M)
    m = len(M)
    n = len(M[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return _identity(n)
    _, kernel = _hermite_pass([list(col) + e for col, e in zip(zip(*M), _identity(n))], m)
    return [kernel[c][m:] for c in sorted(kernel)]


def _lattice_test(columns: Sequence[Sequence[int]], dim: int):
    """Membership test ``v -> bool`` for the Z-span of ``columns`` in Z^dim.

    The lattice is factored once, into the Hermite basis of its
    generators (one tail-less Hermite pass).  v is reduced at each pivot
    column, leftmost first; a remainder there means v is not a member,
    and v is one iff it ends at zero.
    """
    if not columns:
        return lambda v: not any(int(x) for x in v)
    if any(len(col) != dim for col in columns):
        raise DimensionMismatch("lattice_member: column length mismatch")
    pivots, _ = _hermite_pass([[int(x) for x in col] for col in columns], dim)
    basis = sorted(pivots.items())

    def member(v) -> bool:
        v = [int(x) for x in v]
        for c, p in basis:
            q, r = divmod(v[c], p[c])
            if r:
                return False
            if q:
                v[c:] = [a - q * b for a, b in zip(v[c:], p[c:])]
        return not any(v)
    return member


def lattice_member(columns: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Whether v lies in the Z-span of the given column vectors."""
    return _lattice_test(columns, len(v))(v)


@dataclass(frozen=True)
class HomologyPresentation:
    """Finitely generated abelian group: generators and relation vectors.

    Each relation is a vector of generator coefficients declared to be
    zero in the group.
    """

    ngens: int
    relations: tuple = ()
    names: tuple = ()

    def __post_init__(self):
        for r in self.relations:
            if len(r) != self.ngens:
                raise MalformedPresentation("relation length != generator count")
        if self.names and len(self.names) != self.ngens:
            raise MalformedPresentation("name count != generator count")

    @property
    def relation_columns(self):
        return [list(map(int, r)) for r in self.relations]


@dataclass(frozen=True)
class IntHom:
    """Homomorphism of presented abelian groups, as an integer matrix.

    ``matrix`` has one row per codomain generator and one column per
    domain generator.  Construction checks that domain relations land in
    the codomain relation lattice.
    """

    matrix: tuple
    domain: HomologyPresentation
    codomain: HomologyPresentation

    def __post_init__(self):
        M = _as_int_matrix(self.matrix)
        if len(M) != self.codomain.ngens or (M and len(M[0]) != self.domain.ngens):
            raise MalformedPresentation("hom matrix shape does not match presentations")
        if self.domain.relations and self.codomain.ngens and self.domain.ngens:
            member = _lattice_test(self.codomain.relation_columns, self.codomain.ngens)
            for rel in self.domain.relation_columns:
                if not member([sum(a * b for a, b in zip(row, rel)) for row in M]):
                    raise MalformedPresentation(
                        "hom does not map a domain relation into the codomain lattice")

    def apply(self, v: Sequence[int]) -> List[int]:
        M = _as_int_matrix(self.matrix)
        return [sum(M[i][j] * int(v[j]) for j in range(self.domain.ngens))
                for i in range(self.codomain.ngens)]


def kernel_generators(f: IntHom) -> List[List[int]]:
    """Generators of ker(f) as a subgroup of the domain group.

    Computed from the integer nullspace of the block matrix
    ``[matrix | -codomain relations]`` projected to domain coordinates;
    generators already zero in the domain (members of the domain
    relation lattice) are dropped.
    """
    M = _as_int_matrix(f.matrix)
    nd = f.domain.ngens
    rel_cols = f.codomain.relation_columns
    block = [[M[i][j] for j in range(nd)] + [-col[i] for col in rel_cols]
             for i in range(f.codomain.ngens)]
    basis = integer_kernel_basis(block) if block else _identity(nd)
    vectors = [vec[:nd] for vec in basis if any(vec[:nd])]
    if not (vectors and f.domain.relations):
        return vectors
    # drop generators already zero in the domain (its relation lattice)
    in_domain_lattice = _lattice_test(f.domain.relation_columns, nd)
    return [x for x in vectors if not in_domain_lattice(x)]


def hausdorff_smooth_decision(i_star: IntHom, eta: Sequence[int]) -> bool:
    """Hausdorff integrability of a smooth divisor.

    ``eta`` is the mod-2 coorientation functional on the divisor's first
    homology; the decision is whether it factors through the image of
    ``i_star``, equivalently whether it vanishes on every kernel
    generator.  Exact arithmetic.
    """
    return smooth_decision_witness(i_star, eta) is None


def smooth_decision_witness(i_star: IntHom, eta: Sequence[int]):
    """The first kernel generator on which eta is odd, or None.

    Raises MalformedPresentation when eta has the wrong length or is
    not well defined on the domain group (odd on a relation).
    """
    eta = [int(x) % 2 for x in eta]
    if len(eta) != i_star.domain.ngens:
        raise MalformedPresentation("eta length != domain generator count")
    for rel in i_star.domain.relations:
        if sum(e * int(r) for e, r in zip(eta, rel)) % 2 != 0:
            raise MalformedPresentation("eta is not well-defined on the domain group")
    for gen in kernel_generators(i_star):
        if sum(e * g for e, g in zip(eta, gen)) % 2 != 0:
            return gen
    return None


def double_cover_exists(i_pullback, eta_class: Sequence[int]) -> bool:
    """Whether the coorientation class is hit by the mod-2 restriction map.

    ``i_pullback`` maps mod-2 classes of the ambient space to the
    divisor; the cover exists iff ``eta_class`` lies in its column
    space over GF(2).  Exact Gaussian elimination on rows packed into
    Python ints, eliminating with XOR.
    """
    A = [[int(x) % 2 for x in row] for row in i_pullback]
    b = [int(x) % 2 for x in eta_class]
    if A and len(A) != len(b):
        raise DimensionMismatch("double_cover_exists: row count != class length")
    if not A:
        return not any(b)
    ncols = len(A[0])
    if any(len(row) != ncols for row in A):
        raise DimensionMismatch("double_cover_exists: ragged matrix")
    # row i as an int: bit c is column c, bit ncols the right-hand side
    columns = (1 << ncols) - 1
    pivots = {}                 # lowest column bit -> reduced row
    for row, rhs in zip(A, b):
        v = rhs << ncols
        for c, x in enumerate(row):
            if x:
                v |= 1 << c
        while v & columns:
            low = v & -v        # lowest set bit: a column bit, as v has one
            p = pivots.get(low)
            if p is None:
                pivots[low] = v
                break
            v ^= p
        else:
            if v:               # a zero row with right-hand side 1
                return False
    return True
