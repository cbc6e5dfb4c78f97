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
their bits.  The first row form of a square M of full rank does not
carry its transform; it takes the first of three routes that applies:

- the cyclic solve: when Z^n / (rows of M) is cyclic, one block p-adic
  solve M X = B (Dixon, Numer. Math. 40, 1982), rational reconstruction
  and an lcm of the columns' orders give y / D with the row lattice
  {v : v . y = 0 mod D}, whose Hermite form H is written down column by
  column (Pernet and Stein, J. Number Theory 130, 2010);
- the lift: a tail-less pass gives the Hermite form H of M;
- the carried pass over [M | I]: a rectangular or singular M, a
  determinant divisible by every lift prime, or entries too large for
  the int64 bounds.

After the first two, the transform W is the only integer matrix with
W M = H, found by p-adic lifting modulo one prime below 2**25 and
certified by an exact zero residual.  The cyclic H is certified from
both sides: M y = 0 mod D, checked exactly, puts the rows of M in the
lattice of H, and the lift puts the rows of H in the lattice of M; so
H is the Hermite form (it is unique), and a miss (a non-cyclic
cokernel, a D that is not +-det M mod p, a lift that does not end)
falls back to the tail-less pass.  U and V keep the bits of the carried
pass.  The solve and the lift run in int64 NumPy arrays, bounded so
that no product overflows, and in object arrays of Python ints: integer
arithmetic, like the rest.  Entries are read as integers only
(``_as_int``): a fractional or non-finite float, a string or None is a
MalformedPresentation.

Digit bound.  Let h be the number of decimal digits of the Hadamard
bound prod ||row||_2 of M.  Every entry of U and V has at most 2h + 10
digits on the inputs the tests check (seeded n x n matrices with
entries in [-9, 9] for n = 24, 32, 40, and rank-deficient and
rectangular products); at n = 40 the entries reach 53 digits against
h = 62.  The bound is measured, not proven: Kannan and Bachem prove
polynomial size for the square nonsingular case only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

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


def _as_int(x) -> int:
    """x as an int: ints, bools, NumPy integers, and floats with a finite integral value.

    Anything else (a fractional or non-finite float, a string, None) is
    a MalformedPresentation rather than a silently truncated entry.
    """
    if type(x) is int:
        return x
    if isinstance(x, (float, np.floating)):
        if math.isfinite(x) and float(x).is_integer():
            return int(x)
    else:
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise MalformedPresentation(f"entry {x!r} is not an integer")


def _as_int_row(row) -> List[int]:
    """row as a new list of ints: one type check when every entry is an int already."""
    row = list(row)
    return row if {int}.issuperset(map(type, row)) else [_as_int(x) for x in row]


def _as_int_matrix(M) -> List[List[int]]:
    rows = list(map(_as_int_row, M))
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


# Primes below 2**25 for the p-adic solve and lift of the first row pass,
# tried in order, largest first.
_LIFT_PRIMES = (33554393, 33554383, 33554371)


def _inverse_mod(A, p: int):
    """(A^-1 mod p, det A mod p) for a square int64 array A, or None when p divides det A.

    Gauss-Jordan on [A | I] mod p, one vectorised update per pivot; every
    product is below p**2.  The determinant is the product of the pivots,
    negated once per row swap.
    """
    n = len(A)
    aug = np.concatenate([A % p, np.eye(n, dtype=np.int64)], axis=1)
    det = 1
    for c in range(n):
        nonzero = np.flatnonzero(aug[c:, c])
        if not nonzero.size:
            return None
        r = c + int(nonzero[0])
        if r != c:
            aug[[c, r]] = aug[[r, c]]
            det = -det
        pivot = int(aug[c, c])
        det = det * pivot % p
        aug[c] = aug[c] * pow(pivot, -1, p) % p
        factors = aug[:, c].copy()
        factors[c] = 0
        aug = (aug - np.outer(factors, aug[c])) % p
    return aug[:, n:], det


def _digit_planes(H, p: int):
    """int64 arrays H_0, H_1, ... with H = sum_k H_k p**k, entries in [-p/2, p/2].

    Only the entries outside that range are split digit by digit.
    """
    half = p // 2
    flat = [h for row in H for h in row]
    big = [(i, h) for i, h in enumerate(flat) if not -half <= h <= half]
    for i, _ in big:
        flat[i] = 0
    planes = [np.array(flat, dtype=np.int64)]
    for i, h in big:
        k = 0
        while h:
            if k == len(planes):
                planes.append(np.zeros(len(flat), dtype=np.int64))
            d = (h + half) % p - half
            planes[k][i] = d
            h = (h - d) // p
            k += 1
    return [plane.reshape(len(H), -1) for plane in planes]


def _digits(planes, A, C, p: int):
    """Dixon's p-adic digits of X with X A = sum_k planes[k] p**k (Numer. Math. 40, 1982).

    C is A^-1 mod p.  The residual is R = S + sum_(j>=k) planes[j] p**(j-k)
    for a carry S, so every step runs in int64: the digit x = (T mod p) C
    mod p of T = S + planes[k], taken in (-p/2, p/2], solves x A = T mod p,
    and S <- (T - x A) / p is exact, with |S| at most n max|A| / 2 + 1.
    Yields (x, whether R is now zero), without end.
    """
    S = np.zeros_like(planes[0])
    k = 0
    while True:
        T = S + planes[k] if k < len(planes) else S
        x = (T % p) @ C % p
        x[x > p // 2] -= p
        S = (T - x @ A) // p
        k += 1
        yield x, k >= len(planes) and not S.any()


def _horner(xs, p: int):
    """sum_k xs[k] p**k as an object array of Python ints, two digits an int64 step."""
    X = np.zeros(xs[0].shape, dtype=object)
    if len(xs) % 2:
        xs = xs + [np.zeros_like(xs[0])]
    for lo, hi in zip(xs[-2::-2], xs[::-2]):
        X = X * (p * p) + (lo + hi * p).astype(object)
    return X


def _lift(H, A, C, p: int, limit: int, strict: bool = True):
    """The integer matrix X with X A = H, by p-adic lifting (``_digits``).

    A zero residual certifies X A = H for X the digits read by Horner's
    rule; a residual still nonzero after ``limit`` digits is an
    ArithmeticError, never a guess, or None when ``strict`` is false.
    """
    xs = []
    for x, done in _digits(_digit_planes(H, p), A, C, p):
        xs.append(x)
        if done:
            return _horner(xs, p).tolist()
        if len(xs) == limit:
            if not strict:
                return None
            raise ArithmeticError(f"p-adic lift did not end within {limit} digits")


# The cyclic route solves A X = B for a fixed block B of _RHS_COLUMNS
# columns with entries in [-7, 7], drawn row by row from a stream with a
# constant seed: row i is the same for every n, and no run seed enters.
_RHS_COLUMNS = 6
_RHS_SEED = 1982


@functools.lru_cache(maxsize=32)
def _rhs_block(n: int):
    """The first n rows of B, read-only."""
    draw = random.Random(_RHS_SEED)
    B = np.array([[draw.randint(-7, 7) for _ in range(_RHS_COLUMNS)] for _ in range(n)],
                 dtype=np.int64)
    B.setflags(write=False)
    return B


def _reconstruct(u: int, P: int, N: int):
    """(a, b) with a = b u mod P, |a| <= N and b > 0, from the extended
    Euclidean remainders of (P, u) (rational reconstruction)."""
    r0, r1, t0, t1 = P, u % P, 0, 1
    while r1 > N:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _column_functional(x, P: int, N: int, bound: int):
    """(y, D) with x = y / D mod P, gcd(D, y) = 1, |y_i| <= N and D <= bound, or None.

    The denominator grows one entry at a time: D x_i mod P is
    reconstructed only when it is not already a small integer.
    """
    D, half = 1, P // 2
    y = []
    for u in x:
        a = D * u % P
        if a > half:
            a -= P
        if abs(a) > N:
            a, b = _reconstruct(a, P, N)
            D *= b
            if D > bound:
                return None
            y = [v * b for v in y]
        y.append(a)
    g = math.gcd(D, *y)
    return [v // g for v in y], D // g


def _combine(first, second):
    """A functional of order lcm(D1, D2) from two of orders D1 and D2.

    Split lcm(D1, D2) = a b with a | D1, b | D2 and gcd(a, b) = 1; then
    (D1/a) y1/D1 + (D2/b) y2/D2 = (b y1 + a y2) / (a b) has order a b.
    """
    (y1, d1), (y2, d2) = first, second
    a, b = d1, d2 // math.gcd(d1, d2)
    h = math.gcd(a, b)
    while h > 1:
        a, b = a // h, b * h
        h = math.gcd(a, b)
    D = a * b
    return [(b * u + a * v) % D for u, v in zip(y1, y2)], D


def _functional_hermite(y, D: int):
    """The row Hermite form of {v in Z^n : v . y = 0 mod D}.

    Column i (from the last) has pivot g_i / gcd(g_i, y_i) with
    g_i = gcd(D, y_i+1, ..., y_n); lam keeps g_i = sum lam_j y_j mod D,
    so t lam, for t = -pivot y_i / g_i, completes the row, which is then
    reduced at each later pivot column as ``_reduce`` does.  Only columns
    whose pivot exceeds 1 carry entries right of a pivot, so every row is
    kept as a dict over those columns.
    """
    n = len(y)
    rows = [None] * n
    wide = []                   # columns with a pivot above 1, increasing
    lam, g = {}, D
    for i in range(n - 1, -1, -1):
        c = g // math.gcd(g, y[i])
        t = -c * y[i] // g
        row = {j: t * l % D for j, l in lam.items()}
        for j in wide:
            q = row[j] // rows[j][j]
            if q:
                for k, h in rows[j].items():
                    row[k] -= q * h
        row[i] = c
        rows[i] = row
        if c > 1:
            g, s, t = _xgcd(g, y[i])
            lam = {j: s * l % D for j, l in lam.items()}
            lam[i] = t % D
            wide.insert(0, i)
    return [[row.get(k, 0) for k in range(n)] for row in rows]


def _cyclic_hermite(M, A, C, det: int, p: int, norms):
    """The row Hermite form of M from one block solve when Z^n / (rows of M) is cyclic, or None.

    Then the row lattice is {v : v . y = 0 mod d} for d = |det M| and
    some y, and x = y / d = M^-1 b for most b.  The first digits of the
    solve of M X = B (the lift of X^T M^T = B^T), rational reconstruction
    of each column within the Cramer and Hadamard bounds, and the
    combination of the columns' functionals give y / D; a D that is not
    +-det M mod p (a non-cyclic cokernel, or a block that falls short)
    is None.  M y = 0 mod D, checked exactly, puts the rows of M in the
    lattice of the result; the caller's lift certifies the converse.
    """
    hadamard_sq = math.prod(norms)
    numerator_sq = math.prod(s + 49 for s in norms)     # Cramer, |b| <= 7
    N = math.isqrt(numerator_sq) + 1
    bound = math.isqrt(hadamard_sq) + 1
    digits = -(-(2 + N.bit_length() + bound.bit_length()) // (p.bit_length() - 1))
    P = p ** digits
    xs = itertools.islice(_digits([_rhs_block(len(M)).T], A.T, C.T, p), digits)
    combined = ([0] * len(M), 1)
    for x in _horner([x for x, _ in xs], p).tolist():
        column = _column_functional(x, P, N, bound)
        if column is None:
            return None
        combined = _combine(combined, column)
    y, D = combined
    if D % p not in (det, p - det):
        return None
    # M y = sum_k (M y_k) p**k over the digit planes y_k of y: int64 products
    My = sum((A @ plane[0]).astype(object) * p ** k
             for k, plane in enumerate(_digit_planes([y], p)))
    if (My % D).any():
        return None
    return _functional_hermite(y, D)


def _lifted_rows(M):
    """``_hermite_rows([M | I], n)`` for a square M of full rank, solving for the tail.

    M is invertible modulo a lift prime, so it has full rank.  Its row
    Hermite form H comes first from ``_cyclic_hermite`` (one block solve,
    when Z^n / (rows of M) is cyclic), else from the tail-less pass over
    its rows (the same pivot rows as the pass over [M | I], whose row
    operations read only the first n columns).  The tail W is the only
    integer matrix with W M = H, found by ``_lift``; for the cyclic
    candidate the lift is also its certificate (W integral puts H's rows
    in the lattice of M, which lies in H's by the exact check of
    ``_cyclic_hermite``), and a lift that does not end sends it to the
    pass.  Returns None, for the caller to carry the tail instead, when
    M is not square, is singular modulo every lift prime (a singular M
    is), or is large enough that an int64 product of the lift or the
    solve could overflow (n (p - 1)**2 or n (p/2 + 1) max|M| reaching
    2**63).
    """
    n = len(M)
    p = _LIFT_PRIMES[0]     # the largest: its bounds cover the others
    if any(len(r) != n for r in M):
        return None
    top = max(map(abs, itertools.chain.from_iterable(M)))
    if n * (p - 1) ** 2 >= 1 << 63 or n * (p // 2 + 1) * top >= 1 << 63:
        return None
    A = np.array(M, dtype=np.int64)
    for p in _LIFT_PRIMES:
        inverse = _inverse_mod(A, p)
        if inverse is not None:
            break
    else:
        return None
    C, det = inverse
    norms = [sum(map(operator.mul, r, r)) for r in M]
    # |W| <= n * prod ||row||_2 (Cramer's rule and Hadamard's bound, with
    # every entry of H at most |det M|), and p**limit > 2 |W| ends the lift
    bits = 1 + n.bit_length() + (math.prod(norms).bit_length() + 1) // 2
    limit = -(-bits // (p.bit_length() - 1))
    H = _cyclic_hermite(M, A, C, det, p, norms)
    W = None if H is None else _lift(H, A, C, p, limit, strict=False)
    if W is None:
        pivots, _ = _hermite_pass([list(r) for r in M], n)
        H = [pivots[c] for c in range(n)]
        W = _lift(H, A, C, p, limit)
    return [h + w for h, w in zip(H, W)]


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
    and lcm.  The first row form of a square M of full rank solves for
    its transform instead of carrying it (``_lifted_rows``): its Hermite
    form comes from one block solve when the cokernel is cyclic, else
    from a tail-less pass, and a certified p-adic lift gives the
    transform; any other first pass carries it.  Every route gives the
    same U, S and V.
    """
    S = _as_int_matrix(M)
    m = len(S)
    shape = getattr(M, "shape", ())     # a 2-D array has its width without rows
    n = len(S[0]) if m else (shape[1] if len(shape) == 2 else 0)
    U = _identity(m)
    V = _identity(n)
    if not (m and n):
        return U, S, V
    rows = _lifted_rows(S) or _hermite_rows([s + u for s, u in zip(S, U)], n)
    while True:
        S = [r[:n] for r in rows]
        U = [r[n:] for r in rows]
        if _is_diagonal(S):
            break
        cols = _hermite_rows([list(s) + list(v) for s, v in zip(zip(*S), zip(*V))], m)
        S = [list(r) for r in zip(*(c[:m] for c in cols))]
        V = [list(r) for r in zip(*(c[m:] for c in cols))]
        if _is_diagonal(S):
            break
        rows = _hermite_rows([s + u for s, u in zip(S, U)], n)
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
    return _kernel_basis(_as_int_matrix(M))


def _kernel_basis(M: List[List[int]]) -> List[List[int]]:
    """``integer_kernel_basis`` of a matrix whose entries are already ints."""
    m = len(M)
    n = len(M[0]) if m else 0
    if n == 0:          # no rows: no columns either
        return []
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
        return lambda v: not any(_as_int(x) for x in v)
    if any(len(col) != dim for col in columns):
        raise DimensionMismatch("lattice_member: column length mismatch")
    pivots, _ = _hermite_pass(_as_int_matrix(columns), dim)
    basis = sorted(pivots.items())

    def member(v) -> bool:
        v = _as_int_row(v)
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

    @functools.cached_property
    def relation_columns(self):
        """The relations as tuples of ints, read once."""
        return tuple(map(tuple, _as_int_matrix(self.relations)))


@dataclass(frozen=True)
class IntHom:
    """Homomorphism of presented abelian groups, as an integer matrix.

    ``matrix`` has one row per codomain generator and one column per
    domain generator.  Construction checks that domain relations land in
    the codomain relation lattice.  The matrix is read as ints once, here,
    into ``_rows``, which ``apply`` and ``kernel_generators`` trust.
    """

    matrix: tuple
    domain: HomologyPresentation
    codomain: HomologyPresentation
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M = _as_int_matrix(self.matrix)
        object.__setattr__(self, "_rows", tuple(map(tuple, M)))
        if len(M) != self.codomain.ngens or (M and len(M[0]) != self.domain.ngens):
            raise MalformedPresentation("hom matrix shape does not match presentations")
        if self.domain.relations and self.codomain.ngens and self.domain.ngens:
            member = _lattice_test(self.codomain.relation_columns, self.codomain.ngens)
            for rel in self.domain.relation_columns:
                if not member([sum(map(operator.mul, row, rel)) for row in M]):
                    raise MalformedPresentation(
                        "hom does not map a domain relation into the codomain lattice")

    def apply(self, v: Sequence[int]) -> List[int]:
        M = self._rows
        return [sum(M[i][j] * _as_int(v[j]) for j in range(self.domain.ngens))
                for i in range(self.codomain.ngens)]


def kernel_generators(f: IntHom) -> List[List[int]]:
    """Generators of ker(f) as a subgroup of the domain group.

    Computed from the integer nullspace of the block matrix
    ``[matrix | -codomain relations]`` projected to domain coordinates;
    generators already zero in the domain (members of the domain
    relation lattice) are dropped.
    """
    nd = f.domain.ngens
    rel_cols = f.codomain.relation_columns
    block = [list(row) + [-col[i] for col in rel_cols] for i, row in enumerate(f._rows)]
    basis = _kernel_basis(block) if block else _identity(nd)
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
    eta = [_as_int(x) % 2 for x in eta]
    if len(eta) != i_star.domain.ngens:
        raise MalformedPresentation("eta length != domain generator count")
    for rel in i_star.domain.relation_columns:
        if sum(map(operator.mul, eta, rel)) % 2 != 0:
            raise MalformedPresentation("eta is not well-defined on the domain group")
    for gen in kernel_generators(i_star):
        if sum(map(operator.mul, eta, gen)) % 2 != 0:
            return gen
    return None


# ``bytes.translate`` table: each byte to its parity
_PARITY = bytes(i & 1 for i in range(256))


def _parity_bytes(row) -> bytes:
    """The entries of ``row`` mod 2, one byte each.

    A list or tuple of integers in [0, 256) converts in one ``bytes``
    call (through ``__index__``, as ``_as_int`` reads them); any other
    row reads each entry through ``_as_int``.
    """
    if isinstance(row, (list, tuple)):
        try:
            return bytes(row).translate(_PARITY)
        except (TypeError, ValueError):
            pass
    return bytes([_as_int(x) % 2 for x in row])


def double_cover_exists(i_pullback, eta_class: Sequence[int]) -> bool:
    """Whether the coorientation class is hit by the mod-2 restriction map.

    ``i_pullback`` maps mod-2 classes of the ambient space to the
    divisor; the cover exists iff ``eta_class`` (one entry per row) lies
    in its column space over GF(2).  Exact Gaussian elimination on rows
    packed into Python ints, eliminating with XOR.  A row packs in one
    call, ``int.from_bytes`` of its entries' parities: column c sits at
    bit 8c and the right-hand side at bit 8 * ncols.  XOR carries
    nothing from one byte into the next, so every other bit stays zero,
    and ``v & -v`` names the lowest column still set.  Entries are read
    as integers (``_as_int``); a fractional entry is a
    MalformedPresentation.
    """
    A = list(map(_parity_bytes, i_pullback))
    b = _parity_bytes(eta_class)
    if len(A) != len(b):
        raise DimensionMismatch("double_cover_exists: row count != class length")
    if not A:
        return True
    ncols = len(A[0])
    if any(len(row) != ncols for row in A):
        raise DimensionMismatch("double_cover_exists: ragged matrix")
    shift = 8 * ncols           # the right-hand side's bit
    columns = (1 << shift) - 1
    pivots = {}                 # lowest column bit -> reduced row
    for row, rhs in zip(A, b):
        v = int.from_bytes(row, "little") | rhs << shift
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
