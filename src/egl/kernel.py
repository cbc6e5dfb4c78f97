"""Dimension-generic numerical calculus.

Central-difference Jacobians, SVD nullspaces, principal-angle subspace
comparison, and differential forms on a point or a block of points
with a numerical exterior derivative.  Everything
downstream (algebroid recovery, multiplicativity of symplectic forms,
morphism checks) is built on these primitives, so they are kept
deliberately small and auditable: fixed step size, no adaptivity, no
clamping of singular loci.

``jacobian``, ``nullspace`` and ``subspace_angle`` take one point or
matrix, or a stack of them.  A stack of Jacobians evaluates all its
stencil points in one call of the map's tuple formula (``SmoothMap.formula``,
which takes a block of coordinate columns), and the SVDs of a stack run
in one LAPACK call; the results are those of the one-at-a-time
computation, bit for bit.  A single point or matrix is the one-row
stack.  A point that cannot be differenced (its stencil leaves the
map's domain, or a difference is not finite) has all-NaN rows in
``_differences``, and ``jacobian`` raises the first such point's
error.  A stack of spanning sets is an (N, r, n) array (the recovered
and the stated frames of a block; a frame shared by the block is
broadcast, stride 0, and factored once), and ``subspace_angle``
factors it through ``_orthonormal_rows``, with one rank rule: ranks,
cutoffs and angles are computed as arrays, with one SVD call per stack
and one per rank of the principal-angle products.  Stated frames are
exact formulas (a fibre product states its base model's), so no span
is intersected numerically.

A map is its tuple formula (``SmoothMap``): one point reaches it as a
tuple of Python floats, a stack as one block of coordinate columns, and
there is no other evaluator.  A form's evaluator takes a coordinate-major
block (see ``FormField``); calling a form, ``pullback_at`` and
``exterior_derivative`` take a point or a stack, a point being the
one-row stack.  Complex values are combined on real pairs (``_cmul``,
``_cdiv``) by the operations CPython's complex type performs; NumPy's
complex ``*`` and ``/`` differ in the last bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, StencilOutsideDomain

__all__ = [
    "ToleranceProfile",
    "SmoothMap",
    "FormField",
    "jacobian",
    "nullspace",
    "subspace_angle",
    "subspace_equal",
    "exterior_derivative",
    "pullback",
    "pullback_at",
    "pullback_form",
    "two_form_from_matrix",
    "compose_maps",
]


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical contract for finite differences and comparisons.

    Every field is finite and strictly positive, and ``abs_tol`` must
    dominate the second-order truncation error of the central-difference
    stencil, ``fd_step**2 * curvature_budget``.
    """

    fd_step: float = 1e-5
    abs_tol: float = 1e-8
    subspace_tol: float = 1e-6
    curvature_budget: float = 1.0

    def __post_init__(self):
        for name in ("fd_step", "abs_tol", "subspace_tol", "curvature_budget"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")
        if self.abs_tol <= self.fd_step**2 * self.curvature_budget:
            raise ValueError("abs_tol must exceed fd_step**2 * curvature_budget")


DEFAULT_PROFILE = ToleranceProfile()


# -- complex arithmetic on real pairs: floats (a point) or columns (a block) --

def _branch(cond, then, other):
    """``then()`` where ``cond`` holds and ``other()`` elsewhere.

    A point evaluates one branch; a block evaluates both and selects
    per row, so the branch it drops may divide by zero silently.
    """
    if not isinstance(cond, np.ndarray):
        return then() if cond else other()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        yes, no = then(), other()
    return tuple([np.where(cond, a, b) for a, b in zip(yes, no)])


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi), as CPython multiplies complex numbers."""
    return (ar * br - ai * bi, ar * bi + ai * br)


def _cdiv(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) by CPython's division (Smith's method).

    A point divided by 0 raises ZeroDivisionError, as complex division
    does; a NaN denominator gives (NaN, NaN).  A block evaluates both
    branches once and selects per row, as ``_branch`` would.
    """
    def by_real():
        ratio = bi / br
        denom = br + bi * ratio
        return ((ar + ai * ratio) / denom, (ai - ar * ratio) / denom)

    def by_imag():
        ratio = br / bi
        denom = br * ratio + bi
        return ((ar * ratio + ai) / denom, (ai * ratio - ar) / denom)

    abs_r, abs_i = abs(br), abs(bi)
    real = abs_r >= abs_i
    if not isinstance(real, np.ndarray):
        return _branch(real, by_real,
                       lambda: _branch(abs_i >= abs_r, by_imag, lambda: (math.nan, math.nan)))
    imag = abs_i >= abs_r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (rr, ri), (ir, ii) = by_real(), by_imag()
    return (np.where(real, rr, np.where(imag, ir, math.nan)),
            np.where(real, ri, np.where(imag, ii, math.nan)))


def _complex(re, im):
    """re + i im as a complex column, from real and imaginary columns."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _matvec(M, v):
    """M @ v for a matrix and a vector, or row by row for a stack of
    matrices (N, m, n) and of vectors (N, n), giving (N, m).  A stacked
    matmul of contiguous rows calls the BLAS kernel of each row's point,
    so every row has the point's bits (non-contiguous rows may not)."""
    if M.ndim == 2:
        return M @ v
    return (M @ np.ascontiguousarray(v)[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class SmoothMap:
    """A map between chart domains given by a formula on coordinate tuples.

    ``formula`` takes a tuple of ``domain_dim`` coordinates and returns a
    sequence of ``codomain_dim``: Python floats for one point, or, for a
    block of N points, (N,) columns (a coordinate that does not depend on
    the point may be one scalar for every row).  ``valid`` is the domain
    predicate on the same tuples, a bool for a point and a bool column (or
    one bool for every row) on a block; ``None`` means everywhere.
    Calling the map and ``defined_at`` on a point hand ``formula`` and
    ``valid`` a tuple of Python floats; a stack (N, domain_dim) reaches
    ``formula`` as one block.
    """

    domain_dim: int
    codomain_dim: int
    formula: Callable
    valid: Optional[Callable] = None
    name: str = ""

    def defined_at(self, p) -> bool:
        if self.valid is None:
            return True
        return bool(self.valid(tuple(np.asarray(p, dtype=float).tolist())))

    def __call__(self, p) -> np.ndarray:
        """The image of a point, or the (N, codomain_dim) images of a stack."""
        p = np.asarray(p, dtype=float)
        if p.ndim == 2 and p.shape[1] == self.domain_dim:
            return _images(self, p).T.copy()
        if p.shape != (self.domain_dim,):
            raise DimensionMismatch(
                f"{self.name or 'map'}: expected point of dim {self.domain_dim}, got {p.shape}")
        out = np.asarray(self.formula(tuple(p.tolist())), dtype=float)
        if out.shape != (self.codomain_dim,):
            raise DimensionMismatch(
                f"{self.name or 'map'}: formula returned shape {out.shape}")
        return out


def compose_maps(outer: SmoothMap, inner: SmoothMap, name: str = "") -> SmoothMap:
    """The composite ``outer o inner``: the formulas composed, defined
    where inner is and outer is at inner's image.  On a point, inner is
    not evaluated outside its domain."""
    if inner.codomain_dim != outer.domain_dim:
        raise DimensionMismatch("compose_maps: inner codomain != outer domain")

    def formula(x):
        return outer.formula(tuple(inner.formula(x)))

    def valid(x):
        inside = inner.valid is None or inner.valid(x)
        if outer.valid is None or not np.any(inside):
            return inside
        return inside & outer.valid(tuple(inner.formula(x)))

    return SmoothMap(inner.domain_dim, outer.codomain_dim, formula,
                     None if inner.valid is None and outer.valid is None else valid,
                     name or f"{outer.name}o{inner.name}")


@dataclass(frozen=True)
class FormField:
    """A differential k-form given by a coefficient evaluator.

    ``func(p, vectors)`` evaluates the form on ``degree`` tangent
    vectors, multilinear and alternating in the vectors (a sampled
    property, tested), at a coordinate-major block of N points: ``p``
    and the vectors are (n, N) arrays whose entries ``p[i]`` and
    ``v[i]`` are columns, and the value is a column of N real or complex
    values (or one value for every row).  ``domain_predicate`` takes
    ``p`` as ``func`` does and returns a bool column (or one bool).
    Calling the form, ``defined_at``, ``pullback_at`` and
    ``exterior_derivative`` take one point or a stack of N points
    (N, n), as ``jacobian`` does, and hand ``func`` the stack as its
    block; a point is the one-row stack.
    """

    degree: int
    ambient_dim: int
    func: Callable[[np.ndarray, Sequence[np.ndarray]], complex]
    kind: str = "real"  # "real" | "complex"
    domain_predicate: Optional[Callable[[np.ndarray], bool]] = None
    name: str = ""

    def defined_at(self, p):
        """A bool for a point, a bool column for a stack (N, n)."""
        P = np.asarray(p, dtype=float)
        X = np.atleast_2d(P)
        inside = _holds(self.domain_predicate, X.T, len(X))
        return inside if P.ndim == 2 else bool(inside[0])

    def __call__(self, p, vectors):
        """The value at a point, or the column of values at a stack (N, n)
        of points with stacks (N, n) of vectors."""
        P = np.asarray(p, dtype=float)
        X = np.atleast_2d(P)
        vs = [np.atleast_2d(np.asarray(v, dtype=float)) for v in vectors]
        if len(vs) != self.degree:
            raise DimensionMismatch(
                f"{self.name or 'form'}: degree {self.degree} form got {len(vs)} vectors")
        with np.errstate(all="ignore"):
            val = self.func(X.T, [v.T for v in vs])
        out = np.array(np.broadcast_to(val, (len(X),)),
                       dtype=float if self.kind == "real" else complex)
        return out if P.ndim == 2 else out[0].item()

    def wedge(self, other: "FormField") -> "FormField":
        """Wedge product via the shuffle sum (small degrees only).

        Its products are NumPy's, so complex values do not combine as
        CPython's complex type would.
        """
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("wedge: ambient dimension mismatch")
        k, l = self.degree, other.degree
        kind = "complex" if "complex" in (self.kind, other.kind) else "real"

        def func(p, vs):
            total = 0.0
            for comb in itertools.combinations(range(k + l), k):
                rest = [i for i in range(k + l) if i not in comb]
                sign = _shuffle_sign(comb, rest)
                total = total + sign * self.func(p, [vs[i] for i in comb]) \
                    * other.func(p, [vs[i] for i in rest])
            return total

        return FormField(k + l, self.ambient_dim, func, kind,
                         self.domain_predicate, f"({self.name}^{other.name})")


def _shuffle_sign(left, right):
    perm = list(left) + list(right)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def two_form_from_matrix(ambient_dim: int, coeff: Callable[[np.ndarray], np.ndarray],
                         kind: str = "real", domain_predicate=None, name: str = "") -> FormField:
    """2-form ``w(u, v) = u^T C(p) v`` from an antisymmetric coefficient matrix.

    ``coeff`` gives the C-contiguous (N, n, n) stack of matrices at a
    coordinate-major block (or one (n, n) matrix for every row); one
    stacked ``u @ C @ v`` then evaluates the block, each row with the
    bits of its own ``u @ C @ v`` (the matmuls of contiguous rows reach
    the BLAS kernels of one point's).
    """
    def func(p, vs):
        c = coeff(p)
        u, v = (np.ascontiguousarray(np.transpose(x)) for x in vs)
        return (u[:, None, :] @ c @ v[:, :, None])[:, 0, 0]
    return FormField(2, ambient_dim, func, kind, domain_predicate, name)


def _holds(pred: Optional[Callable], block, rows: int) -> np.ndarray:
    """``pred`` at a block of ``rows`` points, as a bool array of ``rows``
    (every row when ``pred`` is None)."""
    if pred is None:
        return np.ones(rows, dtype=bool)
    with np.errstate(all="ignore"):
        return np.broadcast_to(np.asarray(pred(block), dtype=bool), (rows,))


def _images(f: SmoothMap, X) -> np.ndarray:
    """f at each row of X, as a (codomain_dim, rows) array, from one call
    of ``f.formula`` on the columns of X.

    The formula must return ``codomain_dim`` coordinates, each a scalar
    (the same for every row) or a (rows,) column; anything else raises
    DimensionMismatch.
    """
    m, rows = f.codomain_dim, len(X)
    if rows == 0:
        return np.empty((m, 0))
    with np.errstate(all="ignore"):
        out = f.formula(tuple(X.T))
    try:
        count = len(out)
    except TypeError:                   # not a sequence
        count = None
    if count != m:
        raise DimensionMismatch(f"{f.name or 'map'}: formula returned {count} coordinates, not {m}")
    values = np.empty((m, rows))
    for row, column in zip(values, out):
        shape = column.shape if isinstance(column, np.ndarray) else np.shape(column)
        if shape not in ((), (rows,)):
            raise DimensionMismatch(
                f"{f.name or 'map'}: formula returned a coordinate of shape {shape} for {rows} rows")
        row[...] = column
    return values


def _differences(f: SmoothMap, points: np.ndarray, prof: ToleranceProfile):
    """Central differences of f at a stack (N, n) of points, failing closed.

    Returns (J, base_ok, axis_ok): the (N, m, n) differences, whether each
    point lies in f's domain, and whether both stencil points of each
    axis do (N, n), from one call of ``f.valid``.  A point's 2n stencil
    points are copies of it with one coordinate stepped; one call of
    ``f.formula`` evaluates the stencils of the points where the domain
    holds throughout (without a row copy when it holds everywhere).  J
    is C-ordered, and all NaN at the other points and wherever a row
    is not finite.
    """
    h = prof.fd_step
    count, n = points.shape
    X = np.empty((count * (2 * n + 1), n))      # the points, then their stencils
    X[:count] = points
    stencil = X[count:].reshape(count, 2 * n, n)
    stencil[...] = points[:, None, :]
    axes = np.arange(n)
    stencil[:, axes, axes] += h
    stencil[:, n + axes, axes] -= h
    inside = _holds(f.valid, tuple(X.T), len(X))
    base_ok = inside[:count]
    axis_ok = inside[count:].reshape(count, 2, n).all(axis=1)
    qualified = base_ok & axis_ok.all(axis=1)
    every = qualified.all()
    evaluated = stencil if every else stencil[qualified]
    m = f.codomain_dim
    values = _images(f, evaluated.reshape(-1, n)).reshape(m, len(evaluated), 2 * n)
    with np.errstate(invalid="ignore", over="ignore"):
        D = ((values[:, :, :n] - values[:, :, n:]) / (2.0 * h)).transpose(1, 0, 2)
    if every:
        J = D.copy()
    else:
        J = np.full((count, m, n), np.nan)
        J[qualified] = D
    J[~np.isfinite(J).all(axis=(1, 2))] = np.nan
    return J, base_ok, axis_ok


def jacobian(f: SmoothMap, p, prof: ToleranceProfile = DEFAULT_PROFILE) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at a point, or at each point of a stack.

    ``p`` is one point (n,), giving the (m, n) Jacobian, or a stack of N
    points (N, n), giving an (N, m, n) array; a point is the one-row
    stack.  Entry ``(i, j)`` is the central difference of component
    ``i`` along coordinate axis ``j`` with step ``prof.fd_step``, from
    ``_differences``.  Where that gives all-NaN rows, the first such
    point in stack order raises StencilOutsideDomain (its base point,
    else its first axis whose stencil leaves the domain) or
    NonFiniteValue.  The result is C-ordered.
    """
    P = np.asarray(p, dtype=float)
    n = f.domain_dim
    if P.ndim not in (1, 2) or P.shape[-1] != n:
        raise DimensionMismatch(
            f"{f.name or 'map'}: expected point of dim {n}, got {P.shape}")
    J, base_ok, axis_ok = _differences(f, P.reshape(-1, n), prof)
    # a point's differences are finite or all NaN: one entry tells which
    failed = np.flatnonzero(np.isnan(J[:, :1, :1]).any(axis=(1, 2))
                            | ~(base_ok & axis_ok.all(axis=1)))
    if len(failed):
        i = failed[0]
        if not base_ok[i]:
            raise StencilOutsideDomain(f"jacobian: base point outside domain of {f.name}")
        if not axis_ok[i].all():
            raise StencilOutsideDomain(
                f"jacobian: stencil left domain of {f.name} along axis {np.argmin(axis_ok[i])}")
        raise NonFiniteValue(f"non-finite value in jacobian of {f.name}")
    return J if P.ndim == 2 else J[0]


def nullspace(M, tol: float):
    """Orthonormal basis (rows) of the numerical right nullspace of ``M``.

    Right-singular vectors whose singular value is below ``tol``;
    directions outside the row space of a wide matrix count as singular
    value zero.  May be empty (shape ``(0, n)``).  A stack of matrices
    (N, r, n) is factored by one SVD call.  When its N bases have one
    dimension k (always, on a registered model's algebroid stacks) they
    come back as one (N, k, n) array, each row the basis of its matrix;
    when the dimensions differ, as the list of the N bases (an empty
    stack of nonempty matrices gives the empty list).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3):
        raise DimensionMismatch(f"nullspace: expected a matrix or a stack, got {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteValue("non-finite value in nullspace input")
    stack = M if M.ndim == 3 else M[None]
    n = M.shape[-1]
    if M.shape[-2] == 0 or n == 0:
        bases = np.repeat(np.eye(n)[None], len(stack), axis=0)
    else:
        _, svals, vt = np.linalg.svd(stack, full_matrices=True)
        # the singular values descend: the basis is the last rows of vt
        start = np.count_nonzero(svals >= tol, axis=1).tolist()
        if len(set(start)) == 1:
            bases = vt[:, start[0]:]
        else:
            bases = [v[i:] for v, i in zip(vt, start)]
    return bases if M.ndim == 3 else bases[0]


def _orthonormal_rows(spans):
    """Orthonormal bases of the row spans of a stack (N, r, n) of spanning sets.

    Returns (Q, ranks): the first ``ranks[i]`` rows of Q[i], the
    right-singular vectors of set i, are an orthonormal basis of it.
    The stack is factored by one SVD call, and a set broadcast over it
    (stride 0, one frame stated for a whole block) by one call on that
    set, its Q and rank broadcast back.  The rank counts the singular
    values above both 1e-9 times the largest and the absolute floor
    1e-7, the one rank rule; an empty or all-zero set has rank 0.
    ``subspace_angle`` compares finite-difference images, and the floor
    keeps their noise from promoting a direction the exact frame does
    not have (frames vanish identically on divisor strata while their
    numerical images are ~1e-11).  A set holding NaN or an infinity has no basis: its rank is
    -1, and it is zeroed before the SVD call (each set's SVD has its own
    bits in any stack).
    """
    count, r, n = spans.shape
    if count > 1 and spans.strides[0] == 0:
        Q, ranks = _orthonormal_rows(spans[:1])
        return _broadcast_rows(Q, count), _broadcast_rows(ranks, count)
    if min(r, n) == 0:
        return np.zeros((count, 0, n)), np.zeros(count, dtype=int)
    finite = np.isfinite(spans).all(axis=(1, 2))
    if not finite.all():
        spans = np.where(finite[:, None, None], spans, 0.0)
    _, svals, vt = np.linalg.svd(spans, full_matrices=False)
    cutoff = np.maximum(1e-9 * svals[:, 0], 1e-7)
    return vt, np.where(finite, np.count_nonzero(svals > cutoff[:, None], axis=1), -1)


def _broadcast_rows(a, count: int):
    """The one-row stack ``a`` as a read-only stack of ``count`` rows."""
    return np.broadcast_to(a, (count,) + a.shape[1:])


def subspace_angle(A, B):
    """Largest principal angle between span(A) and span(B), in radians.

    Returns ``pi/2`` on a rank mismatch (the spans cannot be equal),
    and NaN when either spanning set holds a NaN or an infinity.
    Zero and near-noise vectors in either spanning set are ignored: the
    rank of a set counts the singular values above both 1e-9 times its
    largest one and the absolute floor 1e-7.
    ``A`` and ``B`` may also be stacks of N spanning sets, each an
    (N, r, n) array or anything ``np.asarray`` makes one (a list of N
    sets of one shape); the result is then the array of their angles,
    with one SVD call per stack (one on the set of a stride-0 array, a
    frame shared by the stack) and one per group of equal-rank pairs,
    each pair with the bits of its own call.  The angle is arccos of the
    smallest singular value of Qa Qb^T, clipped to [-1, 1] (Björck &
    Golub, Math. Comp. 27, 1973).
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    stacked = A.ndim == 3
    if not stacked:
        A, B = (np.atleast_2d(x)[None] for x in (A, B))
    if A.shape[:-2] != B.shape[:-2]:
        raise DimensionMismatch("subspace_angle: stacks of different lengths")
    if A.shape[1] and B.shape[1] and A.shape[2] != B.shape[2]:
        raise DimensionMismatch("subspace_angle: ambient dimensions differ")
    (Qa, ra), (Qb, rb) = _orthonormal_rows(A), _orthonormal_rows(B)
    angles = np.where(ra == rb, 0.0, np.pi / 2)
    angles[(ra < 0) | (rb < 0)] = np.nan
    same = (ra == rb) & (ra > 0)
    for rank in set(ra[same].tolist()):
        idx = np.flatnonzero(same & (ra == rank))
        products = Qa[idx, :rank] @ Qb[idx, :rank].transpose(0, 2, 1)
        smallest = np.linalg.svd(products, compute_uv=False).min(axis=1)
        angles[idx] = np.arccos(np.clip(smallest, -1.0, 1.0))
    return angles if stacked else float(angles[0])


def subspace_equal(A, B, tol: float) -> bool:
    """True iff span(A) = span(B) up to largest principal angle < tol."""
    return subspace_angle(A, B) < tol


def exterior_derivative(form: FormField, p, vectors,
                        prof: ToleranceProfile = DEFAULT_PROFILE):
    """Numerical exterior derivative d(form) at ``p`` on ``k+1`` vectors.

    Uses the coordinate-free alternating sum for the constant-coefficient
    extension of the argument vectors; bracket terms vanish for constant
    fields, leaving central differences of the form's coefficients along
    each argument direction.  ``p`` and the vectors are one point and
    its vectors, giving a scalar, or stacks (N, n), giving the column of
    N values from one ``form.func`` call per stencil point on the whole
    block (a point is the one-row stack); complex values combine as
    CPython's complex arithmetic does.  A stencil point
    outside the form's domain raises StencilOutsideDomain; NaN and Inf
    are returned, for the caller to count as failures.
    """
    P = np.asarray(p, dtype=float)
    X = np.atleast_2d(P)
    vs = [np.atleast_2d(np.asarray(v, dtype=float)) for v in vectors]
    if len(vs) != form.degree + 1:
        raise DimensionMismatch("exterior_derivative: need k+1 vectors")
    h = prof.fd_step
    real = form.kind == "real"
    total = 0.0 if real else (0.0, 0.0)
    for i, vi in enumerate(vs):
        rest = [v.T for v in vs[:i] + vs[i + 1:]]
        pp = X + h * vi
        pm = X - h * vi
        if not (form.defined_at(pp).all() and form.defined_at(pm).all()):
            raise StencilOutsideDomain("exterior_derivative: stencil left form domain")
        with np.errstate(all="ignore"):
            plus, minus = form.func(pp.T, rest), form.func(pm.T, rest)
            if real:
                total = total + (-1.0) ** i * ((plus - minus) / (2.0 * h))
            else:
                diff = _cdiv(plus.real - minus.real, plus.imag - minus.imag, 2.0 * h, 0.0)
                term = _cmul((-1.0) ** i, 0.0, *diff)
                total = (total[0] + term[0], total[1] + term[1])
    if real:
        out = np.array(np.broadcast_to(total, (len(X),)))
    else:
        out = _complex(*(np.broadcast_to(x, (len(X),)) for x in total))
    return out if P.ndim == 2 else out[0].item()


def pullback(f: SmoothMap, form: FormField, p, vectors,
             prof: ToleranceProfile = DEFAULT_PROFILE):
    """(f^* form)(p; v_1..v_k) = form(f(p); df v_1, .., df v_k), at a
    point or at each point of a stack (N, n) with stacks of vectors.

    A point whose image lies outside the form's domain raises
    StencilOutsideDomain, as a stencil outside f's domain does."""
    J, fp = jacobian(f, p, prof), f(np.asarray(p, dtype=float))
    if not np.all(form.defined_at(fp)):
        raise StencilOutsideDomain(f"pullback: image of {f.name} outside domain of {form.name}")
    return pullback_at(form, fp, J, vectors)


def pullback_at(form: FormField, fp, J, vectors):
    """form(fp; J v_1, .., J v_k): a pullback from an image point and Jacobian.

    Lets a caller that differentiated a map once evaluate the pullback
    through row blocks of that Jacobian (components of the map).  A
    stack of image points (N, m), Jacobians (N, m, n) and vectors
    (N, n) gives the column of N values, with each row's bits.
    """
    J = np.asarray(J, dtype=float)
    return form(fp, [_matvec(J, np.asarray(v, dtype=float)) for v in vectors])


def pullback_form(f: SmoothMap, form: FormField,
                  prof: ToleranceProfile = DEFAULT_PROFILE, name: str = "") -> FormField:
    """The pullback ``f^* form`` packaged as a FormField on f's domain:
    defined where f is and the form is at f's image."""
    def pred(p):
        X = np.transpose(p)
        return _holds(f.valid, tuple(X.T), len(X)) & form.defined_at(f(X))
    return FormField(form.degree, f.domain_dim,
                     lambda p, vs: pullback(f, form, np.transpose(p),
                                            [np.transpose(v) for v in vs], prof),
                     form.kind, pred, name or f"{f.name}*{form.name}")
