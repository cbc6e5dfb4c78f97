"""Dimension-generic numerical calculus.

Central-difference Jacobians, SVD nullspaces, principal-angle subspace
comparison, and pointwise differential forms with a numerical exterior
derivative.  Everything downstream (algebroid recovery, multiplicativity
of symplectic forms, morphism checks) is built on these primitives, so
they are kept deliberately small and auditable: fixed step size, no
adaptivity, no clamping of singular loci.
"""

from __future__ import annotations

import itertools
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

    ``abs_tol`` must dominate the second-order truncation error of the
    central-difference stencil, ``fd_step**2 * curvature_budget``.
    """

    fd_step: float = 1e-5
    abs_tol: float = 1e-8
    rel_tol: float = 1e-9
    subspace_tol: float = 1e-6
    curvature_budget: float = 1.0

    def __post_init__(self):
        for name in ("fd_step", "abs_tol", "rel_tol", "subspace_tol", "curvature_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.abs_tol <= self.fd_step**2 * self.curvature_budget:
            raise ValueError("abs_tol must exceed fd_step**2 * curvature_budget")


DEFAULT_PROFILE = ToleranceProfile()


@dataclass(frozen=True)
class SmoothMap:
    """A map between chart domains given by a pointwise evaluator.

    ``func`` maps a coordinate vector of length ``domain_dim`` to one of
    length ``codomain_dim``.  ``domain_predicate`` bounds where the
    evaluator may be called; ``None`` means everywhere.
    """

    domain_dim: int
    codomain_dim: int
    func: Callable[[np.ndarray], np.ndarray]
    domain_predicate: Optional[Callable[[np.ndarray], bool]] = None
    name: str = ""

    def defined_at(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        if self.domain_predicate is None:
            return True
        return bool(self.domain_predicate(p))

    def __call__(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape != (self.domain_dim,):
            raise DimensionMismatch(
                f"{self.name or 'map'}: expected point of dim {self.domain_dim}, got {p.shape}")
        out = np.asarray(self.func(p), dtype=float)
        if out.shape != (self.codomain_dim,):
            raise DimensionMismatch(
                f"{self.name or 'map'}: evaluator returned shape {out.shape}")
        return out


def compose_maps(outer: SmoothMap, inner: SmoothMap, name: str = "") -> SmoothMap:
    """The composite ``outer o inner`` as a SmoothMap."""
    if inner.codomain_dim != outer.domain_dim:
        raise DimensionMismatch("compose_maps: inner codomain != outer domain")

    def pred(p):
        if not inner.defined_at(p):
            return False
        return outer.defined_at(inner(p))

    return SmoothMap(inner.domain_dim, outer.codomain_dim,
                     lambda p: outer(inner(p)), pred,
                     name or f"{outer.name}o{inner.name}")


@dataclass(frozen=True)
class FormField:
    """A differential k-form given by a pointwise coefficient evaluator.

    ``func(p, vectors)`` evaluates the form at ``p`` on ``degree``
    tangent vectors and returns a real or complex scalar, multilinear
    and alternating in the vectors (a sampled property, tested).
    """

    degree: int
    ambient_dim: int
    func: Callable[[np.ndarray, Sequence[np.ndarray]], complex]
    kind: str = "real"  # "real" | "complex"
    domain_predicate: Optional[Callable[[np.ndarray], bool]] = None
    name: str = ""

    def defined_at(self, p) -> bool:
        if self.domain_predicate is None:
            return True
        return bool(self.domain_predicate(np.asarray(p, dtype=float)))

    def __call__(self, p, vectors) -> complex:
        p = np.asarray(p, dtype=float)
        vs = [np.asarray(v, dtype=float) for v in vectors]
        if len(vs) != self.degree:
            raise DimensionMismatch(
                f"{self.name or 'form'}: degree {self.degree} form got {len(vs)} vectors")
        val = self.func(p, vs)
        if self.kind == "real":
            return float(val)
        return complex(val)

    def __add__(self, other: "FormField") -> "FormField":
        if (self.degree, self.ambient_dim) != (other.degree, other.ambient_dim):
            raise DimensionMismatch("form addition: degree/dimension mismatch")
        kind = "complex" if "complex" in (self.kind, other.kind) else "real"
        return FormField(self.degree, self.ambient_dim,
                         lambda p, vs: self.func(p, vs) + other.func(p, vs),
                         kind, self.domain_predicate, f"({self.name}+{other.name})")

    def __sub__(self, other: "FormField") -> "FormField":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "FormField":
        return FormField(self.degree, self.ambient_dim,
                         lambda p, vs: scalar * self.func(p, vs),
                         self.kind, self.domain_predicate, self.name)

    def wedge(self, other: "FormField") -> "FormField":
        """Wedge product via the shuffle sum (small degrees only)."""
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
    """2-form ``w(u, v) = u^T C(p) v`` from an antisymmetric coefficient matrix."""
    def func(p, vs):
        c = coeff(p)
        return vs[0] @ c @ vs[1]
    return FormField(2, ambient_dim, func, kind, domain_predicate, name)


def _check_finite(arr, what: str):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"non-finite value in {what}")


def jacobian(f: SmoothMap, p, prof: ToleranceProfile = DEFAULT_PROFILE) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``p``.

    Entry ``(i, j)`` is the central difference of component ``i`` along
    coordinate axis ``j`` with step ``prof.fd_step``.  The 2n stencil
    points are built as one block: each is a copy of ``p`` with one
    coordinate stepped, so the others keep their exact bits.  The domain
    predicate is checked at ``p`` and at every stencil point before any
    evaluation; StencilOutsideDomain names the first axis whose stencil
    leaves the domain.  ``f.func`` then runs once per point.  Raises
    NonFiniteValue on NaN/Inf.  The result is C-ordered.
    """
    p = np.asarray(p, dtype=float)
    h = prof.fd_step
    n = f.domain_dim
    if p.shape != (n,):
        raise DimensionMismatch(
            f"{f.name or 'map'}: expected point of dim {n}, got {p.shape}")
    if not f.defined_at(p):
        raise StencilOutsideDomain(f"jacobian: base point outside domain of {f.name}")
    stencil = np.empty((2 * n, n))
    stencil[:] = p
    axes = np.arange(n)
    stencil[axes, axes] += h
    stencil[n + axes, axes] -= h
    pred = f.domain_predicate
    if pred is not None:
        for j in range(n):
            if not (pred(stencil[j]) and pred(stencil[n + j])):
                raise StencilOutsideDomain(
                    f"jacobian: stencil left domain of {f.name} along axis {j}")
    func = f.func
    rows = [func(q) for q in stencil]
    try:
        values = np.asarray(rows, dtype=float)
    except ValueError as err:  # outputs of different lengths
        raise DimensionMismatch(f"{f.name or 'map'}: evaluator returned mixed shapes") from err
    if values.shape != (2 * n, f.codomain_dim):
        raise DimensionMismatch(
            f"{f.name or 'map'}: evaluator returned shape {values.shape[1:]}")
    with np.errstate(invalid="ignore", over="ignore"):
        J = ((values[:n] - values[n:]) / (2.0 * h)).T.copy()
    _check_finite(J, f"jacobian of {f.name}")
    return J


def nullspace(M, tol: float) -> np.ndarray:
    """Orthonormal basis (rows) of the numerical right nullspace of ``M``.

    Right-singular vectors whose singular value is below ``tol``;
    directions outside the row space of a wide matrix count as singular
    value zero.  May be empty (shape ``(0, n)``).
    """
    M = np.asarray(M, dtype=float)
    _check_finite(M, "nullspace input")
    if M.size == 0:
        return np.eye(M.shape[1]) if M.shape[1] else np.zeros((0, 0))
    _, svals, vt = np.linalg.svd(M, full_matrices=True)
    keep = [i for i in range(vt.shape[0]) if i >= len(svals) or svals[i] < tol]
    return vt[keep]


def _orthonormal_rows(vectors, rank_tol: float = 1e-9,
                      abs_floor: float = 1e-7) -> np.ndarray:
    """Orthonormal basis of the row span, dropping near-zero directions.

    The absolute floor keeps finite-difference noise from promoting a
    direction the exact frame does not have (frames vanish identically
    on divisor strata while their numerical images are ~1e-11).
    """
    A = np.atleast_2d(np.asarray(vectors, dtype=float))
    if A.shape[0] == 0 or not A.any():
        return np.zeros((0, A.shape[1] if A.ndim == 2 else 0))
    _, svals, vt = np.linalg.svd(A, full_matrices=False)
    cutoff = max(rank_tol * svals[0], abs_floor)
    rank = int(np.sum(svals > cutoff))
    return vt[:rank]


def subspace_angle(A, B, rank_tol: float = 1e-9, abs_floor: float = 1e-7) -> float:
    """Largest principal angle between span(A) and span(B), in radians.

    Returns ``pi/2`` on a rank mismatch (the spans cannot be equal).
    Zero and near-noise vectors in either spanning set are ignored.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[0] and B.shape[0] and A.shape[1] != B.shape[1]:
        raise DimensionMismatch("subspace_angle: ambient dimensions differ")
    Qa = _orthonormal_rows(A, rank_tol, abs_floor)
    Qb = _orthonormal_rows(B, rank_tol, abs_floor)
    if Qa.shape[0] != Qb.shape[0]:
        return np.pi / 2
    if Qa.shape[0] == 0:
        return 0.0
    svals = np.linalg.svd(Qa @ Qb.T, compute_uv=False)
    cos_min = min(1.0, max(-1.0, float(svals.min())))
    return float(np.arccos(cos_min))


def subspace_equal(A, B, tol: float) -> bool:
    """True iff span(A) = span(B) up to largest principal angle < tol."""
    return subspace_angle(A, B) < tol


def exterior_derivative(form: FormField, p, vectors,
                        prof: ToleranceProfile = DEFAULT_PROFILE) -> complex:
    """Numerical exterior derivative d(form) at ``p`` on ``k+1`` vectors.

    Uses the coordinate-free alternating sum for the constant-coefficient
    extension of the argument vectors; bracket terms vanish for constant
    fields, leaving central differences of the form's coefficients along
    each argument direction.
    """
    p = np.asarray(p, dtype=float)
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if len(vs) != form.degree + 1:
        raise DimensionMismatch("exterior_derivative: need k+1 vectors")
    h = prof.fd_step
    total = 0.0
    for i, vi in enumerate(vs):
        rest = vs[:i] + vs[i + 1:]
        pp = p + h * vi
        pm = p - h * vi
        if not (form.defined_at(pp) and form.defined_at(pm)):
            raise StencilOutsideDomain("exterior_derivative: stencil left form domain")
        diff = (form.func(pp, rest) - form.func(pm, rest)) / (2.0 * h)
        total = total + (-1.0) ** i * diff
    if form.kind == "real":
        out = float(total)
        _check_finite(np.array([out]), "exterior derivative")
        return out
    out = complex(total)
    _check_finite(np.array([out.real, out.imag]), "exterior derivative")
    return out


def pullback(f: SmoothMap, form: FormField, p, vectors,
             prof: ToleranceProfile = DEFAULT_PROFILE) -> complex:
    """(f^* form)(p; v_1..v_k) = form(f(p); df v_1, .., df v_k)."""
    J = jacobian(f, p, prof)
    return pullback_at(form, f(np.asarray(p, dtype=float)), J, vectors)


def pullback_at(form: FormField, fp, J, vectors) -> complex:
    """form(fp; J v_1, .., J v_k): a pullback from an image point and Jacobian.

    Lets a caller that differentiated a map once evaluate the pullback
    through row blocks of that Jacobian (components of the map).
    """
    return form(fp, [J @ np.asarray(v, dtype=float) for v in vectors])


def pullback_form(f: SmoothMap, form: FormField,
                  prof: ToleranceProfile = DEFAULT_PROFILE, name: str = "") -> FormField:
    """The pullback ``f^* form`` packaged as a FormField on f's domain."""
    def pred(p):
        return f.defined_at(p) and form.defined_at(f(p))
    return FormField(form.degree, f.domain_dim,
                     lambda p, vs: pullback(f, form, p, vs, prof),
                     form.kind, pred, name or f"{f.name}*{form.name}")
