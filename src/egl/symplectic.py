"""Symplectic groupoid local models and their multiplicative structures.

Two local models: the nonzero elliptic residue model over the plane
(divisor the origin, weighted blow-up chart on R^4) and the zero
residue model over C^2 (divisor a complex line, holomorphic chart on
C^4).  Each carries its base 2-form, the multiplicative form Omega on
arrows in closed form, a Poisson bivector, and near-miss variant
fixtures used as regressions: the closed forms implemented here
are the smooth extensions of t*omega - s*omega off the divisor, which
is what multiplicativity, closedness and the covering-morphism
identities pin down; the variants that differ from this (a sign on one
coefficient in the zero-residue case, missing da^db data in the nonzero
case, and the b/b' slot swap in the zero-residue multiplication) are
kept as negative controls.  The four candidate domains of the covering
morphism psi are members of the exponential family of
``egl.groupoids``, whose exp-on-target, unscaled member is ssc-surface.

Every form and every Poisson bivector here evaluates a coordinate-major
block (see ``egl.kernel.FormField``), its complex arithmetic written on
real pairs as CPython's complex type computes it; the composable-pair
parametrizations are tuple formulas, like the structure maps, and their
samplers formulas of a fixed number of uniforms, like the chart
samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .divisors import residue_model_frame
from .groupoids import (GroupoidChartModel, Widths, _affine_isotropy, _annulus,
                        _box, _cabs, _cexp, _exp_model, _finite, _join, _nonzero,
                        _relabel, _square, _zero, _zero_or, action_groupoid_model,
                        case1_model)
from .kernel import (FormField, SmoothMap, _branch, _cdiv, _cmul, _complex, _matvec,
                     two_form_from_matrix)

__all__ = [
    "SymplecticModel",
    "symplectic_nonzero_residue_model",
    "symplectic_zero_residue_model",
    "zero_residue_target_model",
    "MorphismBundle",
    "morphism_phi_nonzero",
    "morphism_phi_zero",
    "morphism_psi",
    "psi_domain_candidates",
    "pair_groupoid_symplectic",
    "real_form_conventions",
]


@dataclass(frozen=True)
class SymplecticModel:
    """A groupoid chart model with multiplicative symplectic data.

    ``Omega`` equals t*omega - s*omega on the dense chart and is
    nondegenerate off a measure-zero locus.  ``pi_bivector`` is the
    Poisson bivector's coefficient matrix: like a form's evaluator it
    takes a coordinate-major block of base points (``p[i]`` a column)
    and returns the (N, n, n) stack, and a point (``p[i]`` a float) is
    the one-row block, giving one (n, n) matrix with the same bits.
    Its entries are written with ``_zero_matrix`` and ``_antisymmetric``,
    as the coefficients of Omega are.  ``pair_param`` parametrizes
    exactly composable pairs for multiplicativity checks, as a
    (SmoothMap with a tuple formula, sampler) pair; its tangent vectors
    stay in the composable locus by construction.  The sampler is a
    formula of ``pair_width`` uniforms, like the chart model's samplers:
    it takes floats (one sample) or (N,) columns (a block) and gives the
    same bits either way, and it refuses no draw.
    """

    model: GroupoidChartModel
    omega_base: FormField
    Omega: FormField
    pi_bivector: Callable
    Omega_variant: Optional[FormField] = None
    pair_param: Optional[tuple] = None          # (SmoothMap, sampler)
    pair_width: int = 0                         # uniforms per sample of the pair sampler
    nondeg_grid: Optional[tuple] = None         # fixed compact arrow set
    compose_variant: Optional[Callable] = None  # transposed-slot multiplication (negative control)
    invert_variant: Optional[Callable] = None   # unscaled inverse (negative control)

    @property
    def name(self):
        return self.model.name


# -- form coefficients on points or blocks -----------------------------------

def _pair(x, i):
    """The complex coordinate at slots i, i + 1 of a point or block, as a real pair."""
    return (x[i], x[i + 1])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _wedge(u, v, i, j):
    """u_i v_j - u_j v_i for the complex coordinates at slots i and j."""
    return _csub(_cmul(*_pair(u, i), *_pair(v, j)), _cmul(*_pair(u, j), *_pair(v, i)))


def _zero_matrix(x, n):
    """Zero (n, n) coefficients at a point, or their (N, n, n) stack when x is a column."""
    return np.zeros(np.shape(x) + (n, n))


def _antisymmetric(c):
    """c - c^T for a matrix or for each matrix of a stack."""
    return c - np.swapaxes(c, -1, -2)


def _plane_bivector(p, c):
    """c d/dx1 ^ d/dx2 at a point or a block of points of the plane."""
    m = _zero_matrix(p[0], 2)
    m[..., 0, 1] = c
    return _antisymmetric(m)


# ---------------------------------------------------------------------------
# nonzero elliptic residue: weighted blow-up of the plane-pair at the origin
# ---------------------------------------------------------------------------

def _nonzero_Q(g) -> float:
    x1, x2, a, b = g
    r2 = x1 * x1 + x2 * x2
    return (a * a + b * b) * r2 + 2 * a * x1 + 2 * b * x2 + 1.0


def symplectic_nonzero_residue_model(f: Optional[Callable] = None) -> SymplecticModel:
    """Local symplectic integration of pi = (r^2/f) dx ^ dy on the plane.

    Arrows (x1, x2, a, b) in R^4 minus the surface where the source
    lands on the origin with x != 0; s = (a r^2 + x1, b r^2 + x2),
    t = x, unit (x, 0, 0), inverse (s(g), -a, -b).  Multiplication is
    the exact conjugation of the pair groupoid through the weighted
    blow-down: the second factor's coefficients rescale by
    lam = |s(g)|^2 / |x|^2 = 1 + 2 a x1 + 2 b x2 + (a^2+b^2) r^2,
    a polynomial, so the formula extends through the origin where it
    reduces to coefficient addition.  ``f`` is the nonvanishing
    conformal factor of the base form (default 1).
    """

    def source_of(g):
        x1, x2, a, b = g
        r2 = x1 * x1 + x2 * x2
        return (a * r2 + x1, b * r2 + x2)

    def target_of(g):
        return (g[0], g[1])

    def arrow_valid(g):
        # the source may sit at the origin only when the target does
        if len(g) != 4:
            return False
        x1, x2, _, _ = g
        s1, s2 = source_of(g)
        return _finite(g) & (((x1 == 0) & (x2 == 0)) | _nonzero(s1, s2))

    def compose_raw(g, h):
        lam = _nonzero_Q(g)
        return (g[0], g[1], g[2] + h[2] * lam, g[3] + h[3] * lam)

    def invert(g):
        # conjugating the pair-groupoid swap through the blow-down scales
        # the coefficients by 1/Q; at the origin Q = 1 and this is
        # (0, 0, -a, -b), matching the origin extension
        s1, s2 = source_of(g)
        lam = _nonzero_Q(g)
        return (s1, s2, -g[2] / lam, -g[3] / lam)

    def invert_variant(g):
        # unscaled near miss; fails s(iota(g)) = t(g)
        # away from the origin (negative control)
        s1, s2 = source_of(g)
        return (s1, s2, -g[2], -g[3])

    def unit_at(p):
        return (p[0], p[1], 0.0, 0.0)

    def sample_base(u):
        return _zero_or(u[0] < 0.2, u[1], u[2], 0.25, 1.0)

    def sample_base_like(p, u):
        return _zero_or(_zero(p[0], p[1]), u[0], u[1], 0.25, 1.0)

    def arrow_between(p, q, u):
        def off():
            r2 = p[0] * p[0] + p[1] * p[1]
            return (p[0], p[1], (q[0] - p[0]) / r2, (q[1] - p[1]) / r2)

        return _join(p, q, 0, lambda: (0.0, 0.0, _box(u[0], 0.8), _box(u[1], 0.8)), off)

    def sample_arrow(u):
        """An arrow over the origin (chance 0.2) or one with x in the
        annulus 0.3 <= r = |x| < 0.9 and |a|, |b| <= 0.35.

        On that box no draw needs refusing: with c = a + i b,
        Q = |1 + c conj(x)|^2 and |s| = r sqrt(Q), and |c| r <= 0.35 *
        sqrt(2) * 0.9 < 0.446 gives Q in [0.307, 2.09], inside [0.25, 4],
        and |s| >= r (1 - |c| r) >= 0.3 * 0.554 > 0.166, above 0.12.
        """
        return _branch(u[0] < 0.2, lambda: (0.0, 0.0, _box(u[3], 0.8), _box(u[4], 0.8)),
                       lambda: _annulus(u[1], u[2], 0.3, 0.9)
                       + (_box(u[3], 0.35), _box(u[4], 0.35)))

    model = GroupoidChartModel(
        name="sympl-nonzero", arrow_dim=4, base_dim=2,
        source_of=source_of, target_of=target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=arrow_valid,
        expected_frame=residue_model_frame("nonzero"),
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=sample_base, sample_base_like=sample_base_like,
        divisor_slots=(0, 1), widths=Widths(arrow=5, base=3, like=2, between=2),
    )

    fval = f if f is not None else (lambda p: 1.0)

    def omega_func(p, vs):
        r2 = p[0] * p[0] + p[1] * p[1]
        u, v = vs
        return fval(p) * (u[0] * v[1] - u[1] * v[0]) / r2

    omega = FormField(2, 2, omega_func, "real",
                      lambda p: _nonzero(p[0], p[1]), "omega=f dlogr^dtheta")

    if f is None:
        Omega = _nonzero_Omega_closed()
    else:
        Omega = _nonzero_Omega_assembled(fval)

    def pi_bivector(p):
        return _plane_bivector(p, (p[0] * p[0] + p[1] * p[1]) / fval(p))

    # exactly composable pairs parametrized by (x, a1, b1, a2, b2)
    def pairs(w):
        g = w[:4]
        return g + source_of(g) + w[4:6]

    pair_map = SmoothMap(6, 8, pairs, name="sympl-nonzero.pairs")

    def sample_params(u):
        """x in the annulus 0.35 <= r = |x| < 0.9, |a1|, |b1| <= 0.3 and
        |a2|, |b2| <= 0.25, from 6 uniforms.

        On that box no draw needs refusing: with c = a + i b,
        Q(g) = |1 + c1 conj(x)|^2 and |s(g)| = r sqrt(Q(g)), and
        |c1| r <= 0.3 sqrt(2) 0.9 < 0.382 gives Q(g) in [0.38, 1.91] and
        |s(g)| in [0.216, 1.244]; then |c2| |s(g)| <= 0.25 sqrt(2) 1.244
        < 0.44 gives Q(h) in [0.31, 2.08] and |s(h)| >= 0.216 * 0.56 > 0.12.
        """
        return _annulus(u[0], u[1], 0.35, 0.9) + (_box(u[2], 0.3), _box(u[3], 0.3),
                                                  _box(u[4], 0.25), _box(u[5], 0.25))

    grid = tuple((0.8 * math.cos(th), 0.8 * math.sin(th), a, b)
                 for th in (0.0, 1.1, 2.3, 4.0)
                 for a in (-0.4, 0.1, 0.4) for b in (-0.3, 0.0, 0.35))

    return SymplecticModel(
        model=model, omega_base=omega, Omega=Omega, pi_bivector=pi_bivector,
        Omega_variant=_nonzero_Omega_variant(),
        pair_param=(pair_map, sample_params), pair_width=6,
        nondeg_grid=grid,
        invert_variant=invert_variant,
    )


def _nonzero_Omega_closed() -> FormField:
    """Closed form of t*omega - s*omega for f = 1, smooth on the whole chart."""

    def coeff(p):
        x1, x2, a, b = p
        r2 = x1 * x1 + x2 * x2
        Q = _nonzero_Q(p)
        c = _zero_matrix(x1, 4)
        c[..., 0, 1] = (a * a + b * b) / Q
        c[..., 0, 2] = 2 * b * x1 / Q
        c[..., 0, 3] = -(2 * a * x1 + 1) / Q
        c[..., 1, 2] = (2 * b * x2 + 1) / Q
        c[..., 1, 3] = -2 * a * x2 / Q
        c[..., 2, 3] = -r2 / Q
        return _antisymmetric(c)

    return two_form_from_matrix(4, coeff, "real", lambda p: _nonzero_Q(p) > 0,
                                "Omega(nonzero)")


def _nonzero_Omega_variant() -> FormField:
    """Near-miss variant: no da^db term, r^2-weighted dx1^dx2, opposite
    cross-term signs.  Kept as a negative control; it is degenerate on
    the locus 2 a x1 + 2 b x2 + 1 = 0 and differs from
    t*omega - s*omega at generic points."""

    def coeff(p):
        x1, x2, a, b = p
        r2 = x1 * x1 + x2 * x2
        Q = _nonzero_Q(p)
        c = _zero_matrix(x1, 4)
        c[..., 0, 1] = (a * a + b * b) * r2 / Q
        c[..., 0, 2] = -2 * b * x1 / Q
        c[..., 0, 3] = (2 * a * x1 + 1) / Q
        c[..., 1, 2] = -(2 * b * x2 + 1) / Q
        c[..., 1, 3] = 2 * a * x2 / Q
        return _antisymmetric(c)

    return two_form_from_matrix(4, coeff, "real", lambda p: _nonzero_Q(p) > 0,
                                "Omega(nonzero,variant)")


def _nonzero_Omega_assembled(fval) -> FormField:
    """t*(f omega0) - s*(f omega0) via exact differentials (dense chart only)."""

    def func(p, vs):
        x1, x2, a, b = p
        r2 = x1 * x1 + x2 * x2
        u, v = vs
        tu, tv = u[:2], v[:2]
        entries = np.broadcast_arrays(2 * a * x1 + 1, 2 * a * x2, r2, 0.0,
                                      2 * b * x1, 2 * b * x2 + 1, 0.0, r2)
        ds = np.stack(entries, axis=-1).reshape(np.shape(x1) + (2, 4))
        su, sv = (np.transpose(_matvec(ds, np.transpose(w))) for w in (u, v))
        s1, s2 = a * r2 + x1, b * r2 + x2
        rho2 = s1 * s1 + s2 * s2
        term_t = fval((x1, x2)) * (tu[0] * tv[1] - tu[1] * tv[0]) / r2
        term_s = fval((s1, s2)) * (su[0] * sv[1] - su[1] * sv[0]) / rho2
        return term_t - term_s

    def pred(p):
        x1, x2, a, b = p
        s1, s2 = a * (x1 * x1 + x2 * x2) + x1, b * (x1 * x1 + x2 * x2) + x2
        return _nonzero(x1, x2) & _nonzero(s1, s2)

    return FormField(2, 4, func, "real", pred, "Omega(nonzero,f)")


# ---------------------------------------------------------------------------
# zero elliptic residue: holomorphic chart over C^2
# ---------------------------------------------------------------------------

def _zero_base(u):
    """A point (u, v) of C^2; u = 0 (the divisor) with probability 0.25."""
    return _zero_or(u[0] < 0.25, u[1], u[2], 0.2, 1.1) + (_box(u[3]), _box(u[4]))


def _zero_base_like(p, u):
    return _zero_or(_zero(p[0], p[1]), u[0], u[1], 0.2, 1.1) + (_box(u[2]), _box(u[3]))


def symplectic_zero_residue_model() -> SymplecticModel:
    """Local symplectic integration with vanishing elliptic residue.

    At zero residue pi = u d/du ^ d/dv is linear, and its symplectic
    groupoid is the action groupoid of the affine group C* x| C on C^2
    (``groupoids.action_groupoid_model``) read in the arrow layout
    (z, a, b, c) in C^4, with a = z1 and z = z2: b != 0, s = (ab,
    ac + z), t = (a, z), unit (u, v) -> (v, u, 1, 0), inverse (ac + z,
    ab, 1/b, -c/b), and the last component of the product c + b c'.
    The transposed-slot variant c + b' c breaks the unit/inverse laws
    and associativity and ships as a negative control.  Only the
    samplers, ``arrow_between`` and the isotropy law are this model's
    own; the divisor isotropy composes as (b, c)(b', c') = (b b',
    c + b c'), the affine group of the plane.
    """

    def compose_variant(g, h):
        # transposed-slot near miss: last slot c + b' c
        b2c = _cmul(h[4], h[5], g[6], g[7])
        return ((g[0], g[1], g[2], g[3]) + _cmul(g[4], g[5], h[4], h[5])
                + (g[6] + b2c[0], g[7] + b2c[1]))

    def arrow_between(p, q, u):
        def off():
            # t = (u, v), s = (u2, v2): a = u, b = u2/u, ac + z = v2, z = v
            return ((p[2], p[3], p[0], p[1]) + _cdiv(q[0], q[1], p[0], p[1])
                    + _cdiv(q[2] - p[2], q[3] - p[3], p[0], p[1]))

        return _join(p, q, 0, lambda: (p[2], p[3], 0.0, 0.0) + _annulus(u[0], u[1], 0.4, 1.8)
                     + (_box(u[2]), _box(u[3])), off)

    def sample_arrow(u):
        return ((_box(u[0]), _box(u[1])) + _zero_or(u[2] < 0.25, u[3], u[4], 0.2, 1.1)
                + _annulus(u[5], u[6], 0.4, 1.8) + (_box(u[7]), _box(u[8])))

    model = replace(
        _relabel(action_groupoid_model(), "sympl-zero", range(4), (4, 5, 6, 7, 2, 3, 0, 1)),
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=_zero_base, sample_base_like=_zero_base_like,
        isotropy=_affine_isotropy(4))

    omega = _dlog_wedge_form()
    Omega = _zero_Omega(sign=-1.0)
    Omega_variant = _zero_Omega(sign=+1.0)

    def pi_bivector(p):
        """pi = u d/du ^ d/dv on C^2, in the real chart (Re u, Im u, Re v,
        Im v): Re u and Im u are its (0, 2) and (1, 2) entries, and Re u
        and -Im u its (1, 3) and (0, 3) entries."""
        c = _zero_matrix(p[0], 4)
        c[..., 0, 2], c[..., 1, 2] = p[0], p[1]
        c[..., 1, 3], c[..., 0, 3] = p[0], -p[1]
        return _antisymmetric(c)

    def pairs(w):
        g = w[:8]
        s1a, s1b, s2a, s2b = model.source_of(g)
        # arrow layout is (z, a, b, c): the source's divisor slot feeds a
        return g + (s2a, s2b, s1a, s1b) + w[8:12]

    pair_map = SmoothMap(12, 16, pairs, name="sympl-zero.pairs")

    def sample_params(u):
        # z, a, b, c, b2, c2
        return ((_box(u[0]), _box(u[1])) + _annulus(u[2], u[3], 0.3, 1.0)
                + _annulus(u[4], u[5], 0.4, 1.8) + (_box(u[6]), _box(u[7]))
                + _annulus(u[8], u[9], 0.4, 1.8) + (_box(u[10]), _box(u[11])))

    grid = tuple((0.3, -0.2, re_a, 0.4, rb, ib, 0.5, cc)
                 for re_a in (0.0, 0.6) for rb in (0.5, 1.0, 2.0)
                 for ib in (0.0, 0.7) for cc in (-0.5, 0.5))

    return SymplecticModel(
        model=model, omega_base=omega, Omega=Omega, pi_bivector=pi_bivector,
        Omega_variant=Omega_variant,
        pair_param=(pair_map, sample_params), pair_width=12,
        nondeg_grid=grid,
        compose_variant=compose_variant,
    )


def _dlog_wedge_form() -> FormField:
    """omega = dlog(u) ^ dv as a complex form on C^2, divisor {u = 0}."""

    def func(p, vs):
        a, b = vs
        return _complex(*_cdiv(*_wedge(a, b, 0, 2), *_pair(p, 0)))

    return FormField(2, 4, func, "complex",
                     lambda p: _nonzero(p[0], p[1]), "omega=dlogu^dv")


def _zero_Omega(sign: float) -> FormField:
    """(c/b) da^db - da^dc - (1/b) db^dz + sign (a/b) db^dc, complex-valued.

    sign = -1 is t*omega - s*omega; sign = +1 flips the db^dc
    coefficient, a near miss kept as a negative control.
    """

    def func(p, vs):
        a, b, c = _pair(p, 2), _pair(p, 4), _pair(p, 6)
        u, v = vs
        out = _cmul(*_cdiv(*c, *b), *_wedge(u, v, 2, 4))
        out = _csub(out, _wedge(u, v, 2, 6))
        out = _csub(out, _cdiv(*_wedge(u, v, 4, 0), *b))
        # sign * (a / b) multiplies as complex(sign, 0.0) does
        out = _cadd(out, _cmul(*_cmul(sign, 0.0, *_cdiv(*a, *b)), *_wedge(u, v, 4, 6)))
        return _complex(*out)

    tag = "derived" if sign < 0 else "variant"
    return FormField(2, 8, func, "complex",
                     lambda p: _nonzero(p[4], p[5]), f"Omega(zero,{tag})")


def zero_residue_target_model() -> GroupoidChartModel:
    """Blow-up model of (C^2, {u = 0}) receiving the zero-residue morphism.

    case1(4) with arrows (A, B, w1, w2), B != 0, over base points (u, v):
    t = (A, w1), s = (AB, w2), (A, B, w1, w2)(A', B', w1', w2') =
    (A, B B', w1, w2'), inverse (AB, 1/B, w2, w1), unit (u, 1, v, v).
    These are case1's (x, y, a, b) at x = w1, y = w2, a = A, b = B over
    its base (x, z) = (v, u): the smooth-divisor picture with a complex
    transverse direction.
    """
    return _relabel(case1_model(4), "H(zero)", (2, 3, 0, 1),
                    (4, 5, 6, 7, 0, 1, 2, 3))


def zero_target_Omega() -> FormField:
    """t*omega - s*omega on the receiving model, via exact differentials."""

    def func(p, vs):
        A, B = _pair(p, 0), _pair(p, 2)
        u, v = vs
        term_t = _cdiv(*_wedge(u, v, 0, 4), *A)
        su = _cadd(_cmul(*B, *_pair(u, 0)), _cmul(*A, *_pair(u, 2)))
        sv = _cadd(_cmul(*B, *_pair(v, 0)), _cmul(*A, *_pair(v, 2)))
        term_s = _cdiv(*_csub(_cmul(*su, *_pair(v, 6)), _cmul(*sv, *_pair(u, 6))),
                       *_cmul(*A, *B))
        return _complex(*_csub(term_t, term_s))

    return FormField(2, 8, func, "complex",
                     lambda p: _nonzero(p[0], p[1]) & _nonzero(p[2], p[3]),
                     "Omega(H zero)")


def nonzero_target_Omega() -> FormField:
    """t*omega - s*omega on the smooth-divisor plane model, exact."""

    def func(p, vs):
        a, b = _pair(p, 0), _pair(p, 2)
        u, v = vs
        ua, va = _pair(u, 0), _pair(v, 0)
        # Im(conj(x) y) over |.|^2, with abs and ** 2 as Python computes them
        term_t = _cmul(ua[0], -ua[1], *va)[1] / _square(_cabs(*a))
        su = _cadd(_cmul(*b, *ua), _cmul(*a, *_pair(u, 2)))
        sv = _cadd(_cmul(*b, *va), _cmul(*a, *_pair(v, 2)))
        term_s = _cmul(su[0], -su[1], *sv)[1] / _square(_cabs(*_cmul(*a, *b)))
        return term_t - term_s

    return FormField(2, 4, func, "real",
                     lambda p: _nonzero(p[0], p[1]) & _nonzero(p[2], p[3]),
                     "Omega(H nonzero)")


# ---------------------------------------------------------------------------
# pair groupoid of the symplectic plane (trivial multiplicativity control)
# ---------------------------------------------------------------------------

def pair_groupoid_symplectic() -> SymplecticModel:
    from .groupoids import pair_groupoid

    model = pair_groupoid(2)
    omega = FormField(2, 2, lambda p, vs: vs[0][0] * vs[1][1] - vs[0][1] * vs[1][0],
                      "real", None, "area")

    def func(p, vs):
        u, v = vs
        return (u[0] * v[1] - u[1] * v[0]) - (u[2] * v[3] - u[3] * v[2])

    Omega = FormField(2, 4, func, "real", None, "Omega(pair)")

    def pairs(w):
        return (w[0], w[1], w[2], w[3], w[2], w[3], w[4], w[5])

    pair_map = SmoothMap(6, 8, pairs, name="pair.pairs")

    def sample_params(u):
        return tuple(_box(x) for x in u)

    grid = tuple((0.1 * i, -0.2 * i, 0.3, 0.4) for i in range(1, 5))
    return SymplecticModel(model=model, omega_base=omega, Omega=Omega,
                           pi_bivector=lambda p: _plane_bivector(p, 1.0),
                           pair_param=(pair_map, sample_params), pair_width=6,
                           nondeg_grid=grid)


# ---------------------------------------------------------------------------
# groupoid morphisms between arrow spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MorphismBundle:
    """A chart-level groupoid morphism with optional form comparison.

    The checks are s_cod(f(g)) = s_dom(g), t_cod(f(g)) = t_dom(g),
    f(m(g, h)) = m(f(g), f(h)) on sampled composable pairs, and, when
    both forms are present, f^* cod_form = dom_form.
    """

    name: str
    f: SmoothMap
    dom: GroupoidChartModel
    cod: GroupoidChartModel
    dom_form: Optional[FormField] = None
    cod_form: Optional[FormField] = None
    sample_filter: Optional[Callable] = None   # arrow (point or block) -> bool (margins)


def morphism_phi_nonzero() -> MorphismBundle:
    """phi(x1, x2, a, b) = (x1 + i x2, (a + b i)(x1 - i x2) + 1)."""
    sym = symplectic_nonzero_residue_model()
    H = case1_model(2)

    def phi(g):
        # (a + b i) conj(x) + 1, with the + 0.0 that complex + float adds
        w = _cmul(g[2], g[3], g[0], -g[1])
        return (g[0], g[1], w[0] + 1.0, w[1] + 0.0)

    f = SmoothMap(4, 4, phi, name="phi(nonzero)")

    def sample_filter(g):
        w = phi(g)[2:]
        return ((_cabs(g[0], g[1]) > 0.1) & (_cabs(*w) > 0.1)
                & (_cabs(*_cmul(g[0], g[1], *w)) > 0.05))

    return MorphismBundle("phi-nonzero", f, sym.model, H,
                          dom_form=sym.Omega, cod_form=nonzero_target_Omega(),
                          sample_filter=sample_filter)


def morphism_phi_zero() -> MorphismBundle:
    """phi(z, a, b, c) = (a, b, z, ac + z)."""
    sym = symplectic_zero_residue_model()
    H = zero_residue_target_model()

    def phi(g):
        ac = _cmul(g[2], g[3], g[6], g[7])
        return (g[2], g[3], g[4], g[5], g[0], g[1], ac[0] + g[0], ac[1] + g[1])

    f = SmoothMap(8, 8, phi, name="phi(zero)")

    def sample_filter(g):
        return _cabs(g[2], g[3]) > 0.15  # keep the receiving dense chart honest

    return MorphismBundle("phi-zero", f, sym.model, H,
                          dom_form=sym.Omega, cod_form=zero_target_Omega(),
                          sample_filter=sample_filter)


# -- source-simply-connected covering morphism and its convention -----------

PSI_SERIES_THRESHOLD = 1e-6


def _psi_coefficient(Zr, Zi, wr, wi, threshold: float):
    """(e^{w Z} - 1) / w with the series branch near w = 0, as a real pair.

    The truncation keeps terms through (w Z)^4 of the reduced series,
    leaving an error below |Z| |w Z|^5 / 120, far under the default
    absolute tolerance for |w| under the threshold.  The operations are
    those of the complex expression Z (1 + u/2 + u u/6 + u**3/24 +
    u**4/120), u = w Z, in CPython: an integer is the complex number
    (n, 0), and u**n multiplies by repeated squaring from 1.
    """
    def series():
        u = _cmul(wr, wi, Zr, Zi)
        uu = _cmul(*u, *u)
        u3 = _cmul(*_cmul(1.0, 0.0, *u), *uu)
        u4 = _cmul(1.0, 0.0, *_cmul(*uu, *uu))
        total = (1.0, 0.0)
        for term, n in ((u, 2.0), (uu, 6.0), (u3, 24.0), (u4, 120.0)):
            q = _cdiv(*term, n, 0.0)
            total = (total[0] + q[0], total[1] + q[1])
        return _cmul(Zr, Zi, *total)

    def closed():
        e = _cexp(*_cmul(wr, wi, Zr, Zi))
        return _cdiv(e[0] - 1.0, e[1] - 0.0, wr, wi)

    return _branch(_cabs(wr, wi) < threshold, series, closed)


def morphism_psi() -> SmoothMap:
    """The covering morphism onto the nonzero-residue model."""

    def psi(g):
        return (g[2], g[3]) + _psi_coefficient(g[0], g[1], g[2], -g[3], PSI_SERIES_THRESHOLD)

    return SmoothMap(4, 4, psi, name="psi")


def psi_domain_candidates() -> dict:
    """The four convention assignments for the covering morphism's domain.

    Keys name the assignment: where the exponential factor sits
    (source or target map) and whether the exponent is weighted by the
    conjugate base coordinate.  Exactly one of these makes the covering
    map a groupoid morphism; the verification suite resolves
    which empirically and the report names it.
    """
    return {
        "exp-on-target": _exp_model("ssc-exp-target", False, False, 0.8, 0.25, 1.1),
        "exp-on-source": _exp_model("ssc-exp-source", True, False, 0.8, 0.25, 1.1),
        "exp-on-target-conjugate-scaled":
            _exp_model("ssc-exp-target-scaled", False, True, 0.8, 0.25, 1.1),
        "exp-on-source-conjugate-scaled":
            _exp_model("ssc-exp-source-scaled", True, True, 0.8, 0.25, 1.1),
    }


# ---------------------------------------------------------------------------
# real/complex conventions for the zero-residue base form
# ---------------------------------------------------------------------------

def real_form_conventions():
    """The two candidate real readings of omega = dlog(u) ^ dv.

    Returns (motivating, plain_real_part, conjugated_real_part): the
    motivating real form dlogr ^ dx3 + dtheta ^ dx4 and the real parts
    of dlog(u) ^ dv and dlog(u) ^ d(conj v).  Sampling shows the
    conjugated pairing reproduces the motivating form; the suite records
    that sign empirically.
    """

    def motivating(p, vs):
        u1, u2 = p[0], p[1]
        r2 = u1 * u1 + u2 * u2
        a, b = vs
        dlogr = lambda w: (u1 * w[0] + u2 * w[1]) / r2
        dtheta = lambda w: (u1 * w[1] - u2 * w[0]) / r2
        return (dlogr(a) * b[2] - dlogr(b) * a[2]
                + dtheta(a) * b[3] - dtheta(b) * a[3])

    base = _dlog_wedge_form()

    def plain(p, vs):
        return base.func(p, vs).real

    def conjugated(p, vs):
        flip = [np.array([v[0], v[1], v[2], -v[3]]) for v in vs]
        return base.func(p, flip).real

    pred = lambda p: _nonzero(p[0], p[1])
    return (FormField(2, 4, motivating, "real", pred, "dlogr^dx3+dtheta^dx4"),
            FormField(2, 4, plain, "real", pred, "Re(dlogu^dv)"),
            FormField(2, 4, conjugated, "real", pred, "Re(dlogu^dconj(v))"))
