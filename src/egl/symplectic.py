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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .divisors import residue_model_frame
from .errors import NotComposable, SamplerExhausted
from .groupoids import (GroupoidChartModel, _annulus, _box, _branch, _cabs,
                        _cdiv, _cexp, _cmul, _cx, _exp_model, _finite,
                        _nonzero, _pair, case1_model)
from .kernel import FormField, SmoothMap

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
    nondegenerate off a measure-zero locus; ``pi_bivector`` evaluates
    the Poisson bivector on the base.  ``pair_param`` parametrizes
    exactly composable pairs for multiplicativity checks; its tangent
    vectors stay in the composable locus by construction.
    """

    model: GroupoidChartModel
    omega_base: FormField
    Omega: FormField
    pi_bivector: Callable
    Omega_variant: Optional[FormField] = None
    pair_param: Optional[tuple] = None          # (SmoothMap, sampler)
    nondeg_grid: Optional[tuple] = None         # fixed compact arrow set
    compose_variant: Optional[Callable] = None  # transposed-slot multiplication (negative control)
    invert_variant: Optional[Callable] = None   # unscaled inverse (negative control)

    @property
    def name(self):
        return self.model.name


# ---------------------------------------------------------------------------
# nonzero elliptic residue: weighted blow-up of the plane-pair at the origin
# ---------------------------------------------------------------------------

def _nonzero_Q(g) -> float:
    x1, x2, a, b = g
    r2 = x1 * x1 + x2 * x2
    return (a * a + b * b) * r2 + 2 * a * x1 + 2 * b * x2 + 1.0


def symplectic_nonzero_residue_model(f: Optional[Callable] = None,
                                     composable_tol: float = 1e-9) -> SymplecticModel:
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

    def sample_base(rng):
        if rng.uniform() < 0.2:
            return (0.0, 0.0)
        return _pair(_annulus(rng, 0.25, 1.0))

    def sample_base_like(p, rng):
        if p[0] == 0 and p[1] == 0:
            return (0.0, 0.0)
        return _pair(_annulus(rng, 0.25, 1.0))

    def arrow_between(p, q, rng):
        p_origin, q_origin = p[0] == 0 and p[1] == 0, q[0] == 0 and q[1] == 0
        if p_origin and q_origin:
            return (0.0, 0.0, _box(rng, 0.8), _box(rng, 0.8))
        if p_origin or q_origin:
            raise NotComposable("no arrow between the origin and its complement")
        r2 = p[0] * p[0] + p[1] * p[1]
        return (p[0], p[1], (q[0] - p[0]) / r2, (q[1] - p[1]) / r2)

    def sample_arrow(rng):
        for _ in range(256):
            if rng.uniform() < 0.2:
                return (0.0, 0.0, _box(rng, 0.8), _box(rng, 0.8))
            v = _annulus(rng, 0.3, 0.9)
            g = (v.real, v.imag, _box(rng, 0.35), _box(rng, 0.35))
            s1, s2 = source_of(g)
            if math.hypot(s1, s2) >= 0.12 and 0.25 <= _nonzero_Q(g) <= 4.0:
                return g
        raise SamplerExhausted("nonzero-residue arrow sampler")

    model = GroupoidChartModel(
        name="sympl-nonzero", arrow_dim=4, base_dim=2,
        source_of=source_of, target_of=target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=arrow_valid,
        composable_tol=composable_tol,
        expected_frame=_nonzero_frame,
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=sample_base, sample_base_like=sample_base_like,
    )

    fval = f if f is not None else (lambda p: 1.0)

    def omega_func(p, vs):
        r2 = p[0] * p[0] + p[1] * p[1]
        u, v = vs
        return fval(p) * (u[0] * v[1] - u[1] * v[0]) / r2

    omega = FormField(2, 2, omega_func, "real",
                      lambda p: p[0] != 0 or p[1] != 0, "omega=f dlogr^dtheta")

    if f is None:
        Omega = _nonzero_Omega_closed()
    else:
        Omega = _nonzero_Omega_assembled(fval)

    def pi_bivector(p):
        r2 = p[0] * p[0] + p[1] * p[1]
        c = r2 / fval(p)
        return np.array([[0.0, c], [-c, 0.0]])

    # exactly composable pairs parametrized by (x, a1, b1, a2, b2)
    def pair_map_func(w):
        g = (w[0], w[1], w[2], w[3])
        s1, s2 = source_of(g)
        return np.array([*g, s1, s2, w[4], w[5]])

    pair_map = SmoothMap(6, 8, pair_map_func, name="sympl-nonzero.pairs")

    def sample_params(rng):
        for _ in range(256):
            v = _annulus(rng, 0.35, 0.9)
            w = (v.real, v.imag, _box(rng, 0.3), _box(rng, 0.3),
                 _box(rng, 0.3), _box(rng, 0.3))
            g = (w[0], w[1], w[2], w[3])
            if not (0.3 <= _nonzero_Q(g) <= 4.0):
                continue
            h = tuple(pair_map_func(w)[4:])
            if math.hypot(*source_of(h)) < 0.1 or not (0.3 <= _nonzero_Q(h) <= 4.0):
                continue
            return w
        raise SamplerExhausted("nonzero-residue pair parameter sampler")

    grid = tuple((0.8 * math.cos(th), 0.8 * math.sin(th), a, b)
                 for th in (0.0, 1.1, 2.3, 4.0)
                 for a in (-0.4, 0.1, 0.4) for b in (-0.3, 0.0, 0.35))

    return SymplecticModel(
        model=model, omega_base=omega, Omega=Omega, pi_bivector=pi_bivector,
        Omega_variant=_nonzero_Omega_variant(),
        pair_param=(pair_map, sample_params),
        nondeg_grid=grid,
        invert_variant=invert_variant,
    )


def _nonzero_frame(p):
    r2 = p[0] * p[0] + p[1] * p[1]
    return np.array([[r2, 0.0], [0.0, r2]])


def _nonzero_Omega_closed() -> FormField:
    """Closed form of t*omega - s*omega for f = 1, smooth on the whole chart."""

    def coeff(p):
        x1, x2, a, b = p
        r2 = x1 * x1 + x2 * x2
        Q = _nonzero_Q(p)
        c = np.zeros((4, 4))
        c[0, 1] = (a * a + b * b) / Q
        c[0, 2] = 2 * b * x1 / Q
        c[0, 3] = -(2 * a * x1 + 1) / Q
        c[1, 2] = (2 * b * x2 + 1) / Q
        c[1, 3] = -2 * a * x2 / Q
        c[2, 3] = -r2 / Q
        return c - c.T

    def func(p, vs):
        return vs[0] @ coeff(p) @ vs[1]

    return FormField(2, 4, func, "real",
                     lambda p: _nonzero_Q(tuple(p)) > 0, "Omega(nonzero)")


def _nonzero_Omega_variant() -> FormField:
    """Near-miss variant: no da^db term, r^2-weighted dx1^dx2, opposite
    cross-term signs.  Kept as a negative control; it is degenerate on
    the locus 2 a x1 + 2 b x2 + 1 = 0 and differs from
    t*omega - s*omega at generic points."""

    def coeff(p):
        x1, x2, a, b = p
        r2 = x1 * x1 + x2 * x2
        Q = _nonzero_Q(p)
        c = np.zeros((4, 4))
        c[0, 1] = (a * a + b * b) * r2 / Q
        c[0, 2] = -2 * b * x1 / Q
        c[0, 3] = (2 * a * x1 + 1) / Q
        c[1, 2] = -(2 * b * x2 + 1) / Q
        c[1, 3] = 2 * a * x2 / Q
        return c - c.T

    return FormField(2, 4, lambda p, vs: vs[0] @ coeff(p) @ vs[1], "real",
                     lambda p: _nonzero_Q(tuple(p)) > 0, "Omega(nonzero,variant)")


def _nonzero_Omega_assembled(fval) -> FormField:
    """t*(f omega0) - s*(f omega0) via exact differentials (dense chart only)."""

    def func(p, vs):
        x1, x2, a, b = p
        r2 = x1 * x1 + x2 * x2
        u, v = vs
        tu, tv = u[:2], v[:2]
        ds = np.array([[2 * a * x1 + 1, 2 * a * x2, r2, 0.0],
                       [2 * b * x1, 2 * b * x2 + 1, 0.0, r2]])
        su, sv = ds @ u, ds @ v
        s1, s2 = a * r2 + x1, b * r2 + x2
        rho2 = s1 * s1 + s2 * s2
        term_t = fval((x1, x2)) * (tu[0] * tv[1] - tu[1] * tv[0]) / r2
        term_s = fval((s1, s2)) * (su[0] * sv[1] - su[1] * sv[0]) / rho2
        return term_t - term_s

    def pred(p):
        x1, x2, a, b = p
        if x1 == 0 and x2 == 0:
            return False
        s1, s2 = a * (x1 * x1 + x2 * x2) + x1, b * (x1 * x1 + x2 * x2) + x2
        return not (s1 == 0 and s2 == 0)

    return FormField(2, 4, func, "real", pred, "Omega(nonzero,f)")


# ---------------------------------------------------------------------------
# zero elliptic residue: holomorphic chart over C^2
# ---------------------------------------------------------------------------

def _zero_base(rng):
    """A point (u, v) of C^2; u = 0 (the divisor) with probability 0.25."""
    u = 0j if rng.uniform() < 0.25 else _annulus(rng, 0.2, 1.1)
    return _pair(u) + (_box(rng), _box(rng))


def _zero_base_like(p, rng):
    u = 0j if _cx(p, 0) == 0 else _annulus(rng, 0.2, 1.1)
    return _pair(u) + (_box(rng), _box(rng))


def symplectic_zero_residue_model(composable_tol: float = 1e-9) -> SymplecticModel:
    """Local symplectic integration with vanishing elliptic residue.

    Arrows (z, a, b, c) in C^4 with b != 0 over base C^2 with divisor
    the first coordinate: s = (ab, ac + z), t = (a, z), unit
    (u, v) -> (v, u, 1, 0), inverse (ac + z, ab, 1/b, -c/b).  The last
    component of the product is c + b c' (the transposed-slot variant
    c + b' c breaks the unit/inverse laws and associativity and ships
    as a negative control).  The divisor isotropy composes as
    (b, c)(b', c') = (b b', c + b c'), the affine group of the plane.
    """

    def _ac_plus_z(g):
        ac = _cmul(g[2], g[3], g[6], g[7])
        return (ac[0] + g[0], ac[1] + g[1])

    def source_of(g):
        return _cmul(g[2], g[3], g[4], g[5]) + _ac_plus_z(g)

    def target_of(g):
        return (g[2], g[3], g[0], g[1])

    def compose_raw(g, h):
        bc2 = _cmul(g[4], g[5], h[6], h[7])
        return ((g[0], g[1], g[2], g[3]) + _cmul(g[4], g[5], h[4], h[5])
                + (g[6] + bc2[0], g[7] + bc2[1]))

    def compose_variant(g, h):
        # transposed-slot near miss: last slot c + b' c
        b2c = _cmul(h[4], h[5], g[6], g[7])
        return ((g[0], g[1], g[2], g[3]) + _cmul(g[4], g[5], h[4], h[5])
                + (g[6] + b2c[0], g[7] + b2c[1]))

    def invert(g):
        return (_ac_plus_z(g) + _cmul(g[2], g[3], g[4], g[5])
                + _cdiv(1.0, 0.0, g[4], g[5]) + _cdiv(-g[6], -g[7], g[4], g[5]))

    def unit_at(p):
        return (p[2], p[3], p[0], p[1], 1.0, 0.0, 0.0, 0.0)

    def arrow_valid(g):
        if len(g) != 8:
            return False
        return _finite(g) & _nonzero(g[4], g[5])

    def arrow_between(p, q, rng):
        u, v = _cx(p, 0), _cx(p, 2)
        u2, v2 = _cx(q, 0), _cx(q, 2)
        if u == 0 and u2 == 0:
            b = _annulus(rng, 0.4, 1.8)
            c = complex(_box(rng), _box(rng))
            return _pair(v) + (0.0, 0.0) + _pair(b) + _pair(c)
        if u == 0 or u2 == 0:
            raise NotComposable("no arrow between different orbits")
        # t = (u, v), s = (u2, v2): a = u, b = u2/u, ac + z = v2, z = v
        b = u2 / u
        c = (v2 - v) / u
        return _pair(v) + _pair(u) + _pair(b) + _pair(c)

    def sample_arrow(rng):
        z = complex(_box(rng), _box(rng))
        a = 0j if rng.uniform() < 0.25 else _annulus(rng, 0.2, 1.1)
        b = _annulus(rng, 0.4, 1.8)
        c = complex(_box(rng), _box(rng))
        return _pair(z) + _pair(a) + _pair(b) + _pair(c)

    frame = residue_model_frame("zero")

    model = GroupoidChartModel(
        name="sympl-zero", arrow_dim=8, base_dim=4,
        source_of=source_of, target_of=target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=arrow_valid,
        composable_tol=composable_tol,
        expected_frame=lambda p: frame(np.asarray(p)),
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=_zero_base, sample_base_like=_zero_base_like,
    )

    omega = _dlog_wedge_form()
    Omega = _zero_Omega(sign=-1.0)
    Omega_variant = _zero_Omega(sign=+1.0)

    def pi_bivector(p):
        u1, u2 = p[0], p[1]
        c = np.zeros((4, 4))
        c[0, 2], c[1, 2] = u1, u2
        c[1, 3], c[0, 3] = u1, -u2
        return c - c.T

    def pair_map_func(w):
        g = tuple(w[:8])
        s1a, s1b, s2a, s2b = source_of(g)
        # arrow layout is (z, a, b, c): the source's divisor slot feeds a
        h = (s2a, s2b, s1a, s1b) + tuple(w[8:12])
        return np.array([*g, *h])

    pair_map = SmoothMap(12, 16, pair_map_func, name="sympl-zero.pairs")

    def sample_params(rng):
        z = complex(_box(rng), _box(rng))
        a = _annulus(rng, 0.3, 1.0)
        b = _annulus(rng, 0.4, 1.8)
        c = complex(_box(rng), _box(rng))
        b2 = _annulus(rng, 0.4, 1.8)
        c2 = complex(_box(rng), _box(rng))
        return _pair(z) + _pair(a) + _pair(b) + _pair(c) + _pair(b2) + _pair(c2)

    grid = tuple((0.3, -0.2, re_a, 0.4, rb, ib, 0.5, cc)
                 for re_a in (0.0, 0.6) for rb in (0.5, 1.0, 2.0)
                 for ib in (0.0, 0.7) for cc in (-0.5, 0.5))

    return SymplecticModel(
        model=model, omega_base=omega, Omega=Omega, pi_bivector=pi_bivector,
        Omega_variant=Omega_variant,
        pair_param=(pair_map, sample_params),
        nondeg_grid=grid,
        compose_variant=compose_variant,
    )


def _dlog_wedge_form() -> FormField:
    """omega = dlog(u) ^ dv as a complex form on C^2, divisor {u = 0}."""

    def func(p, vs):
        u = complex(p[0], p[1])
        a, b = vs
        au, av = complex(a[0], a[1]), complex(a[2], a[3])
        bu, bv = complex(b[0], b[1]), complex(b[2], b[3])
        return (au * bv - bu * av) / u

    return FormField(2, 4, func, "complex",
                     lambda p: p[0] != 0 or p[1] != 0, "omega=dlogu^dv")


def _zero_Omega(sign: float) -> FormField:
    """(c/b) da^db - da^dc - (1/b) db^dz + sign (a/b) db^dc, complex-valued.

    sign = -1 is t*omega - s*omega; sign = +1 flips the db^dc
    coefficient, a near miss kept as a negative control.
    """

    def func(p, vs):
        z, a, b, c = _cx(p, 0), _cx(p, 2), _cx(p, 4), _cx(p, 6)
        u, v = vs
        uz, ua, ub, uc = _cx(u, 0), _cx(u, 2), _cx(u, 4), _cx(u, 6)
        vz, va, vb, vc = _cx(v, 0), _cx(v, 2), _cx(v, 4), _cx(v, 6)
        out = (c / b) * (ua * vb - ub * va)
        out -= (ua * vc - uc * va)
        out -= (ub * vz - uz * vb) / b
        out += sign * (a / b) * (ub * vc - uc * vb)
        return out

    tag = "derived" if sign < 0 else "variant"
    return FormField(2, 8, func, "complex",
                     lambda p: _cx(tuple(p), 4) != 0, f"Omega(zero,{tag})")


def zero_residue_target_model(composable_tol: float = 1e-9) -> GroupoidChartModel:
    """Blow-up model of (C^2, {u = 0}) receiving the zero-residue morphism.

    Arrows (A, B, w1, w2) with B != 0: t = (A, w1), s = (AB, w2);
    multiplication keeps the first blow-up data and composes the free
    coordinates, the smooth-divisor picture with a complex transverse
    direction.
    """

    def source_of(g):
        return _cmul(g[0], g[1], g[2], g[3]) + (g[6], g[7])

    def target_of(g):
        return (g[0], g[1], g[4], g[5])

    def compose_raw(g, h):
        return (g[0], g[1]) + _cmul(g[2], g[3], h[2], h[3]) + (g[4], g[5], h[6], h[7])

    def invert(g):
        return (_cmul(g[0], g[1], g[2], g[3]) + _cdiv(1.0, 0.0, g[2], g[3])
                + (g[6], g[7], g[4], g[5]))

    def unit_at(p):
        return (p[0], p[1], 1.0, 0.0, p[2], p[3], p[2], p[3])

    def arrow_valid(g):
        if len(g) != 8:
            return False
        return _finite(g) & _nonzero(g[2], g[3])

    def arrow_between(p, q, rng):
        u, w1 = _cx(p, 0), _cx(p, 2)
        u2, w2 = _cx(q, 0), _cx(q, 2)
        if u == 0 and u2 == 0:
            B = _annulus(rng, 0.4, 1.8)
            return (0.0, 0.0) + _pair(B) + _pair(w1) + _pair(w2)
        if u == 0 or u2 == 0:
            raise NotComposable("no arrow between strata")
        return _pair(u) + _pair(u2 / u) + _pair(w1) + _pair(w2)

    def sample_arrow(rng):
        A = 0j if rng.uniform() < 0.25 else _annulus(rng, 0.2, 1.1)
        B = _annulus(rng, 0.4, 1.8)
        return _pair(A) + _pair(B) + (_box(rng), _box(rng), _box(rng), _box(rng))

    def expected_frame(p):
        u1, u2 = p[0], p[1]
        rows = np.zeros((4, 4))
        rows[0, 0], rows[0, 1] = u1, u2
        rows[1, 0], rows[1, 1] = -u2, u1
        rows[2, 2] = rows[3, 3] = 1.0
        return rows

    return GroupoidChartModel(
        name="H(zero)", arrow_dim=8, base_dim=4,
        source_of=source_of, target_of=target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=arrow_valid,
        composable_tol=composable_tol,
        expected_frame=expected_frame,
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=_zero_base, sample_base_like=_zero_base_like,
        divisor_factors=lambda g: [(g[0], g[1], g[2], g[3])],
    )


def zero_target_Omega() -> FormField:
    """t*omega - s*omega on the receiving model, via exact differentials."""

    def func(p, vs):
        A, B = _cx(p, 0), _cx(p, 2)
        u, v = vs
        uA, uB, uw1, uw2 = _cx(u, 0), _cx(u, 2), _cx(u, 4), _cx(u, 6)
        vA, vB, vw1, vw2 = _cx(v, 0), _cx(v, 2), _cx(v, 4), _cx(v, 6)
        term_t = (uA * vw1 - vA * uw1) / A
        su, sv = B * uA + A * uB, B * vA + A * vB
        term_s = (su * vw2 - sv * uw2) / (A * B)
        return term_t - term_s

    return FormField(2, 8, func, "complex",
                     lambda p: (p[0] != 0 or p[1] != 0) and _cx(tuple(p), 2) != 0,
                     "Omega(H zero)")


def nonzero_target_Omega() -> FormField:
    """t*omega - s*omega on the smooth-divisor plane model, exact."""

    def func(p, vs):
        a, b = _cx(p, 0), _cx(p, 2)
        u, v = vs
        ua, ub = _cx(u, 0), _cx(u, 2)
        va, vb = _cx(v, 0), _cx(v, 2)
        term_t = ((ua.conjugate() * va).imag) / abs(a) ** 2
        su, sv = b * ua + a * ub, b * va + a * vb
        term_s = ((su.conjugate() * sv).imag) / abs(a * b) ** 2
        return term_t - term_s

    return FormField(2, 4, func, "real",
                     lambda p: (p[0] != 0 or p[1] != 0) and _cx(tuple(p), 2) != 0,
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

    def pair_map_func(w):
        return np.array([w[0], w[1], w[2], w[3], w[2], w[3], w[4], w[5]])

    pair_map = SmoothMap(6, 8, pair_map_func, name="pair.pairs")

    def sample_params(rng):
        return tuple(_box(rng) for _ in range(6))

    grid = tuple((0.1 * i, -0.2 * i, 0.3, 0.4) for i in range(1, 5))
    return SymplecticModel(model=model, omega_base=omega, Omega=Omega,
                           pi_bivector=lambda p: np.array([[0.0, 1.0], [-1.0, 0.0]]),
                           pair_param=(pair_map, sample_params), nondeg_grid=grid)


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
    sample_filter: Optional[Callable] = None   # arrow -> bool (extra margins)


def morphism_phi_nonzero() -> MorphismBundle:
    """phi(x1, x2, a, b) = (x1 + i x2, (a + b i)(x1 - i x2) + 1)."""
    sym = symplectic_nonzero_residue_model()
    H = case1_model(2)

    def phi(g):
        # (a + b i) conj(x) + 1, with the + 0.0 that complex + float adds
        w = _cmul(g[2], g[3], g[0], -g[1])
        return (g[0], g[1], w[0] + 1.0, w[1] + 0.0)

    f = SmoothMap.from_formula(4, 4, phi, name="phi(nonzero)")

    def sample_filter(g):
        x = complex(g[0], g[1])
        w = complex(g[2], g[3]) * x.conjugate() + 1.0
        return abs(x) > 0.1 and abs(w) > 0.1 and abs(x * w) > 0.05

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

    f = SmoothMap.from_formula(8, 8, phi, name="phi(zero)")

    def sample_filter(g):
        return abs(_cx(g, 2)) > 0.15  # keep the receiving dense chart honest

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


def morphism_psi(series_threshold: float = PSI_SERIES_THRESHOLD) -> SmoothMap:
    """The covering morphism onto the nonzero-residue model."""

    def psi(g):
        return (g[2], g[3]) + _psi_coefficient(g[0], g[1], g[2], -g[3], series_threshold)

    return SmoothMap.from_formula(4, 4, psi, name="psi")


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
        return complex(base.func(p, vs)).real

    def conjugated(p, vs):
        flip = [np.array([v[0], v[1], v[2], -v[3]]) for v in vs]
        return complex(base.func(p, flip)).real

    pred = lambda p: p[0] != 0 or p[1] != 0
    return (FormField(2, 4, motivating, "real", pred, "dlogr^dx3+dtheta^dx4"),
            FormField(2, 4, plain, "real", pred, "Re(dlogu^dv)"),
            FormField(2, 4, conjugated, "real", pred, "Re(dlogu^dconj(v))"))
