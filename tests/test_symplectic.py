"""Symplectic local models: forms, morphisms, errata regressions."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from egl.checks import (check_zero_residue_variant, check_isotropy, check_morphism,
                        check_multiplicative, check_poisson, check_symplectic,
                        non_jacobi_bivector, resolve_psi_convention, rng_for,
                        schouten_residual)
from egl.errors import ChartInvalid
from egl.groupoids import action_groupoid_model, uniforms
from egl.kernel import DEFAULT_PROFILE, pullback
from egl.symplectic import (_nonzero_Q, morphism_phi_nonzero, morphism_phi_zero,
                            morphism_psi, psi_domain_candidates,
                            real_form_conventions,
                            symplectic_nonzero_residue_model,
                            symplectic_zero_residue_model)

PROF = DEFAULT_PROFILE


# ---------------------------------------------------------------------------
# nonzero residue
# ---------------------------------------------------------------------------

def test_nonzero_multiplication_at_origin():
    model = symplectic_nonzero_residue_model().model
    out = model.compose((0.0, 0.0, 0.3, -0.2), (0.0, 0.0, 0.5, 0.9))
    assert out == (0.0, 0.0, 0.8, 0.7)


def _nonzero_margins(model, r, th, a, b):
    """|s| and Q on a block of arrows (r cos th, r sin th, a, b)."""
    g = (r * np.cos(th), r * np.sin(th), a, b)
    return np.hypot(*model.source_of(g)), _nonzero_Q(g)


def test_nonzero_arrow_box_needs_no_refusal():
    # off the origin, sample_arrow draws r = |x| in [0.3, 0.9) and |a|, |b|
    # <= 0.35; its docstring bounds |s| >= 0.166 and Q in [0.307, 2.09],
    # inside the margins |s| >= 0.12 and 0.25 <= Q <= 4 it used to retry on
    model = symplectic_nonzero_residue_model().model
    th = np.linspace(-np.pi, np.pi, 2001)
    corners = [np.broadcast_arrays(r, th, a, b) for r in (0.3, 0.9)
               for a in (-0.35, 0.35) for b in (-0.35, 0.35)]
    r, th2, a, b = np.meshgrid(np.linspace(0.3, 0.9, 13), np.linspace(-np.pi, np.pi, 97),
                               np.linspace(-0.35, 0.35, 15), np.linspace(-0.35, 0.35, 15))
    for r, th, a, b in corners + [(r.ravel(), th2.ravel(), a.ravel(), b.ravel())]:
        s, Q = _nonzero_margins(model, r, th, a, b)
        assert s.min() >= 0.166 and 0.307 <= Q.min() and Q.max() <= 2.09
    g = model.random_arrow(rng_for(7, "nonzero-box"), 20_000)
    off = (g[0] != 0) | (g[1] != 0)
    s, Q = np.hypot(*model.source_of(g))[off], _nonzero_Q(g)[off]
    assert 0.15 < off.mean() < 0.85
    assert s.min() >= 0.166 and 0.307 <= Q.min() and Q.max() <= 2.09


def _assert_pair_bounds(sym, w):
    """The pair sampler's stated bounds on the pairs with parameters w (a block)."""
    gh = sym.pair_param[0].formula(w)
    (Qg, sg), (Qh, sh) = ((_nonzero_Q(g), np.hypot(*sym.model.source_of(g)))
                          for g in (gh[:4], gh[4:]))
    assert 0.38 <= Qg.min() and Qg.max() <= 1.91
    assert 0.216 <= sg.min() and sg.max() <= 1.244
    assert 0.31 <= Qh.min() and Qh.max() <= 2.08
    assert sh.min() >= 0.12


def test_nonzero_pair_box_needs_no_refusal():
    # the pair sampler draws x with 0.35 <= r = |x| < 0.9, |a1|, |b1| <= 0.3
    # and |a2|, |b2| <= 0.25; its docstring bounds Q and |s| at both arrows
    # of the pair, at the box corners with x turning through every direction
    # and on drawn rows
    sym = symplectic_nonzero_residue_model()
    th = np.linspace(-np.pi, np.pi, 2001)
    for r in (0.35, 0.9):
        for c in itertools.product((-0.3, 0.3), (-0.3, 0.3), (-0.25, 0.25), (-0.25, 0.25)):
            _assert_pair_bounds(sym, tuple(np.broadcast_arrays(r * np.cos(th), r * np.sin(th),
                                                               *c)))
    u = uniforms(rng_for(7, "nonzero-pair-box"), sym.pair_width, 100_000)
    _assert_pair_bounds(sym, sym.pair_param[1](u))


def test_nonzero_inverse_conjugates_the_swap(rng):
    sym = symplectic_nonzero_residue_model()
    model = sym.model
    worst = 0.0
    variant_breaks = 0.0
    for _ in range(5000):
        g = model.random_arrow(rng)
        inv = model.invert(g)
        worst = max(worst,
                    max(abs(a - b) for a, b in zip(model.source_of(inv),
                                                   model.target_of(g))),
                    max(abs(a - b) for a, b in zip(model.target_of(inv),
                                                   model.source_of(g))))
        if g[0] or g[1]:
            bad = sym.invert_variant(g)
            variant_breaks = max(variant_breaks,
                                 max(abs(a - b) for a, b in zip(model.source_of(bad),
                                                                model.target_of(g))))
    assert worst < 1e-12
    # the proof's displayed general inverse misses the 1/Q rescaling and
    # fails s(iota(g)) = t(g) at generic arrows (regression pin)
    assert variant_breaks > 1e-3


def test_nonzero_inverse_at_origin_matches_extension():
    sym = symplectic_nonzero_residue_model()
    g = (0.0, 0.0, 0.4, -1.1)
    assert sym.model.invert(g) == (0.0, 0.0, -0.4, 1.1)
    assert sym.invert_variant(g) == (0.0, 0.0, -0.4, 1.1)


def test_nonzero_excluded_surface_invalid():
    model = symplectic_nonzero_residue_model().model
    x1, x2 = 0.6, -0.8
    r2 = x1 * x1 + x2 * x2
    with pytest.raises(ChartInvalid):
        model.require_valid((x1, x2, -x1 / r2, -x2 / r2))


def test_nonzero_omega_equals_pullback_difference(rng):
    sym = symplectic_nonzero_residue_model()
    rep = check_symplectic(sym, n_samples=150, seed=5, prof=PROF)
    assert rep.ok
    assert rep.max_residual < 1e-7
    assert rep.details["d_omega_max"] < 1e-6
    assert rep.details["nondeg_min_abs_det"] > 1e-6


def test_nonzero_variant_form_is_not_the_multiplicative_structure(rng):
    # the near-miss variant drops the da^db term; it deviates from
    # t*omega - s*omega at generic arrows (negative control)
    sym = symplectic_nonzero_residue_model()
    model = sym.model
    g = (0.5, 0.2, 0.25, -0.1)
    vs = [np.eye(4)[2], np.eye(4)[3]]   # the da^db slot
    oracle = pullback(model.t, sym.omega_base, g, vs, PROF) \
        - pullback(model.s, sym.omega_base, g, vs, PROF)
    assert abs(sym.Omega(g, vs) - oracle) < 1e-9
    assert abs(sym.Omega_variant(g, vs) - oracle) > 1e-2


def test_nonzero_multiplicative(rng):
    sym = symplectic_nonzero_residue_model()
    rep = check_multiplicative(sym, n_samples=120, seed=5, prof=PROF)
    assert rep.ok, rep.witnesses[:1]


def test_nonzero_conformal_factor_variant(rng):
    # with f != 1 the assembled Omega still matches the pullback oracle
    sym = symplectic_nonzero_residue_model(f=lambda p: 2.0 + p[0])
    model = sym.model
    count = 0
    stream = rng_for(5, "fvariant")
    while count < 40:
        g = model.random_arrow(stream)
        if not sym.Omega.defined_at(g):
            continue
        sp, tp = model.source_of(g), model.target_of(g)
        if min(np.hypot(*sp), np.hypot(*tp)) < 0.15:
            continue
        vs = [v / np.linalg.norm(v) for v in stream.normal(size=(2, 4))]
        oracle = pullback(model.t, sym.omega_base, g, vs, PROF) \
            - pullback(model.s, sym.omega_base, g, vs, PROF)
        assert abs(sym.Omega(g, vs) - oracle) < 1e-7
        count += 1


def test_nonzero_poisson_bivector():
    sym = symplectic_nonzero_residue_model()
    rep = check_poisson(sym, n_points=30, seed=5)
    assert rep.ok
    # any bivector on the plane is Poisson: top degree
    assert schouten_residual(sym.pi_bivector, 2, [0.4, 0.7], PROF) == 0.0


def test_poisson_negative_control():
    bad = non_jacobi_bivector()
    assert schouten_residual(bad, 4, [0.3, 0.1, -0.2, 0.5], PROF) > 1.0


def test_zero_residue_motivating_bivector_is_poisson():
    # r dr ^ d3 + dtheta ^ d4 in real coordinates
    sym = symplectic_zero_residue_model()
    residual = schouten_residual(sym.pi_bivector, 4, [0.5, -0.3, 0.2, 0.8], PROF)
    assert residual < 1e-6


def test_phi_nonzero_is_a_groupoid_morphism():
    rep = check_morphism(morphism_phi_nonzero(), n_samples=2000, seed=5,
                         prof=PROF, tol=1e-7)
    assert rep.ok, rep.witnesses[:1]


@pytest.mark.parametrize("make", [morphism_phi_nonzero, morphism_phi_zero],
                         ids=["phi-nonzero", "phi-zero"])
def test_a_morphism_with_one_form_compares_no_forms(make):
    # the forms are compared only when both are set; one alone used to crash
    bundle = make()
    want = check_morphism(replace(bundle, dom_form=None, cod_form=None), 200, 7).to_dict()
    for half in (replace(bundle, cod_form=None), replace(bundle, dom_form=None)):
        assert check_morphism(half, 200, 7).to_dict() == want


# ---------------------------------------------------------------------------
# zero residue
# ---------------------------------------------------------------------------

def test_zero_involution_and_unit_laws(rng):
    model = symplectic_zero_residue_model().model
    worst_inv = worst_unit = 0.0
    for _ in range(10_000):
        g = model.random_arrow(rng)
        gg = model.invert(model.invert(g))
        worst_inv = max(worst_inv, max(abs(a - b) for a, b in zip(gg, g)))
        u = model.unit_at(model.target_of(g))
        worst_unit = max(worst_unit,
                         max(abs(a - b) for a, b in zip(model.compose(u, g), g)))
    assert worst_inv < 1e-9
    assert worst_unit < 1e-12


def test_zero_isotropy_is_the_affine_group():
    model = symplectic_zero_residue_model().model
    z = (0.3, -0.8)
    b1, c1 = 0.5 + 0.2j, 1.0 - 1.0j
    b2, c2 = -1.5 + 0.1j, 0.25j

    def iso(b, c):
        return z + (0.0, 0.0) + (b.real, b.imag) + (c.real, c.imag)

    out = model.compose(iso(b1, c1), iso(b2, c2))
    assert complex(out[4], out[5]) == b1 * b2
    assert complex(out[6], out[7]) == c1 + b1 * c2


def test_the_action_groupoids_isotropy_law_fails_on_sympl_zero():
    # sympl-zero's chart is the action groupoid relabelled, and _relabel
    # reads the affine law through the arrow order; the raw slot-0 law
    # reads sympl-zero's (z, a) as (b, c), and z z' is not z, so every
    # sample fails with a finite witness, neither passing nor crashing
    model = symplectic_zero_residue_model().model
    copied = replace(model, isotropy=action_groupoid_model().isotropy)
    rep = check_isotropy(copied, n_samples=200, seed=7)
    assert rep.verdict == "fail" and rep.passed == 0
    assert rep.tolerance < rep.max_residual < math.inf
    assert rep.witnesses and all("map" not in w for w in rep.witnesses)
    assert check_isotropy(model, n_samples=200, seed=7).verdict == "pass"


def test_zero_variant_regression():
    sym = symplectic_zero_residue_model()
    rep = check_zero_residue_variant(sym, n_samples=300, seed=5)
    assert rep.ok
    assert rep.max_residual < 1e-9                      # derived c + b c'
    assert rep.details["variant_max_residual"] > 1e-2   # transposed c + b' c


def test_zero_variant_breaks_unit_law():
    sym = symplectic_zero_residue_model()
    model = sym.model
    g = (0.1, 0.2, 0.5, -0.4, 1.2, 0.3, 0.7, -0.2)
    u = model.unit_at(model.target_of(g))
    out = sym.compose_variant(u, g)
    assert max(abs(a - b) for a, b in zip(out, g)) > 1e-2


def test_zero_omega_checks():
    sym = symplectic_zero_residue_model()
    rep = check_symplectic(sym, n_samples=150, seed=5, prof=PROF)
    assert rep.ok
    assert rep.max_residual < 1e-7
    assert rep.details["d_omega_max"] < 1e-6
    assert rep.details["nondeg_min_abs_det"] > 1e-6


def test_zero_variant_form_sign_differs(rng):
    sym = symplectic_zero_residue_model()
    model = sym.model
    g = (0.1, -0.2, 0.6, 0.1, 1.1, 0.4, 0.3, 0.9)
    # the db^dc slot separates the derived sign from the near miss
    u, v = np.zeros(8), np.zeros(8)
    u[4] = 1.0
    v[6] = 1.0
    oracle = pullback(model.t, sym.omega_base, g, [u, v], PROF) \
        - pullback(model.s, sym.omega_base, g, [u, v], PROF)
    assert abs(sym.Omega(g, [u, v]) - oracle) < 1e-9
    assert abs(sym.Omega_variant(g, [u, v]) - oracle) > 1e-2


def test_zero_multiplicative_complex():
    sym = symplectic_zero_residue_model()
    rep = check_multiplicative(sym, n_samples=120, seed=5, prof=PROF)
    assert rep.ok, rep.witnesses[:1]


def test_phi_zero_is_a_groupoid_morphism():
    rep = check_morphism(morphism_phi_zero(), n_samples=2000, seed=5,
                         prof=PROF, tol=1e-7)
    assert rep.ok, rep.witnesses[:1]


def test_real_form_convention_recorded():
    # the motivating real form matches Re(dlog u ^ d conj(v)), not the
    # plain real part: the convention the suite records empirically
    motivating, plain, conjugated = real_form_conventions()
    stream = rng_for(5, "realform")
    max_conj = max_plain = 0.0
    for _ in range(50):
        p = np.array([*stream.uniform(0.3, 1.0, size=1),
                      *stream.uniform(-1, 1, size=3)])
        vs = list(stream.normal(size=(2, 4)))
        m = motivating(p, vs)
        max_conj = max(max_conj, abs(conjugated(p, vs) - m))
        max_plain = max(max_plain, abs(plain(p, vs) - m))
    assert max_conj < 1e-12
    assert max_plain > 1e-2


# ---------------------------------------------------------------------------
# covering morphism conventions
# ---------------------------------------------------------------------------

def test_psi_series_branch_at_zero():
    psi = morphism_psi()
    out = psi(np.array([0.7, -0.4, 0.0, 0.0]))
    assert np.allclose(out, [0.0, 0.0, 0.7, -0.4], atol=1e-15)


def test_psi_series_branch_is_continuous():
    psi = morphism_psi()
    below = psi(np.array([0.5, 0.3, 5e-7, -4e-7]))
    above = psi(np.array([0.5, 0.3, 2e-6, -1.5e-6]))
    assert np.all(np.isfinite(below)) and np.all(np.isfinite(above))
    # both branches agree with the closed form away from the threshold
    z = 2e-6 - 1.5e-6j
    A = (np.exp(np.conj(z) * (0.5 + 0.3j)) - 1) / np.conj(z)
    assert abs(complex(above[2], above[3]) - A) < 1e-12


def test_exactly_one_psi_convention_wins():
    winners, table = resolve_psi_convention(n_samples=300, seed=5, prof=PROF)
    assert winners == ["exp-on-source-conjugate-scaled"]
    for name, residual in table.items():
        if name == "exp-on-source-conjugate-scaled":
            assert residual < 1e-9
        else:
            assert residual > 1e-3


def test_all_psi_candidates_are_groupoids(rng):
    from egl.checks import check_groupoid_axioms

    for name, model in psi_domain_candidates().items():
        rep = check_groupoid_axioms(model, n_samples=1500, seed=5)
        assert rep.ok, (name, rep.witnesses[:1])
