"""Chart-level groupoid models: structure maps, blow-down, fibre products."""

import json
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from egl.checks import (check_groupoid_axioms, check_isotropy, lie_algebroid_of,
                        perturbed_model, rng_for)
from egl.errors import ChartInvalid, NotComposable, NotTransverse
from egl.groupoids import (COMPOSABLE_TOL, _full, _maxdiff, _relabel, action_groupoid_model,
                           case1_model, case2_quotient_model, caseIV_model,
                           elliptic_ideal_pullback, fibre_product,
                           pair_groupoid, smooth_factor_model,
                           ssc_surface_model, uniforms)
from egl.kernel import jacobian, subspace_equal
from egl.registry import MODEL_NAMES, build_model
from egl.report import ARTIFACT
from egl.signedperm import SignedPermutation, semidirect_mul
from egl.symplectic import psi_domain_candidates, zero_residue_target_model


def test_case1_multiplication_over_divisor():
    model = case1_model(4)
    b1, b2 = 0.5 + 1j, -2 + 0.25j
    g = (0.1, 0.2, 0.3, 0.4, 0.0, 0.0, b1.real, b1.imag)
    h = (0.3, 0.4, 0.5, 0.6, 0.0, 0.0, b2.real, b2.imag)
    out = model.compose(g, h)
    b = b1 * b2
    assert out == (0.1, 0.2, 0.5, 0.6, 0.0, 0.0, b.real, b.imag)


def test_case1_unit_maps_to_diagonal():
    model = case1_model(4)
    p = (0.7, -0.3, 0.2, 0.9)
    u = model.unit_at(p)
    assert model.beta_map(u) == p + p


def test_case1_inverse_against_blowdown_oracle(rng):
    # the inverse must be the conjugate of the pair-groupoid swap by the
    # blow-down wherever the arrow lies over the dense chart: the unique
    # arrow with swapped base pair has a' = v_s and b' = v_t / v_s
    model = case1_model(4)
    nx = 2
    for _ in range(10_000):
        g = model.random_arrow(rng)
        inv = model.invert(g)
        t, s = model.target_of(g), model.source_of(g)
        assert model.target_of(inv) == pytest.approx(s, abs=1e-12)
        assert model.source_of(inv) == pytest.approx(t, abs=1e-12)
        vs = complex(s[nx], s[nx + 1])
        vt = complex(t[nx], t[nx + 1])
        if vs != 0:
            oracle = s[:nx] + t[:nx] + (vs.real, vs.imag) \
                + ((vt / vs).real, (vt / vs).imag)
            assert max(abs(a - b) for a, b in zip(inv, oracle)) < 1e-12


def test_case1_chart_invalid_when_b_zero():
    model = case1_model(4)
    with pytest.raises(ChartInvalid):
        model.require_valid((0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))


def test_case1_not_composable():
    model = case1_model(2)
    g = (0.5, 0.0, 1.0, 0.0)   # s = 0.5
    h = (0.9, 0.0, 1.0, 0.0)   # t = 0.9
    with pytest.raises(NotComposable):
        model.compose(g, h)


def _blowup_closed_forms(nx, k):
    """The maps of the blow-up docstring, in Python complex arithmetic."""
    def parts(g):
        cx = [complex(g[i], g[i + 1]) for i in range(2 * nx, 2 * nx + 4 * k, 2)]
        return tuple(g[:nx]), tuple(g[nx:2 * nx]), cx[:k], cx[k:]

    def flat(zs):
        return tuple(v for z in zs for v in (z.real, z.imag))

    def source(g):
        _, y, a, b = parts(g)
        return y + flat(aj * bj for aj, bj in zip(a, b))

    def target(g):
        x, _, a, _ = parts(g)
        return x + flat(a)

    def compose(g, h):
        x, _, a, b = parts(g)
        _, y2, _, b2 = parts(h)
        return x + y2 + flat(a) + flat(bj * b2j for bj, b2j in zip(b, b2))

    def invert(g):
        x, y, a, b = parts(g)
        return y + x + flat(aj * bj for aj, bj in zip(a, b)) + flat(1.0 / bj for bj in b)

    def unit(p):
        x = tuple(p[:nx])
        return x + x + tuple(p[nx:]) + (1.0, 0.0) * k

    return source, target, compose, invert, unit


def _float_bits(values):
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize("n,k", [(5, 1), (6, 2)])
def test_blowup_maps_match_their_closed_forms(n, k):
    # fixed arrows: generic, on the divisor (a = 0), with -0.0 coordinates,
    # and with b purely imaginary (the other branch of complex division)
    nx = n - 2 * k
    vals = (0.3, -0.7, 1.1, 0.2, 0.5, -0.4, 0.6, -0.25, 1.3, 0.45, -0.8, 0.9)
    generic = vals[:2 * n]
    on_divisor = generic[:2 * nx] + (0.0, 0.0) * k + generic[2 * nx + 2 * k:]
    signed_zeros = tuple(-0.0 if i % 3 == 0 else x for i, x in enumerate(on_divisor))
    signed_zeros = signed_zeros[:2 * nx + 2 * k] + (0.7, -0.0) * k
    imaginary_b = generic[:2 * nx + 2 * k] + (0.0, 1.5, -0.0, -2.0)[:2 * k]
    arrows = [generic, on_divisor, signed_zeros, imaginary_b]
    bases = [generic[:n], on_divisor[:nx] + (0.0, -0.0) * k, signed_zeros[:n]]
    models = [caseIV_model(n, k)] + ([case1_model(n)] if k == 1 else [])
    source, target, compose, invert, unit = _blowup_closed_forms(nx, k)
    for model in models:
        for g in arrows:
            assert _float_bits(model.source_of(g)) == _float_bits(source(g))
            assert _float_bits(model.target_of(g)) == _float_bits(target(g))
            assert _float_bits(model.invert(g)) == _float_bits(invert(g))
            for h in arrows:
                assert _float_bits(model.compose_raw(g, h)) == _float_bits(compose(g, h))
        for p in bases:
            assert _float_bits(model.unit_at(p)) == _float_bits(unit(p))


def _h_zero_closed_forms():
    """H(zero)'s docstring maps on (A, B, w1, w2) over (u, v), in complex arithmetic."""
    def parts(g):
        return tuple(complex(g[i], g[i + 1]) for i in range(0, 8, 2))

    def flat(*zs):
        return tuple(v for z in zs for v in (z.real, z.imag))

    def source(g):
        A, B, _, w2 = parts(g)
        return flat(A * B, w2)

    def target(g):
        A, _, w1, _ = parts(g)
        return flat(A, w1)

    def compose(g, h):
        A, B, w1, _ = parts(g)
        _, B2, _, w22 = parts(h)
        return flat(A, B * B2, w1, w22)

    def invert(g):
        A, B, w1, w2 = parts(g)
        return flat(A * B, 1.0 / B, w2, w1)

    def unit(p):
        return tuple(p[:2]) + (1.0, 0.0) + tuple(p[2:]) + tuple(p[2:])

    return source, target, compose, invert, unit


def test_h_zero_maps_match_their_closed_forms():
    # the same fixed arrows as the blow-up test: generic, A = 0, signed
    # zeros and a purely imaginary B
    generic = (0.3, -0.7, 1.1, 0.2, 0.5, -0.4, 0.6, -0.25)
    on_divisor = (0.0, 0.0) + generic[2:]
    signed_zeros = (-0.0, 0.0, 0.7, -0.0, -0.0, -0.4, 0.6, -0.0)
    imaginary_b = generic[:2] + (0.0, 1.5) + generic[4:]
    arrows = [generic, on_divisor, signed_zeros, imaginary_b]
    bases = [generic[:4], (0.0, -0.0, 0.6, -0.25), signed_zeros[4:]]
    model = zero_residue_target_model()
    source, target, compose, invert, unit = _h_zero_closed_forms()
    for g in arrows:
        assert _float_bits(model.source_of(g)) == _float_bits(source(g))
        assert _float_bits(model.target_of(g)) == _float_bits(target(g))
        assert _float_bits(model.invert(g)) == _float_bits(invert(g))
        for h in arrows:
            assert _float_bits(model.compose_raw(g, h)) == _float_bits(compose(g, h))
    for p in bases:
        assert _float_bits(model.unit_at(p)) == _float_bits(unit(p))
        u1, u2 = p[:2]
        frame = np.array([[u1, u2, 0, 0], [-u2, u1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                         dtype=float)
        assert model.expected_frame(p).tobytes() == frame.tobytes()
    assert model.divisor_slots == (0, 1)
    assert not model.arrow_valid(generic + (0.0,))


# smooth-factor(6, 2, j) reads its base (x, z_1, z_2) as case1(6)'s (x', z)
# with z = z_{j+1}: swapping the pairs for j = 0, as is for j = 1
_TO_CASE1 = {0: lambda p: tuple(p[:2]) + tuple(p[4:]) + tuple(p[2:4]),
             1: lambda p: tuple(p)}


@pytest.mark.parametrize("j", [0, 1])
def test_smooth_factor_maps_match_their_closed_forms(j):
    shuffle = _TO_CASE1[j]      # its own inverse
    vals = (0.3, -0.7, 1.1, 0.2, 0.5, -0.4, 0.6, -0.25, 1.3, 0.45, -0.8, 0.9)
    generic = vals
    on_divisor = vals[:8] + (0.0, 0.0) + vals[10:]
    signed_zeros = tuple(-0.0 if i % 3 == 0 else x for i, x in enumerate(on_divisor))
    signed_zeros = signed_zeros[:10] + (0.7, -0.0)
    imaginary_b = vals[:10] + (0.0, 1.5)
    arrows = [generic, on_divisor, signed_zeros, imaginary_b]
    bases = [vals[:6], shuffle(vals[:4] + (0.0, -0.0)), signed_zeros[:6]]
    model = smooth_factor_model(6, 2, j)
    source, target, compose, invert, unit = _blowup_closed_forms(4, 1)
    for g in arrows:
        assert _float_bits(model.source_of(g)) == _float_bits(shuffle(source(g)))
        assert _float_bits(model.target_of(g)) == _float_bits(shuffle(target(g)))
        assert _float_bits(model.invert(g)) == _float_bits(invert(g))
        for h in arrows:
            assert _float_bits(model.compose_raw(g, h)) == _float_bits(compose(g, h))
    pj = 2 + 2 * j
    for p in bases:
        assert _float_bits(model.unit_at(p)) == _float_bits(unit(shuffle(p)))
        frame = np.eye(6)
        frame[pj:pj + 2, pj:pj + 2] = [[p[pj], p[pj + 1]], [-p[pj + 1], p[pj]]]
        assert model.expected_frame(p).tobytes() == frame.tobytes()
    assert model.divisor_slots == (pj, pj + 1)


def test_caseIV_reduces_to_case1_pointwise(rng):
    # the fixed-point closed forms above are the independent oracle; this
    # checks that both constructors reach them with the same arguments
    m1 = case1_model(5)
    mk = caseIV_model(5, 1)
    for _ in range(200):
        g = m1.random_arrow(rng)
        h = m1.extend_from(m1.source_of(g), rng)
        assert mk.source_of(g) == m1.source_of(g)
        assert mk.target_of(g) == m1.target_of(g)
        assert mk.compose(g, h) == m1.compose(g, h)
        assert mk.invert(g) == m1.invert(g)
    p = m1.random_base(rng)
    assert mk.unit_at(p) == m1.unit_at(p)


def test_caseIV_unit_formula():
    model = caseIV_model(6, 2)
    p = (0.5, -1.0, 0.1, 0.2, 0.3, 0.4)
    assert model.unit_at(p) == (0.5, -1.0, 0.5, -1.0, 0.1, 0.2, 0.3, 0.4,
                                1.0, 0.0, 1.0, 0.0)


def test_caseIV_associativity_sampled(rng):
    model = caseIV_model(6, 3)
    worst = 0.0
    for _ in range(10_000):
        g, h, k = model.random_composable_triple(rng)
        lhs = model.compose(model.compose(g, h), k)
        rhs = model.compose(g, model.compose(h, k))
        worst = max(worst, max(abs(a - b) for a, b in zip(lhs, rhs)))
    assert worst < 1e-9


@given(st.integers(0, 1))
def test_compose_rejects_a_nan_endpoint_gap(i):
    pair = pair_groupoid(2)

    def source_of(g):
        out = list(pair.source_of(g))
        out[i] = math.nan
        return tuple(out)

    model = replace(pair, source_of=source_of)
    g = (0.1, 0.2, 0.1, 0.2)
    with pytest.raises(NotComposable) as err:
        model.compose(g, g)
    assert math.isnan(err.value.gap)


def test_multiplication_smooth_map_view(rng):
    # the SmoothMap view of m evaluates on exactly composable flat pairs
    # and its predicate rejects endpoint gaps beyond the tolerance
    model = case1_model(4)
    g, h = model.random_composable_pair(rng)
    gh = np.asarray(g + h, dtype=float)
    assert model.m.defined_at(gh)
    assert tuple(model.m(gh)) == model.compose(g, h)
    bad = np.array(g + tuple(x + 0.1 for x in h))
    assert not model.m.defined_at(bad)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_m_view_is_compose_row_by_row(name):
    # m is compose_raw read through _view: a stack gives compose's bits,
    # and its domain refuses an endpoint gap or a NaN half, point by
    # point and on a block alike
    model = build_model(name).chart
    d = model.arrow_dim
    rng = rng_for(5, f"m-view:{name}")
    pairs = [model.random_composable_pair(rng) for _ in range(40)]
    stack = np.array([g + h for g, h in pairs])
    want = np.array([model.compose(g, h) for g, h in pairs])
    assert model.m(stack).view(np.int64).tolist() == want.view(np.int64).tolist()
    mixed = [g + h for (g, _), (_, h) in zip(pairs, pairs[1:])]
    gaps = [_maxdiff(model.source_of(gh[:d]), model.target_of(gh[d:])) for gh in mixed]
    apart = [gh for gh, gap in zip(mixed, gaps) if gap > COMPOSABLE_TOL]
    assert len(apart) >= len(mixed) // 2
    nan = (math.nan,) * d
    rows = [tuple(gh) for gh in stack] + apart + [pairs[0][0] + nan, nan + pairs[0][1]]
    defined = [model.m.defined_at(gh) for gh in rows]
    assert defined == [True] * len(stack) + [False] * (len(rows) - len(stack))
    block = np.broadcast_to(model.m.valid(tuple(np.array(rows).T)), (len(rows),))
    assert block.tolist() == defined


def test_beta_intertwines_multiplication_off_divisor(rng):
    for model in (case1_model(4), caseIV_model(4, 2)):
        pair = pair_groupoid(model.base_dim)
        for _ in range(500):
            g, h = model.random_composable_pair(rng)
            bg, bh = model.beta_map(g), model.beta_map(h)
            lhs = model.beta_map(model.compose(g, h))
            rhs = pair.compose_raw(bg, bh)
            assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-12


def test_case2_delta_zero_sector_is_case1(rng):
    base = case1_model(4)
    model = case2_quotient_model(4)
    for _ in range(300):
        g0 = base.random_arrow(rng)
        h0 = base.extend_from(base.source_of(g0), rng)
        g, h = g0 + (0.0,), h0 + (0.0,)
        assert model.compose(g, h)[:-1] == base.compose(g0, h0)
        assert model.compose(g, h)[-1] == 0.0
        assert model.invert(g)[:-1] == base.invert(g0)
        assert model.source_of(g) == base.source_of(g0)
    # and on a block: the untwisted formulas are the delta = 0 sector bit for bit
    g0 = base.random_arrow(rng, 512)
    h0 = base.extend_from(base.source_of(g0), rng, 512)
    g, h = g0 + (np.zeros(512),), h0 + (np.zeros(512),)
    gh = model.compose_raw(g, h)
    assert np.array_equal(np.array(gh[:-1]), np.array(base.compose_raw(g0, h0)))
    assert np.array_equal(gh[-1], np.zeros(512))
    assert np.array_equal(np.array(model.invert(g)[:-1]), np.array(base.invert(g0)))
    assert np.array_equal(np.array(model.source_of(g)), np.array(base.source_of(g0)))


def test_case2_isotropy_is_cstar_semidirect_z2():
    model = case2_quotient_model(4)
    lam, mu = 1.2 - 0.4j, 0.3 + 0.8j
    x0 = (0.5, 0.6)

    def iso(z, delta):
        return x0 + x0 + (0.0, 0.0) + (z.real, z.imag) + (float(delta),)

    out = model.compose(iso(lam, 1), iso(mu, 1))
    assert complex(out[6], out[7]) == lam * mu.conjugate()
    assert out[-1] == 0.0
    # cross-oracle: the exact semidirect product gives the same law
    flip = SignedPermutation((0,), (1,))
    (z,), sp = semidirect_mul(((lam,), flip), ((mu,), flip))
    assert z == lam * mu.conjugate() and sp.is_identity()


def test_case2_axioms_and_st_contract(rng):
    model = case2_quotient_model(4)
    report = check_groupoid_axioms(model, n_samples=2000, seed=3)
    assert report.ok, report.witnesses[:2]


def test_fibre_with_pair_groupoid_is_case1_arrow_for_arrow(rng):
    n = 4
    base = case1_model(n)
    model = fibre_product(base, pair_groupoid(n))
    for _ in range(300):
        g1 = base.random_arrow(rng)
        pairpart = base.target_of(g1) + base.source_of(g1)
        g = g1 + pairpart
        assert model.arrow_valid(g)
        assert model.source_of(g) == base.source_of(g1)
        assert model.target_of(g) == base.target_of(g1)
        inv = model.invert(g)
        assert inv[:base.arrow_dim] == base.invert(g1)
        # the second component stays determined by the first (up to rounding)
        expected = base.target_of(inv[:base.arrow_dim]) \
            + base.source_of(inv[:base.arrow_dim])
        assert inv[base.arrow_dim:] == pytest.approx(expected, abs=1e-12)


def test_fibre_of_transverse_factors_recovers_nc_algebroid(rng):
    m1 = smooth_factor_model(4, 2, 0)
    m2 = smooth_factor_model(4, 2, 1)
    nc = caseIV_model(4, 2)
    model = fibre_product(m1, m2, base_from=nc)
    for p in [(0.3, -0.2, 0.5, 0.1), (0.0, 0.0, 0.4, -0.3),
              (0.25, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]:
        recovered = lie_algebroid_of(model, p)
        expected = nc.expected_frame(p)
        assert subspace_equal(recovered, expected, 1e-5)


@pytest.mark.parametrize("name", ["fibre:case1,case1", "fibre:case1,pair"])
def test_fibre_kernel_rows_reuse_the_ambient_ts_jacobian(name, prof):
    # lie_algebroid_of hands over the ambient ts Jacobian at the unit;
    # the rows built from it equal the ones built from both factors
    model = build_model(name).chart
    m1, m2 = model.factors
    d1 = m1.arrow_dim
    ts, unit = model.maps_for_algebroid()
    rng = rng_for(3, f"fibre-rows:{name}")
    for _ in range(20):
        u = unit(np.asarray(model.random_base(rng), dtype=float))
        J = jacobian(ts, u, prof)
        assert not J[:, d1:].any()
        want = np.hstack([jacobian(m1.ts, u[:d1], prof), -jacobian(m2.ts, u[d1:], prof)])
        assert np.array_equal(model.extra_kernel_rows(u, J, prof), want)
        assert np.array_equal(model.extra_kernel_rows(u), want)


def test_fibre_requires_transversality():
    # pairing a model with itself duplicates the blow-down directions:
    # the combined Jacobian drops rank over the divisor
    m = smooth_factor_model(4, 2, 0)
    dup = smooth_factor_model(4, 2, 0)
    with pytest.raises(NotTransverse):
        fibre_product(m, dup, seed=5)


def test_ssc_surface_examples(rng):
    model = ssc_surface_model()
    report = check_groupoid_axioms(model, n_samples=10_000, seed=11)
    assert report.ok and report.max_residual < 1e-12
    for _ in range(200):
        g = model.random_arrow(rng)
        inv = model.invert(g)
        # t(inv) = s(g) exactly: zeta e^Z e^{-Z} = zeta
        assert model.target_of(inv) == pytest.approx(model.source_of(g), abs=1e-14)


def test_ssc_surface_presents_fundamental_groupoid():
    model = ssc_surface_model()
    two_pi = 2 * np.pi
    zeta = (0.4, 0.7)
    for m in (-2, 1, 3):
        for n in (-1, 2):
            g = (0.0, two_pi * m) + zeta
            h = (0.0, two_pi * n) + zeta
            assert model.source_of(g) == pytest.approx(model.target_of(g), abs=1e-12)
            out = model.compose(g, h)
            assert out[1] == pytest.approx(two_pi * (m + n))


def test_action_groupoid_matches_zero_residue_isotropy(rng):
    from egl.symplectic import symplectic_zero_residue_model

    act = action_groupoid_model()
    sym = symplectic_zero_residue_model().model

    # the chart relabelling (z, a, b, c) -> ((b, c), (a, z)) intertwines
    # the two models on samples
    def to_action(g):
        return (g[4], g[5], g[6], g[7], g[2], g[3], g[0], g[1])

    for _ in range(500):
        g, h = sym.random_composable_pair(rng)
        lhs = to_action(sym.compose(g, h))
        rhs = act.compose(to_action(g), to_action(h))
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-12
        assert act.source_of(to_action(g)) == pytest.approx(
            (sym.source_of(g)[0], sym.source_of(g)[1],
             sym.source_of(g)[2], sym.source_of(g)[3]), abs=1e-13)


def test_elliptic_ideal_pullback_examples(rng):
    model = case1_model(4)
    # a = 0, b = 2: source and target pullbacks vanish, ratio |b|^2 = 4
    g = (0.1, 0.2, 0.3, 0.4, 0.0, 0.0, 2.0, 0.0)
    assert elliptic_ideal_pullback(model, g) == (0.0, 0.0, 4.0)
    # units have ratio exactly 1
    u = model.unit_at((0.5, 0.5, 0.3, -0.2))
    assert elliptic_ideal_pullback(model, u)[2] == 1.0
    # the ratio is strictly positive on every valid arrow
    nc = caseIV_model(6, 2)
    for _ in range(1000):
        g = nc.random_arrow(rng)
        s_val, t_val, ratio = elliptic_ideal_pullback(nc, g)
        assert ratio > 0
        assert s_val == pytest.approx(t_val * ratio, rel=1e-12, abs=1e-300)


# A base point on the divisor and one off it, in each model's base layout.
_ON_OFF_PLANE = ((0.0, 0.0), (0.5, 0.2))
_ON_OFF_FIRST_LINE = ((0.0, 0.0, 0.3, 0.1), (0.5, 0.2, 0.3, 0.1))
_ON_OFF_LAST_LINE = ((0.1, 0.2, 0.0, 0.0), (0.3, -0.1, 0.5, 0.2))
_STRATA_CASES = {
    "case1": _ON_OFF_LAST_LINE,
    "caseIV": ((0.0, 0.0, 0.4, 0.1), (0.5, 0.2, 0.4, 0.1)),
    "case2": _ON_OFF_LAST_LINE,
    "sympl-nonzero": _ON_OFF_PLANE,
    "sympl-zero": _ON_OFF_FIRST_LINE,
    "ssc-surface": _ON_OFF_PLANE,
    "action-groupoid": _ON_OFF_FIRST_LINE,
    "fibre:case1,case1": _ON_OFF_FIRST_LINE,
    "fibre:case1,pair": _ON_OFF_LAST_LINE,
    "H(zero)": _ON_OFF_FIRST_LINE,
    **{f"psi:{key}": _ON_OFF_PLANE for key in psi_domain_candidates()},
}


def _strata_model(name):
    if name == "H(zero)":
        return zero_residue_target_model()
    if name.startswith("psi:"):
        return psi_domain_candidates()[name[4:]]
    return build_model(name).chart


def test_strata_cases_cover_every_model_with_a_divisor():
    # the pair groupoid has no divisor, so any two points are joined
    assert set(MODEL_NAMES) - set(_STRATA_CASES) == {"pair"}


@pytest.mark.parametrize("name", sorted(_STRATA_CASES))
def test_arrow_between_refuses_endpoints_on_different_strata(name):
    # extend_from turns NotComposable into an all-NaN arrow; any other
    # error, or an arrow, would be a crash or an invalid sample
    model = _strata_model(name)
    on, off = _STRATA_CASES[name]
    u = uniforms(rng_for(7, f"strata:{name}"), model.widths.between)
    for p, q in ((on, off), (off, on)):
        with pytest.raises(NotComposable):
            model.arrow_between(p, q, u)
    assert model.arrow_valid(model.arrow_between(on, on, u))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_arrow_between_joins_p_to_the_point_its_like_sampler_draws(name):
    # extend_from's contract, on a block of 400 base points (some on the
    # divisor) and on one point zeroed on the divisor slots: no row is
    # refused, and the arrow runs from q = sample_base_like(p) to p
    model = build_model(name).chart
    w, n = model.widths, 400
    rng = rng_for(7, f"join:{name}")
    p = model.random_base(rng, n)
    u = uniforms(rng, w.extend, n)
    q = _full(model.sample_base_like(p, u[:w.like]), n)
    g = _full(model.arrow_between(p, q, u[w.like:]), n)
    assert not np.isnan(np.array(g)).all(axis=0).any()
    assert (_maxdiff(model.target_of(g), p) <= COMPOSABLE_TOL).all()
    assert (_maxdiff(model.source_of(g), q) <= COMPOSABLE_TOL).all()
    p = tuple(0.0 if i in model.divisor_slots else float(x[0]) for i, x in enumerate(p))
    u = uniforms(rng, w.extend)
    q = model.sample_base_like(p, u[:w.like])
    g = model.arrow_between(p, q, u[w.like:])
    assert _maxdiff(model.target_of(g), p) <= COMPOSABLE_TOL
    assert _maxdiff(model.source_of(g), q) <= COMPOSABLE_TOL


@pytest.mark.parametrize("name", ["sympl-zero", "action-groupoid"])
def test_arrow_between_refuses_two_points_of_the_divisor_plane(name):
    # each point of {u = 0} is an orbit of its own: no arrow joins two of
    # them, on a point or in a block row, while a row joining p to itself
    # is an arrow
    model = build_model(name).chart
    p, q, u = (0.0, 0.0, 0.3, -0.2), (0.0, 0.0, 0.7, 0.5), (0.1, 0.2, 0.3, 0.4)
    with pytest.raises(NotComposable):
        model.arrow_between(p, q, u)

    def block(*rows):
        return tuple(np.array(c) for c in zip(*rows))

    g = np.array(_full(model.arrow_between(block(p, p), block(q, p), block(u, u)), 2))
    assert np.isnan(g[:, 0]).all()
    assert model.arrow_valid(tuple(g[:, 1].tolist()))


def test_relabel_reads_the_isotropy_law_through_the_arrow_order():
    # the affine law reads (b, c) at arrow slots 0..3; moved to slots
    # 6, 7, 0, 1 it still holds, and a product bent at one of those slots
    # fails with witnesses.  The law reads only (b, c), so a product bent
    # at a point slot passes, as it does on the action groupoid itself
    inner = action_groupoid_model()
    order = (6, 7, 0, 1, 4, 5, 2, 3)
    moved = _relabel(inner, "moved", range(4), order)
    rep = check_isotropy(moved, n_samples=300, seed=7)
    assert rep.verdict == "pass" and rep.passed == 300
    for r, slot in enumerate(order):
        bent = check_isotropy(perturbed_model(moved, component=slot), 300, 7)
        want = check_isotropy(perturbed_model(inner, component=r), 300, 7).verdict
        assert bent.verdict == want == ("fail" if r < 4 else "pass")
        assert bool(bent.witnesses) == (r < 4)


_FACTORS = {f"smooth-factor(6,2,{j})": j for j in (0, 1)}


@pytest.mark.parametrize("name", sorted(_STRATA_CASES) + sorted(_FACTORS))
def test_divisor_slots_name_the_deepest_stratum(name):
    # a point zeroed on the slots is on the deepest stratum: no arrow
    # joins it to a point where any one slot pair is nonzero
    model = (smooth_factor_model(6, 2, _FACTORS[name]) if name in _FACTORS
             else _strata_model(name))
    slots = model.divisor_slots
    assert slots and len(slots) % 2 == 0
    on = tuple(0.0 if i in slots else 0.3 - 0.1 * i for i in range(model.base_dim))
    u = uniforms(rng_for(7, f"slots:{name}"), model.widths.between)
    assert model.arrow_valid(model.arrow_between(on, on, u))
    for i in slots[::2]:
        off = on[:i] + (0.5, 0.2) + on[i + 2:]
        with pytest.raises(NotComposable):
            model.arrow_between(on, off, u)


_LAYOUT = json.loads((Path(__file__).parent / "draw_layout_philox4x64_v4.json")
                     .read_text(encoding="utf-8"))


def test_draw_layout_file_names_the_current_generator():
    # a new draw layout is a versioned break: bump ARTIFACT["rng"] and
    # record a new layout file rather than editing this one
    assert _LAYOUT["generator"] == ARTIFACT["rng"]
    assert set(_LAYOUT["models"]) == set(MODEL_NAMES)
    assert set(_LAYOUT["pairs"]) == {"sympl-nonzero", "sympl-zero"}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_draw_layout_is_pinned(name):
    """The first composable triples and base points of each seeded stream."""
    model = build_model(name).chart
    rng = rng_for(_LAYOUT["seed"], f"layout:{name}")
    triples = [model.random_composable_triple(rng) for _ in range(3)]
    bases = [model.random_base(rng) for _ in range(3)]
    pinned = _LAYOUT["models"][name]
    drawn = [list(g) for triple in triples for g in triple] + [list(p) for p in bases]
    expected = [g for triple in pinned["triples"] for g in triple] + pinned["bases"]
    assert len(drawn) == len(expected)
    for got, want in zip(drawn, expected):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", ["sympl-nonzero", "sympl-zero"])
def test_pair_draw_layout_is_pinned(name):
    """The first pair parameters of the multiplicative check's stream."""
    sym = build_model(name).symplectic
    rng = rng_for(_LAYOUT["seed"], f"multiplicative:{name}")
    pinned = _LAYOUT["pairs"][name]
    drawn = [sym.pair_param[1](uniforms(rng, sym.pair_width)) for _ in pinned]
    for got, want in zip(drawn, pinned):
        assert list(got) == pytest.approx(want, rel=1e-12, abs=1e-15)
