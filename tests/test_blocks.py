"""Block evaluation of the structure maps, forms and sampled suites.

Every structure map takes a point (a tuple of floats) or a block (a
tuple of (N,) columns), and every form a point or a coordinate-major
block; both must give the same bits.  The suites built on blocks must
report exactly what sample-by-sample evaluation reported, and must fail
with a witness where that evaluation crashed.
"""

import cmath
import hashlib
import itertools
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egl.checks as checks
import egl.groupoids as groupoids
from egl.checks import (AXIOM_NAMES, _Accumulator, _dense_arrows, _gap, _jacobians,
                        _round_tuple, _unit_vectors, check_algebroid, check_groupoid_axioms,
                        check_ideal, check_isotropy, check_morphism,
                        check_multiplicative, check_poisson, check_symplectic,
                        check_zero_residue_variant, lie_algebroid_of, morphism_beta,
                        non_jacobi_bivector, perturbed_model, rng_for, schouten_residual)
from egl.errors import (ChartInvalid, ConfigError, NonFiniteValue, NotComposable,
                        NotTransverse, SamplerExhausted, StencilOutsideDomain)
from egl.groupoids import (GroupoidChartModel, _cabs, _cdiv, _cexp, _clog, _cmul, _probes,
                           _square, case1_model, case2_quotient_model, caseIV_model,
                           fibre_product, ideal_values, smooth_factor_model,
                           ssc_surface_model, uniforms)
from egl.kernel import (DIFFERENCED, NOT_FINITE, OFF_ALONG, OFF_DOMAIN, SmoothMap,
                        exterior_derivative, jacobian, nullspace, pullback, pullback_at,
                        subspace_angle)
from egl.registry import MODEL_NAMES, build_model
from egl.report import RunConfig, run_verify
from egl.signedperm import SignedPermutation, semidirect_mul
from egl.symplectic import (PSI_SERIES_THRESHOLD, _psi_coefficient,
                            morphism_phi_nonzero, morphism_phi_zero,
                            morphism_psi, nonzero_target_Omega,
                            pair_groupoid_symplectic, psi_domain_candidates,
                            real_form_conventions,
                            symplectic_nonzero_residue_model,
                            symplectic_zero_residue_model, zero_residue_target_model,
                            zero_target_Omega)

ROWS = 256


# ---------------------------------------------------------------------------
# the real-pair arithmetic against CPython's complex type
# ---------------------------------------------------------------------------

def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _both_ways(fn, *args):
    """fn on Python floats, and fn on one-row columns read back as floats."""
    point = fn(*args)
    block = fn(*(np.array([a]) for a in args))
    return [float(x) for x in point], [float(np.asarray(x)[0]) for x in block]


finite = st.floats(-1e6, 1e6, allow_subnormal=False)
small = st.floats(-3.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(finite, finite, finite, finite)
def test_real_pair_product_and_quotient_are_cpythons(ar, ai, br, bi):
    point, block = _both_ways(_cmul, ar, ai, br, bi)
    z = complex(ar, ai) * complex(br, bi)
    assert _bits(point) == _bits(block) == _bits([z.real, z.imag])
    if br == 0 and bi == 0:
        with pytest.raises(ZeroDivisionError):
            _cdiv(ar, ai, br, bi)
        return
    point, block = _both_ways(_cdiv, ar, ai, br, bi)
    q = complex(ar, ai) / complex(br, bi)
    assert _bits(point) == _bits(block) == _bits([q.real, q.imag])


# numerator and denominator of one quotient per row: |br| > |bi|, |br| < |bi|,
# |br| = |bi|, NaN and infinite denominators, signed zeros in the numerator,
# and zero denominators (a point raises, a block row is NaN)
MIXED_QUOTIENTS = [(1.5, -2.0, 3.0, 0.5), (-0.0, 2.0, 0.25, -4.0), (0.0, -0.0, 2.0, -2.0),
                   (-0.0, -0.0, -3.0, 3.0), (1.0, 2.0, math.nan, 1.0), (1.0, 2.0, 1.0, math.nan),
                   (-0.0, 0.0, math.inf, 1.0), (0.0, -1.0, 2.0, -math.inf),
                   (1.0, 1.0, math.inf, -math.inf), (1.0, 0.0, 0.0, 0.0), (-0.0, 0.0, -0.0, 0.0),
                   (2.0, -7.0, -1e-300, 5e-301)]


def test_a_block_mixing_smiths_branches_has_each_rows_bits():
    block = _cdiv(*(np.array(column) for column in zip(*MIXED_QUOTIENTS)))
    for i, row in enumerate(MIXED_QUOTIENTS):
        got = [float(block[0][i]), float(block[1][i])]
        try:
            point = _cdiv(*row)
        except ZeroDivisionError:
            assert row[2] == row[3] == 0 and math.isnan(got[0]) and math.isnan(got[1])
            continue
        assert _bits(got) == _bits(point), row


def _row_loop(x, n):
    out = np.empty((len(x), n))
    for row, c in zip(out, x):
        row[...] = c
    return out


def test_stacked_columns_have_the_bits_of_the_row_loop():
    n = 4
    floats = np.array([[-0.0, math.nan, math.inf, 1e-310], [2.5, -math.inf, 0.0, -1.0]])
    bools = np.array([True, False, False, True])
    for x in [(0.5, floats[0], -0.0, floats[1]), tuple(floats), (bools, ~bools),
              (np.arange(n), np.arange(n) - 7), (floats[0], bools, np.arange(n))]:
        out = groupoids._stack(x, n)
        assert out.dtype == float and _bits(out) == _bits(_row_loop(x, n))
    out = groupoids._stack(tuple(floats), n)
    out[0, 1] = 3.0                     # a fresh array: the columns stay as they were
    assert math.isnan(floats[0, 1])


@settings(max_examples=300, deadline=None)
@given(small, st.floats(-20.0, 20.0), finite, finite)
def test_real_pair_exp_modulus_and_square_are_cpythons(re, im, x, y):
    point, block = _both_ways(_cexp, re, im)
    w = cmath.exp(complex(re, im))
    assert _bits(point) == _bits(block) == _bits([w.real, w.imag])
    r = abs(complex(x, y))
    assert _bits([_cabs(x, y), float(_cabs(np.array([x]), np.array([y]))[0])]) == _bits([r, r])
    assert _bits([_square(r), float(_square(np.array([r]))[0])]) == _bits([r ** 2, r ** 2])


SPECIAL = [(800.0, 0.0), (800.0, 1.0), (-800.0, 1.0), (710.0, 0.5), (709.9, 3.0),
           (1e308, -2.0), (0.0, math.inf), (1.0, -math.inf), (math.inf, 0.0),
           (-math.inf, 1.0), (math.inf, math.nan), (math.nan, 0.0), (0.0, math.nan),
           (0.0, 0.0), (-0.0, -0.0), (3.0, -0.0)]


def _same_bits(point, block):
    point = np.array([float(x) for x in point])
    block = np.array([float(np.asarray(x)[0]) for x in block])
    assert np.array_equal(point, block, equal_nan=True)
    numbers = ~np.isnan(point)
    assert np.array_equal(np.signbit(point)[numbers], np.signbit(block)[numbers])


@pytest.mark.parametrize("re,im", SPECIAL)
def test_exp_and_log_of_a_point_are_those_of_its_one_row_block(re, im):
    # cmath.exp raises on overflow and on an infinite phase; the point
    # must give the block's (inf, nan) values instead
    _same_bits(_cexp(re, im), _cexp(np.array([re]), np.array([im])))
    _same_bits(_clog(re, im), _clog(np.array([re]), np.array([im])))


@settings(max_examples=300, deadline=None)
@given(finite, finite)
def test_real_pair_log_is_cmaths(re, im):
    point, block = _both_ways(_clog, re, im)
    if re == 0 and im == 0:
        want = [-math.inf, math.atan2(im, re)]
    else:
        w = cmath.log(complex(re, im))
        want = [w.real, w.imag]
    assert _bits(point) == _bits(block) == _bits(want)


def _around(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


# the branches of CPython's c_log: zeros, subnormal moduli, moduli over
# DBL_MAX / 4, non-finite parts, and h at the ends of log1p's 0.71..1.73
LOG_EDGES = ([0.0, -0.0, 5e-324, -1e-310, 0.5, -1.0, 3.0, math.inf, -math.inf, math.nan]
             + _around(2.2250738585072014e-308) + _around(1.7976931348623157e308 / 4)
             + _around(0.71) + _around(1.73) + [0.51, 1.2, 1.25, -1.22])


def test_log_of_a_block_is_cmaths_row_by_row():
    re, im = (c.ravel() for c in np.meshgrid(LOG_EDGES, LOG_EDGES))
    rows = []
    for x, y in zip(re.tolist(), im.tolist()):
        if x == 0 and y == 0:
            rows.append((-math.inf, math.atan2(y, x)))
        else:
            w = cmath.log(complex(x, y))
            rows.append((w.real, w.imag))
    _assert_same(_clog(re, im), rows, "log")


def test_a_large_exponent_leaves_the_chart_instead_of_crashing():
    model = ssc_surface_model()
    g = (800.0, 0.0, 1.0, 0.0)
    assert model.arrow_valid(g)
    with np.errstate(all="ignore"):
        block = model.target_of(tuple(np.array([x]) for x in g))
    _same_bits(model.target_of(g), block)
    assert math.isinf(model.target_of(g)[0])
    with pytest.raises(ChartInvalid):
        model.compose(g, model.invert(g))
    assert not model.m.defined_at(np.array((0.0, 0.0, 1.0, 0.0) + g))


def _psi_complex(Z: complex, zbar: complex, threshold: float) -> complex:
    """The covering coefficient in Python complex arithmetic."""
    if abs(zbar) < threshold:
        u = zbar * Z
        return Z * (1 + u / 2 + u * u / 6 + u ** 3 / 24 + u ** 4 / 120)
    return (cmath.exp(zbar * Z) - 1.0) / zbar


def test_psi_coefficient_matches_the_complex_expression():
    rng = np.random.default_rng(5)
    zbars = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
             complex(3e-7, -2e-7), complex(-9e-7, 1e-9), complex(1e-6, 0.0)]
    zbars += [complex(*v) for v in rng.uniform(-1.2, 1.2, size=(40, 2))]
    Zs = [complex(*v) for v in rng.uniform(-0.8, 0.8, size=(len(zbars), 2))]
    want = [_psi_complex(Z, w, PSI_SERIES_THRESHOLD) for Z, w in zip(Zs, zbars)]
    cols = [np.array(c) for c in ([Z.real for Z in Zs], [Z.imag for Z in Zs],
                                  [w.real for w in zbars], [w.imag for w in zbars])]
    block = _psi_coefficient(*cols, PSI_SERIES_THRESHOLD)
    for i, (Z, w) in enumerate(zip(Zs, zbars)):
        point = _psi_coefficient(Z.real, Z.imag, w.real, w.imag, PSI_SERIES_THRESHOLD)
        assert _bits(point) == _bits([want[i].real, want[i].imag]), (Z, w)
        assert _bits([block[0][i], block[1][i]]) == _bits(point), (Z, w)


# ---------------------------------------------------------------------------
# block == point, map by map
# ---------------------------------------------------------------------------

def _block_models():
    models = {name: build_model(name).chart for name in MODEL_NAMES}
    models["caseIV(6,3)"] = caseIV_model(6, 3)
    models["smooth-factor(4,2,1)"] = smooth_factor_model(4, 2, 1)
    models["H(zero)"] = zero_residue_target_model()
    models.update({f"psi:{key}": m for key, m in psi_domain_candidates().items()})
    nonzero = symplectic_nonzero_residue_model()
    zero = symplectic_zero_residue_model()
    models["sympl-nonzero:invert_variant"] = replace(nonzero.model,
                                                     invert=nonzero.invert_variant)
    models["sympl-zero:compose_variant"] = replace(zero.model,
                                                   compose_raw=zero.compose_variant)
    models["perturbed:case2@8"] = perturbed_model(case2_quotient_model(4), component=8)
    models["perturbed:caseIV@0"] = perturbed_model(caseIV_model(4, 2), component=0)
    return models


BLOCK_MODELS = _block_models()


def _negated_zeros(point):
    return tuple(-0.0 if x == 0 else x for x in point)


def _sample_rows(model, seed=3):
    """Composable pairs and base points from the samplers, units at those
    points (on the divisor among them), and units with every zero negated."""
    rng = rng_for(seed, f"blocks:{model.name}")
    pairs, bases = [], []
    while len(pairs) < ROWS - 16:
        g, h, _ = model.random_composable_triple(rng)
        pairs.append((g, h))
        bases.append(model.random_base(rng))
    for p in bases[:8]:
        u = model.unit_at(p)
        pairs.append((u, u))
        bases.append(_negated_zeros(p))
        pairs.append((_negated_zeros(u), _negated_zeros(u)))
    return pairs, bases


def _columns(points):
    return tuple(np.array(points, dtype=float).T.copy())


def _assert_same(block_out, point_outs, what):
    n = len(point_outs)
    got = np.array([np.broadcast_to(np.asarray(c, dtype=float), (n,)) for c in block_out])
    want = np.array(point_outs, dtype=float).T
    assert got.shape == want.shape, what
    assert np.array_equal(got, want, equal_nan=True), what
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got)[numbers], np.signbit(want)[numbers]), what


def _flat_factors(factors):
    return tuple(x for factor in factors for x in factor)


@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
def test_block_maps_equal_point_maps_bit_for_bit(name):
    model = BLOCK_MODELS[name]
    pairs, bases = _sample_rows(model)
    gs = [g for g, _ in pairs]
    G, H, P = _columns(gs), _columns([h for _, h in pairs]), _columns(bases)
    assert any(x == 0 and math.copysign(1.0, x) < 0 for g in gs for x in g) \
        or name.startswith("pair")
    for field in ("source_of", "target_of", "invert", "beta_map"):
        fn = getattr(model, field)
        if fn is not None:
            _assert_same(fn(G), [fn(g) for g in gs], field)
    _assert_same(model.compose_raw(G, H), [model.compose_raw(g, h) for g, h in pairs],
                 "compose_raw")
    _assert_same(model.unit_at(P), [model.unit_at(p) for p in bases], "unit_at")
    valid = np.broadcast_to(model.arrow_valid(G), (len(gs),))
    assert valid.tolist() == [bool(model.arrow_valid(g)) for g in gs]
    if model.divisor_factors is not None:
        _assert_same(_flat_factors(model.divisor_factors(G)),
                     [_flat_factors(model.divisor_factors(g)) for g in gs], "divisor_factors")
        _assert_same(ideal_values(model.divisor_factors(G)),
                     [ideal_values(model.divisor_factors(g)) for g in gs], "ideal_values")


def _morphisms():
    out = {"phi-nonzero": morphism_phi_nonzero(), "phi-zero": morphism_phi_zero()}
    for name in ("case1", "caseIV", "case2"):
        chart = build_model(name).chart
        if chart.beta_map is not None:
            out[f"beta:{name}"] = morphism_beta(chart)
    cand = psi_domain_candidates()["exp-on-source-conjugate-scaled"]
    out["psi"] = replace(out["phi-nonzero"], f=morphism_psi(), dom=cand)
    return out


@pytest.mark.parametrize("name", sorted(_morphisms()))
def test_morphism_formulas_equal_their_evaluators(name):
    bundle = _morphisms()[name]
    gs = [g for g, _ in _sample_rows(bundle.dom)[0]]
    f = bundle.f
    _assert_same(f.formula(_columns(gs)), [tuple(f(g)) for g in gs], name)


def _mixed_block(rng, d, n):
    """d coordinates of a block of n: columns mixing NaN, inf and signed
    zeros with normal draws, and scalar coordinates; the first is a column."""
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0]

    def column():
        return np.where(rng.random(n) < 0.4, rng.choice(specials, n), rng.normal(size=n))

    return (column(),) + tuple(column() if rng.random() < 0.6 else float(rng.choice(specials))
                               for _ in range(d - 1))


def _point_of(block, i):
    return tuple(float(c[i]) if isinstance(c, np.ndarray) else c for c in block)


def test_block_helpers_give_each_row_the_point_bits():
    rng = np.random.default_rng(20)
    n = 64
    for d in (1, 2, 5, 8):
        for _ in range(10):
            a, b = _mixed_block(rng, d, n), _mixed_block(rng, d, n)
            for x, y in ((a, b), (b, a), (a[1:] + (1.0,), b)):
                with np.errstate(invalid="ignore"):     # inf - inf, as the suites run it
                    block = groupoids._maxdiff(x, y)
                _assert_same([block], [[groupoids._maxdiff(_point_of(x, i), _point_of(y, i))]
                                       for i in range(n)], (d, "maxdiff"))
            finite = groupoids._finite(a)
            assert finite.tolist() == [groupoids._finite(_point_of(a, i)) for i in range(n)]


def test_full_rows_are_independent_writable_float_columns():
    column = np.arange(4.0)
    rows = groupoids._full((1.5, column, -0.0, 2), 4)
    _assert_same(rows, [(1.5, x, -0.0, 2.0) for x in column], "full")
    for row in rows:
        assert row.shape == (4,) and row.dtype == float and row.flags.writeable
    rows[1][:] = 7.0
    rows[2][0] = 1.0
    _assert_same(rows, [(1.5, 7.0, 1.0 if i == 0 else -0.0, 2.0) for i in range(4)], "writes")
    assert column.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_the_axioms_suite_calls_each_map_once_per_input():
    model = case1_model(4)
    calls = {}

    def counted(name):
        real = getattr(model, name)

        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return call

    maps = ("arrow_valid", "source_of", "target_of", "compose_raw", "unit_at", "invert")
    check_groupoid_axioms(replace(model, **{name: counted(name) for name in maps}), 500, 7)
    # source_of: five inputs of the suite, two of the sampler (s(g), s(h))
    assert calls == {"arrow_valid": 10, "source_of": 7, "target_of": 4, "compose_raw": 8,
                     "unit_at": 2, "invert": 1}


# ---------------------------------------------------------------------------
# stated frames, recovered frames and principal angles on blocks
# ---------------------------------------------------------------------------

FRAME_MODELS = sorted(name for name, model in BLOCK_MODELS.items()
                      if model.expected_frame is not None)


def _stack_bits(frames, count):
    """A frame stack, or one frame standing for all ``count`` points, as int64 bits."""
    frames = np.asarray(frames, dtype=float)
    return np.broadcast_to(frames, (count,) + frames.shape[-2:]).view(np.int64)


@pytest.mark.parametrize("name", FRAME_MODELS)
def test_stated_frames_of_a_block_are_the_frames_of_its_points(name):
    model = BLOCK_MODELS[name]
    _, bases = _sample_rows(model)
    block = model.expected_frame(_columns(bases))
    points = np.array([model.expected_frame(p) for p in bases])
    assert np.array_equal(_stack_bits(block, len(bases)), points.view(np.int64))


def test_the_fibre_frames_cover_every_stratum():
    # the stated frames have rank 4 off the divisor, 2 on one factor's
    # divisor and 0 on both
    model = BLOCK_MODELS["fibre:case1,case1"]
    _, bases = _sample_rows(model)
    frames = model.expected_frame(_columns(bases))
    assert set(np.count_nonzero(frames.any(axis=2), axis=1).tolist()) == {0, 2, 4}


@pytest.mark.parametrize("name, base", [("fibre:case1,case1", caseIV_model(4, 2)),
                                        ("fibre:case1,pair", case1_model(4))])
def test_a_fibre_product_states_its_base_models_frame(name, base):
    model = BLOCK_MODELS[name]
    _, bases = _sample_rows(model)
    P = _columns(bases)
    block = model.expected_frame(P)
    assert np.array_equal(block.view(np.int64), base.expected_frame(P).view(np.int64))
    for p in bases:
        assert _bits(model.expected_frame(p).ravel()) == _bits(base.expected_frame(p).ravel())
    # finite on every stratum the base samplers draw: each factor of the
    # joint divisor zero or not, in every combination
    slots = model.divisor_slots
    zero = [(P[i] == 0) & (P[j] == 0) for i, j in zip(slots[::2], slots[1::2])]
    assert len(set(zip(*(z.tolist() for z in zero)))) == 2 ** len(zero)
    assert np.isfinite(block).all()


def test_a_non_finite_base_frame_fails_only_its_rows():
    fibre = build_model("fibre:case1,case1").chart
    base = caseIV_model(4, 2)

    def frame(p):
        rows = base.expected_frame(p)
        return np.where((np.asarray(p[0]) > 0)[..., None, None], np.nan, rows)

    bad = fibre_product(smooth_factor_model(4, 2, 0), smooth_factor_model(4, 2, 1),
                        base_from=replace(base, expected_frame=frame)).expected_frame
    _, bases = _sample_rows(fibre)
    P = _columns(bases)
    got, clean = bad(P), fibre.expected_frame(P)
    nan_rows = P[0] > 0
    assert nan_rows.any() and not nan_rows.all()
    assert np.isnan(got[nan_rows]).all()
    assert np.array_equal(got[~nan_rows].view(np.int64), clean[~nan_rows].view(np.int64))
    rep = check_algebroid(replace(fibre, expected_frame=bad), n_points=40, seed=3)
    assert rep.verdict == "fail" and 0 < rep.passed < rep.samples
    assert rep.max_residual == math.inf
    assert all(w["map"] == "expected_frame" and w["residual"] == math.inf
               and w["p"][0] > 0 for w in rep.witnesses)


def test_stacked_principal_angles_are_the_per_pair_angles():
    rng = np.random.Generator(np.random.Philox(key=12))

    def of_rank(rank):
        return rng.normal(size=(4, rank)) @ rng.normal(size=(rank, 4))

    A = np.array([of_rank(i % 5) for i in range(40)])
    B = np.array([of_rank(i % 5) for i in range(40)])
    B[::5] = 0.0                    # all-zero against all-zero: angle 0
    B[3] = of_rank(1)               # rank 3 against rank 1: pi/2
    B[7, 1, 2] = np.nan             # no basis: NaN
    B[9] = A[9] @ of_rank(4)        # one span, other rows
    angles = subspace_angle(A, B)
    each = np.array([subspace_angle(a, b) for a, b in zip(A, B)])
    assert np.array_equal(angles.view(np.int64), each.view(np.int64))
    assert angles[0] == 0.0 and angles[3] == np.pi / 2 and np.isnan(angles[7])
    assert np.isnan(angles).sum() == 1 and angles[9] < 1e-7


def _point_frame(ts, unit, b, p):
    """dt(ker) at the unit over p, one point at a time: the kernel of every
    row of the algebroid map after the target's, through dt; all NaN
    where ``jacobian`` cannot difference the unit."""
    try:
        J = jacobian(ts, unit(p))
    except (NonFiniteValue, StencilOutsideDomain):
        return np.full((1, b), np.nan)
    kernel = nullspace(J[b:], 1e-6)
    return kernel @ J[:b].T if len(kernel) else np.zeros((0, b))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_recovered_frames_are_the_point_products(name):
    # lie_algebroid_of multiplies one stack per nullspace rank; each
    # frame must be its point's kernel @ Jt.T
    model = build_model(name).chart
    ts, unit = model.maps_for_algebroid()
    b = model.base_dim
    rng = rng_for(5, f"recovered:{name}")
    points = np.column_stack(model.random_base(rng, 60))
    for frame, p in zip(lie_algebroid_of(model, points), points):
        want = _point_frame(ts, unit, b, p)
        assert frame.shape == want.shape
        assert np.array_equal(frame.view(np.int64), want.view(np.int64))


def _lossy_models():
    """Models whose algebroid maps fail at some units: case1(4) whose
    source goes inf where x0 > 0.5 and whose chart ends at x1 = 0.6; and
    the groupoid of units of the plane, whose source is injective (every
    kernel empty), going NaN where x0 > 0.5."""
    base = case1_model(4)
    case1 = replace(base, source_of=lambda g: tuple(
        np.where(np.asarray(g[0]) > 0.5, np.inf, c) for c in base.source_of(g)),
        arrow_valid=lambda g: base.arrow_valid(g) & (np.asarray(g[1]) < 0.6))
    units = GroupoidChartModel(
        name="units(2)", arrow_dim=2, base_dim=2, target_of=tuple, invert=tuple,
        source_of=lambda g: tuple(np.where(np.asarray(g[0]) > 0.5, np.nan, c) for c in g),
        compose_raw=lambda g, h: tuple(g), unit_at=tuple, arrow_valid=lambda g: True)
    return {"case1": case1, "units": units}


@pytest.mark.parametrize("name", ["case1", "units"])
def test_frames_the_recovery_loses_are_all_nan_and_the_rest_keep_their_bits(name):
    # a unit whose stencil leaves the chart, or whose differences are not
    # finite, gets an all-NaN frame; the other frames are the point
    # products.  Empty kernels cannot hold NaN: a block that loses a
    # frame among them comes back as the list
    model = _lossy_models()[name]
    ts, unit = model.maps_for_algebroid()
    b = model.base_dim
    points = rng_for(5, "lost-frames").uniform(-1.0, 1.0, (60, b))
    frames = lie_algebroid_of(model, points)
    assert isinstance(frames, np.ndarray) == (name == "case1")
    lost = 0
    for frame, p in zip(frames, points):
        want = _point_frame(ts, unit, b, p)
        if np.isnan(want).any():
            # NaN rows of the array, or the list's (1, b) frame
            assert frame.size and np.isnan(frame).all()
            lost += 1
        else:
            assert frame.shape == want.shape
            assert np.array_equal(frame.view(np.int64), want.view(np.int64))
    assert 0 < lost < len(points)
    # none recovered: every frame is lost
    far = np.abs(points) + 0.6
    assert all(f.shape == (1, b) and np.isnan(f).all() for f in lie_algebroid_of(model, far))


def _reference_ranks(model, seed):
    """The transversality probes drawn and tested one at a time, and their ranks."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    probes = [model.unit_at((0.0,) * model.base_dim)]
    probes += [model.unit_at(model.random_base(rng)) for _ in range(6)]
    probes += [model.random_arrow(rng) for _ in range(4)]
    gap = _gap_rows(model)
    ranks = [int(np.linalg.matrix_rank(jacobian(gap, g), tol=1e-8)) for g in probes]
    return np.array(probes, dtype=float), ranks


def _gap_rows(model):
    """The gluing rows of a fibre product's algebroid map, as a SmoothMap."""
    ts = model.maps_for_algebroid()[0]
    b = 2 * model.base_dim
    return SmoothMap(ts.domain_dim, ts.codomain_dim - b, lambda g: ts.formula(g)[b:], ts.valid)


@pytest.mark.parametrize("name", ["fibre:case1,case1", "fibre:case1,pair"])
def test_the_transversality_probes_are_the_one_at_a_time_draws(name):
    model = build_model(name).chart
    probes, ranks = _reference_ranks(model, 11)
    stack = _probes(model, 11)
    assert np.array_equal(stack.view(np.int64), probes.view(np.int64))
    assert np.linalg.matrix_rank(jacobian(_gap_rows(model), stack), tol=1e-8).tolist() == ranks
    assert ranks == [2 * model.base_dim] * 11


def test_the_transversality_gate_names_the_first_short_rank(monkeypatch):
    built = []

    def probes(model, seed):
        built.append(model)
        return _probes(model, seed)

    monkeypatch.setattr(groupoids, "_probes", probes)
    m = smooth_factor_model(4, 2, 0)
    with pytest.raises(NotTransverse) as err:
        fibre_product(m, smooth_factor_model(4, 2, 0), seed=5)
    short = [r for r in _reference_ranks(built[0], 5)[1] if r < 8]
    assert short and str(err.value) == f"fibre_product: combined Jacobian rank {short[0]} < 8"


SYMPLECTIC = {"sympl-nonzero": symplectic_nonzero_residue_model(),
              "sympl-zero": symplectic_zero_residue_model(),
              "pair": pair_groupoid_symplectic()}


def _pair_params(sym, rng, n=None):
    """Pair parameters drawn as ``check_multiplicative`` draws them."""
    return sym.pair_param[1](uniforms(rng, sym.pair_width, n))


@pytest.mark.parametrize("name", sorted(SYMPLECTIC))
def test_pair_parametrizations_equal_their_blocks(name):
    # the sampler gives row i of a block the bits of the i-th one-sample
    # draw on a second generator keyed the same way, and so does P
    sym = SYMPLECTIC[name]
    P = sym.pair_param[0]
    blocks, points = rng_for(3, f"pairs:{name}"), rng_for(3, f"pairs:{name}")
    block = _pair_params(sym, blocks, ROWS)
    ws = [_pair_params(sym, points) for _ in range(ROWS)]
    assert all(isinstance(c, np.ndarray) and c.shape == (ROWS,) for c in block)
    assert len(block) == P.domain_dim
    _assert_same(block, ws, f"{name} pair sampler")
    ws += [_negated_zeros(w) for w in ws[:8]] + [(0.0,) * P.domain_dim]
    points = [P.formula(w) for w in ws]
    _assert_same(P.formula(_columns(ws)), points, name)
    _assert_same(P(np.array(ws)).T, points, name)


def _symplectic_forms():
    """Every FormField of egl.symplectic, with the conformal-factor model's."""
    forms = {}
    f_model = symplectic_nonzero_residue_model(f=lambda p: 2.0 + p[0])
    for name, sym in [*SYMPLECTIC.items(), ("sympl-nonzero(f)", f_model)]:
        for field in ("omega_base", "Omega", "Omega_variant"):
            form = getattr(sym, field)
            if form is not None:
                forms[f"{name}.{field}"] = form
    forms["H(zero).Omega"] = zero_target_Omega()
    forms["H(nonzero).Omega"] = nonzero_target_Omega()
    forms.update({f"real_form[{i}]": form for i, form in enumerate(real_form_conventions())})
    return forms


FORMS = _symplectic_forms()


def _form_rows(form, seed=4):
    """Points of the form's domain (generic, with zero and negated-zero
    coordinates among them), and stacks of vectors, basis vectors included."""
    rng = rng_for(seed, f"forms:{form.name}")
    n = form.ambient_dim
    points = rng.normal(size=(ROWS, n))
    points[:40, 2:4] = 0.0
    points[40:80, 2:4] = -0.0
    points[80:90, 0] = -0.0
    vectors = [rng.normal(size=(ROWS, n)) for _ in range(3)]
    for i, v in enumerate(vectors):
        v[:n] = np.roll(np.eye(n), i, axis=1)
    inside = form.defined_at(points)
    assert inside.tolist() == [form.defined_at(p) for p in points]
    assert inside.mean() > 0.5
    return points[inside], [v[inside] for v in vectors]


def _same_values(block, points, what):
    block, points = np.asarray(block), np.asarray(points)
    for part in (np.real, np.imag):
        assert np.array_equal(_bits(part(block)), _bits(part(points))), what


@pytest.mark.parametrize("name", sorted(FORMS))
def test_forms_give_a_point_the_bits_of_its_block(name):
    form = FORMS[name]
    points, vs = _form_rows(form)
    rows = range(len(points))
    _same_values(form(points, vs[:2]), [form(points[i], [v[i] for v in vs[:2]]) for i in rows],
                 "value")
    _same_values(exterior_derivative(form, points, vs),
                 [exterior_derivative(form, points[i], [v[i] for v in vs]) for i in rows],
                 "exterior derivative")
    # a pullback through a stack of Jacobians, as the suites take it
    J = rng_for(4, f"jacobians:{name}").normal(size=(len(points), form.ambient_dim, 5))
    us = [rng_for(4, f"pullback:{name}:{k}").normal(size=(len(points), 5)) for k in (0, 1)]
    _same_values(pullback_at(form, points, J, us),
                 [pullback_at(form, points[i], J[i], [u[i] for u in us]) for i in rows],
                 "pullback")


# ---------------------------------------------------------------------------
# Poisson bivectors on blocks
# ---------------------------------------------------------------------------

BIVECTORS = {
    **{name: (sym.pi_bivector, sym.model.base_dim) for name, sym in SYMPLECTIC.items()},
    "sympl-nonzero(f)": (symplectic_nonzero_residue_model(f=lambda p: 2.0 + p[0]).pi_bivector,
                         2),
    "non-Jacobi": (non_jacobi_bivector(), 4),
}


def _bivector_points(name, dim, count=ROWS):
    """Base points with zero and negated-zero coordinates among them."""
    points = rng_for(5, f"bivector:{name}").normal(size=(count, dim))
    points[:20, 0] = 0.0
    points[20:40, :2] = -0.0
    points[40:50, 1:] = 0.0
    return points


def _reference_schouten(pi, dim, p, h):
    """[pi, pi] at one point from pi at the point and at each of its 2 dim
    stencil points, one call each, as the suite evaluated it per point."""
    p = np.asarray(p, dtype=float)
    steps = [p + h * e for e in np.eye(dim)] + [p - h * e for e in np.eye(dim)]
    at_p = np.asarray(pi(p), dtype=float)
    values = np.array([np.asarray(pi(x), dtype=float) for x in steps])
    grads = (values[:dim] - values[dim:]) / (2 * h)
    worst = 0.0
    for i, j, k in itertools.combinations(range(dim), 3):
        total = 0.0
        for l in range(dim):
            total = total + (at_p[l, i] * grads[l, j, k] + at_p[l, j] * grads[l, k, i]
                             + at_p[l, k] * grads[l, i, j])
        worst = max(worst, abs(2 * total))
    return worst


@pytest.mark.parametrize("name", sorted(BIVECTORS))
def test_bivectors_give_a_point_the_bits_of_its_block(name):
    pi, dim = BIVECTORS[name]
    points = _bivector_points(name, dim)
    block = pi(points.T)
    assert block.shape == (len(points), dim, dim)
    for p, row in zip(points, block):
        for point in (tuple(p.tolist()), p):
            matrix = pi(point)
            assert matrix.shape == (dim, dim)
            assert _bits(matrix) == _bits(row)


@pytest.mark.parametrize("name", sorted(BIVECTORS))
def test_schouten_residual_is_the_per_point_bracket(name):
    pi, dim = BIVECTORS[name]
    points = _bivector_points(name, dim, 60)
    block = schouten_residual(pi, dim, points)
    rows = [schouten_residual(pi, dim, p) for p in points]
    assert _bits(block) == _bits(rows)
    want = [_reference_schouten(pi, dim, p, checks.DEFAULT_PROFILE.fd_step) for p in points]
    assert _bits(block) == _bits(want)


@pytest.mark.parametrize("count", [1, 7, 300])
def test_schouten_residual_calls_pi_twice_per_block(count):
    # once at the points and once on all their stencil points, whatever
    # the block size: not once per point and stencil point
    pi, dim = BIVECTORS["sympl-zero"]
    calls = []

    def counted(p):
        calls.append(np.shape(p[0]))
        return pi(p)

    schouten_residual(counted, dim, _bivector_points("count", dim, count))
    assert calls == [(count,), (2 * dim * count,)]


def test_a_nan_bivector_point_fails_only_that_point():
    sym = SYMPLECTIC["sympl-zero"]
    drawn = []

    def recording(p):
        drawn.append(np.array(p))
        return sym.pi_bivector(p)

    check_poisson(replace(sym, pi_bivector=recording), 30, 7)
    points = drawn[0].T
    bad = points[11]

    def nan_at_bad(p):
        c = sym.pi_bivector(p)
        return np.where((np.asarray(p[0]) == bad[0])[..., None, None], np.nan, c)

    residuals = schouten_residual(nan_at_bad, 4, points)
    assert math.isnan(residuals[11])
    for i, p in enumerate(points):
        if i != 11:
            assert _bits(residuals[i]) == _bits(schouten_residual(sym.pi_bivector, 4, p))
    rep = check_poisson(replace(sym, pi_bivector=nan_at_bad), 30, 7)
    assert rep.verdict == "fail" and rep.passed == rep.samples - 1
    assert len(rep.witnesses) == 1 and math.isnan(rep.witnesses[0]["residual"])
    assert rep.witnesses[0]["p"] == _round_tuple(bad)


def test_nan_in_the_first_block_stays_the_maximum(monkeypatch):
    # blocks of finite residuals after a NaN must not replace it: the
    # report of many blocks is the report of one
    sym = SYMPLECTIC["sympl-zero"]
    drawn = []

    def recording(p):
        drawn.append(np.array(p))
        return sym.pi_bivector(p)

    check_poisson(replace(sym, pi_bivector=recording), 30, 7)
    bad = drawn[0].T[1]

    def nan_at_bad(p):
        c = sym.pi_bivector(p)
        return np.where((np.asarray(p[0]) == bad[0])[..., None, None], np.nan, c)

    model = replace(sym, pi_bivector=nan_at_bad)
    whole = check_poisson(model, 30, 7)
    monkeypatch.setattr(checks, "BLOCK_ROWS", 8)
    maxima = []
    running_max = checks._running_max

    def spy(current, column):
        maxima.append(current)
        return running_max(current, column)

    monkeypatch.setattr(checks, "_running_max", spy)
    blocks = check_poisson(model, 30, 7)
    assert len(maxima) == 4 and all(math.isnan(m) for m in maxima[1:])
    assert math.isnan(blocks.max_residual) and blocks.verdict == "fail"
    assert _text(blocks) == _text(whole)


def _reference_jacobians(f, points, prof):
    """``_jacobians`` point by point: each point's ``jacobian``, or all NaN
    where it raises either error, and the record its error names."""
    out = np.full((len(points), f.codomain_dim, f.domain_dim), np.nan)
    why = []
    for i, p in enumerate(points):
        try:
            out[i] = jacobian(f, p, prof)
            why.append(DIFFERENCED)
        except NonFiniteValue as error:
            assert str(error) == f"non-finite value in jacobian of {f.name}"
            why.append(NOT_FINITE)
        except StencilOutsideDomain as error:
            if str(error) == f"jacobian: base point outside domain of {f.name}":
                why.append(OFF_DOMAIN)
            else:
                prefix = f"jacobian: stencil left domain of {f.name} along axis "
                assert str(error).startswith(prefix)
                why.append(OFF_ALONG + int(str(error)[len(prefix):]))
    return out, why


def test_jacobians_are_the_per_point_loop_and_differentiate_each_point_once():
    rows = []

    def formula(x):
        rows.append(len(x[0]))
        # NaN where x2 > 1, an infinity where x2 < -1.2, finite elsewhere
        bad = np.where(x[2] > 1.0, np.nan, np.where(x[2] < -1.2, np.inf, 0.0))
        return (x[0] * x[1], x[2] * x[2] + bad, x[0] - x[2])

    f = SmoothMap(3, 3, formula, lambda x: (x[0] > -1.5) & (x[1] < 1.8), name="mixed")
    prof = checks.DEFAULT_PROFILE
    refused = non_finite = 0
    seen = set()
    for seed in range(200):
        rng = rng_for(seed, "jacobians")
        points = rng.normal(size=(int(rng.integers(1, 12)), 3))
        # base points and stencils just outside the domain, along axes 0 and 1
        edge = rng.random(len(points))
        points[edge < 0.1, 0] = -1.6
        points[(edge >= 0.1) & (edge < 0.15), 0] = -1.5 + 0.5 * prof.fd_step
        points[(edge >= 0.15) & (edge < 0.2), 1] = 1.8 - 0.5 * prof.fd_step
        want, want_why = _reference_jacobians(f, points, prof)
        try:
            jacobian(f, points, prof)
        except StencilOutsideDomain:
            refused += 1
        except NonFiniteValue:
            non_finite += 1
        rows.clear()
        J, why = _jacobians(f, points, prof)
        assert _bits(J) == _bits(want) and why.tolist() == want_why, seed
        seen.update(want_why)
        # a stack is differenced once, taken or refused, on the stencils of
        # its points inside the domain (none at all when there are none),
        # never point by point
        inside = (points[:, 0] > -1.5 + prof.fd_step) & (points[:, 1] < 1.8 - prof.fd_step)
        assert len(rows) == int(inside.any()) and sum(rows) == 2 * 3 * int(inside.sum()), seed
    assert 20 < refused < 180 and 5 < non_finite < 180
    assert seen == {DIFFERENCED, NOT_FINITE, OFF_DOMAIN, OFF_ALONG, OFF_ALONG + 1}


def test_unit_vectors_are_the_one_vector_draws():
    # one normal slab is the one-vector draws; the norms are np.linalg.norm's
    block, single = rng_for(2, "unit-vectors"), rng_for(2, "unit-vectors")
    for dim in (4, 8, 12):
        got = _unit_vectors(block, dim, 3, 50)
        want = [[v / np.linalg.norm(v) for v in (single.normal(size=dim) for _ in range(3))]
                for _ in range(50)]
        assert np.array_equal(_bits(got), _bits(want))
    assert block.random() == single.random()


def _reference_dense_arrows(sym, rng, count):
    """The dense-chart draws one arrow at a time, as they ran before blocks."""
    model, out = sym.model, []
    while len(out) < count:
        g = model.random_arrow(rng)
        sp, tp = model.source_of(g), model.target_of(g)
        if (sym.Omega.defined_at(g) and sym.omega_base.defined_at(sp)
                and sym.omega_base.defined_at(tp)
                and min(p[0] * p[0] + p[1] * p[1] for p in (sp, tp)) >= 0.15 * 0.15):
            out.append(g)
    return out


@pytest.mark.parametrize("name", ["sympl-nonzero", "sympl-zero"])
def test_dense_arrows_are_the_one_at_a_time_draws(name):
    sym = SYMPLECTIC[name]
    block, single = rng_for(6, f"dense:{name}"), rng_for(6, f"dense:{name}")
    got = _dense_arrows(sym, block, 300)
    assert np.array_equal(_bits(got), _bits(_reference_dense_arrows(sym, single, 300)))
    assert block.random() == single.random()


# ---------------------------------------------------------------------------
# block samplers == one-sample samplers, row by row
# ---------------------------------------------------------------------------

def _sampler_models():
    models = {name: build_model(name).chart for name in MODEL_NAMES}
    models["caseIV(6,3)"] = caseIV_model(6, 3)
    models["H(zero)"] = zero_residue_target_model()
    models.update({f"smooth-factor(6,2,{j})": smooth_factor_model(6, 2, j) for j in (0, 1)})
    models.update({f"psi:{key}": m for key, m in psi_domain_candidates().items()})
    models["perturbed:case2@8"] = perturbed_model(case2_quotient_model(4), component=8)
    return models


SAMPLER_MODELS = _sampler_models()
DRAWS = 300


def _flat(parts):
    return tuple(x for part in parts for x in part)


@pytest.mark.parametrize("name", sorted(SAMPLER_MODELS))
def test_block_samplers_are_the_one_sample_samplers(name):
    # row i of a block of 300 is, bit for bit, the i-th of 300 one-sample
    # calls on a second generator keyed the same way
    model = SAMPLER_MODELS[name]
    blocks, points = rng_for(5, f"samplers:{name}"), rng_for(5, f"samplers:{name}")

    def check(what, draw, flatten=tuple):
        block = flatten(draw(blocks, DRAWS))
        rows = [flatten(draw(points, None)) for _ in range(DRAWS)]
        assert all(isinstance(c, np.ndarray) and c.shape == (DRAWS,) for c in block), what
        _assert_same(block, rows, what)
        return block, rows

    check("random_arrow", model.random_arrow)
    base_block, base_rows = check("random_base", model.random_base)
    # bases hold divisor points, so extend_from runs every branch
    slots = model.divisor_slots
    assert any(all(p[i] == 0 for i in slots) for p in base_rows) or not slots
    extended = model.extend_from(base_block, blocks, DRAWS)
    _assert_same(extended, [model.extend_from(p, points) for p in base_rows], "extend_from")
    check("random_composable_pair", model.random_composable_pair, _flat)
    check("random_composable_triple", model.random_composable_triple, _flat)
    if model.isotropy is not None:
        check("random_isotropy_pair", model.random_isotropy_pair, _flat)


def test_case2_isotropy_residual_is_semidirect_mul_row_by_row():
    # the law measures signedperm's product of each drawn pair as exactly
    # 0, on the block and on each row alone, and the product without the
    # conjugation, or with the other sheet bit, as nonzero
    model = case2_quotient_model(4)
    law = model.isotropy
    g1, g2 = model.random_isotropy_pair(rng_for(5, "case2-law"), DRAWS)
    assert set(g1[-1].tolist()) == set(g2[-1].tolist()) == {0.0, 1.0}
    product = [c.copy() for c in g1]
    no_conj = [c.copy() for c in g1]
    for i in range(DRAWS):
        a, b = (complex(g[-3][i], g[-2][i]) for g in (g1, g2))
        (z,), sp = semidirect_mul(((a,), SignedPermutation((0,), (int(g1[-1][i]),))),
                                  ((b,), SignedPermutation((0,), (int(g2[-1][i]),))))
        product[-3][i], product[-2][i], product[-1][i] = z.real, z.imag, sp.flips[0]
        no_conj[-3][i], no_conj[-2][i], no_conj[-1][i] = (a * b).real, (a * b).imag, sp.flips[0]
    assert np.array_equal(law(model, g1, g2, tuple(product)), np.zeros(DRAWS))
    for i in range(DRAWS):
        row = [tuple(float(c[i]) for c in g) for g in (g1, g2, product)]
        assert law(model, *row) == 0.0
    assert np.array_equal(law(model, g1, g2, tuple(no_conj)) > 0, g1[-1] == 1.0)
    other_sheet = tuple(product[:-1]) + (1.0 - product[-1],)
    assert (law(model, g1, g2, other_sheet) >= 1.0).all()


def test_case2_isotropy_fails_a_compose_without_the_conjugation():
    # the law comes from signedperm, not from the model's own compose
    model = case2_quotient_model(4)
    inner = model.compose_raw

    def no_conj(g, h):
        out = inner(g[:-1] + (0.0 * g[-1],), h)
        return out[:-1] + ((g[-1] + h[-1]) % 2.0,)

    rep = check_isotropy(replace(model, compose_raw=no_conj), 200, 7)
    assert rep.verdict == "fail" and rep.witnesses
    assert check_isotropy(model, 200, 7).verdict == "pass"


# ---------------------------------------------------------------------------
# the block suites against sample-by-sample evaluation
# ---------------------------------------------------------------------------

def _reference_axioms(model, n_samples, seed, tol=1e-8):
    """The axioms suite one sample at a time, as it ran before blocks."""
    rng = rng_for(seed, f"axioms:{model.name}")
    acc = _Accumulator(tol)
    per_axiom = {name: 0.0 for name in AXIOM_NAMES}

    def guarded(fn):
        try:
            return fn()
        except NotComposable as err:
            return err.gap

    for _ in range(n_samples):
        g, h, k = model.random_composable_triple(rng)
        gh, hk = model.compose_raw(g, h), model.compose_raw(h, k)
        ut = model.unit_at(model.target_of(g))
        us = model.unit_at(model.source_of(g))
        ginv = model.invert(g)
        res = {
            "s(m(g,h))=s(h)": _gap(model.source_of(gh), model.source_of(h)),
            "t(m(g,h))=t(g)": _gap(model.target_of(gh), model.target_of(g)),
            "associativity": _gap(model.compose_raw(gh, k), model.compose_raw(g, hk)),
            "left unit": guarded(lambda: _gap(model.compose(ut, g), g)),
            "right unit": guarded(lambda: _gap(model.compose(g, us), g)),
            "right inverse": guarded(lambda: _gap(model.compose(g, ginv), ut)),
            "left inverse": guarded(lambda: _gap(model.compose(ginv, g), us)),
        }
        worst_name = max(res, key=res.get)
        for name, value in res.items():
            if value > per_axiom[name]:
                per_axiom[name] = value
            elif value != value:
                per_axiom[name] = value
                worst_name = name
        acc.add(res[worst_name], {"identity": worst_name, "g": _round_tuple(g)})
    return acc.report("axioms", model.name, seed, details={"per_identity": per_axiom})


def _text(report):
    """The report as canonical JSON, where NaN equals NaN."""
    return json.dumps(report.to_dict(), sort_keys=True)


def _sometimes_offset(model, threshold):
    """compose_raw offset by 1e-3 in its first output where h[0] > threshold."""
    inner = model.compose_raw

    def compose_raw(g, h):
        out = inner(g, h)
        return (out[0] + (h[0] > threshold) * 1e-3,) + out[1:]
    return replace(model, name=f"{model.name}+rare", compose_raw=compose_raw)


@pytest.mark.parametrize("threshold", [0.99, 0.8])
def test_witnesses_are_the_first_failures_in_sample_order(threshold):
    # at 0.99 a handful of samples fail, spread over three blocks; at 0.8
    # the first block alone holds more failures than the witness cap
    model = _sometimes_offset(case1_model(4), threshold)
    rep = check_groupoid_axioms(model, n_samples=1300, seed=5)
    want = _reference_axioms(model, 1300, 5)
    assert rep.to_dict() == want.to_dict()
    assert 0 < rep.samples - rep.passed
    assert len(rep.witnesses) == min(20, rep.samples - rep.passed)


def test_the_last_identity_that_went_nan_is_named():
    # source and target both go NaN at one product gh, so two identities
    # are NaN on the samples that reach it; the later one is named
    pair = build_model("pair").chart
    special = (0.1, 0.2, 0.3, 0.4), (0.3, 0.4, 0.5, 0.6), (0.5, 0.6, 0.7, 0.8)
    gh = pair.compose_raw(*special[:2])

    def nan_at_gh(fn):
        def mutant(x):
            at_gh = np.logical_and.reduce([xi == gi for xi, gi in zip(x, gh)])
            return tuple(c + np.where(at_gh, math.nan, 0.0) for c in fn(x))
        return mutant

    class SometimesSpecial(GroupoidChartModel):
        def random_composable_triple(self, rng, n=None):
            # the special triple where the drawn g[0] lies in the lowest 30%
            # of its box: a function of the draw, so blocks and single draws
            # agree
            drawn = pair.random_composable_triple(rng, n)
            pick = drawn[0][0] < -0.48
            if n is None:
                return special if pick else drawn
            return tuple(tuple(np.where(pick, x, column) for x, column in zip(s, d))
                         for s, d in zip(special, drawn))

    model = SometimesSpecial(**{f.name: getattr(pair, f.name) for f in fields(pair)})
    model = replace(model, source_of=nan_at_gh(pair.source_of),
                    target_of=nan_at_gh(pair.target_of))
    rep = check_groupoid_axioms(model, n_samples=700, seed=2)
    assert _text(rep) == _text(_reference_axioms(model, 700, 2))
    assert {w["identity"] for w in rep.witnesses} == {"t(m(g,h))=t(g)"}


def test_perturbed_models_report_as_sample_by_sample():
    for model in (caseIV_model(6, 3), symplectic_zero_residue_model().model,
                  build_model("action-groupoid").chart):
        bad = perturbed_model(model, component=1)
        assert check_groupoid_axioms(bad, 600, 9).to_dict() \
            == _reference_axioms(bad, 600, 9).to_dict()


def _reference_morphism(bundle, n_samples, seed, form_samples=None, tol=1e-7):
    """The morphism check one pair at a time: each pair is drawn from the
    stream ``morphism:<name>`` until the filter accepts one, and each form
    residual is one ``pullback`` at one point."""
    dom, cod, f = bundle.dom, bundle.cod, bundle.f
    rng = rng_for(seed, f"morphism:{bundle.name}")
    forms_rng = rng_for(seed, f"morphism-forms:{bundle.name}")
    keep = bundle.sample_filter
    acc = _Accumulator(tol)
    form_budget = form_samples if form_samples is not None else max(1, n_samples // 10)
    forms_done = 0
    d = dom.arrow_dim
    for n in checks._block_sizes(n_samples):
        pairs = []
        for _ in range(n):
            gi, hi = dom.random_composable_pair(rng)
            while keep is not None and not (keep(gi) and keep(hi)):
                gi, hi = dom.random_composable_pair(rng)
            pairs.append(gi + hi)
        columns = tuple(np.array(pairs, dtype=float).T.copy())
        g, h = columns[:d], columns[d:]
        form_res = np.zeros(n)
        for i in range(n if bundle.dom_form is not None else 0):
            if forms_done >= form_budget:
                break
            gi = tuple(float(column[i]) for column in g)
            if bundle.dom_form.defined_at(gi) and bundle.cod_form.defined_at(f(gi)):
                vs = _unit_vectors(forms_rng, dom.arrow_dim, 2, 1)[0]
                lhs = pullback(f, bundle.cod_form, gi, vs)
                form_res[i] = abs(lhs - bundle.dom_form(gi, vs))
                forms_done += 1
        res, exits = checks._morphism_residuals(dom, cod, f.formula, g, h, form_res, n)
        acc.add_block(res, lambda i: checks._with_exit({"g": checks._row(g, i)}, exits, i))
    return acc.report(f"morphism:{bundle.name}", f"{dom.name}->{cod.name}", seed)


def test_morphism_reports_are_the_one_pair_at_a_time_reports():
    # phi-nonzero and phi-zero refuse pairs and compare forms; a budget of
    # 10,000 compares every pair, the default stops inside the first block.
    # With the near-miss domain forms every compared pair fails, so the
    # reports also name the pairs compared.
    phis = [morphism_phi_nonzero(), morphism_phi_zero()]
    near_misses = [replace(b, dom_form=SYMPLECTIC[name].Omega_variant)
                   for b, name in zip(phis, ("sympl-nonzero", "sympl-zero"))]
    bundles = phis + near_misses + [morphism_beta(build_model("case1").chart)]
    for bundle in bundles:
        for seed in (4, 9):
            for n, form_samples in ((600, None), (300, 10_000)):
                rep = check_morphism(bundle, n, seed, form_samples=form_samples)
                assert _text(rep) == _text(_reference_morphism(bundle, n, seed, form_samples))


def test_a_morphism_filter_that_refuses_every_pair_exhausts_the_sampler():
    bundle = replace(morphism_phi_zero(), sample_filter=lambda g: g[0] != g[0])
    with pytest.raises(SamplerExhausted, match="^phi-zero: morphism sampler$"):
        check_morphism(bundle, 10, seed=7)


@pytest.mark.parametrize("make", [morphism_phi_nonzero, morphism_phi_zero],
                         ids=["phi-nonzero", "phi-zero"])
def test_a_nan_morphism_coordinate_fails_the_check(make):
    # the form comparison differentiates f: its NaN Jacobians fail their
    # pairs with a witness, where jacobian itself raises NonFiniteValue
    bundle = make()
    formula = bundle.f.formula

    def nan_last(g):
        out = formula(g)
        return out[:-1] + (out[-1] + math.nan,)

    bad = replace(bundle, f=replace(bundle.f, formula=nan_last))
    rep = check_morphism(bad, 1000, seed=7)
    assert rep.verdict == "fail" and rep.passed == 0
    assert len(rep.witnesses) == 20 and all("g" in w for w in rep.witnesses)
    with pytest.raises(NonFiniteValue):
        jacobian(bad.f, (0.3, 0.4) + (0.2,) * (bad.f.domain_dim - 2))


def _reference_variants(sym, n_samples, seed, derived_tol=1e-9, variant_floor=1e-2):
    """The variants check one sample at a time, as it ran before blocks."""
    model = sym.model
    rng = rng_for(seed, f"variants:{model.name}")
    acc = _Accumulator(derived_tol)
    variant_max = 0.0
    for _ in range(n_samples):
        g, h, k = model.random_composable_triple(rng)
        lhs = model.compose_raw(model.compose_raw(g, h), k)
        rhs = model.compose_raw(g, model.compose_raw(h, k))
        acc.add(_gap(lhs, rhs), {"g": _round_tuple(g)})
        lhs_p = sym.compose_variant(sym.compose_variant(g, h), k)
        rhs_p = sym.compose_variant(g, sym.compose_variant(h, k))
        variant_max = max(variant_max, _gap(lhs_p, rhs_p))
    report = acc.report("variants", model.name, seed,
                        details={"variant_max_residual": variant_max,
                                 "variant_floor": variant_floor})
    if variant_max <= variant_floor:
        report.verdict = "fail"
        report.witnesses.append({"residual": variant_max,
                                 "kind": "variant multiplication unexpectedly associative"})
    return report


def test_variants_report_as_sample_by_sample():
    sym = symplectic_zero_residue_model()
    # c + b c' offset in Re c: the derived product fails, with witnesses
    bad = replace(sym, model=perturbed_model(sym.model, component=6))
    # the variant equal to the derived product: "unexpectedly associative"
    same = replace(sym, compose_variant=sym.model.compose_raw)
    for s, n in ((sym, 700), (bad, 700), (same, 300)):
        rep = check_zero_residue_variant(s, n, 3)
        assert _text(rep) == _text(_reference_variants(s, n, 3))
    assert not check_zero_residue_variant(bad, 700, 3).ok
    assert not check_zero_residue_variant(same, 300, 3).ok


def _suite_reports():
    sym_zero = symplectic_zero_residue_model()
    return [check_groupoid_axioms(caseIV_model(4, 2), 600, 3),
            check_groupoid_axioms(build_model("fibre:case1,case1").chart, 100, 3),
            check_ideal(case1_model(4), 100, 3),
            check_isotropy(case2_quotient_model(4), 100, 3),
            check_isotropy(build_model("action-groupoid").chart, 100, 3),
            check_isotropy(sym_zero.model, 100, 3),
            check_morphism(morphism_phi_zero(), 150, 3),
            check_morphism(morphism_phi_nonzero(), 150, 3),
            check_zero_residue_variant(sym_zero, 100, 3),
            check_algebroid(caseIV_model(4, 2), 30, 3)] \
        + [check(SYMPLECTIC[name], n, 3)
           for name in ("sympl-nonzero", "sympl-zero")
           for check, n in ((check_multiplicative, 40), (check_symplectic, 50),
                            (check_poisson, 30))]


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    # one slab per block, the morphism check's first accepted pairs of its
    # stream and form vectors from their own stream in sample order, and
    # the calculus suites' draws made before their blocks: no layout
    # depends on BLOCK_ROWS
    want = [_text(rep) for rep in _suite_reports()]
    monkeypatch.setattr(checks, "BLOCK_ROWS", 7)
    assert [_text(rep) for rep in _suite_reports()] == want


def test_every_sampled_suite_runs_through_the_one_driver(monkeypatch):
    # one _suite call per check, whose report is the check's report: the
    # single place every block of every sampled suite passes through
    want = [_text(rep) for rep in _suite_reports()]
    calls = []
    suite = checks._suite

    def counted(check, *args, **kwargs):
        calls.append(check)
        return suite(check, *args, **kwargs)

    monkeypatch.setattr(checks, "_suite", counted)
    reports = _suite_reports()
    assert calls == [rep.check for rep in reports]
    assert {name.split(":")[0] for name in calls} == {
        "axioms", "algebroid", "ideal", "isotropy", "morphism", "variants",
        "symplectic", "multiplicative", "poisson"}
    assert [_text(rep) for rep in reports] == want


# ---------------------------------------------------------------------------
# failing closed
# ---------------------------------------------------------------------------

# perturbations whose products leave the chart: a delta bit off {0, 1},
# and fibre arrows whose factors no longer agree on the base pair
CHART_EXITS = [("case2", 8), ("fibre:case1,case1", 0), ("fibre:case1,case1", 15),
               ("fibre:case1,pair", 0), ("fibre:case1,pair", 15)]
LAWS = ("left unit", "right unit", "right inverse", "left inverse")


@pytest.mark.parametrize("name,component", CHART_EXITS)
def test_products_outside_the_chart_fail_with_a_witness(name, component):
    bad = perturbed_model(build_model(name).chart, component=component)
    with pytest.raises(ChartInvalid):
        _reference_axioms(bad, 300, 7)
    rep = check_groupoid_axioms(bad, 300, 7)
    assert rep.verdict == "fail"
    assert math.isinf(rep.max_residual)
    assert rep.witnesses
    exits = [w for w in rep.witnesses if w.get("map") == "compose_raw"]
    assert exits and all(w["identity"] in LAWS and math.isinf(w["residual"]) for w in exits)


def test_nan_delta_propagates_instead_of_raising():
    model = case2_quotient_model(4)
    rng = rng_for(3, "nan-delta")
    g, h = model.random_composable_pair(rng)
    g_nan = g[:-1] + (math.nan,)
    out = model.compose_raw(g_nan, h)
    assert math.isnan(out[-1])
    assert math.isnan(model.invert(g_nan)[-1])
    model.source_of(g_nan)
    assert not model.arrow_valid(g_nan)

    inner = model.compose_raw
    bad = replace(model, name="case2+nan-delta",
                  compose_raw=lambda g, h: inner(g, h)[:-1] + (math.nan * g[0],))
    rep = check_groupoid_axioms(bad, 200, 7)
    assert rep.verdict == "fail" and rep.passed == 0
    assert all(math.isinf(rep.details["per_identity"][law]) for law in LAWS)
    assert all(w.get("map") == "compose_raw" for w in rep.witnesses
               if w["identity"] in LAWS)


def test_every_structure_map_suite_fails_closed():
    case2 = case2_quotient_model(4)
    rep = check_isotropy(perturbed_model(case2, component=8), 200, 7)
    assert rep.verdict == "fail" and rep.witnesses[0]["map"] == "compose_raw"
    # each witness names the two isotropy arrows whose product failed
    assert all(len(w["g"]) == len(w["h"]) == case2.arrow_dim for w in rep.witnesses)

    case1 = case1_model(4)
    unit_at = case1.unit_at
    no_b = replace(case1, unit_at=lambda p: unit_at(p)[:-2] + (0.0, 0.0))
    rep = check_ideal(no_b, 200, 7)
    assert rep.verdict == "fail" and math.isinf(rep.max_residual)
    assert rep.witnesses[0]["map"] == "unit_at"

    compose_raw = case1.compose_raw
    zero_b = replace(case1, compose_raw=lambda g, h: compose_raw(g, h)[:-2]
                     + (0.0 * g[0], 0.0 * g[0]))
    rep = check_morphism(morphism_beta(zero_b), 200, 7, tol=1e-9)
    assert rep.verdict == "fail" and math.isinf(rep.max_residual)
    assert {w["map"] for w in rep.witnesses} == {"dom.compose_raw"}


@pytest.mark.parametrize("component", [2, 3])
def test_a_nan_endpoint_fails_the_axioms_instead_of_exhausting_the_sampler(component):
    # a NaN in the z2 slot of s(g) makes arrow_between refuse every
    # candidate over the divisor (w2 != z2 holds for NaN)
    model = build_model("action-groupoid").chart
    source_of = model.source_of

    def nan_source(g):
        out = source_of(g)
        return out[:component] + (out[component] + math.nan,) + out[component + 1:]

    bad = replace(model, source_of=nan_source)
    on_divisor = nan_source(model.unit_at((0.0, 0.0, 0.3, 0.4)))
    h = bad.extend_from(on_divisor, rng_for(1, "nan-endpoint"))
    assert len(h) == 8 and all(math.isnan(x) for x in h)
    rep = check_groupoid_axioms(bad, 300, 7)
    assert rep.verdict == "fail" and rep.passed == 0
    assert math.isinf(rep.max_residual)
    assert rep.witnesses and all(w["map"] == "sample" and math.isinf(w["residual"])
                                 for w in rep.witnesses)


def test_a_nan_bracket_fails_the_poisson_check():
    sym = replace(SYMPLECTIC["sympl-zero"], pi_bivector=lambda p: np.full((4, 4), np.nan))
    rep = check_poisson(sym, 20, 7)
    assert rep.verdict == "fail" and rep.passed == 0
    assert math.isnan(rep.max_residual)
    assert len(rep.witnesses) == 20 and all(math.isnan(w["residual"]) for w in rep.witnesses)


def test_a_poisson_sampler_stuck_on_the_divisor_is_exhausted():
    sym = SYMPLECTIC["sympl-zero"]
    on_divisor = replace(sym, model=replace(sym.model, sample_base=lambda u: (0.0,) * 4))
    with pytest.raises(SamplerExhausted):
        check_poisson(on_divisor, 5, 7)


@pytest.mark.parametrize("name", ["sympl-nonzero", "sympl-zero"])
def test_a_nan_form_fails_the_symplectic_check(name):
    # NaN reaches the pullback comparison, the exterior derivative and
    # the determinants; each fails instead of raising NonFiniteValue
    sym = SYMPLECTIC[name]
    func = sym.Omega.func
    nan_omega = replace(sym.Omega, func=lambda p, vs: func(p, vs) * math.nan)
    rep = check_symplectic(replace(sym, Omega=nan_omega), 30, 7)
    assert rep.verdict == "fail" and rep.passed == 0
    assert math.isnan(rep.details["d_omega_max"])
    assert math.isnan(rep.details["nondeg_min_abs_det"])
    assert rep.witnesses[0]["kind"] == "pullback"
    # each failed condition has its own witness, carrying its own residual
    assert [w["kind"] for w in rep.witnesses[-2:]] == ["closedness", "nondegeneracy"]
    assert all(math.isnan(w["residual"]) for w in rep.witnesses[-2:])


@pytest.mark.parametrize("name", ["sympl-nonzero", "sympl-zero"])
def test_a_nan_determinant_fails_nondegeneracy(name):
    sym = SYMPLECTIC[name]
    grid = sym.nondeg_grid + ((math.nan,) * sym.model.arrow_dim,)
    rep = check_symplectic(replace(sym, nondeg_grid=grid), 30, 7)
    assert rep.passed == rep.samples and rep.verdict == "fail"
    assert math.isnan(rep.details["nondeg_min_abs_det"])
    # closedness holds: the one witness is the determinant floor's, and
    # its residual is the NaN determinant, not the passing d(Omega)
    assert [w["kind"] for w in rep.witnesses] == ["nondegeneracy"]
    assert math.isnan(rep.witnesses[-1]["residual"])


@pytest.mark.parametrize("name", ["sympl-nonzero", "sympl-zero"])
def test_a_nan_product_fails_the_multiplicative_check(name):
    # the Jacobian of m(pr1, pr2) holds NaN: the samples fail with a
    # witness, and jacobian itself still raises NonFiniteValue
    sym = SYMPLECTIC[name]
    inner = sym.model.compose_raw
    model = replace(sym.model, compose_raw=lambda g, h: inner(g, h)[:-1]
                    + (inner(g, h)[-1] + math.nan,))
    rep = check_multiplicative(replace(sym, model=model), 30, 7)
    assert rep.verdict == "fail" and rep.passed == 0
    assert math.isnan(rep.max_residual)
    assert len(rep.witnesses) == 20 and all("params" in w for w in rep.witnesses)
    P = sym.pair_param[0]
    m_of_pair = SmoothMap(P.domain_dim, model.arrow_dim,
                          lambda w: model.m.formula(P.formula(w)))
    with pytest.raises(NonFiniteValue):
        jacobian(m_of_pair, _pair_params(sym, rng_for(1, "nan-product")))


def _chart_cut_at(sym, edge):
    """The symplectic model with its chart cut at g[2] < edge; its
    samplers still draw past the cut."""
    valid = sym.model.arrow_valid
    return replace(sym, model=replace(sym.model, arrow_valid=lambda g: valid(g) & (g[2] < edge)))


def test_arrows_off_the_chart_fail_the_symplectic_check_with_a_witness():
    # the pullback comparison differentiates ts on the chart: a sample
    # whose stencil leaves it fails through a chart exit, residual inf,
    # naming the sample where the arrow itself is off the chart, else ts
    sym = SYMPLECTIC["sympl-nonzero"]
    h = checks.DEFAULT_PROFILE.fd_step
    cut = _chart_cut_at(sym, 0.2)
    rep = check_symplectic(cut, 200, 7)
    assert rep.verdict == "fail" and rep.samples - rep.passed == 44
    assert rep.max_residual == math.inf and len(rep.witnesses) == 20
    assert all(w["kind"] == "pullback" and w["residual"] == math.inf
               and w["map"] == ("sample" if w["g"][2] >= 0.2 else "ts")
               and w["g"][2] >= 0.2 - 1e-4 for w in rep.witnesses)
    arrows = _dense_arrows(cut, rng_for(7, "symplectic:sympl-nonzero"), 200)
    off = arrows[:, 2] >= 0.2 - h
    assert rep.passed == int((~off).sum())
    with pytest.raises(StencilOutsideDomain):
        jacobian(cut.model.ts, arrows)
    # an arrow on the chart whose stencil leaves it along axis 2 names ts
    rep = check_symplectic(_chart_cut_at(sym, arrows[0, 2] + h / 2), 200, 7)
    assert rep.witnesses[0]["g"] == [round(x, 6) for x in arrows[0]]
    assert rep.witnesses[0]["map"] == "ts" and rep.witnesses[0]["residual"] == math.inf
    assert all(w["map"] == "sample" for w in rep.witnesses[1:])
    assert check_symplectic(sym, 200, 7).ok


def test_pairs_off_the_chart_fail_the_multiplicative_check():
    # P and m(pr1, pr2) read the chart through P: a pair that leaves it
    # fails its sample through a chart exit, residual inf, naming the
    # sample where the drawn pair is off the chart, else m
    sym = SYMPLECTIC["sympl-nonzero"]
    h = checks.DEFAULT_PROFILE.fd_step
    P = sym.pair_param[0]
    d = sym.model.arrow_dim
    rep = check_multiplicative(_chart_cut_at(sym, 0.2), 200, 7)
    assert rep.verdict == "fail" and rep.samples - rep.passed == 59
    assert rep.max_residual == math.inf and len(rep.witnesses) == 20
    for w in rep.witnesses:
        gh = P(np.array(w["params"]))
        assert w["residual"] == math.inf and w["map"] == "sample"
        assert max(gh[2], gh[d + 2]) >= 0.2 - 1e-4
    # a pair on the chart whose stencil leaves it names m
    w0 = np.column_stack(_pair_params(sym, rng_for(7, "multiplicative:sympl-nonzero"), 1))[0]
    steps = w0 + h * np.concatenate([np.eye(len(w0)), -np.eye(len(w0))])
    top = max(P(w0)[[2, d + 2]])
    stencil_top = P(steps)[:, [2, d + 2]].max()
    assert stencil_top > top
    rep = check_multiplicative(_chart_cut_at(sym, (top + stencil_top) / 2), 200, 7)
    assert rep.witnesses[0]["params"] == [round(x, 6) for x in w0]
    assert rep.witnesses[0]["map"] == "m" and rep.witnesses[0]["residual"] == math.inf
    assert check_multiplicative(sym, 200, 7).ok


@pytest.mark.parametrize("name,failed", [("sympl-nonzero", (44, 59, 0)),
                                         ("sympl-zero", (70, 129, 25))],
                         ids=["sympl-nonzero", "sympl-zero"])
def test_the_calculus_suites_fail_closed_at_a_chart_edge(name, failed):
    # every calculus suite returns a report on a chart cut under its
    # samplers, and each sample refused at the edge names the sample
    # (or the unit) or the differenced map
    cut = _chart_cut_at(SYMPLECTIC[name], 0.2)
    reports = [check_symplectic(cut, 200, 7), check_multiplicative(cut, 200, 7),
               check_algebroid(cut.model, 100, 7)]
    assert [r.samples - r.passed for r in reports] == list(failed)
    for rep, names in zip(reports, [("sample", "ts"), ("sample", "m"), ("unit_at", "ts")]):
        assert all(w["residual"] == math.inf and w["map"] in names for w in rep.witnesses)
        assert rep.ok or rep.max_residual == math.inf
    if name == "sympl-zero":
        assert {w["map"] for w in reports[2].witnesses} == {"unit_at"}


@pytest.mark.parametrize("name", ["sympl-nonzero", "sympl-zero"])
def test_a_stencil_off_omegas_domain_fails_closedness(name):
    # Omega's domain cut to a comb finer than the stencil: the closedness
    # phase gives the points whose stencil leaves it NaN and fails with a
    # witness, instead of the exterior derivative raising; the pullback
    # comparison evaluates Omega only at its sampled arrows, and passes
    sym = SYMPLECTIC[name]
    comb = replace(sym.Omega, domain_predicate=lambda p: np.floor(p[2] * 1e5) % 2 == 0)
    rep = check_symplectic(replace(sym, Omega=comb), 200, 7)
    assert rep.verdict == "fail" and rep.passed == rep.samples == 200
    assert math.isnan(rep.details["d_omega_max"])
    assert [w["kind"] for w in rep.witnesses] == ["closedness"]
    assert math.isnan(rep.witnesses[0]["residual"])


# ---------------------------------------------------------------------------
# pinned report bytes
# ---------------------------------------------------------------------------

_DIGESTS = json.loads((Path(__file__).parent / "report_digests_philox4x64_v4.json")
                      .read_text(encoding="utf-8"))


def _report_digest(entry, samples):
    cfg = RunConfig(models=[entry["model"]], checks=[entry["check"]],
                    seed=_DIGESTS["seed"], samples=samples, dim=entry["dim"], k=entry["k"])
    return hashlib.sha256(run_verify(cfg).to_json().encode("utf-8")).hexdigest()


def _digest_id(entry):
    return f"{entry['model']}:{entry['dim']}:{entry['k']}:{entry['check']}"


@pytest.mark.parametrize("entry", _DIGESTS["reports"], ids=_digest_id)
def test_structure_map_reports_keep_their_bytes(entry):
    assert _report_digest(entry, _DIGESTS["samples"]) == entry["sha256"]


@pytest.mark.parametrize("entry", _DIGESTS["calculus_reports"], ids=_digest_id)
def test_calculus_reports_keep_their_bytes(entry):
    # default sample counts: the stacked Jacobians and SVDs of the
    # algebroid and symplectic checks must not move a bit
    assert _report_digest(entry, None) == entry["sha256"]


def test_equal_model_arguments_share_one_entry():
    assert build_model("caseIV:3", 6) is build_model(" caseIV", 6, 3)
    assert build_model("caseIV") is build_model("caseIV", None, 2)
    assert build_model("pair") is build_model("pair", 2, 5)
    assert build_model("ssc-surface", 2) is build_model("ssc-surface")
    assert build_model("fibre:case1,pair", 4) is build_model("fibre:case1,pair")
    assert build_model("case1", 6) is not build_model("case1")
    with pytest.raises(ConfigError):
        build_model("fibre:pair,pair")
    cfg = RunConfig(models=["fibre:case1,case1", "case2"], checks=["axioms", "isotropy"],
                    seed=3, samples=200)
    assert run_verify(cfg).to_json() == run_verify(cfg).to_json()
