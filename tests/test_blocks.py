"""Block evaluation of the structure maps and of the sampled suites.

Every structure map takes a point (a tuple of floats) or a block (a
tuple of (N,) columns); both must give the same bits.  The suites built
on blocks must report exactly what sample-by-sample evaluation reported,
and must fail with a witness where that evaluation crashed.
"""

import cmath
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egl.checks import (AXIOM_NAMES, _Accumulator, _gap, _round_tuple,
                        check_groupoid_axioms, check_ideal, check_isotropy,
                        check_morphism, morphism_beta, perturbed_model, rng_for)
from egl.errors import ChartInvalid, NotComposable
from egl.groupoids import (_cabs, _cdiv, _cexp, _cmul, _square, case1_model,
                           case2_quotient_model, caseIV_model, ideal_values,
                           smooth_factor_model)
from egl.kernel import SmoothMap
from egl.registry import MODEL_NAMES, build_model
from egl.report import RunConfig, run_verify
from egl.symplectic import (PSI_SERIES_THRESHOLD, _psi_coefficient,
                            morphism_phi_nonzero, morphism_phi_zero,
                            morphism_psi, psi_domain_candidates,
                            symplectic_nonzero_residue_model,
                            symplectic_zero_residue_model,
                            zero_residue_target_model)

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


@settings(max_examples=300, deadline=None)
@given(small, st.floats(-20.0, 20.0), finite, finite)
def test_real_pair_exp_modulus_and_square_are_cpythons(re, im, x, y):
    point, block = _both_ways(_cexp, re, im)
    w = cmath.exp(complex(re, im))
    assert _bits(point) == _bits(block) == _bits([w.real, w.imag])
    r = abs(complex(x, y))
    assert _bits([_cabs(x, y), float(_cabs(np.array([x]), np.array([y]))[0])]) == _bits([r, r])
    assert _bits([_square(r), float(_square(np.array([r]))[0])]) == _bits([r ** 2, r ** 2])


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


# ---------------------------------------------------------------------------
# the block suites against sample-by-sample evaluation
# ---------------------------------------------------------------------------

def _reference_axioms(model, n_samples, seed, tol=1e-8, sampler=None):
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
        g, h, k = (sampler or model.random_composable_triple)(rng)
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

    def sampler(rng):
        drawn = pair.random_composable_triple(rng)
        return special if rng.uniform() < 0.3 else drawn

    model = replace(pair, source_of=nan_at_gh(pair.source_of),
                    target_of=nan_at_gh(pair.target_of))
    rep = check_groupoid_axioms(model, n_samples=700, seed=2, sampler=sampler)
    assert _text(rep) == _text(_reference_axioms(model, 700, 2, sampler=sampler))
    assert {w["identity"] for w in rep.witnesses} == {"t(m(g,h))=t(g)"}


def test_perturbed_models_report_as_sample_by_sample():
    for model in (caseIV_model(6, 3), symplectic_zero_residue_model().model,
                  build_model("action-groupoid").chart):
        bad = perturbed_model(model, component=1)
        assert check_groupoid_axioms(bad, 600, 9).to_dict() \
            == _reference_axioms(bad, 600, 9).to_dict()


def test_pointwise_morphism_evaluator_gives_the_same_report():
    bundle = morphism_phi_zero()
    f = bundle.f
    plain = SmoothMap(f.domain_dim, f.codomain_dim, f.func, f.domain_predicate, f.name)
    want = check_morphism(bundle, n_samples=300, seed=4).to_dict()
    assert check_morphism(replace(bundle, f=plain), n_samples=300, seed=4).to_dict() == want


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


# ---------------------------------------------------------------------------
# pinned report bytes
# ---------------------------------------------------------------------------

_DIGESTS = json.loads((Path(__file__).parent / "report_digests_philox4x64_v1.json")
                      .read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", _DIGESTS["reports"],
                         ids=lambda e: f"{e['model']}:{e['dim']}:{e['k']}:{e['check']}")
def test_structure_map_reports_keep_their_bytes(entry):
    cfg = RunConfig(models=[entry["model"]], checks=[entry["check"]],
                    seed=_DIGESTS["seed"], samples=_DIGESTS["samples"],
                    dim=entry["dim"], k=entry["k"])
    text = run_verify(cfg).to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == entry["sha256"]
