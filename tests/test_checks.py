"""Check reports, negative controls, algebroid recovery, A-paths."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egl.checks as checks
from egl.apaths import PolarCurve, apath_anchor_residual, apath_rescale
from egl.checks import (_Accumulator, _gap, check_algebroid, check_groupoid_axioms,
                        check_isotropy, lie_algebroid_of, perturbed_model, rng_for)
from egl.divisors import residue_model_frame
from egl.errors import (ChartInvalid, DegenerateRadius, NonFiniteValue, SamplerExhausted,
                        StencilOutsideDomain)
from egl.groupoids import (GroupoidChartModel, case1_model, caseIV_model, fibre_product,
                           pair_groupoid, smooth_factor_model, ssc_surface_model)
from egl.kernel import DEFAULT_PROFILE, jacobian, nullspace, subspace_angle, subspace_equal
from egl.registry import build_model
from egl.symplectic import (psi_domain_candidates, symplectic_nonzero_residue_model,
                            symplectic_zero_residue_model)

PROF = DEFAULT_PROFILE


def test_reports_are_deterministic():
    model = case1_model(4)
    r1 = check_groupoid_axioms(model, n_samples=500, seed=19)
    r2 = check_groupoid_axioms(model, n_samples=500, seed=19)
    assert r1.to_dict() == r2.to_dict()
    assert r1.ok and not r1.witnesses  # witnesses nonempty iff fail
    r3 = check_groupoid_axioms(model, n_samples=500, seed=20)
    assert r3.to_dict() != r1.to_dict()


def test_case1_axiom_suite_at_full_scale():
    rep = check_groupoid_axioms(case1_model(4), n_samples=10_000, seed=7)
    assert rep.ok
    assert rep.max_residual < 1e-9


def test_pair_groupoid_multiplicativity_is_exact():
    from egl.checks import check_multiplicative
    from egl.symplectic import pair_groupoid_symplectic

    # below 1e-10, far inside MULTIPLICATIVE_TOL
    rep = check_multiplicative(pair_groupoid_symplectic(), n_samples=60, seed=3)
    assert rep.ok
    assert rep.max_residual < 1e-10


def test_negative_control_fails_with_witnesses():
    model = perturbed_model(case1_model(4), epsilon=1e-3, component=0)
    rep = check_groupoid_axioms(model, n_samples=200, seed=19)
    assert not rep.ok
    assert rep.witnesses
    assert rep.max_residual >= 1e-3
    assert len(rep.witnesses) <= 20


def test_lie_algebroid_case1_over_divisor():
    # dt(ker ds) over a divisor point spans exactly the coordinate
    # directions along the stratum; radial and angular fields vanish
    model = case1_model(4)
    p = (0.3, -0.9, 0.0, 0.0)
    frame = lie_algebroid_of(model, p, PROF)
    expected = model.expected_frame(p)
    assert subspace_equal(frame, expected, 1e-6)
    ranks = np.linalg.matrix_rank(expected, tol=1e-8)
    assert ranks == 2


def test_lie_algebroid_nonzero_residue_example():
    sym = symplectic_nonzero_residue_model()
    p = (0.3, 0.4)
    frame = lie_algebroid_of(sym.model, p, PROF)
    assert subspace_equal(frame, residue_model_frame("nonzero")(p), 1e-6)
    # over the divisor both collapse to rank zero
    zero_frame = lie_algebroid_of(sym.model, (0.0, 0.0), PROF)
    assert subspace_angle(zero_frame, np.zeros((0, 2))) == 0.0


def test_lie_algebroid_zero_residue_realified_span(rng):
    sym = symplectic_zero_residue_model()
    frame_fn = residue_model_frame("zero")
    for _ in range(10):
        p = (float(rng.uniform(0.3, 1.0)), float(rng.uniform(-1, 1)),
             float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        frame = lie_algebroid_of(sym.model, p, PROF)
        assert subspace_equal(frame, frame_fn(p), 1e-5)


def test_check_algebroid_anchor_rank(rng):
    # pushing the recovered frame through the identity reproduces
    # rank n - 2 mult at sampled base points
    model = caseIV_model(4, 2)
    for _ in range(20):
        p = model.random_base(rng)
        frame = lie_algebroid_of(model, p, PROF)
        mult = sum(1 for j in (0, 1) if complex(p[2 * j], p[2 * j + 1]) == 0)
        rank = np.linalg.matrix_rank(frame, tol=1e-6) if frame.size else 0
        assert rank == 4 - 2 * mult


def test_check_algebroid_metadata():
    rep = check_algebroid(ssc_surface_model(), n_points=50, seed=3)
    assert rep.ok
    assert rep.samples == 50
    assert rep.tolerance == PROF.subspace_tol


def test_isotropy_checks_pass():
    from egl.groupoids import action_groupoid_model, case2_quotient_model

    for model in (case2_quotient_model(4), caseIV_model(6, 2),
                  action_groupoid_model(),
                  symplectic_zero_residue_model().model):
        rep = check_isotropy(model, n_samples=200, seed=3)
        assert rep.ok, model.name


@pytest.mark.parametrize("name", ["caseIV", "case2", "sympl-zero", "action-groupoid",
                                  "fibre:case1,case1"])
def test_isotropy_law_travels_with_a_renamed_model(name):
    # the law is a field of the model, not read off its name
    model = replace(build_model(name).chart, name="renamed")
    rep = check_isotropy(model, n_samples=200, seed=3)
    assert rep.ok and rep.samples == 200


def test_isotropy_of_a_perturbed_model_is_a_report():
    model = caseIV_model(4, 2)
    # component 0 offsets a_1, which the law also compares: a report, not a crash
    assert check_isotropy(perturbed_model(model), n_samples=100, seed=3).model \
        == "caseIV(4,2)+eps"
    # component 4 is Re b_1, the torus coordinate itself
    rep = check_isotropy(perturbed_model(model, component=4), n_samples=100, seed=3)
    assert rep.verdict == "fail" and rep.passed == 0
    assert rep.max_residual == pytest.approx(1e-3)
    assert rep.witnesses and rep.witnesses[0]["residual"] == pytest.approx(1e-3)


@pytest.mark.parametrize("seed", [2 ** 64 + 7, -1])
def test_a_seed_outside_64_bits_is_refused_not_aliased(seed):
    # keyed with seed mod 2**64, 2**64 + 7 would replay seed 7's witnesses
    # and -1 would read as 2**64 - 1
    from egl.groupoids import case2_quotient_model

    model = perturbed_model(case2_quotient_model(4), component=8)
    with pytest.raises(ValueError, match=str(seed)):
        check_isotropy(model, 50, seed)
    with pytest.raises(ValueError, match=str(seed)):
        rng_for(seed, "isotropy")
    assert check_isotropy(model, 50, 2 ** 64 - 1).seed == 2 ** 64 - 1


@pytest.mark.parametrize("seed", [0, 1, 7, 12345678901234, 2 ** 64 - 1])
def test_rng_for_is_philox_keyed_by_seed_and_label(seed):
    # the stream is Philox(key=[seed, crc32(label)]), built without the OS
    # entropy that Philox(key=...) draws and throws away
    import zlib

    key = np.array([seed, zlib.crc32(b"isotropy")], dtype=np.uint64)
    ours, theirs = rng_for(seed, "isotropy"), np.random.Generator(np.random.Philox(key=key))
    a, b = ours.bit_generator.state, theirs.bit_generator.state
    for field in ("counter", "key"):
        assert np.array_equal(a["state"][field], b["state"][field])
    assert np.array_equal(a["buffer"], b["buffer"]) and a["buffer_pos"] == b["buffer_pos"]
    assert a["has_uint32"] == b["has_uint32"] and a["uinteger"] == b["uinteger"]
    assert np.array_equal(ours.random(9), theirs.random(9))
    assert np.array_equal(ours.integers(0, 2 ** 63, 5), theirs.integers(0, 2 ** 63, 5))


def test_the_philox_key_answers_only_the_two_word_request():
    from egl.checks import _philox_key

    key = np.array([7, 8], dtype=np.uint64)
    assert _philox_key()(key).generate_state(2, np.uint64) is key
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (3, np.uint64)):
        with pytest.raises(ValueError):
            _philox_key()(key).generate_state(n_words, dtype)


@pytest.mark.parametrize("model", [
    replace(caseIV_model(4, 2), divisor_slots=()),
    # case1(4)'s base is (x, z): slots (0, 1) zero x and miss the divisor z = 0
    replace(case1_model(4), divisor_slots=(0, 1)),
], ids=["no-divisor-slots", "slots-miss-the-divisor"])
def test_the_torus_law_refuses_arrows_off_the_deepest_stratum(model):
    # b_j b'_j and a_j hold for every composable pair; only a_j = 0 on
    # both arrows makes them isotropy arrows
    rep = check_isotropy(model, n_samples=200, seed=7)
    assert rep.verdict == "fail" and rep.passed < rep.samples
    assert rep.witnesses and rep.witnesses[0]["residual"] > PROF.abs_tol


def test_the_algebroid_check_refuses_a_model_without_a_stated_frame():
    model = psi_domain_candidates()["exp-on-target-conjugate-scaled"]
    assert model.expected_frame is None
    with pytest.raises(SamplerExhausted,
                       match=f"^{re.escape(model.name)}: no stated algebroid frame$"):
        check_algebroid(model, 10, 7)


def _case1_source_inf():
    base = case1_model(4)
    return base, replace(base, source_of=lambda g: tuple(
        np.where(np.asarray(g[0]) > 0.5, np.inf, c) for c in base.source_of(g)))


def _case1_unit_b_zero():
    # case1(4)'s unit is (x, x, z, b = 1 + 0i); b = 0 leaves the domain of ts
    base = case1_model(4)
    return base, replace(base, unit_at=lambda p: tuple(
        np.where(np.asarray(p[0]) > 0.5, 0.0, c) if i == 6 else c
        for i, c in enumerate(base.unit_at(p))))


def _fibre_gluing_nan():
    # the gluing rows of the fibre product's algebroid map go NaN where x0 > 0.3
    base = build_model("fibre:case1,case1").chart
    ts, unit = base.algebroid_maps
    rows = 2 * base.base_dim

    def glued(g):
        out = ts.formula(g)
        return out[:rows] + tuple(np.where(np.asarray(g[0]) > 0.3, np.nan, c) for c in out[rows:])

    return base, replace(base, algebroid_maps=(replace(ts, formula=glued), unit))


@pytest.mark.parametrize("mutant,map_name", [(_case1_source_inf, "ts"),
                                             (_case1_unit_b_zero, "unit_at"),
                                             (_fibre_gluing_nan, "ts")],
                         ids=["source-inf", "unit-off-domain", "fibre-glue-nan"])
def test_model_maps_failing_at_a_point_fail_the_algebroid_check_there(mutant, map_name):
    # jacobian raises on such a block; the check's one stacked Jacobian
    # gives the points it cannot difference NaN frames, and fails only those
    base, model = mutant()
    rep = check_algebroid(model, n_points=60, seed=3)
    assert rep.verdict == "fail" and 0 < rep.passed < rep.samples == 60
    assert len(rep.witnesses) == rep.samples - rep.passed
    assert all(w["map"] == map_name and w["residual"] == math.inf for w in rep.witnesses)
    stack = np.column_stack(model.random_base(rng_for(3, f"algebroid:{model.name}"), 60))
    ts, unit = model.maps_for_algebroid()
    with pytest.raises((NonFiniteValue, StencilOutsideDomain)):
        jacobian(ts, unit(stack))
    frames = lie_algebroid_of(model, stack)
    failed = np.isnan(frames).all(axis=(1, 2))
    assert [w["p"] for w in rep.witnesses] == [[round(x, 6) for x in p] for p in stack[failed]]
    assert np.isnan(frames[failed]).all()
    # the other points keep the bits of the unbroken model's block
    want = lie_algebroid_of(base, stack)
    assert frames[~failed].tobytes() == want[~failed].tobytes()


def test_a_failing_block_is_differenced_as_a_block():
    # the ts formula runs on whole blocks, never once per lost point:
    # jacobian's call, and _differences' after jacobian refuses the block
    base, model = _case1_source_inf()
    calls = []

    def source_of(g):
        calls.append(np.shape(g[0]))
        return model.source_of(g)

    counted = replace(model, source_of=source_of)
    rep = check_algebroid(counted, n_points=60, seed=3)
    assert rep.to_dict() == check_algebroid(model, n_points=60, seed=3).to_dict()
    assert 0 < rep.passed < rep.samples
    stencil = (60 * 2 * base.arrow_dim,)
    assert calls == [stencil, stencil]


def test_kernels_of_mixed_dimension_keep_the_bits_of_their_points(monkeypatch):
    # ts bent so that ds vanishes where x0 > 0.5: there the kernel is the
    # whole arrow space, elsewhere it has dimension arrow_dim - base_dim,
    # so the block's nullspaces come back as a list
    base = case1_model(4)
    model = replace(base, source_of=lambda g: tuple(
        np.where(np.asarray(g[0]) > 0.5, 0.0 * c, c) for c in base.source_of(g)))
    returned = []

    def spy(M, tol):
        out = nullspace(M, tol)
        returned.append(out)
        return out

    monkeypatch.setattr(checks, "nullspace", spy)
    rep = check_algebroid(model, n_points=60, seed=3)
    assert len(returned) == 1 and isinstance(returned[0], list)
    assert {len(k) for k in returned[0]} == {base.arrow_dim - base.base_dim, base.arrow_dim}
    monkeypatch.undo()
    # the report of per-point recoveries and angles, witnesses included
    points = np.column_stack(model.random_base(rng_for(3, f"algebroid:{model.name}"), 60))
    acc = _Accumulator(PROF.subspace_tol)
    for p in points:
        frame = lie_algebroid_of(model, p, PROF)
        stated = model.expected_frame(tuple(p))
        acc.add(subspace_angle(frame, stated), {"p": [round(x, 6) for x in p]})
    assert rep.to_dict() == acc.report("algebroid", model.name, 3).to_dict()
    assert 0 < rep.passed < rep.samples


def test_a_non_finite_frame_fails_the_algebroid_check_with_a_witness():
    # NumPy's SVD raises on NaN; the check must fail closed instead
    model = replace(case1_model(4),
                    expected_frame=lambda p: np.full(np.shape(p[0]) + (4, 4), np.nan))
    rep = check_algebroid(model, n_points=30, seed=3)
    assert rep.verdict == "fail" and rep.passed == 0
    assert rep.max_residual == math.inf
    assert rep.witnesses[0]["map"] == "expected_frame"
    assert set(rep.witnesses[0]) == {"residual", "p", "map"}


def test_a_non_finite_frame_leaves_the_rest_of_its_block_alone():
    base = case1_model(4)

    def frame(p):
        # a point or a block, as stated frames take them
        rows = base.expected_frame(p)
        return np.where((np.asarray(p[0]) > 0)[..., None, None], rows + np.inf, rows)

    model = replace(base, expected_frame=frame)
    rng = rng_for(3, "algebroid:case1(4)")
    points = [base.random_base(rng) for _ in range(60)]
    bad = np.array([p[0] > 0 for p in points])
    assert bad.any() and not bad.all()
    recovered = lie_algebroid_of(base, points)
    angles = subspace_angle(recovered, [frame(p) for p in points])
    assert np.isnan(angles[bad]).all()
    clean = subspace_angle([r for r, b in zip(recovered, bad) if not b],
                           [base.expected_frame(p) for p, b in zip(points, bad) if not b])
    assert angles[~bad].tobytes() == clean.tobytes()
    rep = check_algebroid(model, n_points=60, seed=3)
    assert rep.passed == int((~bad).sum())
    assert [w["p"] for w in rep.witnesses] == [[round(x, 6) for x in p]
                                               for p, b in zip(points, bad) if b][:20]
    assert all(w["map"] == "expected_frame" and w["residual"] == math.inf
               for w in rep.witnesses)


def test_a_non_finite_factor_frame_fails_the_fibre_algebroid_check():
    fibre = build_model("fibre:case1,case1").chart
    m1, m2 = smooth_factor_model(4, 2, 0), smooth_factor_model(4, 2, 1)
    bad = replace(m1, expected_frame=lambda p: np.full((4, 4), np.nan))
    model = replace(fibre, expected_frame=fibre_product(bad, m2).expected_frame)
    rep = check_algebroid(model, n_points=20, seed=3)
    assert rep.verdict == "fail" and rep.max_residual == math.inf
    assert rep.witnesses[0]["map"] == "expected_frame"


def test_a_renamed_fibre_product_keeps_its_gluing_rows():
    # the gluing rows are rows of the algebroid map: a copy without them
    # would recover the wrong algebroid
    fibre = build_model("fibre:case1,case1").chart
    model = replace(fibre, name="renamed")
    assert model.maps_for_algebroid() == fibre.maps_for_algebroid()
    assert model.maps_for_algebroid()[0].codomain_dim == 4 * model.base_dim
    assert check_algebroid(model, n_points=20, seed=3).ok
    ts, unit = fibre.algebroid_maps
    source_only = replace(fibre, algebroid_maps=(
        replace(ts, codomain_dim=8, formula=lambda g: ts.formula(g)[:8]), unit))
    assert not check_algebroid(source_only, n_points=20, seed=3).ok


# ---------------------------------------------------------------------------
# algebroid paths and the rescaling limit
# ---------------------------------------------------------------------------

def _helix(nx=2):
    return PolarCurve(
        x=lambda tau: tuple(float(f(tau)) for f in (math.sin, math.cos)[:nx]),
        r=lambda tau: math.exp(tau),
        theta=lambda tau: 2.0 * tau,
    )


def test_apath_constant_radius_has_zero_radial_coefficient():
    curve = PolarCurve(x=lambda tau: (tau,), r=lambda tau: 0.7,
                       theta=lambda tau: tau ** 2)
    for t in (1.0, 0.01):
        path = apath_rescale(curve, t)
        for tau in (0.2, 0.5, 0.8):
            assert abs(path.coeffs(tau)[-2]) < 1e-9


def test_apath_exponential_radius_coefficient_is_one():
    curve = _helix()
    path = apath_rescale(curve, 0.5)
    for tau in (0.1, 0.4, 0.9):
        assert path.coeffs(tau)[-2] == pytest.approx(1.0, abs=1e-9)


def test_apath_coefficients_independent_of_rescaling():
    curve = _helix()
    taus = np.linspace(0.1, 0.9, 9)
    reference = [apath_rescale(curve, 1.0).coeffs(tau) for tau in taus]
    for t in (0.1, 1e-2, 1e-4, 1e-6):
        path = apath_rescale(curve, t)
        for ref, tau in zip(reference, taus):
            assert np.max(np.abs(path.coeffs(tau) - ref)) < 1e-12
        # the base path collapses onto the stratum
        assert max(abs(path.base(tau)[-1]) + abs(path.base(tau)[-2])
                   for tau in taus) < 3 * t * math.e


def test_apath_anchor_property():
    curve = _helix()
    for t in (1.0, 0.05):
        path = apath_rescale(curve, t)
        assert apath_anchor_residual(path, np.linspace(0.1, 0.9, 7)) < 1e-6


def test_apath_degenerate_radius():
    curve = PolarCurve(x=lambda tau: (0.0,), r=lambda tau: tau - 0.5,
                       theta=lambda tau: 0.0)
    path = apath_rescale(curve, 1.0)
    with pytest.raises(DegenerateRadius):
        path.base(0.2)
    with pytest.raises(ValueError):
        apath_rescale(curve, 0.0)


finite = st.floats(-1e6, 1e6)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite, min_size=1, max_size=8), st.lists(finite, min_size=8, max_size=8))
def test_gap_is_nan_when_any_coordinate_is_nan(a, b):
    b = b[:len(a)]
    assert not math.isnan(_gap(a, b))
    for i in range(len(a)):
        with_nan = a[:i] + [math.nan] + a[i + 1:]
        assert math.isnan(_gap(with_nan, b))
        assert math.isnan(_gap(b, with_nan))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1e-10), max_size=6), st.lists(st.floats(0.0, 1e-10), max_size=6))
def test_accumulator_fails_on_nan_and_reports_it(before, after):
    acc = _Accumulator(1e-9)
    for r in before + [math.nan] + after:
        acc.add(r)
    rep = acc.report("residuals", "none", seed=0)
    assert not rep.ok
    assert math.isnan(rep.max_residual)
    assert rep.passed == len(before) + len(after)


def test_axioms_name_the_identity_that_went_nan():
    # a target map that goes NaN at the product gh only: the builtin max
    # would read t(m(g,h)) = t(g) as an exact match and name another identity.
    # Structure maps take blocks of points, so "at gh" is decided per row.
    pair = pair_groupoid(2)
    g, h, k = (0.1, 0.2, 0.3, 0.4), (0.3, 0.4, 0.5, 0.6), (0.5, 0.6, 0.7, 0.8)
    gh = pair.compose_raw(g, h)

    def target_of(x):
        at_gh = np.logical_and.reduce([xi == gi for xi, gi in zip(x, gh)])
        t0, t1 = pair.target_of(x)
        return (t0, np.where(at_gh, math.nan, t1))

    class FixedTriple(GroupoidChartModel):
        def random_composable_triple(self, rng, n=None):
            return tuple(tuple(np.full(n, x) for x in point) for point in (g, h, k))

    model = FixedTriple(**{f.name: getattr(pair, f.name) for f in fields(pair)})
    model = replace(model, target_of=target_of)
    rep = check_groupoid_axioms(model, n_samples=3, seed=1)
    assert not rep.ok
    assert math.isnan(rep.max_residual)
    assert rep.witnesses[0]["identity"] == "t(m(g,h))=t(g)"
    per_identity = rep.details["per_identity"]
    assert math.isnan(per_identity["t(m(g,h))=t(g)"])
    assert all(v == 0.0 for name, v in per_identity.items() if name != "t(m(g,h))=t(g)")


def test_a_suite_without_its_model_data_refuses_by_name():
    sym = symplectic_nonzero_residue_model()
    with pytest.raises(SamplerExhausted,
                       match=f"^{re.escape(sym.model.name)}: no composable-pair parametrization$"):
        checks.check_multiplicative(replace(sym, pair_param=None), 10, 1)
    with pytest.raises(ValueError, match=r"^case1\(4\) has no blow-down map$"):
        checks.morphism_beta(replace(case1_model(4), beta_map=None))
    with pytest.raises(SamplerExhausted, match=r"^pair\(2\): no isotropy oracle$"):
        check_isotropy(pair_groupoid(2), 10, 1)
    with pytest.raises(ChartInvalid, match=r"^pair\(2\): no divisor factor data$"):
        checks.check_ideal(pair_groupoid(2), 10, 1)
