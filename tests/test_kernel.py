"""Numerical kernel: Jacobians, nullspaces, forms, pullbacks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egl.checks import rng_for
from egl.errors import DimensionMismatch, NonFiniteValue, StencilOutsideDomain
from egl.groupoids import case1_model, caseIV_model, uniforms
from egl.kernel import (FormField, SmoothMap, ToleranceProfile, compose_maps,
                        exterior_derivative, jacobian, nullspace, pullback,
                        pullback_form, subspace_angle, subspace_equal,
                        two_form_from_matrix)
from egl.registry import MODEL_NAMES, build_model
from egl.symplectic import pair_groupoid_symplectic


def _reference_jacobian(f, p, prof):
    """The column-at-a-time central differences ``jacobian`` must reproduce."""
    p = np.asarray(p, dtype=float)
    h = prof.fd_step
    if not f.defined_at(p):
        raise StencilOutsideDomain(f"jacobian: base point outside domain of {f.name}")
    J = np.empty((f.codomain_dim, f.domain_dim))
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(f.domain_dim):
            pp = p.copy()
            pm = p.copy()
            pp[j] += h
            pm[j] -= h
            if not (f.defined_at(pp) and f.defined_at(pm)):
                raise StencilOutsideDomain(
                    f"jacobian: stencil left domain of {f.name} along axis {j}")
            J[:, j] = (f(pp) - f(pm)) / (2.0 * h)
    if not np.all(np.isfinite(J)):
        raise NonFiniteValue(f"non-finite value in jacobian of {f.name}")
    return J


def _outcome(jac, f, x, prof):
    """The Jacobian, or the message of the StencilOutsideDomain it raised."""
    try:
        return jac(f, x, prof)
    except StencilOutsideDomain as err:
        return str(err)


def _assert_matches_reference(f, x, prof):
    got, want = _outcome(jacobian, f, x, prof), _outcome(_reference_jacobian, f, x, prof)
    if isinstance(want, str):
        assert got == want
        return None
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    return got


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_blocked_jacobian_equals_column_loop_on_models(name, prof):
    # the algebroid maps at units, and the chart's own ts at arrows (where
    # a discrete or glued chart refuses the stencil on the same axis)
    model = build_model(name).chart
    ts, unit = model.maps_for_algebroid()
    rng = rng_for(5, f"jacobian-reference:{name}")
    for _ in range(6):
        p = np.asarray(model.random_base(rng), dtype=float)
        _assert_matches_reference(unit, p, prof)
        _assert_matches_reference(ts, unit(p), prof)
        g = np.asarray(model.random_arrow(rng), dtype=float)
        J = _assert_matches_reference(model.ts, g, prof)
        if J is not None:
            stacked = np.vstack([jacobian(model.t, g, prof), jacobian(model.s, g, prof)])
            assert np.array_equal(J, stacked)


@pytest.mark.parametrize("sym", [build_model("sympl-nonzero").symplectic,
                                 build_model("sympl-zero").symplectic,
                                 pair_groupoid_symplectic()], ids=lambda s: s.name)
def test_blocked_jacobian_equals_column_loop_on_pair_params(sym, prof):
    P, sample_params = sym.pair_param
    rng = rng_for(5, f"jacobian-reference:{sym.name}.pairs")
    for _ in range(6):
        w = sample_params(uniforms(rng, sym.pair_width))
        assert _assert_matches_reference(P, w, prof) is not None


def test_jacobian_checks_every_stencil_point_before_evaluating(prof):
    n = 3
    p = np.array([0.2, -0.4, 0.6])
    last_minus = p.copy()
    last_minus[n - 1] -= prof.fd_step
    calls = []

    def valid(x):
        return ~np.logical_and.reduce([xi == li for xi, li in zip(x, last_minus)])

    f = SmoothMap(n, 1, lambda x: calls.append(x) or (x[0] + x[1] + x[2],), valid)
    with pytest.raises(StencilOutsideDomain, match=f"along axis {n - 1}$"):
        jacobian(f, p, prof)
    assert not calls


def test_jacobian_steps_one_coordinate_and_keeps_the_others_bits(prof):
    # -0.0 must stay -0.0 off the stepped axis (p + h*I would make it +0.0)
    p = np.array([-0.0, 0.5, -0.0])
    seen = []
    f = SmoothMap(3, 1, lambda x: seen.append(np.column_stack(x)) or (x[1],))
    jacobian(f, p, prof)
    assert len(seen) == 1 and len(seen[0]) == 6     # the stencil, in one call
    for q in seen[0]:
        changed = np.flatnonzero(q.view(np.int64) != p.view(np.int64))
        assert changed.size == 1


def test_jacobian_rejects_wrong_output_shape(prof):
    # too few coordinates, not a sequence, and columns of the wrong length
    with pytest.raises(DimensionMismatch):
        jacobian(SmoothMap(2, 3, lambda x: (0.0, 0.0)), [0.1, 0.2], prof)
    with pytest.raises(DimensionMismatch):
        jacobian(SmoothMap(2, 1, lambda x: 1.0), [0.1, 0.2], prof)
    with pytest.raises(DimensionMismatch):
        jacobian(SmoothMap(2, 2, lambda x: (x[0], np.zeros(3))), [0.1, 0.2], prof)
    # a length-1 column is not broadcast over a longer block
    f = SmoothMap(2, 1, lambda x: (x[0][:1],))
    assert f(np.array([[0.1, 0.2]])).shape == (1, 1)
    with pytest.raises(DimensionMismatch):
        f(np.array([[0.1, 0.2], [0.3, 0.4]]))


def test_tolerance_profile_validates():
    with pytest.raises(ValueError):
        ToleranceProfile(fd_step=-1.0)
    with pytest.raises(ValueError):
        ToleranceProfile(fd_step=1e-3, abs_tol=1e-8)  # truncation dominates
    # a non-finite field would pass every residual (inf) or fail every one (nan)
    for field in ({"abs_tol": -1.0}, {"fd_step": 0.1}, {"abs_tol": float("inf")},
                  {"abs_tol": float("nan")}, {"subspace_tol": float("inf")},
                  {"fd_step": float("nan")}):
        with pytest.raises(ValueError):
            ToleranceProfile(**field)


def test_jacobian_linear_map_is_exact(prof):
    A = np.array([[1.0, 2.0, -3.0], [0.5, 0.0, 4.0]])
    f = SmoothMap(3, 2, lambda x: tuple(A @ np.array(x)))
    J = jacobian(f, [0.3, -1.2, 0.7], prof)
    assert np.allclose(J, A, atol=1e-10)


def test_jacobian_square_function(prof):
    f = SmoothMap(1, 1, lambda x: (x[0] ** 2,))
    J = jacobian(f, [1.0], prof)
    assert abs(J[0, 0] - 2.0) < 1e-8


def test_jacobian_respects_domain_predicate(prof):
    f = SmoothMap(1, 1, lambda x: (1.0 / x[0],), lambda x: x[0] > 1.0)
    with pytest.raises(StencilOutsideDomain):
        jacobian(f, [1.0 + 1e-7], prof)  # stencil crosses the boundary


def test_jacobian_rejects_non_finite_values(prof):
    f = SmoothMap(1, 1, lambda x: (np.inf,))
    with pytest.raises(NonFiniteValue):
        jacobian(f, [0.0], prof)


def test_case1_source_kernel_over_divisor(prof):
    # hand-computed kernel of ds at a unit over the divisor (n = 4):
    # source (y, a b) with a = 0, b = 1 has differential (dy, da), so the
    # kernel is spanned by the target-side x directions and the b plane
    model = case1_model(4)
    unit = np.asarray(model.unit_at((0.2, -0.7, 0.0, 0.0)), dtype=float)
    J = jacobian(model.s, unit, prof)
    basis = nullspace(J, 1e-6)
    assert basis.shape[0] == 4
    expected = np.zeros((4, 8))
    expected[0, 0] = expected[1, 1] = expected[2, 6] = expected[3, 7] = 1.0
    assert subspace_equal(basis, expected, 1e-8)


def test_nullspace_trivial_cases():
    assert nullspace(np.eye(3), 1e-10).shape == (0, 3)
    assert nullspace(np.zeros((3, 3)), 1e-10).shape == (3, 3)
    # wide matrix: missing rows count as zero singular values
    basis = nullspace(np.array([[1.0, 0.0, 0.0]]), 1e-10)
    assert basis.shape == (2, 3)


def test_nullspace_vectors_orthonormal_and_annihilate(rng):
    for _ in range(20):
        M = rng.normal(size=(3, 6))
        M[2] = M[0] + M[1]  # force rank deficiency in rows: kernel dim 4
        basis = nullspace(M, 1e-8)
        assert basis.shape[0] == 4
        gram = basis @ basis.T
        assert np.allclose(gram, np.eye(basis.shape[0]), atol=1e-12)
        assert np.max(np.abs(M @ basis.T)) < 1e-8 * np.linalg.norm(M)


def test_subspace_equal_examples():
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert subspace_equal([e1, e2], [e2, e1], 1e-9)
    assert not subspace_equal([e1], [e2], 1e-6)
    with pytest.raises(DimensionMismatch):
        subspace_angle([[1.0, 0.0]], [[1.0, 0.0, 0.0]])


def test_subspace_equal_case1_frame_off_divisor(prof):
    # numerical dt(ker ds) vs the analytic divisor frame at r = 0.3
    from egl.checks import lie_algebroid_of

    model = case1_model(4)
    p = (0.5, -0.1, 0.3, 0.0)
    recovered = lie_algebroid_of(model, p, prof)
    assert subspace_equal(recovered, model.expected_frame(p), 1e-6)


def test_exterior_derivative_x_dy(prof):
    form = FormField(1, 2, lambda p, vs: p[0] * vs[0][1])
    val = exterior_derivative(form, [0.3, 0.8], [np.eye(2)[0], np.eye(2)[1]], prof)
    assert abs(val - 1.0) < 1e-9


def test_exterior_derivative_log_form_closed(prof):
    # dlog r ^ dtheta = (dx ^ dy) / r^2 is closed off the origin
    def func(p, vs):
        r2 = p[0] ** 2 + p[1] ** 2
        return (vs[0][0] * vs[1][1] - vs[0][1] * vs[1][0]) / r2

    form = FormField(2, 2, func, domain_predicate=lambda p: p[0] ** 2 + p[1] ** 2 > 1e-12)
    val = exterior_derivative(form, [0.5, 0.0], [np.eye(2)[0], np.eye(2)[1],
                                                 np.array([1.0, 1.0])], prof)
    assert abs(val) < 1e-6


def test_exterior_derivative_twice_vanishes(prof, rng):
    form = FormField(1, 3, lambda p, vs: np.sin(p[0]) * vs[0][1] + p[2] ** 2 * vs[0][0])

    def dform(p, vs):
        # a coordinate-major block, as forms take it; a stack, as d takes it
        return exterior_derivative(form, np.transpose(p), [np.transpose(v) for v in vs], prof)

    ddform = FormField(2, 3, dform)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=3)
        vs = [v / np.linalg.norm(v) for v in rng.normal(size=(3, 3))]
        assert abs(exterior_derivative(ddform, p, vs, prof)) < 1e-5


def _antisymmetric_stack(p, entries):
    """The (N, n, n) antisymmetric coefficients at a block p with the
    given upper entries {(i, j): value or column}."""
    n = len(p)
    c = np.zeros((len(p[0]), n, n))
    for (i, j), value in entries.items():
        c[:, i, j] = value
        c[:, j, i] = -c[:, i, j]
    return c


def test_pullback_identity_and_constant(prof, rng):
    form = two_form_from_matrix(3, lambda p: _antisymmetric_stack(p, {(0, 1): p[0],
                                                                      (1, 2): 1.0}))
    ident = SmoothMap(3, 3, lambda x: x)
    const = SmoothMap(3, 3, lambda x: (1.0, 2.0, 3.0))
    p = rng.uniform(-1, 1, size=3)
    vs = list(rng.normal(size=(2, 3)))
    assert abs(pullback(ident, form, p, vs, prof) - form(p, vs)) < 1e-8
    assert abs(pullback(const, form, p, vs, prof)) < 1e-10


def test_pullback_functorial(prof, rng):
    # (g o f)* w = f*(g* w) on samples
    f = SmoothMap(2, 2, lambda x: (x[0] + 0.3 * x[1] ** 2, x[1]))
    g = SmoothMap(2, 2, lambda x: (np.sin(x[0]), x[0] * x[1]))
    form = FormField(2, 2, lambda p, vs: (1 + p[0] ** 2) *
                     (vs[0][0] * vs[1][1] - vs[0][1] * vs[1][0]))
    gf = compose_maps(g, f)
    fstar_gstar = pullback_form(f, pullback_form(g, form, prof), prof)
    for _ in range(5):
        p = rng.uniform(-0.8, 0.8, size=2)
        vs = list(rng.normal(size=(2, 2)))
        lhs = pullback(gf, form, p, vs, prof)
        assert abs(lhs - fstar_gstar(p, vs)) < 5e-6


def test_pullback_refuses_an_image_outside_the_forms_domain(prof):
    # the form is defined where p[0] != 0, and f moves (1, y) onto p[0] = 0:
    # the pullback raises there instead of returning the form's inf
    form = FormField(2, 2, lambda p, vs: (vs[0][0] * vs[1][1] - vs[0][1] * vs[1][0]) / p[0],
                     "real", lambda p: p[0] != 0, "dx^dy/x")
    f = SmoothMap(2, 2, lambda x: (x[0] - 1.0, x[1]), name="shift")
    vs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    pulled = pullback_form(f, form, prof)
    assert not pulled.defined_at([1.0, 0.3])
    with pytest.raises(StencilOutsideDomain, match="image of shift outside domain of dx\\^dy/x"):
        pullback(f, form, [1.0, 0.3], vs, prof)
    with pytest.raises(StencilOutsideDomain):
        pulled([1.0, 0.3], vs)
    # one such row refuses its stack; a point inside keeps its value
    with pytest.raises(StencilOutsideDomain):
        pullback(f, form, [[2.0, 0.3], [1.0, 0.3]], [np.tile(v, (2, 1)) for v in vs], prof)
    assert pulled.defined_at([2.0, 0.3])
    assert pulled([2.0, 0.3], vs) == pytest.approx(1.0, abs=1e-8)


def test_chain_rule_for_jacobians(prof, rng):
    f = SmoothMap(2, 3, lambda x: (x[0] ** 2, x[0] * x[1], np.cos(x[1])))
    g = SmoothMap(3, 2, lambda x: (x[0] + x[2], np.exp(0.3 * x[1])))
    gf = compose_maps(g, f)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=2)
        J = jacobian(gf, p, prof)
        J2 = jacobian(g, f(p), prof) @ jacobian(f, p, prof)
        assert np.max(np.abs(J - J2)) < 1e-6


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=4, max_size=4),
       st.lists(st.floats(-2, 2), min_size=4, max_size=4))
def test_form_alternating_in_arguments(u, v):
    form = two_form_from_matrix(4, lambda p: _antisymmetric_stack(
        p, {(0, 1): 1.0, (0, 3): p[0], (1, 2): 2.0, (2, 3): 1.0}))
    p = np.array([0.3, -0.1, 0.4, 0.9])
    u, v = np.array(u), np.array(v)
    assert form(p, [u, v]) == pytest.approx(-form(p, [v, u]), abs=1e-12)
    assert form(p, [u, u]) == pytest.approx(0.0, abs=1e-12)


def test_wedge_of_one_forms(rng):
    alpha = FormField(1, 3, lambda p, vs: vs[0][0])
    beta = FormField(1, 3, lambda p, vs: p[0] * vs[0][1])
    w = alpha.wedge(beta)
    p = np.array([2.0, 0.0, 0.0])
    u, v = np.eye(3)[0], np.eye(3)[1]
    assert w(p, [u, v]) == pytest.approx(2.0)
    assert w(p, [v, u]) == pytest.approx(-2.0)


# ---------------------------------------------------------------------------
# stacks: one call for many points or matrices, the bits of one at a time
# ---------------------------------------------------------------------------

def _bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _error_or_jacobian(jac, f, x, prof):
    try:
        return jac(f, x, prof)
    except (StencilOutsideDomain, NonFiniteValue) as err:
        return type(err), str(err)


def _assert_stack_matches_points(f, points, prof, reference=None):
    """The stacked Jacobian against the column loop at each point (of
    ``reference``, by default f itself): equal bits where every point
    succeeds, else the first failing point's error."""
    points = np.asarray(points, dtype=float)
    want = [_error_or_jacobian(_reference_jacobian, reference or f, x, prof) for x in points]
    ok = [i for i, w in enumerate(want) if isinstance(w, np.ndarray)]
    stacked = jacobian(f, points[ok], prof)
    assert stacked.flags.c_contiguous
    assert _bits_equal(stacked, np.stack([want[i] for i in ok])
                       if ok else np.empty((0, f.codomain_dim, f.domain_dim))), f.name
    failed = [w for w in want if not isinstance(w, np.ndarray)]
    if failed:
        kind, message = failed[0]
        with pytest.raises(kind) as err:
            jacobian(f, points, prof)
        assert str(err.value) == message
    return stacked


def _with_negated_zeros(points):
    return [tuple(-0.0 if x == 0 else x for x in p) for p in points]


def _stack_maps(model, rng):
    """(map, points) pairs: the ts and unit views at units and arrows, the
    algebroid maps, a fibre product's second-factor ts, and the composite
    ts o unit at base points (its formula and domain built by
    ``compose_maps``)."""
    bases = [model.random_base(rng) for _ in range(10)]
    bases += _with_negated_zeros(bases[:4])
    arrows = [model.random_arrow(rng) for _ in range(6)]
    units = [model.unit_at(p) for p in bases]
    ts, unit = model.maps_for_algebroid()
    fd_units = unit(np.asarray(bases, dtype=float))
    cases = [(model.unit, bases), (model.ts, units + arrows), (unit, bases), (ts, fd_units)]
    if model.factors is not None:
        d1 = model.factors[0].arrow_dim
        cases.append((model.factors[1].ts, fd_units[:, d1:]))
    cases.append((compose_maps(model.ts, model.unit), bases))
    return cases


@pytest.mark.parametrize("name", list(MODEL_NAMES) + ["caseIV(6,3)"])
def test_stacked_jacobian_equals_pointwise_jacobian(name, prof):
    model = caseIV_model(6, 3) if name == "caseIV(6,3)" else build_model(name).chart
    rng = rng_for(8, f"jacobian-stack:{name}")
    for f, points in _stack_maps(model, rng):
        stacked = _assert_stack_matches_points(f, points, prof)
        if len(stacked):
            # a point is the one-row stack
            x = np.asarray(points, dtype=float)[0]
            assert _bits_equal(_error_or_jacobian(jacobian, f, x, prof), stacked[0])


@pytest.mark.parametrize("sym", [build_model("sympl-nonzero").symplectic,
                                 build_model("sympl-zero").symplectic,
                                 pair_groupoid_symplectic()], ids=lambda s: s.name)
def test_stacked_jacobian_of_pair_params_equals_pointwise(sym, prof):
    P, sample_params = sym.pair_param
    rng = rng_for(8, f"jacobian-stack:{sym.name}.pairs")
    points = [sample_params(uniforms(rng, sym.pair_width)) for _ in range(8)]
    _assert_stack_matches_points(P, points, prof)


def _overflowing_map():
    # x0 x1^2 overflows to inf at x1 = 1e200 (Python floats do not raise);
    # the domain is x0 > -0.5
    return SmoothMap(2, 1, lambda x: (x[0] * x[1] * x[1],), lambda x: x[0] > -0.5, "overflow")


@pytest.mark.parametrize("composed", [True, False])
def test_stacked_jacobian_raises_the_error_of_the_first_failing_point(prof, composed):
    f = _overflowing_map()
    if composed:
        # the identity after f: the composite's domain is f's, and it
        # overflows where f does
        f = compose_maps(SmoothMap(1, 1, lambda y: y, name="id"), f)
    fine, non_finite = (0.1, 0.2), (1.0, 1e200)
    stencil_out, base_out = (-0.5 + 1e-7, 0.3), (-0.6, 0.1)
    for order in ([fine, non_finite, fine, stencil_out],
                  [fine, stencil_out, non_finite],
                  [base_out, non_finite, stencil_out]):
        first = next(p for p in order if p != fine)
        kind, message = _error_or_jacobian(_reference_jacobian, f, first, prof)
        assert _error_or_jacobian(jacobian, f, first, prof) == (kind, message)
        with pytest.raises(kind) as err:
            jacobian(f, order, prof)
        assert str(err.value) == message


class _Pointwise:
    """outer o inner evaluated point by point through the two maps, under
    the composite's name: what ``compose_maps`` must reproduce."""

    def __init__(self, outer, inner, name):
        self.outer, self.inner, self.name = outer, inner, name
        self.domain_dim, self.codomain_dim = inner.domain_dim, outer.codomain_dim

    def defined_at(self, p):
        return self.inner.defined_at(p) and self.outer.defined_at(self.inner(p))

    def __call__(self, p):
        return self.outer(self.inner(p))


def _reciprocal_pair():
    # inner x -> (1/x, x) off 0, where a point would raise ZeroDivisionError;
    # outer (y0, y1) -> y0 y1 where y0 < 5
    inner = SmoothMap(1, 2, lambda x: (1.0 / x[0], x[0]), lambda x: x[0] != 0.0, "recip")
    outer = SmoothMap(2, 1, lambda y: (y[0] * y[1],), lambda y: y[0] < 5.0, "prod")
    return outer, inner, [(0.0,), (0.1,), (0.5,), (-2.0,), (0.25,)]


def _composites():
    cases = {"reciprocal": _reciprocal_pair()}
    for name in ("case1", "case2", "sympl-zero", "ssc-surface", "fibre:case1,pair"):
        model = build_model(name).chart
        rng = rng_for(9, f"compose:{name}")
        arrows = [model.random_arrow(rng) for _ in range(10)]
        cases[name] = (model.ts, model.inv, arrows + [(np.nan,) * model.arrow_dim] + arrows[:2])
    return cases


COMPOSITES = _composites()


@pytest.mark.parametrize("name", sorted(COMPOSITES))
def test_composite_of_a_block_is_the_pointwise_composite(name, prof):
    outer, inner, points = COMPOSITES[name]
    gf = compose_maps(outer, inner)
    ref = _Pointwise(outer, inner, gf.name)
    X = np.asarray(points, dtype=float)
    inside = [ref.defined_at(p) for p in X]
    assert [gf.defined_at(p) for p in X] == inside
    with np.errstate(all="ignore"):         # a block evaluates inner everywhere
        assert np.broadcast_to(gf.valid(tuple(X.T)), (len(X),)).tolist() == inside
    assert not all(inside) and any(inside)
    ok = X[inside]
    assert _bits_equal(gf(ok), [ref(p) for p in ok])
    assert _bits_equal([gf(p) for p in ok], [ref(p) for p in ok])
    _assert_stack_matches_points(gf, X, prof, reference=ref)


def _reference_nullspace(M, tol):
    """``nullspace`` on one matrix, as it ran before stacks."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.eye(M.shape[1]) if M.shape[1] else np.zeros((0, 0))
    _, svals, vt = np.linalg.svd(M, full_matrices=True)
    keep = [i for i in range(vt.shape[0]) if i >= len(svals) or svals[i] < tol]
    return vt[keep]


def _reference_orthonormal_rows(vectors, rank_tol=1e-9, abs_floor=1e-7):
    A = np.atleast_2d(np.asarray(vectors, dtype=float))
    if A.shape[0] == 0 or not A.any():
        return np.zeros((0, A.shape[1] if A.ndim == 2 else 0))
    _, svals, vt = np.linalg.svd(A, full_matrices=False)
    cutoff = max(rank_tol * svals[0], abs_floor)
    return vt[:int(np.sum(svals > cutoff))]


def _reference_subspace_angle(A, B):
    """``subspace_angle`` on one pair, as it ran before stacks."""
    Qa, Qb = _reference_orthonormal_rows(A), _reference_orthonormal_rows(B)
    if Qa.shape[0] != Qb.shape[0]:
        return np.pi / 2
    if Qa.shape[0] == 0:
        return 0.0
    svals = np.linalg.svd(Qa @ Qb.T, compute_uv=False)
    return float(np.arccos(min(1.0, max(-1.0, float(svals.min())))))


def _of_rank(rng, rank, rows, cols):
    return rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))


@pytest.mark.parametrize("rows,cols", [(3, 5), (5, 3), (4, 4), (0, 3)])
def test_stacked_nullspace_equals_pointwise(rows, cols):
    rng = np.random.Generator(np.random.Philox(key=rows * 10 + cols))
    # mixed ranks in one stack, from 0 (the zero matrix) to full
    stack = np.array([_of_rank(rng, r % (min(rows, cols) + 1), rows, cols)
                      for r in range(9)]).reshape(9, rows, cols)
    bases = nullspace(stack, 1e-8)
    assert len(bases) == 9
    for M, basis in zip(stack, bases):
        assert _bits_equal(basis, _reference_nullspace(M, 1e-8))
        assert _bits_equal(nullspace(M, 1e-8), basis)
    # a stack of one rank has one kernel dimension: one (N, k, n) array
    rank = min(rows, cols) // 2
    same = np.array([_of_rank(rng, rank, rows, cols) for _ in range(7)]).reshape(7, rows, cols)
    bases = nullspace(same, 1e-8)
    assert isinstance(bases, np.ndarray) and bases.shape == (7, cols - rank, cols)
    for M, basis in zip(same, bases):
        assert _bits_equal(basis, _reference_nullspace(M, 1e-8))
    # an empty stack still gives its empty result
    assert len(nullspace(np.empty((0, rows, cols)), 1e-8)) == 0


def test_stacked_subspace_angle_equals_pointwise(prof):
    from egl.checks import lie_algebroid_of

    rng = np.random.Generator(np.random.Philox(key=77))
    e = np.eye(4)
    pairs = [
        (e[:2], e[[1, 0]]),                          # one span, two bases
        (e[:2], e[:3]),                              # rank mismatch: pi/2
        (np.zeros((3, 4)), np.zeros((2, 4))),        # all-zero frames: rank 0
        (np.zeros((0, 4)), e[:1] * 1e-9),            # empty and near-noise sets
        (np.zeros((2, 4)), e[:1]),                   # rank 0 against rank 1
        (np.array([e[0], 5e-7 * e[1]]), e[:2]),      # just above the absolute floor
        (np.array([1e3 * e[0], 5e-7 * e[1]]), e[:1]),  # below the relative cutoff
        (_of_rank(rng, 2, 3, 4), _of_rank(rng, 2, 3, 4)),
        (_of_rank(rng, 3, 4, 4), _of_rank(rng, 3, 3, 4)),
        (_of_rank(rng, 1, 2, 4), _of_rank(rng, 1, 4, 4)),
    ]
    model = case1_model(4)
    r = rng_for(4, "angle-stack")
    points = [model.random_base(r) for _ in range(12)]
    pairs += [(lie_algebroid_of(model, p, prof), model.expected_frame(p)) for p in points]
    A, B = [a for a, _ in pairs], [b for _, b in pairs]
    angles = subspace_angle(A, B)
    want = [_reference_subspace_angle(a, b) for a, b in pairs]
    assert _bits_equal(angles, want)
    assert angles[1] == np.pi / 2 and angles[2] == 0.0 and angles[4] == np.pi / 2
    assert [subspace_angle(a, b) for a, b in pairs] == want
    with pytest.raises(DimensionMismatch):
        subspace_angle(A, B[:-1])


@pytest.mark.parametrize("frame", ["finite", "zero", "nan", "inf"])
def test_a_frame_shared_by_a_stack_gives_the_bits_of_the_materialised_stack(frame):
    # a frame broadcast over the stack (stride 0) is factored once; every
    # result must equal, bit for bit, that of the same stack in memory
    from egl.kernel import _orthonormal_rows, _span_intersection

    rng = np.random.Generator(np.random.Philox(key=31))
    one = {"finite": _of_rank(rng, 2, 3, 4), "zero": np.zeros((3, 4)),
           "nan": np.where(np.eye(3, 4) > 0, np.nan, 1.0),
           "inf": np.where(np.eye(3, 4) > 0, np.inf, 1.0)}[frame]
    shared = np.broadcast_to(one, (12, 3, 4))
    assert shared.strides[0] == 0
    whole = np.ascontiguousarray(shared)
    A = np.array([_of_rank(rng, i % 4, 3, 4) for i in range(12)])
    A[5] = one if frame == "finite" else A[5]         # one pair spans the same rows

    got, want = _orthonormal_rows(shared), _orthonormal_rows(whole)
    assert _bits_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2] == want[2]
    assert list(got[1]) == [{"finite": 2, "zero": 0}.get(frame, -1)] * 12
    angles = subspace_angle(A, shared)
    assert _bits_equal(angles, subspace_angle(A, whole))
    assert np.isnan(angles).all() == (frame in ("nan", "inf"))
    for f1, f2 in ((A, shared), (shared, A), (A, one)):
        meet = _span_intersection(f1, f2)
        assert _bits_equal(meet, _span_intersection(*(np.broadcast_to(f, A.shape).copy()
                                                      for f in (f1, f2))))
        assert np.isnan(meet).all() == (frame in ("nan", "inf"))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_algebroid_frames_of_a_stack_equal_the_frames_of_its_points(name, prof):
    from egl.checks import lie_algebroid_of

    model = build_model(name).chart
    rng = rng_for(6, f"algebroid-stack:{name}")
    points = [model.random_base(rng) for _ in range(10)]
    for frame, p in zip(lie_algebroid_of(model, points, prof), points):
        assert _bits_equal(frame, lie_algebroid_of(model, p, prof))
