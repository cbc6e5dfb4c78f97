"""Executable verification suites tying the chart models to their claims.

Each check draws from a counter-based seeded stream, aggregates a max
residual over its samples, and returns a CheckReport carrying the seed,
the tolerance actually used, and up to 20 failure witnesses; verdicts
are deterministic functions of (model, seed, profile).  Negative
controls (a perturbed multiplication, near-miss variant formulas and
composition, a non-Jacobi bivector) ship alongside so the suite
demonstrably fails on wrong formulas.

The structure-map suites (axioms, ideal, isotropy, morphism) draw their
samples one at a time and evaluate every identity once per block of up
to ``BLOCK_ROWS`` samples, on coordinate columns (see
``egl.groupoids``); residuals, witnesses and verdicts are those of the
sample-by-sample evaluation.  They fail closed: where a structure map's
output leaves the chart (``compose`` would raise ChartInvalid), the
identity's residual is inf and its witness names the map.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ChartInvalid, NotComposable, SamplerExhausted
from .groupoids import GroupoidChartModel, _cabs, _cmul, ideal_values, pair_groupoid
from .groupoids import _maxdiff as _gap
from .kernel import (DEFAULT_PROFILE, FormField, SmoothMap, ToleranceProfile,
                     exterior_derivative, jacobian, nullspace, pullback,
                     pullback_at, subspace_angle)
from .signedperm import SignedPermutation, semidirect_mul
from .symplectic import (MorphismBundle, SymplecticModel, morphism_psi,
                         psi_domain_candidates)

__all__ = [
    "CheckReport",
    "rng_for",
    "check_groupoid_axioms",
    "lie_algebroid_of",
    "check_algebroid",
    "check_symplectic",
    "check_multiplicative",
    "schouten_residual",
    "check_poisson",
    "check_morphism",
    "morphism_beta",
    "resolve_psi_convention",
    "check_psi_convention",
    "check_zero_residue_variant",
    "check_isotropy",
    "check_ideal",
    "perturbed_model",
    "non_jacobi_bivector",
]

WITNESS_CAP = 20
BLOCK_ROWS = 512      # samples drawn, then evaluated together


@dataclass
class CheckReport:
    """Outcome of one sampled check on one model."""

    check: str
    model: str
    samples: int
    passed: int
    max_residual: float
    tolerance: float
    seed: int
    verdict: str = ""
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.verdict:
            self.verdict = "pass" if self.passed == self.samples else "fail"

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "model": self.model,
            "samples": self.samples,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "details": self.details,
        }


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Philox (counter-based, 64-bit) stream keyed by seed and label.

    The generator identity is part of the report contract
    ("philox4x64-v1"); changing it is a breaking change.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode())],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _running_max(current: float, column) -> float:
    """The larger of ``current`` and the column's max; NaN, once seen, stays."""
    if current != current or len(column) == 0:
        return current
    if np.isnan(column).any():
        return math.nan
    top = float(column.max())
    return top if top > current else current


class _Accumulator:
    def __init__(self, tol: float):
        self.tol = tol
        self.max_residual = 0.0
        self.passed = 0
        self.samples = 0
        self.witnesses = []

    def add(self, residual: float, witness=None):
        residual = float(residual)
        self.samples += 1
        if residual > self.max_residual or residual != residual:
            self.max_residual = residual        # NaN is kept: nothing exceeds it
        if residual <= self.tol:
            self.passed += 1
        elif len(self.witnesses) < WITNESS_CAP:
            self.witnesses.append({"residual": residual, **(witness or {})})

    def add_block(self, residuals, witness):
        """``add`` for each entry of a residual column, in order.

        ``witness(i)`` builds the witness of entry i; it is called only
        for the failing entries that still fit under the cap.
        """
        self.samples += len(residuals)
        ok = residuals <= self.tol
        self.passed += int(np.count_nonzero(ok))
        self.max_residual = _running_max(self.max_residual, residuals)
        for i in np.flatnonzero(~ok)[:WITNESS_CAP - len(self.witnesses)]:
            self.witnesses.append({"residual": float(residuals[i]), **witness(i)})

    def report(self, check: str, model: str, seed: int, details=None) -> CheckReport:
        return CheckReport(check=check, model=model, samples=self.samples,
                           passed=self.passed, max_residual=self.max_residual,
                           tolerance=self.tol, seed=seed,
                           witnesses=self.witnesses, details=details or {})


def _round_tuple(g, digits=6):
    return [round(float(x), digits) for x in g]


# ---------------------------------------------------------------------------
# blocks of samples
# ---------------------------------------------------------------------------

def _block_sizes(n_samples: int) -> list:
    return [min(BLOCK_ROWS, n_samples - start) for start in range(0, n_samples, BLOCK_ROWS)]


def _draw_block(draw: Callable, n: int) -> tuple:
    """n calls of ``draw()``, each a tuple of points, as a tuple of blocks.

    A block holds one column per coordinate.  Each draw is copied in as
    it is made, so the points themselves are not kept.
    """
    parts = draw()
    blocks = [np.empty((len(p), n)) for p in parts]
    for i in range(n):
        if i:
            parts = draw()
        for block, p in zip(blocks, parts):
            block[:, i] = p
    return tuple(tuple(block) for block in blocks)


def _row(block, i) -> list:
    return _round_tuple(column[i] for column in block)


def _outside(model: GroupoidChartModel, x, n: int) -> np.ndarray:
    """The rows of the n-point block x that leave the model's chart."""
    return np.broadcast_to(np.logical_not(model.arrow_valid(x)), (n,))


def _composed(model: GroupoidChartModel, g, h, g_from: str, h_from: str, n: int,
              prefix: str = ""):
    """``model.compose(g, h)`` on a block of n pairs, failing closed.

    Returns (product, gap, composable, exits).  ``composable`` holds
    where the endpoint gap is within ``composable_tol`` (never where it
    is NaN); there ``compose`` returns the product, elsewhere it raises
    NotComposable carrying the gap.  ``exits`` lists (rows, map) for the
    rows where ``compose`` raises ChartInvalid instead: g or h (made by
    ``g_from`` or ``h_from``) leaves the chart, or, on composable rows,
    the product does.
    """
    gap = _gap(model.source_of(g), model.target_of(h))
    out = model.compose_raw(g, h)
    ok = np.broadcast_to(gap <= model.composable_tol, (n,))
    exits = [(_outside(model, g, n), g_from), (_outside(model, h, n), h_from),
             (ok & _outside(model, out, n), prefix + "compose_raw")]
    return out, gap, ok, exits


def _fail_closed(residual, exits, n: int) -> np.ndarray:
    """The residual as an n-vector, inf on the rows of every chart exit."""
    out = np.array(np.broadcast_to(residual, (n,)), dtype=float)
    for rows, _ in exits:
        out[rows] = np.inf
    return out


def _with_exit(witness: dict, exits, i) -> dict:
    """The witness, naming the first map whose output left the chart at row i."""
    for rows, name in exits:
        if rows[i]:
            return {**witness, "map": name}
    return witness


# ---------------------------------------------------------------------------
# groupoid axioms
# ---------------------------------------------------------------------------

AXIOM_NAMES = ("s(m(g,h))=s(h)", "t(m(g,h))=t(g)", "associativity",
               "left unit", "right unit", "right inverse", "left inverse")


def check_groupoid_axioms(model: GroupoidChartModel, n_samples: int = 10_000,
                          seed: int = 7, prof: ToleranceProfile = DEFAULT_PROFILE,
                          sampler=None) -> CheckReport:
    """The seven structure-map identities on sampled arrows and tuples.

    Source/target of products, associativity on exactly composable
    triples, the two unit laws and the two inverse laws, each measured
    as a max coordinate residual.  A law whose pair is not composable
    records the endpoint gap.  Each sample's witness names its worst
    identity: the last one that went NaN, else the first largest.
    """
    rng = rng_for(seed, f"axioms:{model.name}")
    acc = _Accumulator(prof.abs_tol)
    per_axiom = {name: 0.0 for name in AXIOM_NAMES}
    draw_triple = sampler or model.random_composable_triple
    last = len(AXIOM_NAMES) - 1
    for n in _block_sizes(n_samples):
        g, h, k = _draw_block(lambda: draw_triple(rng), n)
        with np.errstate(all="ignore"):
            res, exits = _axiom_residuals(model, g, h, k, n)
        for name, column in zip(AXIOM_NAMES, res):
            per_axiom[name] = _running_max(per_axiom[name], column)
        nan = np.isnan(res)
        worst = np.where(nan.any(axis=0), last - np.argmax(nan[::-1], axis=0),
                         np.argmax(np.where(nan, -np.inf, res), axis=0))
        acc.add_block(res[worst, np.arange(n)], lambda i: _with_exit(
            {"identity": AXIOM_NAMES[worst[i]], "g": _row(g, i)}, exits[worst[i]], i))
    return acc.report("axioms", model.name, seed, details={"per_identity": per_axiom})


def _axiom_residuals(model: GroupoidChartModel, g, h, k, n: int):
    """The (7, n) residuals of the axioms on a block and each one's chart exits."""
    gh, hk = model.compose_raw(g, h), model.compose_raw(h, k)
    ut = model.unit_at(model.target_of(g))
    us = model.unit_at(model.source_of(g))
    ginv = model.invert(g)

    def law(a, b, a_from, b_from, want):
        out, gap, ok, exits = _composed(model, a, b, a_from, b_from, n)
        return _fail_closed(np.where(ok, _gap(out, want), gap), exits, n), exits

    laws = [law(ut, g, "unit_at", "sample", g), law(g, us, "sample", "unit_at", g),
            law(g, ginv, "sample", "invert", ut), law(ginv, g, "invert", "sample", us)]
    plain = [_gap(model.source_of(gh), model.source_of(h)),
             _gap(model.target_of(gh), model.target_of(g)),
             _gap(model.compose_raw(gh, k), model.compose_raw(g, hk))]
    res = np.array([np.broadcast_to(r, (n,)) for r in plain] + [r for r, _ in laws])
    return res, [[]] * len(plain) + [exits for _, exits in laws]


# ---------------------------------------------------------------------------
# Lie algebroid recovery
# ---------------------------------------------------------------------------

def lie_algebroid_of(model: GroupoidChartModel, p, prof: ToleranceProfile = DEFAULT_PROFILE,
                     null_tol: float = 1e-6) -> np.ndarray:
    """dt(ker ds) at the unit over p, as rows of a frame matrix.

    The kernel of the source differential at the unit is computed
    numerically and pushed through the target differential; for
    constrained models (fibre products) the constraint Jacobian rows are
    appended before the nullspace.
    """
    ts_map, unit_map = model.maps_for_algebroid()
    u = unit_map(np.asarray(p, dtype=float))
    J = jacobian(ts_map, u, prof)
    Jt, Js = J[:model.base_dim], J[model.base_dim:]
    extra = model.extra_kernel_rows(u, J, prof)
    if extra is not None:
        Js = np.vstack([Js, extra])
    kernel = nullspace(Js, null_tol)
    if kernel.shape[0] == 0:
        return np.zeros((0, model.base_dim))
    return kernel @ Jt.T


def check_algebroid(model: GroupoidChartModel, n_points: int = 100, seed: int = 7,
                    prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """Recovered algebroid span vs the stated frame, by principal angle."""
    rng = rng_for(seed, f"algebroid:{model.name}")
    acc = _Accumulator(prof.subspace_tol)
    for _ in range(n_points):
        p = model.random_base(rng)
        recovered = lie_algebroid_of(model, p, prof)
        expected = model.expected_frame(p)
        angle = subspace_angle(recovered, expected)
        acc.add(angle, {"p": _round_tuple(p)})
    return acc.report("algebroid", model.name, seed)


# ---------------------------------------------------------------------------
# symplectic structure checks
# ---------------------------------------------------------------------------

def _dense_arrows(sym: SymplecticModel, rng, count: int, need_forms=()):
    """Arrows where Omega, omega at both endpoints, and extras are defined."""
    model = sym.model
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise SamplerExhausted(f"{model.name}: dense-chart sampler")
        g = model.random_arrow(rng)
        if not sym.Omega.defined_at(g):
            continue
        sp, tp = model.source_of(g), model.target_of(g)
        if not (sym.omega_base.defined_at(sp) and sym.omega_base.defined_at(tp)):
            continue
        if _near_form_singular(sym, g, sp, tp):
            continue
        if any(not form.defined_at(g) for form in need_forms):
            continue
        out.append(g)
    return out


def _near_form_singular(sym: SymplecticModel, g, sp, tp, margin=0.15) -> bool:
    def small(p):
        return (p[0] * p[0] + p[1] * p[1]) < margin * margin
    return small(sp) or small(tp)


def _unit_vectors(rng, dim, count):
    vs = []
    for _ in range(count):
        v = rng.normal(size=dim)
        vs.append(v / np.linalg.norm(v))
    return vs


def check_symplectic(sym: SymplecticModel, n_samples: int = 200, seed: int = 7,
                     prof: ToleranceProfile = DEFAULT_PROFILE,
                     pullback_tol: float = 1e-7, closed_tol: float = 1e-6,
                     nondeg_floor: float = 1e-6) -> CheckReport:
    """Omega = t*omega - s*omega, d(Omega) = 0, and nondegeneracy.

    The pullback comparison runs on the dense chart against central
    differences of the structure maps; closedness is the numerical
    exterior derivative of the closed form; nondegeneracy is a
    determinant floor on the model's fixed compact sample set.
    """
    model = sym.model
    rng = rng_for(seed, f"symplectic:{model.name}")
    acc = _Accumulator(pullback_tol)
    d, b = model.arrow_dim, model.base_dim
    ts = model.ts
    details = {}
    for g in _dense_arrows(sym, rng, n_samples):
        vs = _unit_vectors(rng, d, 2)
        lhs = sym.Omega(g, vs)
        J = jacobian(ts, g, prof)
        tsg = ts(g)
        rhs = pullback_at(sym.omega_base, tsg[:b], J[:b], vs) \
            - pullback_at(sym.omega_base, tsg[b:], J[b:], vs)
        acc.add(abs(lhs - rhs), {"g": _round_tuple(g), "kind": "pullback"})

    closed_max = 0.0
    for g in _dense_arrows(sym, rng, max(20, n_samples // 10)):
        vs = _unit_vectors(rng, d, 3)
        closed_max = max(closed_max, abs(exterior_derivative(sym.Omega, g, vs, prof)))
    details["d_omega_max"] = closed_max

    nondeg_min = np.inf
    for g in sym.nondeg_grid or ():
        M = _form_matrix(sym.Omega, g)
        nondeg_min = min(nondeg_min, abs(np.linalg.det(M)))
    details["nondeg_min_abs_det"] = None if nondeg_min is np.inf else float(nondeg_min)

    report = acc.report("symplectic", model.name, seed, details=details)
    if closed_max > closed_tol or (sym.nondeg_grid and nondeg_min <= nondeg_floor):
        report.verdict = "fail"
        report.witnesses.append({"residual": float(closed_max),
                                 "kind": "closedness/nondegeneracy",
                                 "nondeg_min": details["nondeg_min_abs_det"]})
    return report


def _form_matrix(form: FormField, g):
    """Coefficient matrix of a 2-form at g (complexified basis if complex)."""
    d = form.ambient_dim
    if form.kind == "complex":
        k = d // 2
        M = np.zeros((k, k), dtype=complex)
        for i in range(k):
            for j in range(k):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[2 * i] = 1.0
                ej[2 * j] = 1.0
                M[i, j] = form(g, [ei, ej])
        return M
    M = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            ei, ej = np.zeros(d), np.zeros(d)
            ei[i] = ej[j] = 1.0
            M[i, j] = form(g, [ei, ej])
            M[j, i] = -M[i, j]
    return M


def check_multiplicative(sym: SymplecticModel, n_samples: int = 200, seed: int = 7,
                         prof: ToleranceProfile = DEFAULT_PROFILE,
                         tol: float = 1e-6) -> CheckReport:
    """m*Omega = pr1*Omega + pr2*Omega on the composable locus.

    Tangent vectors to the locus come from differentiating the model's
    exactly composable pair parametrization, so both sides are evaluated
    on honest composable-pair tangents.
    """
    model = sym.model
    if sym.pair_param is None:
        raise SamplerExhausted(f"{model.name}: no composable-pair parametrization")
    P, sample_params = sym.pair_param
    rng = rng_for(seed, f"multiplicative:{model.name}")
    d = model.arrow_dim

    def m_of_pair(w):
        gh = P(w).tolist()
        return np.asarray(model.compose_raw(tuple(gh[:d]), tuple(gh[d:])), dtype=float)

    Gm = SmoothMap(P.domain_dim, d, m_of_pair, name="m(pr1,pr2)")

    acc = _Accumulator(tol)
    for _ in range(n_samples):
        w = sample_params(rng)
        vs = _unit_vectors(rng, P.domain_dim, 2)
        lhs = pullback(Gm, sym.Omega, w, vs, prof)
        # pr1 and pr2 are row blocks of P: one Jacobian serves both
        J = jacobian(P, w, prof)
        gh = P(w)
        rhs = pullback_at(sym.Omega, gh[:d], J[:d], vs) \
            + pullback_at(sym.Omega, gh[d:], J[d:], vs)
        acc.add(abs(lhs - rhs), {"params": _round_tuple(w)})
    return acc.report("multiplicative", model.name, seed)


# ---------------------------------------------------------------------------
# Poisson structure
# ---------------------------------------------------------------------------

def schouten_residual(pi: Callable, dim: int, p, prof: ToleranceProfile = DEFAULT_PROFILE) -> float:
    """Max component of [pi, pi] at p by central differences.

    [pi,pi]^{ijk} = 2 sum_l (pi^{li} d_l pi^{jk} + pi^{lj} d_l pi^{ki}
    + pi^{lk} d_l pi^{ij}); zero for a Poisson bivector.
    """
    p = np.asarray(p, dtype=float)
    h = prof.fd_step
    pi_p = np.asarray(pi(p), dtype=float)
    grads = np.empty((dim, dim, dim))
    for l in range(dim):
        pp, pm = p.copy(), p.copy()
        pp[l] += h
        pm[l] -= h
        grads[l] = (np.asarray(pi(pp), dtype=float) - np.asarray(pi(pm), dtype=float)) / (2 * h)
    worst = 0.0
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = 0.0
                for l in range(dim):
                    total += (pi_p[l, i] * grads[l][j, k]
                              + pi_p[l, j] * grads[l][k, i]
                              + pi_p[l, k] * grads[l][i, j])
                worst = max(worst, abs(2 * total))
    return worst


def check_poisson(sym: SymplecticModel, n_points: int = 40, seed: int = 7,
                  prof: ToleranceProfile = DEFAULT_PROFILE,
                  tol: float = 1e-6) -> CheckReport:
    """Jacobi identity of the model's bivector at sampled off-divisor points."""
    model = sym.model
    rng = rng_for(seed, f"poisson:{model.name}")
    acc = _Accumulator(tol)
    count = 0
    while count < n_points:
        p = model.random_base(rng)
        if (p[0] * p[0] + p[1] * p[1]) < 0.04:
            continue
        acc.add(schouten_residual(sym.pi_bivector, model.base_dim, p, prof),
                {"p": _round_tuple(p)})
        count += 1
    return acc.report("poisson", model.name, seed)


def non_jacobi_bivector():
    """Negative control: pi = d1^d2 + x1 d3^d4 on R^4, [pi,pi] != 0."""
    def pi(p):
        c = np.zeros((4, 4))
        c[0, 1] = 1.0
        c[2, 3] = p[0]
        return c - c.T
    return pi


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def check_morphism(bundle: MorphismBundle, n_samples: int = 1000, seed: int = 7,
                   prof: ToleranceProfile = DEFAULT_PROFILE,
                   tol: float = 1e-7, form_samples: Optional[int] = None) -> CheckReport:
    """s/t compatibility, unit and multiplication intertwining, form pullback.

    Pairs are drawn one at a time, together with the unit vectors of the
    form comparison (done on the first ``form_samples`` pairs where both
    forms are defined); the map identities are then evaluated per block.
    """
    dom, cod, f = bundle.dom, bundle.cod, bundle.f
    image = _block_image(f)
    rng = rng_for(seed, f"morphism:{bundle.name}")
    acc = _Accumulator(tol)
    form_budget = form_samples if form_samples is not None else max(1, n_samples // 10)
    forms_done = 0
    attempts = 0

    def draw():
        nonlocal attempts, forms_done
        while True:
            attempts += 1
            if attempts > 50 * n_samples:
                raise SamplerExhausted(f"{bundle.name}: morphism sampler")
            try:
                g, h = dom.random_composable_pair(rng)
            except (SamplerExhausted, NotComposable):
                continue
            if not bundle.sample_filter or (bundle.sample_filter(g)
                                            and bundle.sample_filter(h)):
                break
        form_res = 0.0
        if bundle.dom_form is not None and forms_done < form_budget:
            if bundle.dom_form.defined_at(g) and bundle.cod_form.defined_at(f(g)):
                vs = _unit_vectors(rng, dom.arrow_dim, 2)
                lhs = pullback(f, bundle.cod_form, g, vs, prof)
                form_res = abs(lhs - bundle.dom_form(g, vs))
                forms_done += 1
        return g, h, (form_res,)

    for n in _block_sizes(n_samples):
        g, h, (form_res,) = _draw_block(draw, n)
        res, exits = _morphism_residuals(dom, cod, image, g, h, form_res, n)
        acc.add_block(res, lambda i: _with_exit({"g": _row(g, i)}, exits, i))
    return acc.report(f"morphism:{bundle.name}", f"{dom.name}->{cod.name}", seed)


def _block_image(f: SmoothMap) -> Callable:
    """f on a block: its tuple formula, or else its evaluator point by point."""
    if f.formula is not None:
        return f.formula

    def pointwise(block):
        points = np.stack(np.broadcast_arrays(*block), axis=-1)
        return tuple(np.array([f(p) for p in points]).T)
    return pointwise


def _morphism_residuals(dom, cod, image, g, h, form_res, n: int):
    """Residual column of a block of sampled pairs, and its chart exits.

    The residual is the worst of s and t compatibility, multiplication
    (``f(dom.compose(g, h))`` against ``cod.compose(f(g), f(h))``, or
    the gap of the first ``compose`` that refuses its pair), the unit at
    t(g) and the form residual.
    """
    with np.errstate(all="ignore"):
        fg, fh = image(g), image(h)
        res = np.maximum(_gap(cod.source_of(fg), dom.source_of(g)),
                         _gap(cod.target_of(fg), dom.target_of(g)))
        out, gap, ok, exits = _composed(dom, g, h, "sample", "sample", n, "dom.")
        f_out, f_gap, f_ok, f_exits = _composed(cod, fg, fh, "f", "f", n, "cod.")
        res = np.maximum(res, np.where(ok, np.where(f_ok, _gap(image(out), f_out), f_gap),
                                       gap))
        p = dom.target_of(g)
        res = np.maximum(res, _gap(image(dom.unit_at(p)), cod.unit_at(p)))
        exits += [(ok & cod_rows, name) for cod_rows, name in f_exits]
        return _fail_closed(np.maximum(res, form_res), exits, n), exits


def morphism_beta(model: GroupoidChartModel) -> MorphismBundle:
    """The blow-down itself, into the pair groupoid of the base."""
    if model.beta is None:
        raise ValueError(f"{model.name} has no blow-down map")
    return MorphismBundle(f"beta:{model.name}", model.beta, model,
                          pair_groupoid(model.base_dim))


def resolve_psi_convention(n_samples: int = 400, seed: int = 7,
                           prof: ToleranceProfile = DEFAULT_PROFILE,
                           tol: float = 1e-7):
    """Test the covering morphism against the four convention assignments.

    Returns (winners, residual table): for each candidate domain
    structure, the max morphism residual of the covering map.
    Exactly one assignment is expected to pass; callers report its name.
    """
    from .symplectic import symplectic_nonzero_residue_model

    G = symplectic_nonzero_residue_model().model
    psi = morphism_psi()
    table = {}
    for name, cand in psi_domain_candidates().items():
        bundle = MorphismBundle(f"psi[{name}]", psi, cand, G)
        rep = check_morphism(bundle, n_samples=n_samples, seed=seed, prof=prof, tol=tol)
        table[name] = rep.max_residual
    winners = [name for name, r in table.items() if r < tol]
    return winners, table


def check_psi_convention(n_samples: int = 400, seed: int = 7,
                         prof: ToleranceProfile = DEFAULT_PROFILE,
                         tol: float = 1e-7) -> CheckReport:
    winners, table = resolve_psi_convention(n_samples, seed, prof, tol)
    ok = len(winners) == 1
    return CheckReport(check="morphism:psi", model="ssc->sympl-nonzero",
                       samples=len(table), passed=len(table) if ok else 0,
                       max_residual=min(table.values()), tolerance=tol, seed=seed,
                       verdict="pass" if ok else "fail",
                       witnesses=[] if ok else [{"residual": 1.0, "table": table}],
                       details={"winner": winners[0] if ok else None,
                                "residuals": table})


# ---------------------------------------------------------------------------
# variant regression: zero-residue multiplication
# ---------------------------------------------------------------------------

def check_zero_residue_variant(sym: SymplecticModel, n_samples: int = 300, seed: int = 7,
                               derived_tol: float = 1e-9,
                               variant_floor: float = 1e-2) -> CheckReport:
    """The derived product (c + b c') is associative; the near miss is not.

    Both facts are asserted: max associativity residual of the derived
    formula stays under ``derived_tol`` while the transposed-slot variant
    (c + b' c) exceeds ``variant_floor`` on generic samples.
    """
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


# ---------------------------------------------------------------------------
# isotropy cross-oracles
# ---------------------------------------------------------------------------

def check_isotropy(model: GroupoidChartModel, n_samples: int = 500, seed: int = 7,
                   prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """Divisor isotropy composition against the exact discrete oracle.

    For the double-cover quotient the isotropy is C* x| Z/2 acting by
    conjugation (checked against semidirect_mul); for the zero-residue
    and action-groupoid models it is the affine group law
    (b, c)(b', c') = (b b', c + b c'); for the normal-crossing model it
    is (C*)^k componentwise.
    """
    rng = rng_for(seed, f"isotropy:{model.name}")
    acc = _Accumulator(prof.abs_tol)
    kind = _isotropy_kind(model.name)
    if kind == "none":
        raise SamplerExhausted(f"{model.name}: no isotropy oracle")
    draw, residual = _ISOTROPY[kind]
    for n in _block_sizes(n_samples):
        g1, g2, want = _draw_block(lambda: draw(model, rng), n)
        with np.errstate(all="ignore"):
            out, gap, ok, exits = _composed(model, g1, g2, "sample", "sample", n)
            res = _fail_closed(np.where(ok, residual(model, g1, g2, out, want), gap),
                               exits, n)
        acc.add_block(res, lambda i: _with_exit({}, exits, i))
    return acc.report("isotropy", model.name, seed)


def _isotropy_kind(name: str) -> str:
    if name.startswith("case2"):
        return "case2"
    if name.startswith(("sympl-zero", "action-groupoid")):
        return "affine"
    if name.startswith(("case1", "caseIV", "fibre")):
        return "torus"
    return "none"


def _rand_cstar(rng) -> complex:
    mag = float(rng.uniform(0.4, 1.7))
    ph = float(rng.uniform(-np.pi, np.pi))
    return complex(mag * np.cos(ph), mag * np.sin(ph))


# Each isotropy oracle draws one pair of isotropy arrows (g1, g2) and the
# exact product data it expects, then measures a block of products.

def _case2_draw(model, rng):
    nx = model.base_dim - 2
    x0 = tuple(float(rng.uniform(-1, 1)) for _ in range(nx))
    b1, b2 = _rand_cstar(rng), _rand_cstar(rng)
    d1, d2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
    g1 = x0 + x0 + (0.0, 0.0) + (b1.real, b1.imag) + (float(d1),)
    g2 = x0 + x0 + (0.0, 0.0) + (b2.real, b2.imag) + (float(d2),)
    flip1 = SignedPermutation((0,), (d1,))
    flip2 = SignedPermutation((0,), (d2,))
    (zexp,), spexp = semidirect_mul(((b1,), flip1), ((b2,), flip2))
    return g1, g2, (zexp.real, zexp.imag, float(spexp.flips[0]))


def _case2_residual(model, g1, g2, out, want):
    return (_cabs(out[-3] - want[0], out[-2] - want[1])
            + abs(out[-1] - want[2]))


def _affine_slots(model):
    """Slots of (b, c) in an isotropy arrow, and of z2 in its base point (0, z2)."""
    if model.name.startswith("sympl-zero"):
        return 4, 0
    return 0, 6


def _affine_draw(model, rng):
    z2 = complex(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    b1, b2 = _rand_cstar(rng), _rand_cstar(rng)
    c1 = complex(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    c2 = complex(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    ib, iw = _affine_slots(model)

    def mk(b, c):
        g = [0.0] * 8
        g[ib:ib + 4] = (b.real, b.imag, c.real, c.imag)
        g[iw:iw + 2] = (z2.real, z2.imag)
        return tuple(g)

    b, c = b1 * b2, c1 + b1 * c2
    return mk(b1, c1), mk(b2, c2), (b.real, b.imag, c.real, c.imag)


def _affine_residual(model, g1, g2, out, want):
    ib = _affine_slots(model)[0]
    return (_cabs(out[ib] - want[0], out[ib + 1] - want[1])
            + _cabs(out[ib + 2] - want[2], out[ib + 3] - want[3]))


def _torus_draw(model, rng):
    zeroed = _zero_divisor_coords(model, model.random_base(rng))
    g1 = model.arrow_between(zeroed, zeroed, rng)
    g2 = model.arrow_between(zeroed, zeroed, rng)
    return g1, g2, ()


def _torus_residual(model, g1, g2, out, want):
    res = 0.0
    for f1, f2, fo in zip(model.divisor_factors(g1), model.divisor_factors(g2),
                          model.divisor_factors(out)):
        b12 = _cmul(*f1[2:], *f2[2:])
        res = np.maximum(res, np.maximum(_cabs(fo[2] - b12[0], fo[3] - b12[1]),
                                         _cabs(fo[0] - f1[0], fo[1] - f1[1])))
    return res


_ISOTROPY = {"case2": (_case2_draw, _case2_residual),
             "affine": (_affine_draw, _affine_residual),
             "torus": (_torus_draw, _torus_residual)}


def _zero_divisor_coords(model, p):
    """Project a base point onto its deepest stratum (all factors zero)."""
    name = model.name
    p = list(p)
    if name.startswith("case1") or name.startswith("case2"):
        p[-2] = p[-1] = 0.0
    elif name.startswith("caseIV"):
        k = int(name.split(",")[1].rstrip(")"))
        for j in range(k):
            p[-2 * j - 1] = p[-2 * j - 2] = 0.0
    elif name.startswith("fibre"):
        nx = len(p) - 4
        for i in range(nx, len(p)):
            p[i] = 0.0
    return tuple(p)


# ---------------------------------------------------------------------------
# elliptic ideal on arrows
# ---------------------------------------------------------------------------

def check_ideal(model: GroupoidChartModel, n_samples: int = 1000, seed: int = 7,
                prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """s*I = (ratio) t*I with invertible ratio, and ratio 1 on units.

    The quantities are those of ``elliptic_ideal_pullback`` on a sampled
    arrow and on the unit at a sampled base point, evaluated per block.
    """
    if model.divisor_factors is None:
        raise ChartInvalid(f"{model.name}: no divisor factor data")
    rng = rng_for(seed, f"ideal:{model.name}")
    acc = _Accumulator(prof.abs_tol)
    for n in _block_sizes(n_samples):
        g, p = _draw_block(lambda: (model.random_arrow(rng), model.random_base(rng)), n)
        with np.errstate(all="ignore"):
            u = model.unit_at(p)
            s_val, t_val, ratio = ideal_values(model.divisor_factors(g))
            res = abs(s_val - t_val * ratio)
            res = np.where(ratio <= 0, np.maximum(res, 1.0), res)
            unit_ratio = ideal_values(model.divisor_factors(u))[2]
            res = np.maximum(res, abs(unit_ratio - 1.0))
            exits = [(_outside(model, g, n), "sample"), (_outside(model, u, n), "unit_at")]
            res = _fail_closed(res, exits, n)
        acc.add_block(res, lambda i: _with_exit({"g": _row(g, i)}, exits, i))
    return acc.report("ideal", model.name, seed)


# ---------------------------------------------------------------------------
# negative control
# ---------------------------------------------------------------------------

def perturbed_model(model: GroupoidChartModel, epsilon: float = 1e-3,
                    component: int = 0) -> GroupoidChartModel:
    """Copy of a model with one multiplication output deliberately offset."""
    inner = model.compose_raw

    def bad_compose(g, h):
        out = inner(g, h)
        return out[:component] + (out[component] + epsilon,) + out[component + 1:]

    return replace(model, name=f"{model.name}+eps", compose_raw=bad_compose)
