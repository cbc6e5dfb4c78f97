"""Executable verification suites tying the chart models to their claims.

Each check draws from a counter-based seeded stream, aggregates a max
residual over its samples, and returns a CheckReport carrying the seed,
the tolerance actually used, and up to 20 failure witnesses; verdicts
are deterministic functions of (model, seed, profile).  Negative
controls (a perturbed multiplication, near-miss variant formulas and
composition, a non-Jacobi bivector) ship alongside so the suite
demonstrably fails on wrong formulas.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import NotComposable, SamplerExhausted
from .groupoids import GroupoidChartModel, pair_groupoid
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


def _worst(*values) -> float:
    """The largest value, or the first NaN: the builtin ``max`` drops NaN."""
    for v in values:
        if v != v:
            return v
    return max(values)


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

    def report(self, check: str, model: str, seed: int, details=None) -> CheckReport:
        return CheckReport(check=check, model=model, samples=self.samples,
                           passed=self.passed, max_residual=self.max_residual,
                           tolerance=self.tol, seed=seed,
                           witnesses=self.witnesses, details=details or {})


def _round_tuple(g, digits=6):
    return [round(float(x), digits) for x in g]


# ---------------------------------------------------------------------------
# groupoid axioms
# ---------------------------------------------------------------------------

AXIOM_NAMES = ("s(m(g,h))=s(h)", "t(m(g,h))=t(g)", "associativity",
               "left unit", "right unit", "right inverse", "left inverse")


def check_groupoid_axioms(model: GroupoidChartModel, n_samples: int = 10_000,
                          seed: int = 7, prof: ToleranceProfile = DEFAULT_PROFILE,
                          sampler=None) -> CheckReport:
    """The seven structure-map identities on sampled arrows and tuples.

    Souce/target of products, associativity on exactly composable
    triples, the two unit laws and the two inverse laws, each measured
    as a max coordinate residual.
    """
    rng = rng_for(seed, f"axioms:{model.name}")
    acc = _Accumulator(prof.abs_tol)
    per_axiom = {name: 0.0 for name in AXIOM_NAMES}
    draw_triple = sampler or model.random_composable_triple

    def guarded(fn):
        # a broken multiplication can push endpoints apart; record the
        # gap as the residual instead of aborting the suite
        try:
            return fn()
        except NotComposable as err:
            return getattr(err, "gap", 1.0)

    for _ in range(n_samples):
        g, h, k = draw_triple(rng)
        gh = model.compose_raw(g, h)
        hk = model.compose_raw(h, k)
        res = {}
        res["s(m(g,h))=s(h)"] = _gap(model.source_of(gh), model.source_of(h))
        res["t(m(g,h))=t(g)"] = _gap(model.target_of(gh), model.target_of(g))
        res["associativity"] = guarded(
            lambda: _gap(model.compose_raw(gh, k), model.compose_raw(g, hk)))
        ut = model.unit_at(model.target_of(g))
        us = model.unit_at(model.source_of(g))
        res["left unit"] = guarded(lambda: _gap(model.compose(ut, g), g))
        res["right unit"] = guarded(lambda: _gap(model.compose(g, us), g))
        ginv = model.invert(g)
        res["right inverse"] = guarded(lambda: _gap(model.compose(g, ginv), ut))
        res["left inverse"] = guarded(lambda: _gap(model.compose(ginv, g), us))
        worst_name = max(res, key=res.get)
        for name, value in res.items():
            if value > per_axiom[name]:
                per_axiom[name] = value
            elif value != value:            # NaN, which max and > both skip
                per_axiom[name] = value
                worst_name = name
        acc.add(res[worst_name], {"identity": worst_name, "g": _round_tuple(g)})
    return acc.report("axioms", model.name, seed, details={"per_identity": per_axiom})


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
    """s/t compatibility, unit and multiplication intertwining, form pullback."""
    dom, cod, f = bundle.dom, bundle.cod, bundle.f
    rng = rng_for(seed, f"morphism:{bundle.name}")
    acc = _Accumulator(tol)
    form_budget = form_samples if form_samples is not None else max(1, n_samples // 10)
    forms_done = 0
    drawn = 0
    attempts = 0
    while drawn < n_samples:
        attempts += 1
        if attempts > 50 * n_samples:
            raise SamplerExhausted(f"{bundle.name}: morphism sampler")
        try:
            g, h = dom.random_composable_pair(rng)
        except (SamplerExhausted, NotComposable):
            continue
        if bundle.sample_filter and not (bundle.sample_filter(g) and bundle.sample_filter(h)):
            continue
        fg, fh = tuple(f(g)), tuple(f(h))
        res = _worst(_gap(cod.source_of(fg), dom.source_of(g)),
                     _gap(cod.target_of(fg), dom.target_of(g)))
        try:
            res = _worst(res, _gap(tuple(f(dom.compose(g, h))), cod.compose(fg, fh)))
        except NotComposable as err:
            res = _worst(res, getattr(err, "gap", 1.0))
        p = dom.target_of(g)
        res = _worst(res, _gap(tuple(f(dom.unit_at(p))), cod.unit_at(p)))
        if bundle.dom_form is not None and forms_done < form_budget:
            if bundle.dom_form.defined_at(g) and bundle.cod_form.defined_at(fg):
                vs = _unit_vectors(rng, dom.arrow_dim, 2)
                lhs = pullback(f, bundle.cod_form, g, vs, prof)
                res = _worst(res, abs(lhs - bundle.dom_form(g, vs)))
                forms_done += 1
        acc.add(res, {"g": _round_tuple(g)})
        drawn += 1
    return acc.report(f"morphism:{bundle.name}", f"{dom.name}->{cod.name}", seed)


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
    for _ in range(n_samples):
        if kind == "case2":
            nx = model.base_dim - 2
            x0 = tuple(float(rng.uniform(-1, 1)) for _ in range(nx))
            b1, b2 = _rand_cstar(rng), _rand_cstar(rng)
            d1, d2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            g1 = x0 + x0 + (0.0, 0.0) + (b1.real, b1.imag) + (float(d1),)
            g2 = x0 + x0 + (0.0, 0.0) + (b2.real, b2.imag) + (float(d2),)
            out = model.compose(g1, g2)
            got = complex(out[-3], out[-2])
            flip1 = SignedPermutation((0,), (d1,))
            flip2 = SignedPermutation((0,), (d2,))
            (zexp,), spexp = semidirect_mul(((b1,), flip1), ((b2,), flip2))
            res = abs(got - zexp) + abs(out[-1] - float(spexp.flips[0]))
        elif kind == "affine":
            res = _affine_isotropy_residual(model, rng)
        elif kind == "torus":
            res = _torus_isotropy_residual(model, rng)
        else:
            raise SamplerExhausted(f"{model.name}: no isotropy oracle")
        acc.add(res)
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


def _affine_isotropy_residual(model, rng) -> float:
    z2 = complex(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    b1, b2 = _rand_cstar(rng), _rand_cstar(rng)
    c1 = complex(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    c2 = complex(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    if model.name.startswith("sympl-zero"):
        mk = lambda b, c: (z2.real, z2.imag, 0.0, 0.0, b.real, b.imag, c.real, c.imag)
        out = model.compose(mk(b1, c1), mk(b2, c2))
        got_b, got_c = complex(out[4], out[5]), complex(out[6], out[7])
    else:
        mk = lambda b, c: (b.real, b.imag, c.real, c.imag, 0.0, 0.0, z2.real, z2.imag)
        out = model.compose(mk(b1, c1), mk(b2, c2))
        got_b, got_c = complex(out[0], out[1]), complex(out[2], out[3])
    return abs(got_b - b1 * b2) + abs(got_c - (c1 + b1 * c2))


def _torus_isotropy_residual(model, rng) -> float:
    zeroed = _zero_divisor_coords(model, model.random_base(rng))
    g1 = model.arrow_between(zeroed, zeroed, rng)
    g2 = model.arrow_between(zeroed, zeroed, rng)
    out = model.compose(g1, g2)
    f1 = model.divisor_factors(g1)
    f2 = model.divisor_factors(g2)
    fo = model.divisor_factors(out)
    res = 0.0
    for (a1, b1), (a2, b2), (ao, bo) in zip(f1, f2, fo):
        res = max(res, abs(bo - b1 * b2), abs(ao - a1))
    return res


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
    """s*I = (ratio) t*I with invertible ratio, and ratio 1 on units."""
    from .groupoids import elliptic_ideal_pullback

    rng = rng_for(seed, f"ideal:{model.name}")
    acc = _Accumulator(prof.abs_tol)
    for _ in range(n_samples):
        g = model.random_arrow(rng)
        s_val, t_val, ratio = elliptic_ideal_pullback(model, g)
        res = abs(s_val - t_val * ratio)
        if ratio <= 0:
            res = max(res, 1.0)
        u = model.unit_at(model.random_base(rng))
        _, _, unit_ratio = elliptic_ideal_pullback(model, u)
        res = max(res, abs(unit_ratio - 1.0))
        acc.add(res, {"g": _round_tuple(g)})
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
