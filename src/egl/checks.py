"""Executable verification suites tying the chart models to their claims.

Each check draws from a counter-based seeded stream, aggregates a max
residual over its samples, and returns a CheckReport carrying the seed,
the tolerance actually used, and up to 20 failure witnesses; verdicts
are deterministic functions of (model, seed, profile).  Negative
controls (a perturbed multiplication, near-miss variant formulas and
composition, a non-Jacobi bivector) ship alongside so the suite
demonstrably fails on wrong formulas.

Every sampled suite is a draw and a ``measure(block, n)``, run by one
driver, ``_suite``, on blocks of up to ``BLOCK_ROWS`` samples, each
drawn by one sampler call (``_drawn``) or sliced from arrays drawn
before any block (``_sliced``); ``measure`` runs with NumPy's
floating-point warnings off and returns the block's residual column and
``witness(i)``.  Samples, residuals, witnesses and verdicts are those
of the sample-by-sample evaluation, whatever the block size.  The
structure-map suites evaluate every identity once per block, on
coordinate columns (see ``egl.groupoids``), and fail closed: where a
structure map's output leaves the chart (``compose`` would raise
ChartInvalid), the identity's residual is inf and its witness names the
map.  The calculus suites differentiate a block with one stacked
Jacobian and run their SVDs stacked (see ``egl.kernel``), with the bits
of the point-by-point computation; a NaN or infinite value fails its
sample with a witness.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ChartInvalid, NonFiniteValue, SamplerExhausted, StencilOutsideDomain
from .groupoids import (COMPOSABLE_TOL, GroupoidChartModel, _cabs, _full, _stack, ideal_values,
                        pair_groupoid, uniforms)
from .groupoids import _maxdiff as _gap
from .kernel import (DEFAULT_PROFILE, FormField, SmoothMap, ToleranceProfile,
                     exterior_derivative, jacobian, nullspace, pullback_at, subspace_angle)
from .kernel import pullback  # noqa: F401  (a module attribute the benchmark tracer wraps)
from .symplectic import (MorphismBundle, SymplecticModel, _antisymmetric, _zero_matrix,
                         morphism_psi, psi_domain_candidates)

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
BLOCK_ROWS = 4096     # samples drawn, then evaluated together; caps a block's memory

# Thresholds of the calculus, convention and variant checks
PULLBACK_TOL = 1e-7       # symplectic: |Omega - (t*omega - s*omega)|
CLOSED_TOL = 1e-6         # symplectic: |d Omega|
NONDEG_FLOOR = 1e-6       # symplectic: |det| of Omega on the grid must exceed it
MULTIPLICATIVE_TOL = 1e-6
POISSON_TOL = 1e-6        # |[pi, pi]|
PSI_TOL = 1e-7            # a covering-map convention passes below it
DERIVED_TOL = 1e-9        # variants: associativity of the derived product
VARIANT_FLOOR = 1e-2      # variants: the near miss must exceed it


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


@functools.cache
def _philox_key():
    """The seed-sequence type that hands Philox its key as its state.

    ``np.random.Philox(key=...)`` first builds a ``SeedSequence`` from
    fresh OS entropy and then overwrites its state with the key; given
    an instance of this type instead, Philox reads the key as its
    two-word state and starts from the same counter, key and buffer.
    Built on first use, as ``numpy.random`` is imported on first use and
    the exact layer never draws.
    """
    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is two uint64 words")
            return self.key
    return PhiloxKey


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Philox (counter-based, 64-bit) stream keyed by seed and label.

    The generator and the layout of the draws read from it are part of
    the report contract, named by ``egl.report.ARTIFACT["rng"]``: under
    "philox4x64-v4" every sampler, the composable-pair samplers of
    ``check_multiplicative`` and the isotropy pairs included, reads a
    fixed number of uniforms per sample, one ``random`` slab per block,
    so a block of n samples is the n one-sample draws, a filtered draw
    keeps the first accepted samples of its stream (``_draw_kept``), and
    no layout depends on ``BLOCK_ROWS``.  Changing either is a versioned
    break.  A seed outside 0 .. 2**64 - 1 is a ValueError: it would
    alias a seed inside that range.
    """
    if not 0 <= seed <= 0xFFFFFFFFFFFFFFFF:
        raise ValueError(f"seed {seed} is outside 0 .. 2**64 - 1")
    key = np.array([seed, zlib.crc32(label.encode())], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key()(key)))


def _running_max(current: float, column) -> float:
    """The larger of ``current`` and the column's max; NaN, once seen, stays."""
    if current != current or len(column) == 0:
        return current
    top = float(np.maximum.reduce(column))    # NaN if any entry is NaN
    return top if top > current or top != top else current


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


def _round_tuple(g):
    return [round(float(x), 6) for x in g]


# ---------------------------------------------------------------------------
# the block driver
# ---------------------------------------------------------------------------

def _suite(check, model, seed, tol, blocks, measure, details=None) -> CheckReport:
    """The report of ``check`` on ``model``, at ``tol``, of ``measure`` on ``blocks``."""
    acc = _Accumulator(tol)
    for block, n in blocks:
        with np.errstate(all="ignore"):
            acc.add_block(*measure(block, n))
    return acc.report(check, model, seed, details)


def _block_sizes(n_samples: int) -> list:
    return [min(BLOCK_ROWS, n_samples - start) for start in range(0, n_samples, BLOCK_ROWS)]


def _drawn(draw, rng, n_samples: int):
    """The blocks ``draw(rng, n)``, one per entry n of ``_block_sizes``."""
    for n in _block_sizes(n_samples):
        yield draw(rng, n), n


def _sliced(*arrays):
    """The blocks of ``BLOCK_ROWS`` consecutive rows of arrays drawn together."""
    for start, n in zip(range(0, len(arrays[0]), BLOCK_ROWS), _block_sizes(len(arrays[0]))):
        yield tuple(a[start:start + n] for a in arrays), n


def _row(block, i) -> list:
    return _round_tuple(column[i] for column in block)


def _column(x, n: int) -> np.ndarray:
    """x as an (n,) column: x itself when it is one, else broadcast."""
    if isinstance(x, np.ndarray) and x.shape == (n,):
        return x
    return np.broadcast_to(x, (n,))


def _outside(model: GroupoidChartModel, x, n: int) -> np.ndarray:
    """The rows of the n-point block x that leave the model's chart."""
    return _column(np.logical_not(model.arrow_valid(x)), n)


def _composed(model: GroupoidChartModel, g, h, gap, exits, n: int,
              name: str = "compose_raw"):
    """``model.compose(g, h)`` on a block of n pairs, failing closed.

    ``gap`` is the endpoint gap of the pairs and ``exits`` lists (rows,
    map) for the rows where g or h leaves the chart.  Returns (product,
    composable, exits).  ``composable`` holds where the gap is within
    ``COMPOSABLE_TOL`` (never where it is NaN); there ``compose``
    returns the product, elsewhere it raises NotComposable carrying the
    gap.  The returned exits add, on composable rows, those where the
    product leaves the chart: everywhere an exit holds, ``compose``
    raises ChartInvalid instead.
    """
    out = model.compose_raw(g, h)
    ok = _column(gap <= COMPOSABLE_TOL, n)
    return out, ok, exits + [(ok & _outside(model, out, n), name)]


def _fail_closed(residual, exits, n: int) -> np.ndarray:
    """The residual as an n-vector, inf on the rows of every chart exit."""
    out = _column(residual, n).astype(float)
    out[np.logical_or.reduce([rows for rows, _ in exits])] = np.inf
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


def check_groupoid_axioms(model: GroupoidChartModel, n_samples: int, seed: int,
                          prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """The seven structure-map identities on sampled arrows and tuples.

    Source/target of products, associativity on exactly composable
    triples, the two unit laws and the two inverse laws, each measured
    as a max coordinate residual.  A law whose pair is not composable
    records the endpoint gap.  Each sample's witness names its worst
    identity: the last one that went NaN, else the first largest.
    """
    per_axiom = {name: 0.0 for name in AXIOM_NAMES}
    last = len(AXIOM_NAMES) - 1

    def measure(triple, n):
        g, h, k = triple
        res, exits = _axiom_residuals(model, g, h, k, n)
        for name, column in zip(AXIOM_NAMES, res):
            per_axiom[name] = _running_max(per_axiom[name], column)
        nan = np.isnan(res)
        worst = np.where(np.logical_or.reduce(nan, axis=0), last - np.argmax(nan[::-1], axis=0),
                         np.argmax(np.where(nan, -np.inf, res), axis=0))
        return res[worst, np.arange(n)], lambda i: _with_exit(
            {"identity": AXIOM_NAMES[worst[i]], "g": _row(g, i)}, exits[worst[i]], i)

    rng = rng_for(seed, f"axioms:{model.name}")
    return _suite("axioms", model.name, seed, prof.abs_tol, _drawn(
        model.random_composable_triple, rng, n_samples), measure, {"per_identity": per_axiom})


def _axiom_residuals(model: GroupoidChartModel, g, h, k, n: int):
    """The (7, n) residuals of the axioms on a block and each one's chart exits.

    Each structure map runs once on each of its distinct inputs.  A
    sample whose drawn g, h or k leaves the chart (a sampler extending
    from a non-finite endpoint returns a NaN arrow) fails every identity.
    """
    s, t = model.source_of, model.target_of
    sg, tg = s(g), t(g)
    gh, hk = model.compose_raw(g, h), model.compose_raw(h, k)
    ut, us, ginv = model.unit_at(tg), model.unit_at(sg), model.invert(g)
    out_g = _outside(model, g, n)
    drawn = [(out_g | _outside(model, h, n) | _outside(model, k, n), "sample")]
    exit_g = (out_g, "sample")
    exit_ut = (_outside(model, ut, n), "unit_at")
    exit_us = (_outside(model, us, n), "unit_at")
    exit_ginv = (_outside(model, ginv, n), "invert")

    def law(a, b, gap, a_exit, b_exit, want):
        out, ok, exits = _composed(model, a, b, gap, drawn + [a_exit, b_exit], n)
        return _fail_closed(np.where(ok, _gap(out, want), gap), exits, n), exits

    laws = [law(ut, g, _gap(s(ut), tg), exit_ut, exit_g, g),
            law(g, us, _gap(sg, t(us)), exit_g, exit_us, g),
            law(g, ginv, _gap(sg, t(ginv)), exit_g, exit_ginv, ut),
            law(ginv, g, _gap(s(ginv), tg), exit_ginv, exit_g, us)]
    plain = [_gap(s(gh), s(h)), _gap(t(gh), tg),
             _gap(model.compose_raw(gh, k), model.compose_raw(g, hk))]
    res = np.array([_fail_closed(r, drawn, n) for r in plain] + [r for r, _ in laws])
    return res, [drawn] * len(plain) + [exits for _, exits in laws]


# ---------------------------------------------------------------------------
# Lie algebroid recovery
# ---------------------------------------------------------------------------

def lie_algebroid_of(model: GroupoidChartModel, p, prof: ToleranceProfile = DEFAULT_PROFILE):
    """dt(ker ds) at the unit over p, as rows of a frame matrix.

    The kernel of the source differential at the unit (singular values
    below 1e-6) is computed numerically and pushed through the target
    differential; for constrained models (fibre products) the constraint
    Jacobian rows are appended before the nullspace.  A stack of base
    points (N, base_dim) gives its frames from one block of units, one
    stacked Jacobian and one stacked nullspace: as one (N, k, base_dim)
    array, from one stacked product ``kernel @ Jt.T`` of C-contiguous
    operands, when every kernel has dimension k (always, on a registered
    model), and as the list of the N frames, one product each, when the
    dimensions differ.  Each frame has the bits of its point's product;
    a point is the one-row stack.
    """
    ts_map, unit_map = model.maps_for_algebroid()
    p = np.asarray(p, dtype=float)
    b = model.base_dim
    units = unit_map(p.reshape(-1, b))
    J = jacobian(ts_map, units, prof)
    Js = J[:, b:]
    extra = model.extra_kernel_rows(units, J, prof)
    if extra is not None:
        Js = np.concatenate([Js, extra], axis=1)
    kernels = nullspace(Js, 1e-6)
    Jt = np.ascontiguousarray(J[:, :b]).transpose(0, 2, 1)
    if isinstance(kernels, list):
        frames = [kernel @ jt for kernel, jt in zip(kernels, Jt)]
    else:
        frames = np.ascontiguousarray(kernels) @ Jt
    return frames if p.ndim == 2 else frames[0]


def _recovered(model: GroupoidChartModel, stack: np.ndarray, prof: ToleranceProfile):
    """``lie_algebroid_of`` at a stack of base points, failing closed.

    Returns the frames and the chart exits of the points whose recovery
    raises NonFiniteValue or StencilOutsideDomain: such a point's frame
    is NaN, and its exit names ``unit_at`` where the unit is not finite
    or outside the domain of ts, else ``ts``.  The stack is recovered in
    one call, and point by point only when that raises; a frame has the
    bits of its one-row stack either way.
    """
    try:
        return lie_algebroid_of(model, stack, prof), []
    except (NonFiniteValue, StencilOutsideDomain):
        pass
    ts_map, unit_map = model.maps_for_algebroid()
    frames, failed = [], np.zeros((2, len(stack)), dtype=bool)
    for i, p in enumerate(stack):
        try:
            frames.append(lie_algebroid_of(model, p[None], prof)[0])
        except (NonFiniteValue, StencilOutsideDomain):
            u = unit_map(p)
            failed[int(np.isfinite(u).all() and ts_map.defined_at(u)), i] = True
            frames.append(np.full((1, len(p)), np.nan))
    return frames, [(failed[0], "unit_at"), (failed[1], "ts")]


def check_algebroid(model: GroupoidChartModel, n_points: int, seed: int,
                    prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """Recovered algebroid span vs the stated frame, by principal angle.

    A block of base points is recovered by one stacked
    ``lie_algebroid_of``, stated by one ``expected_frame`` call on its
    coordinate columns (a frame that does not depend on the point may be
    one matrix, broadcast over the block) and compared by one stacked
    ``subspace_angle``.  A point whose recovery raises on the model's
    own maps fails with an inf residual and a witness naming ``ts`` or
    ``unit_at`` (see ``_recovered``); a point whose stated frame is not
    finite, naming ``expected_frame``.  A model without a stated frame
    raises SamplerExhausted, as ``check_isotropy`` does for a model
    without its law.
    """
    if model.expected_frame is None:
        raise SamplerExhausted(f"{model.name}: no stated algebroid frame")

    def measure(base, n):
        stack = np.column_stack(base)
        recovered, exits = _recovered(model, stack, prof)
        stated = np.asarray(model.expected_frame(base), dtype=float)
        angles = subspace_angle(recovered, np.broadcast_to(stated, (n,) + stated.shape[-2:]))
        # a NaN angle not named by a recovery exit is a stated frame
        # holding NaN or inf
        exits.append((np.isnan(angles), "expected_frame"))
        return _fail_closed(angles, exits, n), lambda i: _with_exit(
            {"p": _round_tuple(stack[i])}, exits, i)

    return _suite("algebroid", model.name, seed, prof.subspace_tol, _drawn(
        model.random_base, rng_for(seed, f"algebroid:{model.name}"), n_points), measure)


# ---------------------------------------------------------------------------
# symplectic structure checks
# ---------------------------------------------------------------------------

def _draw_kept(draw, keep, count: int, dim: int, what: str) -> np.ndarray:
    """``count`` drawn rows that ``keep`` accepts, as a (count, dim) stack.

    Each round draws the rows still missing: ``draw(n)`` returns a block
    of n rows as coordinate columns and ``keep`` its bool column.  The
    samplers are fixed-width, so the rows kept are those of a
    one-at-a-time loop, and no row is drawn that it would not draw.
    More than 200 * count rows drawn raise SamplerExhausted(what).
    """
    kept, have, drawn = [], 0, 0
    while have < count:
        n = min(count - have, 200 * count - drawn)
        if n == 0:
            raise SamplerExhausted(what)
        block = draw(n)
        drawn += n
        with np.errstate(all="ignore"):
            ok = _column(keep(block), n)
        kept.append(_stack(block, n).T[ok])
        have += len(kept[-1])
    return np.concatenate(kept) if kept else np.empty((0, dim))


def _dense_arrows(sym: SymplecticModel, rng, count: int) -> np.ndarray:
    """Arrows where Omega and omega at both endpoints are defined and
    both endpoints have (p[0], p[1]) at least 0.15 from 0, as a (count, d)
    stack."""
    model = sym.model

    def dense(g):
        ok = sym.Omega.defined_at(np.column_stack(g))
        for p in (model.source_of(g), model.target_of(g)):
            p = _full(p, len(ok))
            ok = ok & sym.omega_base.defined_at(np.column_stack(p)) & ~_near_form_singular(p)
        return ok

    return _draw_kept(lambda n: model.random_arrow(rng, n), dense, count,
                      model.arrow_dim, f"{model.name}: dense-chart sampler")


def _near_form_singular(p):
    return (p[0] * p[0] + p[1] * p[1]) < 0.15 * 0.15


def _unit_vectors(rng, dim: int, per: int, count: int) -> np.ndarray:
    """(count, per, dim) unit vectors from one ``rng.normal`` call: the
    draws and bits of count * per calls ``v = rng.normal(size=dim)``,
    each divided by ``np.linalg.norm(v)`` (a stacked matmul of the
    contiguous rows takes the same BLAS dot product)."""
    v = rng.normal(size=(count, per, dim))
    flat = v.reshape(-1, dim)
    return v / np.sqrt((flat[:, None, :] @ flat[:, :, None]).reshape(count, per, 1))


def _jacobians(f: SmoothMap, points, prof: ToleranceProfile) -> np.ndarray:
    """The stacked Jacobian of f at the points, where a point whose
    Jacobian is not finite gets an all-NaN one, so that its sample fails
    instead of ``jacobian``'s NonFiniteValue ending the check.

    The stack that NonFiniteValue carries is used as it is; when it stops
    short of the last point, the next point is outside f's domain, and
    ``jacobian`` on the remaining points raises its StencilOutsideDomain.
    """
    try:
        return jacobian(f, points, prof)
    except NonFiniteValue as err:
        J = err.values
    J[~np.isfinite(J).all(axis=(1, 2))] = np.nan
    if len(J) < len(points):
        jacobian(f, points[len(J):], prof)
    return J


def _modulus(values: np.ndarray) -> np.ndarray:
    """|values|; for a complex column by hypot, as CPython's ``abs`` computes it."""
    if np.iscomplexobj(values):
        return _cabs(values.real, values.imag)
    return np.abs(values)


def check_symplectic(sym: SymplecticModel, n_samples: int, seed: int,
                     prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """Omega = t*omega - s*omega, d(Omega) = 0, and nondegeneracy.

    The pullback comparison runs on the dense chart against central
    differences of the structure maps, within ``PULLBACK_TOL``;
    closedness is the numerical exterior derivative of the closed form,
    within ``CLOSED_TOL``; nondegeneracy is the determinant floor
    ``NONDEG_FLOOR`` on the model's fixed compact sample set.  Each of
    the first two phases draws its arrows, then its unit vectors in one
    call.  A NaN or an infinity in any phase fails the check with a
    witness: a failed closedness bound adds a ``closedness`` witness with
    residual ``d_omega_max``, and a failed determinant floor a
    ``nondegeneracy`` witness with residual ``nondeg_min_abs_det``.
    """
    model = sym.model
    rng = rng_for(seed, f"symplectic:{model.name}")
    d, b = model.arrow_dim, model.base_dim
    ts = model.ts

    def measure(block, n):
        g, vectors = block
        vs = list(vectors.transpose(1, 0, 2))
        J, tsg = _jacobians(ts, g, prof), ts(g)
        rhs = pullback_at(sym.omega_base, tsg[:, :b], J[:, :b], vs) \
            - pullback_at(sym.omega_base, tsg[:, b:], J[:, b:], vs)
        return _modulus(sym.Omega(g, vs) - rhs), \
            lambda i: {"g": _round_tuple(g[i]), "kind": "pullback"}

    arrows = _dense_arrows(sym, rng, n_samples)
    vectors = _unit_vectors(rng, d, 2, len(arrows))
    report = _suite("symplectic", model.name, seed, PULLBACK_TOL, _sliced(arrows, vectors),
                    measure)

    closed_max = 0.0
    arrows = _dense_arrows(sym, rng, max(20, n_samples // 10))
    vectors = _unit_vectors(rng, d, 3, len(arrows))
    for (g, vs), _ in _sliced(arrows, vectors):
        closed_max = _running_max(closed_max, _modulus(
            exterior_derivative(sym.Omega, g, list(vs.transpose(1, 0, 2)), prof)))
    report.details["d_omega_max"] = closed_max

    nondeg_min = None
    if sym.nondeg_grid:
        M = _form_matrix(sym.Omega, sym.nondeg_grid)
        with np.errstate(all="ignore"):
            # LAPACK may turn a NaN entry into a zero pivot: a matrix that is
            # not finite has determinant NaN
            dets = np.where(np.isfinite(M).all(axis=(1, 2)), np.linalg.det(M), np.nan)
        magnitudes = [abs(x) for x in dets]   # numpy's scalar abs, as one det gives
        nondeg_min = math.nan if any(x != x for x in magnitudes) else float(min(magnitudes))
    report.details["nondeg_min_abs_det"] = nondeg_min

    if not closed_max <= CLOSED_TOL:
        report.verdict = "fail"
        report.witnesses.append({"residual": float(closed_max), "kind": "closedness"})
    if nondeg_min is not None and not nondeg_min > NONDEG_FLOOR:
        report.verdict = "fail"
        report.witnesses.append({"residual": nondeg_min, "kind": "nondegeneracy"})
    return report


def _form_matrix(form: FormField, g) -> np.ndarray:
    """Coefficient matrix of a 2-form at g (complexified basis if complex).

    A stack of arrows (N, d) gives the (N, k, k) stack.  Every entry of
    every matrix comes from one call of the form, on the arrows repeated
    once per pair of basis vectors.
    """
    G = np.asarray(g, dtype=float)
    stack = G.reshape(-1, form.ambient_dim)
    n, d = stack.shape
    if form.kind == "complex":
        k = d // 2
        i, j = np.divmod(np.arange(k * k), k)
        slots = (2 * i, 2 * j)
    else:
        k = d
        i, j = np.triu_indices(d, 1)
        slots = (i, j)
    basis = np.eye(d)
    values = form(np.tile(stack, (len(i), 1)),
                  [np.repeat(basis[s], n, axis=0) for s in slots]).reshape(len(i), n)
    M = np.zeros((n, k, k), dtype=values.dtype)
    M[:, i, j] = values.T
    if form.kind == "real":
        M[:, j, i] = -values.T
    return M if G.ndim == 2 else M[0]


def check_multiplicative(sym: SymplecticModel, n_samples: int, seed: int,
                         prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """m*Omega = pr1*Omega + pr2*Omega on the composable locus, within
    ``MULTIPLICATIVE_TOL``.

    Tangent vectors to the locus come from differentiating the model's
    exactly composable pair parametrization P, so both sides are
    evaluated on honest composable-pair tangents.  The check draws all
    its pair parameters as one slab of ``pair_width`` uniforms per
    sample, then all its unit vectors in one call, as
    ``check_symplectic`` does.
    """
    model = sym.model
    if sym.pair_param is None:
        raise SamplerExhausted(f"{model.name}: no composable-pair parametrization")
    P, sample_params = sym.pair_param
    rng = rng_for(seed, f"multiplicative:{model.name}")
    d, k = model.arrow_dim, P.domain_dim
    m = model.m.formula
    Gm = SmoothMap(k, d, lambda w: m(P.formula(w)), name="m(pr1,pr2)")

    def measure(block, n):
        w, vectors = block
        vs = list(vectors.transpose(1, 0, 2))
        # pr1 and pr2 are row blocks of P: one Jacobian serves both
        J, gh = _jacobians(P, w, prof), P(w)
        Jm, gm = _jacobians(Gm, w, prof), Gm(w)
        rhs = pullback_at(sym.Omega, gh[:, :d], J[:, :d], vs) \
            + pullback_at(sym.Omega, gh[:, d:], J[:, d:], vs)
        return _modulus(pullback_at(sym.Omega, gm, Jm, vs) - rhs), \
            lambda i: {"params": _round_tuple(w[i])}

    params = np.column_stack(
        _full(sample_params(uniforms(rng, sym.pair_width, n_samples)), n_samples))
    vectors = _unit_vectors(rng, k, 2, n_samples)
    return _suite("multiplicative", model.name, seed, MULTIPLICATIVE_TOL,
                  _sliced(params, vectors), measure)


# ---------------------------------------------------------------------------
# Poisson structure
# ---------------------------------------------------------------------------

def schouten_residual(pi: Callable, dim: int, p, prof: ToleranceProfile = DEFAULT_PROFILE):
    """Max component of [pi, pi] at p by central differences.

    [pi,pi]^{ijk} = 2 sum_l (pi^{li} d_l pi^{jk} + pi^{lj} d_l pi^{ki}
    + pi^{lk} d_l pi^{ij}); zero for a Poisson bivector.  ``pi`` takes a
    coordinate-major block and returns its (N, dim, dim) stack (or one
    matrix for every row), as the bivectors of ``egl.symplectic`` do.
    ``p`` is one point, giving a float, or a stack (N, dim), giving the
    column of residuals: pi is evaluated once at the points and
    differentiated by one ``jacobian`` of its ``SmoothMap`` view, then
    all points and all i < j < k are contracted at once, summing over l
    in order, so a point has the bits of its one-row stack.  A point
    where pi or its Jacobian is not finite has residual NaN.
    """
    P = np.asarray(p, dtype=float)
    points = P.reshape(-1, dim)

    def entries(x):
        c = np.broadcast_to(pi(x), np.shape(x[0]) + (dim, dim))
        return tuple(c.reshape(-1, dim * dim).T)

    view = SmoothMap(dim, dim * dim, entries, name="pi")
    pi_p = view(points).reshape(-1, dim, dim)
    # grads[:, j, k, l] = d_l pi^{jk}
    grads = _jacobians(view, points, prof).reshape(-1, dim, dim, dim)
    i, j, k = np.array(list(itertools.combinations(range(dim), 3)), dtype=int).reshape(-1, 3).T
    with np.errstate(all="ignore"):
        total = 0.0
        for l in range(dim):
            total = total + (pi_p[:, l, i] * grads[:, j, k, l]
                             + pi_p[:, l, j] * grads[:, k, i, l]
                             + pi_p[:, l, k] * grads[:, i, j, l])
        worst = np.max(np.abs(2 * total), axis=1, initial=0.0)
    worst[~np.isfinite(pi_p).all(axis=(1, 2)) | ~np.isfinite(grads).all(axis=(1, 2, 3))] = np.nan
    return worst if P.ndim == 2 else float(worst[0])


def check_poisson(sym: SymplecticModel, n_points: int, seed: int,
                  prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """Jacobi identity of the model's bivector at sampled off-divisor
    points, within ``POISSON_TOL``.

    Base points with x1^2 + x2^2 < 0.04 are skipped; the points are drawn
    as ``_dense_arrows`` draws its arrows, and more than 200 * n_points
    drawn raise SamplerExhausted.  A block takes one
    ``schouten_residual`` call.
    """
    model = sym.model

    def measure(block, n):
        p, = block
        return schouten_residual(sym.pi_bivector, model.base_dim, p, prof), \
            lambda i: {"p": _round_tuple(p[i])}

    rng = rng_for(seed, f"poisson:{model.name}")
    points = _draw_kept(lambda n: model.random_base(rng, n),
                        lambda p: ~(p[0] * p[0] + p[1] * p[1] < 0.04), n_points,
                        model.base_dim, f"{model.name}: off-divisor base sampler")
    return _suite("poisson", model.name, seed, POISSON_TOL, _sliced(points), measure)


def non_jacobi_bivector():
    """Negative control: pi = d1^d2 + x1 d3^d4 on R^4, [pi,pi] != 0.

    Like the model bivectors it takes a point, giving a (4, 4) matrix,
    or a coordinate-major block, giving the (N, 4, 4) stack."""
    def pi(p):
        c = _zero_matrix(p[0], 4)
        c[..., 0, 1] = 1.0
        c[..., 2, 3] = p[0]
        return _antisymmetric(c)
    return pi


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def check_morphism(bundle: MorphismBundle, n_samples: int, seed: int,
                   prof: ToleranceProfile = DEFAULT_PROFILE,
                   tol: float = 1e-7, form_samples: Optional[int] = None) -> CheckReport:
    """s/t compatibility, unit and multiplication intertwining, form pullback.

    A block of pairs is drawn by one ``random_composable_pair`` call,
    or, for a bundle with a ``sample_filter``, by ``_draw_kept``: the
    block holds the next pairs of the stream whose two arrows the filter
    accepts, and more than 200 draws per pair kept raise
    SamplerExhausted.  The form comparison runs on the first
    ``form_samples`` pairs where both forms are defined, with unit
    vectors from ``morphism-forms:<name>``.
    """
    dom, cod, f = bundle.dom, bundle.cod, bundle.f
    forms_rng = rng_for(seed, f"morphism-forms:{bundle.name}")
    keep = bundle.sample_filter
    form_budget = form_samples if form_samples is not None else max(1, n_samples // 10)
    forms_done = 0
    d = dom.arrow_dim

    def draw(rng, n):
        if keep is None:
            return dom.random_composable_pair(rng, n)
        pairs = tuple(_draw_kept(lambda k: sum(dom.random_composable_pair(rng, k), ()),
                                 lambda gh: keep(gh[:d]) & keep(gh[d:]), n, 2 * d,
                                 f"{bundle.name}: morphism sampler").T.copy())
        return pairs[:d], pairs[d:]

    def measure(pair, n):
        nonlocal forms_done
        g, h = pair
        form_res = np.zeros(n)
        if (bundle.dom_form is not None and bundle.cod_form is not None
                and forms_done < form_budget):
            X = np.column_stack(g)
            both = bundle.dom_form.defined_at(X) & bundle.cod_form.defined_at(f(X))
            rows = np.flatnonzero(both)[:form_budget - forms_done]
            if len(rows):
                x = X[rows]
                vs = list(_unit_vectors(forms_rng, d, 2, len(rows)).transpose(1, 0, 2))
                lhs = pullback_at(bundle.cod_form, f(x), _jacobians(f, x, prof), vs)
                form_res[rows] = _modulus(lhs - bundle.dom_form(x, vs))
                forms_done += len(rows)
        res, exits = _morphism_residuals(dom, cod, f.formula, g, h, form_res, n)
        return res, lambda i: _with_exit({"g": _row(g, i)}, exits, i)

    return _suite(f"morphism:{bundle.name}", f"{dom.name}->{cod.name}", seed, tol,
                  _drawn(draw, rng_for(seed, f"morphism:{bundle.name}"), n_samples), measure)


def _morphism_residuals(dom, cod, image, g, h, form_res, n: int):
    """Residual column of a block of sampled pairs, and its chart exits.

    The residual is the worst of s and t compatibility, multiplication
    (``f(dom.compose(g, h))`` against ``cod.compose(f(g), f(h))``, or
    the gap of the first ``compose`` that refuses its pair), the unit at
    t(g) and the form residual.
    """
    fg, fh = image(g), image(h)
    sg, p, s_fg = dom.source_of(g), dom.target_of(g), cod.source_of(fg)
    res = np.maximum(_gap(s_fg, sg), _gap(cod.target_of(fg), p))
    gap, f_gap = _gap(sg, dom.target_of(h)), _gap(s_fg, cod.target_of(fh))
    out, ok, exits = _composed(dom, g, h, gap, [(_outside(dom, g, n), "sample"),
                                                (_outside(dom, h, n), "sample")],
                               n, "dom.compose_raw")
    f_out, f_ok, f_exits = _composed(cod, fg, fh, f_gap, [(_outside(cod, fg, n), "f"),
                                                          (_outside(cod, fh, n), "f")],
                                     n, "cod.compose_raw")
    res = np.maximum(res, np.where(ok, np.where(f_ok, _gap(image(out), f_out), f_gap), gap))
    res = np.maximum(res, _gap(image(dom.unit_at(p)), cod.unit_at(p)))
    exits += [(ok & cod_rows, name) for cod_rows, name in f_exits]
    return _fail_closed(np.maximum(res, form_res), exits, n), exits


def morphism_beta(model: GroupoidChartModel) -> MorphismBundle:
    """The blow-down itself, into the pair groupoid of the base."""
    if model.beta is None:
        raise ValueError(f"{model.name} has no blow-down map")
    return MorphismBundle(f"beta:{model.name}", model.beta, model,
                          pair_groupoid(model.base_dim))


def resolve_psi_convention(n_samples: int, seed: int,
                           prof: ToleranceProfile = DEFAULT_PROFILE):
    """Test the covering morphism against the four convention assignments.

    Returns (winners, residual table): for each candidate domain
    structure, the max morphism residual of the covering map, checked
    at ``PSI_TOL``; the winners are the assignments below it.  Exactly
    one assignment is expected to pass; callers report its name.
    """
    from .symplectic import symplectic_nonzero_residue_model

    G = symplectic_nonzero_residue_model().model
    psi = morphism_psi()
    table = {}
    for name, cand in psi_domain_candidates().items():
        bundle = MorphismBundle(f"psi[{name}]", psi, cand, G)
        rep = check_morphism(bundle, n_samples=n_samples, seed=seed, prof=prof, tol=PSI_TOL)
        table[name] = rep.max_residual
    winners = [name for name, r in table.items() if r < PSI_TOL]
    return winners, table


def check_psi_convention(n_samples: int, seed: int,
                         prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """``resolve_psi_convention`` as a report: pass iff exactly one
    assignment is below ``PSI_TOL``."""
    winners, table = resolve_psi_convention(n_samples, seed, prof)
    ok = len(winners) == 1
    return CheckReport(check="morphism:psi", model="ssc->sympl-nonzero",
                       samples=len(table), passed=len(table) if ok else 0,
                       max_residual=min(table.values()), tolerance=PSI_TOL, seed=seed,
                       verdict="pass" if ok else "fail",
                       witnesses=[] if ok else [{"residual": 1.0, "table": table}],
                       details={"winner": winners[0] if ok else None,
                                "residuals": table})


# ---------------------------------------------------------------------------
# variant regression: zero-residue multiplication
# ---------------------------------------------------------------------------

def check_zero_residue_variant(sym: SymplecticModel, n_samples: int, seed: int) -> CheckReport:
    """The derived product (c + b c') is associative; the near miss is not.

    Both facts are asserted: max associativity residual of the derived
    formula stays under ``DERIVED_TOL`` while the transposed-slot variant
    (c + b' c) exceeds ``VARIANT_FLOOR`` on generic samples, where a NaN
    variant residual counts as not exceeding it.
    """
    model = sym.model
    variant_max = 0.0

    def measure(triple, n):
        nonlocal variant_max
        g, h, k = triple
        lhs = model.compose_raw(model.compose_raw(g, h), k)
        rhs = model.compose_raw(g, model.compose_raw(h, k))
        lhs_p = sym.compose_variant(sym.compose_variant(g, h), k)
        rhs_p = sym.compose_variant(g, sym.compose_variant(h, k))
        variant = _column(_gap(lhs_p, rhs_p), n)
        variant_max = max(variant_max, float(np.maximum.reduce(variant, initial=0.0,
                                                               where=~np.isnan(variant))))
        return _column(_gap(lhs, rhs), n), lambda i: {"g": _row(g, i)}

    rng = rng_for(seed, f"variants:{model.name}")
    report = _suite("variants", model.name, seed, DERIVED_TOL, _drawn(
        model.random_composable_triple, rng, n_samples), measure)
    report.details.update(variant_max_residual=variant_max, variant_floor=VARIANT_FLOOR)
    if variant_max <= VARIANT_FLOOR:
        report.verdict = "fail"
        report.witnesses.append({"residual": variant_max,
                                 "kind": "variant multiplication unexpectedly associative"})
    return report


# ---------------------------------------------------------------------------
# divisor isotropy
# ---------------------------------------------------------------------------

def check_isotropy(model: GroupoidChartModel, n_samples: int, seed: int,
                   prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """Divisor isotropy composition against the model's exact law.

    A block of isotropy pairs is drawn by one ``random_isotropy_pair``
    call, through the model's own samplers, and its products are measured
    by the model's ``isotropy`` law, the residual that states the group:
    for the double-cover quotient C* x| Z/2 acting by conjugation (the
    law of ``egl.signedperm``); for the zero-residue and action-groupoid
    models the affine group law (b, c)(b', c') = (b b', c + b c'); for
    the blow-up models, their relabellings and fibre products (C*)^k
    componentwise.
    """
    if model.isotropy is None:
        raise SamplerExhausted(f"{model.name}: no isotropy oracle")

    def measure(pair, n):
        g1, g2 = pair
        gap = _gap(model.source_of(g1), model.target_of(g2))
        out, ok, exits = _composed(model, g1, g2, gap, [(_outside(model, g1, n), "sample"),
                                                        (_outside(model, g2, n), "sample")], n)
        res = _fail_closed(np.where(ok, model.isotropy(model, g1, g2, out), gap), exits, n)
        return res, lambda i: _with_exit({"g": _row(g1, i), "h": _row(g2, i)}, exits, i)

    return _suite("isotropy", model.name, seed, prof.abs_tol, _drawn(
        model.random_isotropy_pair, rng_for(seed, f"isotropy:{model.name}"), n_samples), measure)


# ---------------------------------------------------------------------------
# elliptic ideal on arrows
# ---------------------------------------------------------------------------

def check_ideal(model: GroupoidChartModel, n_samples: int, seed: int,
                prof: ToleranceProfile = DEFAULT_PROFILE) -> CheckReport:
    """s*I = (ratio) t*I with invertible ratio, and ratio 1 on units.

    The quantities are those of ``elliptic_ideal_pullback`` on a sampled
    arrow and on the unit at a sampled base point.  The base points come
    from their own stream, ``ideal-units:<name>``, so that both draws of
    a block are one slab each.
    """
    if model.divisor_factors is None:
        raise ChartInvalid(f"{model.name}: no divisor factor data")
    units_rng = rng_for(seed, f"ideal-units:{model.name}")

    def measure(block, n):
        g, p = block
        u = model.unit_at(p)
        s_val, t_val, ratio = ideal_values(model.divisor_factors(g))
        res = abs(s_val - t_val * ratio)
        res = np.where(ratio <= 0, np.maximum(res, 1.0), res)
        unit_ratio = ideal_values(model.divisor_factors(u))[2]
        res = np.maximum(res, abs(unit_ratio - 1.0))
        exits = [(_outside(model, g, n), "sample"), (_outside(model, u, n), "unit_at")]
        return _fail_closed(res, exits, n), lambda i: _with_exit({"g": _row(g, i)}, exits, i)

    return _suite("ideal", model.name, seed, prof.abs_tol, _drawn(
        lambda rng, n: (model.random_arrow(rng, n), model.random_base(units_rng, n)),
        rng_for(seed, f"ideal:{model.name}"), n_samples), measure)


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
