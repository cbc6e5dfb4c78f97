"""Chart-level groupoid local models.

Every model is a carrier coordinate domain (flat tuples of reals,
complex coordinates stored as consecutive real pairs) together with
closed-form evaluators for source, target, multiplication, inverse and
unit, plus a chart-validity predicate.  Each evaluator is one formula
on a tuple of coordinates, and a coordinate is either a Python float
(one point) or an (N,) float column (a block of N points): the sampled
suites draw points one at a time and evaluate every identity once per
block, while the samplers, ``compose`` and the SmoothMap views for the
numerical kernel (Jacobians, pullbacks) pass single points.  On a block,
some output coordinates may be plain floats (constants such as the unit
fibre); they broadcast against the columns.

Complex arithmetic is written on real pairs (``_cmul``, ``_cdiv``,
``_cexp``, ``_cabs``) with the operations CPython's complex type
performs, so a point and the same point inside a block give the same
bits.  Predicates return a bool for a point and a bool column for a
block.  The ``ts`` view (target ++ source) lets one Jacobian serve both
endpoint maps, and the algebroid computation differentiates the pair
``(ts, unit)``.  All models are immutable value objects; samplers draw
from an explicit seeded generator, so a fixed seed fixes every report.

Each family of formulas is written once.  case1 is the k = 1 member of
the blow-up family behind caseIV; ssc-surface is the exp-on-target,
unscaled member of the exponential family whose four conventions are
the covering-morphism domain candidates of ``egl.symplectic``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .divisors import DivisorLocalModel, residue_model_frame
from .errors import (ChartInvalid, DimensionMismatch, NotComposable,
                     NotTransverse, SamplerExhausted)
from .kernel import DEFAULT_PROFILE, SmoothMap, jacobian

__all__ = [
    "GroupoidChartModel",
    "pair_groupoid",
    "case1_model",
    "caseIV_model",
    "case2_quotient_model",
    "smooth_factor_model",
    "ssc_surface_model",
    "action_groupoid_model",
    "fibre_product",
    "elliptic_ideal_pullback",
]


def _cx(g, i) -> complex:
    return complex(g[i], g[i + 1])


def _pair(z: complex) -> Tuple[float, float]:
    return (z.real, z.imag)


def _is_block(*xs) -> bool:
    return any(isinstance(x, np.ndarray) for x in xs)


def _maxdiff(a, b):
    """Max coordinate difference; NaN if any coordinate difference is NaN.

    The builtin ``max`` drops NaN unless it comes first, so the sum of
    the (nonnegative) differences decides whether one is NaN.  On a
    block the result is a column, and ``np.maximum`` keeps NaN itself.
    """
    diffs = [abs(x - y) for x, y in zip(a, b)]
    total = sum(diffs)
    if isinstance(total, np.ndarray):
        return functools.reduce(np.maximum, diffs)
    return max(diffs, default=0.0) if total == total else total


def _finite(seq):
    """Every coordinate finite: 0 * x is 0 for finite x and NaN otherwise."""
    return sum(0.0 * x for x in seq) == 0.0


def _nonzero(re, im):
    return (re != 0) | (im != 0)


def _branch(cond, then, other):
    """``then()`` where ``cond`` holds and ``other()`` elsewhere.

    A point evaluates one branch; a block evaluates both and selects
    per row, so the branch it drops may divide by zero silently.
    """
    if not isinstance(cond, np.ndarray):
        return then() if cond else other()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        yes, no = then(), other()
    return tuple(np.where(cond, a, b) for a, b in zip(yes, no))


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi), as CPython multiplies complex numbers."""
    return (ar * br - ai * bi, ar * bi + ai * br)


def _cdiv(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) by CPython's division (Smith's method).

    A point divided by 0 raises ZeroDivisionError, as complex division
    does; a NaN denominator gives (NaN, NaN).
    """
    def by_real():
        ratio = bi / br
        denom = br + bi * ratio
        return ((ar + ai * ratio) / denom, (ai - ar * ratio) / denom)

    def by_imag():
        ratio = br / bi
        denom = br * ratio + bi
        return ((ar * ratio + ai) / denom, (ai * ratio - ar) / denom)

    abs_r, abs_i = abs(br), abs(bi)
    return _branch(abs_r >= abs_i, by_real,
                   lambda: _branch(abs_i >= abs_r, by_imag, lambda: (math.nan, math.nan)))


def _cexp(re, im):
    """e^(re + i im): ``cmath.exp`` on a point, ``np.exp`` on a complex column."""
    if _is_block(re, im):
        z = np.empty(np.broadcast(re, im).shape, dtype=complex)
        z.real, z.imag = re, im
        w = np.exp(z)
    else:
        w = cmath.exp(complex(re, im))
    return (w.real, w.imag)


def _cabs(re, im):
    """|re + i im| by the C library's hypot, as ``abs(complex)`` computes it."""
    return np.hypot(re, im) if _is_block(re, im) else abs(complex(re, im))


def _square(x):
    """x ** 2 by the C library's pow, as Python computes it (not x * x)."""
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x ** 2


def _annulus(rng, rmin, rmax) -> complex:
    mag = float(rng.uniform(rmin, rmax))
    ph = float(rng.uniform(-math.pi, math.pi))
    return complex(mag * math.cos(ph), mag * math.sin(ph))


def _box(rng, half=1.0) -> float:
    return float(rng.uniform(-half, half))


@dataclass(frozen=True)
class GroupoidChartModel:
    """A groupoid local model on a single coordinate chart.

    The structure-map fields (``source_of``, ``target_of``,
    ``compose_raw``, ``invert``, ``unit_at``, ``arrow_valid``,
    ``beta_map``, ``divisor_factors``) take a point or a block of points
    (see the module docstring); the samplers, ``compose`` and
    ``require_valid`` work on single points.  ``s``, ``t``, ``ts``,
    ``m``, ``inv``, ``unit`` expose the same formulas as SmoothMaps for
    the numerical kernel, passing the formulas tuples of Python floats.
    ``ts`` is target ++ source on ``arrow_valid``, so one Jacobian gives
    dt (its first ``base_dim`` rows) and ds (the rest).
    ``composable_tol`` is how exactly ``source(g) == target(h)`` must
    hold before ``compose`` accepts a pair (a NaN gap never does);
    samplers construct exactly composable data rather than relying on
    slack.  ``algebroid_maps``, when set, supplies the (ts, unit)
    SmoothMaps on a smooth sector suitable for finite differencing (used
    where the full chart carries a discrete coordinate or a gluing
    constraint).
    """

    name: str
    arrow_dim: int
    base_dim: int
    source_of: Callable
    target_of: Callable
    compose_raw: Callable          # (g, h) -> tuple, no composability check
    invert: Callable
    unit_at: Callable
    arrow_valid: Callable
    base_valid: Callable = _finite
    composable_tol: float = 1e-9
    is_hausdorff: bool = True
    expected_frame: Optional[Callable] = None   # base point -> frame rows
    beta_map: Optional[Callable] = None         # arrow -> (target ++ source) blow-down
    arrow_between: Optional[Callable] = None    # (p, q, rng) -> arrow with t=p, s=q
    sample_arrow: Optional[Callable] = None     # rng -> arrow
    sample_base: Optional[Callable] = None      # rng -> base point
    sample_base_like: Optional[Callable] = None  # (p, rng) -> point on p's stratum
    divisor_factors: Optional[Callable] = None  # arrow -> [(Re a_j, Im a_j, Re b_j, Im b_j)]
    algebroid_maps: Optional[tuple] = None      # (ts, unit) SmoothMaps for FD

    # -- scalar layer ------------------------------------------------------

    def require_valid(self, g):
        if not self.arrow_valid(g):
            raise ChartInvalid(f"{self.name}: invalid arrow {g}")

    def compose(self, g, h):
        """Groupoid multiplication with composability check."""
        self.require_valid(g)
        self.require_valid(h)
        gap = _maxdiff(self.source_of(g), self.target_of(h))
        if not gap <= self.composable_tol:
            err = NotComposable(f"{self.name}: endpoint gap {gap:.3e}")
            err.gap = gap
            raise err
        out = self.compose_raw(g, h)
        self.require_valid(out)
        return out

    def random_arrow(self, rng):
        if self.sample_arrow is None:
            raise SamplerExhausted(f"{self.name}: no arrow sampler")
        return self.sample_arrow(rng)

    def random_base(self, rng):
        if self.sample_base is None:
            raise SamplerExhausted(f"{self.name}: no base sampler")
        return self.sample_base(rng)

    def extend_from(self, p, rng):
        """A random arrow whose target is exactly the base point p."""
        if self.arrow_between is None:
            raise SamplerExhausted(f"{self.name}: no endpoint-constrained sampler")
        for _ in range(64):
            q = (self.sample_base_like(p, rng) if self.sample_base_like
                 else self.random_base(rng))
            try:
                return self.arrow_between(p, q, rng)
            except NotComposable:
                continue
        raise SamplerExhausted(f"{self.name}: could not extend from {p}")

    def random_composable_pair(self, rng):
        """An exactly composable pair, built by extending a random arrow."""
        g = self.random_arrow(rng)
        h = self.extend_from(self.source_of(g), rng)
        return g, h

    def random_composable_triple(self, rng):
        g, h = self.random_composable_pair(rng)
        k = self.extend_from(self.source_of(h), rng)
        return g, h, k

    # -- SmoothMap layer ----------------------------------------------------

    def _view(self, label, domain_dim, codomain_dim, formula, valid) -> SmoothMap:
        return SmoothMap.from_formula(domain_dim, codomain_dim, formula, valid,
                                      f"{self.name}.{label}")

    @property
    def s(self) -> SmoothMap:
        return self._view("s", self.arrow_dim, self.base_dim, self.source_of,
                          self.arrow_valid)

    @property
    def t(self) -> SmoothMap:
        return self._view("t", self.arrow_dim, self.base_dim, self.target_of,
                          self.arrow_valid)

    @property
    def ts(self) -> SmoothMap:
        return self._view("ts", self.arrow_dim, 2 * self.base_dim,
                          lambda g: self.target_of(g) + self.source_of(g),
                          self.arrow_valid)

    @property
    def inv(self) -> SmoothMap:
        return self._view("inv", self.arrow_dim, self.arrow_dim, self.invert,
                          self.arrow_valid)

    @property
    def unit(self) -> SmoothMap:
        return self._view("unit", self.base_dim, self.arrow_dim, self.unit_at,
                          self.base_valid)

    @property
    def m(self) -> SmoothMap:
        d = self.arrow_dim

        def split(gh):
            gh = gh.tolist()
            return tuple(gh[:d]), tuple(gh[d:])

        def pred(gh):
            g, h = split(gh)
            if not (self.arrow_valid(g) and self.arrow_valid(h)):
                return False
            return _maxdiff(self.source_of(g), self.target_of(h)) <= self.composable_tol

        return SmoothMap(
            2 * d, d, lambda gh: np.asarray(self.compose_raw(*split(gh)), dtype=float),
            pred, f"{self.name}.m")

    @property
    def beta(self) -> Optional[SmoothMap]:
        if self.beta_map is None:
            return None
        return self._view("beta", self.arrow_dim, 2 * self.base_dim, self.beta_map,
                          self.arrow_valid)

    def maps_for_algebroid(self):
        """(ts, unit) SmoothMaps for the algebroid computation."""
        if self.algebroid_maps is not None:
            return self.algebroid_maps
        return (self.ts, self.unit)

    def extra_kernel_rows(self, arrow_point, ts_jacobian=None, prof=DEFAULT_PROFILE):
        """Extra Jacobian rows constraining the arrow space (fibre products).

        ``ts_jacobian``, when given, is the Jacobian of
        ``maps_for_algebroid()[0]`` at ``arrow_point`` under ``prof``; a
        model may read rows from it instead of differentiating again.
        """
        return None


# ---------------------------------------------------------------------------
# pair groupoid
# ---------------------------------------------------------------------------

def pair_groupoid(dim: int, half: float = 1.2) -> GroupoidChartModel:
    """The pair groupoid of R^dim: arrows (p, q), s = q, t = p."""

    def sample_base(rng):
        return tuple(_box(rng, half) for _ in range(dim))

    return GroupoidChartModel(
        name=f"pair({dim})", arrow_dim=2 * dim, base_dim=dim,
        source_of=lambda g: tuple(g[dim:]),
        target_of=lambda g: tuple(g[:dim]),
        compose_raw=lambda g, h: tuple(g[:dim]) + tuple(h[dim:]),
        invert=lambda g: tuple(g[dim:]) + tuple(g[:dim]),
        unit_at=lambda p: tuple(p) + tuple(p),
        arrow_valid=_finite,
        expected_frame=lambda p: np.eye(dim),
        beta_map=lambda g: tuple(g),
        arrow_between=lambda p, q, rng: tuple(p) + tuple(q),
        sample_arrow=lambda rng: tuple(_box(rng, half) for _ in range(2 * dim)),
        sample_base=sample_base,
        sample_base_like=lambda p, rng: sample_base(rng),
    )


# ---------------------------------------------------------------------------
# blow-up family: smooth (k = 1) and untwisted coorientable normal-crossing
# ---------------------------------------------------------------------------

def _blowup_model(n: int, k: int, name: str, on_divisor_prob: float,
                  composable_tol: float) -> GroupoidChartModel:
    """Iterated-blow-up chart around a multiplicity-k stratum in dimension n.

    Arrows (x, y, a_1..a_k, b_1..b_k) with x, y real (n-2k)-vectors and
    a_j, b_j complex, b_j nonzero; base (x, z_1..z_k) with z_j complex.
    The blow-down sends an arrow to the base pair ((x, a), (y, a_1 b_1,
    .., a_k b_k)); multiplication, inverse and unit are the closed forms
    obtained by conjugating the pair groupoid through it factor by
    factor and extending over the exceptional locus, where the
    multiplication is (x,y,0,b1).(y,z,0,b2) = (x,z,0,b1*b2) in each
    factor, with unit u(x, z) = (x, x, z, 1, .., 1).  ``on_divisor_prob``
    is the chance that a sampled a_j (or base z_j) lies on the divisor.
    """
    nx = n - 2 * k
    ia, ib = 2 * nx, 2 * nx + 2 * k
    factors = tuple((ia + 2 * j, ib + 2 * j) for j in range(k))  # (a_j, b_j) slots
    zs = tuple(nx + 2 * j for j in range(k))                      # z_j slots in the base

    def source_of(g):
        out = tuple(g[nx:2 * nx])
        for i, j in factors:
            out += _cmul(g[i], g[i + 1], g[j], g[j + 1])
        return out

    def target_of(g):
        return tuple(g[:nx]) + tuple(g[ia:ib])

    def compose_raw(g, h):
        out = tuple(g[:nx]) + tuple(h[nx:2 * nx]) + tuple(g[ia:ib])
        for _, j in factors:
            out += _cmul(g[j], g[j + 1], h[j], h[j + 1])
        return out

    def invert(g):
        out = tuple(g[nx:2 * nx]) + tuple(g[:nx])
        for i, j in factors:
            out += _cmul(g[i], g[i + 1], g[j], g[j + 1])
        for _, j in factors:
            out += _cdiv(1.0, 0.0, g[j], g[j + 1])
        return out

    def unit_at(p):
        return tuple(p[:nx]) + tuple(p[:nx]) + tuple(p[nx:nx + 2 * k]) + (1.0, 0.0) * k

    def arrow_valid(g):
        if len(g) != 2 * n:
            return False
        ok = _finite(g)
        for _, j in factors:
            ok = ok & _nonzero(g[j], g[j + 1])
        return ok

    divisor = DivisorLocalModel(n=n, k=k)

    def sample_base(rng):
        out = tuple(_box(rng) for _ in range(nx))
        for _ in range(k):
            z = 0j if rng.uniform() < on_divisor_prob else _annulus(rng, 0.15, 1.2)
            out += _pair(z)
        return out

    def sample_base_like(p, rng):
        out = tuple(_box(rng) for _ in range(nx))
        for i in zs:
            z = 0j if _cx(p, i) == 0 else _annulus(rng, 0.15, 1.2)
            out += _pair(z)
        return out

    def arrow_between(p, q, rng):
        avals, bvals = (), ()
        for i in zs:
            vp, vq = _cx(p, i), _cx(q, i)
            if vp == 0 and vq == 0:
                avals += (0.0, 0.0)
                bvals += _pair(_annulus(rng, 0.3, 1.6))
            elif vp == 0 or vq == 0:
                raise NotComposable("no arrow between different strata")
            else:
                avals += _pair(vp)
                bvals += _pair(vq / vp)
        return tuple(p[:nx]) + tuple(q[:nx]) + avals + bvals

    def sample_arrow(rng):
        out = tuple(_box(rng) for _ in range(nx)) + tuple(_box(rng) for _ in range(nx))
        for _ in range(k):
            a = 0j if rng.uniform() < on_divisor_prob else _annulus(rng, 0.1, 1.2)
            out += _pair(a)
        for _ in range(k):
            out += _pair(_annulus(rng, 0.3, 1.6))
        return out

    return GroupoidChartModel(
        name=name, arrow_dim=2 * n, base_dim=n,
        source_of=source_of, target_of=target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=arrow_valid,
        composable_tol=composable_tol,
        expected_frame=lambda p: divisor.algebroid_frame(np.asarray(p)).vectors,
        beta_map=lambda g: target_of(g) + source_of(g),
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=sample_base, sample_base_like=sample_base_like,
        divisor_factors=lambda g: [(g[i], g[i + 1], g[j], g[j + 1]) for i, j in factors],
    )


def case1_model(n: int, composable_tol: float = 1e-9) -> GroupoidChartModel:
    """Blow-up local model for a smooth coorientable divisor: k = 1."""
    if n < 2:
        raise ValueError("case1_model requires n >= 2")
    return _blowup_model(n, 1, f"case1({n})", 0.25, composable_tol)


def caseIV_model(n: int, k: int, composable_tol: float = 1e-9) -> GroupoidChartModel:
    """Iterated-blow-up local model around a multiplicity-k stratum."""
    if not (n >= 2 * k >= 2):
        raise ValueError("caseIV_model requires n >= 2k >= 2")
    return _blowup_model(n, k, f"caseIV({n},{k})", 0.3, composable_tol)


# ---------------------------------------------------------------------------
# coorientation double cover quotient
# ---------------------------------------------------------------------------

def case2_quotient_model(n: int, composable_tol: float = 1e-9) -> GroupoidChartModel:
    """Quotient of the double-cover model by the deck involution.

    Arrows carry the smooth-model chart data plus a sheet-difference bit
    delta, stored as a final 0/1 coordinate.  The deck involution
    conjugates the normal complex coordinate, so the source of a
    sheet-crossing arrow reads through conjugation and composition
    conjugates the second factor's data before the chart-level product.
    The isotropy over the divisor is C* x| Z/2 acting by conjugation.
    The formulas read delta rounded to the nearest integer; a NaN or
    infinite delta passes through to the outputs instead of raising.
    """
    base = case1_model(n, composable_tol)
    nx = n - 2
    ia, ib = 2 * nx, 2 * nx + 2
    d = base.arrow_dim

    def _delta(g):
        x = g[d]
        if isinstance(x, np.ndarray):
            return np.rint(x) + 0.0     # round() gives an int: its zero has no sign
        return float(round(x)) if x - x == 0 else x

    def _conj(re, im, flag):
        # multiplying by -1.0 is exact, so this is z.conjugate() where flag != 0
        return (re, im * (1.0 - 2.0 * (flag != 0)))

    def source_of(g):
        ab = _conj(*_cmul(g[ia], g[ia + 1], g[ib], g[ib + 1]), _delta(g))
        return tuple(g[nx:2 * nx]) + ab

    def compose_raw(g, h):
        d1, d2 = _delta(g), _delta(h)
        b = _cmul(g[ib], g[ib + 1], *_conj(h[ib], h[ib + 1], d1))
        return (tuple(g[:nx]) + tuple(h[nx:2 * nx]) + (g[ia], g[ia + 1]) + b
                + ((d1 + d2) % 2.0,))

    def invert(g):
        dd = _delta(g)
        ab = _conj(*_cmul(g[ia], g[ia + 1], g[ib], g[ib + 1]), dd)
        bstar = _cdiv(1.0, 0.0, *_conj(g[ib], g[ib + 1], dd))
        return tuple(g[nx:2 * nx]) + tuple(g[:nx]) + ab + bstar + (dd,)

    def unit_at(p):
        return base.unit_at(p) + (0.0,)

    def arrow_valid(g):
        if len(g) != d + 1:
            return False
        return _finite(g) & _nonzero(g[ib], g[ib + 1]) & ((g[d] == 0.0) | (g[d] == 1.0))

    def sample_arrow(rng):
        return base.sample_arrow(rng) + (float(rng.integers(0, 2)),)

    def arrow_between(p, q, rng):
        chart = base.arrow_between(p, q, rng)
        dd = float(rng.integers(0, 2))
        if dd and _cx(chart, ia) != 0:
            # re-solve b so the delta-twisted source still lands on q
            vq = _cx(q, nx)
            b = vq.conjugate() / _cx(chart, ia)
            chart = chart[:ib] + _pair(b)
        return chart + (dd,)

    return GroupoidChartModel(
        name=f"case2({n})", arrow_dim=d + 1, base_dim=n,
        source_of=source_of, target_of=base.target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=arrow_valid,
        composable_tol=composable_tol, is_hausdorff=True,
        expected_frame=base.expected_frame,
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=base.sample_base, sample_base_like=base.sample_base_like,
        divisor_factors=base.divisor_factors,
        algebroid_maps=(base.ts, base.unit),
    )


# ---------------------------------------------------------------------------
# smooth factor inside a normal-crossing base (for fibre products)
# ---------------------------------------------------------------------------

def smooth_factor_model(n: int, k: int, j: int,
                        composable_tol: float = 1e-9) -> GroupoidChartModel:
    """Smooth-divisor model for the j-th factor of a k-factor base.

    The base keeps the normal-crossing layout (x real, z_1..z_k complex)
    but only {z_j = 0} is blown up; the other complex pairs ride along
    untouched.  Implemented by conjugating the smooth model through the
    base-coordinate shuffle that moves pair j to the end.
    """
    if not (0 <= j < k):
        raise ValueError("factor index out of range")
    nx = n - 2 * k
    inner = case1_model(n, composable_tol)

    # shared layout index of pair j, and the shuffle into case1 layout
    pj = nx + 2 * j
    order = list(range(nx)) + [nx + 2 * i + c for i in range(k) if i != j for c in (0, 1)]
    order += [pj, pj + 1]
    inverse_order = [0] * n
    for dst, src in enumerate(order):
        inverse_order[src] = dst

    def to_inner(p):
        return tuple(p[i] for i in order)

    def from_inner(p):
        return tuple(p[i] for i in inverse_order)

    divisor_rows = np.zeros((n, n))
    for i in range(n):
        if i not in (pj, pj + 1):
            divisor_rows[i, i] = 1.0

    def expected_frame(p):
        rows = divisor_rows.copy()
        v1, v2 = p[pj], p[pj + 1]
        rows[pj, pj], rows[pj, pj + 1] = v1, v2
        rows[pj + 1, pj], rows[pj + 1, pj + 1] = -v2, v1
        return rows

    def sample_base(rng, on_divisor_prob=0.3):
        out = tuple(_box(rng) for _ in range(nx))
        for i in range(k):
            z = 0j if (i == j and rng.uniform() < on_divisor_prob) \
                else _annulus(rng, 0.15, 1.2) if i == j else complex(_box(rng), _box(rng))
            out += _pair(z)
        return out

    def sample_base_like(p, rng):
        out = tuple(_box(rng) for _ in range(nx))
        for i in range(k):
            if i == j:
                z = 0j if _cx(p, nx + 2 * i) == 0 else _annulus(rng, 0.15, 1.2)
            else:
                z = complex(_box(rng), _box(rng))
            out += _pair(z)
        return out

    return GroupoidChartModel(
        name=f"smooth-factor({n},{k},{j})", arrow_dim=inner.arrow_dim, base_dim=n,
        source_of=lambda g: from_inner(inner.source_of(g)),
        target_of=lambda g: from_inner(inner.target_of(g)),
        compose_raw=inner.compose_raw,
        invert=inner.invert,
        unit_at=lambda p: inner.unit_at(to_inner(p)),
        arrow_valid=inner.arrow_valid,
        composable_tol=composable_tol,
        expected_frame=expected_frame,
        arrow_between=lambda p, q, rng: inner.arrow_between(to_inner(p), to_inner(q), rng),
        sample_arrow=inner.sample_arrow,
        sample_base=sample_base, sample_base_like=sample_base_like,
        divisor_factors=inner.divisor_factors,
    )


# ---------------------------------------------------------------------------
# exponential family: the source-simply-connected surface model and the
# covering-morphism domain candidates
# ---------------------------------------------------------------------------

def _exp_model(name: str, exp_on_source: bool, scaled: bool, z_half: float,
               rmin: float, rmax: float,
               composable_tol: float = 1e-9) -> GroupoidChartModel:
    """Exponential groupoid on C^2 in one of four conventions.

    Arrows (Z, zeta) over the plane with divisor the origin; one endpoint
    map is zeta and the other zeta e^Z.  ``exp_on_source`` moves the
    exponential factor from the target map to the source map;
    ``scaled`` weights the exponent by the conjugate base coordinate
    (Z -> zbar Z), the reparametrization that turns the surface model
    into the symplectic covering domain.  Samplers draw Z from the box
    of half-width ``z_half`` and points off the divisor from the annulus
    rmin <= |zeta| <= rmax.
    """

    def plain(g):
        return (g[2], g[3])

    def dressed(g):
        # zeta e^Z, or zeta e^(conj(zeta) Z) when scaled
        exponent = _cmul(g[2], -g[3], g[0], g[1]) if scaled else (g[0], g[1])
        return _cmul(g[2], g[3], *_cexp(*exponent))

    source_of = dressed if exp_on_source else plain
    target_of = plain if exp_on_source else dressed

    def compose_raw(g, h):
        if not scaled:
            anchor = (g[2], g[3]) if exp_on_source else (h[2], h[3])
            return (g[0] + h[0], g[1] + h[1]) + anchor
        # Z1 + e^(z1 conj(Z1)) Z2 on the source side; the roles swap on the target side
        first, second = (g, h) if exp_on_source else (h, g)
        Z, z = first[:2], first[2:4]
        w = _cmul(*_cexp(*_cmul(z[0], z[1], Z[0], -Z[1])), second[0], second[1])
        return (Z[0] + w[0], Z[1] + w[1]) + tuple(z)

    def invert(g):
        if not scaled:
            return (-g[0], -g[1]) + _cmul(g[2], g[3], *_cexp(g[0], g[1]))
        w = _cmul(g[2], g[3], *_cexp(*_cmul(g[2], -g[3], g[0], g[1])))
        # -Z e^(-zeta conj(Z))
        return _cmul(-g[0], -g[1], *_cexp(*_cmul(-g[2], -g[3], g[0], -g[1]))) + w

    def unit_at(p):
        return (0.0, 0.0, p[0], p[1])

    def sample_base(rng):
        if rng.uniform() < 0.15:
            return (0.0, 0.0)
        return _pair(_annulus(rng, rmin, rmax))

    def sample_base_like(p, rng):
        if p[0] == 0 and p[1] == 0:
            return (0.0, 0.0)
        return _pair(_annulus(rng, rmin, rmax))

    def arrow_between(p, q, rng):
        zp, zq = _cx(p, 0), _cx(q, 0)
        if zp == 0 and zq == 0:
            return (_box(rng, z_half), _box(rng, z_half), 0.0, 0.0)
        if zp == 0 or zq == 0:
            raise NotComposable("no arrow between the puncture and its complement")
        if exp_on_source:
            zeta, ratio = zp, zq / zp
        else:
            zeta, ratio = zq, zp / zq
        L = cmath.log(ratio)
        Z = L / zeta.conjugate() if scaled else L
        return _pair(Z) + _pair(zeta)

    def sample_arrow(rng):
        Z = complex(_box(rng, z_half), _box(rng, z_half))
        zeta = 0j if rng.uniform() < 0.15 else _annulus(rng, rmin, rmax)
        return _pair(Z) + _pair(zeta)

    frame_model = DivisorLocalModel(n=2, k=1)

    return GroupoidChartModel(
        name=name, arrow_dim=4, base_dim=2,
        source_of=source_of, target_of=target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=_finite,
        composable_tol=composable_tol,
        expected_frame=(None if scaled
                        else (lambda p: frame_model.algebroid_frame(np.asarray(p)).vectors)),
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=sample_base, sample_base_like=sample_base_like,
    )


def ssc_surface_model(composable_tol: float = 1e-9) -> GroupoidChartModel:
    """Exponential model over the plane with divisor the origin.

    The exp-on-target, unscaled member of the exponential family:
    arrows (Z, zeta) in C^2 with s = zeta, t = zeta e^Z; composition
    adds the exponents: (Z, xi e^W).(W, xi) = (Z + W, xi).  Restricted
    to nonzero zeta this presents the fundamental groupoid of the
    punctured plane: arrows with equal endpoints have Z in 2 pi i Z and
    compose additively.
    """
    return _exp_model("ssc-surface", False, False, 1.2, 0.2, 1.5, composable_tol)


# ---------------------------------------------------------------------------
# action groupoid of the affine group on the plane-pair
# ---------------------------------------------------------------------------

def action_groupoid_model(composable_tol: float = 1e-9) -> GroupoidChartModel:
    """Action groupoid of C* x| C acting on C^2.

    Arrows ((b, c), (z1, z2)) with b nonzero; the group element acts by
    (z1, z2) -> (b z1, z2 + c z1), target is the carried point and
    source its image.  Group elements multiply in the affine convention
    (b, c)(b', c') = (b b', c + b c'), matching the divisor isotropy of
    the zero-residue symplectic model.
    """

    def source_of(g):
        # (b, c) acts by (z1, z2) -> (b z1, z2 + c z1)
        cz1 = _cmul(g[2], g[3], g[4], g[5])
        return _cmul(g[0], g[1], g[4], g[5]) + (g[6] + cz1[0], g[7] + cz1[1])

    def target_of(g):
        return tuple(g[4:8])

    def compose_raw(g, h):
        bc2 = _cmul(g[0], g[1], h[2], h[3])
        return (_cmul(g[0], g[1], h[0], h[1]) + (g[2] + bc2[0], g[3] + bc2[1])
                + tuple(g[4:8]))

    def invert(g):
        return (_cdiv(1.0, 0.0, g[0], g[1]) + _cdiv(-g[2], -g[3], g[0], g[1])
                + source_of(g))

    def unit_at(p):
        return (1.0, 0.0, 0.0, 0.0) + tuple(p)

    def arrow_valid(g):
        return _finite(g) & _nonzero(g[0], g[1])

    def sample_base(rng, on_divisor_prob=0.25):
        z1 = 0j if rng.uniform() < on_divisor_prob else _annulus(rng, 0.15, 1.2)
        return _pair(z1) + (_box(rng), _box(rng))

    def sample_base_like(p, rng):
        if _cx(p, 0) == 0:
            return tuple(p)  # divisor points are single-point orbits
        return _pair(_annulus(rng, 0.15, 1.2)) + (_box(rng), _box(rng))

    def arrow_between(p, q, rng):
        z1, z2 = _cx(p, 0), _cx(p, 2)
        w1, w2 = _cx(q, 0), _cx(q, 2)
        if z1 == 0 and w1 == 0:
            if w2 != z2:
                raise NotComposable("points of the divisor plane are distinct orbits")
            b = _annulus(rng, 0.3, 1.6)
            c = complex(_box(rng), _box(rng))
            return _pair(b) + _pair(c) + tuple(p)
        if z1 == 0 or w1 == 0:
            raise NotComposable("no arrow between different orbits")
        # act takes the carried point (target) to the source
        b = w1 / z1
        c = (w2 - z2) / z1
        return _pair(b) + _pair(c) + tuple(p)

    def sample_arrow(rng):
        b = _annulus(rng, 0.3, 1.6)
        c = complex(_box(rng), _box(rng))
        z1 = 0j if rng.uniform() < 0.25 else _annulus(rng, 0.15, 1.2)
        return _pair(b) + _pair(c) + _pair(z1) + (_box(rng), _box(rng))

    frame = residue_model_frame("zero")

    return GroupoidChartModel(
        name="action-groupoid", arrow_dim=8, base_dim=4,
        source_of=source_of, target_of=target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=arrow_valid,
        composable_tol=composable_tol,
        expected_frame=lambda p: frame(np.asarray(p)),
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=sample_base, sample_base_like=sample_base_like,
    )


# ---------------------------------------------------------------------------
# strong fibre product over base x base
# ---------------------------------------------------------------------------

class _FibreProductModel(GroupoidChartModel):
    """Pairs of arrows with equal (target, source) base pairs."""

    def extra_kernel_rows(self, arrow_point, ts_jacobian=None, prof=DEFAULT_PROFILE):
        m1, m2 = self.factors
        d1 = m1.arrow_dim
        g = np.asarray(arrow_point, dtype=float)
        # the ambient ts reads only the first factor: its first d1
        # columns are exactly the Jacobian of m1.ts at g[:d1]
        if ts_jacobian is None:
            j1 = jacobian(m1.ts, g[:d1], prof)
        else:
            j1 = ts_jacobian[:, :d1]
        j2 = jacobian(m2.ts, g[d1:], prof)
        return np.hstack([j1, -j2])


def fibre_product(m1: GroupoidChartModel, m2: GroupoidChartModel,
                  check_transverse: bool = True, seed: int = 11,
                  sample_base=None, sample_base_like=None) -> GroupoidChartModel:
    """Strong fibre product of two models over base x base.

    Arrows are pairs (g1, g2) with matching (target, source) base
    pairs; structure maps act componentwise.  The two chart-to-base-pair
    maps must be transverse, verified numerically by the rank of the
    combined Jacobian at sampled arrows (NotTransverse reports it).
    The Hausdorff flag is the conjunction of the factors' flags.  Base
    samplers default to the first factor's but can be overridden when
    the joint divisor has more strata than either factor sees alone.
    """
    if m1.base_dim != m2.base_dim:
        raise DimensionMismatch("fibre_product: factors over different bases")
    d1, d2 = m1.arrow_dim, m2.arrow_dim
    nd = m1.base_dim
    tol = max(m1.composable_tol, m2.composable_tol)
    glue_tol = 1e-7
    base_sampler = sample_base or m1.sample_base
    base_like = sample_base_like or m1.sample_base_like

    def split(g):
        return tuple(g[:d1]), tuple(g[d1:])

    def arrow_valid(g):
        if len(g) != d1 + d2:
            return False
        g1, g2 = split(g)
        pair1 = m1.target_of(g1) + m1.source_of(g1)
        pair2 = m2.target_of(g2) + m2.source_of(g2)
        return (m1.arrow_valid(g1) & m2.arrow_valid(g2)
                & (_maxdiff(pair1, pair2) <= glue_tol))

    def arrow_between(p, q, rng):
        return m1.arrow_between(p, q, rng) + m2.arrow_between(p, q, rng)

    def sample_arrow(rng):
        for _ in range(64):
            p = base_sampler(rng)
            q = base_like(p, rng) if base_like else base_sampler(rng)
            try:
                return arrow_between(p, q, rng)
            except NotComposable:
                continue
        raise SamplerExhausted("fibre product sampler: no compatible base pair")

    def expected_frame(p):
        if m1.expected_frame is None or m2.expected_frame is None:
            return None
        return _span_intersection(np.atleast_2d(m1.expected_frame(p)),
                                  np.atleast_2d(m2.expected_frame(p)))

    has_factors = m1.divisor_factors or m2.divisor_factors

    def divisor_factors(g):
        out = []
        for mm, part in zip((m1, m2), split(g)):
            if mm.divisor_factors is not None:
                out.extend(mm.divisor_factors(part))
        return out

    # finite differencing must see the ambient product chart; the gluing
    # constraint enters the algebroid computation as extra Jacobian rows
    def ambient_valid(g):
        g1, g2 = split(g)
        return m1.arrow_valid(g1) and m2.arrow_valid(g2)

    def ambient_ts(g):
        g1 = split(g)[0]
        return m1.target_of(g1) + m1.source_of(g1)

    def unit_pair(p):
        return m1.unit_at(p) + m2.unit_at(p)

    fd_ts = SmoothMap.from_formula(d1 + d2, 2 * nd, ambient_ts, ambient_valid,
                                   "fibre.ts(ambient)")
    fd_unit = SmoothMap.from_formula(nd, d1 + d2, unit_pair, None, "fibre.unit")

    model = _FibreProductModel(
        name=f"fibre:{m1.name},{m2.name}", arrow_dim=d1 + d2, base_dim=nd,
        source_of=lambda g: m1.source_of(split(g)[0]),
        target_of=lambda g: m1.target_of(split(g)[0]),
        compose_raw=lambda g, h: (m1.compose_raw(split(g)[0], split(h)[0])
                                  + m2.compose_raw(split(g)[1], split(h)[1])),
        invert=lambda g: m1.invert(split(g)[0]) + m2.invert(split(g)[1]),
        unit_at=unit_pair,
        arrow_valid=arrow_valid,
        composable_tol=tol, is_hausdorff=m1.is_hausdorff and m2.is_hausdorff,
        expected_frame=expected_frame,
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=base_sampler, sample_base_like=base_like,
        divisor_factors=divisor_factors if has_factors else None,
        algebroid_maps=(fd_ts, fd_unit),
    )
    object.__setattr__(model, "factors", (m1, m2))

    if check_transverse:
        rng = np.random.Generator(np.random.Philox(key=seed))
        # the origin unit sits on the deepest stratum of every chart
        # model here, which is where blow-down ranks can drop
        probes = [model.unit_at((0.0,) * nd)]
        probes += [model.unit_at(base_sampler(rng)) for _ in range(6)]
        probes += [model.random_arrow(rng) for _ in range(4)]
        for g in probes:
            rows = model.extra_kernel_rows(g)
            rank = np.linalg.matrix_rank(rows, tol=1e-8)
            if rank < 2 * nd:
                raise NotTransverse(
                    f"fibre_product: combined Jacobian rank {rank} < {2 * nd}")
    return model


def _span_intersection(f1: np.ndarray, f2: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rows spanning span(f1) (cap) span(f2)."""
    def onb(a):
        a = np.atleast_2d(a)
        if not a.any():
            return np.zeros((0, a.shape[1]))
        _, sv, vt = np.linalg.svd(a, full_matrices=False)
        return vt[sv > tol * sv[0]]

    q1, q2 = onb(f1), onb(f2)
    n = f1.shape[1]
    if q1.shape[0] == 0 or q2.shape[0] == 0:
        return np.zeros((0, n))
    p1 = q1.T @ q1
    p2 = q2.T @ q2
    w, v = np.linalg.eigh(p1 @ p2 @ p1)
    return v[:, w > 1 - 1e-9].T


# ---------------------------------------------------------------------------
# elliptic ideal on the arrow space
# ---------------------------------------------------------------------------

def elliptic_ideal_pullback(model: GroupoidChartModel, g) -> Tuple[float, float, float]:
    """Source/target pullbacks of the elliptic ideal generator at an arrow.

    Returns (s_value, t_value, ratio): products over the divisor factors
    of |a_j b_j|^2, |a_j|^2 and |b_j|^2 respectively.  The ratio is the
    invertible comparison factor, returned even when both pullback
    values are 0; it never vanishes on a valid arrow.
    """
    if model.divisor_factors is None:
        raise ChartInvalid(f"{model.name}: no divisor factor data")
    model.require_valid(g)
    return ideal_values(model.divisor_factors(g))


def ideal_values(factors):
    """(s_value, t_value, ratio) of ``elliptic_ideal_pullback`` from the
    divisor factors of a point or a block, without the validity check."""
    s_value = t_value = ratio = 1.0
    for ar, ai, br, bi in factors:
        s_value *= _square(_cabs(*_cmul(ar, ai, br, bi)))
        t_value *= _square(_cabs(ar, ai))
        ratio *= _square(_cabs(br, bi))
    return (s_value, t_value, ratio)
