"""Chart-level groupoid local models.

Every model is a carrier coordinate domain (flat tuples of reals,
complex coordinates stored as consecutive real pairs) together with
closed-form evaluators for source, target, multiplication, inverse and
unit, plus a chart-validity predicate.  Each evaluator is one formula
on a tuple of coordinates, and a coordinate is either a Python float
(one point) or an (N,) float column (a block of N points): the sampled
suites draw and evaluate every identity once per block, the kernel's
stacked Jacobians evaluate every stencil point of a stack at once
through the SmoothMap views, and ``compose`` passes single points.  On
a block, some output coordinates may be plain floats (constants such
as the unit fibre); they broadcast against the columns.

The samplers are formulas too: each reads a fixed number of uniforms in
[0, 1) per sample (the model's ``widths``), floats or columns, and
branches instead of drawing again, so a block drawn as one
``rng.random`` slab is, row for row, the one-sample draws.

Complex arithmetic is written on real pairs (``_cmul`` and ``_cdiv``,
shared with the forms of ``egl.kernel``, and ``_cexp``, ``_clog``,
``_cabs``) with the operations CPython's complex type performs, so a
point and the same point inside a block give the same bits (NumPy's
real ``cos``, ``sin`` and ``log`` may run SIMD kernels with other last
bits).  The block helpers here and in ``egl.kernel`` and ``egl.checks``
stack, broadcast, select and reduce a block with one NumPy C call each
(``_stack`` is one ``np.array`` call; a reduction is the ufunc's own,
``np.maximum.reduce`` and not ``ndarray.max``) and use no generators:
a Python-level wrapper is paid once per block, and on small checks such
fixed costs are most of the time.  Predicates return a bool for a point
and a bool column for a block.  The ``ts`` view (target ++ source)
lets one Jacobian serve both endpoint maps, and the algebroid
computation differentiates the pair ``(ts, unit)``.  All models are
immutable value objects; samplers draw from an explicit seeded
generator, so a fixed seed fixes every report.

Each family of formulas is written once.  case1 is the k = 1 member of
the blow-up family behind caseIV, and case2 is its k = 1 member twisted
by conjugation, with a 0/1 sheet bit; the smooth factors of a
normal-crossing fibre product and the receiving model H(zero) of the
zero-residue morphism are case1 read in other coordinates (``_relabel``),
and the chart of the zero-residue symplectic model is the action
groupoid read in other coordinates, with other sampling radii;
ssc-surface is the exp-on-target, unscaled member of the exponential
family whose four conventions are the covering-morphism domain
candidates of ``egl.symplectic``.  A model also carries the data its
suites need: the base slots of its deepest divisor stratum, its exact
isotropy law (the torus, affine and C* x| Z/2 laws below), and, for a
fibre product, its two factors.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable, Optional, Tuple

import numpy as np

from .divisors import DivisorLocalModel, residue_model_frame
from .errors import (ChartInvalid, DimensionMismatch, NotComposable,
                     NotTransverse, SamplerExhausted)
from .kernel import (DEFAULT_PROFILE, SmoothMap, _branch, _cdiv, _cmul, _complex,
                     _span_intersection, jacobian)
from .signedperm import SignedPermutation

__all__ = [
    "COMPOSABLE_TOL",
    "GroupoidChartModel",
    "Widths",
    "uniforms",
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


def _is_block(*xs) -> bool:
    for x in xs:
        if isinstance(x, np.ndarray):
            return True
    return False


def _stack(x, n: int) -> np.ndarray:
    """The coordinates of a block of n points as one fresh (d, n) float
    array; a scalar coordinate fills its row."""
    for c in x:
        if not (isinstance(c, np.ndarray) and c.shape == (n,)):
            break
    else:
        if x:
            return np.array(x, dtype=float)
    out = np.empty((len(x), n))
    for row, c in zip(out, x):
        row[...] = c
    return out


def _block_len(x) -> int:
    for c in x:
        if isinstance(c, np.ndarray):
            return len(c)


def _maxdiff(a, b):
    """Max coordinate difference; NaN if any coordinate difference is NaN.

    The builtin ``max`` drops NaN unless it comes first, so the sum of
    the (nonnegative) differences decides whether one is NaN.  On a
    block the result is a column: the differences are nonnegative or
    NaN, and ``max`` along the coordinates keeps NaN itself.
    """
    if _is_block(*a, *b):
        n = _block_len((*a, *b))
        return np.maximum.reduce(np.abs(_stack(a, n) - _stack(b, n)), axis=0)
    diffs = [abs(x - y) for x, y in zip(a, b)]
    total = sum(diffs)
    return max(diffs, default=0.0) if total == total else total


def _finite(seq):
    """Every coordinate finite: 0 * x is 0 for finite x and NaN otherwise;
    on a block, a column."""
    if _is_block(*seq):
        return np.logical_and.reduce(np.isfinite(_stack(seq, _block_len(seq))), axis=0)
    return sum(0.0 * x for x in seq) == 0.0


def _nonzero(re, im):
    return (re != 0) | (im != 0)


def _cexp(re, im):
    """e^(re + i im): ``cmath.exp`` on a point, ``np.exp`` on a complex column.

    Where ``cmath.exp`` raises (overflow, or an infinite imaginary
    part), a point takes the value of its one-row block.
    """
    if not _is_block(re, im):
        try:
            w = cmath.exp(complex(re, im))
            return (w.real, w.imag)
        except (OverflowError, ValueError):
            return tuple(float(x[0]) for x in _cexp(np.array([re]), np.array([im])))
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(_complex(re, im))
    return (w.real, w.imag)


def _log(z: complex) -> complex:
    """``cmath.log``, and log 0 = -inf + i arg, where ``cmath.log`` raises."""
    return cmath.log(z) if z else complex(-math.inf, math.atan2(z.imag, z.real))


def _clog(re, im):
    """log(re + i im) by ``_log``; a block row by row."""
    if not _is_block(re, im):
        w = _log(complex(re, im))
        return (w.real, w.imag)
    z = _complex(re, im)
    w = np.array(list(map(_log, z.ravel().tolist())), dtype=complex).reshape(z.shape)
    return (w.real, w.imag)


def _cabs(re, im):
    """|re + i im| by the C library's hypot, as ``abs(complex)`` computes it."""
    return np.hypot(re, im) if _is_block(re, im) else abs(complex(re, im))


def _square(x):
    """x ** 2 by the C library's pow, as Python computes it (not x * x)."""
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x ** 2


def _zero(re, im):
    return (re == 0) & (im == 0)


def _refuse(refused, why: str, arrow: Callable):
    """``arrow()`` unless ``refused``: a refused point raises
    NotComposable(why), and the refused rows of a block are all NaN."""
    if not isinstance(refused, np.ndarray):
        if refused:
            raise NotComposable(why)
        return arrow()
    return tuple([np.where(refused, math.nan, x) for x in arrow()])


def _join(p, q, i, on_divisor, off, apart=False):
    """``arrow_between`` for the divisor pair at slots i, i + 1:
    ``on_divisor()`` where p and q both lie on it (and are not
    ``apart``), ``off()`` where neither does, refused elsewhere."""
    on_p, on_q = _zero(p[i], p[i + 1]), _zero(q[i], q[i + 1])
    return _refuse((on_p != on_q) | (on_p & on_q & apart), "no arrow between different strata",
                   lambda: _branch(on_p & on_q, on_divisor, off))


# -- samplers: formulas of uniforms ------------------------------------------

def uniforms(rng, width: int, n=None) -> tuple:
    """``width`` uniforms in [0, 1): floats for one sample, or (n,)
    columns for a block of n.  Either way one ``rng.random`` call; row
    i of a block holds the numbers of the i-th of n one-sample calls."""
    if n is None:
        return tuple(rng.random(width).tolist())
    return tuple(rng.random((n, width)).T.copy())


def _full(x, n):
    """A drawn point, or a drawn block with every coordinate an (n,) column:
    the rows of one fresh array, so each can be written on its own."""
    return x if n is None else tuple(_stack(x, n))


def _uniform(u, low, high):
    """``rng.uniform(low, high)`` read off the uniform u."""
    return low + (high - low) * u


def _box(u, half=1.0):
    return _uniform(u, -half, half)


def _annulus(um, up, rmin, rmax):
    """A point with rmin <= |z| < rmax, as a real pair, from two uniforms."""
    mag = _uniform(um, rmin, rmax)
    c, s = _cexp(0.0, _uniform(up, -math.pi, math.pi))
    return (mag * c, mag * s)


def _zero_or(coin, um, up, rmin, rmax):
    """0 where ``coin`` holds (the divisor), else an annulus point."""
    return _branch(coin, lambda: (0.0, 0.0), lambda: _annulus(um, up, rmin, rmax))


@dataclass(frozen=True)
class Widths:
    """Uniforms per sample of ``sample_arrow``, ``sample_base``,
    ``sample_base_like`` and ``arrow_between``; ``extend`` and
    ``isotropy`` are those of the draws built from them."""
    arrow: int = 0
    base: int = 0
    like: int = 0
    between: int = 0

    @property
    def extend(self) -> int:
        return self.like + self.between

    @property
    def isotropy(self) -> int:
        return self.base + 2 * self.between


# how far apart s(g) and t(h) may be for ``compose`` and the ``m`` view to
# accept the pair (g, h); the samplers build exactly composable pairs
COMPOSABLE_TOL = 1e-9


@dataclass(frozen=True)
class GroupoidChartModel:
    """A groupoid local model on a single coordinate chart.

    The structure-map fields (``source_of``, ``target_of``,
    ``compose_raw``, ``invert``, ``unit_at``, ``arrow_valid``,
    ``beta_map``, ``divisor_factors``) and the samplers (``sample_*`` and
    ``arrow_between``, reading u, ``widths`` uniforms per sample) take a
    point or a block of points (see the module docstring);
    ``expected_frame``, the stated algebroid frame, takes a base point,
    giving its (r, n) frame rows, or a block, giving the (N, r, n) stack
    with each point's bits (a frame that does not depend on the point
    may return one matrix for both);
    ``arrow_between`` refuses endpoints on different strata (a point
    raises NotComposable, a block row is all NaN).  ``compose`` and
    ``require_valid`` work on single points.  ``s``, ``t``, ``ts``,
    ``m``, ``inv``, ``unit`` expose the same formulas as SmoothMaps for
    the numerical kernel.
    ``ts`` is target ++ source on ``arrow_valid``, so one Jacobian gives
    dt (its first ``base_dim`` rows) and ds (the rest).
    ``COMPOSABLE_TOL`` is how exactly ``source(g) == target(h)`` must
    hold before ``compose`` and ``m`` accept a pair (a NaN gap never
    does); samplers construct exactly composable data rather than
    relying on slack.  ``algebroid_maps``, when set, supplies the (ts,
    unit) SmoothMaps on a smooth sector suitable for finite differencing
    (used where the full chart carries a discrete coordinate or a gluing
    constraint).  ``factors`` holds a fibre product's two factor models,
    ``divisor_slots`` the base coordinates that vanish on the deepest
    divisor stratum, and ``isotropy`` the exact isotropy law, as the
    residual of a product of two isotropy arrows (see
    ``_torus_residual``).  All of them are fields, so
    ``dataclasses.replace`` copies (renamed, perturbed or traced models)
    keep them.
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
    expected_frame: Optional[Callable] = None   # point -> (r, n) rows; block -> (N, r, n)
    beta_map: Optional[Callable] = None         # arrow -> (target ++ source) blow-down
    arrow_between: Optional[Callable] = None    # (p, q, u) -> arrow with t=p, s=q
    sample_arrow: Optional[Callable] = None     # u -> arrow
    sample_base: Optional[Callable] = None      # u -> base point
    sample_base_like: Optional[Callable] = None  # (p, u) -> point on p's stratum
    divisor_factors: Optional[Callable] = None  # arrow -> [(Re a_j, Im a_j, Re b_j, Im b_j)]
    algebroid_maps: Optional[tuple] = None      # (ts, unit) SmoothMaps for FD
    factors: Optional[tuple] = None             # fibre products: (m1, m2)
    divisor_slots: tuple = ()                   # base slots zero on the deepest stratum
    isotropy: Optional[Callable] = None         # (model, g1, g2, out) -> residual
    widths: Widths = Widths()                   # uniforms per sample of each sampler

    # -- scalar layer ------------------------------------------------------

    def require_valid(self, g):
        if not self.arrow_valid(g):
            raise ChartInvalid(f"{self.name}: invalid arrow {g}")

    def compose(self, g, h):
        """Groupoid multiplication with composability check."""
        self.require_valid(g)
        self.require_valid(h)
        gap = _maxdiff(self.source_of(g), self.target_of(h))
        if not gap <= COMPOSABLE_TOL:
            err = NotComposable(f"{self.name}: endpoint gap {gap:.3e}")
            err.gap = gap
            raise err
        out = self.compose_raw(g, h)
        self.require_valid(out)
        return out

    def random_arrow(self, rng, n=None):
        if self.sample_arrow is None:
            raise SamplerExhausted(f"{self.name}: no arrow sampler")
        return _full(self.sample_arrow(uniforms(rng, self.widths.arrow, n)), n)

    def random_base(self, rng, n=None):
        if self.sample_base is None:
            raise SamplerExhausted(f"{self.name}: no base sampler")
        return _full(self.sample_base(uniforms(rng, self.widths.base, n)), n)

    def _extend(self, p, u):
        if self.arrow_between is None:
            raise SamplerExhausted(f"{self.name}: no endpoint-constrained sampler")
        q = self.sample_base_like(p, u[:self.widths.like])
        try:
            return self.arrow_between(p, q, u[self.widths.like:])
        except NotComposable:
            return (math.nan,) * self.arrow_dim

    def extend_from(self, p, rng, n=None):
        """A random arrow whose target is exactly p (a point, or a block of n).

        q is drawn on p's stratum, so ``arrow_between`` joins p to q when
        p is finite; where it refuses a non-finite p, the arrow is all
        NaN, so the suites fail closed on the sample.
        """
        return _full(self._extend(p, uniforms(rng, self.widths.extend, n)), n)

    def random_composable_pair(self, rng, n=None):
        """An exactly composable pair, built by extending a random arrow."""
        w = self.widths
        u = uniforms(rng, w.arrow + w.extend, n)
        g = self.sample_arrow(u[:w.arrow])
        return _full(g, n), _full(self._extend(self.source_of(g), u[w.arrow:]), n)

    def random_isotropy_pair(self, rng, n=None):
        """Two isotropy arrows over one base point: a drawn base point with
        its ``divisor_slots`` set to zero, joined to itself twice by
        ``arrow_between``."""
        w = self.widths
        u = uniforms(rng, w.isotropy, n)
        p = _full(tuple([0.0 if i in self.divisor_slots else x
                         for i, x in enumerate(self.sample_base(u[:w.base]))]), n)
        mid = w.base + w.between
        return (_full(self.arrow_between(p, p, u[w.base:mid]), n),
                _full(self.arrow_between(p, p, u[mid:]), n))

    def random_composable_triple(self, rng, n=None):
        w = self.widths
        u = uniforms(rng, w.arrow + 2 * w.extend, n)
        g = self.sample_arrow(u[:w.arrow])
        h = self._extend(self.source_of(g), u[w.arrow:w.arrow + w.extend])
        k = self._extend(self.source_of(h), u[w.arrow + w.extend:])
        return _full(g, n), _full(h, n), _full(k, n)

    # -- SmoothMap layer ----------------------------------------------------

    def _view(self, label, domain_dim, codomain_dim, formula, valid) -> SmoothMap:
        return SmoothMap(domain_dim, codomain_dim, formula, valid, f"{self.name}.{label}")

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
        return self._view("unit", self.base_dim, self.arrow_dim, self.unit_at, _finite)

    @property
    def m(self) -> SmoothMap:
        d = self.arrow_dim

        def composable(gh):
            g, h = gh[:d], gh[d:]
            ok = self.arrow_valid(g) & self.arrow_valid(h)
            if not np.any(ok):      # a point off the chart need not evaluate
                return ok
            return ok & (_maxdiff(self.source_of(g), self.target_of(h)) <= COMPOSABLE_TOL)

        return self._view("m", 2 * d, d, lambda gh: self.compose_raw(gh[:d], gh[d:]),
                          composable)

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
        """A fibre product's gluing-constraint Jacobian rows; None otherwise.

        ``arrow_point`` is a point or a stack of points, as for
        ``jacobian``, and so are the rows: [J(m1.ts) | -J(m2.ts)].
        ``ts_jacobian``, when given, is the Jacobian of
        ``maps_for_algebroid()[0]`` at ``arrow_point`` under ``prof``;
        the ambient ts reads only the first factor, so its first
        ``m1.arrow_dim`` columns are exactly J(m1.ts) and are reused.
        """
        if self.factors is None:
            return None
        m1, m2 = self.factors
        d1 = m1.arrow_dim
        g = np.asarray(arrow_point, dtype=float)
        if ts_jacobian is None:
            j1 = jacobian(m1.ts, g[..., :d1], prof)
        else:
            j1 = ts_jacobian[..., :d1]
        j2 = jacobian(m2.ts, g[..., d1:], prof)
        return np.concatenate([j1, -j2], axis=-1)


# ---------------------------------------------------------------------------
# isotropy laws
# ---------------------------------------------------------------------------
# An isotropy law is its oracle: residual(model, g1, g2, out) measures the
# products ``out`` of isotropy arrows g1 and g2 (drawn by the model's
# ``random_isotropy_pair``) against the group law, which it evaluates on
# g1 and g2, for a point or a block.  A law reads the model it is given,
# so a renamed or traced copy of a model runs it unchanged, and a
# relabelled copy reads its arrows through the arrow order (``_relabel``).

def _torus_residual(model, g1, g2, out):
    """(C*)^k componentwise over the deepest stratum, read through
    ``divisor_factors``."""
    # |a_j| of g1 and g2 is 0 only on an isotropy arrow: without it the
    # product law holds for every composable pair
    res = 0.0
    for f1, f2, fo in zip(model.divisor_factors(g1), model.divisor_factors(g2),
                          model.divisor_factors(out)):
        b12 = _cmul(*f1[2:], *f2[2:])
        for term in (_cabs(fo[2] - b12[0], fo[3] - b12[1]), _cabs(fo[0] - f1[0], fo[1] - f1[1]),
                     _cabs(f1[0], f1[1]), _cabs(f2[0], f2[1])):
            res = np.maximum(res, term)
    return res


def _affine_residual(model, g1, g2, out):
    """The affine law (b, c)(b', c') = (b b', c + b c') of the plane, on
    the (b, c) at arrow slots 0..3."""
    b = _cmul(g1[0], g1[1], g2[0], g2[1])
    bc = _cmul(g1[0], g1[1], g2[2], g2[3])
    return (_cabs(out[0] - b[0], out[1] - b[1])
            + _cabs(out[2] - (g1[2] + bc[0]), out[3] - (g1[3] + bc[1])))


_FLIPS = (SignedPermutation((0,), (0,)), SignedPermutation((0,), (1,)))
# by class (d1, d2) of (b1, flip^d1)(b2, flip^d2) = (b1 flip^d1(b2), flip^d1 flip^d2):
# whether flip^d1 conjugates, and the discrete product, by ``signedperm``'s law
_CASE2_CONJ = np.array([f.act((1j,)) != (1j,) for f in _FLIPS])
_CASE2_FLIP = np.array([[float((f1 * f2).flips[0]) for f2 in _FLIPS] for f1 in _FLIPS])


def _case2_residual(model, g1, g2, out):
    """C* x| Z/2 acting by conjugation, against the law of ``signedperm``:
    (b, delta) sits at the last three arrow slots."""
    d1, d2 = 1 * (g1[-1] != 0), 1 * (g2[-1] != 0)     # not int(): delta may be NaN
    b2 = _branch(_CASE2_CONJ[d1], lambda: (g2[-3], -g2[-2]), lambda: (g2[-3], g2[-2]))
    b = _cmul(g1[-3], g1[-2], *b2)
    return _cabs(out[-3] - b[0], out[-2] - b[1]) + abs(out[-1] - _CASE2_FLIP[d1, d2])


# ---------------------------------------------------------------------------
# pair groupoid
# ---------------------------------------------------------------------------

def pair_groupoid(dim: int) -> GroupoidChartModel:
    """The pair groupoid of R^dim: arrows (p, q), s = q, t = p."""
    half = 1.2      # half-width of the sampled box

    def sample_base(u):
        return tuple([_box(x, half) for x in u])

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
        arrow_between=lambda p, q, u: tuple(p) + tuple(q),
        sample_arrow=sample_base,
        sample_base=sample_base,
        sample_base_like=lambda p, u: sample_base(u),
        widths=Widths(arrow=2 * dim, base=dim, like=dim),
    )


# ---------------------------------------------------------------------------
# blow-up family: smooth (k = 1), coorientable normal-crossing, and the
# coorientation double-cover quotient (k = 1, twisted by conjugation)
# ---------------------------------------------------------------------------

def _delta(x):
    """A sheet bit rounded to the nearest integer, as a float; a NaN or
    infinite bit passes through instead of raising."""
    if isinstance(x, np.ndarray):
        return np.rint(x) + 0.0     # round() gives an int: its zero has no sign
    return float(round(x)) if x - x == 0 else x


def _conj(re, im, flag):
    """re + i im, conjugated where ``flag`` is nonzero; multiplying by
    1.0 or -1.0 is exact, so flag 0 leaves the bits as they are."""
    return (re, im * (1.0 - 2.0 * (flag != 0)))


def _blowup_model(n: int, k: int, name: str, on_divisor_prob: float,
                  twisted: bool = False) -> GroupoidChartModel:
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

    A ``twisted`` arrow also carries a sheet bit delta_j in {0, 1} per
    factor, after the b_j: the deck involution conjugates z_j, so the
    source reads a_j b_j through conj^delta_j, the product conjugates the
    second arrow's b_j by the first arrow's delta_j and adds the bits
    mod 2, and the inverse is (y, x, conj^delta(a b), 1/conj^delta(b),
    delta).  The formulas read each bit rounded (``_delta``); an untwisted
    arrow has every factor on sheet 0, so its formulas read no bit and
    conjugate nothing (conj^0 is the identity).  The samplers read one more
    uniform per bit, a coin at the end of their slab.
    """
    nx = n - 2 * k
    ia, ib = 2 * nx, 2 * nx + 2 * k
    factors = tuple((ia + 2 * j, ib + 2 * j) for j in range(k))  # (a_j, b_j) slots
    zs = tuple(nx + 2 * j for j in range(k))                      # z_j slots in the base
    bits = k if twisted else 0      # sheet bits, at arrow slots 2n .. 2n + bits - 1
    dim = 2 * n + bits
    flat = (0.0,) * (k - bits)      # the factors without a bit are on sheet 0
    if twisted:
        def deltas(g):
            return tuple(map(_delta, g[2 * n:dim]))
        conj = _conj
    else:
        def deltas(g):
            return flat

        def conj(re, im, flag):     # conj^0: _conj's multiply by 1.0 is exact
            return (re, im)

    def products(g, dg):        # conj^delta_j(a_j b_j) of each factor
        out = ()
        for (i, j), d in zip(factors, dg):
            out += conj(*_cmul(g[i], g[i + 1], g[j], g[j + 1]), d)
        return out

    def source_of(g):
        return tuple(g[nx:2 * nx]) + products(g, deltas(g))

    def target_of(g):
        return tuple(g[:nx]) + tuple(g[ia:ib])

    def compose_raw(g, h):
        dg, dh = deltas(g), deltas(h)
        out = tuple(g[:nx]) + tuple(h[nx:2 * nx]) + tuple(g[ia:ib])
        for (_, j), d in zip(factors, dg):
            out += _cmul(g[j], g[j + 1], *conj(h[j], h[j + 1], d))
        return out + tuple([(x + y) % 2.0 for x, y in zip(dg[:bits], dh)])

    def invert(g):
        dg = deltas(g)
        out = tuple(g[nx:2 * nx]) + tuple(g[:nx]) + products(g, dg)
        for (_, j), d in zip(factors, dg):
            out += _cdiv(1.0, 0.0, *conj(g[j], g[j + 1], d))
        return out + dg[:bits]

    def unit_at(p):
        return (tuple(p[:nx]) + tuple(p[:nx]) + tuple(p[nx:nx + 2 * k]) + (1.0, 0.0) * k
                + (0.0,) * bits)

    def arrow_valid(g):
        if len(g) != dim:
            return False
        ok = _finite(g)
        for _, j in factors:
            ok = ok & _nonzero(g[j], g[j + 1])
        for s in range(2 * n, dim):
            ok = ok & ((g[s] == 0.0) | (g[s] == 1.0))
        return ok

    divisor = DivisorLocalModel(n=n, k=k)

    def sample_base(u):
        out = tuple([_box(x) for x in u[:nx]])
        for c in range(nx, nx + 3 * k, 3):
            out += _zero_or(u[c] < on_divisor_prob, u[c + 1], u[c + 2], 0.15, 1.2)
        return out

    def sample_base_like(p, u):
        out = tuple([_box(x) for x in u[:nx]])
        for c, i in zip(range(nx, nx + 2 * k, 2), zs):
            out += _zero_or(_zero(p[i], p[i + 1]), u[c], u[c + 1], 0.15, 1.2)
        return out

    def coins(u):
        return tuple([1.0 * (x < 0.5) for x in u])

    def arrow_between(p, q, u):
        on_p = [_zero(p[i], p[i + 1]) for i in zs]
        on_q = [_zero(q[i], q[i + 1]) for i in zs]
        sheet = coins(u[2 * k:2 * k + bits])
        dq = sheet + flat

        def chart():
            avals, bvals = (), ()
            for j, i in enumerate(zs):
                # off the divisor, b solves conj^delta(a b) = z_j(q)
                ab = _branch(on_p[j] & on_q[j],
                             lambda: (0.0, 0.0) + _annulus(u[2 * j], u[2 * j + 1], 0.3, 1.6),
                             lambda: (p[i], p[i + 1])
                             + _cdiv(*conj(q[i], q[i + 1], dq[j]), p[i], p[i + 1]))
                avals, bvals = avals + ab[:2], bvals + ab[2:]
            return tuple(p[:nx]) + tuple(q[:nx]) + avals + bvals + sheet

        refused = functools.reduce(lambda a, b: a | b, [x != y for x, y in zip(on_p, on_q)])
        return _refuse(refused, "no arrow between different strata", chart)

    def sample_arrow(u):
        out = tuple([_box(x) for x in u[:2 * nx]])
        c = 2 * nx
        for j in range(k):
            out += _zero_or(u[c + 3 * j] < on_divisor_prob, u[c + 3 * j + 1],
                            u[c + 3 * j + 2], 0.1, 1.2)
        for j in range(c + 3 * k, c + 5 * k, 2):
            out += _annulus(u[j], u[j + 1], 0.3, 1.6)
        return out + coins(u[c + 5 * k:])

    return GroupoidChartModel(
        name=name, arrow_dim=dim, base_dim=n,
        source_of=source_of, target_of=target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=arrow_valid,
        expected_frame=lambda p: divisor.algebroid_frame(p).vectors,
        beta_map=lambda g: target_of(g) + source_of(g),
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=sample_base, sample_base_like=sample_base_like,
        divisor_factors=lambda g: [(g[i], g[i + 1], g[j], g[j + 1]) for i, j in factors],
        divisor_slots=tuple(i + c for i in zs for c in (0, 1)),
        isotropy=_torus_residual,
        widths=Widths(arrow=2 * nx + 5 * k + bits, base=nx + 3 * k, like=nx + 2 * k,
                      between=2 * k + bits),
    )


def case1_model(n: int) -> GroupoidChartModel:
    """Blow-up local model for a smooth coorientable divisor: k = 1."""
    if n < 2:
        raise ValueError("case1_model requires n >= 2")
    return _blowup_model(n, 1, f"case1({n})", 0.25)


def caseIV_model(n: int, k: int) -> GroupoidChartModel:
    """Iterated-blow-up local model around a multiplicity-k stratum."""
    if not (n >= 2 * k >= 2):
        raise ValueError("caseIV_model requires n >= 2k >= 2")
    return _blowup_model(n, k, f"caseIV({n},{k})", 0.3)


def case2_quotient_model(n: int) -> GroupoidChartModel:
    """Quotient of the double-cover model by the deck involution.

    The twisted k = 1 member of the blow-up family: case1's arrows plus
    the sheet-difference bit delta as a final 0/1 coordinate.  The
    isotropy over the divisor is C* x| Z/2 acting by conjugation.  The
    model has no ``beta_map``, and its algebroid is computed on the
    delta = 0 sector, through case1's (ts, unit) views.
    """
    plain = case1_model(n)
    return replace(_blowup_model(n, 1, f"case2({n})", 0.25, twisted=True),
                   beta_map=None, algebroid_maps=(plain.ts, plain.unit),
                   isotropy=_case2_residual)


# ---------------------------------------------------------------------------
# a model read in other coordinates; the smooth factors of a
# normal-crossing base (for fibre products)
# ---------------------------------------------------------------------------

def _same(x):
    return x


def _getter(order) -> Callable:
    """x -> (x[order[0]], x[order[1]], ...), or ``_same`` for the identity."""
    order = tuple(order)
    return _same if order == tuple(range(len(order))) else itemgetter(*order)


def _via(fn, into, out):
    """x -> out(fn(into(x))), leaving out the identity getters; None for no fn."""
    if fn is None:
        return None
    if into is _same:
        return fn if out is _same else (lambda x: out(fn(x)))
    return (lambda x: fn(into(x))) if out is _same else (lambda x: out(fn(into(x))))


def _relabel(inner: GroupoidChartModel, name: str, base_order,
             arrow_order) -> GroupoidChartModel:
    """``inner`` read in another layout of its base and arrow coordinates.

    Coordinate r of inner's base (arrow) is coordinate ``base_order[r]``
    (``arrow_order[r]``) of the new model's.  Every field is inner's,
    read through these permutations: structure maps, ``arrow_valid``,
    samplers, ``arrow_between``, ``divisor_factors``, ``divisor_slots``,
    the isotropy law, and ``expected_frame`` with its rows and columns
    permuted by the base order.  An identity order costs nothing:
    inner's maps and law are used as they are.  ``inner`` must not be a
    fibre product or carry ``algebroid_maps``.
    """
    n = inner.base_dim
    base_back = sorted(range(n), key=base_order.__getitem__)
    b_in, b_out = _getter(base_order), _getter(base_back)
    a_in = _getter(arrow_order)
    a_out = _getter(sorted(range(inner.arrow_dim), key=arrow_order.__getitem__))
    pair_out = _getter(base_back + [n + i for i in base_back])
    cells = np.ix_(base_back, base_back)
    same_arrows = a_in is _same

    def compose_raw(g, h):
        return a_out(inner.compose_raw(a_in(g), a_in(h)))

    def arrow_valid(g):
        return len(g) == inner.arrow_dim and inner.arrow_valid(a_in(g))

    def frame(rows):
        return rows[(...,) + cells]     # a point's frame or a block's stack

    return GroupoidChartModel(
        name=name, arrow_dim=inner.arrow_dim, base_dim=n,
        source_of=_via(inner.source_of, a_in, b_out),
        target_of=_via(inner.target_of, a_in, b_out),
        compose_raw=inner.compose_raw if same_arrows else compose_raw,
        invert=_via(inner.invert, a_in, a_out),
        unit_at=_via(inner.unit_at, b_in, a_out),
        arrow_valid=inner.arrow_valid if same_arrows else arrow_valid,
        expected_frame=_via(inner.expected_frame, b_in, _same if b_in is _same else frame),
        beta_map=_via(inner.beta_map, a_in, pair_out),
        arrow_between=lambda p, q, u: a_out(inner.arrow_between(b_in(p), b_in(q), u)),
        sample_arrow=_via(inner.sample_arrow, _same, a_out),
        sample_base=_via(inner.sample_base, _same, b_out),
        sample_base_like=lambda p, u: b_out(inner.sample_base_like(b_in(p), u)),
        divisor_factors=_via(inner.divisor_factors, a_in, _same),
        divisor_slots=tuple(sorted(base_order[i] for i in inner.divisor_slots)),
        isotropy=inner.isotropy if same_arrows or inner.isotropy is None else (
            lambda model, g1, g2, out: inner.isotropy(inner, a_in(g1), a_in(g2), a_in(out))),
        widths=inner.widths,
    )


def smooth_factor_model(n: int, k: int, j: int) -> GroupoidChartModel:
    """Smooth-divisor model for the j-th factor of a k-factor base.

    The base keeps the normal-crossing layout (x real, z_1..z_k complex)
    but only {z_j = 0} is blown up: this is case1(n) with its divisor
    pair read at z_j and its real coordinates at x and the other pairs,
    which ride along untouched; the arrows are case1's.
    """
    if not (0 <= j < k):
        raise ValueError("factor index out of range")
    pj = n - 2 * k + 2 * j
    order = [i for i in range(n) if i not in (pj, pj + 1)] + [pj, pj + 1]
    return _relabel(case1_model(n), f"smooth-factor({n},{k},{j})",
                    order, range(2 * n))


# ---------------------------------------------------------------------------
# exponential family: the source-simply-connected surface model and the
# covering-morphism domain candidates
# ---------------------------------------------------------------------------

def _exp_model(name: str, exp_on_source: bool, scaled: bool, z_half: float,
               rmin: float, rmax: float) -> GroupoidChartModel:
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

    def sample_base(u):
        return _zero_or(u[0] < 0.15, u[1], u[2], rmin, rmax)

    def sample_base_like(p, u):
        return _zero_or(_zero(p[0], p[1]), u[0], u[1], rmin, rmax)

    def arrow_between(p, q, u):
        def off():
            zeta, other = (p, q) if exp_on_source else (q, p)
            L = _clog(*_cdiv(other[0], other[1], zeta[0], zeta[1]))
            return (_cdiv(*L, zeta[0], -zeta[1]) if scaled else L) + (zeta[0], zeta[1])

        return _join(p, q, 0, lambda: (_box(u[0], z_half), _box(u[1], z_half), 0.0, 0.0), off)

    def sample_arrow(u):
        return (_box(u[0], z_half), _box(u[1], z_half)) + sample_base(u[2:])

    frame_model = DivisorLocalModel(n=2, k=1)

    return GroupoidChartModel(
        name=name, arrow_dim=4, base_dim=2,
        source_of=source_of, target_of=target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=_finite,
        expected_frame=(None if scaled
                        else (lambda p: frame_model.algebroid_frame(p).vectors)),
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=sample_base, sample_base_like=sample_base_like,
        divisor_slots=(0, 1), widths=Widths(arrow=5, base=3, like=2, between=2),
    )


def ssc_surface_model() -> GroupoidChartModel:
    """Exponential model over the plane with divisor the origin.

    The exp-on-target, unscaled member of the exponential family:
    arrows (Z, zeta) in C^2 with s = zeta, t = zeta e^Z; composition
    adds the exponents: (Z, xi e^W).(W, xi) = (Z + W, xi).  Restricted
    to nonzero zeta this presents the fundamental groupoid of the
    punctured plane: arrows with equal endpoints have Z in 2 pi i Z and
    compose additively.
    """
    return _exp_model("ssc-surface", False, False, 1.2, 0.2, 1.5)


# ---------------------------------------------------------------------------
# action groupoid of the affine group on the plane-pair
# ---------------------------------------------------------------------------

def action_groupoid_model() -> GroupoidChartModel:
    """Action groupoid of C* x| C acting on C^2.

    Arrows ((b, c), (z1, z2)) with b nonzero; the group element acts by
    (z1, z2) -> (b z1, z2 + c z1), target is the carried point and
    source its image.  Group elements multiply in the affine convention
    (b, c)(b', c') = (b b', c + b c').
    """
    return _affine_action((0.15, 1.2), (0.3, 1.6))


def _affine_action(base_r, b_r) -> GroupoidChartModel:
    """``action_groupoid_model``'s formulas, its samplers drawing a base
    point off the divisor with base_r[0] <= |z1| < base_r[1] and an
    arrow's b with b_r[0] <= |b| < b_r[1]."""

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

    def sample_base(u):
        return _zero_or(u[0] < 0.25, u[1], u[2], *base_r) + (_box(u[3]), _box(u[4]))

    def sample_base_like(p, u):
        # divisor points are single-point orbits
        return _branch(_zero(p[0], p[1]), lambda: tuple(p),
                       lambda: _annulus(u[0], u[1], *base_r) + (_box(u[2]), _box(u[3])))

    def arrow_between(p, q, u):
        def off():
            # act takes the carried point (target) to the source
            return (_cdiv(q[0], q[1], p[0], p[1])
                    + _cdiv(q[2] - p[2], q[3] - p[3], p[0], p[1]) + tuple(p))

        # points of the divisor plane are distinct orbits
        return _join(p, q, 0, lambda: _annulus(u[0], u[1], *b_r)
                     + (_box(u[2]), _box(u[3])) + tuple(p), off,
                     apart=(q[2] != p[2]) | (q[3] != p[3]))

    def sample_arrow(u):
        return (_annulus(u[0], u[1], *b_r) + (_box(u[2]), _box(u[3]))
                + sample_base(u[4:]))

    return GroupoidChartModel(
        name="action-groupoid", arrow_dim=8, base_dim=4,
        source_of=source_of, target_of=target_of, compose_raw=compose_raw,
        invert=invert, unit_at=unit_at, arrow_valid=arrow_valid,
        expected_frame=residue_model_frame("zero"),
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=sample_base, sample_base_like=sample_base_like,
        divisor_slots=(0, 1), isotropy=_affine_residual,
        widths=Widths(arrow=9, base=5, like=4, between=4),
    )


# ---------------------------------------------------------------------------
# strong fibre product over base x base
# ---------------------------------------------------------------------------

def fibre_product(m1: GroupoidChartModel, m2: GroupoidChartModel, seed: int = 11,
                  base_from: Optional[GroupoidChartModel] = None) -> GroupoidChartModel:
    """Strong fibre product of two models over base x base.

    Arrows are pairs (g1, g2) with matching (target, source) base
    pairs; structure maps act componentwise.  The two chart-to-base-pair
    maps must be transverse, verified numerically by the rank of the
    combined Jacobian at the 11 arrows of ``_probes``, one stacked
    Jacobian and one stacked rank (NotTransverse reports the first rank
    that falls short).
    The divisor slots are the union of the factors', and the isotropy
    law is the torus law over those slots.  Base points are drawn by the
    first factor's base samplers, or by those of ``base_from`` (a model
    over the same base) when the joint divisor has more strata than
    either factor sees alone.  An arrow is drawn as a base point p, a
    point q on p's stratum and the two factors' arrows from p to q;
    every factor joins points of one stratum, so no draw is refused.
    """
    if m1.base_dim != m2.base_dim:
        raise DimensionMismatch("fibre_product: factors over different bases")
    d1, d2 = m1.arrow_dim, m2.arrow_dim
    nd = m1.base_dim
    glue_tol = 1e-7
    base = base_from or m1
    base_sampler, base_like = base.sample_base, base.sample_base_like
    wb, wl, b1 = base.widths.base, base.widths.like, m1.widths.between
    between = b1 + m2.widths.between

    def split(g):
        return tuple(g[:d1]), tuple(g[d1:])

    # finite differencing must see the ambient product chart; the gluing
    # constraint enters the algebroid computation as extra Jacobian rows
    def ambient_valid(g):
        g1, g2 = split(g)
        return m1.arrow_valid(g1) & m2.arrow_valid(g2)

    def ambient_ts(g):
        g1 = split(g)[0]
        return m1.target_of(g1) + m1.source_of(g1)

    def arrow_valid(g):
        if len(g) != d1 + d2:
            return False
        g2 = split(g)[1]
        return (ambient_valid(g)
                & (_maxdiff(ambient_ts(g), m2.target_of(g2) + m2.source_of(g2)) <= glue_tol))

    def all_nan(part):
        return functools.reduce(lambda a, b: a & b, [x != x for x in part])

    def arrow_between(p, q, u):
        g = m1.arrow_between(p, q, u[:b1]) + m2.arrow_between(p, q, u[b1:])
        # a block row a factor refused is all NaN in its part: refuse it whole
        return _refuse(all_nan(g[:d1]) | all_nan(g[d1:]), "no fibre arrow", lambda: g)

    def sample_arrow(u):    # a base point, extended to a point on its stratum
        return model._extend(base_sampler(u[:wb]), u[wb:])

    def expected_frame(p):
        return _span_intersection(m1.expected_frame(p), m2.expected_frame(p))

    has_factors = m1.divisor_factors or m2.divisor_factors

    def divisor_factors(g):
        out = []
        for mm, part in zip((m1, m2), split(g)):
            if mm.divisor_factors is not None:
                out.extend(mm.divisor_factors(part))
        return out

    def unit_pair(p):
        return m1.unit_at(p) + m2.unit_at(p)

    fd_ts = SmoothMap(d1 + d2, 2 * nd, ambient_ts, ambient_valid, "fibre.ts(ambient)")
    fd_unit = SmoothMap(nd, d1 + d2, unit_pair, None, "fibre.unit")

    slots = tuple(sorted(set(m1.divisor_slots) | set(m2.divisor_slots)))
    model = GroupoidChartModel(
        name=f"fibre:{m1.name},{m2.name}", arrow_dim=d1 + d2, base_dim=nd,
        source_of=lambda g: m1.source_of(split(g)[0]),
        target_of=lambda g: m1.target_of(split(g)[0]),
        compose_raw=lambda g, h: (m1.compose_raw(split(g)[0], split(h)[0])
                                  + m2.compose_raw(split(g)[1], split(h)[1])),
        invert=lambda g: m1.invert(split(g)[0]) + m2.invert(split(g)[1]),
        unit_at=unit_pair,
        arrow_valid=arrow_valid,
        expected_frame=expected_frame if m1.expected_frame and m2.expected_frame else None,
        arrow_between=arrow_between, sample_arrow=sample_arrow,
        sample_base=base_sampler, sample_base_like=base_like,
        divisor_factors=divisor_factors if has_factors else None,
        algebroid_maps=(fd_ts, fd_unit), factors=(m1, m2),
        divisor_slots=slots, isotropy=_torus_residual if slots else None,
        widths=Widths(arrow=wb + wl + between, base=wb, like=wl, between=between),
    )

    ranks = np.linalg.matrix_rank(model.extra_kernel_rows(_probes(model, seed)), tol=1e-8)
    low = ranks[ranks < 2 * nd]
    if len(low):
        raise NotTransverse(f"fibre_product: combined Jacobian rank {low[0]} < {2 * nd}")
    return model


def _probes(model: GroupoidChartModel, seed: int) -> np.ndarray:
    """The (11, arrow_dim) arrows at which ``fibre_product`` tests
    transversality: the unit at the origin, which sits on the deepest
    stratum of every chart model here (where blow-down ranks can drop),
    the units at 6 drawn base points and 4 drawn arrows.  The samplers
    are fixed-width, so the two block draws are 10 one-sample draws."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    bases = np.vstack([np.zeros((1, model.base_dim)),
                       np.column_stack(model.random_base(rng, 6))])
    return np.vstack([np.column_stack(_full(model.unit_at(tuple(bases.T)), 7)),
                      np.column_stack(model.random_arrow(rng, 4))])


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
