"""Algebroid paths over a smooth divisor chart and the rescaling limit.

A curve through the chart is given in polar data (x(tau), r(tau),
theta(tau)) with positive radius.  Rescaling the curve toward the
divisor by a factor t leaves its algebroid coefficients in the divisor
frame unchanged: the radial coefficient is the logarithmic derivative
of r, which is scale invariant, so the rescaled paths converge to an
algebroid path lying over the stratum with the same coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .divisors import DivisorLocalModel
from .errors import DegenerateRadius
from .kernel import DEFAULT_PROFILE, ToleranceProfile

__all__ = ["PolarCurve", "APath", "apath_rescale", "apath_anchor_residual"]


@dataclass(frozen=True)
class PolarCurve:
    """Curve tau -> (x(tau), r(tau) e^{i theta(tau)}), r > 0 on [0, 1]."""

    x: Callable[[float], Sequence[float]]
    r: Callable[[float], float]
    theta: Callable[[float], float]

    def radius(self, tau: float) -> float:
        rr = float(self.r(tau))
        if rr <= 0:
            raise DegenerateRadius(f"r({tau}) = {rr} <= 0")
        return rr


@dataclass(frozen=True)
class APath:
    """Base path with algebroid coefficients in the divisor frame order.

    The anchor applied to the coefficients must reproduce the base-path
    derivative; ``apath_anchor_residual`` measures that.
    """

    base: Callable[[float], np.ndarray]
    coeffs: Callable[[float], np.ndarray]
    ambient_dim: int


def apath_rescale(curve: PolarCurve, t: float,
                  prof: ToleranceProfile = DEFAULT_PROFILE) -> APath:
    """Algebroid path of the t-rescaled curve, in the divisor frame order.

    Coefficients are (xdot, dlog r/dtau, thetadot); none of them
    involves t, so they agree bitwise across rescalings, while the base
    path (x, t r e^{i theta}) converges to the stratum as t -> 0.
    """
    if not (0 < t <= 1):
        raise ValueError("rescaling factor must lie in (0, 1]")
    h = prof.fd_step
    nx = len(tuple(curve.x(0.0)))

    def base(tau: float) -> np.ndarray:
        rr = curve.radius(tau)
        th = curve.theta(tau)
        return np.array([*curve.x(tau), t * rr * math.cos(th), t * rr * math.sin(th)])

    def coeffs(tau: float) -> np.ndarray:
        xp = np.asarray(curve.x(tau + h), dtype=float)
        xm = np.asarray(curve.x(tau - h), dtype=float)
        dlog_r = (math.log(curve.radius(tau + h)) - math.log(curve.radius(tau - h))) / (2 * h)
        dtheta = (curve.theta(tau + h) - curve.theta(tau - h)) / (2 * h)
        return np.array([*((xp - xm) / (2 * h)), dlog_r, dtheta])

    return APath(base=base, coeffs=coeffs, ambient_dim=nx + 2)


def apath_anchor_residual(path: APath, taus,
                          prof: ToleranceProfile = DEFAULT_PROFILE) -> float:
    """Max mismatch between the anchored coefficients and the base derivative."""
    model = DivisorLocalModel(n=path.ambient_dim, k=1)
    h = prof.fd_step
    worst = 0.0
    for tau in taus:
        frame = model.algebroid_frame(path.base(tau))
        anchored = path.coeffs(tau) @ frame
        velocity = (path.base(tau + h) - path.base(tau - h)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(anchored - velocity))))
    return worst
