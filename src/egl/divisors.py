"""Chart-level models of elliptic divisors.

A local model fixes the coordinate layout ``(x_1..x_{n-2k}, z_1..z_k)``
with the complex factors stored as consecutive (real, imaginary) pairs.
The divisor is the union of the factor zero sets, the ideal generator is
the product of squared moduli, and the generating frame of the elliptic
tangent bundle consists of the coordinate fields on the real part plus a
radial/angular pair per complex factor.  The frame ordering is fixed
(real coordinates first, then per-factor pairs) so that downstream
subspace comparisons are deterministic.  The frames are formulas on a
point or on a block of points given as coordinate columns, so one call
states the frames of a whole block, each with its point's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DivisorLocalModel", "residue_model_frame"]


@dataclass(frozen=True)
class DivisorLocalModel:
    """Normal-crossing elliptic divisor on a chart of dimension ``n``.

    ``k`` is the number of complex factors; ``k = 0`` means no divisor
    and ``k = 1`` a smooth one.
    """

    n: int
    k: int

    def __post_init__(self):
        if not (self.n >= 2 * self.k >= 0):
            raise ValueError("require n >= 2k >= 0")

    @property
    def real_dim(self) -> int:
        return self.n - 2 * self.k

    def factor(self, p: np.ndarray, j: int) -> complex:
        """The j-th complex coordinate z_j at p."""
        i = self.real_dim + 2 * j
        return complex(p[i], p[i + 1])

    def ideal_generator(self, p) -> float:
        """prod_j |z_j(p)|^2, the local generator of the elliptic ideal."""
        p = np.asarray(p, dtype=float)
        out = 1.0
        for j in range(self.k):
            z = self.factor(p, j)
            out *= (z.real * z.real + z.imag * z.imag)
        return out

    def multiplicity(self, p) -> int:
        """Number of complex factors vanishing exactly at p.

        Inputs are constructed chart points, not measurements, so the
        zero test is exact.
        """
        p = np.asarray(p, dtype=float)
        return sum(1 for j in range(self.k) if self.factor(p, j) == 0)

    def algebroid_frame(self, p) -> np.ndarray:
        """Generating frame of the elliptic tangent bundle at p, as rows.

        Coordinate fields on the real part; per complex factor
        z_j = (v1, v2) the radial field (v1, v2) and angular field
        (-v2, v1) on that factor's plane.  ``p`` is a point, giving (n, n)
        rows, or a block of N points as coordinate columns, giving
        (N, n, n); a point has the bits of its row of a block.
        """
        p, vectors = _frame_of(p, self.n)
        i = np.arange(self.real_dim)
        vectors[..., i, i] = 1.0
        for i in range(self.real_dim, self.n, 2):
            v1, v2 = p[i], p[i + 1]
            vectors[..., i, i] = v1
            vectors[..., i, i + 1] = v2
            vectors[..., i + 1, i] = -v2
            vectors[..., i + 1, i + 1] = v1
        return vectors


def _frame_of(p, n: int):
    """(p, zero frame): a point as a float array with an (n, n) frame, or a
    block of coordinate columns as it is with an (N, n, n) stack."""
    for x in p:
        if isinstance(x, np.ndarray) and x.ndim:
            return p, np.zeros(x.shape + (n, n))
    return np.asarray(p, dtype=float), np.zeros((n, n))


def residue_model_frame(variant: str):
    """Ground-truth cotangent-algebroid frames for the two residue models.

    ``nonzero``: {r^2 dx, r^2 dy} on the plane.  ``zero``: the
    realification of {u du, u dv} on C^2 (four real vectors), with u the
    divisor coordinate stored in the first real pair.  Each frame takes
    a point or a block, as ``DivisorLocalModel.algebroid_frame`` does.
    """
    if variant == "nonzero":
        def frame(p):
            p, rows = _frame_of(p, 2)
            r2 = p[0] * p[0] + p[1] * p[1]
            rows[..., 0, 0] = rows[..., 1, 1] = r2
            return rows
        return frame
    if variant == "zero":
        def frame(p):
            p, rows = _frame_of(p, 4)
            u1, u2 = p[0], p[1]
            for i in (0, 2):    # rows u d/du, iu d/du, then u d/dv, iu d/dv
                rows[..., i, i] = rows[..., i + 1, i + 1] = u1
                rows[..., i, i + 1] = u2
                rows[..., i + 1, i] = -u2
            return rows
        return frame
    raise ValueError(f"unknown residue variant {variant!r}")
