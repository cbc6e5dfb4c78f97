"""Tour of the chart-level groupoid local models.

Builds each named model, walks one concrete arrow through its structure
maps, and runs a short sampled axiom suite.  Every model is a single
coordinate chart: flat tuples of reals, complex coordinates stored as
(real, imaginary) pairs.
"""

import numpy as np

from egl.checks import check_groupoid_axioms
from egl.registry import MODEL_NAMES, build_model


demo_arrows = {
    # (x, y, a, b): blow-up chart over R^2 x C, divisor {v = 0}
    "case1": (0.2, -0.5, 0.7, 0.1, 0.0, 0.0, 0.8, 0.6),
    # delta = 1: a sheet-crossing arrow of the double-cover quotient
    "case2": (0.2, -0.5, 0.7, 0.1, 0.3, 0.4, 0.8, 0.6, 1.0),
}


def show(name, dim=None, k=None):
    entry = build_model(name, dim=dim, k=k)
    model = entry.chart
    print(f"\n== {model.name}  (arrows R^{model.arrow_dim} over R^{model.base_dim})")
    g = demo_arrows.get(name)
    if g is None:
        rng = np.random.Generator(np.random.Philox(key=1))
        g = model.random_arrow(rng)
    print(f"   arrow   g = {tuple(round(x, 3) for x in g)}")
    print(f"   target  t(g) = {tuple(round(x, 3) for x in model.target_of(g))}")
    print(f"   source  s(g) = {tuple(round(x, 3) for x in model.source_of(g))}")
    inv = model.invert(g)
    print(f"   inverse i(g) = {tuple(round(x, 3) for x in inv)}")
    unit = model.unit_at(model.target_of(g))
    back = model.compose(g, inv)
    print(f"   g . i(g) - u(t(g)) = "
          f"{max(abs(a - b) for a, b in zip(back, unit)):.2e}")
    report = check_groupoid_axioms(model, n_samples=2000, seed=1)
    print(f"   axiom suite (7 identities x 2000 samples): {report.verdict}, "
          f"max residual {report.max_residual:.2e}")


if __name__ == "__main__":
    print("Groupoid local models and their structure maps")
    for name in MODEL_NAMES:        # each at its default dimension
        show(name)
    print("\nOver the divisor, composition multiplies the invertible")
    print("blow-up coordinates: (x,y,0,b).(y,z,0,b') = (x,z,0,bb').")
    m = build_model("case1", dim=4).chart
    g = (0.1, 0.2, 0.3, 0.4, 0.0, 0.0, 1.0, 1.0)
    h = (0.3, 0.4, 0.5, 0.6, 0.0, 0.0, 0.0, 2.0)
    print(f"example: {m.compose(g, h)}")
