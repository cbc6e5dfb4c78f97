"""Model configurations and known defects, as plain data.

Kept free of egl imports so that the set-up probe can read which models
to build before it starts its clock.
"""

# The acceptance-gate configurations (name, dim, k), plus the two
# registered models the gate leaves out.
VERIFY_CONFIGS = (
    ("case1", 2, None), ("case1", 4, None), ("case1", 6, None),
    ("caseIV", 4, 2), ("caseIV", 6, 3), ("case2", None, None),
    ("sympl-nonzero", None, None), ("sympl-zero", None, None),
    ("ssc-surface", None, None), ("action-groupoid", None, None),
    ("fibre:case1,case1", None, None), ("fibre:case1,pair", None, None),
    ("pair", None, None),
)

# The checks each model accepts, as egl.registry.build_model(...).checks.
APPLICABLE = {
    "case1": {"axioms", "algebroid", "isotropy", "ideal", "morphism"},
    "caseIV": {"axioms", "algebroid", "isotropy", "ideal", "morphism"},
    "case2": {"axioms", "algebroid", "isotropy", "ideal"},
    "sympl-nonzero": {"axioms", "algebroid", "symplectic", "multiplicative",
                      "poisson", "morphism"},
    "sympl-zero": {"axioms", "algebroid", "symplectic", "multiplicative",
                   "poisson", "morphism", "variants", "isotropy"},
    "ssc-surface": {"axioms", "algebroid"},
    "action-groupoid": {"axioms", "algebroid", "isotropy"},
    "fibre:case1,case1": {"axioms", "algebroid", "isotropy", "ideal"},
    "fibre:case1,pair": {"axioms", "algebroid", "ideal"},
    "pair": {"axioms", "algebroid"},
}

REGISTERED = ("case1", "caseIV", "case2", "sympl-nonzero", "sympl-zero",
              "ssc-surface", "action-groupoid", "fibre:case1,case1",
              "fibre:case1,pair", "pair")

# Arrow dimension of each registered model at its default size, for the
# last-coordinate perturbation.
ARROW_DIM = {"case1": 8, "caseIV": 8, "case2": 9, "sympl-nonzero": 4,
             "sympl-zero": 8, "ssc-surface": 4, "action-groupoid": 8,
             "fibre:case1,case1": 16, "fibre:case1,pair": 16, "pair": 4}

# Crashes egl raises today on the failure path, by operation name.  The
# suite should report a witnessed "fail" instead (ROADMAP item 3).  They
# count as failed operations; any other failure makes a run incorrect.
KNOWN_CRASHES = {
    "perturbed:case2@8": "ChartInvalid",
    "perturbed:fibre:case1,case1@0": "ChartInvalid",
    "perturbed:fibre:case1,case1@15": "ChartInvalid",
    "perturbed:fibre:case1,pair@0": "ChartInvalid",
    "perturbed:fibre:case1,pair@15": "ChartInvalid",
}

# The models whose construction counts as set-up, per workload.
SETUP_MODELS = {
    "verify-maps": VERIFY_CONFIGS,
    "verify-calculus": VERIFY_CONFIGS,
    "decide-exact": (),
    "controls-fail": tuple((name, None, None) for name in REGISTERED),
}
