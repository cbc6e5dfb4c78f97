"""Named model constructors and the check dispatch table.

Model names, as exposed on the command line: ``case1``, ``caseIV:k``,
``case2``, ``sympl-nonzero``, ``sympl-zero``, ``ssc-surface``,
``action-groupoid``, ``fibre:A,B`` and ``pair``.  Dimensions come from
``--dim`` (and ``--k``), with sensible defaults per model.  Unknown
names and impossible dimensions are rejected before any computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .checks import (check_algebroid, check_zero_residue_variant,
                     check_groupoid_axioms, check_ideal, check_isotropy,
                     check_morphism, check_multiplicative, check_poisson,
                     check_psi_convention, check_symplectic, morphism_beta)
from .errors import ConfigError
from .groupoids import (GroupoidChartModel, action_groupoid_model, case1_model,
                        case2_quotient_model, caseIV_model, fibre_product,
                        pair_groupoid, smooth_factor_model, ssc_surface_model)
from .kernel import DEFAULT_PROFILE
from .symplectic import (SymplecticModel, morphism_phi_nonzero,
                         morphism_phi_zero, symplectic_nonzero_residue_model,
                         symplectic_zero_residue_model)

__all__ = ["ModelEntry", "MODEL_NAMES", "CHECK_NAMES", "build_model", "normalise",
           "checks_for", "run_check", "DEFAULT_SAMPLES", "SAMPLE_CAPS"]

# each model's CLI name, default --dim and least --dim (None: a model of
# fixed dimension, which takes its default dim only)
_DIMS = {"case1": (4, 2), "caseIV": (4, 2), "case2": (4, 2), "sympl-nonzero": (2, None),
         "sympl-zero": (4, None), "ssc-surface": (2, None), "action-groupoid": (4, None),
         "fibre:case1,case1": (4, 4), "fibre:case1,pair": (4, 2), "pair": (2, 1)}

MODEL_NAMES = tuple(_DIMS)

CHECK_NAMES = ("axioms", "algebroid", "symplectic", "multiplicative",
               "poisson", "morphism", "variants", "isotropy", "ideal")

DEFAULT_SAMPLES = {
    "axioms": 10_000,
    "algebroid": 100,
    "symplectic": 200,
    "multiplicative": 150,
    "poisson": 40,
    "morphism": 2_000,
    "variants": 300,
    "isotropy": 500,
    "ideal": 1_000,
}

# the most samples run_check runs, whatever count it is asked for
SAMPLE_CAPS = {"algebroid": 200, "poisson": 100}


@dataclass(frozen=True)
class ModelEntry:
    """A named model plus its applicable checks."""

    name: str
    chart: GroupoidChartModel
    symplectic: Optional[SymplecticModel]
    checks: tuple


def _fibre_case1_case1(n: int) -> GroupoidChartModel:
    m1 = smooth_factor_model(n, 2, 0)
    m2 = smooth_factor_model(n, 2, 1)
    # borrow the joint-stratum base samplers
    return fibre_product(m1, m2, base_from=caseIV_model(n, 2))


# one entry per normalised (name, dim, k), also filed under the arguments
# that named it: entries are immutable, so every caller in the process
# shares them (a traced or renamed copy is a replace)
_BUILT: dict = {}


def build_model(name: str, dim: Optional[int] = None, k: Optional[int] = None) -> ModelEntry:
    """The model a CLI name denotes; unknown names raise ConfigError.

    ``caseIV:k`` sets k.  The arguments are normalised first (the
    model's default dim where ``dim`` is None, the only dim of a model of
    fixed dimension, k = 2 for caseIV where ``k`` is None, and k None
    elsewhere; see ``normalise``) and checked: a dim below the
    model's least, a dim other than its own for a model of fixed
    dimension, or a caseIV k outside 1 <= k <= dim/2 raises ConfigError.
    Each normalised (name, dim, k) is built once per process: equal
    arguments return the same immutable ``ModelEntry``.  A fibre
    product's transversality gate thus runs once per process.
    """
    entry = _BUILT.get((name, dim, k))      # arguments seen before were checked then
    if entry is None:
        key = normalise(name, dim, k)
        entry = _BUILT.get(key) or _build(*key)
        _BUILT[key] = _BUILT[name, dim, k] = entry
    return entry


def normalise(name: str, dim: Optional[int], k: Optional[int]) -> tuple:
    """(name, dim, k) as ``build_model`` keys them, which a report's
    ``config`` echoes; impossible ones raise ConfigError."""
    name = name.strip()
    if name.startswith("caseIV:"):
        name, tail = "caseIV", name.split(":", 1)[1]
        try:
            k = int(tail)
        except ValueError:
            raise ConfigError(f"bad caseIV factor count {tail!r}") from None
    if name not in _DIMS:
        if name.startswith("fibre:"):
            raise ConfigError(f"unsupported fibre combination {name!r}")
        raise ConfigError(f"unknown model {name!r}")
    default, least = _DIMS[name]
    n = default if dim is None else dim
    if least is None and n != default:
        raise ConfigError(f"{name} has fixed dimension {default}, not {n}")
    if least is not None and n < least:
        raise ConfigError(f"{name} needs dim >= {least}, not {n}")
    if name == "caseIV":
        k = 2 if k is None else k
        if not 1 <= k <= n // 2:
            raise ConfigError(f"caseIV needs 1 <= k <= dim/2, not k = {k} at dim {n}")
    else:
        k = None
    return name, n, k


def _build(name: str, n: Optional[int], k: Optional[int]) -> ModelEntry:
    if name == "case1":
        return ModelEntry(name, case1_model(n), None,
                          ("axioms", "algebroid", "isotropy", "ideal", "morphism"))
    if name == "caseIV":
        return ModelEntry(name, caseIV_model(n, k), None,
                          ("axioms", "algebroid", "isotropy", "ideal", "morphism"))
    if name == "case2":
        return ModelEntry(name, case2_quotient_model(n), None,
                          ("axioms", "algebroid", "isotropy", "ideal"))
    if name == "sympl-nonzero":
        sym = symplectic_nonzero_residue_model()
        return ModelEntry(name, sym.model, sym,
                          ("axioms", "algebroid", "symplectic", "multiplicative",
                           "poisson", "morphism"))
    if name == "sympl-zero":
        sym = symplectic_zero_residue_model()
        return ModelEntry(name, sym.model, sym,
                          ("axioms", "algebroid", "symplectic", "multiplicative",
                           "poisson", "morphism", "variants", "isotropy"))
    if name == "ssc-surface":
        return ModelEntry(name, ssc_surface_model(), None, ("axioms", "algebroid"))
    if name == "action-groupoid":
        return ModelEntry(name, action_groupoid_model(), None,
                          ("axioms", "algebroid", "isotropy"))
    if name == "pair":
        return ModelEntry(name, pair_groupoid(n), None, ("axioms", "algebroid"))
    if name == "fibre:case1,case1":
        return ModelEntry(name, _fibre_case1_case1(n), None,
                          ("axioms", "algebroid", "isotropy", "ideal"))
    model = fibre_product(case1_model(n), pair_groupoid(n))     # fibre:case1,pair
    return ModelEntry(name, model, None, ("axioms", "algebroid", "ideal"))


def checks_for(entry: ModelEntry, requested) -> tuple:
    return tuple(c for c in requested if c in entry.checks)


def run_check(entry: ModelEntry, check: str, seed: int = 7,
              samples: Optional[int] = None, prof=DEFAULT_PROFILE) -> list:
    """Run one named check on one model entry; returns CheckReports."""
    n = samples or DEFAULT_SAMPLES[check]
    if check == "axioms":
        return [check_groupoid_axioms(entry.chart, n, seed, prof)]
    if check == "algebroid":
        return [check_algebroid(entry.chart, min(n, SAMPLE_CAPS[check]), seed, prof)]
    if check == "symplectic":
        return [check_symplectic(entry.symplectic, n, seed, prof)]
    if check == "multiplicative":
        return [check_multiplicative(entry.symplectic, n, seed, prof)]
    if check == "poisson":
        return [check_poisson(entry.symplectic, min(n, SAMPLE_CAPS[check]), seed, prof)]
    if check == "variants":
        return [check_zero_residue_variant(entry.symplectic, n, seed)]
    if check == "isotropy":
        return [check_isotropy(entry.chart, n, seed, prof)]
    if check == "ideal":
        return [check_ideal(entry.chart, n, seed, prof)]
    if check == "morphism":
        out = []
        if entry.name == "sympl-nonzero":
            out.append(check_morphism(morphism_phi_nonzero(), n, seed, prof))
            out.append(check_psi_convention(max(100, n // 5), seed, prof))
        elif entry.name == "sympl-zero":
            out.append(check_morphism(morphism_phi_zero(), n, seed, prof))
        else:
            out.append(check_morphism(morphism_beta(entry.chart), n, seed, prof,
                                      tol=1e-9))
        return out
    raise ConfigError(f"unknown check {check!r}")
