"""Named model constructors and the check dispatch table.

Model names, as exposed on the command line: ``case1``, ``caseIV:k``,
``case2``, ``sympl-nonzero``, ``sympl-zero``, ``ssc-surface``,
``action-groupoid``, ``fibre:A,B`` and ``pair``.  Dimensions come from
``--dim`` (and ``--k``), with sensible defaults per model.  Unknown
names and impossible dimensions are rejected before any computation.

Each model is one row of ``_MODELS`` and each check one row of
``_CHECKS``; the public names below are derived from the two tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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
           "run_check", "DEFAULT_SAMPLES", "SAMPLE_CAPS"]


@dataclass(frozen=True)
class ModelEntry:
    """A named model plus its applicable checks."""

    name: str
    chart: GroupoidChartModel
    symplectic: Optional[SymplecticModel]
    checks: tuple


@dataclass(frozen=True)
class _Model:
    """A registered model: its default ``--dim``, its least ``--dim``
    (None: a model of fixed dimension, which takes its default dim only),
    its constructor ``(dim, k) -> chart or SymplecticModel``, its checks,
    and the runner of its morphism check ``(entry, n, seed, prof)``."""

    dim: int
    least: Optional[int]
    build: Callable
    checks: tuple
    morphism: Optional[Callable] = None


@dataclass(frozen=True)
class _Check:
    """A registered check: its default sample count, the most samples it
    runs whatever count it is asked for (None: no cap), and its runner
    ``(entry, n, seed, prof) -> [CheckReport, ...]``."""

    samples: int
    cap: Optional[int]
    run: Callable


def _on(part: str, check: Callable) -> Callable:
    """The runner of a check of the entry's ``chart`` or ``symplectic`` model."""
    return lambda entry, n, seed, prof: [check(getattr(entry, part), n, seed, prof)]


# the morphism runners look morphism_phi_* up when they run, so a wrapper
# set on this module's names (a tracer's, say) takes effect
def _beta(entry, n, seed, prof):
    # a blow-down is compared at a tighter tolerance than a covering
    return [check_morphism(morphism_beta(entry.chart), n, seed, prof, tol=1e-9)]


def _phi_nonzero(entry, n, seed, prof):
    return [check_morphism(morphism_phi_nonzero(), n, seed, prof),
            check_psi_convention(max(100, n // 5), seed, prof)]


def _phi_zero(entry, n, seed, prof):
    return [check_morphism(morphism_phi_zero(), n, seed, prof)]


def _fibre_case1_case1(n: int, k: Optional[int]) -> GroupoidChartModel:
    m1 = smooth_factor_model(n, 2, 0)
    m2 = smooth_factor_model(n, 2, 1)
    # caseIV models the joint divisor: its base samplers and its frame
    return fibre_product(m1, m2, base_from=caseIV_model(n, 2))


_BLOWUP = ("axioms", "algebroid", "isotropy", "ideal", "morphism")
_SYMPLECTIC = ("axioms", "algebroid", "symplectic", "multiplicative", "poisson", "morphism")

_MODELS = {
    "case1": _Model(4, 2, lambda n, k: case1_model(n), _BLOWUP, _beta),
    "caseIV": _Model(4, 2, caseIV_model, _BLOWUP, _beta),
    "case2": _Model(4, 2, lambda n, k: case2_quotient_model(n),
                    ("axioms", "algebroid", "isotropy", "ideal")),
    "sympl-nonzero": _Model(2, None, lambda n, k: symplectic_nonzero_residue_model(),
                            _SYMPLECTIC, _phi_nonzero),
    "sympl-zero": _Model(4, None, lambda n, k: symplectic_zero_residue_model(),
                         _SYMPLECTIC + ("variants", "isotropy"), _phi_zero),
    "ssc-surface": _Model(2, None, lambda n, k: ssc_surface_model(), ("axioms", "algebroid")),
    "action-groupoid": _Model(4, None, lambda n, k: action_groupoid_model(),
                              ("axioms", "algebroid", "isotropy")),
    "fibre:case1,case1": _Model(4, 4, _fibre_case1_case1,
                                ("axioms", "algebroid", "isotropy", "ideal")),
    "fibre:case1,pair": _Model(4, 2, lambda n, k: fibre_product(case1_model(n), pair_groupoid(n)),
                               ("axioms", "algebroid", "ideal")),
    "pair": _Model(2, 1, lambda n, k: pair_groupoid(n), ("axioms", "algebroid")),
}

_CHECKS = {
    "axioms": _Check(10_000, None, _on("chart", check_groupoid_axioms)),
    "algebroid": _Check(100, 200, _on("chart", check_algebroid)),
    "symplectic": _Check(200, None, _on("symplectic", check_symplectic)),
    "multiplicative": _Check(150, None, _on("symplectic", check_multiplicative)),
    "poisson": _Check(40, 100, _on("symplectic", check_poisson)),
    "morphism": _Check(2_000, None, lambda entry, n, seed, prof:
                       _MODELS[entry.name].morphism(entry, n, seed, prof)),
    "variants": _Check(300, None, lambda entry, n, seed, prof:
                       [check_zero_residue_variant(entry.symplectic, n, seed)]),
    "isotropy": _Check(500, None, _on("chart", check_isotropy)),
    "ideal": _Check(1_000, None, _on("chart", check_ideal)),
}

MODEL_NAMES = tuple(_MODELS)
CHECK_NAMES = tuple(_CHECKS)
DEFAULT_SAMPLES = {name: row.samples for name, row in _CHECKS.items()}
# the most samples run_check runs, whatever count it is asked for
SAMPLE_CAPS = {name: row.cap for name, row in _CHECKS.items() if row.cap is not None}


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
    if name not in _MODELS:
        if name.startswith("fibre:"):
            raise ConfigError(f"unsupported fibre combination {name!r}")
        raise ConfigError(f"unknown model {name!r}")
    default, least = _MODELS[name].dim, _MODELS[name].least
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


def _build(name: str, n: int, k: Optional[int]) -> ModelEntry:
    row = _MODELS[name]
    built = row.build(n, k)
    sym = built if isinstance(built, SymplecticModel) else None
    return ModelEntry(name, sym.model if sym else built, sym, row.checks)


def run_check(entry: ModelEntry, check: str, seed: int = 7,
              samples: Optional[int] = None, prof=DEFAULT_PROFILE) -> list:
    """Run one named check on one model entry; returns CheckReports.  A
    check that is unknown, or that the entry does not list, raises
    ConfigError."""
    row = _CHECKS.get(check)
    if row is None:
        raise ConfigError(f"unknown check {check!r}")
    if check not in entry.checks:
        raise ConfigError(f"check {check} does not apply to {entry.name}")
    n = samples or row.samples
    return row.run(entry, min(n, row.cap or n), seed, prof)
