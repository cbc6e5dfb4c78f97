"""The four workloads as fixed, seeded lists of operations.

An operation calls one public egl entry point, renders the canonical
report with ``RunReport.to_json`` inside the timed region (the CLI does
the same), and is then judged outside the timed region against an
answer the benchmark knows without asking egl.  Entry points are looked
up as module attributes at call time, so the traced run sees the timed
wrappers that ``tracing`` installs.

Sizes are fixed per workload and only the contents depend on the seed,
so the amount of work per cycle is the same for every seed.

Why each workload exists:

* ``verify-maps``: nearly all of its time is sampling, structure maps
  and check-loop overhead, with few finite differences and no exact
  work; a batched evaluator shows here.
* ``verify-calculus``: Jacobians and SVDs dominate and structure maps
  are reached only through stencils; the finite-difference kernel
  shows here.
* ``decide-exact``: only exact work in ``homology`` and ``signedperm``,
  no floating point; bounds on Smith normal form growth and on group
  closure show here.  Closures stop at k = 6 (order 46,080): k = 7
  would take tens of seconds and hundreds of MB.
* ``controls-fail``: the failure path.  A change that speeds the pass
  path but slows witness collection or the ``NotComposable`` gap path,
  or turns a ``fail`` into a crash or a pass, shows here and nowhere
  else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

import egl.checks as checks
import egl.decisions_io as decisions_io
import egl.homology as homology
import egl.report as report
import egl.signedperm as signedperm

import oracles
from configs import APPLICABLE, ARROW_DIM, REGISTERED, VERIFY_CONFIGS

MAPS_CHECKS = ("axioms", "morphism", "ideal", "isotropy")
CALCULUS_CHECKS = ("algebroid", "symplectic", "multiplicative", "poisson")
MAPS_SAMPLES = 500
CALCULUS_SAMPLES = 150     # run_check caps poisson at 100 (and algebroid at 200)
CONTROL_SAMPLES = 300


@dataclass(frozen=True)
class Outcome:
    """What an operation returned.

    ``text`` is the canonical report (hashed for determinism), ``items``
    the work it covered, and ``verdict`` the commit-independent answer:
    verdicts and decisions, never bytes that a documented change to the
    random stream may alter.  ``detail`` keeps whatever the judge needs.
    """

    text: str
    items: int
    verdict: object
    detail: object = None


@dataclass(frozen=True)
class Op:
    """One timed call into egl and the test its outcome must pass."""

    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], bool]


def answer_is(expected) -> Callable[[Outcome], bool]:
    return lambda out: out.verdict == expected


def _items(rep) -> int:
    return sum(int(r["samples"]) for r in rep.results)


def _run_report(config: dict, records: list, overall: str) -> str:
    return report.RunReport(config=config, results=records, overall=overall).to_json()


# ---------------------------------------------------------------------------
# verify workloads: every configuration must pass
# ---------------------------------------------------------------------------

def _verify_op(name, dim, k, check, seed, samples) -> Op:
    def run():
        cfg = report.RunConfig(models=[name], checks=[check], seed=seed,
                               samples=samples, dim=dim, k=k)
        rep = report.run_verify(cfg)
        text = rep.to_json()
        verdict = [rep.overall] + [(r["check"], r["verdict"]) for r in rep.results]
        return Outcome(text, _items(rep), verdict, rep.results)

    def check_out(out: Outcome) -> bool:
        if out.verdict[0] != "pass" or any(v != "pass" for _, v in out.verdict[1:]):
            return False
        psi = [r for r in out.detail if r["check"] == "morphism:psi"]
        return all(r["details"]["winner"] == oracles.PSI_WINNER for r in psi)

    return Op(f"verify:{check}:{name}:{dim}:{k}", run, check_out)


def verify_ops(seed: int, checks_wanted, samples: int) -> list:
    return [_verify_op(name, dim, k, check, seed, samples)
            for name, dim, k in VERIFY_CONFIGS
            for check in checks_wanted if check in APPLICABLE[name]]


# ---------------------------------------------------------------------------
# controls: every wrong formula must be reported as "fail"
# ---------------------------------------------------------------------------

def _control_op(name: str, make_report, expected: str = "fail") -> Op:
    def run():
        rep = make_report()
        text = _run_report({"control": name}, [rep.to_dict()], rep.verdict)
        return Outcome(text, int(rep.samples), rep.verdict)
    return Op(name, run, answer_is(expected))


def _entry(name):
    return report.build_model(name, None, None)


def _symplectic(name):
    return _entry(name).symplectic


def control_ops(seed: int) -> list:
    n = CONTROL_SAMPLES
    ops = []
    for name in REGISTERED:
        for comp in (0, ARROW_DIM[name] - 1):
            def perturbed(name=name, comp=comp):
                bad = checks.perturbed_model(_entry(name).chart, component=comp)
                return checks.check_groupoid_axioms(bad, n, seed)
            ops.append(_control_op(f"perturbed:{name}@{comp}", perturbed))

    for name in ("sympl-nonzero", "sympl-zero"):
        def symplectic(name=name):
            s = _symplectic(name)
            return checks.check_symplectic(replace(s, Omega=s.Omega_variant), n // 3, seed)

        def multiplicative(name=name):
            s = _symplectic(name)
            return checks.check_multiplicative(replace(s, Omega=s.Omega_variant), n // 3, seed)
        ops.append(_control_op(f"Omega_variant:symplectic:{name}", symplectic))
        ops.append(_control_op(f"Omega_variant:multiplicative:{name}", multiplicative))

    def invert_variant():
        s = _symplectic("sympl-nonzero")
        return checks.check_groupoid_axioms(replace(s.model, invert=s.invert_variant), n, seed)

    def compose_variant():
        s = _symplectic("sympl-zero")
        return checks.check_groupoid_axioms(replace(s.model, compose_raw=s.compose_variant),
                                            n, seed)

    def non_jacobi():
        s = replace(_symplectic("sympl-zero"), pi_bivector=checks.non_jacobi_bivector())
        return checks.check_poisson(s, n // 3, seed)

    ops.append(_control_op("invert_variant:axioms:sympl-nonzero", invert_variant))
    ops.append(_control_op("compose_variant:axioms:sympl-zero", compose_variant))
    # the variants check passes by asserting that the near miss is not associative
    ops.append(_control_op("compose_variant:variants:sympl-zero", lambda: (
        checks.check_zero_residue_variant(_symplectic("sympl-zero"), n, seed)), "pass"))
    ops.append(_control_op("non_jacobi_bivector:poisson:sympl-zero", non_jacobi))

    def psi():
        winners, table = checks.resolve_psi_convention(n // 2, seed)
        text = _run_report({"control": "resolve_psi_convention"},
                           [{"winners": winners, "residuals": table}], "pass")
        return Outcome(text, (n // 2) * len(table), winners)
    ops.append(Op("resolve_psi_convention", psi, answer_is([oracles.PSI_WINNER])))
    return ops


# ---------------------------------------------------------------------------
# decide-exact
# ---------------------------------------------------------------------------

def _decide_op(doc: dict, kind: str, check) -> Op:
    """Validate as ``egl decide`` does, decide, render the report."""
    def run():
        decisions_io.validate_document(doc)
        rep = report.run_decide(doc, kind, source_name=doc["name"])
        text = rep.to_json()
        rec = rep.results[0]
        return Outcome(text, 1, (rec["decision"], rec["witness"]))
    return Op(f"decide:{kind}:{doc['name']}", run, check)


def _smooth_check(doc: dict, want: bool):
    """A "no" witness is one of many kernel vectors: judge it, don't match it."""
    def check(out: Outcome) -> bool:
        decision, witness = out.verdict
        if decision is not want:
            return False
        return witness is None if want else oracles.smooth_witness_ok(doc, witness)
    return check


def _snf_op(M: list, n: int) -> Op:
    abs_det = abs(oracles.bareiss_determinant(M))

    def run():
        U, S, V = homology.smith_normal_form(M)
        # S is unique; U and V are not, so only S enters the verdict
        return Outcome(_digest_ints(U, S, V), 1, [S[i][i] for i in range(n)], (U, S, V))

    def check(out: Outcome) -> bool:
        return oracles.snf_ok(M, *out.detail, abs_det)
    return Op(f"snf:{n}", run, check)


def _digest_ints(*mats) -> str:
    h = hashlib.sha256()
    for M in mats:
        for row in M:
            for x in row:
                h.update(x.to_bytes(x.bit_length() // 8 + 1, "little", signed=True))
            h.update(b";")
        h.update(b"|")
    return h.hexdigest()


def _closure_op(rng, k: int, family: str) -> Op:
    gens, order = oracles.twist_generators(rng, k, family)
    images = [oracles.slots_to_egl(g) for g in gens]
    fiber = rng.randint(0, 2)

    def run():
        rep = signedperm.MonodromyRep(images={f"g{i}": signedperm.SignedPermutation(*pf)
                                              for i, pf in enumerate(images)})
        desc = signedperm.covering_isotropy(rep, fiber)
        verdict = (desc.cstar_rank, desc.discrete.order)
        return Outcome(f"{verdict}:{desc.name}", 1, verdict)
    return Op(f"twist:{family}:{k}", run, answer_is((fiber, order)))


def decide_ops(seed: int) -> list:
    ops = []
    for n in (8, 16, 24, 32):
        for want in (True, False):
            doc = oracles.smooth_document(oracles.rng_for(seed, f"smooth:{n}:{want}"),
                                          n, want, f"smooth-{n}-{int(want)}")
            ops.append(_decide_op(doc, "smooth", _smooth_check(doc, want)))
    for size in (16, 32, 48, 64):
        for want in (True, False):
            doc = oracles.cover_document(oracles.rng_for(seed, f"cover:{size}:{want}"),
                                         size, want, f"cover-{size}-{int(want)}")
            witness = None if want else {"eta_class": doc["double_cover"]["eta_class"]}
            ops.append(_decide_op(doc, "double-cover", answer_is((want, witness))))
    for k in (3, 4, 5, 6):
        for want in (True, False):
            doc, witness = oracles.nc_document(oracles.rng_for(seed, f"nc:{k}:{want}"),
                                               k, want, f"nc-{k}-{int(want)}")
            ops.append(_decide_op(doc, "normal-crossing", answer_is((want, witness))))
    for n in (16, 24, 32, 40):
        ops.append(_snf_op(oracles.snf_matrix(oracles.rng_for(seed, f"snf:{n}"), n), n))
    for k in (3, 4, 5, 6):
        for family in ("full", "sym", "flips"):
            ops.append(_closure_op(oracles.rng_for(seed, f"twist:{k}:{family}"), k, family))
    return ops


WORKLOADS = {
    "verify-maps": lambda seed: verify_ops(seed, MAPS_CHECKS, MAPS_SAMPLES),
    "verify-calculus": lambda seed: verify_ops(seed, CALCULUS_CHECKS, CALCULUS_SAMPLES),
    "decide-exact": decide_ops,
    "controls-fail": control_ops,
}
