"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and
asserts the criterion exactly as stated; nothing is deferred to later
calibration.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from egl.apaths import PolarCurve, apath_rescale
from egl.checks import (check_zero_residue_variant, check_groupoid_axioms,
                        check_algebroid, check_morphism, check_multiplicative,
                        check_symplectic, resolve_psi_convention, rng_for)
from egl.cli import main as cli_main
from egl.homology import (hausdorff_smooth_decision, integer_determinant,
                          smith_normal_form)
from egl.kernel import DEFAULT_PROFILE
from egl.registry import build_model
from egl.signedperm import (MonodromyRep, SignedPermutation,
                            full_hyperoctahedral, hausdorff_nc_decision,
                            twist_group)
from egl.symplectic import (morphism_phi_nonzero, morphism_phi_zero,
                            symplectic_nonzero_residue_model,
                            symplectic_zero_residue_model)
from oracle_utils import brute_force_factorization, scrambled_smooth_fixture

PROF = DEFAULT_PROFILE
SEED = 7


def _line(num, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {verdict}  {detail}", flush=True)
    assert ok, detail


AXIOM_MODELS = [("case1", 2, None), ("case1", 4, None), ("case1", 6, None),
                ("caseIV", 4, 2), ("caseIV", 6, 3), ("case2", 4, None),
                ("sympl-nonzero", None, None), ("sympl-zero", None, None),
                ("ssc-surface", None, None), ("action-groupoid", None, None),
                ("fibre:case1,case1", 4, None)]


def test_criterion_1_axiom_suites():
    """7 identities x 10^4 seeded samples, residual < 1e-8, < 2 min total."""
    start = time.perf_counter()
    worst = {}
    for name, dim, k in AXIOM_MODELS:
        entry = build_model(name, dim=dim, k=k)
        rep = check_groupoid_axioms(entry.chart, n_samples=10_000, seed=SEED,
                                    prof=PROF)
        worst[f"{name}({dim},{k})"] = rep.max_residual
        assert rep.samples == 10_000
        assert rep.max_residual < 1e-8, (name, rep.witnesses[:1])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"axiom suites took {elapsed:.1f}s"
    _line(1, True, f"max residual {max(worst.values()):.2e} over "
          f"{len(worst)} models in {elapsed:.1f}s")


ALGEBROID_MODELS = [("case1", 2, None), ("case1", 4, None), ("case1", 6, None),
                    ("caseIV", 4, 2), ("caseIV", 6, 3), ("case2", 4, None),
                    ("sympl-nonzero", None, None), ("sympl-zero", None, None),
                    ("ssc-surface", None, None), ("action-groupoid", None, None),
                    ("fibre:case1,case1", 4, None)]


def test_criterion_2_algebroid_recovery():
    """dt(ker ds) at 100 sampled points, principal angle < 1e-5 per model."""
    worst = 0.0
    for name, dim, k in ALGEBROID_MODELS:
        entry = build_model(name, dim=dim, k=k)
        rep = check_algebroid(entry.chart, n_points=100, seed=SEED, prof=PROF)
        assert rep.samples == 100
        assert rep.max_residual < 1e-5, (name, rep.witnesses[:1])
        worst = max(worst, rep.max_residual)
    _line(2, True, f"largest principal angle {worst:.2e}")


def test_criterion_3_symplectic_structures():
    """Omega = t*w - s*w (<1e-7), d Omega = 0 (<1e-6), |det| > 1e-6,
    multiplicativity (<1e-6), for both local models."""
    details = []
    for sym in (symplectic_nonzero_residue_model(), symplectic_zero_residue_model()):
        rep = check_symplectic(sym, n_samples=250, seed=SEED, prof=PROF)
        assert rep.tolerance == 1e-7
        assert rep.ok and rep.max_residual < 1e-7, (sym.name, rep.witnesses[:1])
        assert rep.details["d_omega_max"] < 1e-6
        assert rep.details["nondeg_min_abs_det"] > 1e-6
        mrep = check_multiplicative(sym, n_samples=200, seed=SEED, prof=PROF)
        assert mrep.ok and mrep.max_residual < 1e-6, (sym.name, mrep.witnesses[:1])
        details.append(f"{sym.name}: pullback {rep.max_residual:.1e}, "
                       f"dW {rep.details['d_omega_max']:.1e}, "
                       f"mult {mrep.max_residual:.1e}")
    _line(3, True, "; ".join(details))


def test_criterion_4_morphism_identities():
    """phi identities and form pullbacks < 1e-7 on 10^4 samples; exactly
    one covering-map convention passes and the report names it."""
    for bundle in (morphism_phi_nonzero(), morphism_phi_zero()):
        rep = check_morphism(bundle, n_samples=10_000, seed=SEED, prof=PROF,
                             tol=1e-7, form_samples=10_000)
        assert rep.ok and rep.max_residual < 1e-7, (bundle.name, rep.witnesses[:1])
    winners, table = resolve_psi_convention(n_samples=400, seed=SEED, prof=PROF)
    assert len(winners) == 1, table
    assert table[winners[0]] < 1e-7
    _line(4, True, f"covering-map convention: {winners[0]} "
          f"(residual {table[winners[0]]:.1e})")


def test_criterion_5_variant_regression():
    """Derived multiplication associative; transposed variant fails > 1e-2."""
    sym = symplectic_zero_residue_model()
    rep = check_zero_residue_variant(sym, n_samples=500, seed=SEED)
    assert rep.ok
    assert rep.max_residual < 1e-9
    assert rep.details["variant_max_residual"] > 1e-2
    _line(5, True, f"derived {rep.max_residual:.1e}, transposed variant "
          f"{rep.details['variant_max_residual']:.1e}")


def _nc_fixture(images, words, k):
    rep = MonodromyRep(images=images, kernel_words=tuple(tuple(w) for w in words))
    return [rep]


def test_criterion_6_decision_procedures():
    """Klein fixture; 20 random smooth fixtures vs brute force; 10
    hand-computed normal-crossing fixtures."""
    from egl.cli import resolve_fixture
    from egl.decisions_io import (decide_double_cover, decide_smooth,
                                  load_document)

    doc = load_document(resolve_fixture("klein_t4.json"))
    hausdorff, _ = decide_smooth(doc)
    cover, _ = decide_double_cover(doc)
    assert hausdorff is True and cover is False

    rng = rng_for(SEED, "acceptance-smooth-fixtures")
    for _ in range(20):
        hom, eta, truth, kernel_gens = scrambled_smooth_fixture(rng)
        assert hausdorff_smooth_decision(hom, eta) == truth
        assert brute_force_factorization(hom, eta, kernel_gens) == truth

    e1 = SignedPermutation.identity(1)
    f1 = SignedPermutation((0,), (1,))
    swap = SignedPermutation((1, 0), (0, 0))
    flip2 = SignedPermutation((0, 1), (1, 0))
    cyc3 = SignedPermutation((1, 2, 0), (0, 0, 0))
    id3 = SignedPermutation.identity(3)
    # hand-computed answers per fixture
    nc_fixtures = [
        (_nc_fixture({"g": e1}, [("g",)], 1), True),            # trivial rep
        (_nc_fixture({"g": f1}, [("g",)], 1), False),           # flip survives
        (_nc_fixture({"g": f1}, [("g", "g")], 1), True),        # flip^2 = id
        (_nc_fixture({"g": swap}, [("g",)], 2), False),         # swap survives
        (_nc_fixture({"g": swap}, [("g", "g")], 2), True),      # swap^2 = id
        (_nc_fixture({"g": f1}, [("g", "~g")], 1), True),       # g g^-1 = id
        (_nc_fixture({"g": flip2, "h": swap}, [("g", "g"), ("h", "h")], 2), True),
        (_nc_fixture({"g": flip2, "h": swap}, [("g", "h")], 2), False),
        (_nc_fixture({"g": cyc3}, [("g", "g", "g")], 3), True), # 3-cycle cubed
        (_nc_fixture({"g": cyc3, "h": id3}, [("g", "h")], 3), False),
    ]
    for strata, expected in nc_fixtures:
        assert hausdorff_nc_decision(strata) == expected
    # two strata checked jointly: any failing stratum fails the divisor
    joint = nc_fixtures[0][0] + nc_fixtures[1][0]
    assert hausdorff_nc_decision(joint) is False
    _line(6, True, "klein (true, false); 20 random smooth + 10 hand-computed nc")


def test_criterion_7_exact_algebra():
    """SNF self-checks on 10^3 random matrices; exhaustive semidirect
    axioms and twist closure vs enumeration for k <= 3."""
    rng = rng_for(SEED, "acceptance-snf")
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        M = rng.integers(-9, 10, size=(m, n)).tolist()
        U, S, V = smith_normal_form(M)
        Uo = np.array(U, dtype=object)
        Vo = np.array(V, dtype=object)
        assert (Uo @ np.array(M, dtype=object) @ Vo == np.array(S, dtype=object)).all()
        assert integer_determinant(U) in (1, -1)
        assert integer_determinant(V) in (1, -1)
        diag = [S[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a >= 0 and b % a == 0 if a else True)

    for k in (1, 2, 3):
        G = full_hyperoctahedral(k)
        elements = G.elements
        for a, b, c in itertools.product(elements, repeat=3):
            assert (a * b) * c == a * (b * c)
        for a in elements:
            assert (a * a.inverse()).is_identity()
        gens = [elements[3 % len(elements)], elements[-1]]
        closure = twist_group(gens, k=k)
        # independent enumeration: filter the full group by reachability
        reach = {SignedPermutation.identity(k)}
        grew = True
        while grew:
            grew = False
            for x in list(reach):
                for g in gens:
                    for y in (x * g, g * x, x * g.inverse()):
                        if y not in reach:
                            reach.add(y)
                            grew = True
        assert set(closure.elements) == reach
    _line(7, True, "SNF x1000, semidirect axioms and closures k <= 3")


def test_criterion_8_apath_rescaling():
    """Coefficients t-independent to 1e-12 across t in {1..1e-6}; the
    base path converges to the stratum."""
    curve = PolarCurve(x=lambda tau: (math.sin(tau), math.cos(2 * tau)),
                       r=lambda tau: math.exp(0.5 * tau) * (1 + 0.2 * tau),
                       theta=lambda tau: 3.0 * tau)
    taus = np.linspace(0.1, 0.9, 17)
    reference = [apath_rescale(curve, 1.0).coeffs(tau) for tau in taus]
    scales = [1.0, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    drift = 0.0
    for t in scales:
        path = apath_rescale(curve, t)
        for ref, tau in zip(reference, taus):
            drift = max(drift, float(np.max(np.abs(path.coeffs(tau) - ref))))
        radius = max(np.hypot(path.base(tau)[-2], path.base(tau)[-1])
                     for tau in taus)
        assert radius <= t * 2.5
    assert drift < 1e-12
    _line(8, True, f"coefficient drift {drift:.1e} across 7 scales")


def test_criterion_9_report_determinism(tmp_path, capsys):
    """Identical (config, seed) runs produce byte-identical JSON."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--model", "sympl-zero", "--checks", "axioms,variants",
            "--seed", "41", "--samples", "800"]
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["overall"] == "pass"
    _line(9, True, f"{len(a.read_bytes())} byte report, identical across runs")
