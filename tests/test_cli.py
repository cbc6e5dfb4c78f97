"""Command line: subcommands, exit codes, determinism, fixtures."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from egl.cli import main, resolve_fixture
from egl.decisions_io import load_document, validate_document
from egl.errors import ConfigError


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_models_and_checks(capsys):
    code, out, _ = run_cli(["list-models"], capsys)
    assert code == 0
    assert "case1" in out and "sympl-zero" in out and "fibre:case1,case1" in out
    code, out, _ = run_cli(["list-checks"], capsys)
    assert code == 0
    assert "axioms" in out and "algebroid" in out


def test_verify_pass_run(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["verify", "--model", "case1", "--dim", "4",
                          "--checks", "axioms,algebroid", "--seed", "7",
                          "--samples", "400", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["overall"] == "pass"
    assert doc["artifact"]["rng"] == "philox4x64-v3"
    assert {r["check"] for r in doc["results"]} == {"axioms", "algebroid"}
    # every record embeds the tolerance actually used
    assert all("tolerance" in r for r in doc["results"])


def test_verify_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--model", "ssc-surface", "--checks", "axioms",
            "--seed", "123", "--samples", "300"]
    assert run_cli(argv + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(argv + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_changes_report(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["verify", "--model", "case1", "--checks", "axioms",
             "--samples", "200", "--seed", "1", "--out", str(a)], capsys)
    run_cli(["verify", "--model", "case1", "--checks", "axioms",
             "--samples", "200", "--seed", "2", "--out", str(b)], capsys)
    assert a.read_bytes() != b.read_bytes()


def test_unknown_model_is_exit_2_with_no_partial_report(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, out, err = run_cli(["verify", "--model", "nonsense",
                              "--out", str(out_path)], capsys)
    assert code == 2
    assert "unknown model" in err
    assert not out_path.exists()


def test_unknown_check_is_exit_2(capsys):
    code, _, err = run_cli(["verify", "--model", "case1",
                            "--checks", "axioms,frobnicate"], capsys)
    assert code == 2
    assert "frobnicate" in err


def test_inapplicable_check_is_exit_2(capsys):
    code, _, err = run_cli(["verify", "--model", "case1",
                            "--checks", "variants"], capsys)
    assert code == 2
    assert "apply to none" in err


def test_default_checks_are_the_applicable_ones(capsys, tmp_path):
    # without --checks, verify runs every check that applies to a model
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(["verify", "--model", "pair", "--seed", "1",
                          "--samples", "100", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"]["checks"] == ["axioms", "algebroid"]
    assert [r["check"] for r in doc["results"]] == ["axioms", "algebroid"]


def test_failing_check_is_exit_1(capsys, monkeypatch):
    import egl.registry as registry
    from egl.checks import check_groupoid_axioms, perturbed_model

    real = registry.run_check

    def sabotage(entry, check, seed=7, samples=None, prof=None):
        if check == "axioms":
            bad = perturbed_model(entry.chart)
            return [check_groupoid_axioms(bad, samples or 100, seed)]
        return real(entry, check, seed=seed, samples=samples, prof=prof)

    import egl.report as report
    monkeypatch.setattr(report, "run_check", sabotage)
    code, out, _ = run_cli(["verify", "--model", "case1", "--checks", "axioms",
                            "--samples", "100", "--format", "text"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_tolerance_override_round_trips(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(["verify", "--model", "case1", "--checks", "axioms",
                          "--samples", "100", "--tol", "abs_tol=1e-7",
                          "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"]["profile"]["abs_tol"] == 1e-7
    assert doc["results"][0]["tolerance"] == 1e-7
    assert sorted(doc["config"]["profile"]) == ["abs_tol", "curvature_budget", "fd_step",
                                                "subspace_tol"]


def test_rel_tol_is_an_unknown_tolerance_field(capsys):
    # no computation read rel_tol, so the profile has no such field
    code, out, err = run_cli(["verify", "--model", "case1", "--checks", "axioms",
                              "--samples", "10", "--tol", "rel_tol=1e-8"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: unknown tolerance field 'rel_tol'\n"


def test_decide_klein_fixture(capsys):
    code, out, _ = run_cli(["decide", "--kind", "smooth",
                            "fixtures/klein_t4.json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["decision"] is True

    code, out, _ = run_cli(["decide", "--kind", "double-cover",
                            "klein_t4.json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["decision"] is False
    assert doc["results"][0]["witness"] is not None


def test_model_name_with_factor_count(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(["verify", "--model", "caseIV:3", "--dim", "6",
                          "--checks", "axioms", "--samples", "200",
                          "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["results"][0]["model"] == "caseIV(6,3)"
    # the canonical JSON round-trips losslessly
    from egl.report import RunConfig, run_verify
    report = run_verify(RunConfig(models=["caseIV:3"], checks=["axioms"],
                                  seed=7, samples=200, dim=6))
    assert json.loads(report.to_json()) == report.canonical()


@pytest.mark.parametrize("argv, message", [
    (["--model", "case1", "--dim", "-3"], "case1 needs dim >= 2, not -3"),
    (["--model", "caseIV:9"], "caseIV needs 1 <= k <= dim/2, not k = 9 at dim 4"),
    (["--model", "caseIV", "--dim", "5", "--k", "3"],
     "caseIV needs 1 <= k <= dim/2, not k = 3 at dim 5"),
    (["--model", "caseIV", "--k", "0"], "caseIV needs 1 <= k <= dim/2, not k = 0 at dim 4"),
    (["--model", "case1", "--dim", "0"], "case1 needs dim >= 2, not 0"),
    (["--model", "ssc-surface", "--dim", "6"], "ssc-surface has fixed dimension 2, not 6"),
], ids=["negative-dim", "k-above-dim", "k-above-half-dim", "zero-k", "zero-dim",
        "fixed-dim-model"])
@pytest.mark.parametrize("checks", [[], ["--checks", "axioms"]], ids=["all-checks", "axioms"])
def test_impossible_dimensions_are_configuration_errors(capsys, argv, message, checks):
    code, out, err = run_cli(["verify", *argv, *checks, "--samples", "10"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def _echoed_models(capsys, argv):
    code, out, _ = run_cli(["verify", *argv, "--checks", "axioms", "--samples", "10"], capsys)
    config = json.loads(out)["config"]
    assert code == 0 and "dim" not in config and "k" not in config
    return config["models"]


def test_a_fixed_dimension_model_accepts_its_own_dim(capsys):
    # echoed with its dimension whether or not --dim names it
    want = [{"name": "ssc-surface", "dim": 2, "k": None}]
    assert _echoed_models(capsys, ["--model", "ssc-surface", "--dim", "2"]) == want
    assert _echoed_models(capsys, ["--model", "ssc-surface"]) == want


def test_the_config_echoes_the_models_that_ran(capsys):
    # each model's normalised (name, dim, k), not the raw --dim and --k
    assert _echoed_models(capsys, ["--model", "case1", "--k", "3"]) == [
        {"name": "case1", "dim": 4, "k": None}]
    assert _echoed_models(capsys, ["--model", "caseIV:3", "--dim", "6"]) == [
        {"name": "caseIV", "dim": 6, "k": 3}]
    assert _echoed_models(capsys, ["--model", "caseIV", "--model", "sympl-zero",
                                   "--model", "case2", "--dim", "4"]) == [
        {"name": "caseIV", "dim": 4, "k": 2}, {"name": "sympl-zero", "dim": 4, "k": None},
        {"name": "case2", "dim": 4, "k": None}]


def test_text_shows_each_check_time_once():
    # morphism on sympl-nonzero returns two records (phi-nonzero and psi)
    # from one timed call: its time is shown once, on the first of them
    from egl.report import RunConfig, run_verify
    start = time.perf_counter()
    report = run_verify(RunConfig(models=["sympl-nonzero"], checks=["axioms", "morphism"],
                                  seed=7, samples=50))
    total = time.perf_counter() - start
    assert len(report.results) == 3
    shown = [float(x) for x in re.findall(r"\[(\d+\.\d+)s\]", report.to_text())]
    assert len(shown) == 2
    assert abs(sum(shown) - sum(report.timings.values())) <= 0.005 * len(shown)
    assert sum(shown) <= total + 0.005 * len(shown)


def test_decide_negative_smooth_answer_reports_witness(capsys, tmp_path):
    doc = {
        "schema": "decision.v1",
        "smooth": {
            "domain": {"generators": ["a", "b"], "relations": []},
            "codomain": {"generators": ["x"], "relations": []},
            "i_star": [[0, 1]],
            "eta": [1, 0],
        },
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["decide", "--kind", "smooth", str(path)], capsys)
    assert code == 0
    record = json.loads(out)["results"][0]
    assert record["decision"] is False
    witness = record["witness"]["kernel_generator"]
    assert sum(w * e for w, e in zip(witness, [1, 0])) % 2 == 1


def test_decide_trivial_eta_fixture(capsys, tmp_path):
    doc = {
        "schema": "decision.v1",
        "smooth": {
            "domain": {"generators": ["a"], "relations": []},
            "codomain": {"generators": ["b"], "relations": []},
            "i_star": [[0]],
            "eta": [0],
        },
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["decide", "--kind", "smooth", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["decision"] is True


def test_decide_schema_violation_is_exit_2(capsys, tmp_path):
    bad = {"schema": "decision.v1",
           "smooth": {"domain": {"generators": ["a"]},
                      "codomain": {"generators": ["b"]},
                      "i_star": [[0.5]], "eta": [0]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(["decide", "--kind", "smooth", str(path)], capsys)
    assert code == 2
    assert "$.smooth.i_star[0][0]" in err

    path2 = tmp_path / "mangled.json"
    path2.write_text("{not json")
    code, _, err = run_cli(["decide", "--kind", "smooth", str(path2)], capsys)
    assert code == 2
    assert "line" in err

    # what the schema refuses is refused with its field path, never a crash:
    # sections that are not objects, and bool or float where it wants an int
    image = "$.normal_crossing.strata[0].monodromy.g0"
    ill_typed = (
        ("$.smooth", {"schema": "decision.v1", "smooth": 5}, "smooth"),
        ("$.double_cover", {"schema": "decision.v1", "double_cover": []}, "double-cover"),
        ("$.normal_crossing", {"schema": "decision.v1", "normal_crossing": "x"},
         "normal-crossing"),
        (f"{image}.perm", _nc_image_doc(perm=[1.0]), "normal-crossing"),
        (f"{image}.flips", _nc_image_doc(flips=[1.0]), "normal-crossing"),
        (f"{image}.perm", _nc_image_doc(perm=[True]), "normal-crossing"),
        (f"{image}.flips", _nc_image_doc(flips=[True]), "normal-crossing"),
        ("$.normal_crossing.strata[0].k", _nc_doc(dict(_stratum(), k=True)), "normal-crossing"),
        ("$.normal_crossing.strata[0].name", _nc_doc(dict(_stratum(), name=["s"])),
         "normal-crossing"),
        ("$.name", dict(_nc_doc(_stratum()), name=3), "normal-crossing"),
        ("$.smooth.eta", _smooth_doc_with(eta=[True, 0]), "smooth"),
        ("$.smooth.eta", _smooth_doc_with(eta=[1.0, 0]), "smooth"),
        ("$.double_cover.eta_class", {"schema": "decision.v1", "double_cover": {
            "i_pullback": [[1, 0], [0, 1]], "eta_class": [False, True]}}, "double-cover"),
    )
    for field, doc, kind in ill_typed:
        path = tmp_path / "ill_typed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["decide", "--kind", kind, str(path)], capsys)
        assert code == 2 and not out, field
        assert f"{field}:" in err, (field, err)


def test_env_fixture_dir_override(capsys, tmp_path, monkeypatch):
    fixture = tmp_path / "klein_t4.json"
    packaged = load_document(resolve_fixture("klein_t4.json"))
    packaged["name"] = "override-copy"
    fixture.write_text(json.dumps(packaged))
    monkeypatch.chdir(tmp_path.parent)
    monkeypatch.setenv("EGL_FIXTURES", str(tmp_path))
    resolved = resolve_fixture("klein_t4.json")
    assert resolved == fixture


def test_missing_fixture_is_config_error():
    with pytest.raises(ConfigError):
        resolve_fixture("does_not_exist_anywhere.json")


def test_run_config_validation():
    from egl.report import RunConfig

    with pytest.raises(ConfigError):
        RunConfig(models=["case1"], checks=["axioms"], seed=0)
    with pytest.raises(ConfigError):
        RunConfig(models=["case1"], checks=["axioms"], samples=-5)
    with pytest.raises(ConfigError):
        RunConfig(models=["case1"], checks=["axioms"], tol={"bogus": 1.0})


def test_validate_document_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        validate_document({"schema": "decision.v1", "surprise": 1})
    with pytest.raises(ConfigError):
        validate_document({"schema": "decision.v0"})
    # inside sections, presentations, strata and monodromy images too
    smooth, cover, nc = _smooth_doc(), _cover_doc(), _nc_doc(_stratum())
    smooth["smooth"]["surprise"] = 1
    cover["double_cover"]["surprise"] = 1
    nc["normal_crossing"]["surprise"] = 1
    presentation = _smooth_doc()
    presentation["smooth"]["codomain"]["surprise"] = 1
    stratum = _nc_doc(dict(_stratum(), surprise=1))
    image = _nc_doc(_stratum())
    image["normal_crossing"]["strata"][0]["monodromy"]["g0"]["surprise"] = 1
    for doc, field in ((smooth, "$.smooth.surprise"), (cover, "$.double_cover.surprise"),
                       (nc, "$.normal_crossing.surprise"),
                       (presentation, "$.smooth.codomain.surprise"),
                       (stratum, "$.normal_crossing.strata[0].surprise"),
                       (image, "$.normal_crossing.strata[0].monodromy.g0.surprise")):
        with pytest.raises(ConfigError, match=re.escape(f"{field}: unknown field")):
            validate_document(doc)


def _smooth_doc(n_dom=2, n_cod=1, dom_rels=0, entry=1):
    return {"schema": "decision.v1",
            "smooth": {"domain": {"generators": [f"a{i}" for i in range(n_dom)],
                                  "relations": [[2] * n_dom for _ in range(dom_rels)]},
                       "codomain": {"generators": [f"x{i}" for i in range(n_cod)],
                                    "relations": []},
                       "i_star": [[entry] + [0] * (n_dom - 1) for _ in range(n_cod)],
                       "eta": [0] * n_dom}}


def _cover_doc(rows=2, cols=2):
    return {"schema": "decision.v1",
            "double_cover": {"i_pullback": [[1] * cols for _ in range(rows)],
                             "eta_class": [0] * rows}}


def _stratum(k=1, gens=1, words=()):
    names = [f"g{i}" for i in range(gens)]
    return {"k": k, "generators": names,
            "monodromy": {g: {"perm": list(range(1, k + 1)), "flips": [0] * k} for g in names},
            "kernel_words": list(words)}


def _nc_doc(*strata):
    return {"schema": "decision.v1", "normal_crossing": {"strata": list(strata)}}


def _nc_image_doc(**image):
    """One k = 1 stratum whose generator's monodromy image is ``image``."""
    return _nc_doc(dict(_stratum(), monodromy={"g0": image}))


def _smooth_doc_with(**section):
    doc = _smooth_doc()
    doc["smooth"].update(section)
    return doc


def _relation_entry_doc(x):
    doc = _smooth_doc(dom_rels=1)
    doc["smooth"]["domain"]["relations"][0][1] = x
    return doc


OVER_THE_LIMITS = {
    "domain-generators": (_smooth_doc(n_dom=65), "smooth", "$.smooth.domain.generators"),
    "codomain-generators": (_smooth_doc(n_cod=65), "smooth", "$.smooth.codomain.generators"),
    "relations": (_smooth_doc(dom_rels=65), "smooth", "$.smooth.domain.relations"),
    "entry": (_smooth_doc(entry=2 ** 15), "smooth", "$.smooth.i_star[0][0]"),
    "relation-entry": (_relation_entry_doc(-2 ** 15), "smooth",
                       "$.smooth.domain.relations[0][1]"),
    "cover-rows": (_cover_doc(rows=257), "double-cover", "$.double_cover.i_pullback"),
    "cover-columns": (_cover_doc(cols=257), "double-cover", "$.double_cover.i_pullback[0]"),
    "k": (_nc_doc(_stratum(k=9)), "normal-crossing", "$.normal_crossing.strata[0].k"),
    "strata": (_nc_doc(*[_stratum()] * 65), "normal-crossing", "$.normal_crossing.strata"),
    "stratum-generators": (_nc_doc(_stratum(gens=65)), "normal-crossing",
                           "$.normal_crossing.strata[0].generators"),
    "word-tokens": (_nc_doc(_stratum(words=[["g0"] * 60_000]),
                            _stratum(words=[["~g0"] * 40_000, []])),
                    "normal-crossing", "$.normal_crossing.strata[1].kernel_words"),
    "unknown-token": (_nc_doc(_stratum(gens=2, words=[["g1", "~h", "g0"]])), "normal-crossing",
                      "$.normal_crossing.strata[0].kernel_words[0][1]"),
}


@pytest.mark.parametrize("case", sorted(OVER_THE_LIMITS))
def test_decide_rejects_documents_over_each_limit(case, capsys, tmp_path):
    doc, kind, field = OVER_THE_LIMITS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["decide", "--kind", kind, str(path)], capsys)
    assert code == 2 and not out
    assert f"{field}:" in err


def test_documents_at_each_limit_are_accepted():
    for doc in (_smooth_doc(n_dom=64, n_cod=64, dom_rels=64, entry=2 ** 15 - 1),
                _relation_entry_doc(1 - 2 ** 15),
                _cover_doc(rows=256, cols=256),
                _nc_doc(*[_stratum(k=8, gens=64)] * 64),
                _nc_doc(_stratum(words=[["g0"] * 60_000]),
                        _stratum(words=[["~g0", "g0^-1"] * 19_999, []]))):
        validate_document(doc)


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "egl.cli", "list-models"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sympl-nonzero" in proc.stdout


def test_documented_runs_finish_quickly(capsys, tmp_path):
    # the documented invocations, at default sample counts, in < 60 s each
    import time

    for argv in (["verify", "--model", "case1", "--dim", "4",
                  "--checks", "axioms,algebroid", "--seed", "7"],
                 ["verify", "--model", "sympl-zero",
                  "--checks", "axioms,multiplicative,algebroid", "--seed", "7"]):
        start = time.perf_counter()
        code, out, _ = run_cli(argv + ["--out", str(tmp_path / "r.json")], capsys)
        assert code == 0
        assert time.perf_counter() - start < 60.0


def test_verify_warns_when_a_sample_cap_applies(capsys, tmp_path):
    from egl.report import RunConfig, run_verify

    capped = tmp_path / "capped.json"
    code, _, err = run_cli(["verify", "--model", "sympl-zero", "--checks",
                            "algebroid,poisson,axioms", "--samples", "250",
                            "--out", str(capped)], capsys)
    assert code == 0
    assert "warning: algebroid runs at most 200 samples" in err
    assert "warning: poisson runs at most 100 samples" in err
    assert "axioms" not in err
    # the warning leaves the report as it was
    want = run_verify(RunConfig(models=["sympl-zero"], checks=["algebroid", "poisson", "axioms"],
                                seed=7, samples=250)).to_json()
    assert capped.read_text() == want
    code, _, err = run_cli(["verify", "--model", "case1", "--checks", "algebroid",
                            "--samples", "200", "--out", str(tmp_path / "at_cap.json")], capsys)
    assert code == 0 and err == ""


def test_verify_prints_the_first_failing_points_jacobian_error(capsys, monkeypatch):
    import egl.report as report
    from egl.kernel import SmoothMap, jacobian

    # point 1 overflows to inf, point 2 leaves the stencil domain
    f = SmoothMap(2, 1, lambda x: (x[0] * x[1] * x[1],), lambda x: x[0] > -0.5, "overflow")

    def stacked(entry, check, seed=7, samples=None, prof=None):
        jacobian(f, [(0.1, 0.2), (1.0, 1e200), (-0.5 + 1e-7, 0.3)])

    monkeypatch.setattr(report, "run_check", stacked)
    code, out, err = run_cli(["verify", "--model", "case1", "--checks", "algebroid"], capsys)
    assert code == 2 and out == ""
    assert err == "error: NonFiniteValue: non-finite value in jacobian of overflow\n"
