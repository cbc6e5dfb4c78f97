"""The canonical report encoder is ``json.dumps(sort_keys=True, indent=2)``."""

import json
import math
import re
from importlib import resources

import numpy as np
import pytest

from egl.decisions_io import load_document
from egl.errors import ConfigError
from egl.registry import CHECK_NAMES, MODEL_NAMES, build_model
from egl.report import DECISION_KINDS, RunConfig, RunReport, run_decide, run_verify


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _rendered(obj) -> str:
    return RunReport(config={"x": obj}, results=[obj], overall="pass").to_json()


def _decisions():
    for fixture in resources.files("egl").joinpath("fixtures").iterdir():
        document = load_document(str(fixture))
        for kind in DECISION_KINDS:
            try:
                yield run_decide(document, kind, source_name=fixture.name)
            except ConfigError:     # the fixture has no section for this kind
                pass


def test_reports_render_as_json_dumps():
    reports = [run_verify(RunConfig(models=list(MODEL_NAMES), checks=list(CHECK_NAMES),
                                    samples=20))] + list(_decisions())
    assert len(reports) == 4 and len(reports[0].results) > len(MODEL_NAMES)
    for report in reports:
        assert report.to_json() == _dumps(report.canonical())


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 10 ** 60, -(10 ** 60), [True, 1, 1.0],
    None, "é ∂ 𝔾", "tab\t nul\x00 quote\" back\\ del\x7f", {}, [], [[]], [{}], {"a": {}},
    {"b": [1, {"c": [None, [], {"d": "e"}]}], "a": -1.5e300},
    (1.0, 2.5, (3,)), [0.1, math.nan, -math.inf, 1e16], np.float64(0.1),
    [np.float64(math.nan), np.float64(-0.0)], {"k": np.float64(2.0) / 3},
    {2: "int key", 1.5: "float key", True: "bool key"}, {None: "none key"},
])
def test_values_render_as_json_dumps(value):
    obj = RunReport(config={"x": value}, results=[value], overall="pass").canonical()
    assert _rendered(value) == _dumps(obj)


@pytest.mark.parametrize("value", [np.int64(3), {1, 2}, [1, {2}], {(1, 2): "tuple key"},
                                   {"a": np.bool_(True)}])
def test_what_json_refuses_raises_type_error(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _rendered(value)


def test_unknown_inputs_are_config_errors_by_name(tmp_path):
    with pytest.raises(ConfigError, match="^unknown decision kind 'bogus'$"):
        run_decide({}, "bogus")
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError, match=f"^decision input not found: {re.escape(str(missing))}$"):
        load_document(missing)
    with pytest.raises(ConfigError, match="^bad caseIV factor count 'x'$"):
        build_model("caseIV:x")
