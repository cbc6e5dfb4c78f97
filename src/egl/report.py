"""Run configuration and deterministic machine-readable reports.

The canonical report is JSON with sorted keys; two runs with the same
configuration, seed and artifact version are byte-identical, which is
why wall-clock timings live outside the canonical record (the text
rendering, a lossy view of the same data, shows them).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .errors import ConfigError
from .kernel import DEFAULT_PROFILE, ToleranceProfile
from .registry import CHECK_NAMES, build_model, checks_for, normalise, run_check

ARTIFACT = {"name": "egl", "version": __version__, "rng": "philox4x64-v3"}

__all__ = ["RunConfig", "RunReport", "run_verify", "run_decide", "ARTIFACT"]


@dataclass
class RunConfig:
    """Validated configuration for a verify run."""

    models: list
    checks: list
    seed: int = 7
    samples: Optional[int] = None
    dim: Optional[int] = None
    k: Optional[int] = None
    tol: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.seed <= 0:
            raise ConfigError("seed must be a positive integer")
        if self.samples is not None and self.samples <= 0:
            raise ConfigError("sample count must be positive")
        unknown = [c for c in self.checks if c not in CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown checks: {', '.join(unknown)}")
        allowed = set(ToleranceProfile.__dataclass_fields__)
        for key in self.tol:
            if key not in allowed:
                raise ConfigError(f"unknown tolerance field {key!r}")

    def profile(self) -> ToleranceProfile:
        if not self.tol:
            return DEFAULT_PROFILE
        return ToleranceProfile(**{**DEFAULT_PROFILE.__dict__, **self.tol})

    def echo(self) -> dict:
        return {
            # what ran: each model's (name, dim, k) as build_model normalised it
            "models": [dict(zip(("name", "dim", "k"), normalise(name, self.dim, self.k)))
                       for name in self.models],
            "checks": list(self.checks),
            "seed": self.seed,
            "samples": self.samples,
            "tolerance_overrides": dict(sorted(self.tol.items())),
            "profile": dict(sorted(self.profile().__dict__.items())),
        }


@dataclass
class RunReport:
    """Config echo, per-check records, and the overall verdict."""

    config: dict
    results: list
    overall: str
    # seconds per run_check call, keyed by the index of its first record;
    # not part of the canonical JSON
    timings: dict = field(default_factory=dict)

    def canonical(self) -> dict:
        return {"artifact": ARTIFACT, "config": self.config,
                "results": self.results, "overall": self.overall}

    def to_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"egl {ARTIFACT['version']} ({ARTIFACT['rng']})"]
        for index, rec in enumerate(self.results):
            label = rec.get("check", rec.get("kind", "?"))
            model = rec.get("model", rec.get("input", ""))
            elapsed = self.timings.get(index)
            suffix = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
            if "decision" in rec:
                lines.append(f"{label} {model}: {str(rec['decision']).lower()}{suffix}")
                if rec.get("witness"):
                    lines.append(f"  witness: {rec['witness']}")
            else:
                lines.append(
                    f"{rec['verdict'].upper():4s} {label} {model} "
                    f"max_residual={rec['max_residual']:.3e} "
                    f"tol={rec['tolerance']:.1e} samples={rec['samples']}{suffix}")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"


def run_verify(config: RunConfig) -> RunReport:
    """Run the requested checks on the requested models, in config order."""
    entries = [build_model(name, config.dim, config.k) for name in config.models]
    prof = config.profile()
    results = []
    timings = {}
    any_applicable = {c: False for c in config.checks}
    for entry in entries:
        todo = checks_for(entry, config.checks)
        for check in todo:
            any_applicable[check] = True
            start = time.perf_counter()
            reports = run_check(entry, check, seed=config.seed,
                                samples=config.samples, prof=prof)
            # one time per call, shown on the call's first record
            timings[len(results)] = time.perf_counter() - start
            results.extend(report.to_dict() for report in reports)
    silent = [c for c, used in any_applicable.items() if not used]
    if silent:
        raise ConfigError(
            f"checks {', '.join(silent)} apply to none of the requested models")
    overall = "pass" if all(r["verdict"] == "pass" for r in results) else "fail"
    return RunReport(config=config.echo(), results=results, overall=overall,
                     timings=timings)


def run_decide(document: dict, kind: str, source_name: str = "") -> RunReport:
    """Run one of the three decision procedures on a validated document."""
    from .decisions_io import (decide_double_cover, decide_normal_crossing,
                               decide_smooth)

    kinds = {"smooth": ("hausdorff", decide_smooth),
             "double-cover": ("double_cover_exists", decide_double_cover),
             "normal-crossing": ("hausdorff", decide_normal_crossing)}
    if kind not in kinds:
        raise ConfigError(f"unknown decision kind {kind!r}")
    label, fn = kinds[kind]
    answer, witness = fn(document)
    record = {"kind": kind, "decision": bool(answer), "label": label,
              "input": source_name or document.get("name", ""), "witness": witness}
    config = {"command": "decide", "kind": kind, "input": record["input"]}
    return RunReport(config=config, results=[record], overall="pass")
