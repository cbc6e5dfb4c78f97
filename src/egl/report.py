"""Run configuration and deterministic machine-readable reports.

The canonical report is JSON with sorted keys; two runs with the same
configuration, seed and artifact version are byte-identical, which is
why wall-clock timings live outside the canonical record (the text
rendering, a lossy view of the same data, shows them).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import __version__
from .decisions_io import decide_double_cover, decide_normal_crossing, decide_smooth
from .errors import ConfigError
from .kernel import DEFAULT_PROFILE, ToleranceProfile
from .registry import CHECK_NAMES, build_model, normalise, run_check

ARTIFACT = {"name": "egl", "version": __version__, "rng": "philox4x64-v4"}

__all__ = ["RunConfig", "RunReport", "run_verify", "run_decide", "ARTIFACT",
           "DECISION_KINDS"]

# each decision kind: the label of its answer and its procedure
DECISION_KINDS = {"smooth": ("hausdorff", decide_smooth),
                  "double-cover": ("double_cover_exists", decide_double_cover),
                  "normal-crossing": ("hausdorff", decide_normal_crossing)}


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
        # rng_for keys Philox with 64 bits of the seed and refuses a larger
        # one; here that is a configuration error (exit 2)
        if not 0 < self.seed < 2 ** 64:
            raise ConfigError("seed must be a positive integer below 2**64")
        if self.samples is not None and self.samples <= 0:
            raise ConfigError("sample count must be positive")
        if not self.checks:
            raise ConfigError("no checks requested")
        unknown = [c for c in self.checks if c not in CHECK_NAMES]
        if unknown:
            raise ConfigError(f"unknown checks: {', '.join(unknown)}")
        allowed = set(ToleranceProfile.__dataclass_fields__)
        for key in self.tol:
            if key not in allowed:
                raise ConfigError(f"unknown tolerance field {key!r}")
        try:
            self._profile = replace(DEFAULT_PROFILE, **self.tol) if self.tol else DEFAULT_PROFILE
        except ValueError as err:
            raise ConfigError(f"bad tolerance profile: {err}") from None

    def profile(self) -> ToleranceProfile:
        return self._profile

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
        """The canonical JSON: ``json.dumps(canonical(), sort_keys=True,
        indent=2)`` and a newline, byte for byte."""
        return _encode(self.canonical(), "\n") + "\n"

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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(obj, newline: str) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` renders it
    at the depth whose line break and indent is ``newline``.

    The dispatch is ``json``'s, in its order, so subclasses of int and
    float encode as ``json`` encodes them, and what ``json`` refuses
    raises TypeError.  ``json.dumps`` runs its pure-Python encoder
    whenever it indents; this one makes fewer calls per value.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:        # a list of floats in one pass
            items = list(map(float.__repr__, obj))
        except TypeError:
            items = [_encode(x, inner) for x in obj]
        else:
            if not _NON_FINITE.keys().isdisjoint(items):
                items = [_NON_FINITE.get(text, text) for text in items]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_key(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(key) -> str:
    """A dict key as ``json`` writes it: a str, or a bool, None, int or
    float as the string of its JSON text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _encode(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def run_verify(config: RunConfig) -> RunReport:
    """Run the requested checks on the requested models, in config order."""
    entries = [build_model(name, config.dim, config.k) for name in config.models]
    prof = config.profile()
    results = []
    timings = {}
    any_applicable = {c: False for c in config.checks}
    for entry in entries:
        for check in (c for c in config.checks if c in entry.checks):
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
    """Run one of the ``DECISION_KINDS`` procedures on a validated document."""
    if kind not in DECISION_KINDS:
        raise ConfigError(f"unknown decision kind {kind!r}")
    label, fn = DECISION_KINDS[kind]
    answer, witness = fn(document)
    record = {"kind": kind, "decision": bool(answer), "label": label,
              "input": source_name or document.get("name", ""), "witness": witness}
    config = {"command": "decide", "kind": kind, "input": record["input"]}
    return RunReport(config=config, results=[record], overall="pass")
