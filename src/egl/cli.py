"""Command-line front end: verify, decide, list-models, list-checks.

Exit codes: 0 on success (including a negative decision answer), 1 when
a verification check fails, 2 on configuration or input errors.  The
JSON report is canonical and byte-reproducible for a fixed (config,
seed, version); the text format is a lossy rendering that adds wall
clock times.  The EGL_FIXTURES environment variable overrides the
fixture directory used to resolve bare decision-input names.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import ConfigError, EglError
from .registry import CHECK_NAMES, DEFAULT_SAMPLES, MODEL_NAMES, SAMPLE_CAPS, build_model
from .report import RunConfig, run_decide, run_verify

__all__ = ["main", "entry", "resolve_fixture"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egl",
        description="chart-level elliptic groupoid models: verification and decisions")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites on named models")
    verify.add_argument("--model", action="append", required=True,
                        help="model name (repeatable); see list-models")
    verify.add_argument("--dim", type=int, default=None, help="ambient dimension")
    verify.add_argument("--k", type=int, default=None, help="normal-crossing factor count")
    verify.add_argument("--checks", default=None,
                        help="comma-separated check names (default: all applicable)")
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--samples", type=int, default=None,
                        help="override per-check sample counts")
    verify.add_argument("--tol", default=None,
                        help="tolerance overrides, e.g. abs_tol=1e-8,fd_step=1e-5")
    verify.add_argument("--out", default=None, help="write the report to this path")
    verify.add_argument("--format", choices=("json", "text"), default="json")

    decide = sub.add_parser("decide", help="run a Hausdorff/cover decision on a JSON input")
    decide.add_argument("input", help="decision document (path or fixture name)")
    decide.add_argument("--kind", required=True,
                        choices=("smooth", "double-cover", "normal-crossing"))
    decide.add_argument("--out", default=None)
    decide.add_argument("--format", choices=("json", "text"), default="json")

    sub.add_parser("list-models", help="print available model names")
    sub.add_parser("list-checks", help="print available check names")
    return parser


def _parse_tol(overrides):
    if not overrides:
        return {}
    out = {}
    for item in overrides.split(","):
        if "=" not in item:
            raise ConfigError(f"bad tolerance override {item!r} (expected key=value)")
        key, value = item.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"bad tolerance value {value!r}") from None
    return out


def resolve_fixture(name: str) -> Path:
    """Resolve a decision-input path: cwd, then EGL_FIXTURES, then packaged."""
    p = Path(name)
    if p.exists():
        return p
    env_dir = os.environ.get("EGL_FIXTURES")
    if env_dir:
        candidate = Path(env_dir) / p.name
        if candidate.exists():
            return candidate
    packaged = resources.files("egl").joinpath("fixtures", p.name)
    if packaged.is_file():
        return Path(str(packaged))
    raise ConfigError(f"decision input not found: {name}")


def _emit(report, fmt: str, out):
    text = report.to_json() if fmt == "json" else report.to_text()
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-models":
            for name in MODEL_NAMES:
                print(name)
            return 0
        if args.command == "list-checks":
            for name in CHECK_NAMES:
                print(f"{name}  (default samples: {DEFAULT_SAMPLES[name]})")
            return 0
        if args.command == "verify":
            if args.checks:
                checks = [c.strip() for c in args.checks.split(",") if c.strip()]
            else:       # every check that applies to one of the models
                applies = {c for name in args.model
                           for c in build_model(name, args.dim, args.k).checks}
                checks = [c for c in CHECK_NAMES if c in applies]
            config = RunConfig(models=args.model, checks=checks, seed=args.seed,
                               samples=args.samples, dim=args.dim, k=args.k,
                               tol=_parse_tol(args.tol))
            report = run_verify(config)
            for check in sorted(SAMPLE_CAPS.keys() & set(checks)):
                if (args.samples or 0) > SAMPLE_CAPS[check]:
                    print(f"warning: {check} runs at most {SAMPLE_CAPS[check]} samples, "
                          f"not the {args.samples} requested", file=sys.stderr)
            _emit(report, args.format, args.out)
            return 0 if report.overall == "pass" else 1
        if args.command == "decide":
            from .decisions_io import load_document

            path = resolve_fixture(args.input)
            document = load_document(path)
            report = run_decide(document, args.kind, source_name=str(args.input))
            _emit(report, args.format, args.out)
            return 0
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except EglError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
