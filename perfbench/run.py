"""egl benchmark: seeded workloads with known answers, timed in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-maps --seed 7 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists):

* ``verify-maps``      ``run_verify`` with axioms, morphism, ideal, isotropy;
* ``verify-calculus``  ``run_verify`` with algebroid, symplectic,
                       multiplicative, poisson;
* ``decide-exact``     generated ``decision.v1`` documents through
                       ``run_decide``, direct Smith normal forms and
                       twist-group closures;
* ``controls-fail``    negative controls that every suite must fail.

A run builds the workload's fixed list of operations from the seed and
repeats it, cycle after cycle, until ``--seconds`` have passed (at least
``MIN_CYCLES`` cycles).  Every outcome is checked against its known
answer and every canonical report is hashed; the hashes must agree
across cycles.  Times are in reference seconds: wall time divided by
the host's slowdown at that moment, measured by the fixed loop in
``calibrate.py``.  With ``--trace 0`` the last line of output carries
the end-to-end metrics: ``items_per_s`` (items of the operations that
reached their answer, over the sum of those operations' median times),
``setup_s`` (median of ``SETUP_PROBES`` fresh interpreters running
``import egl`` and building the workload's models), ``peak_rss_mb`` and
``ops_ok_frac`` (1 - ops_failed_frac).  With ``--trace 1`` untraced and
traced cycles alternate; the last line carries the per-layer metrics of
``tracing.py`` plus ``trace.overhead_frac``, and the traced reports
must hash equal to the untraced ones.

The process runs single-threaded: BLAS thread counts are pinned to 1
before numpy loads.  Exit status is 0 whenever a result is printed
(``correct`` says whether every answer was right), and nonzero when the
egl sources are not found under ``src/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import configs  # noqa: E402
from calibrate import Meter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_CYCLES = 3
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
TRACE_DIR = HERE.parent / ".perfbench-traces"


def load_egl():
    """Import egl from this checkout's sources, never from elsewhere."""
    package = SRC / "egl"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: egl sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import egl
    if Path(egl.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported egl from {egl.__file__}, not {package}")


@dataclass
class OpStats:
    """One operation's record across cycles."""

    runs: int = 0
    times: list = field(default_factory=list)       # reference s, correct untraced runs
    items: int = 0
    digest: str = ""
    verdict: object = None
    failed: int = 0


class Runner:
    """Runs the operation list, judges each outcome, keeps the statistics."""

    def __init__(self, ops, known_crashes):
        self.ops = ops
        self.known_crashes = known_crashes
        self.stats = {op.name: OpStats() for op in ops}
        self.unexpected = []
        self.meter = Meter()

    def cycle(self) -> float:
        """Run every operation once; the summed reference time of the correct ones."""
        return sum(ref for _, ref, ok in map(self.run_op, self.ops) if ok)

    def run_op(self, op, tracer=None):
        """Run and judge one operation: (wall seconds, reference seconds, correct).

        Times are kept for untraced runs only; traced runs still have to
        reproduce the untraced report digests.
        """
        def attempt():
            try:
                return (op.run() if tracer is None else tracer.root(op.run)), None
            except Exception as err:   # a crash is a failed operation; keep going
                return None, err

        st = self.stats[op.name]
        st.runs += 1
        # no slowdown sampling inside traced calls: it would land in their spans
        (out, err), wall, ref = self.meter.measure(attempt, sample=tracer is None)
        if err is not None:
            self._fail(op, st, "raised", type(err).__name__, err)
            return wall, ref, False
        try:
            ok = op.check(out)
        except Exception:          # a malformed outcome is a wrong answer
            ok = False
        digest = hashlib.sha256(out.text.encode()).hexdigest()
        if not ok:
            self._fail(op, st, "wrong answer", None, out.verdict)
            return wall, ref, False
        if st.digest and digest != st.digest:
            self._fail(op, st, "report changed between runs", None, digest)
            return wall, ref, False
        st.digest, st.verdict, st.items = digest, out.verdict, out.items
        if tracer is None:
            st.times.append(ref)
        return wall, ref, True

    def _fail(self, op, st, kind, exc_name, detail):
        st.failed += 1
        if not (kind == "raised" and self.known_crashes.get(op.name) == exc_name):
            self.unexpected.append(f"{op.name}: {kind}: {exc_name or ''} {detail!s:.200}")

    @property
    def attempted(self) -> int:
        return sum(s.runs for s in self.stats.values())

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.stats.values())

    def items_per_s(self) -> float:
        done = [s for s in self.stats.values() if s.times]
        seconds = sum(statistics.median(s.times) for s in done)
        return sum(s.items for s in done) / seconds if seconds else 0.0

    def digests(self) -> tuple:
        """(report digest, verdict digest) over all operations, in order."""
        reports = hashlib.sha256()
        verdicts = hashlib.sha256()
        for name, st in self.stats.items():
            reports.update(f"{name}={st.digest};".encode())
            verdicts.update(json.dumps([name, st.verdict], default=str).encode())
        return reports.hexdigest()[:16], verdicts.hexdigest()[:16]


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of ``import egl`` + building the models."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(runner, workload, seconds) -> dict:
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() < deadline:
        runner.cycle()
        cycles += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok_frac = 1.0 - runner.failed / runner.attempted
    metrics = {"items_per_s": metric(runner.items_per_s(), "1/s"),
               "setup_s": metric(setup_seconds(workload), "s"),
               "peak_rss_mb": metric(peak_mb, "MB"),
               "ops_ok_frac": metric(ok_frac, "ratio")}
    print(f"perfbench {workload}: cycles={cycles} ops/cycle={len(runner.ops)} "
          f"items_per_s={metrics['items_per_s']['value']:.4g} 1/s "
          f"setup_s={metrics['setup_s']['value']:.4g} s "
          f"peak_rss_mb={peak_mb:.1f} MB "
          f"ops_failed_frac={runner.failed / runner.attempted:.4f} "
          f"({runner.failed}/{runner.attempted} runs)")
    return metrics


def run_traced(runner, workload, seconds) -> dict:
    import tracing

    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    plain, traced, windows, coverage = [], [], [], []
    accepted = drawn = 0
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.cycle())
        tracer.reset()
        tracer.install()
        try:
            cycle_total = wall = 0.0
            for op in runner.ops:
                before = tracer.counts["draws"]
                elapsed, ref, ok = runner.run_op(op, tracer)
                wall += elapsed
                if not ok:
                    continue
                cycle_total += ref
                draws = tracer.counts["draws"] - before
                if draws:
                    accepted += runner.stats[op.name].items
                    drawn += draws
        finally:
            tracer.uninstall()
        traced.append(cycle_total)
        windows.append((tracer.self_s, tracer.calls, tracer.counts, tracer.peaks))
        coverage.append(sum(tracer.self_s.values()) / wall)
    tracer.write_spans(TRACE_DIR / f"{workload}.jsonl")

    def med_self(layer):
        return statistics.median(w[0][layer] for w in windows)

    calls, counts, peaks = windows[0][1], windows[0][2], windows[0][3]
    if any(w[1] != calls or w[2] != counts or w[3] != peaks for w in windows[1:]):
        runner.unexpected.append("traced call counts differ between cycles")
    coverage = statistics.median(coverage)
    if not 0.97 <= coverage <= 1.0 + 1e-9:
        runner.unexpected.append(f"layer self times cover {coverage:.3f} of traced time")
    maps_calls = calls[tracing.MAPS]
    extend_calls = counts["extend_calls"]
    m = {
        "groupoids.sample.calls": metric(calls[tracing.SAMPLE], "count"),
        "groupoids.sample.self_s": metric(med_self(tracing.SAMPLE), "s"),
        "groupoids.sample.accept_ratio": metric(accepted / drawn if drawn else 0.0, "ratio"),
        "groupoids.extend.tries_per_call": metric(
            counts[("extend_from", "arrow_between")] / extend_calls if extend_calls else 0.0,
            "ratio"),
        "groupoids.maps.calls": metric(maps_calls, "count"),
        "groupoids.maps.self_s": metric(med_self(tracing.MAPS), "s"),
        "groupoids.maps.us_per_call": metric(
            1e6 * med_self(tracing.MAPS) / maps_calls if maps_calls else 0.0, "us"),
        "symplectic.forms.calls": metric(calls[tracing.FORMS], "count"),
        "symplectic.forms.self_s": metric(med_self(tracing.FORMS), "s"),
        "divisors.frame.self_s": metric(med_self(tracing.FRAME), "s"),
        "kernel.fd.calls": metric(calls[tracing.FD], "count"),
        "kernel.fd.self_s": metric(med_self(tracing.FD), "s"),
        "kernel.fd.stencil_points": metric(counts["stencil_points"], "count"),
        "kernel.fd.refused": metric(counts["fd_refused"], "count"),
        "kernel.svd.calls": metric(calls[tracing.SVD], "count"),
        "kernel.svd.self_s": metric(med_self(tracing.SVD), "s"),
        "checks.driver.self_s": metric(med_self(tracing.DRIVER), "s"),
        "homology.snf.calls": metric(calls[tracing.SNF], "count"),
        "homology.snf.self_s": metric(med_self(tracing.SNF), "s"),
        "homology.snf.max_digits": metric(peaks["snf_digits"], "digits"),
        "homology.kernel.self_s": metric(med_self(tracing.KERNEL), "s"),
        "homology.gf2.self_s": metric(med_self(tracing.GF2), "s"),
        "signedperm.twist.self_s": metric(med_self(tracing.TWIST), "s"),
        "signedperm.twist.max_order": metric(peaks["twist_order"], "count"),
        "signedperm.word.self_s": metric(med_self(tracing.WORD), "s"),
        "decisions_io.validate_s": metric(med_self(tracing.VALIDATE), "s"),
        "report.json_s": metric(med_self(tracing.JSON), "s"),
        "registry.build_s": metric(med_self(tracing.BUILD), "s"),
        "trace.overhead_frac": metric(
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"),
        "trace.coverage_frac": metric(coverage, "ratio"),
    }
    print(f"perfbench {workload} (traced): pairs={len(traced)} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(configs.SETUP_MODELS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_egl()
    import workloads

    # egl seeds must be positive; map the others onto distinct positive ones
    egl_seed = args.seed if args.seed > 0 else 2**32 - args.seed
    runner = Runner(workloads.WORKLOADS[args.workload](egl_seed), configs.KNOWN_CRASHES)
    if args.trace:
        metrics = run_traced(runner, args.workload, args.seconds)
    else:
        metrics = run_untraced(runner, args.workload, args.seconds)
    reports, verdicts = runner.digests()
    print(f"perfbench {args.workload}: report digest {reports}, verdict digest {verdicts}")
    for line in runner.unexpected[:20]:
        print(f"perfbench: UNEXPECTED {line}", file=sys.stderr)
    print(json.dumps({"correct": not runner.unexpected, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
