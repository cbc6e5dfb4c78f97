"""Per-layer timing for the traced run, recorded from the benchmark's side.

``Tracer.install`` replaces egl functions where their callers look them
up (module attributes, class attributes, and the callable fields of the
model objects that ``egl.report.build_model`` returns) with wrappers
that open a span per call.  A span's self time is its duration minus
the durations of the spans it directly contains; a layer's self time is
the sum over its spans.  Every operation runs inside a root span in the
``checks.driver`` layer, so the layers' self times add up to the traced
wall time of the operations.  ``uninstall`` restores every original.

Aggregates are exact; the spans themselves are kept in memory up to
``SPAN_CAP`` and written out as JSON lines at the end of the run.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import replace
from time import perf_counter

import egl.checks as checks
import egl.decisions_io as decisions_io
import egl.groupoids as groupoids
import egl.homology as homology
import egl.kernel as kernel
import egl.registry as registry
import egl.report as report
import egl.signedperm as signedperm
import egl.symplectic as symplectic
from egl.errors import StencilOutsideDomain

SPAN_CAP = 50_000
DRIVER = "checks.driver"
SAMPLE = "groupoids.sample"
MAPS = "groupoids.maps"
FORMS = "symplectic.forms"
FRAME = "divisors.frame"
FD = "kernel.fd"
SVD = "kernel.svd"
SNF = "homology.snf"
KERNEL = "homology.kernel"
GF2 = "homology.gf2"
TWIST = "signedperm.twist"
WORD = "signedperm.word"
VALIDATE = "decisions_io.validate"
JSON = "report.json"
BUILD = "registry.build"
LAYERS = (DRIVER, SAMPLE, MAPS, FORMS, FRAME, FD, SVD, SNF, KERNEL, GF2, TWIST,
          WORD, VALIDATE, JSON, BUILD)

MAP_FIELDS = ("source_of", "target_of", "compose_raw", "invert", "unit_at",
              "arrow_valid", "beta_map")
_MARK = "_perfbench_traced"


def decimal_digits(n: int) -> int:
    """Digits of n >= 0, without str(), which refuses ints over 4300 digits."""
    digits = max(1, int((n.bit_length() - 1) * math.log10(2)) + 1)
    while n >= 10 ** digits:
        digits += 1
    while digits > 1 and n < 10 ** (digits - 1):
        digits -= 1
    return digits


class Tracer:
    """Span stack, per-layer aggregates and the patches that feed them."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans = []
        self._stack = []          # frames: [span id, child time, name, layer]
        self._next_id = 0
        self._undo = []
        self.reset()

    def reset(self):
        """Start a new aggregation window (one traced cycle)."""
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.peaks = Counter()

    # -- spans ---------------------------------------------------------------

    def timed(self, layer, fn, name=None, note=None, count_parent=False):
        """``fn`` wrapped in a span of ``layer``.

        ``note(args, result)`` runs after a successful call, outside the
        span, to record counts; ``count_parent`` counts calls per
        (caller span name, name).
        """
        name = name or getattr(fn, "__name__", layer)
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if count_parent and parent is not None:
                self.counts[(parent[2], name)] += 1
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0, name, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except StencilOutsideDomain as err:
                if not getattr(err, _MARK, False):
                    setattr(err, _MARK, True)
                    self.counts["fd_refused"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if parent is not None:
                    parent[1] += elapsed
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent[0] if parent else None, layer, name,
                                  t0 - self.origin, t1 - self.origin))
            if note is not None:
                note(args, out)
            return out
        return wrapper

    def root(self, fn):
        """Run one benchmark operation inside a root span of the checks layer."""
        return self.timed(DRIVER, fn, "op")()

    # -- model objects ---------------------------------------------------------

    def chart(self, chart):
        """A copy of a chart model whose callable fields open spans."""
        if chart is None or getattr(chart, _MARK, False):
            return chart
        fields = {f: self.timed(MAPS, getattr(chart, f), f)
                  for f in MAP_FIELDS if getattr(chart, f) is not None}
        if chart.expected_frame is not None:
            fields["expected_frame"] = self.timed(FRAME, chart.expected_frame,
                                                  "expected_frame")
        if chart.arrow_between is not None:
            fields["arrow_between"] = self.timed(SAMPLE, chart.arrow_between,
                                                 "arrow_between", count_parent=True)
        out = replace(chart, **fields)
        if hasattr(chart, "factors"):           # fibre products carry their factors
            object.__setattr__(out, "factors", chart.factors)
        object.__setattr__(out, _MARK, True)
        return out

    def form(self, form):
        if form is None or getattr(form, _MARK, False):
            return form
        out = replace(form, func=self.timed(FORMS, form.func, form.name or "form"))
        object.__setattr__(out, _MARK, True)
        return out

    def sym(self, sym, chart=None):
        if sym is None or getattr(sym, _MARK, False):
            return sym
        fields = {"model": chart or self.chart(sym.model),
                  "Omega": self.form(sym.Omega), "omega_base": self.form(sym.omega_base),
                  "Omega_variant": self.form(sym.Omega_variant),
                  "pi_bivector": self.timed(FORMS, sym.pi_bivector, "pi_bivector")}
        for f in ("compose_variant", "invert_variant"):
            if getattr(sym, f) is not None:
                fields[f] = self.timed(MAPS, getattr(sym, f), f)
        out = replace(sym, **fields)
        object.__setattr__(out, _MARK, True)
        return out

    def entry(self, entry):
        chart = self.chart(entry.chart)
        return replace(entry, chart=chart, symplectic=self.sym(entry.symplectic, chart))

    def bundle(self, bundle):
        return replace(bundle, dom=self.chart(bundle.dom), cod=self.chart(bundle.cod),
                       dom_form=self.form(bundle.dom_form),
                       cod_form=self.form(bundle.cod_form))

    # -- patches ---------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr, layer, **kw):
        self._patch(owner, attr, self.timed(layer, getattr(owner, attr), attr, **kw))

    def _factory(self, owner, attr, convert):
        """Model constructors: timed as set-up, their products traced."""
        build = self.timed(BUILD, getattr(owner, attr), attr)
        self._patch(owner, attr, lambda *a, **kw: convert(build(*a, **kw)))

    def install(self):
        def draw(args, out):
            # arrows drawn for samples, not the probes a model runs while built
            if not self._stack or self._stack[-1][3] != BUILD:
                self.counts["draws"] += 1

        def extend(args, out):
            self.counts["extend_calls"] += 1

        def stencil(args, out):
            self.counts["stencil_points"] += 2 * args[0].domain_dim

        def snf_digits(args, out):
            U, _, V = out
            big = max((abs(x) for M in (U, V) for row in M for x in row), default=0)
            self.peaks["snf_digits"] = max(self.peaks["snf_digits"], decimal_digits(big))

        def twist_order(args, out):
            self.peaks["twist_order"] = max(self.peaks["twist_order"], out.order)

        model_cls = groupoids.GroupoidChartModel
        self._wrap(model_cls, "random_arrow", SAMPLE, note=draw)
        self._wrap(model_cls, "extend_from", SAMPLE, note=extend)
        for attr in ("random_base", "random_composable_pair", "random_composable_triple"):
            self._wrap(model_cls, attr, SAMPLE)

        for owner in (checks, kernel, groupoids):
            self._wrap(owner, "jacobian", FD, note=stencil)
        for attr in ("pullback", "exterior_derivative", "schouten_residual"):
            self._wrap(checks, attr, FD)
        for attr in ("nullspace", "subspace_angle"):
            self._wrap(checks, attr, SVD)

        self._wrap(homology, "smith_normal_form", SNF, note=snf_digits)
        self._wrap(homology, "kernel_generators", KERNEL)
        for owner in (homology, decisions_io):
            self._wrap(owner, "double_cover_exists", GF2)
        self._wrap(signedperm, "twist_group", TWIST, note=twist_order)
        self._wrap(signedperm.MonodromyRep, "evaluate", WORD)
        self._wrap(decisions_io, "validate_document", VALIDATE)
        self._wrap(report.RunReport, "to_json", JSON)

        self._factory(report, "build_model", self.entry)
        for attr in ("morphism_phi_nonzero", "morphism_phi_zero"):
            self._factory(registry, attr, self.bundle)
        self._factory(checks, "pair_groupoid", self.chart)
        self._factory(checks, "psi_domain_candidates",
                      lambda cands: {k: self.chart(v) for k, v in cands.items()})
        self._factory(symplectic, "symplectic_nonzero_residue_model", self.sym)
        self._factory(checks, "non_jacobi_bivector",
                      lambda pi: self.timed(FORMS, pi, "non_jacobi_bivector"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "name": name, "start": start, "end": end}) + "\n")
