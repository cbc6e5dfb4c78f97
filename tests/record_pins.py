"""Record the pin files of the current draw layout.

    PYTHONPATH=src python tests/record_pins.py [DIR]

writes ``draw_layout_<rng>.json`` and ``report_digests_<rng>.json`` into
DIR (default: this directory), where <rng> is
``egl.report.ARTIFACT["rng"]`` with "-" written "_".  The layout file
holds the first draws of every registered model's samplers (three
composable triples, then three base points, from the stream
``layout:<model name>``, seed 7) and the first three pair parameters of
each symplectic residue model's multiplicative check (its own stream).
The digest file holds the sha256 of the canonical ``run_verify`` JSON
of each gate configuration's structure-map checks (seed 7, 200
samples), of its algebroid check, and of the symplectic,
multiplicative and poisson checks of both residue models (seed 7,
default sample counts).

A draw layout is recorded once, when it is introduced, and never edited:
``tests/test_groupoids.py`` and ``tests/test_blocks.py`` read these files.
Symplectic models without ``pair_width`` (philox4x64-v2 and before) draw
their pair parameters one sample at a time; for them the layout file has
no pair section, which is how those files were written.
"""

import hashlib
import json
import sys
from pathlib import Path

from egl.checks import rng_for
from egl.groupoids import uniforms
from egl.registry import MODEL_NAMES, build_model
from egl.report import ARTIFACT, RunConfig, run_verify
from egl.symplectic import SymplecticModel

SEED = 7
GATE = (("action-groupoid", None, None), ("case1", 2, None), ("case1", 4, None),
        ("case1", 6, None), ("case2", None, None), ("caseIV", 4, 2), ("caseIV", 6, 3),
        ("fibre:case1,case1", None, None), ("fibre:case1,pair", None, None),
        ("pair", None, None), ("ssc-surface", None, None), ("sympl-nonzero", None, None),
        ("sympl-zero", None, None))
STRUCTURE_CHECKS = ("axioms", "ideal", "isotropy", "morphism")
RESIDUE_MODELS = ("sympl-nonzero", "sympl-zero")


def _rows(rows, indent):
    pad = " " * indent
    return "[\n" + ",\n".join(pad + "  " + json.dumps([float(x) for x in r]) for r in rows) \
        + "\n" + pad + "]"


def pair_draws(name: str, count: int = 3) -> list:
    """The first ``count`` pair parameters of ``name``'s multiplicative check."""
    sym = build_model(name).symplectic
    rng = rng_for(SEED, f"multiplicative:{name}")
    return [sym.pair_param[1](uniforms(rng, sym.pair_width)) for _ in range(count)]


def layout_text() -> str:
    models = []
    for name in sorted(MODEL_NAMES):
        model = build_model(name).chart
        rng = rng_for(SEED, f"layout:{name}")
        triples = [model.random_composable_triple(rng) for _ in range(3)]
        bases = [model.random_base(rng) for _ in range(3)]
        body = ",\n".join("        " + _rows(t, 8) for t in triples)
        models.append(f'    {json.dumps(name)}: {{\n      "triples": [\n{body}\n      ],\n'
                      f'      "bases": {_rows(bases, 6)}\n    }}')
    text = (f'{{\n  "generator": {json.dumps(ARTIFACT["rng"])},\n  "seed": {SEED},\n'
            f'  "stream": "layout:<model name>",\n  "models": {{\n'
            + ",\n".join(models) + "\n  }")
    if "pair_width" in SymplecticModel.__dataclass_fields__:
        pairs = ",\n".join(f"    {json.dumps(name)}: {_rows(pair_draws(name), 4)}"
                           for name in RESIDUE_MODELS)
        text += (',\n  "pair_stream": "multiplicative:<model name>",\n'
                 f'  "pairs": {{\n{pairs}\n  }}')
    return text + "\n}\n"


def _digest(model, dim, k, check, samples) -> str:
    cfg = RunConfig(models=[model], checks=[check], seed=SEED, samples=samples, dim=dim, k=k)
    return hashlib.sha256(run_verify(cfg).to_json().encode("utf-8")).hexdigest()


def _entries(configs, samples) -> str:
    return ",\n".join("  " + json.dumps({"model": m, "dim": d, "k": k, "check": c,
                                         "sha256": _digest(m, d, k, c, samples)})
                      for m, d, k, c in configs)


def digests_text() -> str:
    structure = [(m, d, k, c) for m, d, k in GATE for c in STRUCTURE_CHECKS
                 if c in build_model(m, d, k).checks]
    calculus = [(m, d, k, "algebroid") for m, d, k in GATE] + [
        (m, None, None, c) for c in ("multiplicative", "poisson", "symplectic")
        for m in RESIDUE_MODELS]
    return (
        '{\n "about": "sha256 of the canonical run_verify JSON of each gate configuration'
        f' and structure-map check, seed {SEED}, 200 samples",\n'
        f' "generator": {json.dumps(ARTIFACT["rng"])},\n "seed": {SEED},\n "samples": 200,\n'
        f' "reports": [\n{_entries(structure, 200)}\n ],\n'
        ' "calculus_about": "sha256 of the canonical run_verify JSON of algebroid on each'
        ' gate configuration and of symplectic, multiplicative and poisson on sympl-nonzero'
        f' and sympl-zero, seed {SEED}, default sample counts",\n'
        f' "calculus_reports": [\n{_entries(calculus, None)}\n ]\n}}\n')


def main(argv) -> None:
    out = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent
    tag = ARTIFACT["rng"].replace("-", "_")
    out.mkdir(parents=True, exist_ok=True)
    for stem, text in (("draw_layout", layout_text()), ("report_digests", digests_text())):
        path = out / f"{stem}_{tag}.json"
        path.write_text(text, encoding="utf-8")
        print(f"{path.name} sha256 {hashlib.sha256(text.encode('utf-8')).hexdigest()}")


if __name__ == "__main__":
    main(sys.argv)
