"""Decision-input documents: schema validation and the three decisions.

A decision document (versioned ``decision.v1``) carries named
generators, integer matrices as row-major arrays, mod-2 vectors,
per-stratum monodromy tables and kernel word lists.  Validation is
structural with field-path diagnostics; the JSON Schema shipped under
``schemas/decision.v1.json`` documents the same contract, and its
description lists the cross-field rules that only validation enforces.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError
from .homology import (HomologyPresentation, IntHom, double_cover_exists,
                       smooth_decision_witness)
from .signedperm import (K_MAX, MonodromyRep, SignedPermutation, nc_decision_witness,
                         parse_token)

SCHEMA_VERSION = "decision.v1"

__all__ = ["SCHEMA_VERSION", "load_document", "validate_document",
           "decide_smooth", "decide_double_cover", "decide_normal_crossing"]


# Size limits: every document they admit is decided in bounded time and
# memory (README, "Size limits").
MAX_GENERATORS = 64        # per presentation and per stratum
MAX_RELATIONS = 64         # per presentation
MAX_COVER_DIM = 256        # rows and columns of i_pullback
MAX_ENTRY = 2 ** 15 - 1    # |entry| of relations and i_star
MAX_K = K_MAX              # degree of a stratum's monodromy
MAX_STRATA = 64
MAX_WORD_TOKENS = 100_000  # kernel-word tokens in a document; an empty word counts one


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _expect_at_most(value, limit: int, path: str, what: str):
    if len(value) > limit:
        _fail(path, f"at most {limit} {what} allowed, got {len(value)}")


def _expect_int_matrix(value, path, rows=None, cols=None, max_rows=None, max_cols=None):
    if not isinstance(value, list) or any(not isinstance(r, list) for r in value):
        _fail(path, "expected a list of integer rows")
    if max_rows is not None:
        _expect_at_most(value, max_rows, path, "rows")
    for i, row in enumerate(value):
        if max_cols is not None:
            _expect_at_most(row, max_cols, f"{path}[{i}]", "columns")
        if not {int}.issuperset(map(type, row)):   # bool is not int here
            j = next(j for j, x in enumerate(row) if type(x) is not int)
            _fail(f"{path}[{i}][{j}]", "expected integer")
        if row and (max(row) > MAX_ENTRY or min(row) < -MAX_ENTRY):
            j = next(j for j, x in enumerate(row) if abs(x) > MAX_ENTRY)
            _fail(f"{path}[{i}][{j}]", f"entry magnitude exceeds {MAX_ENTRY}")
    if value and len({len(r) for r in value}) != 1:
        _fail(path, "ragged matrix")
    if rows is not None and len(value) != rows:
        _fail(path, f"expected {rows} rows, got {len(value)}")
    if cols is not None and value and len(value[0]) != cols:
        _fail(path, f"expected {cols} columns, got {len(value[0])}")
    return value


def _expect_object(value, path, fields, what):
    """``value`` is an object whose keys are all among ``fields``."""
    if not isinstance(value, dict):
        _fail(path, f"expected {what}")
    for key in value:
        if key not in fields:
            _fail(f"{path}.{key}", "unknown field")
    return value


def _expect_name(obj, path):
    if "name" in obj and not isinstance(obj["name"], str):
        _fail(f"{path}.name", "expected a string")


def _expect_bits(value, path, length=None):
    # bool and float are not int here, so true and 1.0 are no bits
    if not (isinstance(value, list) and {int}.issuperset(map(type, value))
            and {0, 1}.issuperset(value)):
        _fail(path, "expected a list of 0/1 entries")
    if length is not None and len(value) != length:
        _fail(path, f"expected length {length}, got {len(value)}")
    return value


def _expect_bit_matrix(value, path, max_dim: int):
    """A matrix of at most ``max_dim`` rows and columns of 0/1 entries.

    One type check and one value check per row; the two-pass path below
    only runs on a matrix that fails them, to name the first bad entry.
    """
    if isinstance(value, list) and len(value) <= max_dim and all(
            isinstance(row, list) and len(row) <= max_dim
            and {int}.issuperset(map(type, row)) and {0, 1}.issuperset(row)
            for row in value) and len(set(map(len, value))) <= 1:
        return value
    _expect_int_matrix(value, path, max_rows=max_dim, max_cols=max_dim)
    for i, row in enumerate(value):
        _expect_bits(row, f"{path}[{i}]")
    return value


def _expect_names(value, path):
    if not isinstance(value, list) or any(not isinstance(x, str) or not x for x in value):
        _fail(path, "expected a list of nonempty generator names")
    _expect_at_most(value, MAX_GENERATORS, path, "generators")
    if len(set(value)) != len(value):
        _fail(path, "duplicate generator names")
    return value


def _parse_presentation(obj, path) -> HomologyPresentation:
    _expect_object(obj, path, ("generators", "relations"),
                   "an object with generators/relations")
    names = _expect_names(obj.get("generators"), f"{path}.generators")
    relations = obj.get("relations", [])
    _expect_int_matrix(relations, f"{path}.relations", cols=len(names) if relations else None,
                       max_rows=MAX_RELATIONS)
    return HomologyPresentation(ngens=len(names), relations=tuple(map(tuple, relations)),
                                names=tuple(names))


def validate_document(doc: dict, path: str = "$") -> dict:
    """Structural validation with field-path diagnostics (ConfigError)."""
    _expect_object(doc, path, ("schema", "name", "smooth", "double_cover", "normal_crossing"),
                   "a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        _fail(f"{path}.schema", f"expected {SCHEMA_VERSION!r}")
    _expect_name(doc, path)

    if "smooth" in doc:
        spath = f"{path}.smooth"
        sm = _expect_object(doc["smooth"], spath, ("domain", "codomain", "i_star", "eta"),
                            "an object with domain/codomain/i_star/eta")
        dom = _parse_presentation(sm.get("domain"), f"{spath}.domain")
        cod = _parse_presentation(sm.get("codomain"), f"{spath}.codomain")
        _expect_int_matrix(sm.get("i_star"), f"{spath}.i_star",
                           rows=cod.ngens, cols=dom.ngens)
        _expect_bits(sm.get("eta"), f"{spath}.eta", length=dom.ngens)

    if "double_cover" in doc:
        dpath = f"{path}.double_cover"
        dc = _expect_object(doc["double_cover"], dpath, ("i_pullback", "eta_class"),
                            "an object with i_pullback/eta_class")
        mat = _expect_bit_matrix(dc.get("i_pullback"), f"{dpath}.i_pullback", MAX_COVER_DIM)
        _expect_bits(dc.get("eta_class"), f"{dpath}.eta_class", length=len(mat))

    if "normal_crossing" in doc:
        npath = f"{path}.normal_crossing"
        nc = _expect_object(doc["normal_crossing"], npath, ("strata",),
                            "an object with strata")
        strata = nc.get("strata")
        if not isinstance(strata, list):
            _fail(f"{npath}.strata", "expected a list of strata")
        _expect_at_most(strata, MAX_STRATA, f"{npath}.strata", "strata")
        tokens = 0
        for i, stratum in enumerate(strata):
            rep = _parse_stratum(stratum, f"{npath}.strata[{i}]")
            tokens += sum(len(word) or 1 for word in rep.kernel_words)
            if tokens > MAX_WORD_TOKENS:
                _fail(f"{npath}.strata[{i}].kernel_words",
                      f"more than {MAX_WORD_TOKENS} word tokens in the document")
    return doc


def _parse_stratum(obj, path):
    _expect_object(obj, path, ("name", "k", "generators", "monodromy", "kernel_words"),
                   "a stratum object")
    _expect_name(obj, path)
    k = obj.get("k")
    if type(k) is not int or k < 1:
        _fail(f"{path}.k", "expected a positive integer")
    if k > MAX_K:
        _fail(f"{path}.k", f"at most {MAX_K} allowed, got {k}")
    names = _expect_names(obj.get("generators"), f"{path}.generators")
    mono = obj.get("monodromy")
    if not isinstance(mono, dict) or set(mono) != set(names):
        _fail(f"{path}.monodromy", "expected one image per generator")
    images = {}
    for gen, image in mono.items():
        gpath = f"{path}.monodromy.{gen}"
        _expect_object(image, gpath, ("perm", "flips"), "an object with perm/flips")
        perm = image.get("perm", list(range(1, k + 1)))
        flips = _expect_bits(image.get("flips", [0] * k), f"{gpath}.flips", length=k)
        if (not isinstance(perm, list) or not {int}.issuperset(map(type, perm))
                or sorted(perm) != list(range(1, k + 1))):
            _fail(f"{gpath}.perm", f"expected a permutation of 1..{k} (1-based)")
        images[gen] = SignedPermutation(tuple(x - 1 for x in perm), tuple(flips))
    words = obj.get("kernel_words", [])
    if not isinstance(words, list):
        _fail(f"{path}.kernel_words", "expected a list of words")
    for i, word in enumerate(words):
        if not (isinstance(word, list) and {str}.issuperset(map(type, word))):
            # one type check per word; a str subclass is a token too
            if not isinstance(word, list) or any(not isinstance(tk, str) for tk in word):
                _fail(f"{path}.kernel_words[{i}]", "expected a list of generator tokens")
    unknown = {tk for tk in set().union(*words) if parse_token(tk)[0] not in images}
    if unknown:
        i, j, tk = next((i, j, tk) for i, word in enumerate(words)
                        for j, tk in enumerate(word) if tk in unknown)
        _fail(f"{path}.kernel_words[{i}][{j}]", f"unknown generator {parse_token(tk)[0]!r}")
    return MonodromyRep(images=images, kernel_words=tuple(map(tuple, words)), degree=k)


def load_document(source) -> dict:
    """Load and validate a decision document from a path or dict."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"decision input not found: {source}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"{source}: invalid JSON at line {err.lineno}, "
                              f"column {err.colno}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"{source}: not UTF-8 text") from None
        except ValueError as err:   # e.g. an integer past int's digit limit
            raise ConfigError(f"{source}: unreadable JSON: {err}") from None
        except RecursionError:
            raise ConfigError(f"{source}: JSON nested too deeply to read") from None
        except OSError as err:
            raise ConfigError(f"cannot read {source}: {err.strerror}") from None
    else:
        doc = source
    return validate_document(doc)


def _smooth_hom(doc) -> tuple:
    sm = doc.get("smooth")
    if sm is None:
        raise ConfigError("$.smooth: section required for the smooth decision")
    dom = _parse_presentation(sm["domain"], "$.smooth.domain")
    cod = _parse_presentation(sm["codomain"], "$.smooth.codomain")
    hom = IntHom(matrix=tuple(map(tuple, sm["i_star"])), domain=dom, codomain=cod)
    return hom, sm["eta"]


def decide_smooth(doc: dict):
    """Hausdorff integrability for a smooth divisor: (answer, witness)."""
    hom, eta = _smooth_hom(doc)
    generator = smooth_decision_witness(hom, eta)
    if generator is None:
        return True, None
    return False, {"kernel_generator": generator, "generators": list(hom.domain.names)}


def decide_double_cover(doc: dict):
    """Existence of a coorientation double cover: (answer, witness)."""
    dc = doc.get("double_cover")
    if dc is None:
        raise ConfigError("$.double_cover: section required for the cover decision")
    answer = double_cover_exists(dc["i_pullback"], dc["eta_class"])
    witness = None if answer else {"eta_class": dc["eta_class"]}
    return answer, witness


def decide_normal_crossing(doc: dict):
    """Hausdorff integrability for a normal-crossing divisor: (answer, witness)."""
    nc = doc.get("normal_crossing")
    if nc is None:
        raise ConfigError("$.normal_crossing: section required")
    reps = [_parse_stratum(stratum, f"$.normal_crossing.strata[{i}]")
            for i, stratum in enumerate(nc["strata"])]
    found = nc_decision_witness(reps)
    if found is None:
        return True, None
    idx, word, image = found
    return False, {"stratum": nc["strata"][idx].get("name", idx),
                   "word": list(word),
                   "image": {"perm": [x + 1 for x in image.perm],
                             "flips": list(image.flips)}}
