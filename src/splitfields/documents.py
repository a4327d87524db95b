"""JSON document format for fields, algebras, modules and reports.

Every scalar is exact: rational coordinates are strings like "3/4" and
characteristic-p coordinates are plain integers.  An element of a degree-1
field is a bare scalar; an element of an extension is the little-endian list
of its coordinates over the prime base.  Serialization is round-trip stable:
the parser takes a rational string only in the form the writer produces
(lowest terms, no sign on zero, no leading zeros), and it rejects unknown
keys.  Every algebra and module document is validated as it is parsed
(``algebra_validate``, ``module_validate``); there is no way to skip it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InputError
from .fields import (
    finite_field,
    number_field,
    prime_field,
    rationals,
)
from .algebras import Algebra, algebra_validate
from .linalg import Matrix
from .modules import Module, module_validate

FORMAT_VERSION = "1"

# digits, an optional sign and an optional denominator, checked before Fraction
# sees the string: Fraction also takes " 1/2 " and "1e-3", and it evaluates an
# exponent eagerly, so "1e999999999" would cost minutes and hundreds of MB
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

_KINDS = ("field", "algebra", "module", "report")


def dumps(doc):
    return json.dumps(doc, indent=2) + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("a document must be a JSON object")
    _check_keys(doc, ("format_version", "kind", "payload"), "document")
    if doc.get("format_version") != FORMAT_VERSION:
        raise InputError(f"unsupported format_version {doc.get('format_version')!r}")
    if doc.get("kind") not in _KINDS:
        raise InputError(f"unknown document kind {doc.get('kind')!r}")
    if not isinstance(doc.get("payload"), dict):
        raise InputError("payload must be a JSON object")
    return doc


def document(kind, payload):
    return {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}


def _check_keys(d, allowed, where):
    if not isinstance(d, dict):
        raise InputError(f"{where} must be a JSON object")
    extra = set(d) - set(allowed)
    if extra:
        raise InputError(f"unknown keys in {where}: {sorted(extra)}")
    missing = [k for k in allowed if k not in d]
    if missing:
        raise InputError(f"missing keys in {where}: {missing}")


# ---------------------------------------------------------------------------
# scalars and elements
# ---------------------------------------------------------------------------

def _scalar_out(c, characteristic):
    if characteristic:
        return c
    return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _scalar_in(v, characteristic, where):
    if characteristic:
        # JSON true/false parse to bool, a subclass of int, and are no scalars
        if isinstance(v, bool) or not isinstance(v, int) \
                or not 0 <= v < characteristic:
            raise InputError(f"{where}: expected an integer in [0, {characteristic})")
        return v
    if not isinstance(v, str):
        raise InputError(f"{where}: rational scalars must be exact strings")
    if not _RATIONAL.fullmatch(v):
        raise InputError(f"{where}: cannot parse rational {v!r}")
    try:
        c = Fraction(v)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{where}: cannot parse rational {v!r}") from None
    # only the form _scalar_out writes, so that documents round-trip byte for
    # byte; the pattern alone still takes "2/4", "-0" and "007"
    if _scalar_out(c, 0) != v:
        raise InputError(f"{where}: rational {v!r} is not in the canonical form "
                         f"{_scalar_out(c, 0)!r}")
    return c


def element_out(a):
    F = a.field
    if F.degree == 1:
        return _scalar_out(a.coords[0], F.characteristic)
    return [_scalar_out(c, F.characteristic) for c in a.coords]


def element_in(v, F, where):
    if F.degree == 1:
        return F.element([_scalar_in(v, F.characteristic, where)])
    if not isinstance(v, list) or len(v) != F.degree:
        raise InputError(f"{where}: expected a coordinate list of length {F.degree}")
    return F.element([_scalar_in(c, F.characteristic, where) for c in v])


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def field_out(F):
    payload = {
        "kind": F.kind,
        "characteristic": F.characteristic,
        "modulus": None if F.modulus is None
        else [_scalar_out(c, F.characteristic) for c in F.modulus],
    }
    return document("field", payload)


def field_in(doc):
    payload = doc["payload"]
    _check_keys(payload, ("kind", "characteristic", "modulus"), "field payload")
    p = payload["characteristic"]
    if isinstance(p, bool) or not isinstance(p, int) or p < 0:
        raise InputError("characteristic must be a non-negative integer")
    mod = payload["modulus"]
    try:
        if mod is None:
            F = prime_field(p) if p else rationals()
        else:
            coeffs = [_scalar_in(c, p, "field modulus") for c in mod]
            F = finite_field(p, coeffs) if p else number_field(coeffs)
    except Exception as exc:
        raise InputError(f"bad field: {exc}") from None
    if F.kind != payload["kind"]:
        raise InputError(f"field kind {payload['kind']!r} does not match the data")
    return F


# ---------------------------------------------------------------------------
# algebras and modules
# ---------------------------------------------------------------------------

def algebra_out(A):
    flat = [element_out(A.constants[i][j][k])
            for i in range(A.dim) for j in range(A.dim) for k in range(A.dim)]
    payload = {
        "field": field_out(A.field)["payload"],
        "labels": list(A.basis_labels),
        "constants": flat,
        "unit": [element_out(c) for c in A.unit],
    }
    return document("algebra", payload)


def algebra_in(doc):
    payload = doc["payload"]
    _check_keys(payload, ("field", "labels", "constants", "unit"), "algebra payload")
    F = field_in(document("field", payload["field"]))
    labels = payload["labels"]
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise InputError("labels must be a list of strings")
    dim = len(labels)
    flat = payload["constants"]
    if not isinstance(flat, list) or len(flat) != dim ** 3:
        raise InputError(f"constants must hold exactly {dim ** 3} scalars")
    consts = tuple(
        tuple(
            tuple(element_in(flat[(i * dim + j) * dim + k], F,
                             f"constant ({i},{j},{k})")
                  for k in range(dim))
            for j in range(dim))
        for i in range(dim))
    unit = payload["unit"]
    if not isinstance(unit, list) or len(unit) != dim:
        raise InputError(f"unit must hold exactly {dim} coordinates")
    unit = tuple(element_in(c, F, "unit") for c in unit)
    A = Algebra(F, dim, tuple(labels), consts, unit)
    report = algebra_validate(A)
    if report is not None:
        raise InputError(f"invalid algebra: {report}")
    return A


def module_out(M):
    payload = {
        "algebra": algebra_out(M.algebra)["payload"],
        "dim": M.dim,
        "actions": [[[element_out(e) for e in row] for row in m.entries]
                    for m in M.actions],
    }
    return document("module", payload)


def module_in(doc):
    payload = doc["payload"]
    _check_keys(payload, ("algebra", "dim", "actions"), "module payload")
    A = algebra_in(document("algebra", payload["algebra"]))
    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise InputError("module dim must be a non-negative integer")
    actions = payload["actions"]
    if not isinstance(actions, list) or len(actions) != A.dim:
        raise InputError(f"expected {A.dim} action matrices")
    mats = []
    for idx, rows in enumerate(actions):
        if not isinstance(rows, list) or len(rows) != dim or \
                any(not isinstance(r, list) or len(r) != dim for r in rows):
            raise InputError(f"action {idx} is not a {dim}x{dim} matrix")
        mats.append(Matrix(A.field, dim, dim,
                           [[element_in(e, A.field, f"action {idx}") for e in row]
                            for row in rows]))
    M = Module(A, dim, tuple(mats))
    report = module_validate(M)
    if report is not None:
        raise InputError(f"invalid module: {report}")
    return M


def parse_any(text):
    """(kind, object) for a field, algebra or module document."""
    doc = loads(text)
    kind = doc["kind"]
    if kind == "field":
        return kind, field_in(doc)
    if kind == "algebra":
        return kind, algebra_in(doc)
    if kind == "module":
        return kind, module_in(doc)
    raise InputError("expected a field, algebra or module document")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def report_out(name, body):
    payload = {"report": name}
    payload.update(body)
    return document("report", payload)


def embedding_out(emb):
    return {
        "source": field_out(emb.source)["payload"],
        "target": field_out(emb.target)["payload"],
        "generator_image": element_out(emb.generator_image),
    }


def split_report_out(rep):
    return report_out("split-check", {
        "verdict": rep.verdict,
        "simples": [{
            "dim": e.module.dim,
            "multiplicity": e.multiplicity,
            "dim_end": e.dim_end,
            "image_rank": e.image_rank,
            "absolutely_simple": e.absolutely_simple,
        } for e in rep.per_simple],
    })


def splitting_result_out(res):
    return report_out("split-find", {
        "degree": res.degree,
        "iterations": res.iterations,
        "field": field_out(res.final_field)["payload"],
        "embedding": embedding_out(res.embedding),
        "tower": [embedding_out(s) for s in res.tower],
        "certificate": split_report_out(res.certificate)["payload"],
    })
