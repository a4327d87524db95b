"""Command-line interface.

Documents travel as JSON on file paths or stdin ("-"); outputs go to stdout.
Exit codes: 0 success or true verdict, 1 false verdict, 2 input error,
3 inconclusive or unknown, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import documents as docs
from .basechange import descend_module, extend_algebra, extend_module, write_in
from .errors import (
    DegreeCapExceeded,
    Inconclusive,
    InputError,
    InternalInvariantError,
    NoEmbedding,
    NotOverE,
    PreconditionFailed,
    SplitfieldsError,
)
from .fields import embed_find
from .modules import end_algebra
from .structure import (
    composition_factors,
    oracle_composition_series_dims,
    radical,
    simple_modules,
)
from .splitting import (
    find_splitting_field,
    is_split,
    verify_chain_theorem,
    verify_split_radical,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_INVARIANT = 4


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit(doc):
    sys.stdout.write(docs.dumps(doc))


def _load_algebra(path):
    kind, obj = docs.parse_any(_read(path))
    if kind != "algebra":
        raise InputError(f"{path}: expected an algebra document, got {kind}")
    return obj


def _load_module(path):
    kind, obj = docs.parse_any(_read(path))
    if kind == "module":
        return obj
    if kind == "algebra":
        return obj.regular_module()
    raise InputError(f"{path}: expected a module or algebra document")


def _load_field(path):
    kind, obj = docs.parse_any(_read(path))
    if kind != "field":
        raise InputError(f"{path}: expected a field document, got {kind}")
    return obj


def _rows_out(rows):
    return [[docs.element_out(c) for c in row] for row in rows]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    kind, obj = docs.parse_any(_read(args.document))
    _emit(docs.report_out("validate", {"document_kind": kind, "valid": True}))
    return EXIT_TRUE


def cmd_radical(args):
    A = _load_algebra(args.algebra)
    rows = radical(A, seed=args.seed)
    _emit(docs.report_out("radical", {
        "dim_algebra": A.dim,
        "dim_radical": len(rows),
        "basis": _rows_out(rows),
    }))
    return EXIT_TRUE


def cmd_simples(args):
    A = _load_algebra(args.algebra)
    entries = simple_modules(A, seed=args.seed).entries
    _emit(docs.report_out("simples", {
        "count": len(entries),
        "simples": [{
            "multiplicity": m,
            "module": docs.module_out(S)["payload"],
        } for S, m in entries],
    }))
    return EXIT_TRUE


def cmd_end(args):
    M = _load_module(args.module)
    E, hom = end_algebra(M)
    _emit(docs.report_out("end", {
        "dim": E.dim,
        "basis": [_rows_out(f.entries) for f in hom.mats],
    }))
    return EXIT_TRUE


def cmd_extend(args):
    F = _load_field(args.field)
    kind, obj = docs.parse_any(_read(args.document))
    if kind == "algebra":
        emb = embed_find(obj.field, F)
        _emit(docs.algebra_out(extend_algebra(obj, emb).extended))
    elif kind == "module":
        emb = embed_find(obj.algebra.field, F)
        ctx = extend_algebra(obj.algebra, emb)
        _emit(docs.module_out(extend_module(obj, ctx)))
    else:
        raise InputError("extend needs an algebra or module document")
    return EXIT_TRUE


def _extension_context(base_path, module):
    A = _load_algebra(base_path)
    emb = embed_find(A.field, module.algebra.field)
    ctx = extend_algebra(A, emb)
    if ctx.extended != module.algebra:
        raise InputError("the module is not over the extension of the base algebra")
    return ctx


def cmd_descend(args):
    V = _load_module(args.module)
    ctx = _extension_context(args.algebra, V)
    descent = descend_module(ctx, V)
    _emit(docs.report_out("descend", {
        "subfield": docs.field_out(descent.subfield)["payload"],
        "degree": descent.subfield.degree,
        "module": docs.module_out(descent.module)["payload"],
    }))
    return EXIT_TRUE


def cmd_written_in(args):
    V = _load_module(args.module)
    ctx = _extension_context(args.algebra, V)
    E = _load_field(args.subfield)
    emb_up = embed_find(E, ctx.emb.target)
    basis = None
    if args.basis:
        payload = json.loads(_read(args.basis))
        if not isinstance(payload, list) \
                or not all(isinstance(row, list) for row in payload):
            raise InputError("a basis file holds a JSON list of vectors")
        field = ctx.emb.target
        basis = [tuple(docs.element_in(e, field, "basis") for e in row)
                 for row in payload]
    try:
        descent = write_in(ctx, V, emb_up, basis=basis)
    except NotOverE as exc:
        _emit(docs.report_out("written-in", {
            "writable": False,
            "embedding": docs.embedding_out(emb_up),
            "reason": str(exc),
        }))
        return EXIT_FALSE
    _emit(docs.report_out("written-in", {
        "writable": True,
        "embedding": docs.embedding_out(emb_up),
        "module": docs.module_out(descent.module)["payload"],
    }))
    return EXIT_TRUE


def cmd_split_check(args):
    A = _load_algebra(args.algebra)
    rep = is_split(A, seed=args.seed)
    _emit(docs.split_report_out(rep))
    return EXIT_TRUE if rep.verdict else EXIT_FALSE


def cmd_split_find(args):
    A = _load_algebra(args.algebra)
    try:
        res = find_splitting_field(A, max_degree=args.max_degree, seed=args.seed)
    except DegreeCapExceeded as exc:
        _emit(docs.report_out("split-find", {"found": False, "reason": str(exc)}))
        return EXIT_UNKNOWN
    _emit(docs.splitting_result_out(res))
    return EXIT_TRUE


def cmd_chain_verify(args):
    A = _load_algebra(args.algebra)
    E = _load_field(args.mid)
    F = _load_field(args.top)
    emb_mid = embed_find(A.field, E)
    emb_top = embed_find(E, F)
    rep = verify_chain_theorem(A, emb_mid, emb_top, seed=args.seed)
    _emit(docs.report_out("chain-verify", {
        "splitting_over_mid": rep.side_mid,
        "splitting_over_top_with_descent": rep.side_top,
        "decisive": rep.decisive,
        "agree": rep.agree,
    }))
    if not rep.decisive:
        return EXIT_UNKNOWN
    return EXIT_TRUE


def cmd_radical_extend_verify(args):
    A = _load_algebra(args.algebra)
    F = _load_field(args.field)
    emb = embed_find(A.field, F)
    ok = verify_split_radical(A, emb, seed=args.seed)
    _emit(docs.report_out("radical-extend-verify", {"verdict": ok}))
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_oracle_compare(args):
    from . import corpus

    mismatches = []
    total = 0
    for p in (2, 3):
        for M in corpus.random_modules(p, args.count, args.seed):
            oracle_dims = sorted(oracle_composition_series_dims(M))
            dims = sorted(S.dim for S, m in composition_factors(M, seed=args.seed)
                          for _ in range(m))
            total += 1
            if dims != oracle_dims:
                mismatches.append({"p": p, "dim": M.dim,
                                   "structure": dims, "oracle": oracle_dims})
    _emit(docs.report_out("oracle-compare", {
        "modules": total,
        "mismatches": mismatches,
    }))
    if mismatches:
        raise InternalInvariantError(
            f"{len(mismatches)} composition-series mismatches against the oracle")
    return EXIT_TRUE


def cmd_selftest(args):
    from .acceptance import run_all

    results = run_all(seed=args.seed)
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return EXIT_TRUE if ok else EXIT_FALSE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="splitfields",
        description="Exact computations with split algebras and splitting fields.")
    parser.add_argument("--format-version", default="1", choices=["1"],
                        help="document format version (pinned at 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized search paths")
        return p

    p = add("validate", cmd_validate, help="check a document and its axioms")
    p.add_argument("document")

    p = add("radical", cmd_radical, help="Jacobson radical basis of an algebra")
    p.add_argument("algebra")

    p = add("simples", cmd_simples,
            help="simple modules with multiplicities in the regular module")
    p.add_argument("algebra")

    p = add("end", cmd_end, help="endomorphism algebra of a module")
    p.add_argument("module")

    p = add("extend", cmd_extend, help="base change to a larger field")
    p.add_argument("document")
    p.add_argument("--field", required=True, help="target field document")

    p = add("descend", cmd_descend,
            help="rewrite a module over the subfield its entries generate")
    p.add_argument("module")
    p.add_argument("--algebra", required=True, help="base algebra document")

    p = add("written-in", cmd_written_in,
            help="test whether a module can be written over a given subfield")
    p.add_argument("module")
    p.add_argument("--algebra", required=True, help="base algebra document")
    p.add_argument("--subfield", required=True, help="subfield document")
    p.add_argument("--basis", help="optional change-of-basis matrix (JSON rows)")

    p = add("split-check", cmd_split_check,
            help="is every simple module absolutely simple?")
    p.add_argument("algebra")

    p = add("split-find", cmd_split_find,
            help="construct a finite-degree splitting field")
    p.add_argument("algebra")
    p.add_argument("--max-degree", type=int, default=None)

    p = add("chain-verify", cmd_chain_verify,
            help="check both sides of the intermediate-field equivalence")
    p.add_argument("algebra")
    p.add_argument("--mid", required=True, help="intermediate field document")
    p.add_argument("--top", required=True, help="top field document")

    p = add("radical-extend-verify", cmd_radical_extend_verify,
            help="check (Rad A)^F = Rad A^F for a split algebra")
    p.add_argument("algebra")
    p.add_argument("--field", required=True, help="extension field document")

    p = add("oracle-compare", cmd_oracle_compare,
            help="composition factors vs the exhaustive oracle on random modules")
    p.add_argument("--count", type=int, default=25,
                   help="modules per prime (2 and 3)")

    add("selftest", cmd_selftest, help="run the full acceptance suite")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, PreconditionFailed, NoEmbedding) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (Inconclusive, DegreeCapExceeded) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except SplitfieldsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
