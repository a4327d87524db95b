import io
import json
import time

import pytest

from splitfields import documents as docs, structure
from splitfields.algebras import (
    cyclic_group_algebra,
    diagonal_algebra,
    field_algebra,
)
from splitfields.basechange import extend_algebra
from splitfields.cli import main
from splitfields.corpus import bundled_algebras
from splitfields.errors import BadParams, TooLarge
from splitfields.fields import (
    adjoin_root,
    embed_find,
    finite_field,
    finite_field_of_degree,
    number_field,
    prime_field,
    rationals,
)
from splitfields.linalg import Matrix
from splitfields.modules import Module
from splitfields.structure import composition_factors

DATA = "src/splitfields/data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.startswith("{") else out)


def test_validate_bundled(capsys):
    code, doc = run(capsys, "validate", f"{DATA}/mat2_QQ.json")
    assert code == 0 and doc["payload"]["valid"]


def test_validate_corrupted_exits_2(tmp_path, capsys):
    doc = docs.algebra_out(bundled_algebras()["mat2_QQ"])
    doc["payload"]["constants"][0] = "1/2"  # breaks the unit law
    path = tmp_path / "bad.json"
    path.write_text(docs.dumps(doc))
    code = main(["validate", str(path)])
    assert code == 2


def test_split_check_verdicts(capsys):
    code, doc = run(capsys, "split-check", f"{DATA}/mat2_QQ.json")
    assert code == 0 and doc["payload"]["verdict"] is True
    code, doc = run(capsys, "split-check", f"{DATA}/quat_QQ.json")
    assert code == 1 and doc["payload"]["verdict"] is False


def test_split_find_quaternions(capsys):
    code, doc = run(capsys, "split-find", f"{DATA}/quat_QQ.json")
    assert code == 0
    assert doc["payload"]["degree"] == 2
    assert doc["payload"]["certificate"]["verdict"] is True


def test_split_find_degree_cap(capsys):
    code, doc = run(capsys, "split-find", f"{DATA}/quat_QQ.json",
                    "--max-degree", "1")
    assert code == 3


def test_radical_and_simples(capsys):
    code, doc = run(capsys, "radical", f"{DATA}/upper2_QQ.json")
    assert code == 0 and doc["payload"]["dim_radical"] == 1
    code, doc = run(capsys, "simples", f"{DATA}/cyclic3_QQ.json")
    dims = sorted((s["module"]["dim"], s["multiplicity"])
                  for s in doc["payload"]["simples"])
    assert code == 0 and dims == [(1, 1), (2, 1)]


def test_end_dimension(capsys):
    code, doc = run(capsys, "end", f"{DATA}/cyclic2_QQ.json")
    assert code == 0 and doc["payload"]["dim"] == 2


def test_extend_then_split_check(tmp_path, capsys):
    code, doc = run(capsys, "extend", f"{DATA}/cyclic4_QQ.json",
                    "--field", f"{DATA}/field_QQ_i.json")
    assert code == 0
    path = tmp_path / "ext.json"
    path.write_text(docs.dumps(doc))
    code, doc = run(capsys, "split-check", str(path))
    assert code == 0 and doc["payload"]["verdict"] is True


def test_extend_a_module_document(tmp_path, capsys):
    # the base change of the regular module is the regular module of A^F
    path = tmp_path / "regular.json"
    A = cyclic_group_algebra(4, rationals())
    path.write_text(docs.dumps(docs.module_out(A.regular_module())))
    code, doc = run(capsys, "extend", str(path),
                    "--field", f"{DATA}/field_QQ_i.json")
    assert code == 0
    kind, V = docs.parse_any(docs.dumps(doc))
    code, doc = run(capsys, "extend", f"{DATA}/cyclic4_QQ.json",
                    "--field", f"{DATA}/field_QQ_i.json")
    assert code == 0
    _, B = docs.parse_any(docs.dumps(doc))
    assert kind == "module" and V == B.regular_module()


def test_descend_and_written_in(tmp_path, capsys):
    A = bundled_algebras()["cyclic3_F2"]
    F4 = finite_field_of_degree(2, 2)
    ctx = extend_algebra(A, embed_find(prime_field(2), F4))
    S = next(S for S, _ in
             composition_factors(ctx.extended.regular_module()) if S.dim == 1
             and any(c != F4.one() and bool(c)
                     for m in S.actions for r in m.entries for c in r))
    path = tmp_path / "simple.json"
    path.write_text(docs.dumps(docs.module_out(S)))

    code, doc = run(capsys, "descend", str(path),
                    "--algebra", f"{DATA}/cyclic3_F2.json")
    assert code == 0 and doc["payload"]["degree"] == 2

    code, doc = run(capsys, "written-in", str(path),
                    "--algebra", f"{DATA}/cyclic3_F2.json",
                    "--subfield", f"{DATA}/field_F2.json")
    assert code == 1 and doc["payload"]["writable"] is False

    code, doc = run(capsys, "written-in", str(path),
                    "--algebra", f"{DATA}/cyclic3_F2.json",
                    "--subfield", f"{DATA}/field_F4.json")
    assert code == 0 and doc["payload"]["writable"] is True


def test_written_in_names_the_embedding_it_descends_along(tmp_path, capsys):
    # E = QQ(cbrt2) inside F = E(omega) is not normal: of the three simples
    # of (E as a QQ-algebra)^F, on which cbrt2 acts as c, omega c and
    # omega^2 c, only the one of embed_find(E, F) is written in E along it
    E = number_field([-2, 0, 0, 1])
    F, emb_top, omega = adjoin_root(E, [E.one(), E.one(), E.one()])
    A = field_algebra(E)
    A_F = extend_algebra(A, embed_find(rationals(), F)).extended
    c = emb_top.apply(E.generator())
    algebra, subfield = tmp_path / "algebra.json", tmp_path / "subfield.json"
    algebra.write_text(docs.dumps(docs.algebra_out(A)))
    subfield.write_text(docs.dumps(docs.field_out(E)))
    used = docs.embedding_out(embed_find(E, F))
    codes = []
    for t in (c, omega * c, omega * omega * c):
        module = tmp_path / "module.json"
        module.write_text(docs.dumps(docs.module_out(
            Module(A_F, 1, [Matrix(F, 1, 1, [[t ** i]]) for i in range(3)]))))
        code, doc = run(capsys, "written-in", str(module), "--algebra",
                        str(algebra), "--subfield", str(subfield))
        assert doc["payload"]["embedding"] == used
        codes.append(code)
    assert sorted(codes) == [0, 1, 1]


IDENTITY_F4 = [[[1, 0] if i == j else [0, 0] for j in range(4)]
               for i in range(4)]


@pytest.mark.parametrize("rows", [
    [1, 2, 3, 4],                                  # rows that are not vectors
    [row[:3] for row in IDENTITY_F4],              # shorter than dim V
    [row + [[0, 0]] for row in IDENTITY_F4],       # longer than dim V
])
def test_written_in_rejects_a_malformed_basis(tmp_path, capsys, rows):
    F4 = finite_field_of_degree(2, 2)
    A = bundled_algebras()["mat2_F2"]
    V = extend_algebra(A, embed_find(prime_field(2), F4)).extended.regular_module()
    module = tmp_path / "module.json"
    module.write_text(docs.dumps(docs.module_out(V)))
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(rows))
    code = main(["written-in", str(module), "--algebra", f"{DATA}/mat2_F2.json",
                 "--subfield", f"{DATA}/field_F4.json", "--basis", str(basis)])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_chain_verify(capsys):
    code, doc = run(capsys, "chain-verify", f"{DATA}/cyclic3_F2.json",
                    "--mid", f"{DATA}/field_F4.json",
                    "--top", f"{DATA}/field_F16.json")
    assert code == 0 and doc["payload"]["agree"] is True


def test_radical_extend_verify(capsys):
    code, doc = run(capsys, "radical-extend-verify", f"{DATA}/cyclic2_F2.json",
                    "--field", f"{DATA}/field_F4.json")
    assert code == 0 and doc["payload"]["verdict"] is True


def test_oracle_compare_small(capsys):
    code, doc = run(capsys, "oracle-compare", "--count", "3")
    assert code == 0 and doc["payload"]["mismatches"] == []


def test_json_boolean_scalar_exits_2(tmp_path):
    doc = docs.algebra_out(cyclic_group_algebra(2, prime_field(3)))
    doc["payload"]["constants"][0] = True  # was 1: the algebra is unchanged
    path = tmp_path / "bool.json"
    path.write_text(docs.dumps(doc))
    assert main(["validate", str(path)]) == 2


def test_json_boolean_characteristic_exits_2(tmp_path):
    doc = docs.field_out(rationals())
    doc["payload"]["characteristic"] = False  # was 0
    path = tmp_path / "bool.json"
    path.write_text(docs.dumps(doc))
    assert main(["validate", str(path)]) == 2


def test_json_boolean_module_dim_exits_2(tmp_path):
    Q = rationals()
    A = cyclic_group_algebra(2, Q)
    trivial = Module(A, 1, [Matrix.identity(Q, 1)] * 2)
    doc = docs.module_out(trivial)
    path = tmp_path / "trivial.json"
    path.write_text(docs.dumps(doc))
    assert main(["validate", str(path)]) == 0
    doc["payload"]["dim"] = True  # was 1
    path.write_text(docs.dumps(doc))
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("scalar, valid", [
    ("1/2", True), ("1/1000", True),
    (" 1/2 ", False), ("1e-3", False), ("0.5", False),
    # Fraction would expand these exponents before any other check
    ("1e5000", False), ("1e999999999", False)])
def test_only_canonical_rationals_parse(tmp_path, scalar, valid):
    # x^2 + c is irreducible over QQ for every c > 0
    doc = docs.field_out(number_field([1, 0, 1]))
    doc["payload"]["modulus"][0] = scalar
    path = tmp_path / "field.json"
    path.write_text(docs.dumps(doc))
    assert main(["validate", str(path)]) == (0 if valid else 2)


@pytest.mark.parametrize("canonical, other", [
    ("1/2", "2/4"), ("0", "-0"), ("7", "007"), ("-1/3", "-2/6"), ("5", "5/1")])
def test_non_canonical_rationals_exit_2(tmp_path, canonical, other):
    # x^2 + c x + 1 is irreducible over QQ for each c here (c^2 - 4 is no square)
    doc = docs.field_out(number_field([1, 0, 1]))
    path = tmp_path / "field.json"
    for scalar, code in ((canonical, 0), (other, 2)):
        doc["payload"]["modulus"][1] = scalar
        path.write_text(docs.dumps(doc))
        assert main(["validate", str(path)]) == code


def test_large_prime_field(tmp_path):
    prime_field(3)  # imports sympy before the clock starts
    t0 = time.perf_counter()
    F = prime_field(2**61 - 1)
    assert time.perf_counter() - t0 < 1
    with pytest.raises(BadParams):
        prime_field(2**61 + 1)
    path = tmp_path / "line.json"
    path.write_text(docs.dumps(docs.algebra_out(diagonal_algebra(1, F))))
    assert main(["validate", str(path)]) == 0


def test_extension_of_a_large_prime_field_is_too_large(tmp_path):
    # x^2 + 3 over GF(2^61 - 1): trial division would need p candidate divisors
    p = 2**61 - 1
    with pytest.raises(TooLarge):
        finite_field(p, [3, 0, 1])
    doc = docs.document("field", {"kind": "finite_field", "characteristic": p,
                                  "modulus": [3, 0, 1]})
    path = tmp_path / "field.json"
    path.write_text(docs.dumps(doc))
    t0 = time.perf_counter()
    assert main(["validate", str(path)]) == 2
    assert time.perf_counter() - t0 < 1


def test_a_document_is_read_from_stdin(monkeypatch, capsys):
    path = f"{DATA}/upper2_QQ.json"
    assert main(["radical", path]) == 0
    from_file = capsys.readouterr().out
    with open(path, encoding="utf-8") as fh:
        monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
    assert main(["radical", "-"]) == 0
    assert capsys.readouterr().out == from_file


def test_an_inconclusive_search_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(structure, "_MEATAXE_ATTEMPTS", 0)
    monkeypatch.setattr(structure, "_ORACLE_BOUND", 2)
    assert main(["simples", f"{DATA}/gf4_over_F2.json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("inconclusive: ")


def test_missing_file_exits_2(capsys):
    assert main(["validate", "no_such_file.json"]) == 2


def test_outputs_are_byte_identical(capsys):
    main(["simples", f"{DATA}/cyclic4_F2.json", "--seed", "7"])
    first = capsys.readouterr().out
    main(["simples", f"{DATA}/cyclic4_F2.json", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second
