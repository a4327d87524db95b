"""Golden values of the field layer.

``golden_fields.json`` freezes canonical fields of each small order, the
inverse of elements of finite and number fields, preimages under embeddings
(including elements outside the image) and the fields built by adjoining a
root over a number field.  Each value is unique (an inverse, a preimage, a
minimal polynomial, the lexicographically least modulus), so any rewrite of
the arithmetic underneath must reproduce them exactly.  The data file is
written from the current code by

    PYTHONPATH=src python tests/test_golden_fields.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from splitfields.fields import (
    adjoin_root,
    embed_find,
    embedding_preimage,
    finite_field_of_degree,
    number_field,
    prime_field,
    rationals,
)

GOLDEN = Path(__file__).resolve().parent / "golden_fields.json"

ORDERS = [(2, m) for m in range(1, 9)] + [(3, m) for m in range(1, 6)] + \
    [(5, 1), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)]

NUMBER_FIELDS = {
    "QQ(i)": [1, 0, 1],
    "QQ(zeta3)": [1, 1, 1],
    "QQ(cbrt2)": [-2, 0, 0, 1],
    "QQ(4rt2)": [-2, 0, 0, 0, 1],
}

# monic quadratics over a number field, coefficients as coordinate lists
QUADRATICS = {
    "QQ(i)": [
        [[-2], [], [1]],            # x^2 - 2
        [[-3], [], [1]],            # x^2 - 3
        [[1], [1], [1]],            # x^2 + x + 1
        [[0, -1], [], [1]],         # x^2 - i
        [[-1, -1], [], [1]],        # x^2 - (1 + i)
    ],
    "QQ(zeta3)": [
        [[1], [], [1]],             # x^2 + 1
        [[-2], [], [1]],            # x^2 - 2
        [[0, -2], [], [1]],         # x^2 - 2 zeta3
        [[-3], [1], [1]],           # x^2 + x - 3
    ],
}


def _out(elem):
    return None if elem is None else [str(c) for c in elem.coords]


def _random_element(F, rng):
    return F.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(F.degree)])


def _quadratic(F, coords):
    return [F.element(c) for c in coords]


def canonical_fields():
    return [{"p": p, "m": m, "modulus": list(finite_field_of_degree(p, m).modulus
                                              or [])}
            for p, m in ORDERS]


def finite_inverses():
    out = {}
    for p, m in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)]:
        F = finite_field_of_degree(p, m)
        out[f"GF({p}^{m})"] = [[_out(a), _out(a.inverse())]
                               for a in F.elements() if a]
    return out


def number_field_inverses():
    rng = random.Random(5)
    out = {}
    for name, modulus in NUMBER_FIELDS.items():
        F = number_field(modulus)
        elems = [F.generator(), F.one() + F.generator()]
        elems += [_random_element(F, rng) for _ in range(12)]
        out[name] = [[_out(a), _out(a.inverse())] for a in elems if a]
    return out


def preimages():
    rng = random.Random(7)
    F2, F4, F16 = prime_field(2), finite_field_of_degree(2, 2), \
        finite_field_of_degree(2, 4)
    out = {}
    for name, emb in (("F4->F16", embed_find(F4, F16)),
                      ("F2->F16", embed_find(F2, F16))):
        out[name] = [[_out(b), _out(embedding_preimage(emb, b))]
                     for b in F16.elements()]
    QQ, Qi = rationals(), number_field([1, 0, 1])
    emb = embed_find(QQ, Qi)
    cases = [Qi.from_base(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
             for _ in range(4)]
    cases += [_random_element(Qi, rng) for _ in range(4)] + [Qi.generator()]
    out["QQ->QQ(i)"] = [[_out(b), _out(embedding_preimage(emb, b))]
                        for b in cases]
    E2, emb, root = adjoin_root(Qi, _quadratic(Qi, QUADRATICS["QQ(i)"][0]))
    i = emb.apply(Qi.generator())
    cases = [emb.apply(_random_element(Qi, rng)) for _ in range(4)]
    cases += [root, root * i, root + i, E2.one(), E2.zero()]
    cases += [_random_element(E2, rng) for _ in range(3)]
    out["QQ(i)->QQ(i,sqrt2)"] = [[_out(b), _out(embedding_preimage(emb, b))]
                                 for b in cases]
    return out


def adjoined_roots():
    out = []
    for name, quadratics in QUADRATICS.items():
        E = number_field(NUMBER_FIELDS[name])
        for coords in quadratics:
            E2, emb, root = adjoin_root(E, _quadratic(E, coords))
            out.append({"base": name, "g": coords,
                        "modulus": [str(c) for c in E2.modulus],
                        "generator_image": _out(emb.generator_image),
                        "root": _out(root)})
    return out


SECTIONS = {
    "canonical_fields": canonical_fields,
    "finite_inverses": finite_inverses,
    "number_field_inverses": number_field_inverses,
    "preimages": preimages,
    "adjoined_roots": adjoined_roots,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("section", SECTIONS)
def test_field_values_are_unchanged(section, golden):
    # through JSON, so tuples and lists compare alike
    assert json.loads(json.dumps(SECTIONS[section]())) == golden[section]


if __name__ == "__main__":
    data = {name: make() for name, make in SECTIONS.items()}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
