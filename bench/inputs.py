"""Seeded inputs: structure-constant tables, changes of basis, JSON documents.

The tables are written out here from their textbook definitions rather than
taken from the library's constructors, and every input is the image of a
standard algebra under a seeded change of basis.  Isomorphic inputs share
their answers, so the reference answers stay known while no two inputs of a
run coincide.  Over QQ the change of basis is monomial (a permutation times
nonzero rational scalings), which keeps the tables as sparse as the standard
ones and the job costs steady.  Over GF(p) it is a dense invertible matrix
up to dimension 8 and monomial above, where a dense basis would make the
81-unknown hom-space systems of M_3 some twenty times slower.
"""

from __future__ import annotations

import json
from fractions import Fraction

from reference import rank, rref


# ---------------------------------------------------------------------------
# standard tables: C[i][j][l] is the coefficient of b_l in b_i * b_j
# ---------------------------------------------------------------------------

def _zeros(d):
    return [[[0] * d for _ in range(d)] for _ in range(d)]


def matrix_table(n):
    d = n * n
    C = _zeros(d)
    for a in range(n):
        for b in range(n):
            for e in range(n):
                C[a * n + b][b * n + e][a * n + e] = 1
    unit = [int(i % (n + 1) == 0) for i in range(d)]
    return C, unit


def cyclic_table(n):
    C = _zeros(n)
    for i in range(n):
        for j in range(n):
            C[i][j][(i + j) % n] = 1
    return C, [1] + [0] * (n - 1)


def quaternion_table(a, b):
    """Basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji."""
    C = _zeros(4)
    rules = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, a), (1, 2): (3, 1), (1, 3): (2, a),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, b), (2, 3): (1, -b),
        (3, 0): (3, 1), (3, 1): (2, -a), (3, 2): (1, b), (3, 3): (0, -a * b),
    }
    for (i, j), (l, c) in rules.items():
        C[i][j][l] = c
    return C, [1, 0, 0, 0]


def upper_table(n):
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    index = {pr: i for i, pr in enumerate(pairs)}
    C = _zeros(len(pairs))
    for (a, b), i in index.items():
        for (c, e), j in index.items():
            if b == c:
                C[i][j][index[(a, e)]] = 1
    unit = [int(a == b) for a, b in pairs]
    return C, unit, pairs


def diagonal_table(n):
    C = _zeros(n)
    for i in range(n):
        C[i][i][i] = 1
    return C, [1] * n


# ---------------------------------------------------------------------------
# changes of basis
# ---------------------------------------------------------------------------

def inverse(m, p=0):
    """Inverse of a square matrix over QQ (p = 0) or GF(p), or None."""
    n = len(m)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(m)], p)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def change_basis(C, unit, P, p=0):
    """The table in the basis f_i = sum_a P[a][i] b_a."""
    d = len(unit)
    Pinv = inverse(P, p)
    cols = [[(a, P[a][i]) for a in range(d) if P[a][i]] for i in range(d)]

    def to_new(w):
        out = [sum(Pinv[r][a] * w[a] for a in range(d) if w[a]) for r in range(d)]
        return [x % p for x in out] if p else out

    new = []
    for i in range(d):
        row = []
        for j in range(d):
            w = [0] * d
            for a, x in cols[i]:
                for b, y in cols[j]:
                    for l, c in enumerate(C[a][b]):
                        if c:
                            w[l] += x * y * c
            row.append(to_new(w))
        new.append(row)
    return new, to_new(unit)


def monomial_matrix(d, rng, p=0):
    """A permutation matrix with seeded nonzero scalings: small rationals
    over QQ (p = 0), units of GF(p) otherwise."""
    perm = list(range(d))
    rng.shuffle(perm)
    P = [[0] * d for _ in range(d)]
    for i, a in enumerate(perm):
        P[a][i] = rng.randrange(1, p) if p else \
            Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 2))
    return P


def random_invertible(d, p, rng):
    while True:
        P = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if rank(P, p) == d:
            return P


def apply_to_module(actions, P, p):
    """Module actions for the new basis f_i = sum_a P[a][i] b_a."""
    d = len(actions)
    n = len(actions[0])
    out = []
    for i in range(d):
        m = [[0] * n for _ in range(n)]
        for a in range(d):
            if P[a][i]:
                for r in range(n):
                    for c in range(n):
                        m[r][c] = (m[r][c] + P[a][i] * actions[a][r][c]) % p
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# JSON documents (format version 1)
# ---------------------------------------------------------------------------

def _rational(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


FIELD_QQ = {"kind": "rationals", "characteristic": 0, "modulus": None}
FIELD_QQ_I = {"kind": "number_field", "characteristic": 0, "modulus": ["1", "0", "1"]}


def prime_field_payload(p):
    return {"kind": "prime_field", "characteristic": p, "modulus": None}


def finite_field_payload(p, modulus):
    return {"kind": "finite_field", "characteristic": p, "modulus": list(modulus)}


def algebra_document(C, unit, field):
    """An algebra document; ``field`` is one of the payloads above and the
    table's entries lie in its prime field (QQ inside QQ(i) as (c, 0))."""
    d = len(unit)
    p = field["characteristic"]
    if p:
        def scalar(c):
            return int(c) % p
    elif field["modulus"] is None:
        scalar = _rational
    else:
        def scalar(c):
            return [_rational(c), "0"]
    return {
        "format_version": "1",
        "kind": "algebra",
        "payload": {
            "field": field,
            "labels": [f"b{i}" for i in range(d)],
            "constants": [scalar(C[i][j][k]) for i in range(d) for j in range(d)
                          for k in range(d)],
            "unit": [scalar(c) for c in unit],
        },
    }


def field_document(payload):
    return {"format_version": "1", "kind": "field", "payload": payload}


def write_json(path, doc):
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
