"""Finite-dimensional associative unital algebras via structure constants.

An algebra is a basis ``a_0 .. a_{n-1}`` with products recorded as coordinate
vectors: ``a_i * a_j = sum_l c[i][j][l] a_l``, plus the coordinates of the
two-sided unit.  Constructors are provided for matrix algebras, group
algebras, quaternion algebras, field extensions viewed as algebras over the
prime base, diagonal (split commutative) algebras and upper-triangular
algebras.
"""

from __future__ import annotations

from .errors import (
    BadParams,
    FieldMismatch,
    NotAGroup,
    NotAnIdeal,
    ZeroQuotient,
)
from .linalg import Echelon, Matrix


class Algebra:
    __slots__ = ("field", "dim", "basis_labels", "constants", "unit", "_key")

    def __init__(self, field, dim, basis_labels, constants, unit):
        if dim < 1:
            raise BadParams("algebras must have dimension >= 1")
        self.field = field
        self.dim = dim
        self.basis_labels = tuple(basis_labels)
        self.constants = tuple(tuple(tuple(v) for v in row) for row in constants)
        self.unit = tuple(unit)
        if len(self.basis_labels) != dim or len(self.constants) != dim \
                or any(len(r) != dim for r in self.constants) \
                or any(len(v) != dim for r in self.constants for v in r) \
                or len(self.unit) != dim:
            raise BadParams("structure-constant table has the wrong shape")
        for row in self.constants:
            for vec in row:
                for e in vec:
                    if e.field != field:
                        raise FieldMismatch("structure constant outside the field")
        self._key = None

    # -- multiplication ----------------------------------------------------

    def mul_coords(self, x, y):
        """Coordinates of the product of two coordinate vectors."""
        zero = self.field.zero()
        out = [zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.constants[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                vec = row[j]
                for l, v in enumerate(vec):
                    if v:
                        out[l] = out[l] + c * v
        return tuple(out)

    def basis_vector(self, i):
        zero = self.field.zero()
        v = [zero] * self.dim
        v[i] = self.field.one()
        return tuple(v)

    def key(self):
        # computed once: modules compare and hash their algebra through it
        if self._key is None:
            self._key = (self.field, self.dim,
                         tuple(tuple(tuple(e.coords for e in v) for v in row)
                               for row in self.constants),
                         tuple(e.coords for e in self.unit))
        return self._key

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field})"

    def regular_module(self):
        from .modules import Module

        # L_{a_i} has entry (l, j) = c[i][j][l]
        actions = [Matrix(self.field, self.dim, self.dim,
                          [[table[j][l] for j in range(self.dim)]
                           for l in range(self.dim)])
                   for table in self.constants]
        return Module(self, self.dim, actions)

    def opposite(self):
        constants = [[self.constants[j][i] for j in range(self.dim)]
                     for i in range(self.dim)]
        return Algebra(self.field, self.dim, self.basis_labels, constants,
                       self.unit)


def algebra_validate(A):
    """None when the axioms hold, else a human-readable violation report.

    Both checks are sums over the nonzero structure constants: u a_i and
    a_i u against a_i for the unit u, then (a_i a_j) a_l = sum_m c_ij^m a_m a_l
    against a_i (a_j a_l) = sum_m c_jl^m a_i a_m, in the order of (i, j, l).
    """
    dim = A.dim
    zero, one = A.field.zero(), A.field.one()
    # rows[i][j]: the nonzero (m, c_ij^m); cols[l][m] = rows[m][l]
    rows = [[[(m, v) for m, v in enumerate(vec) if v] for vec in row]
            for row in A.constants]
    cols = [[rows[m][l] for m in range(dim)] for l in range(dim)]

    def combine(terms, vectors):
        """sum of coeff * vectors[m] over the nonzero (m, coeff) terms"""
        out = [zero] * dim
        for m, coeff in terms:
            for k, w in vectors[m]:
                out[k] = out[k] + coeff * w
        return out

    unit = [(m, u) for m, u in enumerate(A.unit) if u]
    for i in range(dim):
        ei = [zero] * dim
        ei[i] = one
        if combine(unit, cols[i]) != ei:
            return f"unit fails on the left at basis element {i}"
        if combine(unit, rows[i]) != ei:
            return f"unit fails on the right at basis element {i}"
    for i in range(dim):
        for j in range(dim):
            for l in range(dim):
                if combine(rows[i][j], cols[l]) != combine(rows[j][l], rows[i]):
                    return f"associativity fails at triple ({i}, {j}, {l})"
    return None


def _validated(A):
    report = algebra_validate(A)
    if report is not None:  # pragma: no cover - constructor guard
        raise BadParams(f"constructor produced an invalid algebra: {report}")
    return A


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def matrix_algebra(n, F):
    """M_n(F) on the matrix-unit basis e_ab (row-major order)."""
    if n < 1:
        raise BadParams("n must be >= 1")
    dim = n * n
    zero, one = F.zero(), F.one()

    def idx(a, b):
        return a * n + b

    constants = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b == c:
                        constants[idx(a, b)][idx(c, d)][idx(a, d)] = one
    unit = [zero] * dim
    for a in range(n):
        unit[idx(a, a)] = one
    labels = [f"e{a + 1}{b + 1}" for a in range(n) for b in range(n)]
    return Algebra(F, dim, labels, constants, unit)


def group_algebra(mult_table, F, labels=None):
    """The group algebra F[G] from an n x n multiplication table of indices."""
    n = len(mult_table)
    if any(len(r) != n for r in mult_table):
        raise NotAGroup("multiplication table is not square")
    # identity element
    identity = None
    for e in range(n):
        if all(mult_table[e][g] == g and mult_table[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    for r in mult_table:
        if sorted(r) != list(range(n)):
            raise NotAGroup("a row is not a permutation (Latin square fails)")
    for c in range(n):
        col = [mult_table[r][c] for r in range(n)]
        if sorted(col) != list(range(n)):
            raise NotAGroup("a column is not a permutation (Latin square fails)")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mult_table[mult_table[a][b]][c] != mult_table[a][mult_table[b][c]]:
                    raise NotAGroup(f"associativity fails at ({a}, {b}, {c})")
    zero, one = F.zero(), F.one()
    constants = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            constants[i][j][mult_table[i][j]] = one
    unit = [zero] * n
    unit[identity] = one
    labels = labels or [f"g{i}" for i in range(n)]
    return Algebra(F, n, labels, constants, unit)


def cyclic_group_algebra(n, F):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_algebra(table, F)


def quaternion_algebra(a, b, F):
    """The quaternion algebra (a, b / F): i^2 = a, j^2 = b, ij = k = -ji."""
    if F.characteristic == 2:
        raise BadParams("quaternion algebras need characteristic != 2")
    a = a if hasattr(a, "coords") else F.from_base(a)
    b = b if hasattr(b, "coords") else F.from_base(b)
    if not a or not b:
        raise BadParams("parameters must be nonzero")
    zero, one = F.zero(), F.one()
    Z = [zero] * 4

    def vec(c0=zero, c1=zero, c2=zero, c3=zero):
        return [c0, c1, c2, c3]

    e, i, j, k = 0, 1, 2, 3
    constants = [[list(Z) for _ in range(4)] for _ in range(4)]
    table = {
        (e, e): vec(one), (e, i): vec(c1=one), (e, j): vec(c2=one), (e, k): vec(c3=one),
        (i, e): vec(c1=one), (i, i): vec(a), (i, j): vec(c3=one), (i, k): vec(c2=a),
        (j, e): vec(c2=one), (j, i): vec(c3=-one), (j, j): vec(b), (j, k): vec(c1=-b),
        (k, e): vec(c3=one), (k, i): vec(c2=-a), (k, j): vec(c1=b), (k, k): vec(-(a * b)),
    }
    for (p, q), v in table.items():
        constants[p][q] = v
    unit = vec(one)
    return _validated(Algebra(F, 4, ["1", "i", "j", "k"], constants, unit))


def field_algebra(F):
    """A finite extension field viewed as an algebra over its prime base."""
    from .fields import prime_field, rationals

    if F.degree < 2:
        raise BadParams("the field is its own prime base")
    base = prime_field(F.characteristic) if F.characteristic else rationals()
    gen = F.generator()
    pows = [F.one()]
    for _ in range(F.degree - 1):
        pows.append(pows[-1] * gen)
    constants = []
    for i in range(F.degree):
        row = []
        for j in range(F.degree):
            prod_ = pows[i] * pows[j]
            row.append([base.from_base(c) for c in prod_.coords])
        constants.append(row)
    unit = [base.one()] + [base.zero()] * (F.degree - 1)
    labels = ["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, F.degree)]
    return Algebra(base, F.degree, labels, constants, unit)


def diagonal_algebra(n, F):
    """F x ... x F (n factors) on the idempotent basis."""
    zero, one = F.zero(), F.one()
    constants = [[[one if i == j == l else zero for l in range(n)]
                  for j in range(n)] for i in range(n)]
    unit = [one] * n
    return Algebra(F, n, [f"e{i}" for i in range(n)], constants, unit)


def upper_triangular_algebra(n, F):
    """Upper-triangular n x n matrices on the matrix-unit basis."""
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    index = {p: i for i, p in enumerate(pairs)}
    dim = len(pairs)
    zero, one = F.zero(), F.one()
    constants = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (a, b), i in index.items():
        for (c, d), j in index.items():
            if b == c:
                constants[i][j][index[(a, d)]] = one
    unit = [zero] * dim
    for a in range(n):
        unit[index[(a, a)]] = one
    labels = [f"e{a + 1}{b + 1}" for (a, b) in pairs]
    return Algebra(F, dim, labels, constants, unit)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def is_two_sided_ideal(A, vectors):
    span = Echelon(A.field, vectors)
    for v in span.basis():
        for i in range(A.dim):
            ei = A.basis_vector(i)
            if not span.contains(A.mul_coords(ei, v)):
                return False
            if not span.contains(A.mul_coords(v, ei)):
                return False
    return True


def quotient_algebra(A, ideal_vectors):
    """The quotient by a two-sided ideal.

    Returns ``(Q, projection)`` where ``projection`` maps A-coordinates to
    Q-coordinates.  The canonical complement is spanned by the standard basis
    vectors at the non-pivot columns of the ideal's rref basis.
    """
    span = Echelon(A.field, ideal_vectors)
    if not is_two_sided_ideal(A, ideal_vectors):
        raise NotAnIdeal("the span is not closed under multiplication")
    if len(span) == A.dim:
        raise ZeroQuotient("the ideal is the whole algebra")
    field = A.field
    comp = [j for j in range(A.dim) if j not in span.pivots]
    qdim = len(comp)

    def project(x):
        x = span.reduce(x)
        return tuple(x[j] for j in comp)

    constants = []
    for i in comp:
        row = []
        for j in comp:
            row.append(list(project(A.constants[i][j])))
        constants.append(row)
    unit = list(project(A.unit))
    labels = [A.basis_labels[j] for j in comp]
    Q = Algebra(field, qdim, labels, constants, unit)
    projection = Matrix(field, qdim, A.dim,
                        [[project(A.basis_vector(j))[r] for j in range(A.dim)]
                         for r in range(qdim)])
    return Q, projection
