"""Dense exact linear algebra over any FieldDescriptor.

Matrices are immutable row-major grids of field elements.  All algorithms are
exact Gaussian elimination; kernel bases follow the canonical free-variable
convention (each free column set to 1 in order) so downstream bases are
reproducible bit for bit.  Span, membership and Krylov questions go through
one incremental echelon basis, :class:`Echelon`, and so do the two loops of
the module layer: ``closure`` (spinning a subspace under matrices) and
``intertwiners`` (the equations f a = b f of a hom space).

Over finite fields the elimination runs on integer codes, as in Parker's
MeatAxe: a GF(p) scalar is its residue mod p, for any p, and a GF(p^k)
scalar with q <= 256 is an index into per-field add/sub/mul/inverse tables,
built at first use from the powers of a primitive element.  Characteristic 0
and GF(p^k) with q > 256 eliminate on ``FieldElement``s.  Each ``Echelon``
picks its scalar kernel once, from its field.  Only this module knows the
codes: vectors and matrices go in and come out as field elements, and matrix
arithmetic (``@``, ``apply``, the powers in ``min_poly``) stays on field
elements.
"""

from __future__ import annotations

from bisect import bisect
from functools import cache
from operator import mul

from .errors import DimensionMismatch, FieldMismatch, NotSquare
from .fields import FieldElement


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        entries = tuple(tuple(r) for r in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch(f"expected a {rows}x{cols} grid")
        for r in entries:
            for e in r:
                if e.field != field:
                    raise FieldMismatch("entry outside the owner field")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows):
        rows = [list(r) for r in rows]
        return cls(field, len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, n, n,
                   [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols):
        zero = field.zero()
        return cls(field, rows, cols, [[zero] * cols for _ in range(rows)])

    # -- basic access -----------------------------------------------------

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.field == other.field \
            and self.entries == other.entries

    def key(self):
        """Canonical hashable key: the shape and the flat row-major coordinates."""
        return (self.rows, self.cols,
                tuple(c for r in self.entries for e in r for c in e.coords))

    def is_zero(self):
        return not any(any(r) for r in self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in r) for r in self.entries)
        return f"Matrix({self.rows}x{self.cols} over {self.field}: {body})"

    # -- arithmetic --------------------------------------------------------

    def _compat(self, other, same_shape):
        if not isinstance(other, Matrix) or other.field != self.field:
            raise FieldMismatch("matrices over the same field expected")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shapes differ")

    def __add__(self, other):
        self._compat(other, True)
        return Matrix(self.field, self.rows, self.cols,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, c):
        return Matrix(self.field, self.rows, self.cols,
                      [[c * a for a in r] for r in self.entries])

    def __matmul__(self, other):
        self._compat(other, False)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = self.field.zero()
        out = []
        ocols = list(zip(*other.entries)) if other.entries else []
        for r in self.entries:
            row = []
            for c in ocols:
                acc = zero
                for a, b in zip(r, c):
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Matrix(self.field, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix-vector product; ``vec`` is a sequence of field elements."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match columns")
        zero = self.field.zero()
        out = []
        for r in self.entries:
            acc = zero
            for a, b in zip(r, vec):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows,
                      list(zip(*self.entries)) if self.entries else [])

    def trace(self):
        if self.rows != self.cols:
            raise NotSquare("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def augment(self, other):
        self._compat(other, False)
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ")
        return Matrix(self.field, self.rows, self.cols + other.cols,
                      [list(r1) + list(r2)
                       for r1, r2 in zip(self.entries, other.entries)])

    def stack(self, other):
        self._compat(other, False)
        if self.cols != other.cols:
            raise DimensionMismatch("column counts differ")
        return Matrix(self.field, self.rows + other.rows, self.cols,
                      list(self.entries) + list(other.entries))

    # -- elimination --------------------------------------------------------

    def rref(self):
        """Reduced row echelon form: ``(R, rank, pivot column tuple)``."""
        span = Echelon(self.field, self.entries)
        zeros = [[self.field.zero()] * self.cols] * (self.rows - len(span))
        return (Matrix(self.field, self.rows, self.cols, span.basis() + zeros),
                len(span), tuple(span.pivots))

    def rank(self):
        return self.rref()[1]

    def kernel_basis(self):
        """Canonical basis of the right null space, as coordinate tuples."""
        return Echelon(self.field, self.entries).kernel(self.cols)

    def inverse(self):
        if self.rows != self.cols:
            raise NotSquare("inverse of a non-square matrix")
        red, rank, pivots = self.augment(Matrix.identity(self.field, self.rows)).rref()
        if pivots[:self.rows] != tuple(range(self.rows)):
            return None
        return Matrix(self.field, self.rows, self.cols,
                      [r[self.cols:] for r in red.entries])

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows

    # -- minimal polynomials -------------------------------------------------

    def vec(self):
        """Row-major flattening as a coordinate tuple."""
        return tuple(e for r in self.entries for e in r)

    def min_poly(self):
        """Monic minimal polynomial, little-endian list of field elements.

        Krylov on vec(X^k) tagged with the unit vector e_k: the first power
        that reduces to zero modulo the lower ones leaves the monic
        dependency in its tags.
        """
        if self.rows != self.cols:
            raise NotSquare("minimal polynomial of a non-square matrix")
        n = self.rows
        zero, one = self.field.zero(), self.field.one()
        span = Echelon(self.field)
        power = Matrix.identity(self.field, n)
        for k in range(n + 1):
            tags = [zero] * (n + 1)
            tags[k] = one
            v = span.reduce(power.vec() + tuple(tags))
            if not any(v[:n * n]):
                return v[n * n:n * n + k + 1]
            span.insert(v)
            power = power @ self
        raise RuntimeError("unreachable: Cayley-Hamilton bounds the degree by n")


class Echelon:
    """A row space grown one vector at a time, kept in reduced row echelon form.

    The rows are the nonzero rref rows of the span in pivot order, held as
    codes of the field's scalar kernel (chosen once, from the field), and
    ``pivots`` are their pivot columns.  Vectors go in and come out as field
    elements.  RREF is unique, so the basis depends on the span only, never
    on the order of insertion.  A vector of the span has its entries at the
    pivot columns as coordinates in this basis.
    """

    __slots__ = ("field", "pivots", "_k", "_rows")

    def __init__(self, field, vectors=()):
        self.field = field
        self.pivots = []
        self._k = _arithmetic(field)
        self._rows = []
        for v in vectors:
            self.insert(v)

    def __len__(self):
        return len(self._rows)

    def _reduce(self, v):
        eliminate = self._k.eliminate
        for row, pc in zip(self._rows, self.pivots):
            c = v[pc]
            if c:
                v = eliminate(v, c, row)
        return v

    def reduce(self, vec):
        """``vec`` minus its part in the span; zero at every pivot column."""
        k = self._k
        return k.decode(self._reduce(k.encode(vec)))

    def contains(self, vec):
        return not any(self._reduce(self._k.encode(vec)))

    def insert(self, vec):
        """Add ``vec`` to the span; True when the span grew."""
        return self._insert(self._k.encode(vec))

    def _insert(self, v):
        v = self._reduce(v)
        for pc, c in enumerate(v):
            if c:
                break
        else:
            return False
        k = self._k
        v = k.normalize(v, pc)
        rows = self._rows
        for i, row in enumerate(rows):
            c = row[pc]
            if c:
                rows[i] = k.eliminate(row, c, v)
        at = bisect(self.pivots, pc)
        rows.insert(at, v)
        self.pivots.insert(at, pc)
        return True

    def basis(self):
        decode = self._k.decode
        return [tuple(decode(row)) for row in self._rows]

    def kernel(self, cols):
        """Canonical basis of the right null space of the rows (vectors of
        length ``cols``): one vector per free column j, with 1 at j and 0 at
        the other free columns."""
        k = self._k
        pivots = set(self.pivots)
        basis = []
        for j in range(cols):
            if j in pivots:
                continue
            v = [k.zero] * cols
            v[j] = k.one
            for row, pc in zip(self._rows, self.pivots):
                v[pc] = k.neg(row[j])
            basis.append(tuple(k.decode(v)))
        return basis


# ---------------------------------------------------------------------------
# scalar kernels: what an Echelon row holds, and its arithmetic
# ---------------------------------------------------------------------------
#
# Every kernel offers the same few operations on codes: ``encode`` and
# ``decode`` a vector, ``rows`` of a matrix, ``apply`` such rows to a vector,
# ``eliminate(a, c, b)`` = a - c b, ``normalize(v, pc)`` = v / v[pc], and the
# scalars ``zero``, ``one``, ``neg`` and ``sub``.  A zero code is falsy, and
# ``encode`` raises FieldMismatch on an element of another field.

_TABLE_BOUND = 256   # largest GF(p^k) given arithmetic tables, as in the MeatAxe


@cache
def _arithmetic(field):
    """The scalar kernel of ``field``, built at first use: residues for GF(p),
    tables for GF(p^k) with q <= 256, field elements in characteristic 0 and
    for larger q."""
    if not field.characteristic or \
            (field.degree > 1 and field.order > _TABLE_BOUND):
        return _Elements(field)
    return _Residues(field) if field.degree == 1 else _Tables(field)


def _foreign(field):
    raise FieldMismatch(f"elements of {field} expected")


class _Elements:
    """Field elements as their own codes: characteristic 0 and GF(q), q > 256."""

    __slots__ = ("field", "zero", "one")

    def __init__(self, field):
        self.field = field
        self.zero, self.one = field.zero(), field.one()

    def encode(self, vec):
        F = self.field
        return [e if e.field is F else _foreign(F) for e in vec]

    decode = staticmethod(list)

    def rows(self, m):
        return m.entries

    def apply(self, rows, v):
        return [sum((a * b for a, b in zip(r, v) if a and b), self.zero)
                for r in rows]

    def eliminate(self, a, c, b):
        return [x - c * y if y else x for x, y in zip(a, b)]

    def normalize(self, v, pc):
        inv = v[pc].inverse()
        return [inv * c if c else c for c in v]

    def neg(self, c):
        return -c

    def sub(self, a, b):
        return a - b


class _Residues:
    """GF(p), any p: the code of an element is its residue in [0, p)."""

    __slots__ = ("field", "p", "elems")
    zero, one = 0, 1

    def __init__(self, field):
        self.field = field
        self.p = p = field.characteristic
        # shared elements to decode into, for the small primes
        self.elems = [FieldElement(field, (c,)) for c in range(p)] \
            if p <= _TABLE_BOUND else None

    def encode(self, vec):
        F = self.field
        return [e.coords[0] if e.field is F else _foreign(F)
                for e in vec]

    def decode(self, v):
        elems = self.elems
        if elems is None:
            F = self.field
            return [FieldElement(F, (c,)) for c in v]
        return [elems[c] for c in v]

    def rows(self, m):
        if m.field != self.field:
            _foreign(self.field)
        return [[e.coords[0] for e in r] for r in m.entries]

    def apply(self, rows, v):
        p = self.p
        return [sum(map(mul, r, v)) % p for r in rows]

    def eliminate(self, a, c, b):
        p = self.p
        return [(x - c * y) % p for x, y in zip(a, b)]

    def normalize(self, v, pc):
        p = self.p
        inv = pow(v[pc], -1, p)
        return [x * inv % p for x in v]

    def neg(self, c):
        return -c % self.p

    def sub(self, a, b):
        return (a - b) % self.p


class _Tables:
    """GF(p^k) with q = p^k <= 256.  The code of an element is its coordinate
    vector read as base-p digits, c_0 + c_1 p + ... + c_(k-1) p^(k-1), so 0
    is zero and 1 is one, and every scalar operation is a lookup in a q x q
    table.  Sums are digit arithmetic on the codes; products and inverses
    come from the logarithms to a primitive element, so the tables cost
    O(q) field operations (finding that element and its q - 1 powers).
    """

    __slots__ = ("field", "elems", "index", "sums", "diffs", "negs", "prods",
                 "invs")
    zero, one = 0, 1

    def __init__(self, field):
        p, k, q = field.characteristic, field.degree, field.order
        self.field = field
        self.elems = [FieldElement(field, tuple(c // p ** i % p for i in range(k)))
                      for c in range(q)]
        self.index = {e.coords: c for c, e in enumerate(self.elems)}
        self.sums = _digit_sums(p, q)
        self.negs = [row.index(0) for row in self.sums]
        self.diffs = [[row[nb] for nb in self.negs] for row in self.sums]
        exp = self._primitive_powers()
        log = [0] * q
        for i, c in enumerate(exp):
            log[c] = i
        n = q - 1
        self.prods = [[0] * q] + [[0] + [exp[(log[a] + log[b]) % n]
                                         for b in range(1, q)]
                                  for a in range(1, q)]
        self.invs = [0] + [exp[-log[a] % n] for a in range(1, q)]

    def _primitive_powers(self):
        """Codes of g^0, ..., g^(q-2) for the primitive element g of least code."""
        q = self.field.order
        primes = [r for r in range(2, q)
                  if (q - 1) % r == 0 and all(r % s for s in range(2, r))]
        one = self.elems[1]
        g = next(g for g in self.elems[2:]
                 if all(g ** ((q - 1) // r) != one for r in primes))
        exp, x = [], one
        for _ in range(q - 1):
            exp.append(self.index[x.coords])
            x = x * g
        return exp

    def encode(self, vec):
        F, index = self.field, self.index
        return [index[e.coords] if e.field is F else _foreign(F)
                for e in vec]

    def decode(self, v):
        elems = self.elems
        return [elems[c] for c in v]

    def rows(self, m):
        if m.field != self.field:
            _foreign(self.field)
        index = self.index
        return [[index[e.coords] for e in r] for r in m.entries]

    def apply(self, rows, v):
        sums, prods = self.sums, self.prods
        out = []
        for r in rows:
            acc = 0
            for a, b in zip(r, v):
                if a and b:
                    acc = sums[acc][prods[a][b]]
            out.append(acc)
        return out

    def eliminate(self, a, c, b):
        diffs, times_c = self.diffs, self.prods[c]
        return [diffs[x][times_c[y]] for x, y in zip(a, b)]

    def normalize(self, v, pc):
        times_inv = self.prods[self.invs[v[pc]]]
        return [times_inv[x] for x in v]

    def neg(self, c):
        return self.negs[c]

    def sub(self, a, b):
        return self.diffs[a][b]


def _digit_sums(p, q):
    """The q x q table of code sums: digitwise addition mod p."""
    if q == p:
        return [[(a + b) % p for b in range(p)] for a in range(p)]
    high = _digit_sums(p, q // p)
    return [[(a + b) % p + p * high[a // p][b // p] for b in range(q)]
            for a in range(q)]


def linear_combination(coeffs, mats):
    """The sum of c * M over the nonzero coefficients (a zero matrix if none)."""
    first = mats[0]
    out = Matrix.zeros(first.field, first.rows, first.cols)
    for c, m in zip(coeffs, mats):
        if c:
            out = out + m.scale(c)
    return out


def row_space_basis(field, vectors):
    """Canonical (rref) basis of the span of the given coordinate tuples."""
    return Echelon(field, vectors).basis()


def in_row_space(field, basis, vec):
    """Membership of ``vec`` in the span of ``basis``."""
    return Echelon(field, basis).contains(vec)


def coordinates(field, vectors):
    """The function giving a vector's coefficients in terms of ``vectors``.

    The coefficients are a list, unique when ``vectors`` are linearly
    independent; the function returns None for a vector outside their span.
    Each vector is tagged with -e_j, so a member x of the span reduces to
    (0 | its coefficients).
    """
    n = len(vectors)
    zero, minus_one = field.zero(), -field.one()
    span = Echelon(field, [tuple(v) + tuple(minus_one if k == j else zero
                                             for k in range(n))
                           for j, v in enumerate(vectors)])

    def coords(vec):
        v = span.reduce(tuple(vec) + (zero,) * n)
        width = len(v) - n
        return None if any(v[:width]) else v[width:]

    return coords


def closure(field, mats, vectors):
    """Canonical (RREF) basis of the smallest subspace that contains
    ``vectors`` and that every matrix of ``mats`` maps into itself, acting on
    column vectors.  The closure runs on the field's codes."""
    span = Echelon(field)
    k = span._k
    ops = [k.rows(m) for m in mats]
    frontier = [v for v in map(k.encode, vectors) if span._insert(v)]
    dim = len(frontier[0]) if frontier else 0
    while frontier and len(span) < dim:
        v = frontier.pop()
        for op in ops:
            w = k.apply(op, v)
            if span._insert(w):
                frontier.append(w)
    return span.basis()


def intertwiners(field, rows, cols, pairs):
    """Canonical basis of the rows x cols matrices f with f a = b f for every
    pair (a, b) of ``pairs``, as Matrices.

    The unknowns are the entries of f, row-major, and the basis is the
    free-variable kernel basis of the RREF of the equations, built on the
    field's codes; once the equations have full rank the rest are skipped.
    """
    span = Echelon(field)
    k = span._k
    unknowns = rows * cols
    for a, b in pairs:
        a_cols = list(zip(*k.rows(a)))
        b = k.rows(b)
        neg_b = [[k.neg(e) for e in r] for r in b]
        # (f a - b f)[r][c] = sum_j f[r][j] a[j][c] - sum_j b[r][j] f[j][c]
        for r in range(rows):
            for c in range(cols):
                eq = [k.zero] * unknowns
                eq[r * cols:(r + 1) * cols] = a_cols[c]
                for j in range(rows):
                    eq[j * cols + c] = neg_b[r][j]
                # f[r][c] is the one unknown in both sums
                eq[r * cols + c] = k.sub(a_cols[c][c], b[r][r])
                span._insert(eq)
        if len(span) == unknowns:
            break
    return [Matrix(field, rows, cols,
                   [v[r * cols:(r + 1) * cols] for r in range(rows)])
            for v in span.kernel(unknowns)]
