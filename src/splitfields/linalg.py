"""Dense exact linear algebra over any FieldDescriptor.

Matrices are immutable row-major grids of field elements.  All algorithms are
exact Gaussian elimination; kernel bases follow the canonical free-variable
convention (each free column set to 1 in order) so downstream bases are
reproducible bit for bit.  Span, membership and Krylov questions go through
one incremental echelon basis, :class:`Echelon`.
"""

from __future__ import annotations

from bisect import bisect

from .errors import DimensionMismatch, FieldMismatch, NotSquare


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

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.field == other.field \
            and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

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

    def __sub__(self, other):
        self._compat(other, True)
        return Matrix(self.field, self.rows, self.cols,
                      [[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols,
                      [[-a for a in r] for r in self.entries])

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

    def solve(self, b):
        """One particular solution of ``self @ x = b`` or None."""
        if len(b) != self.rows:
            raise DimensionMismatch("right-hand side length does not match rows")
        rhs = Matrix(self.field, self.rows, 1, [[e] for e in b])
        red, rank, pivots = self.augment(rhs).rref()
        if self.cols in pivots:
            return None
        zero = self.field.zero()
        x = [zero] * self.cols
        for i, pc in enumerate(pivots):
            x[pc] = red.entries[i][self.cols]
        return tuple(x)

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

    ``rows`` are the nonzero rref rows of the span in pivot order and
    ``pivots`` their pivot columns.  RREF is unique, so the basis depends on
    the span only, never on the order of insertion.  A vector of the span has
    its entries at the pivot columns as coordinates in this basis.
    """

    __slots__ = ("field", "rows", "pivots")

    def __init__(self, field, vectors=()):
        self.field = field
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.insert(v)

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        """``vec`` minus its part in the span; zero at every pivot column."""
        v = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if c:
                v = [a - c * b if b else a for a, b in zip(v, row)]
        return v

    def contains(self, vec):
        return not any(self.reduce(vec))

    def insert(self, vec):
        """Add ``vec`` to the span; True when the span grew."""
        v = self.reduce(vec)
        pc = next((j for j, c in enumerate(v) if c), None)
        if pc is None:
            return False
        inv = v[pc].inverse()
        v = tuple(inv * c if c else c for c in v)
        for i, row in enumerate(self.rows):
            c = row[pc]
            if c:
                self.rows[i] = tuple(a - c * b if b else a for a, b in zip(row, v))
        k = bisect(self.pivots, pc)
        self.rows.insert(k, v)
        self.pivots.insert(k, pc)
        return True

    def basis(self):
        return list(self.rows)

    def kernel(self, cols):
        """Canonical basis of the right null space of the rows (vectors of
        length ``cols``): one vector per free column j, with 1 at j and 0 at
        the other free columns."""
        zero, one = self.field.zero(), self.field.one()
        pivots = set(self.pivots)
        basis = []
        for j in range(cols):
            if j in pivots:
                continue
            v = [zero] * cols
            v[j] = one
            for row, pc in zip(self.rows, self.pivots):
                v[pc] = -row[j]
            basis.append(tuple(v))
        return basis


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
