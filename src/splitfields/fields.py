"""Exact arithmetic in the supported field tower.

Supported fields: the rationals QQ, number fields QQ[x]/(f), prime fields
GF(p) and finite extensions GF(p)[x]/(g).  Every field is stored in absolute
form over its prime base; elements are coefficient vectors over that base
(``fractions.Fraction`` in characteristic 0, reduced integers otherwise).
Embeddings between fields are explicit and recorded by the image of the
source generator.

There is one ``FieldDescriptor`` object per field: every constructor returns
the same object for the same field, so identity is equality.  A modulus is
irreducible when ``polys.is_irreducible`` says so over the prime base (trial
division under the ``polys`` cap in characteristic p, sympy in characteristic
0), checked once per modulus and process; a rejected one raises on every
call.  The inverse in GF(q) is a^(q-2); in a number field it is read off
``linalg.coordinates``, as are preimages under embeddings and the powers of
a primitive element when a root is adjoined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import product

from .errors import (
    BadParams,
    FieldMismatch,
    NoEmbedding,
    PrimitiveElementError,
)

RATIONALS = "rationals"
NUMBER_FIELD = "number_field"
PRIME_FIELD = "prime_field"
FINITE_FIELD = "finite_field"


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FieldDescriptor:
    """An exact field: QQ, QQ[x]/(f), GF(p) or GF(p)[x]/(g).

    ``modulus`` is the monic irreducible defining polynomial over the prime
    base, little-endian, or ``None`` when the degree is 1.  Only the
    constructors below make descriptors, and copies and pickles go back
    through them.
    """

    kind: str
    characteristic: int
    modulus: tuple | None
    degree: int

    def __reduce__(self):
        if self.modulus is not None:
            return _extension, (self.characteristic, self.modulus)
        if self.characteristic:
            return prime_field, (self.characteristic,)
        return rationals, ()

    # -- constructors for elements --------------------------------------

    def _reduce_scalar(self, c):
        if self.characteristic:
            return int(c) % self.characteristic
        if isinstance(c, Fraction):
            return c
        return Fraction(c)

    def element(self, coords):
        coords = list(coords)
        if len(coords) > self.degree:
            raise BadParams("coordinate vector longer than the field degree")
        coords += [0] * (self.degree - len(coords))
        return FieldElement(self, tuple(self._reduce_scalar(c) for c in coords))

    def from_base(self, c):
        return self.element([c])

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def generator(self):
        """The class of x for extensions, 1 for degree-1 fields."""
        if self.degree == 1:
            return self.one()
        return self.element([0, 1])

    def elements(self):
        """All elements in canonical (lexicographic coordinate) order; finite only."""
        if not self.characteristic:
            raise BadParams("cannot enumerate an infinite field")
        p = self.characteristic
        for coords in product(range(p), repeat=self.degree):
            yield FieldElement(self, coords)

    @property
    def order(self):
        if not self.characteristic:
            raise BadParams("infinite field has no order")
        return self.characteristic ** self.degree

    def __repr__(self):
        if self.kind == RATIONALS:
            return "QQ"
        if self.kind == PRIME_FIELD:
            return f"GF({self.characteristic})"
        if self.kind == FINITE_FIELD:
            return f"GF({self.characteristic}^{self.degree})"
        return f"QQ[x]/({_poly_str(self.modulus)})"


def _poly_str(coeffs):
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*x" if c != 1 else "x")
        else:
            terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
    return " + ".join(terms) if terms else "0"


@cache
def rationals():
    return FieldDescriptor(RATIONALS, 0, None, 1)


@cache
def prime_field(p):
    from sympy import isprime

    if not isprime(p):
        raise BadParams(f"{p} is not prime")
    return FieldDescriptor(PRIME_FIELD, p, None, 1)


@cache
def _extension(p, coeffs):
    """The field of a monic modulus over the prime base of characteristic p,
    or None when the modulus is reducible; the one check of each modulus."""
    from . import polys

    base = prime_field(p) if p else rationals()
    if not polys.is_irreducible([base.from_base(c) for c in coeffs], base):
        return None
    return FieldDescriptor(FINITE_FIELD if p else NUMBER_FIELD, p, coeffs,
                           len(coeffs) - 1)


def number_field(modulus):
    """QQ[x]/(f) for monic irreducible f of degree >= 2 over QQ."""
    coeffs = tuple(Fraction(c) for c in modulus)
    if len(coeffs) < 3:
        raise BadParams("number field modulus must have degree >= 2")
    if coeffs[-1] != 1:
        raise BadParams("modulus must be monic")
    F = _extension(0, coeffs)
    if F is None:
        raise BadParams("modulus is reducible over QQ")
    return F


def finite_field(p, modulus):
    """GF(p)[x]/(g) for monic irreducible g of degree >= 2 over GF(p)."""
    prime_field(p)                  # raises unless p is prime
    coeffs = tuple(int(c) % p for c in modulus)
    if len(coeffs) < 3:
        raise BadParams("finite field modulus must have degree >= 2")
    if coeffs[-1] != 1:
        raise BadParams("modulus must be monic")
    F = _extension(p, coeffs)
    if F is None:
        raise BadParams("modulus is reducible over the prime field")
    return F


@cache
def finite_field_of_degree(p, m):
    """The canonical GF(p^m): lexicographically least monic irreducible modulus."""
    base = prime_field(p)
    if m == 1:
        return base
    fields = (_extension(p, tail + (1,)) for tail in product(range(p), repeat=m))
    return next(F for F in fields if F is not None)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

@cache
def _reduction_rows(field):
    """Coordinates of x^k mod modulus for k = degree .. 2*degree-2."""
    d = field.degree
    mod = field.modulus
    p = field.characteristic
    cur = [(-c) % p if p else -c for c in mod[:d]]
    rows = [tuple(cur)]
    for _ in range(d - 2):
        nxt = [0] + cur[:-1]
        top = cur[-1]
        if top:
            for j in range(d):
                nxt[j] -= top * mod[j]
        if p:
            nxt = [c % p for c in nxt]
        rows.append(tuple(nxt))
        cur = nxt
    return tuple(rows)


class FieldElement:
    """An element of a :class:`FieldDescriptor`, stored as reduced coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise FieldMismatch(f"elements of {self.field} expected")

    def __add__(self, other):
        self._check(other)
        p = self.field.characteristic
        if p:
            return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.characteristic
        if p:
            return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coords, other.coords)))
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        p = self.field.characteristic
        if p:
            return FieldElement(self.field, tuple((-a) % p for a in self.coords))
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        p = f.characteristic
        d = f.degree
        if d == 1:
            v = self.coords[0] * other.coords[0]
            return FieldElement(f, ((v % p) if p else v,))
        out = [0] * (2 * d - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                out[i + j] += a * b
        rows = _reduction_rows(f)
        for k in range(2 * d - 2, d - 1, -1):
            c = out[k]
            if c:
                row = rows[k - d]
                for j in range(d):
                    out[j] += c * row[j]
        if p:
            return FieldElement(f, tuple(c % p for c in out[:d]))
        return FieldElement(f, tuple(out[:d]))

    def inverse(self):
        """a^(q-2) in GF(q); over a number field, the coordinates of 1 in
        a, a*x, ..., a*x^(d-1) are those of 1/a in 1, x, ..., x^(d-1)."""
        f = self.field
        p = f.characteristic
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if f.degree == 1:
            c = self.coords[0]
            return FieldElement(f, ((pow(c, -1, p) if p else Fraction(1) / c),))
        if p:
            return self ** (f.order - 2)
        from .linalg import coordinates

        base = _prime_base(f)
        one = coordinates(base, _multiplication_rows(self))(_base_coords(f.one(), base))
        return f.element([c.coords[0] for c in one])

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        return isinstance(other, FieldElement) and self.field is other.field \
            and self.coords == other.coords

    def __hash__(self):
        return hash((self.field, self.coords))

    def sort_key(self):
        return self.coords

    def __repr__(self):
        if self.field.degree == 1:
            return str(self.coords[0])
        return f"({_poly_str(self.coords)})"


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

@cache
def _image_rows(F, coords, n):
    """Prime-base coordinates of 1, g, ..., g^(n-1) for the g in F with
    these coordinates: the matrix of the embedding sending the source
    generator to g.  Keyed on plain values, so that a lookup runs no
    Python-level hash or equality."""
    g = FieldElement(F, coords)
    power = F.one()
    rows = [power.coords]
    for _ in range(n - 1):
        power = power * g
        rows.append(power.coords)
    return tuple(rows)


@cache
def _image_coordinates(F, coords, n):
    """The ``linalg.coordinates`` solver over the rows of ``_image_rows``."""
    from .linalg import coordinates

    base = _prime_base(F)
    return coordinates(base, [[base.from_base(c) for c in row]
                              for row in _image_rows(F, coords, n)])


@dataclass(frozen=True)
class FieldEmbedding:
    """A field map recorded by the image of the source generator."""

    source: FieldDescriptor
    target: FieldDescriptor
    generator_image: FieldElement

    def __post_init__(self):
        if self.source.characteristic != self.target.characteristic:
            raise NoEmbedding("characteristics differ")
        if self.generator_image.field is not self.target:
            raise FieldMismatch("generator image must live in the target field")
        if self.source.degree > 1:
            from .polys import eval_at

            modulus = [self.target.from_base(c) for c in self.source.modulus]
            if eval_at(modulus, self.generator_image):
                raise NoEmbedding("generator image is not a root of the source modulus")
        elif self.generator_image != self.target.one():
            raise NoEmbedding("a degree-1 field embeds via 1 -> 1")

    def apply(self, a):
        if a.field is not self.source:
            raise FieldMismatch("element does not belong to the embedding source")
        rows = _image_rows(self.target, self.generator_image.coords,
                           self.source.degree)
        out = [0] * self.target.degree
        for c, row in zip(a.coords, rows):
            if c:
                for j, v in enumerate(row):
                    out[j] += c * v
        return self.target.element(out)

    def __repr__(self):
        return f"{self.source} -> {self.target} (gen -> {self.generator_image})"


def identity_embedding(F):
    if F.degree == 1:
        return FieldEmbedding(F, F, F.one())
    return FieldEmbedding(F, F, F.generator())


def compose_embeddings(first, second):
    """The embedding second∘first."""
    if first.target is not second.source:
        raise FieldMismatch("embeddings do not compose")
    return FieldEmbedding(first.source, second.target,
                          second.apply(first.generator_image))


def embed_find(E, F):
    """The canonical embedding E -> F: least root in lexicographic coordinate order."""
    if E.characteristic != F.characteristic:
        raise NoEmbedding("characteristics differ")
    if E.degree == 1:
        return FieldEmbedding(E, F, F.one())
    if E is F:
        return identity_embedding(E)
    if F.characteristic and F.degree % E.degree:
        raise NoEmbedding(f"[{E}] does not divide into [{F}]")
    target_mod = [F.from_base(c) for c in E.modulus]
    roots = poly_roots(target_mod, F)
    if not roots:
        raise NoEmbedding(f"the modulus of {E} has no root in {F}")
    root = min(roots, key=lambda r: r.sort_key())
    return FieldEmbedding(E, F, root)


def embedding_preimage(emb, elem):
    """The unique preimage of ``elem`` under ``emb``, or None if not in the image."""
    if elem.field is not emb.target:
        raise FieldMismatch("element does not belong to the embedding target")
    in_image = _image_coordinates(emb.target, emb.generator_image.coords,
                                  emb.source.degree)
    coeffs = in_image(_base_coords(elem, _prime_base(emb.target)))
    if coeffs is None:
        return None
    return emb.source.element([c.coords[0] for c in coeffs])


# ---------------------------------------------------------------------------
# roots, minimal polynomials, generated subfields
# ---------------------------------------------------------------------------

def poly_roots(coeffs, F):
    """All distinct roots in F of a nonzero polynomial with coefficients in F."""
    from . import polys

    coeffs = polys.trim(list(coeffs))
    if not coeffs:
        raise BadParams("the zero polynomial has every root")
    if len(coeffs) == 1:
        return []
    if F.characteristic:
        return [a for a in F.elements() if not polys.eval_at(coeffs, a)]
    roots = []
    for g, _ in polys.factor(coeffs, F):
        if len(g) == 2:  # monic linear x + c
            roots.append(-g[0])
    roots.sort(key=lambda r: r.sort_key())
    return roots


def element_min_poly(a):
    """Monic minimal polynomial of ``a`` over the prime base, as base scalars."""
    return [c.coords[0] for c in _multiplication_matrix(a).min_poly()]


def element_degree(a):
    return len(element_min_poly(a)) - 1


def _prime_base(F):
    return prime_field(F.characteristic) if F.characteristic else rationals()


def _base_coords(elem, base):
    return [base.from_base(c) for c in elem.coords]


def _multiplication_rows(a):
    """Row j holds a * x^j: the matrix of multiplication by a on row vectors."""
    F = a.field
    base = _prime_base(F)
    return [_base_coords(a * F.element([0] * j + [1]), base)
            for j in range(F.degree)]


def _multiplication_matrix(a):
    """``_multiplication_rows`` as a Matrix over the prime base."""
    from .linalg import Matrix

    return Matrix.from_rows(_prime_base(a.field), _multiplication_rows(a))


def _closure_span(F, gens):
    """Dimension over the prime base of the subfield generated by ``gens``."""
    from .linalg import closure

    base = _prime_base(F)
    mats = [_multiplication_matrix(g).transpose() for g in gens]
    return len(closure(base, mats, [_base_coords(F.one(), base)]))


def subfield_generated(F, gens):
    """Smallest subfield of F containing the prime base (or QQ) and ``gens``.

    Returns ``(E, embedding E -> F)``.  The dimension of E over the prime
    base is its degree; a repeated generator is dropped, as it adds nothing.
    """
    if any(g.field is not F for g in gens):
        raise FieldMismatch(f"generators must be elements of {F}")
    gens = list(dict.fromkeys(gens))
    dim = _closure_span(F, gens)
    if F.characteristic:
        E = finite_field_of_degree(F.characteristic, dim)
        return E, embed_find(E, F)
    if dim == 1:
        E = rationals()
        return E, FieldEmbedding(E, F, F.one())
    gamma = _primitive_element(F, gens, dim)
    coeffs = element_min_poly(gamma)
    E = number_field(coeffs)
    return E, FieldEmbedding(E, F, gamma)


def _primitive_element(F, gens, dim):
    """gamma with QQ(gamma) = QQ(gens), found by the c-multiplier search."""
    nontrivial = [g for g in gens if element_degree(g) > 1]
    if not nontrivial:
        raise PrimitiveElementError("no generator of degree > 1")
    gamma = nontrivial[0]
    for g in nontrivial[1:]:
        pair_dim = _closure_span(F, [gamma, g])
        if element_degree(gamma) == pair_dim:
            continue
        c, _ = _primitive_multiplier(_multiplication_matrix(gamma),
                                     _multiplication_matrix(g), pair_dim)
        gamma = gamma + F.from_base(c) * g
    if element_degree(gamma) != dim:
        raise PrimitiveElementError("primitive element search failed")
    return gamma


def _primitive_multiplier(a, b, degree):
    """The first c of 1, -1, 2, -2, ..., 20, -20 at which the minimal
    polynomial of the square matrix a + c*b has the given degree, and that
    polynomial.  Multiplication is linear in the element, so on the
    multiplication matrices of x and y this finds a primitive x + c*y."""
    for c in (s * m for m in range(1, 21) for s in (1, -1)):
        minp = (a + b.scale(a.field.from_base(c))).min_poly()
        if len(minp) == degree + 1:
            return c, minp
    raise PrimitiveElementError("no primitive element with multipliers up to +-20")


# ---------------------------------------------------------------------------
# adjoining a root of an irreducible polynomial
# ---------------------------------------------------------------------------

def adjoin_root(E, g):
    """Extend E by a root of the monic irreducible polynomial g over E.

    Returns ``(E2, embedding E -> E2, root in E2)``.  In characteristic p the
    result is the canonical field of the right degree; in characteristic 0 it
    is an absolute number field built from a primitive element.
    """
    from . import polys

    d = polys.degree(g)
    if d < 1:
        raise BadParams("cannot adjoin a root of a constant")
    if d == 1:
        return E, identity_embedding(E), -g[0]
    if E.characteristic:
        E2 = finite_field_of_degree(E.characteristic, E.degree * d)
        emb = embed_find(E, E2)
        mapped = [emb.apply(c) for c in g]
        roots = poly_roots(mapped, E2)
        return E2, emb, min(roots, key=lambda r: r.sort_key())
    if E.kind == RATIONALS:
        coeffs = [c.coords[0] for c in g]
        E2 = number_field(coeffs)
        emb = FieldEmbedding(E, E2, E2.one())
        return E2, emb, E2.generator()
    return _adjoin_root_number_field(E, g)


def _adjoin_root_number_field(E, g):
    """E(xbar) for a root xbar of g, as QQ(gamma) with gamma = xbar + c * alpha.

    E[x]/(g) has the QQ-basis alpha^i xbar^j, j major; on row vectors,
    multiplication by alpha is block diagonal and multiplication by xbar
    shifts j up by one, reducing xbar^n by g.  gamma is primitive when its
    minimal polynomial has full degree [E:QQ] * deg g; that polynomial is
    the modulus.  The images of alpha and xbar, the rows e_0 A and e_0 X,
    are their coordinates in the Krylov vectors e_0 gamma^k.
    """
    from . import polys
    from .linalg import Matrix, coordinates

    QQ = rationals()
    g = polys.monic(g, E)
    e, n = E.degree, polys.degree(g)
    zero, one = QQ.zero(), QQ.one()
    alpha = _multiplication_rows(E.generator())
    A = Matrix.from_rows(QQ, [[zero] * (e * j) + row + [zero] * (e * (n - 1 - j))
                              for j in range(n) for row in alpha])
    blocks = [_multiplication_rows(-c) for c in g[:n]]
    X = Matrix.from_rows(QQ, [[one if k == e + r else zero for k in range(e * n)]
                              for r in range(e * (n - 1))]
                         + [[v for block in blocks for v in block[i]]
                            for i in range(e)])
    c, minp = _primitive_multiplier(X, A, e * n)
    E2 = number_field([m.coords[0] for m in minp])
    step = (X + A.scale(QQ.from_base(c))).transpose()
    krylov = [(one,) + (zero,) * (e * n - 1)]
    for _ in range(e * n - 1):
        krylov.append(step.apply(krylov[-1]))
    in_powers = coordinates(QQ, krylov)

    def image(row):
        return E2.element([v.coords[0] for v in in_powers(row)])

    return E2, FieldEmbedding(E, E2, image(A.entries[0])), image(X.entries[0])
