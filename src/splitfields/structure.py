"""Structure theory: Jacobson radical, composition factors, simple modules.

The radical is computed from the trace bilinear form (Dickson) in
characteristic 0 and from the composition factors of the regular module in
characteristic p; both results are verified post hoc (two-sided ideal,
nilpotent, semisimple quotient).

Composition factors are found by a MeatAxe-style splitting loop: kernels of
irreducible factors of the minimal polynomial of a seeded pseudo-random
algebra element are spun into invariant subspaces, with Norton's dual test
used for decisive simplicity certificates.  In characteristic 0, where
the radical is split off first, M is semisimple and so simple iff End(M) is
a division algebra: once the first attempt has failed, End(M) of dimension
1, and over QQ a quaternion algebra (a, b) decided by Hilbert symbols
(Legendre), settle it exactly.  The last resort is decisive over a finite
field: it spins every vector, as the oracle does, when the module has at
most ``_ORACLE_BOUND`` vectors, and raises ``Inconclusive`` otherwise.  In
characteristic 0 it is one pass over End(M) (Holt & Rees): the first
endomorphism whose minimal polynomial is reducible splits M, and when the
hom basis and the seeded combinations all have irreducible minimal
polynomials, M is taken as simple.  Only that verdict is randomized; it is
left for other division algebras (for example quaternion algebras over a
number field).

The brute-force oracle enumerates every vector of a small finite-field
module; apart from that shared search it is independent of the MeatAxe path
for cross-validation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import prod
from typing import NamedTuple

from . import polys
from .errors import Inconclusive, TooLarge
from .fields import RATIONALS
from .linalg import Echelon, Matrix, row_space_basis
from .modules import (
    Module,
    _hom_combinations,
    _random_scalar,
    hom_space,
    spin,
    sub_quotient,
)

_MEATAXE_ATTEMPTS = 100
_ORACLE_BOUND = 1 << 20


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------

def radical(A, seed=0):
    """Canonical basis of Rad A (possibly empty)."""
    if A.field.characteristic:
        rows = _radical_modular(A, seed)
    else:
        rows = _radical_trace_form(A)
    _verify_radical(A, rows)
    return rows


def _radical_trace_form(A):
    """Rad A as the kernel of the trace form (x, y) -> tr(L_x L_y)."""
    return row_space_basis(A.field, _trace_form(A).kernel_basis())


def _trace_form(A):
    """The Gram matrix tr(L_i L_j), read off the structure constants in O(d^3).

    Associativity gives L_{a_i a_j} = L_{a_i} L_{a_j}, so
    tr(L_i L_j) = sum_l c[i][j][l] tr(L_l), and tr(L_l) = sum_m c[l][m][m].
    """
    c = A.constants
    zero = A.field.zero()
    traces = []
    for l in range(A.dim):
        acc = zero
        for m in range(A.dim):
            if c[l][m][m]:
                acc = acc + c[l][m][m]
        traces.append(acc)
    gram = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            acc = zero
            for v, t in zip(c[i][j], traces):
                if v and t:
                    acc = acc + v * t
            row.append(acc)
        gram.append(row)
    return Matrix(A.field, A.dim, A.dim, gram)


def _radical_modular(A, seed):
    field = A.field
    factors = composition_factors(A.regular_module(), seed=seed)
    rows = []
    for S, _ in factors:
        for r in range(S.dim):
            for c in range(S.dim):
                rows.append([S.actions[i].entries[r][c] for i in range(A.dim)])
    if not rows:
        return []
    system = Matrix(field, len(rows), A.dim, rows)
    return row_space_basis(field, system.kernel_basis())


def _verify_radical(A, rows):
    from .algebras import is_two_sided_ideal, quotient_algebra

    field = A.field
    if rows and not is_two_sided_ideal(A, rows):  # pragma: no cover - guard
        raise RuntimeError("radical candidate is not an ideal")
    # nilpotency: successive products shrink to zero within dim steps
    current = list(rows)
    for _ in range(A.dim):
        if not current:
            break
        nxt = []
        for x in current:
            for y in rows:
                nxt.append(A.mul_coords(x, y))
        current = row_space_basis(field, nxt)
    else:  # pragma: no cover - guard
        if current:
            raise RuntimeError("radical candidate is not nilpotent")
    if rows and field.characteristic == 0:
        Q, _ = quotient_algebra(A, rows)
        if _radical_trace_form(Q):  # pragma: no cover - guard
            raise RuntimeError("quotient by the radical is not semisimple")


def is_semisimple(A, seed=0):
    return not radical(A, seed=seed)


# ---------------------------------------------------------------------------
# composition factors
# ---------------------------------------------------------------------------

def composition_factors(M, seed=0):
    """Composition factors grouped by isomorphism: list of (simple, multiplicity).

    Deterministic for a fixed seed; the factor multiset is seed-independent.
    """
    # in characteristic 0 every node splits off (Rad A) first; Rad A is the
    # same for every subquotient, so it is computed once here
    rad = None if M.algebra.field.characteristic \
        else _radical_trace_form(M.algebra)
    leaves = []
    _split(M, seed, rad, leaves)
    grouped = []
    for S in leaves:
        for entry in grouped:
            if _same_simple(entry[0], S):
                entry[1] += 1
                break
        else:
            grouped.append([S, 1])
    grouped.sort(key=lambda e: (e[0].dim, e[0].key()))
    return [(S, mult) for S, mult in grouped]


def _same_simple(S, T):
    # Schur: a nonzero hom between simple modules is an isomorphism
    return S.dim == T.dim and bool(hom_space(S, T).mats)


def _split(M, seed, rad, leaves):
    if M.dim == 0:
        return
    sub = _find_proper_submodule(M, seed, rad)
    if sub is None:
        leaves.append(M)
        return
    parts = sub_quotient(M, sub)
    _split(parts.sub, seed, rad, leaves)
    _split(parts.quot, seed, rad, leaves)


def _proper(M, basis):
    if basis and len(basis) < M.dim:
        return basis
    return None


def _find_proper_submodule(M, seed, rad):
    """A basis of a proper nonzero submodule, or None when M is simple.

    ``rad`` is the basis of Rad A in characteristic 0 and None otherwise.

    Raises Inconclusive over a finite field when the MeatAxe attempts find
    nothing and the module has more than ``_ORACLE_BOUND`` vectors.
    """
    field = M.algebra.field
    if M.dim == 1:
        return None

    # characteristic 0: split off (Rad A) M first; what remains is semisimple
    if rad is not None:
        found = _proper(M, _radical_submodule(M, rad))
        if found:
            return found

    # cheap deterministic pass: spin the standard basis vectors
    for j in range(M.dim):
        e = [field.zero()] * M.dim
        e[j] = field.one()
        found = _proper(M, spin(M, [e]))
        if found:
            return found

    rng = random.Random(seed)
    hb = None
    for _ in range(_MEATAXE_ATTEMPTS):
        theta = _random_algebra_element(M.algebra, rng)
        X = M.action_of(theta)
        minp = X.min_poly()
        for g, _mult in polys.factor(minp, field):
            N = polys.eval_matrix(g, X)
            kernel = N.kernel_basis()
            if not kernel:
                continue
            for v in kernel:
                found = _proper(M, spin(M, [v]))
                if found:
                    return found
            if len(kernel) == polys.degree(g):
                # Norton's test: the dual side is decisive
                dual = _dual_module(M)
                for w in N.transpose().kernel_basis():
                    dbasis = spin(dual, [w])
                    if len(dbasis) < M.dim:
                        return _annihilator(M, dbasis)
                return None
        if rad is not None and hb is None:
            # M is semisimple, so it is simple iff End(M) is a division
            # algebra; asked once the first attempt has failed, so that
            # nodes the first attempt decides never pay for the hom space
            hb = hom_space(M, M)
            if _is_division_end(hb.mats):
                return None

    # last resort.  Over a finite field End(M) cannot decide (a non-split
    # extension may have End = k), so spin every vector of a small module.
    if field.characteristic:
        if field.order ** M.dim <= _ORACLE_BOUND:
            return _first_proper_cyclic(M)
        raise Inconclusive(
            f"no proper submodule in {_MEATAXE_ATTEMPTS} MeatAxe attempts on "
            f"a module of dimension {M.dim} over {field}, and its "
            f"{field.order}^{M.dim} = {field.order ** M.dim} vectors exceed "
            f"the oracle bound {_ORACLE_BOUND}")
    # In characteristic 0 M is semisimple: an endomorphism f whose minimal
    # polynomial has a proper factor g gives the submodule ker g(f); when
    # the basis and the drawn combinations have none, every minimal
    # polynomial was irreducible, a randomized division-algebra certificate
    if hb is None:
        hb = hom_space(M, M)
    for f in chain(hb.mats, _hom_combinations(hb.mats, rng)[1]):
        if _is_scalar_matrix(f):
            continue
        fs = polys.factor(f.min_poly(), field)
        if len(fs) > 1 or fs[0][1] > 1:
            N = polys.eval_matrix(fs[0][0], f)
            return row_space_basis(field, N.kernel_basis())
    return None


def _dual_module(M):
    """The transpose action; submodules correspond to annihilators in M."""
    opp = M.algebra.opposite()
    return Module(opp, M.dim, [a.transpose() for a in M.actions])


def _annihilator(M, dual_basis):
    field = M.algebra.field
    mat = Matrix.from_rows(field, dual_basis)
    return row_space_basis(field, mat.kernel_basis())


def _random_algebra_element(A, rng):
    field = A.field
    return tuple(_random_scalar(field, rng) for _ in range(A.dim))


def _is_scalar_matrix(f):
    """Whether the square matrix f is a scalar multiple of the identity."""
    return f == Matrix.identity(f.field, f.rows).scale(f.entries[0][0])


# ---------------------------------------------------------------------------
# decisive division tests for End(M)
# ---------------------------------------------------------------------------

def _is_division_end(mats):
    """Whether the endomorphism algebra with basis ``mats`` is decisively a
    division algebra: the base field itself, or over QQ a quaternion algebra
    (a, b) that does not split.  False means undecided, not split."""
    if len(mats) == 1:
        return True
    if len(mats) != 4 or mats[0].field.kind != RATIONALS:
        return False
    ab = _quaternion_parameters(mats)
    return ab is not None and _is_division_quaternion(*ab)


def _quaternion_parameters(mats):
    """(a, b) with End = (a, b / QQ) for the 4-dim End spanned by ``mats``, or
    None when this presentation fails (End is then commutative or split).

    i is the first nonzero trace-zero part of a basis element; j is the first
    nonzero y - i y i / a over the trace-zero parts y, the part of y that
    anticommutes with i.  Then i^2 = a, j^2 = b, ij = -ji and 1, i, j, ij
    independent present End as (a, b / QQ).
    """
    field = mats[0].field
    one = Matrix.identity(field, mats[0].rows)
    n = field.from_base(mats[0].rows)
    pure = [f + one.scale(-(f.trace() / n)) for f in mats]
    pure = [y for y in pure if not y.is_zero()]
    if not pure:
        return None
    i = pure[0]
    a = _square_scalar(i)
    if a is None:
        return None
    for y in pure:
        j = y + (i @ y @ i).scale(-a.inverse())
        if not j.is_zero():
            break
    else:
        return None
    b = _square_scalar(j)
    ij = i @ j
    if b is None or not (ij + j @ i).is_zero() \
            or len(Echelon(field, [m.vec() for m in (one, i, j, ij)])) < 4:
        return None
    return a.coords[0], b.coords[0]


def _square_scalar(x):
    """The nonzero scalar c with x^2 = c I, or None."""
    sq = x @ x
    c = sq.entries[0][0]
    return c if c and _is_scalar_matrix(sq) else None


def _is_division_quaternion(a, b):
    """Whether (a, b / QQ), a and b nonzero rationals, is a division algebra.

    It splits iff a x^2 + b y^2 = z^2 has a nontrivial rational solution,
    iff the Hilbert symbol (a, b)_v is 1 at every place v (Legendre); only
    v = infinity and the primes dividing 2ab can give -1.
    """
    a, a_primes = _squarefree(Fraction(a))
    b, b_primes = _squarefree(Fraction(b))
    if a < 0 and b < 0:
        return True
    return any(_hilbert_symbol(a, b, p) == -1
               for p in {2, *a_primes, *b_primes})


def _squarefree(c):
    """The square-free integer in the square class of the nonzero rational c,
    and its prime divisors."""
    from sympy import factorint

    n = c.numerator * c.denominator
    primes = [p for p, e in factorint(abs(n)).items() if e % 2]
    return (-1 if n < 0 else 1) * prod(primes), primes


def _hilbert_symbol(a, b, p):
    """(a, b)_p for square-free integers a, b and a prime p (Serre, "A Course
    in Arithmetic", III.1.2, Theorem 1), with Euler's criterion for the
    Legendre symbols."""
    alpha, beta = int(a % p == 0), int(b % p == 0)
    u = a // p if alpha else a
    v = b // p if beta else b
    if p == 2:
        e = ((u - 1) // 2) * ((v - 1) // 2) \
            + alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
    else:
        e = alpha * beta * ((p - 1) // 2) \
            + beta * _non_residue(u, p) + alpha * _non_residue(v, p)
    return -1 if e % 2 else 1


def _non_residue(u, p):
    """1 when the unit u is not a square mod the odd prime p, else 0."""
    return int(pow(u, (p - 1) // 2, p) != 1)


def _radical_submodule(M, rad):
    """(Rad A) M as a canonical (RREF) row basis, ``rad`` a basis of Rad A:
    the span of the images r m, a submodule already since Rad A is an ideal."""
    vecs = []
    for r in rad:
        vecs.extend(M.action_of(r).transpose().entries)
    return row_space_basis(M.algebra.field, vecs)


# ---------------------------------------------------------------------------
# simple modules
# ---------------------------------------------------------------------------

class SimpleList(NamedTuple):
    algebra: object
    entries: tuple   # ((module, multiplicity in the regular module), ...)


def simple_modules(A, seed=0):
    """All simple modules with multiplicities in the regular module."""
    factors = composition_factors(A.regular_module(), seed=seed)
    return SimpleList(A, tuple(factors))


# ---------------------------------------------------------------------------
# exhaustive oracle (small finite fields)
# ---------------------------------------------------------------------------

def _check_oracle_bound(M):
    field = M.algebra.field
    if not field.characteristic:
        raise TooLarge("the oracle requires a finite field")
    if field.order ** M.dim > _ORACLE_BOUND:
        raise TooLarge("field size ** dim exceeds the oracle bound")


def _all_vectors(field, dim):
    from itertools import product as iproduct

    for coords in iproduct(*[list(field.elements())] * dim):
        yield coords


def _cyclic_spins(M):
    """The submodule spun by each nonzero vector of M, in ``_all_vectors`` order."""
    for v in _all_vectors(M.algebra.field, M.dim):
        if any(v):
            yield spin(M, [v])


def _first_proper_cyclic(M):
    """The first proper submodule spun by one vector, or None when M is simple."""
    return next((b for b in _cyclic_spins(M) if len(b) < M.dim), None)


def _cyclic_submodules(M):
    seen = {}
    for basis in _cyclic_spins(M):
        seen[tuple(basis)] = basis
    return list(seen.values())


def oracle_submodules(M):
    """Sorted dimension list of the full submodule lattice (exhaustive).

    Enumerates every cyclic submodule and closes under sums; simplicity is
    equivalent to the result being [0, dim].
    """
    _check_oracle_bound(M)
    field = M.algebra.field
    if M.dim == 0:
        return [0]
    cyclic = _cyclic_submodules(M)
    lattice = {(): []}
    for b in cyclic:
        lattice[tuple(b)] = b
    frontier = list(lattice.values())
    while frontier:
        new = []
        for b in frontier:
            for c in cyclic:
                s = row_space_basis(field, list(b) + list(c))
                k = tuple(s)
                if k not in lattice:
                    if len(lattice) > 100_000:
                        raise TooLarge("submodule lattice is too large")
                    lattice[k] = s
                    new.append(s)
        frontier = new
    return sorted(len(b) for b in lattice.values())


def oracle_is_simple(M):
    """Exhaustive simplicity check: every nonzero vector spins to the whole."""
    _check_oracle_bound(M)
    if M.dim == 0:
        return False
    return _first_proper_cyclic(M) is None


def oracle_composition_series_dims(M):
    """Composition factor dimensions from an exhaustive greedy maximal chain.

    Independent of the MeatAxe path: at each step every vector outside the
    current submodule is tried and a minimal enlargement is taken, which is a
    cover in the submodule lattice.
    """
    _check_oracle_bound(M)
    field = M.algebra.field
    current = []
    dims = []
    while len(current) < M.dim:
        span = Echelon(field, current)
        best = None
        for v in _all_vectors(field, M.dim):
            if span.contains(v):
                continue
            cand = spin(M, list(current) + [v])
            if best is None or len(cand) < len(best):
                best = cand
                if len(best) == len(current) + 1:
                    break
        dims.append(len(best) - len(current))
        current = best
    return sorted(dims)
