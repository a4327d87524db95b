"""Left modules over a structure-constant algebra.

A module of dimension m is one m x m action matrix per algebra basis element.
The module axioms (representation relation and unit acting as identity) are
checkable exactly.

Submodules and hom spaces use only the actions of a generating set of the
algebra (``Algebra._generators``), as the MeatAxe does with modules given by
generator matrices.  This needs the module axioms: under a unital
representation the image of A is the unital algebra generated by the images
of the generators, so closing a subspace under them, or intertwining them,
closes under or intertwines all of A.  Documents validate the axioms, and
every module built from them by this library satisfies them.  ``spin``
returns the canonical (RREF) basis of the submodule and ``hom_space`` the
canonical free-variable kernel basis of the intertwining equations, so both
depend on the modules only, never on the generators chosen.
"""

from __future__ import annotations

import random
from itertools import chain, product
from typing import NamedTuple, Optional

from .errors import AlgebraMismatch, BadParams, NotInvariant
from .linalg import (
    Echelon,
    Matrix,
    closure,
    coordinates,
    intertwiners,
    linear_combination,
)


class Module:
    """A left module: one dim x dim action matrix per algebra basis element.

    The constructor checks shapes and fields only.  ``spin``, ``hom_space``
    and everything built on them (``is_isomorphic``, ``end_algebra``,
    ``sub_quotient``) assume the module axioms; check a module built by hand
    with ``module_validate`` before using them.
    """

    __slots__ = ("algebra", "dim", "actions")

    def __init__(self, algebra, dim, actions):
        actions = tuple(actions)
        if len(actions) != algebra.dim:
            raise BadParams("one action matrix per algebra basis element required")
        for m in actions:
            if m.rows != dim or m.cols != dim:
                raise BadParams("action matrices must be dim x dim")
            if m.field != algebra.field:
                raise BadParams("action matrix over the wrong field")
        self.algebra = algebra
        self.dim = dim
        self.actions = actions

    def action_of(self, coords):
        """The action matrix of an arbitrary algebra element."""
        return linear_combination(coords, self.actions)

    def key(self):
        return (self.algebra.key(), self.dim,
                tuple(m.key() for m in self.actions))

    def __eq__(self, other):
        return isinstance(other, Module) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Module(dim {self.dim} over {self.algebra!r})"


def module_validate(M):
    """None when the module axioms hold, else a violation report."""
    A = M.algebra
    unit_action = M.action_of(A.unit)
    if unit_action != Matrix.identity(A.field, M.dim):
        return "the unit does not act as the identity"
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = M.actions[i] @ M.actions[j]
            rhs = M.action_of(A.constants[i][j])
            if lhs != rhs:
                return f"representation relation fails at pair ({i}, {j})"
    return None


# ---------------------------------------------------------------------------
# spinning and subquotients
# ---------------------------------------------------------------------------

def spin(M, seed_vectors):
    """Canonical basis of the submodule generated by the seed vectors.

    The span of the seeds is closed under the actions of the algebra's
    generators only; M must satisfy the module axioms (see the module
    docstring).  The basis is the RREF basis of the submodule.
    """
    gens = [M.actions[g] for g in M.algebra._generators()]
    return closure(M.algebra.field, gens, seed_vectors)


class SubQuotient(NamedTuple):
    sub: Module
    quot: Module
    sub_basis: tuple          # canonical rows spanning the submodule
    complement_cols: tuple    # standard-basis columns spanning the complement


def sub_quotient(M, sub_vectors):
    """Restricted and induced modules on canonical bases."""
    field = M.algebra.field
    span = Echelon(field, sub_vectors)
    basis = span.basis()
    if spin(M, basis) != basis:
        raise NotInvariant("the subspace is not closed under the action")
    s = len(basis)
    comp = tuple(j for j in range(M.dim) if j not in span.pivots)
    sub_actions, quot_actions = [], []
    for act in M.actions:
        # coordinates in the rref basis are the entries at the pivot columns
        images = [act.apply(v) for v in basis]
        sub_actions.append(Matrix(field, s, s, [[w[pc] for w in images]
                                                for pc in span.pivots]))
        residues = [span.reduce(act.col(j)) for j in comp]
        quot_actions.append(Matrix(field, len(comp), len(comp),
                                   [[w[i] for w in residues] for i in comp]))
    S = Module(M.algebra, s, sub_actions)
    Q = Module(M.algebra, len(comp), quot_actions)
    return SubQuotient(S, Q, tuple(basis), comp)


def direct_sum(M, N):
    if M.algebra != N.algebra:
        raise AlgebraMismatch("modules over different algebras")
    field = M.algebra.field
    actions = []
    for am, an in zip(M.actions, N.actions):
        top = am.augment(Matrix.zeros(field, M.dim, N.dim))
        bot = Matrix.zeros(field, N.dim, M.dim).augment(an)
        actions.append(top.stack(bot))
    return Module(M.algebra, M.dim + N.dim, actions)


def conjugate(M, P):
    """The same module written in the basis given by the columns of P."""
    Pinv = P.inverse()
    if Pinv is None:
        raise BadParams("change of basis must be invertible")
    return Module(M.algebra, M.dim, [Pinv @ a @ P for a in M.actions])


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

class HomBasis(NamedTuple):
    source: Module
    target: Module
    mats: tuple


def hom_space(M, N):
    """Canonical basis of the intertwiner space Hom(M, N).

    The unknowns are the entries of f, row-major.  Only the equations
    f @ am = an @ f for the actions of the algebra's generators are solved;
    M and N must satisfy the module axioms (see the module docstring).  The
    equations span the annihilator of Hom(M, N) whichever generators are
    used, so their RREF and its free-variable kernel basis are canonical.
    """
    if M.algebra != N.algebra:
        raise AlgebraMismatch("modules over different algebras")
    pairs = [(M.actions[g], N.actions[g]) for g in M.algebra._generators()]
    mats = intertwiners(M.algebra.field, N.dim, M.dim, pairs)
    return HomBasis(M, N, tuple(mats))


def end_algebra(M):
    """The endomorphism algebra on the canonical hom basis.

    Returns ``(algebra, hom_basis)``; multiplication is matrix composition.
    """
    from .algebras import Algebra

    if M.dim < 1:
        raise BadParams("end_algebra needs a nonzero module")
    hb = hom_space(M, M)
    field = M.algebra.field
    in_basis = coordinates(field, [m.vec() for m in hb.mats])
    constants = [[in_basis((a @ b).vec()) for b in hb.mats] for a in hb.mats]
    unit = in_basis(Matrix.identity(field, M.dim).vec())
    labels = [f"f{i}" for i in range(len(hb.mats))]
    return Algebra(field, len(hb.mats), labels, constants, unit), hb


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

class IsoResult(NamedTuple):
    isomorphic: Optional[bool]   # None means Unknown (randomized cap hit)
    witness: Optional[Matrix]


_RANDOM_CAP = 200
_EXHAUSTIVE_CAP = 1 << 16


def is_isomorphic(M, N, seed=0):
    """Search for an invertible intertwiner.

    Basis elements first, then the combinations of ``_hom_combinations``;
    over finite fields at desk scale the search is exhaustive and the verdict
    is decisive.  Otherwise a cap-out returns Unknown (``isomorphic=None``).
    """
    if M.algebra != N.algebra:
        raise AlgebraMismatch("modules over different algebras")
    if M.dim != N.dim:
        return IsoResult(False, None)
    if M.dim == 0:
        return IsoResult(True, Matrix.zeros(M.algebra.field, 0, 0))
    hb = hom_space(M, N)
    if not hb.mats:
        return IsoResult(False, None)
    exhaustive, combinations = _hom_combinations(hb.mats, random.Random(seed))
    for f in chain(hb.mats, combinations):
        if f.is_invertible():
            return IsoResult(True, f)
    return IsoResult(False if exhaustive else None, None)


def _hom_combinations(mats, rng):
    """The nonzero combinations of a hom basis, and whether they are all.

    Over a finite field with at most ``_EXHAUSTIVE_CAP`` coefficient vectors
    these are every one, in ``product`` order; otherwise they are the nonzero
    ones among ``_RANDOM_CAP`` draws of ``_random_scalar`` from ``rng``,
    drawn as the combinations are taken.
    """
    field = mats[0].field
    d = len(mats)
    exhaustive = bool(field.characteristic) and field.order ** d <= _EXHAUSTIVE_CAP
    if exhaustive:
        coeff_lists = product(field.elements(), repeat=d)
    else:
        coeff_lists = ([_random_scalar(field, rng) for _ in range(d)]
                       for _ in range(_RANDOM_CAP))
    return exhaustive, (linear_combination(coeffs, mats)
                        for coeffs in coeff_lists if any(coeffs))


def _random_scalar(field, rng):
    """A seeded random scalar: uniform in GF(q), an integer in [-3, 3] in
    characteristic 0."""
    if field.characteristic:
        return field.element([rng.randrange(field.characteristic)
                              for _ in range(field.degree)])
    return field.from_base(rng.randint(-3, 3))
