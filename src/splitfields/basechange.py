"""Scalar extension of algebras and modules, and descent to subfields.

Extension maps structure constants and action matrices entrywise through an
explicit field embedding.  The hom-space dimension identity (extension
commutes with taking intertwiners) is checked exactly; a failure is raised as
an internal invariant breach, never returned as data.  Descent recovers the
smallest subfield containing all action-matrix entries and rewrites the
module there.  Its witness is the change of basis itself: extending the
rewritten module back to F gives V in that basis entry for entry, which is
checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algebras import Algebra
from .errors import (
    AlgebraMismatch,
    BadBasis,
    FieldMismatch,
    InternalInvariantError,
    NotOverE,
)
from .fields import (
    FieldEmbedding,
    embedding_preimage,
    subfield_generated,
)
from .linalg import Echelon, Matrix, linear_combination
from .modules import Module, conjugate, hom_space


@dataclass(frozen=True)
class ExtensionContext:
    emb: FieldEmbedding
    algebra: Algebra
    extended: Algebra


def map_matrix(emb, m):
    return Matrix(emb.target, m.rows, m.cols,
                  [[emb.apply(e) for e in row] for row in m.entries])


def extend_algebra(A, emb):
    """The algebra with the same structure constants over the larger field."""
    if A.field is not emb.source:
        raise FieldMismatch("algebra is not defined over the embedding source")
    # an embedding is an injective ring map, so A^F is valid exactly when A is
    constants = [[[emb.apply(e) for e in vec] for vec in row]
                 for row in A.constants]
    unit = [emb.apply(e) for e in A.unit]
    extended = Algebra(emb.target, A.dim, A.basis_labels, constants, unit)
    return ExtensionContext(emb, A, extended)


def extend_module(M, ctx):
    if M.algebra != ctx.algebra:
        raise AlgebraMismatch("module is not over the context's base algebra")
    return Module(ctx.extended, M.dim,
                  [map_matrix(ctx.emb, a) for a in M.actions])


class ThetaDimCheck(NamedTuple):
    dim_base: int
    dim_extended: int
    equal: bool


def theta_dim_check(M, N, ctx):
    """Hom dimensions before and after extension; inequality is a bug."""
    dim_base = len(hom_space(M, N).mats)
    dim_ext = len(hom_space(extend_module(M, ctx), extend_module(N, ctx)).mats)
    if dim_base != dim_ext:
        raise InternalInvariantError(
            f"hom dimension changed under extension: {dim_base} != {dim_ext}")
    return ThetaDimCheck(dim_base, dim_ext, True)


def theta_apply(f, M, N, ctx):
    """The entrywise-embedded intertwiner, re-verified against the extension."""
    MF = extend_module(M, ctx)
    NF = extend_module(N, ctx)
    g = map_matrix(ctx.emb, f)
    for am, an in zip(MF.actions, NF.actions):
        if g @ am != an @ g:
            raise InternalInvariantError("embedded map fails to intertwine")
    return g


def end_algebra_extension_check(M, ctx):
    """[End(M)]^F and End(M^F) agree via the embedded basis, as F-algebras."""
    from .modules import end_algebra

    if M.dim == 0:
        return True
    endA, hb = end_algebra(M)
    MF = extend_module(M, ctx)
    endF, hbF = end_algebra(MF)
    if endA.dim != endF.dim:
        return False
    images = [map_matrix(ctx.emb, f) for f in hb.mats]
    span = Echelon(ctx.emb.target, [g.vec() for g in images])
    if len(span) != len(images):
        return False
    # multiplicativity: embedded products match embedded structure constants
    for i, gi in enumerate(images):
        for j, gj in enumerate(images):
            coeffs = [ctx.emb.apply(c) for c in endA.constants[i][j]]
            if gi @ gj != linear_combination(coeffs, images):
                return False
    # the images span the full extended endomorphism space
    return all(span.contains(f.vec()) for f in hbF.mats)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

class Descent(NamedTuple):
    subfield: object                 # FieldDescriptor E
    emb_base: FieldEmbedding         # k -> E
    emb_up: FieldEmbedding           # E -> F
    module: Module                   # over A^E
    witness: Matrix                  # P with extend(module) = P^-1 V P


def _base_to_mid_embedding(ctx, emb_up):
    """The k -> E that commutes with E -> F: k's generator goes to the
    preimage of its image in F, unique because E -> F is injective."""
    image = embedding_preimage(emb_up, ctx.emb.generator_image)
    if image is None:
        raise FieldMismatch("the tower k -> E -> F does not commute with k -> F")
    return FieldEmbedding(ctx.emb.source, emb_up.source, image)


def write_in(ctx, V, emb_up, basis=None):
    """Rewrite V (over the extended algebra) in the subfield E, if possible.

    ``basis`` is a list of coordinate vectors forming an F-basis of V; the
    default is the standard basis.  Raises NotOverE when some rewritten
    action entry lies outside the image of E.
    """
    if V.algebra != ctx.extended:
        raise AlgebraMismatch("module is not over the extended algebra")
    F = ctx.emb.target
    if emb_up.target is not F:
        raise FieldMismatch("subfield embedding must land in the extension field")
    emb_base = _base_to_mid_embedding(ctx, emb_up)
    if basis is None:
        W = V
        P = Matrix.identity(F, V.dim)
    else:
        if len(basis) != V.dim or any(len(v) != V.dim for v in basis):
            raise BadBasis(f"a basis of V is {V.dim} vectors of length {V.dim}")
        P = Matrix(F, V.dim, V.dim,
                   [[basis[j][i] for j in range(V.dim)] for i in range(V.dim)])
        if not P.is_invertible():
            raise BadBasis("the supplied vectors are not an F-basis")
        W = conjugate(V, P)
    ctx_mid = extend_algebra(ctx.algebra, emb_base)
    actions = []
    for a in W.actions:
        rows = []
        for row in a.entries:
            out = []
            for e in row:
                pre = embedding_preimage(emb_up, e)
                if pre is None:
                    raise NotOverE(
                        "an action entry lies outside the requested subfield")
                out.append(pre)
            rows.append(out)
        actions.append(Matrix(emb_up.source, V.dim, V.dim, rows))
    U = Module(ctx_mid.extended, V.dim, actions)
    # extending U back along E -> F gives exactly W when the tower commutes
    ctx_up = extend_algebra(ctx_mid.extended, emb_up)
    UF = extend_module(U, ctx_up)
    if UF != W:  # pragma: no cover - tower compatibility
        raise InternalInvariantError("re-extension differs from V in the basis P")
    return Descent(emb_up.source, emb_base, emb_up, U, P)


def descend_module(ctx, V):
    """Smallest-entry-subfield descent in the standard basis (always succeeds)."""
    if V.algebra != ctx.extended:
        raise AlgebraMismatch("module is not over the extended algebra")
    F = ctx.emb.target
    gens = [e for a in V.actions for row in a.entries for e in row]
    gens.append(ctx.emb.generator_image)   # E must contain the base field k
    E, emb_up = subfield_generated(F, gens)
    return write_in(ctx, V, emb_up)
