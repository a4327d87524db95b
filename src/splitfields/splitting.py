"""Absolute simplicity, split algebras and splitting-field construction.

A simple module is absolutely simple exactly when its endomorphism algebra is
one-dimensional, equivalently when the algebra surjects onto the full
endomorphism ring of the module; both criteria are computed and must agree
exactly, a mismatch being an internal invariant breach.  The splitting-field
search greedily adjoins roots of minimal polynomials of non-scalar
endomorphisms of failing simples until every simple module passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import polys
from .basechange import (
    _scalar_map,
    descend_module,
    extend_algebra,
    extend_module,
)
from .errors import (
    DegreeCapExceeded,
    InternalInvariantError,
    NotSimple,
    PreconditionFailed,
)
from .fields import (
    FieldEmbedding,
    adjoin_root,
    compose_embeddings,
    embedding_preimage,
    identity_embedding,
)
from .linalg import Echelon, row_space_basis
from .modules import hom_space
from .structure import (
    _is_scalar_matrix,
    _radical_submodule,
    composition_factors,
    radical,
    simple_modules,
)


@dataclass(frozen=True)
class SimpleReport:
    module: object
    dim_end: int
    image_rank: int
    absolutely_simple: bool
    multiplicity: int


@dataclass(frozen=True)
class SplitReport:
    algebra: object
    verdict: bool
    per_simple: tuple


@dataclass(frozen=True)
class SplittingFieldResult:
    tower: tuple            # FieldEmbedding steps from k upward
    final_field: object
    embedding: FieldEmbedding   # the composite k -> E
    degree: int
    iterations: int
    certificate: SplitReport


def is_absolutely_simple(S, assume_simple=False, seed=0):
    """(flag, dim End, image rank) for a simple module S.

    flag is dim End == 1; the surjectivity criterion (image rank equals
    (dim S)^2) is recomputed and must agree.
    """
    if not assume_simple:
        factors = composition_factors(S, seed=seed)
        if len(factors) != 1 or factors[0][1] != 1:
            raise NotSimple("the module has composition length != 1")
    dim_end = len(hom_space(S, S).mats)
    image_rank = len(Echelon(S.algebra.field, [a.vec() for a in S.actions]))
    flag = dim_end == 1
    if flag != (image_rank == S.dim * S.dim):
        raise InternalInvariantError(
            "endomorphism and surjectivity criteria disagree: "
            f"dim End = {dim_end}, image rank = {image_rank}, dim = {S.dim}")
    return flag, dim_end, image_rank


def is_split(A, seed=0):
    """Split means: every simple left module is absolutely simple."""
    simples = simple_modules(A, seed=seed)
    per = []
    verdict = True
    for S, mult in simples.entries:
        flag, dim_end, image_rank = is_absolutely_simple(
            S, assume_simple=True, seed=seed)
        per.append(SimpleReport(S, dim_end, image_rank, flag, mult))
        verdict = verdict and flag
    return SplitReport(A, verdict, tuple(per))


def is_splitting_field(A, emb, seed=0):
    """Whether the embedding target is a splitting field for A."""
    ctx = extend_algebra(A, emb)
    return is_split(ctx.extended, seed=seed)


def find_splitting_field(A, max_degree=None, seed=0):
    """Greedy construction of a finite-degree splitting field.

    Each round picks the first failing simple (canonical order), the first
    non-scalar element of its endomorphism basis, and adjoins a root of that
    element's minimal polynomial.  Every round strictly enlarges the field,
    so the loop terminates; the default cap is dim(A)^2.
    """
    if max_degree is None:
        max_degree = A.dim * A.dim
    if max_degree < 1:
        raise PreconditionFailed("max_degree must be >= 1")
    k = A.field
    emb_total = identity_embedding(k)
    current = A
    tower = []
    degree = 1
    iterations = 0
    while True:
        report = is_split(current, seed=seed)
        if report.verdict:
            return SplittingFieldResult(tuple(tower), emb_total.target,
                                        emb_total, degree, iterations, report)
        entry = next(e for e in report.per_simple if not e.absolutely_simple)
        S = entry.module
        f = next((f for f in hom_space(S, S).mats if not _is_scalar_matrix(f)),
                 None)
        if f is None:  # pragma: no cover - a failing simple has dim End > 1
            raise InternalInvariantError(
                "no non-scalar endomorphism on a failing simple")
        minp = f.min_poly()
        factors = [g for g, _ in polys.factor(minp, current.field)
                   if polys.degree(g) > 1]
        if not factors:  # pragma: no cover - Schur forces an irreducible minpoly
            raise InternalInvariantError(
                "a non-scalar endomorphism of a simple has a split minimal polynomial")
        g = factors[0]
        E2, step, _root = adjoin_root(current.field, g)
        step_degree = polys.degree(g)
        if degree * step_degree > max_degree:
            raise DegreeCapExceeded(
                f"the next root, of degree {step_degree}, would reach degree "
                f"{degree * step_degree}, beyond the max degree {max_degree}",
                tower=tower)
        tower.append(step)
        emb_total = compose_embeddings(emb_total, step)
        current = extend_algebra(current, step).extended
        degree *= step_degree
        iterations += 1


# ---------------------------------------------------------------------------
# theorem harnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    side_top: Optional[bool]    # splitting over the top field + descent to E
    side_mid: bool              # splitting over the intermediate field
    decisive: bool
    agree: Optional[bool]
    details: tuple


def verify_chain_theorem(A, emb_mid, emb_top, seed=0):
    """Both sides of the chain equivalence for a tower k <= E <= F.

    Side (mid): E is a splitting field.  Side (top): F is a splitting field
    and every simple module over the top extension can be written in E.
    Standard-basis descent is decisive on finite fields and for 1-dimensional
    modules; otherwise a failed descent is reported as Unknown, never false.
    """
    k = A.field
    if emb_mid.source != k or emb_top.source != emb_mid.target:
        raise PreconditionFailed("embeddings do not form a tower over the base")
    emb_kF = compose_embeddings(emb_mid, emb_top)
    side_mid = is_splitting_field(A, emb_mid, seed=seed).verdict
    ctx_top = extend_algebra(A, emb_kF)
    top_report = is_split(ctx_top.extended, seed=seed)
    details = []
    if not top_report.verdict:
        side_top = False
    else:
        side_top = True
        for entry in top_report.per_simple:
            ok, decisive = _descends_into(ctx_top, entry.module, emb_top)
            details.append((entry.module.dim, ok, decisive))
            if ok is False:
                side_top = False
            elif ok is None:
                side_top = None
            if side_top is False:
                break
    decisive = side_top is not None
    agree = (side_top == side_mid) if decisive else None
    if decisive and not agree:
        raise InternalInvariantError(
            "the two sides of the chain equivalence disagree")
    return ChainReport(side_top, side_mid, decisive, agree, tuple(details))


def _descends_into(ctx_top, V, emb_top):
    """(writable in E or None for unknown, decisive flag) for a simple V over A^F."""
    descent = descend_module(ctx_top, V)
    # E_S lies inside E as subfields of F when its generator's image has a
    # preimage under E -> F; an abstract embedding E_S -> E is not enough
    if embedding_preimage(emb_top, descent.emb_up.generator_image) is not None:
        return True, True
    # the entry field does not lie inside E; decisive on finite fields
    # and for 1-dimensional modules (a scalar action is basis-independent)
    if ctx_top.emb.target.characteristic or V.dim == 1:
        return False, True
    return None, False


def verify_split_radical(A, emb, seed=0):
    """(Rad A)^F = Rad A^F for split A, plus the regular-module corollary."""
    if not is_split(A, seed=seed).verdict:
        raise PreconditionFailed("the radical extension identity requires a split algebra")
    ctx = extend_algebra(A, emb)
    F = emb.target
    image = _scalar_map(emb)    # the rows below are over A.field, emb's source
    rad_base = radical(A, seed=seed)
    lhs = row_space_basis(F, [[image(c) for c in row] for row in rad_base])
    rhs = radical(ctx.extended, seed=seed)
    if lhs != rhs:
        return False
    # module version on the regular module: (Rad U)^F = Rad U^F
    U = A.regular_module()
    UF = extend_module(U, ctx)
    rad_U = _radical_submodule(U, rad_base)
    rad_UF = _radical_submodule(UF, rhs)
    lhs_mod = row_space_basis(F, [[image(c) for c in row] for row in rad_U])
    return lhs_mod == rad_UF

