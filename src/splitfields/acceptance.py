"""Self-contained acceptance suite over the bundled corpus.

Each criterion is a function returning (name, passed, detail).  All checks
use exact equality; the corpus is fixed, so the suite needs no inputs beyond
an optional seed for the randomized search paths.
"""

from __future__ import annotations

from . import corpus
from .basechange import extend_algebra, extend_module, theta_dim_check
from .fields import identity_embedding, poly_roots, prime_field
from .splitting import (
    is_split,
    find_splitting_field,
    verify_chain_theorem,
    verify_split_radical,
)
from .structure import (
    composition_factors,
    oracle_is_simple,
    oracle_composition_series_dims,
    radical,
    simple_modules,
)


def criterion_matrix_ground_truth(seed=0):
    """M_n over each base field: one simple of dim n, multiplicity n, split."""
    checked = 0
    for n in (1, 2, 3):
        for fname, F in corpus.base_fields().items():
            A = corpus.bundled_algebras()[f"mat{n}_{fname}"]
            entries = simple_modules(A, seed=seed).entries
            if [(S.dim, m) for S, m in entries] != [(n, n)]:
                return _fail(f"mat{n}_{fname}: unexpected simple list")
            rep = is_split(A, seed=seed)
            e = rep.per_simple[0]
            if not (rep.verdict and e.dim_end == 1 and e.image_rank == n * n):
                return _fail(f"mat{n}_{fname}: split check failed")
            checked += 1
    return True, f"{checked} matrix algebras verified"


def criterion_theta_dimension(seed=0):
    """Hom dimension is preserved under base change on >= 30 triples."""
    names = [f"cyclic{n}_{f}" for n in (2, 3, 4) for f in ("QQ", "F2", "F3")]
    names += ["upper2_QQ", "upper2_F2", "upper2_F3", "quat_QQ"]
    algebras = corpus.bundled_algebras()
    triples = 0
    for name in names:
        A = algebras[name]
        reg = A.regular_module()
        first_simple = composition_factors(reg, seed=seed)[0][0]
        for emb in corpus.embeddings_for(A.field):
            ctx = extend_algebra(A, emb)
            for M in (reg, first_simple):
                for N in (reg, first_simple):
                    check = theta_dim_check(M, N, ctx)
                    if not check.equal:
                        return _fail(f"{name}: hom dimension changed")
                    triples += 1
    if triples < 30:
        return _fail(f"only {triples} triples checked")
    return True, f"{triples} (M, N, embedding) triples, all dimensions equal"


def criterion_simplicity_descent(seed=0):
    """If the extension of M is simple then M is simple (oracle-certified)."""
    algebras = corpus.bundled_algebras()
    names = [n for n in algebras if n.endswith(("F2", "F3"))]
    checked = 0
    for name in names:
        A = algebras[name]
        reg = A.regular_module()
        mods = [reg] + [S for S, _ in composition_factors(reg, seed=seed)]
        for emb in corpus.embeddings_for(A.field):
            ctx = extend_algebra(A, emb)
            for M in mods:
                if A.field.order ** M.dim > 1 << 20 or \
                        emb.target.order ** M.dim > 1 << 20:
                    continue
                MF = extend_module(M, ctx)
                if oracle_is_simple(MF) and not oracle_is_simple(M):
                    return _fail(f"{name}: simplicity failed to descend")
                checked += 1
    return True, f"{checked} finite-field modules, zero counterexamples"


def criterion_split_radical(seed=0):
    """(Rad A)^F = Rad A^F for the bundled split algebras, both embeddings."""
    algebras = corpus.bundled_algebras()
    names = ("mat2_QQ", "upper2_QQ", "cyclic2_F2", "product2_QQ")
    checked = 0
    for name in names:
        A = algebras[name]
        embs = corpus.embeddings_for(A.field)[:2]
        if len(embs) < 2:
            return _fail(f"{name}: fewer than two bundled embeddings")
        for emb in embs:
            if not verify_split_radical(A, emb, seed=seed):
                return _fail(f"{name}: radical identity failed")
            checked += 1
    return True, f"{checked} (algebra, embedding) pairs verified"


def criterion_splitting_fields(seed=0):
    """Constructed splitting fields for the four reference algebras."""
    algebras = corpus.bundled_algebras()

    res = find_splitting_field(algebras["quat_QQ"], seed=seed)
    per = res.certificate.per_simple
    if res.degree != 2 or \
            [(e.module.dim, e.multiplicity, e.dim_end) for e in per] != [(2, 2, 1)]:
        return _fail("quaternions: expected degree 2 with one 2-dim simple")

    res = find_splitting_field(algebras["gf4_over_F2"], seed=seed)
    if res.degree != 2 or res.final_field.order != 4:
        return _fail("GF(4) over F_2: expected the field itself")

    res = find_splitting_field(algebras["cyclic3_QQ"], seed=seed)
    E = res.final_field
    if res.degree != 2 or not poly_roots([E.one(), E.one(), E.one()], E):
        return _fail("cyclic order 3: expected degree 2 containing a cube root of 1")
    if sorted((e.module.dim, e.multiplicity) for e in res.certificate.per_simple) \
            != [(1, 1)] * 3:
        return _fail("cyclic order 3: expected three 1-dim simples")

    res = find_splitting_field(algebras["cyclic4_QQ"], seed=seed)
    E = res.final_field
    if res.degree != 2 or not poly_roots([E.one(), E.zero(), E.one()], E):
        return _fail("cyclic order 4: expected degree 2 containing a 4th root of 1")
    if sorted((e.module.dim, e.multiplicity) for e in res.certificate.per_simple) \
            != [(1, 1)] * 4:
        return _fail("cyclic order 4: expected four 1-dim simples")

    return True, "4 splitting-field constructions match the reference answers"


def criterion_chain(seed=0):
    """Both sides of the chain equivalence agree on every decisive tower."""
    from .fields import embed_find, finite_field_of_degree

    algebras = corpus.bundled_algebras()
    F2 = prime_field(2)
    F4 = finite_field_of_degree(2, 2)
    F16 = finite_field_of_degree(2, 4)
    e_mid = embed_find(F2, F4)
    e_top = embed_find(F4, F16)
    cases = []
    for name, A in algebras.items():
        if A.field == F2:
            cases.append((name, A, e_mid, e_top))
    Qz = corpus.eisenstein_rationals()
    emb_Qz = corpus.bundled_embeddings()["QQ->QQ(z)"]
    cases.append(("cyclic3_QQ/identity-top", algebras["cyclic3_QQ"],
                  emb_Qz, identity_embedding(Qz)))
    cases.append(("cyclic3_QQ/identity-mid", algebras["cyclic3_QQ"],
                  identity_embedding(algebras["cyclic3_QQ"].field), emb_Qz))
    decisive = 0
    for name, A, m, t in cases:
        rep = verify_chain_theorem(A, m, t, seed=seed)
        if rep.decisive:
            decisive += 1
            if not rep.agree:
                return _fail(f"{name}: the two sides disagree")
    if decisive == 0:
        return _fail("no decisive towers")
    return True, f"{decisive} decisive towers out of {len(cases)}, all in agreement"


def criterion_oracle_compare(seed=0):
    """Composition-factor dimensions match the exhaustive oracle, seed-stably."""
    total = 0
    for p in (2, 3):
        for M in corpus.random_modules(p, 25, seed):
            oracle_dims = sorted(oracle_composition_series_dims(M))
            runs = []
            for s in (seed, seed + 1, seed + 2):
                dims = sorted(S.dim for S, m in composition_factors(M, seed=s)
                              for _ in range(m))
                runs.append(dims)
            if runs[0] != runs[1] or runs[1] != runs[2]:
                return _fail(f"F_{p} module dim {M.dim}: seed-dependent factors")
            if runs[0] != oracle_dims:
                return _fail(f"F_{p} module dim {M.dim}: "
                             f"{runs[0]} vs oracle {oracle_dims}")
            total += 1
    return True, f"{total} random modules, all factor multisets match the oracle"


def criterion_split_dimension_count(seed=0):
    """Sum of (dim S)^2 over the simples equals dim A - dim Rad A when split."""
    checked = 0
    for name, A in corpus.bundled_algebras().items():
        rep = is_split(A, seed=seed)
        if not rep.verdict:
            continue
        total = sum(e.module.dim ** 2 for e in rep.per_simple)
        if total != A.dim - len(radical(A, seed=seed)):
            return _fail(f"{name}: dimension count failed")
        checked += 1
    return True, f"{checked} split algebras verified"


def _fail(detail):
    return False, detail


CRITERIA = (
    ("matrix-ground-truth", criterion_matrix_ground_truth),
    ("theta-dimension", criterion_theta_dimension),
    ("simplicity-descent", criterion_simplicity_descent),
    ("split-radical", criterion_split_radical),
    ("splitting-fields", criterion_splitting_fields),
    ("chain-theorem", criterion_chain),
    ("oracle-compare", criterion_oracle_compare),
    ("split-dimension-count", criterion_split_dimension_count),
)


def run_all(seed=0):
    """[(name, passed, detail)] for every criterion."""
    results = []
    for name, fn in CRITERIA:
        passed, detail = fn(seed=seed)
        results.append((name, passed, detail))
    return results
