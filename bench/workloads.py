"""The three workloads: a fixed cycle of job templates, seeded inputs, checks.

A workload is a cycle of templates run in a fixed order.  The seed draws
every template's concrete input (a change of basis, a random module), so two
runs with different seeds do the same kinds of work on different inputs and
no (command, input) pair repeats within a run.  A job is one public call; its
check runs after the timer has stopped and compares the result with an
answer from ``reference``, or, on ``modular-oracle``, with the exhaustive
oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import inputs
import reference


class Job:
    """One timed public call and the untimed checks of its result."""

    __slots__ = ("id", "key", "run", "check", "outcome")

    def __init__(self, job_id, key, run, check, outcome):
        self.id = job_id        # cycle, slot and template
        self.key = key          # canonical form of the input, unique in a run
        self.run = run          # () -> result, the timed call
        self.check = check      # result -> None, or a description of the failure
        self.outcome = outcome  # result -> canonical text of the result


def run_cli(argv):
    """splitfields.cli.main in process, with stdout and stderr captured."""
    from splitfields import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_outcome(result):
    code, out, _err = result
    return f"exit {code}\n{out}"


def _payload(result, expect_code):
    code, out, err = result
    if code != expect_code:
        return None, f"exit code {code}, expected {expect_code}: {err.strip()[:200]}"
    try:
        return json.loads(out)["payload"], None
    except (ValueError, KeyError) as exc:
        return None, f"unparsable output: {exc}"


def _rng(workload, seed, cycle, slot, attempt=0):
    return random.Random(f"{workload}:{seed}:{cycle}:{slot}:{attempt}")


class Exhausted(Exception):
    """A template has no input left that the run has not used."""


def _distinct(draw, seen, what):
    """Call ``draw(attempt)`` until it returns a key not in ``seen``;
    (key, value).  Gives up only when nearly every input has been used."""
    for attempt in range(256):
        key, value = draw(attempt)
        if key not in seen:
            seen.add(key)
            return key, value
    raise Exhausted(f"no fresh input left for {what}")


# ---------------------------------------------------------------------------
# modular-oracle: MeatAxe composition factors vs the exhaustive oracle
# ---------------------------------------------------------------------------

# (p, source algebra, recipe).  Recipes follow corpus.random_modules: the
# regular module R, R + R, a spun submodule of R of the given dimension, the
# quotient by it, or that submodule summed with R; every module is then
# conjugated by a seeded invertible matrix.  The mix fixes the class of each
# slot because the job cost depends on it (the oracle enumerates all p^dim
# vectors).  F_3 modules of dimension 6 (~10 s each) are left out.  Every
# template has at least ~600 distinct conjugates, about 27 times the cycles
# a 30 s run makes at the time of writing, so a run of a much faster
# library still finds fresh inputs; F_2 modules below dimension 4, F_3
# modules below dimension 3, and R + R for C_2 over F_2 and a 1-dimensional
# piece plus R for C_2 over F_3 (about 210 and 235 conjugates) are left out
# for that reason.  The three F_3 slots of dimension 4 on m2 and c4 (~0.3 s)
# are the slowest and hold the 90th percentile; the median falls among the
# 40-55 ms slots.
MODULAR_CYCLE = (
    (3, "u2", ("reg",)), (2, "c4", ("reg",)), (3, "m2", ("reg",)),
    (3, "u2", ("piece", 1)), (2, "c3", ("piece", 1)), (2, "u2", ("sum",)),
    (3, "c2", ("sum",)), (2, "u2", ("piece", 2)), (3, "c4", ("reg",)),
    (2, "u2", ("piece", 1)), (2, "m2", ("reg",)), (3, "c2", ("sum",)),
    (3, "c3", ("reg",)), (3, "c4", ("quot", 1)), (2, "c3", ("piece", 2)),
    (3, "u2", ("piece", 1)), (3, "c4", ("reg",)),
)


def _source_algebra(name, F):
    from splitfields import algebras

    if name.startswith("c"):
        return algebras.cyclic_group_algebra(int(name[1:]), F)
    if name == "u2":
        return algebras.upper_triangular_algebra(2, F)
    return algebras.matrix_algebra(2, F)


def _spun_basis(R, dim, rng):
    from splitfields import modules

    F = R.algebra.field
    for _ in range(500):
        v = [F.from_base(rng.randrange(F.characteristic)) for _ in range(R.dim)]
        if any(v):
            basis = modules.spin(R, [v])
            if len(basis) == dim:
                return basis
    raise RuntimeError(f"no {dim}-dimensional cyclic submodule found")


def _modular_module(p, alg, recipe, rng, regular):
    from splitfields import fields, linalg, modules

    F = fields.prime_field(p)
    key = (p, alg)
    if key not in regular:
        regular[key] = _source_algebra(alg, F).regular_module()
    R = regular[key]
    kind = recipe[0]
    if kind == "reg":
        M = R
    elif kind == "sum":
        M = modules.direct_sum(R, R)
    else:
        basis = _spun_basis(R, recipe[1], rng)
        parts = modules.sub_quotient(R, basis)
        if kind == "sub":
            M = parts.sub
        elif kind == "quot":
            M = parts.quot
        else:
            M = modules.direct_sum(parts.sub, R)
    P = inputs.random_invertible(M.dim, p, rng)
    P = linalg.Matrix(F, M.dim, M.dim, [[F.from_base(c) for c in row] for row in P])
    return modules.conjugate(M, P)


def _modular_job(job_id, key, M):
    from splitfields import structure

    def run():
        return (structure.composition_factors(M, seed=0),
                structure.oracle_composition_series_dims(M))

    def check(result):
        factors, oracle = result
        dims = sorted(S.dim for S, m in factors for _ in range(m))
        if dims != sorted(oracle):
            return f"MeatAxe factor dims {dims} vs oracle {sorted(oracle)}"
        if sum(dims) != M.dim:
            return f"factor dims {dims} do not add up to {M.dim}"
        return None

    def outcome(result):
        factors, oracle = result
        return repr(([(S.dim, m, S.key()) for S, m in factors], oracle))

    return Job(job_id, key, run, check, outcome)


class ModularOracle:
    templates = MODULAR_CYCLE

    def __init__(self, seed, workdir):
        self.seed = seed
        self.regular = {}
        self.seen = set()

    def cycle(self, c):
        row = []
        for s, (p, alg, recipe) in enumerate(MODULAR_CYCLE):
            label = f"F{p}-{alg}-{'-'.join(map(str, recipe))}"

            def draw(attempt):
                rng = _rng("modular-oracle", self.seed, c, s, attempt)
                M = _modular_module(p, alg, recipe, rng, self.regular)
                return M.key(), M

            key, M = _distinct(draw, self.seen, label)
            row.append(_modular_job(f"c{c:03d}-s{s:02d}-{label}", key, M))
        return row


# ---------------------------------------------------------------------------
# rational-split: CLI verdicts on char-0 algebras
# ---------------------------------------------------------------------------

# (command, family, parameter).  Every input is a standard algebra under a
# seeded monomial change of basis.  Quaternion parameters are fixed per slot
# so that every seed meets the same algebras.  The eight split-find U_3 slots
# (~70 ms) hold the median and the five simples QQ[C_6] slots (~0.2 s) the
# 90th percentile, below radical on M_4(QQ) and simples on the division
# algebra (-1, -1).  split-find runs only on algebras that split over their
# own field: on QQ[C_4] it adjoins a root of a quadratic factor of a minimal
# polynomial, and for about one basis in 500 factoring over that field does
# not return within minutes (sympy's algebraic field on a root of
# 9x^2 + 12x + 8, factoring x^2 + 3x + 265/4), which would stop the run.
RATIONAL_CYCLE = (
    ("split-find", "U", 3), ("radical", "H", (-1, -1)), ("split-check", "U", 3),
    ("simples", "C", 6), ("split-check", "D", 4), ("split-find", "U", 3),
    ("radical", "M_QQ", 3), ("split-find", "M_QQ", 2), ("simples", "C", 4),
    ("split-find", "U", 3), ("split-check", "M_QQi", 2), ("split-find", "U", 2),
    ("radical", "M_QQ", 4), ("radical", "M_QQi", 2), ("split-find", "U", 3),
    ("simples", "D", 3), ("radical", "M_QQi", 3), ("simples", "C", 6),
    ("split-check", "C", 3), ("simples", "U", 3), ("split-find", "U", 3),
    ("radical", "H", (2, 7)), ("split-check", "U", 3), ("split-find", "D", 4),
    ("simples", "C", 6), ("split-find", "U", 3), ("simples", "M_QQ", 2),
    ("split-check", "M_QQi", 2), ("simples", "C", 6), ("radical", "U", 3),
    ("split-find", "U", 3), ("radical", "C", 6), ("radical", "M_QQ", 3),
    ("split-check", "U", 2), ("simples", "H", (-1, -1)), ("split-check", "C", 4),
    ("split-find", "U", 3), ("radical", "M_QQi", 3), ("split-find", "M_QQi", 2),
    ("simples", "C", 6),
)


_PLAIN = str.maketrans({" ": None, "(": None, ")": None, ",": "_"})


def _rational_family(family, param):
    """(table, unit, field payload, expected answers, radical coordinates)."""
    if family in ("M_QQ", "M_QQi"):
        C, unit = inputs.matrix_table(param)
        field = inputs.FIELD_QQ if family == "M_QQ" else inputs.FIELD_QQ_I
        return C, unit, field, reference.expected_matrix(param), []
    if family == "C":
        C, unit = inputs.cyclic_table(param)
        return C, unit, inputs.FIELD_QQ, reference.expected_group_char0(param), []
    if family == "H":
        C, unit = inputs.quaternion_table(*param)
        return C, unit, inputs.FIELD_QQ, reference.expected_quaternion(*param), []
    if family == "U":
        C, unit, pairs = inputs.upper_table(param)
        strict = [i for i, (a, b) in enumerate(pairs) if a < b]
        return C, unit, inputs.FIELD_QQ, reference.expected_upper(param), strict
    C, unit = inputs.diagonal_table(param)
    return C, unit, inputs.FIELD_QQ, reference.expected_diagonal(param), []


def _simple_triples(entries, with_end):
    return sorted((e["dim"], e["multiplicity"], e["dim_end"]) if with_end
                  else (e["module"]["dim"], e["multiplicity"]) for e in entries)


def _rational_check(command, exp, dim, radical_coords):
    def check(result):
        if command == "radical":
            payload, err = _payload(result, 0)
            if err:
                return err
            if payload["dim_algebra"] != dim or payload["dim_radical"] != exp.radical_dim:
                return f"radical dim {payload['dim_radical']}, expected {exp.radical_dim}"
            rows = [[Fraction(c) for c in row] for row in payload["basis"]]
            outside = [i for row in rows for i, c in enumerate(row)
                       if c and i not in radical_coords]
            if outside or reference.rank(rows) != len(radical_coords):
                return "radical basis does not span the strictly upper part"
            return None
        if command == "simples":
            payload, err = _payload(result, 0)
            if err:
                return err
            got = _simple_triples(payload["simples"], False)
            want = sorted((d, m) for d, m, _ in exp.simples)
            return None if got == want else f"simples {got}, expected {want}"
        if command == "split-check":
            payload, err = _payload(result, 0 if exp.is_split else 1)
            if err:
                return err
            got = _simple_triples(payload["simples"], True)
            if payload["verdict"] is not exp.is_split or got != exp.simples:
                return f"split-check {payload['verdict']} {got}, expected {exp.simples}"
            return None
        payload, err = _payload(result, 0)
        if err:
            return err
        got = _simple_triples(payload["certificate"]["simples"], True)
        if payload["degree"] != exp.split_degree or got != exp.split_simples \
                or payload["certificate"]["verdict"] is not True:
            return (f"split-find degree {payload['degree']} {got}, expected "
                    f"{exp.split_degree} {exp.split_simples}")
        return None
    return check


class RationalSplit:
    templates = RATIONAL_CYCLE

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.seen = set()

    def cycle(self, c):
        row = []
        for s, (command, family, param) in enumerate(RATIONAL_CYCLE):
            C, unit, field, exp, strict = _rational_family(family, param)
            label = f"{command}-{family}-{param}".translate(_PLAIN)

            def draw(attempt):
                rng = _rng("rational-split", self.seed, c, s, attempt)
                P = inputs.monomial_matrix(len(unit), rng)
                table, new_unit = inputs.change_basis(C, unit, P)
                doc = inputs.algebra_document(table, new_unit, field)
                # f_i lies in the radical iff it is a multiple of a strictly
                # upper matrix unit; P is monomial, so that is one coordinate
                rad = [i for i in range(len(unit))
                       if any(P[a][i] for a in strict)]
                return json.dumps(doc, sort_keys=True), (doc, rad)

            key, (doc, rad) = _distinct(draw, self.seen, label)
            job_id = f"c{c:03d}-s{s:02d}-{label}"
            path = self.workdir / f"{job_id}.json"
            inputs.write_json(path, doc)
            argv = [command, str(path)]
            row.append(Job(job_id, key, lambda argv=argv: run_cli(argv),
                           _rational_check(command, exp, len(unit), rad), _cli_outcome))
        return row


# ---------------------------------------------------------------------------
# extension-tower: base change, descent and splitting over finite fields
# ---------------------------------------------------------------------------

# ("split-find", p, n): find_splitting_field on GF(p)[C_n].
# ("chain", family, n): the chain-verify CLI for F_2 <= F_4 <= F_16, on
#     algebras whose simple modules over F_16 are one-dimensional.  On M_n
#     the library can wrongly report that the two sides disagree (exit 4;
#     see test_chain_verify_known_defect), so M_n is left out here.
# ("theta" | "endext", family, n, p, k, module): theta_dim_check or
#     end_algebra_extension_check along GF(p) -> GF(p^k) on the regular
#     module or on a simple module written down from its definition.
# ("descend", family, n, p, k, order): descend_module on the one-dimensional
#     module of GF(p^k)[C_n] on which the generator acts by an element of the
#     given order; it descends to GF(p^ord_order(p)).
# Costs vary by tens of percent between inputs of one template, so the cycle
# has three cost classes that barely overlap: ten cheap slots (< ~60 ms), a
# block of five at ~90 ms (end_algebra_extension_check on F_2[C_4] -> F_4
# and theta_dim_check on a simple of F_2[C_5] over F_16) that holds the
# median, and ten slow slots (> ~150 ms), whose slowest five, theta_dim_check
# on M_3 over F_4 (~0.7 s, 81 unknowns), hold the 90th percentile.  Both
# descend_module slots with a proper subfield (F_9 down to F_3, F_16 down to
# F_4) check that descent happens.  Every template has at least ~2000
# distinct tables, hundreds of times the cycles a 30 s run makes at the time
# of writing; the 3-dimensional algebras over F_2 (C_3 and U_2, 84 tables
# each) are left out for that reason.
EXTENSION_CYCLE = (
    ("split-find", 3, 4), ("endext", "C", 4, 2, 2, "regular"),
    ("theta", "M", 3, 2, 2, "regular"), ("endext", "M", 2, 2, 4, "simple"),
    ("chain", "C", 5), ("descend", "C", 4, 3, 2, 2),
    ("theta", "C", 5, 2, 4, "simple"), ("theta", "M", 3, 2, 2, "regular"),
    ("endext", "C", 3, 3, 2, "regular"), ("split-find", 2, 5),
    ("theta", "M", 2, 2, 2, "regular"), ("endext", "C", 4, 2, 2, "regular"),
    ("theta", "M", 3, 2, 2, "regular"), ("descend", "C", 12, 2, 4, 3),
    ("endext", "U", 2, 3, 2, "regular"), ("chain", "U", 3),
    ("theta", "U", 2, 3, 2, "regular"), ("theta", "C", 5, 2, 4, "simple"),
    ("theta", "M", 3, 2, 2, "regular"), ("descend", "C", 4, 3, 2, 4),
    ("split-find", 3, 4), ("endext", "C", 4, 2, 2, "regular"),
    ("chain", "C", 5), ("theta", "M", 2, 2, 4, "regular"),
    ("theta", "M", 3, 2, 2, "regular"),
)

F4_MODULUS = (1, 1, 1)          # x^2 + x + 1
F16_MODULUS = (1, 1, 0, 0, 1)   # x^4 + x + 1


def _finite_table(family, n):
    if family == "M":
        return inputs.matrix_table(n)
    if family == "U":
        C, unit, _ = inputs.upper_table(n)
        return C, unit
    return inputs.cyclic_table(n)


def _library_algebra(table, unit, p):
    from splitfields import algebras, fields

    F = fields.prime_field(p)
    d = len(unit)
    el = [F.from_base(c) for c in range(p)]
    consts = [[[el[c] for c in vec] for vec in row] for row in table]
    return algebras.Algebra(F, d, [f"b{i}" for i in range(d)], consts,
                            [el[c] for c in unit])


def _simple_actions(family, n, p):
    """Actions of the standard basis on a simple module, and dim End of it.

    M_n: the column space, with End = GF(p).  C_n: GF(p)[x]/(g) for the
    irreducible factor g of x^n - 1 of largest degree, with End of
    dimension deg g.
    """
    if family == "M":
        acts = []
        for a in range(n):
            for b in range(n):
                acts.append([[int(r == a and c == b) for c in range(n)] for r in range(n)])
        return acts, 1
    g = max(reference.poly_mod_p_irreducible_factors([-1] + [0] * (n - 1) + [1], p),
            key=len)
    comp = reference.companion(g, p)
    return [reference.mat_pow_p(comp, a, p) for a in range(n)], len(g) - 1


def _element_of_order(F, m):
    """The first element of F, in canonical order, of multiplicative order m."""
    for a in F.elements():
        if not a:
            continue
        x, k = a, 1
        while x != F.one():
            x, k = x * a, k + 1
        if k == m:
            return a
    raise RuntimeError(f"no element of order {m} in {F}")


class _Fields:
    """Field descriptors and embeddings shared by the jobs of one set-up."""

    def __init__(self):
        self._cache = {}

    def get(self, p, k):
        if (p, k) not in self._cache:
            from splitfields import fields

            F = fields.finite_field_of_degree(p, k)
            self._cache[(p, k)] = (F, fields.embed_find(fields.prime_field(p), F))
        return self._cache[(p, k)]


def _extension_job(spec, job_id, table, unit, P, fields_, workdir):
    """(run, check, outcome) of the job for one EXTENSION_CYCLE spec."""
    from splitfields import basechange, linalg, modules, splitting

    kind = spec[0]
    if kind == "split-find":
        _, p, n = spec
        A = _library_algebra(table, unit, p)
        exp = reference.expected_group_modular(n, p)

        def run():
            return splitting.find_splitting_field(A, seed=0)

        def check(res):
            got = sorted((e.module.dim, e.multiplicity, e.dim_end)
                         for e in res.certificate.per_simple)
            if res.degree != exp.split_degree or res.final_field.order != p ** res.degree \
                    or got != exp.split_simples or not res.certificate.verdict:
                return (f"degree {res.degree} {got}, expected {exp.split_degree} "
                        f"{exp.split_simples}")
            return None

        def outcome(res):
            from splitfields import documents

            return documents.dumps(documents.splitting_result_out(res))

        return run, check, outcome

    if kind == "chain":
        _, family, n = spec
        path = workdir / f"{job_id}.json"
        inputs.write_json(path, inputs.algebra_document(table, unit,
                                                        inputs.prime_field_payload(2)))
        argv = ["chain-verify", str(path), "--mid", str(workdir / "field_F4.json"),
                "--top", str(workdir / "field_F16.json")]
        if family == "C":
            expect_mid = 2 % reference.mult_order(2, n // reference.p_part(n, 2)) == 0
        else:
            expect_mid = True

        def check(result):
            payload, err = _payload(result, 0)
            if err:
                return err
            if payload["decisive"] is not True or payload["agree"] is not True \
                    or payload["splitting_over_mid"] is not expect_mid \
                    or payload["splitting_over_top_with_descent"] is not expect_mid:
                return f"chain report {payload}, expected both sides {expect_mid}"
            return None

        return lambda: run_cli(argv), check, _cli_outcome

    _, family, n, p, k = spec[:5]
    A = _library_algebra(table, unit, p)
    F, emb = fields_.get(p, k)
    base = A.field

    if kind == "descend":
        order = spec[5]
        zeta = _element_of_order(F, order)
        powers = [F.one()]
        for _ in range(n - 1):
            powers.append(powers[-1] * zeta)
        images = []
        for i in range(len(unit)):
            x = F.zero()
            for a in range(n):
                if P[a][i]:
                    x = x + F.from_base(P[a][i]) * powers[a]
            images.append(linalg.Matrix(F, 1, 1, [[x]]))
        want = reference.mult_order(p, order)

        def run():
            ctx = basechange.extend_algebra(A, emb)
            V = modules.Module(ctx.extended, 1, images)
            return basechange.descend_module(ctx, V)

        def check(res):
            if res.subfield.degree != want or res.module.dim != 1:
                return f"descended to degree {res.subfield.degree}, expected {want}"
            return None

        def outcome(res):
            from splitfields import documents

            return documents.dumps(documents.module_out(res.module))

        return run, check, outcome

    if spec[5] == "regular":
        M = A.regular_module()
        hom_dim = len(unit)
    else:
        acts, hom_dim = _simple_actions(family, n, p)
        acts = inputs.apply_to_module(acts, P, p)
        dim = len(acts[0])
        M = modules.Module(A, dim, [linalg.Matrix(base, dim, dim,
                                                  [[base.from_base(c) for c in row]
                                                   for row in a]) for a in acts])

    if kind == "theta":
        def run():
            ctx = basechange.extend_algebra(A, emb)
            return basechange.theta_dim_check(M, M, ctx)

        def check(res):
            if not res.equal or res.dim_base != hom_dim or res.dim_extended != hom_dim:
                return f"hom dims {res.dim_base} -> {res.dim_extended}, expected {hom_dim}"
            return None

        return run, check, repr

    def run():
        ctx = basechange.extend_algebra(A, emb)
        return basechange.end_algebra_extension_check(M, ctx)

    def check(res):
        return None if res is True else "End(M)^F and End(M^F) differ"

    return run, check, repr


class ExtensionTower:
    templates = EXTENSION_CYCLE

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.fields = _Fields()
        self.seen = set()
        for name, modulus in (("F4", F4_MODULUS), ("F16", F16_MODULUS)):
            inputs.write_json(workdir / f"field_{name}.json", inputs.field_document(
                inputs.finite_field_payload(2, modulus)))

    def cycle(self, c):
        row = []
        for s, spec in enumerate(EXTENSION_CYCLE):
            kind = spec[0]
            if kind == "split-find":
                p, family, n = spec[1], "C", spec[2]
            elif kind == "chain":
                p, family, n = 2, spec[1], spec[2]
            else:
                p, family, n = spec[3], spec[1], spec[2]
            C, unit = _finite_table(family, n)
            label = "-".join(map(str, spec))

            def draw(attempt):
                rng = _rng("extension-tower", self.seed, c, s, attempt)
                P = (inputs.random_invertible(len(unit), p, rng) if len(unit) <= 8
                     else inputs.monomial_matrix(len(unit), rng, p))
                table, new_unit = inputs.change_basis(C, unit, P, p)
                return (label, repr(table)), (table, new_unit, P)

            key, (table, new_unit, P) = _distinct(draw, self.seen, label)
            job_id = f"c{c:03d}-s{s:02d}-{label}"
            run, check, outcome = _extension_job(spec, job_id, table, new_unit, P,
                                                 self.fields, self.workdir)
            row.append(Job(job_id, key, run, check, outcome))
        return row


WORKLOADS = {
    "modular-oracle": ModularOracle,
    "rational-split": RationalSplit,
    "extension-tower": ExtensionTower,
}
