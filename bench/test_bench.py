"""Tests of the benchmark itself: seeded job lists, tracer removal, reference answers.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import host  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _cycle(name, seed, path, c=0):
    path.mkdir()
    return workloads.WORKLOADS[name](seed, path).cycle(c)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs(name, tmp_path):
    a = _cycle(name, 5, tmp_path / "a")
    b = _cycle(name, 5, tmp_path / "b")
    c = _cycle(name, 6, tmp_path / "c")
    assert [(j.id, j.key) for j in a] == [(j.id, j.key) for j in b]
    assert [j.key for j in a] != [j.key for j in c]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_input_repeats_within_a_run(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, tmp_path)
    keys = [job.key for c in range(3) for job in wl.cycle(c)]
    assert len(keys) == len(set(keys))


# a few cheap jobs per workload, by slot index in cycle 0
_CHEAP = {"modular-oracle": (0, 2, 11, 14), "rational-split": (2, 6, 15, 24),
          "extension-tower": (0, 3, 5, 13)}


def _attributes():
    """Every attribute of the splitfields modules and of the traced classes."""
    from splitfields import fields, linalg

    owners = [m for n, m in sorted(sys.modules.items()) if n.startswith("splitfields")]
    owners += [linalg.Matrix, fields.FieldElement]
    return [(owner, name, value) for owner in owners
            for name, value in list(vars(owner).items())]


def test_untraced_results_identical_after_a_traced_run(tmp_path):
    jobs = []
    for name, slots in _CHEAP.items():
        cycle = _cycle(name, 1, tmp_path / name)
        jobs += [cycle[s] for s in slots]

    def outcomes(t=None):
        out = []
        for job in jobs:
            if t is not None:
                t.start_job(job.id)
            result = job.run()
            assert job.check(result) is None, job.id
            out.append(job.outcome(result))
        return out

    before = outcomes()
    originals = _attributes()
    t = tracer.Tracer()
    t.install()
    try:
        patched = sum(value is not vars(owner)[name] for owner, name, value in originals)
        during = outcomes(t)
    finally:
        t.restore()
    after = outcomes()
    assert before == during == after
    assert patched > 40
    assert all(vars(owner)[name] is value for owner, name, value in originals)
    metrics = run._report(t.values(0.0), run._load_spec()["per_layer"])
    assert metrics["structure.oracle.self_s"]["value"] > 0
    assert metrics["polys.factor.char0.calls"]["value"] > 0
    assert metrics["basechange.extend_algebra.calls"]["value"] > 0
    assert metrics["basechange.descend_module.calls"]["value"] > 0


class _Trivial:
    """A workload of instant jobs; ``limit`` cycles, then Exhausted."""

    templates = ("noop",) * 10
    limit = None

    def __init__(self, seed, workdir):
        pass

    def cycle(self, c):
        if self.limit is not None and c >= self.limit:
            raise workloads.Exhausted("no fresh input left for noop")
        return [workloads.Job(f"c{c}-s{s}", (c, s), lambda: 1, lambda r: None, repr)
                for s in range(10)]


def test_untraced_reports_every_end_to_end_metric_of_benchmark_json():
    attempted, failures, measured, values = run.untraced(_Trivial(0, None), [], 0,
                                                         run.HostSpeed())
    values["setup_s"] = 1.0
    spec = run._load_spec()["end_to_end"]
    assert set(run._report(values, spec)) == set(spec)
    assert set(measured) == set(values) - {"setup_s"}
    assert attempted == run.MIN_JOBS and not failures


def test_host_speed_is_the_mean_speed_of_the_probes(monkeypatch):
    """Probes at the reference time and at twice it: a phase probed at both,
    half and half, ran at speed (1 + 1/2) / 2 of the reference host, and a
    job between a fast and a slow probe at the same speed."""
    ref = host.PROBE_SECONDS
    times = iter([ref] * 10 + [ref, 2 * ref] * 10 + [2 * ref] * 4)
    monkeypatch.setattr(host, "probe", lambda: next(times))
    h = host.HostSpeed()
    h.sample("quiet", 10)
    h.sample("mixed", 20)
    assert h.after_job("busy", 3.5 * host.PROBE_SPACING) == pytest.approx(0.5)
    assert h.speed("quiet") == pytest.approx(1.0)
    assert h.speed("mixed") == pytest.approx(0.75)
    assert h.speed("busy") == pytest.approx(0.5)
    assert len(h.phases["busy"]) == 4
    times = iter([ref, 2 * ref])
    h = host.HostSpeed()
    assert h.after_job("run", 0.0) == pytest.approx(1.0)
    assert h.after_job("run", 0.0) == pytest.approx(0.75)


def test_a_run_out_of_inputs_fails_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "_import_seconds", lambda host: 0.0)
    monkeypatch.setitem(run.WORKLOADS, "modular-oracle",
                        type("_Short", (_Trivial,), {"limit": 12}))
    code = run.main(["--workload", "modular-oracle", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr()
    assert code != 0 and out.out == "" and "no fresh input left" in out.err


def test_descend_check_needs_a_proper_subfield(tmp_path):
    """A descend_module that returned the whole field F_16 must fail the check."""
    from types import SimpleNamespace

    job = _cycle("extension-tower", 1, tmp_path / "w")[13]
    assert "descend-C-12-2-4-3" in job.id
    assert job.check(job.run()) is None
    whole = SimpleNamespace(subfield=SimpleNamespace(degree=4),
                            module=SimpleNamespace(dim=1))
    assert job.check(whole) is not None


def test_reference_hand_cases():
    m2 = reference.expected_matrix(2)
    assert (m2.radical_dim, m2.simples, m2.split_degree, m2.is_split) == \
        (0, [(2, 2, 1)], 1, True)
    c5 = reference.expected_group_modular(5, 2)
    assert c5.split_degree == 4 and c5.simples == [(1, 1, 1), (4, 1, 4)]
    assert not c5.is_split
    c6 = reference.expected_group_modular(6, 2)
    assert (c6.radical_dim, c6.split_degree, c6.split_simples) == (3, 2, [(1, 2, 1)] * 3)
    q4 = reference.expected_group_char0(4)
    assert sorted(d for d, _, _ in q4.simples) == [1, 1, 2] and q4.split_degree == 2
    assert reference.expected_upper(3).simples == [(1, 1, 1), (1, 2, 1), (1, 3, 1)]
    assert not reference.quaternion_splits(-1, -1)
    assert not reference.quaternion_splits(2, 5)
    assert not reference.quaternion_splits(-1, 3)
    assert reference.quaternion_splits(1, 3)
    assert reference.quaternion_splits(2, 7)
    assert reference.quaternion_splits(-1, 2)
    assert reference.mult_order(3, 8) == 2 and reference.phi(12) == 4


def _is_algebra(C, unit, p=0):
    """Associativity and the unit laws, checked entry by entry."""
    d = len(unit)

    def mul(x, y):
        out = [0] * d
        for i in range(d):
            for j in range(d):
                if x[i] and y[j]:
                    for l in range(d):
                        out[l] += x[i] * y[j] * C[i][j][l]
        return [v % p for v in out] if p else out

    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    return all(mul(unit, e) == e == mul(e, unit) for e in basis) and all(
        mul(mul(a, b), c) == mul(a, mul(b, c))
        for a in basis for b in basis for c in basis)


def test_tables_and_changes_of_basis_are_algebras():
    import random

    rng = random.Random(0)
    for C, unit in (inputs.matrix_table(2), inputs.quaternion_table(-1, 3),
                    inputs.upper_table(3)[:2], inputs.diagonal_table(3)):
        assert _is_algebra(C, unit)
        P = inputs.monomial_matrix(len(unit), rng)
        assert _is_algebra(*inputs.change_basis(C, unit, P))
    C, unit = inputs.cyclic_table(4)
    P = inputs.random_invertible(4, 3, rng)
    assert _is_algebra(*inputs.change_basis(C, unit, P, 3), p=3)


def test_run_fails_without_sources(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for f in HERE.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload",
                           "modular-oracle", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.xfail(strict=True, reason="library defect: chain-verify on M_2(F_2) in "
                   "this basis reports that the two sides disagree (exit 4)")
def test_chain_verify_known_defect(tmp_path):
    """Left out of extension-tower, which allows no failing job: the chain
    harness treats standard-basis descent as decisive over finite fields, but
    the 2-dimensional simple of M_2(F_2)^F_16 can come out of the MeatAxe in
    a basis whose entries generate F_16, although it can be written over F_2.
    About 1 in 100 dense bases of M_2(F_2) hits it.  When this test starts
    passing, add chain jobs on M_n back to EXTENSION_CYCLE."""
    C, unit = inputs.matrix_table(2)
    P = [[1, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1], [1, 1, 1, 1]]
    table, new_unit = inputs.change_basis(C, unit, P, 2)
    algebra = tmp_path / "algebra.json"
    inputs.write_json(algebra, inputs.algebra_document(table, new_unit,
                                                       inputs.prime_field_payload(2)))
    for name, modulus in (("F4", workloads.F4_MODULUS), ("F16", workloads.F16_MODULUS)):
        inputs.write_json(tmp_path / f"{name}.json", inputs.field_document(
            inputs.finite_field_payload(2, modulus)))
    code, _out, _err = workloads.run_cli(["chain-verify", str(algebra), "--mid",
                                          str(tmp_path / "F4.json"), "--top",
                                          str(tmp_path / "F16.json")])
    assert code == 0

