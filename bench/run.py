"""splitfields benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up (importing sympy and splitfields, generating and writing
the inputs of the first cycles, enough for MIN_JOBS jobs) is timed several
times and reported as its median.  The untraced run (``--trace 0``) then
runs whole cycles of the workload's job templates until at least
``--seconds`` of job time and at least MIN_JOBS jobs have accumulated, and
reports the end-to-end metrics.  The traced run (``--trace 1``) runs a
warm-up cycle, a fixed number of cycles untraced, then the same cycles again
under the tracer, and reports the per-layer metrics.  Timings are scaled to
a reference host by the host's speed, sampled with a fixed probe between
jobs (``host.py``).
Stdout ends with an environment stamp (with the measured, unscaled values)
and then the result, one JSON object with the keys "correct", "attempted",
"failed" and "metrics".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from host import HostSpeed  # noqa: E402  (needs HERE on the path)
from workloads import WORKLOADS, Exhausted  # noqa: E402

MIN_JOBS = 100        # so that at least 10 jobs lie beyond the 90th percentile
SETUP_REPEATS = 5
SETUP_PROBES = 20     # probes of the host's speed before each set-up repetition

# The metric names and units a run prints are those of BENCHMARK.json.
SPEC = ROOT / "BENCHMARK.json"

# Cycles of job templates run untraced, and then again traced, in a traced run.
TRACE_CYCLES = {"modular-oracle": 3, "rational-split": 1, "extension-tower": 2}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sympy, splitfields; "
    "print(time.perf_counter() - t)"
)


def _import_seconds(host):
    """Median wall time of importing sympy and splitfields in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        host.sample("setup", SETUP_PROBES)
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def _import_library():
    sys.path.insert(0, str(SRC))
    import sympy  # noqa: F401  (set-up imports it for every workload)
    import splitfields

    if Path(splitfields.__file__).resolve().parent != SRC / "splitfields":
        raise RuntimeError(f"splitfields imported from {splitfields.__file__}, not {SRC}")


def _setup(workload, seed, workdir, cycles, repeats, host=None):
    """Generate and write the inputs of the first ``cycles`` cycles ``repeats``
    times; the median time, the workload and the cycles of the last repetition."""
    times = []
    for r in range(repeats):
        if host is not None:
            host.sample("setup", SETUP_PROBES)
        target = workdir / f"inputs{r}"
        target.mkdir(parents=True)
        t0 = time.perf_counter()
        wl = WORKLOADS[workload](seed, target)
        prepared = [wl.cycle(c) for c in range(cycles)]
        times.append(time.perf_counter() - t0)
    return statistics.median(times), wl, prepared


def environment(args):
    """The stamp printed with every result."""
    import sympy

    # git must not look for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True,
                             timeout=30).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "sympy": sympy.__version__, "git_sha": sha, "nproc": os.cpu_count(),
            "processes": 1, "threads": threading.active_count()}


def run_jobs(jobs, host, phase, tracer=None):
    """Run jobs back to back; (latencies, latencies scaled to the reference
    host, failures).  Checks and the probes of the host's speed after each
    job run untimed."""
    latencies, scaled, failures = [], [], []
    for job in jobs:
        if tracer is not None:
            tracer.start_job(job.id)
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception:  # a job that raises counts as failed, the run goes on
            result, problem = None, traceback.format_exc(limit=4)
        else:
            problem = None
        latencies.append(time.perf_counter() - t0)
        scaled.append(latencies[-1] * host.after_job(phase, latencies[-1]))
        problem = problem or job.check(result)
        if problem:
            failures.append((job.id, problem))
    return latencies, scaled, failures


def _load_spec():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _report(values, units):
    """The metrics named in ``units``, each with its unit; a KeyError names a
    metric of BENCHMARK.json that the run does not measure."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _job_metrics(latencies, completed):
    return {"jobs_per_s": completed / sum(latencies),
            "job_p50_s": statistics.median(latencies),
            "job_p90_s": _percentile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def untraced(wl, prepared, seconds, host):
    """Whole cycles until ``seconds`` of job time and MIN_JOBS jobs; cycles
    beyond the prepared ones are generated between cycles, off the clock.
    A template that runs out of fresh inputs raises Exhausted, which ends
    the run without a result.  (attempted, failures, metrics as measured,
    metrics with job times scaled to the reference host)."""
    latencies, scaled, failures = [], [], []
    c = 0
    while sum(latencies) < seconds or len(latencies) < MIN_JOBS:
        cycle = prepared[c] if c < len(prepared) else wl.cycle(c)
        lat, sc, fail = run_jobs(cycle, host, "run")
        latencies += lat
        scaled += sc
        failures += fail
        c += 1
    completed = len(latencies) - len(failures)
    return (len(latencies), failures, _job_metrics(latencies, completed),
            _job_metrics(scaled, completed))


def traced(plain, twin, trace_path, host):
    """Cycle 0 of ``plain`` as a warm-up, its other cycles untraced, then the
    same cycles of ``twin`` (the same inputs, generated again as fresh
    objects) under the tracer.  Only the traced jobs are counted in the
    metrics, so counts repeat exactly for a seed; the warm-up keeps first-call
    costs (field and sympy caches) out of the overhead ratio, and every job's
    time is scaled to the reference host."""
    from tracer import Tracer

    warm, _, failures = run_jobs(plain[0], host, "warm")
    base = [job for cycle in plain[1:] for job in cycle]
    jobs = [job for cycle in twin[1:] for job in cycle]
    _, base_scaled, fail = run_jobs(base, host, "untraced")
    failures += fail
    tracer = Tracer()
    tracer.install()
    try:
        _, scaled, fail = run_jobs(jobs, host, "traced", tracer)
    finally:
        tracer.restore()
    failures += fail
    tracer.write_spans(trace_path)
    metrics = tracer.values(sum(scaled) / sum(base_scaled) - 1)
    return len(warm) + len(base) + len(jobs), failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "splitfields" / "__init__.py").is_file():
        print(f"error: no splitfields sources under {SRC}", file=sys.stderr)
        return 2

    units = _load_spec()
    host = HostSpeed()
    measured = None
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            _import_library()
            plain, twin = (_setup(args.workload, args.seed, workdir / half,
                                  1 + TRACE_CYCLES[args.workload], 1)[2]
                           for half in ("plain", "twin"))
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            attempted, failures, metrics = traced(
                plain, twin, out_dir / f"spans-{args.workload}-seed{args.seed}.json",
                host)
            metrics = _report(metrics, units["per_layer"])
        else:
            import_s = _import_seconds(host)
            _import_library()
            first = -(-MIN_JOBS // len(WORKLOADS[args.workload].templates))
            setup_s, wl, prepared = _setup(args.workload, args.seed, workdir, first,
                                           SETUP_REPEATS, host)
            attempted, failures, measured, metrics = untraced(wl, prepared,
                                                              args.seconds, host)
            measured["setup_s"] = import_s + setup_s
            metrics["setup_s"] = measured["setup_s"] * host.speed("setup")
            metrics = _report(metrics, units["end_to_end"])
    except Exhausted as exc:
        # a run cut short would compare a different job mix and length
        print(f"error: {exc}; the run needs more distinct inputs than this "
              "template has", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for job_id, problem in failures:
        print(f"FAILED {job_id}: {problem}", file=sys.stderr)
    stamp = {"environment": environment(args),
             "host_speed": {phase: host.speed(phase) for phase in host.phases}}
    if measured is not None:
        stamp["measured"] = measured
    print(json.dumps(stamp))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
