"""The host's speed while a run measures, sampled with a fixed probe.

On a shared machine this process runs at a speed that changes from moment
to moment: other tenants' work on the same physical cores slows a
pure-Python loop here by up to about 1.5x, in bursts of a tenth of a second
to tens of seconds whose share drifts over minutes.  A 30 s run sees one
stretch of that drift, so raw timings of the same code on the same kind of
inputs moved by more than 25 % between runs a few minutes apart.

A fixed probe, an integer loop in plain Python that touches neither the
library nor any container object (so it never triggers the garbage
collector), is timed between jobs.  PROBE_SECONDS / probe time is the
host's speed relative to a reference host on which the probe takes
PROBE_SECONDS, which is about what it takes on the 2-vCPU Xeon VM the
benchmark was written on when that VM is quiet.  A job's speed is the mean
of that over the probe right before it and the first one after it; a
phase's speed is the mean over all its probes.  ``run.py`` multiplies each
job's time by the job's speed and the set-up time by the set-up's speed,
which gives times on the reference host.  The measured values are printed
beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

PROBE_LOOP = 13_000     # iterations of the probe's loop
PROBE_SECONDS = 0.001   # the probe's time on the reference host
PROBE_SPACING = 0.05    # seconds of job time per probe after a job


def probe():
    """Seconds taken by the probe's loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Probe times grouped by phase of the run."""

    def __init__(self):
        self.phases = {}
        self.last = None    # the latest probe time

    def sample(self, phase, n=1):
        times = [probe() for _ in range(n)]
        self.phases.setdefault(phase, []).extend(times)
        self.last = times[-1]
        return times

    def after_job(self, phase, latency):
        """Probes in proportion to the job time just spent, so that every
        stretch of job time is sampled alike; the job's speed."""
        before = self.last
        first = self.sample(phase, 1 + int(latency / PROBE_SPACING))[0]
        near = [first] if before is None else [before, first]
        return statistics.fmean(PROBE_SECONDS / t for t in near)

    def speed(self, phase):
        """Mean of PROBE_SECONDS / probe time over the phase's probes."""
        return statistics.fmean(PROBE_SECONDS / t for t in self.phases[phase])
