"""The host-speed probe, and the scaling of measured times by it.

On a shared host the speed of one core drifts by up to a factor of two over
seconds to minutes, as other tenants come and go; the same op's wall and CPU
time drift with it.  A run therefore times, between every two ops, one probe:
a fixed slice of pure-stdlib work (Fraction arithmetic, tuples and a dict, the
kind of work weylkit's kernel does).  The probe does not touch weylkit, so no
change to the program changes its cost; only the host's speed does.

Each measured time is then reported at the reference speed: multiplied by
REFERENCE_PROBE_S over the probe time measured around it.  A time at the
reference speed is what the op would take on a host that runs the probe in
REFERENCE_PROBE_S.  The raw times are kept in each run record.
"""

import gc
from fractions import Fraction
from time import perf_counter

# The probe's time on an idle core of the 2-vCPU x86-64 machine the
# benchmark was written on; the unit of every time the benchmark reports.
REFERENCE_PROBE_S = 0.004

_ROUNDS = 24
_MATRIX = [[Fraction(i - j, 1 + (i * j) % 3) for j in range(6)] for i in range(6)]


def _work():
    seen = {}
    v = [Fraction(k, 2) for k in range(6)]
    for _ in range(_ROUNDS):
        v = [sum(row[j] * v[j] for j in range(6)) % 7 for row in _MATRIX]
        key = tuple(v)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def probe():
    """Time one slice of the fixed work, with the collector held off so that
    the slice never pays for collecting the program's objects; the slice
    frees all it allocates, so no collection is moved into the ops."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def warm_up():
    """Run the probe until the interpreter has specialised its code."""
    for _ in range(3):
        probe()


def at_reference(times, probes):
    """Scale time i by the mean of probes i and i + 1, the probes timed just
    before and just after it; `probes` has one more entry than `times`."""
    if len(probes) != len(times) + 1:
        raise ValueError("need one probe before every time and one after the last")
    return [t * 2 * REFERENCE_PROBE_S / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]
