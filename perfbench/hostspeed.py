"""Host-speed sampling, so that timings survive a host whose speed drifts.

The host this benchmark was defined on shares its cores with other tenants,
and its speed drifts by up to a fifth within a minute; CPU time drifts with
wall time, so it is contention, not lost time slices.  While a
``SpeedSampler`` is active, a SIGALRM timer interrupts the main thread every
``INTERVAL_S`` seconds and runs a short, fixed, henn-free numpy probe shaped
like the engine's kernels (rescaled product, rotate-add) on vectors of the
workload's length.  The probe works in buffers allocated once, so it touches
neither the heap that henn allocates from nor the page faults that freeing
there causes, and its speed does not depend on how henn lays out memory.
A timed window is then corrected in two ways:

* ``busy(t0, t1)`` subtracts the probes that ran inside it;
* ``speed(t0, t1)`` is the reference probe round over the median round of
  the probes inside it, so ``busy * speed`` reads as seconds on the defining
  host at a typical speed.

Signal handlers run between bytecodes of the main thread, so a probe never
overlaps henn code and each one lies wholly inside or outside any window
whose ends are read with ``time.perf_counter`` from that thread.
"""

import signal
import statistics
import time

import numpy as np

# Typical seconds per probe round, by vector length, on the defining host
# (Xeon, 2 vCPUs).  Only a scale: it cancels when two commits are compared.
REFERENCE_ROUND_S = {32768: 6.0e-4, 4096: 1.3e-4}
INTERVAL_S = 0.25        # between probes
PROBE_S = 0.01           # length of one probe
SCALE = 2.0 ** 30
SHIFT = 129


class Probe:
    """The fixed kernel mix, on one vector and two scratch buffers."""

    def __init__(self, slots):
        self.a = np.random.default_rng(0).uniform(-1.0, 1.0, slots)
        self.prod = np.empty(slots)
        self.rot = np.empty(slots)

    def round(self):
        a, prod, rot = self.a, self.prod, self.rot
        for _ in range(8):
            np.multiply(a, a, out=prod)             # rescaled product
            np.multiply(prod, SCALE, out=prod)
            np.rint(prod, out=prod)
            np.divide(prod, SCALE, out=prod)
            rot[:-SHIFT] = a[SHIFT:]                # a + roll(a, -SHIFT)
            rot[-SHIFT:] = a[:SHIFT]
            np.add(rot, a, out=rot)

    def round_s(self, seconds):
        """Seconds per round, run for about `seconds`."""
        t0 = time.perf_counter()
        rounds = 0
        while True:
            self.round()
            rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return elapsed / rounds


class SpeedSampler:
    """Context manager: probe every INTERVAL_S for PROBE_S while active."""

    def __init__(self, slots):
        self.reference = REFERENCE_ROUND_S[slots]
        self.samples = []      # (start, end, seconds per round)
        self._probe_kernel = Probe(slots)
        self._previous = None

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        per_round = self._probe_kernel.round_s(PROBE_S)
        self.samples.append((t0, time.perf_counter(), per_round))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _inside(self, t0, t1):
        return [s for s in self.samples if t0 <= s[0] and s[1] <= t1]

    def busy(self, t0, t1):
        """Seconds of [t0, t1] not spent in probes."""
        return (t1 - t0) - sum(e - s for s, e, _ in self._inside(t0, t1))

    def speed(self, t0, t1):
        """Reference round over the median round of the probes inside [t0, t1]
        (of all probes so far if none fell inside).  The median, because a
        single probe can be stalled by a burst that the window barely felt."""
        rounds = [r for _, _, r in self._inside(t0, t1)] or [r for _, _, r in self.samples]
        return self.reference / statistics.median(rounds) if rounds else 1.0
