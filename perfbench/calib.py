"""Machine-speed calibration for timings on a shared host.

On the shared 2-vCPU virtual machine (2.0 GHz) where these figures were
taken, each vCPU's speed flips between two levels about 1.65x apart,
independently of the other vCPU, for stretches of 0.5 s to 30 s.  CPU
time and wall time move together, so the host takes the speed away (a
busy hyperthread sibling, most likely), and the same job takes up to 1.6x
longer from one run to the next.

So a fixed probe that does not use the library is timed while every job
runs, from a SIGALRM handler every PERIOD_S, and EDGE_PROBES times right
after it.  The probe has two parts, because the host slows them by
different amounts: interpreter-level complex arithmetic and float
formatting with a small numpy Horner pass (like verify and the CSV writer),
and a Horner pass over 2 MB arrays (like grid and quadrature evaluation).
The speed factor is the geometric mean of the two parts' reference times
over their mean measured times; timings are reported in reference-speed
seconds, wall seconds (less the probes' own time) x that factor.  A faster
library lowers the job time and leaves the probe alone, so scaled figures
compare two versions of the code; raw wall figures are printed beside them.
"""

import signal
import statistics
import time

import numpy as np

# typical in-job probe part times on that machine; they set the unit, so
# scaled figures land near wall seconds there
REFERENCE_S = (0.00025, 0.0021)
PERIOD_S = 0.05
EDGE_PROBES = 5

_RNG = np.random.default_rng(0)
_SMALL_COEFFS = _RNG.standard_normal(8) + 1j * _RNG.standard_normal(8)
_SMALL_Z = 0.7 * (_RNG.uniform(-1, 1, 512) + 1j * _RNG.uniform(-1, 1, 512))
_LARGE_COEFFS = _RNG.standard_normal(3) + 0j
_LARGE_Z = 0.7 * (_RNG.uniform(-1, 1, (64, 2048)) + 1j * _RNG.uniform(-1, 1, (64, 2048)))


def _horner(coeffs, z):
    values = np.zeros_like(z)
    for c in coeffs:
        values = values * z + c
    return values


def probe() -> tuple[float, float]:
    """Wall times of the two probe parts."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(400):
        acc = acc * 0.5 + complex(k, -k) * 1e-6
    text = ",".join(repr(k * 0.1) for k in range(100))
    _horner(_SMALL_COEFFS, _SMALL_Z)
    t1 = time.perf_counter()
    _horner(_LARGE_COEFFS, _LARGE_Z)
    del acc, text
    return t1 - t0, time.perf_counter() - t1


def edge_probes() -> list[tuple[float, float]]:
    return [probe() for _ in range(EDGE_PROBES)]


def scale(samples: list) -> float:
    """Factor from wall seconds to reference-speed seconds."""
    small, large = zip(*samples)
    return (REFERENCE_S[0] / statistics.fmean(small)
            * REFERENCE_S[1] / statistics.fmean(large)) ** 0.5


class Sampler:
    """Runs the probe every PERIOD_S of wall time while the block runs.

    `spent` is the wall time the probes took, to subtract from the block.
    An inactive sampler takes no samples.  Traced runs use none, so that no
    probe time lands in spans and traced and untraced jobs are scaled alike,
    from the probes after each job.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False
