"""A fixed kernel timed next to and during every case.

On a shared host the speed available to one process drifts by tens of
percent from one second to the next (measured here: the kernel's time
has a relative spread of 21% over 13 ms windows, 9% over 0.8 s and 5%
over 3.4 s, and the two CPUs drift independently), which swamps the
differences the benchmark has to resolve.  The drift is common to all
work on one CPU, so each case's wall time is divided by the
kernel's time measured on the same CPU right before, during (from a
timer signal) and right after the case, and multiplied by CAL_REF_S:
the result is the case's time in reference seconds, as it would read
on the same host at the speed at which one kernel round takes CAL_REF_S.

The kernel mixes the operations the program spends its time in: short
real FFTs with element-wise products (the spectral PDE layers), masked
arithmetic on a small 2-d array (the pointwise prox of the transport
solver), a complex exponential of an outer product with a matrix-vector
product (off-grid evaluation), and float formatting and parsing in pure
Python (the CSV formats).  It uses numpy and the
standard library only, so no change to coneflow can change its time.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# median time of one kernel round on the host the benchmark was defined
# on: a 2-core Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, one
# BLAS thread
CAL_REF_S = 0.0135 / 90
ROUNDS_AROUND = 90     # rounds timed before and after each case
ROUNDS_DURING = 30     # rounds timed at each tick inside a case
TICK_S = 0.2

_rng = np.random.default_rng(0)
_V = _rng.random(256)
_K = np.arange(129.0)
_SMALL = _rng.random((17, 16))
_PTS = _rng.random(64) * 6.0
_ROW = _rng.random(24).tolist()


def kernel_seconds(rounds: int = ROUNDS_AROUND) -> float:
    """Run the kernel; returns its wall time per round."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(rounds):
        spec = np.fft.rfft(_V)
        back = np.fft.irfft(spec * _K, n=256)
        acc += float(np.sum(back * back + _V))
        y = np.where(_SMALL > 0.5, _SMALL * 2.0, _SMALL - 1.0)
        acc += float(np.max(np.abs(np.maximum(y, 0.0) / (y + 1.5))))
        phase = np.exp(1j * np.outer(_PTS, _K[:33]))
        acc += float((phase @ _K[:33]).real.sum())
        text = ",".join("%.17g" % v for v in _ROW)
        acc += sum(float(field) for field in text.split(","))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return elapsed / rounds


class SpeedProbe:
    """Samples the kernel every TICK_S seconds while a case runs.

    The samples run on the main thread from a SIGALRM handler, so they
    see the same CPU as the case; their own time is recorded so that it
    can be taken out of the case's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_seconds(ROUNDS_DURING))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def to_reference(wall: float, round_times) -> float:
    """Wall seconds at the measured speed -> reference seconds."""
    return wall * CAL_REF_S / float(np.mean(round_times))
