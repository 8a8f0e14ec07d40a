"""Host speed probe: a fixed computation that does not use geomoment.

The benchmark runs on a few cores of a shared host whose speed moves by up
to 2x, in regimes lasting seconds to minutes; CPU time moves with wall time,
so the cause is the other tenants, not threads or steal.  Timing this probe
next to the calls measures how fast the host is at that moment, and scaling
each call's time by ``REFERENCE_S / probe`` reports it at the reference
speed.  The probe's work is of the same kind as the library's: small dense
solves, row updates on a tableau-sized array and interpreted arithmetic.
It never changes, so a faster or slower program still shows in full.
"""

import time

import numpy as np

# about the probe's seconds on the reference machine in its fast regime
# (see README.md)
REFERENCE_S = 0.001
REPEATS = 3
# the closed loop probes again after the first call that ends this long
# after the previous probe
EVERY_S = 0.5

_rng = np.random.default_rng(20011185)
_SYSTEMS = [(_rng.normal(size=(4, 4)) + 4.0 * np.eye(4), _rng.normal(size=4))
            for _ in range(64)]
_TABLEAU = _rng.normal(size=(32, 64))


def _work():
    acc = 0.0
    for M, b in _SYSTEMS:
        x = np.linalg.solve(M, b)
        acc += float(np.linalg.norm(M @ x - b))
    T = _TABLEAU.copy()
    for i in range(32):
        T -= 1e-3 * np.outer(T[:, i], T[i])
    for i in range(2000):
        acc += (i * i) % 7
    return acc + float(T[0, 0])


def probe():
    """Seconds of one probe: the fastest of a few back-to-back repeats, so a
    single interruption does not count as a slow host."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


class Probes:
    """Probes taken between the calls of one pass.  The first is taken at
    construction; ``after_call`` takes another once ``EVERY_S`` seconds have
    passed since the last one.  A call's time at the reference speed is its
    measured time scaled by the mean of the two probes around it."""

    def __init__(self):
        self.seconds = [probe()]
        self.segment_of = []
        self._last = time.perf_counter()

    def after_call(self):
        self.segment_of.append(len(self.seconds) - 1)
        if time.perf_counter() - self._last >= EVERY_S:
            self.seconds.append(probe())
            self._last = time.perf_counter()

    def scale(self, latencies):
        """The measured latencies of the calls, in order, at the reference
        speed."""
        if self.segment_of[-1] == len(self.seconds) - 1:
            self.seconds.append(probe())
            self._last = time.perf_counter()
        p = np.array(self.seconds)
        factor = REFERENCE_S / (0.5 * (p[:-1] + p[1:]))
        return np.asarray(latencies) * factor[np.array(self.segment_of)]
