"""Machine-speed probe: a fixed stdlib computation and its reference time.

On a shared host the machine's speed drifts, by up to a factor of two
between seconds and by +-20% between minutes, and every job speeds up or
slows down with it.  The benchmark times the probe next to each
measurement and reports durations in reference seconds: measured seconds
times REFERENCE_S / (probe time).  A reference second is a second at the
speed where the probe takes REFERENCE_S, which is about its median time on
a 2-vCPU x86-64 host under Python 3.11.

The probe's mix of tuple-keyed dict updates, integer gcds and Fraction
sums resembles the engine's inner loops, but it runs no engine code, so
no change to the engine can move it.  This module imports only what the
engine imports anyway.
"""

import math
import time
from fractions import Fraction

ITERATIONS = 30000
REFERENCE_S = 0.022


def probe_seconds() -> float:
    t0 = time.perf_counter()
    table, acc = {}, Fraction(0)
    for i in range(1, ITERATIONS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + math.gcd(i * 7919, 104729)
        if i % 8 == 0:
            acc += Fraction(i % 13, i % 7 + 1)
    return time.perf_counter() - t0
