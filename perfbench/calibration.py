"""Machine-speed calibration for a shared, noisy host.

On the 2-core machine this benchmark was built on, other tenants change the
speed of pure-Python code by 10-20% from one half-minute to the next, so raw
wall times of two identical runs disagree by more than any useful bound.
Every timed operation is therefore preceded by `kernel()`, a fixed piece of
pure-Python polynomial arithmetic like the F_p[x] inner loops, which uses
nothing from crtdhss. A time t measured next to a kernel time k is reported
as t * REFERENCE_S / k: the time the operation takes on a machine where the
kernel takes REFERENCE_S seconds, which is its typical time on an unloaded
2-core x86-64 VM under CPython 3.11. The raw times are printed beside them.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.000170

_P = 2**61 - 1
_F = (0x9E3779B97F4A7C15 % _P, 0xC2B2AE3D27D4EB4F % _P, 0x165667B19E3779F9 % _P, 0x27D4EB2F165667C5 % _P, 1)
_G = (0x85EBCA77C2B2AE63 % _P, 0x94D049BB133111EB % _P, 0xBF58476D1CE4E5B9 % _P, 0x2545F4914F6CDD1D % _P, 1)


def _rem(a: list, b: list) -> list:
    inv = pow(b[-1], -1, _P)
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] * inv % _P
        shift = len(a) - len(b)
        for j, c in enumerate(b):
            a[shift + j] = (a[shift + j] - q * c) % _P
        while a and a[-1] == 0:
            a.pop()
    return a


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time in seconds.

    Euclid's gcd of two fixed degree-4 polynomials over F_(2^61-1), written
    here from scratch, repeated: the same mix of list building, big-integer
    multiply-and-reduce and short loops that dominates the package's
    validation, yet independent of any change to the package.
    """
    start = time.perf_counter()
    for _ in range(6):
        a, b = list(_F), list(_G)
        while b:
            a, b = b, _rem(a, b)
    return time.perf_counter() - start


def scale(kernel_times) -> float:
    """Factor that turns raw times into reference-speed times."""
    return REFERENCE_S / statistics.median(kernel_times)
