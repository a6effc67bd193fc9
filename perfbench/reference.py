"""Host-speed reference: a fixed exact-arithmetic kernel that does not use mahlerlab.

The hosts this benchmark runs on change speed by tens of percent within
minutes, and a slow spell slows every fresh process alike.  Each pass times
the kernel before every item; `run.py` divides the pass's times by its host
factor, the pass's median kernel time over `NOMINAL_S`, so every time the
benchmark reports reads as on a host of one fixed speed.  On a 2-CPU cloud
host, thirty repeats of one pass spread by 0.29 to 0.39 of their median
(quartile distance) and by 0.06 to 0.07 after this scaling.

The kernel mixes the kinds of work mahlerlab does: Fraction elimination,
fraction-free integer elimination, and sets of faces cut from bitmasks.  It
runs with the garbage collector off, so the size of the heap the program
under test keeps does not change its time.  Never change the kernel or
`NOMINAL_S`: either would rescale every reported time.
"""

import gc
import random
import time
from fractions import Fraction

NOMINAL_S = 0.010


def _fraction_elimination() -> None:
    rng = random.Random(1)
    n = 6
    m = [[Fraction(rng.randint(-40, 40), rng.randint(1, 24)) for _ in range(n + 1)] for _ in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]


def _integer_elimination() -> None:
    rng = random.Random(2)
    n = 8
    a = [[rng.randint(-(10**6), 10**6) for _ in range(n)] for _ in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]


def _faces() -> None:
    rng = random.Random(3)
    masks = [rng.getrandbits(40) for _ in range(300)]
    faces = set()
    for a in masks[:2]:
        for b in masks:
            c = a & b
            if c:
                faces.add(frozenset(i for i in range(40) if c >> i & 1))
    sorted(faces, key=lambda s: (len(s), sorted(s)))


def kernel_seconds() -> float:
    """Time of one kernel run, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            _fraction_elimination()
        for _ in range(5):
            _integer_elimination()
        _faces()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
