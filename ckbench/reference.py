"""The reference kernel: a fixed unit of host speed.

The host this benchmark runs on speeds up and slows down by about ±20%
in phases that last from seconds to minutes, and CPU time swings with
wall time, so the phases are not scheduling but throughput per CPU
second.  A run of 15-50 s often sits inside one phase, so no statistic
over one run's passes removes them.  The benchmark therefore times a
burst of this kernel every 20 ms while the ops run, and reports their
time in multiples of the mean burst (`wall_ref`, `cpu_ref`), next to the
raw seconds.

A burst is the work the program mostly does: it row-reduces a fixed
sparse matrix whose rows are dicts from words (tuples of generator
indices) to `Fraction`s, as the program's polynomials are.  It uses only
the standard library, so no change to the program changes its cost.  The
garbage collector is off during a burst, so that objects the program
keeps alive do not make the burst slower.
"""
from __future__ import annotations

import gc
import random
from fractions import Fraction

_RNG = random.Random(1201)
_WORDS = sorted({tuple(_RNG.randrange(4) for _ in range(_RNG.randint(1, 3)))
                 for _ in range(12)})[:8]
_ROWS = tuple(tuple((w, Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 9)))
                    for w in _WORDS)
              for _ in range(6))


def _reduce() -> tuple:
    """Reduced row echelon form of _ROWS; each row a sorted item tuple."""
    rows = [{w: q for w, q in row if q} for row in _ROWS]
    done = []
    for word in _WORDS:
        pivot = next((r for r in rows if r.get(word)), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = 1 / pivot[word]
        pivot = {w: q * inv for w, q in pivot.items()}
        for other in rows + done:
            f = other.get(word)
            if f:
                for w, q in pivot.items():
                    v = other.get(w, 0) - f * q
                    if v:
                        other[w] = v
                    else:
                        other.pop(w, None)
        done.append(pivot)
    return tuple(tuple(sorted(r.items())) for r in done)


EXPECTED = _reduce()


def burst() -> None:
    """One unit of reference work (about 1 ms); raises if its result
    ever differs from the first one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = _reduce()
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError("reference kernel gave a different result")
