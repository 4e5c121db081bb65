"""Host-speed calibration.

Shared hosts change speed by up to a factor of two within seconds, when
another tenant takes the core's sibling or its cache. The benchmark brackets
every timed step with a fixed loop of interpreter work like the monitor's
own (calls, attribute reads, type tests, small objects made and dropped,
dict lookups over a table larger than the first-level caches) and rescales
the step's time to a reference host on which that loop takes
``REFERENCE_NS``. No program change can move the loop: it imports nothing
from the program, and every object it makes is freed at once, so it never
sets off a garbage collection.
"""

from __future__ import annotations

import random
import time

REFERENCE_NS = 1_000_000
ROUNDS = 2500
_SIZE = 1 << 15
_WORDS = tuple(f"w{i}" for i in range(_SIZE))
_INDEX = {word: i for i, word in enumerate(_WORDS)}
_ORDER = tuple(random.Random(7).randrange(_SIZE) for _ in range(ROUNDS))


class _Item:
    __slots__ = ("pos", "word")

    def __init__(self, pos: int, word: str) -> None:
        self.pos = pos
        self.word = word


def _step(item: _Item, acc: int) -> int:
    if isinstance(item.word, bool) or not isinstance(item.pos, int):
        return 0
    return (acc + item.pos + len(item.word)) % 1000003


def loop_ns() -> int:
    """Nanoseconds the calibration loop takes on this host right now."""
    words, index = _WORDS, _INDEX
    acc = 0
    t0 = time.perf_counter_ns()
    for i in _ORDER:
        word = words[i]
        acc = _step(_Item(index[word], word), acc)
    return time.perf_counter_ns() - t0


def factor(before_ns: int, after_ns: int) -> float:
    """Scale from this host's nanoseconds to reference nanoseconds, from
    the loop timed just before and just after a step."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)
