"""RL005 golden fixture: reached only through the ``repro.persist`` facade."""

import time


def save(path: str) -> float:
    return time.time()  # EXPECT: RL005


def good_stamp(clock) -> float:
    return clock()
