"""RL003 golden fixture: named shared memory and its tracker stay out of the package."""

import mmap
from multiprocessing import shared_memory  # EXPECT: RL003
from multiprocessing.resource_tracker import register  # EXPECT: RL003
import multiprocessing.resource_tracker as tracker  # reprolint: disable=RL003 -- fixture: suppression case


def good_anonymous_map(size: int) -> mmap.mmap:
    # An anonymous mapping has no name to leak and needs no tracker process.
    return mmap.mmap(-1, size)
