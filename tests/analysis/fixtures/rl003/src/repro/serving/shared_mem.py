"""RL003 golden fixture, owner side: every create, attach and unlink is untracked.

Each ``SharedMemory(...)`` call and each ``.unlink()`` on a shm handle must
run inside the module's tracker-suppressing helper; outside it, the stdlib
registers the segment with the resource tracker and starts that process.
"""

from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory


@contextmanager
def _untracked():
    register, unregister = resource_tracker.register, resource_tracker.unregister
    resource_tracker.register = resource_tracker.unregister = lambda name, rtype: None
    try:
        yield
    finally:
        resource_tracker.register, resource_tracker.unregister = register, unregister


def good_create(size: int) -> shared_memory.SharedMemory:
    with _untracked():
        return shared_memory.SharedMemory(name="fixture", create=True, size=size)


def good_attach(name: str) -> shared_memory.SharedMemory:
    with _untracked():
        return shared_memory.SharedMemory(name=name, create=False)


def good_unlink(shm: shared_memory.SharedMemory) -> None:
    try:
        with _untracked():
            shm.unlink()
    except FileNotFoundError:
        pass


def bad_create(size: int) -> shared_memory.SharedMemory:
    # Ownership is no exemption: a tracked create starts the tracker.
    return shared_memory.SharedMemory(name="fixture", create=True, size=size)  # EXPECT: RL003


def bad_attach(name: str) -> shared_memory.SharedMemory:
    return shared_memory.SharedMemory(name=name, create=False)  # EXPECT: RL003


def bad_inline_patch(name: str) -> shared_memory.SharedMemory:
    # Patching the tracker by hand is not the helper: the rule wants one path.
    original = resource_tracker.register
    resource_tracker.register = lambda target, rtype: None
    try:
        return shared_memory.SharedMemory(name=name, create=False)  # EXPECT: RL003
    finally:
        resource_tracker.register = original


def bad_unlink(shm: shared_memory.SharedMemory) -> None:
    shm.unlink()  # EXPECT: RL003


def bad_unlink_after_the_block(shm: shared_memory.SharedMemory) -> None:
    with _untracked():
        shm.close()
    shm.unlink()  # EXPECT: RL003
