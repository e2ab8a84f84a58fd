"""RL003 golden fixture, disposer side: eviction may dispose via the API.

The model registry is the only module allowed to trigger segment disposal
— always through ``SharedColumnStore.dispose``, never a raw ``unlink``.
"""


def good_eviction_dispose(entry) -> None:
    # Tenant eviction unlinks the tenant's segment through the sanctioned
    # shared_mem API; allowed here by path.
    entry.store.dispose()


def bad_eviction_raw_unlink(entry) -> None:
    # Even the registry may not reach past the API to the raw handle.
    entry.shm.unlink()  # EXPECT: RL003
