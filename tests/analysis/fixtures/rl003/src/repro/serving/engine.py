"""RL003 golden fixture: the engine module is a registry view, not a disposer.

Serving has one backend, the model registry, and it is the only module
allowed to dispose a segment; an engine that disposes its own store would
be a second lifecycle owner.
"""


def bad_engine_dispose(store) -> None:
    store.dispose()  # EXPECT: RL003
