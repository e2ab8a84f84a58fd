"""Fixtures shared across the test packages."""

import numpy as np
import pytest


@pytest.fixture(scope="session")
def strip_flat_members():
    """``strip(source, target)``: copy a snapshot without its flat columns.

    Drops every ``flat__*`` member, giving a file whose manifest still
    reads but that every loader refuses.  Returns ``target``.
    """

    def strip(source, target):
        with np.load(source, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files if not name.startswith("flat__")}
        with open(target, "wb") as handle:
            np.savez(handle, **arrays)
        return target

    return strip
