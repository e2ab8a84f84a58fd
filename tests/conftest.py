"""Fixtures shared across the test packages."""

import json

import numpy as np
import pytest


@pytest.fixture(scope="session")
def strip_flat_members():
    """``strip(source, target)``: copy a snapshot without its flat columns.

    Drops every ``flat__*`` member and clears the manifest's ``flat`` flag,
    giving a file that only :func:`repro.persist.load_forest` restores.
    Returns ``target``.
    """

    def strip(source, target):
        with np.load(source, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files if not name.startswith("flat__")}
        manifest = json.loads(arrays["manifest"].tobytes().decode("utf-8"))
        manifest["flat"] = False
        arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8)
        with open(target, "wb") as handle:
            np.savez(handle, **arrays)
        return target

    return strip
