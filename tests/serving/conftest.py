"""Shared serving fixtures."""

import pytest

from repro.serving import registry as registry_module


@pytest.fixture()
def built_stores(monkeypatch):
    """Every column store a registry (or engine) builds from here on, in build order."""
    real_store = registry_module.SharedColumnStore
    built = []

    def recorded_store(columns):
        store = real_store(columns)
        built.append(store)
        return store

    monkeypatch.setattr(registry_module, "SharedColumnStore", recorded_store)
    return built
