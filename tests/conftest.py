"""Shared test configuration."""

import os


def pytest_configure(config):
    # Hypothesis caches the constants it collects from the package's source in
    # its storage directory (./.hypothesis by default), even with no example
    # database; keep that cache inside pytest's own cache directory instead.
    cache = getattr(config, "cache", None)
    if cache is not None:
        os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", str(cache.mkdir("hypothesis")))
