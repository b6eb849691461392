"""Shared test configuration."""

import os


def pytest_configure(config):
    # Hypothesis caches the constants it collects from the package's source in
    # its storage directory (./.hypothesis by default), even with no example
    # database; keep that cache inside pytest's own cache directory instead.
    cache = getattr(config, "cache", None)
    if cache is not None:
        os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", str(cache.mkdir("hypothesis")))
    from hypothesis import settings

    # one profile for every property test: the same examples on every run, no
    # example database, and no deadline for the slower CLI properties; a test
    # sets only its max_examples
    settings.register_profile("alphagate", derandomize=True, database=None, deadline=None)
    settings.load_profile("alphagate")
