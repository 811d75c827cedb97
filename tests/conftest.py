"""Shared test configuration.

Hypothesis runs a derandomized example sequence with no per-example
deadline, so the property tests do not fail on a slow host.  The sequence
is fixed only for a fixed source tree: Hypothesis adds literal constants
from the package's source to its example pool, so editing a literal in
``src/`` can change which examples a property test draws.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
