"""Shared test configuration.

Hypothesis runs a fixed example sequence with no per-example deadline, so
the property tests neither vary between runs nor fail on a slow host.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
