"""Shared test configuration.

Hypothesis runs derandomized and without an example database, so that
every run of the suite draws the same examples.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")
