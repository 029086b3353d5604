"""Shared test settings.

Property tests run under a fixed hypothesis profile: derandomized, so every
run draws the same examples, with a bounded example count and no per-example
deadline, so the suite stays reproducible and its run time predictable.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("chaintrace", derandomize=True, max_examples=100, deadline=None, database=None)
    settings.load_profile("chaintrace")
