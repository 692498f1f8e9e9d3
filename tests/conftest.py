"""Session-wide test settings.

Hypothesis runs a fixed, derandomized set of examples with no example
database, so every run of the suite checks the same inputs.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, database=None, max_examples=100, deadline=None
)
settings.load_profile("deterministic")
