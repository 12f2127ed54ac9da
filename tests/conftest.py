"""Shared test settings.

Property tests run under one derandomized Hypothesis profile with a fixed
example count and no example database, so every run of the suite draws the
same examples.
"""

from hypothesis import settings

settings.register_profile(
    "adcradio", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("adcradio")
