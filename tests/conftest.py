"""Shared test settings.

Property tests run under one derandomized Hypothesis profile with a fixed
example count and no example database, so every run of the suite draws the
same examples. The "adcradio-1000" profile is the same with 1,000 examples;
CI runs the whole suite under it with ``--hypothesis-profile adcradio-1000``.
"""

from hypothesis import settings

settings.register_profile(
    "adcradio", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.register_profile("adcradio-1000", settings.get_profile("adcradio"), max_examples=1000)
settings.load_profile("adcradio")
