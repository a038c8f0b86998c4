"""Test-suite settings.

Property tests run under one registered ``hypothesis`` profile: examples are
derived from each test's name rather than drawn at random, so every run
checks the same inputs, and no example database is written.  Deadlines are
off because a shared host can stall any single example.
"""

from hypothesis import settings

settings.register_profile("dspn", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("dspn")
