"""Every hypothesis test draws the same examples on every run, so a
failure found once is found again by the next run."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
