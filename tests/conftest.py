"""Test-wide settings.  Hypothesis draws the same examples on every run
(derandomized) and sets no per-example deadline, so property tests
neither flake nor depend on the speed of a shared machine."""

from hypothesis import settings

settings.register_profile("barkfib", derandomize=True, deadline=None)
settings.load_profile("barkfib")
