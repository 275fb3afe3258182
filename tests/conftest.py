"""Shared test settings.

With ``CI`` set in the environment, Hypothesis runs under its ``ci``
profile: derandomized, so every run draws the same examples, and with no
deadline, so a slow runner cannot fail a test on timing alone.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
