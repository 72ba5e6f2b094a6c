"""Shared test settings.

Property tests draw their examples deterministically (`derandomize=True`), so
every run checks the same cases, and run without a per-example deadline, so a
slow phase of a loaded host does not fail them.
"""
from hypothesis import settings

settings.register_profile("dicebayes", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("dicebayes")
