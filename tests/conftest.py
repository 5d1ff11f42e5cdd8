"""Shared pytest set-up: hypothesis runs derandomized, so every run draws the
same examples and the suite stays deterministic."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("deterministic")
