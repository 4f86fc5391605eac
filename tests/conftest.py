"""Hypothesis profiles. Tier-1 runs the default one.

`--hypothesis-profile=long` is the longer, random search run before a
re-anchor: a test whose settings inherit the profile
(`tests/test_accepted_configs.py`) draws `max_examples` fresh examples.
"""

from hypothesis import settings

settings.register_profile("long", max_examples=2000)
