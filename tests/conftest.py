"""One Hypothesis profile for the whole suite: every property runs
derandomized, with no example database and no deadline, so that each run
draws the same examples on every host."""

from hypothesis import settings

settings.register_profile("polyhead", deadline=None, derandomize=True, database=None)
settings.load_profile("polyhead")
