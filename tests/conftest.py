"""Hypothesis settings shared by every property test.

Examples run without a deadline: a completion's time varies with the
drawn ideal and with the machine's load, and a slow example is not a
failure.  Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("modgrob", deadline=None)
settings.load_profile("modgrob")
