"""Suite-wide test settings.

Hypothesis derives its examples from each test's name instead of a random
seed, so every run of the suite tries the same inputs.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
