import os

import pytest
from hypothesis import settings

from decoyqkd import GYS

# the same examples on every run, with no example database on disk
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
# HYPOTHESIS_PROFILE=thorough: new random examples on every run, ten times
# as many (tests/test_properties.py scales its own counts by this profile)
settings.register_profile(
    "thorough", derandomize=False, database=None, deadline=None, max_examples=1000
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))


@pytest.fixture(scope="session")
def gys():
    return GYS
