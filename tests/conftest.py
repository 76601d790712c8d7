import pytest

from decoyqkd import GYS

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, with no example database on disk
    settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
    settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def gys():
    return GYS
