"""Settings shared by every test module."""

import os
import tempfile

import pytest
from hypothesis import settings

from robust_lmoments import asymcov

# Property tests draw the same examples on every run, so that a failure
# repeats, and keep no example database.  Each test still sets its own
# example count.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

# Hypothesis also caches the constants it reads from the source; keep that
# cache in the system's temporary directory, out of the working tree.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    os.path.join(tempfile.gettempdir(), "robust-lmoments-hypothesis"),
)


@pytest.fixture(autouse=True)
def cold_table_slot():
    """Each test starts without the covariance table that the test before
    it may have left in asymcov's one-entry slot, so that a count of the
    work an entry takes does not depend on the order the tests run in."""
    asymcov._last_table = None
