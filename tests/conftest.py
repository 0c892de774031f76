"""Settings shared by every test module."""

import os
import tempfile

from hypothesis import settings

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
