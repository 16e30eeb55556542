"""Hypothesis settings for the property tests.

Examples are derived from each test's source, not drawn at random, and no
example database is kept, so a run of the suite is repeatable.  Hypothesis
also caches the constants it finds in the code under test; that cache goes
to the system's temporary directory instead of a ``.hypothesis/`` directory
in the working tree.
"""

import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("aftx", derandomize=True, deadline=None, database=None,
                          max_examples=30)
settings.load_profile("aftx")
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "aftx-hypothesis"))
