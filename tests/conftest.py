"""Shared test set-up."""

import os
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants it finds in the package source under its
# home directory, ``.hypothesis/`` in the working directory by default, even
# with no example database. Its pytest plugin does that while collecting,
# before any fixture runs, so the redirect happens when pytest imports this
# file, ahead of every test module.
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "ltseg-hypothesis"))
