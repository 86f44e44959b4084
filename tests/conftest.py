"""Hypothesis settings for continuous integration.

With CI set in the environment, as GitHub Actions sets it, the "ci"
profile is loaded: a failing property then prints its
@reproduce_failure(...) line in the test log, so the failure can be
replayed on another machine without the local example database.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
