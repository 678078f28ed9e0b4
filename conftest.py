"""Ensure the in-tree sources are importable when running pytest from the
repository root, independent of whether `pip install -e .` succeeded, and
pin the hypothesis suites to one derandomised profile so a run on CI and a
run here draw the same examples."""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

try:
    from hypothesis import settings
except ImportError:  # only the property suites need it
    pass
else:
    settings.register_profile("repro", derandomize=True)
    settings.load_profile("repro")
