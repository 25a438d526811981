"""Test-session set-up shared by every test directory.

The suite tests the perpetua that Python would import: an installed one, or
the tree PYTHONPATH names.  Only when none is importable does it fall back to
this checkout's src, so the suite runs from a bare checkout without
installing and without PYTHONPATH.
"""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("perpetua") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
