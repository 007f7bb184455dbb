"""Run with ``python -m pytest bench/tests`` from the repo root (these
tests are not part of the tier-1 ``testpaths``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
