"""Harness self-tests: ``python -m pytest bench/tests -q``.

Outside ``testpaths``, so the tier-1 suite does not collect them.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT_DIR = os.path.dirname(BENCH_DIR)

for path in (os.path.join(ROOT_DIR, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
