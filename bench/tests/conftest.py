"""Make the benchmark's flat modules importable (``bench/`` is a script
directory, not a package): ``PYTHONPATH=src python -m pytest bench/tests -q``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
