"""``python3 benchmarks/e2e/run.py`` — the benchmark without PYTHONPATH set up.

Puts the repository root (not this directory) first on ``sys.path`` so the
package imports as ``benchmarks.e2e``; the command line is in ``cli.py``.
"""

import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())
