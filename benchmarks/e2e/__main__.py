"""``python -m benchmarks.e2e`` (from the repository root)."""

import sys

from .cli import main

sys.exit(main())
