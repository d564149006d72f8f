"""``python -m paritylab``: the command-line driver of ``harness.main``."""

import sys

from .harness import main

sys.exit(main())
