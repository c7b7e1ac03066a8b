"""``python -m repro.obs`` — the ``repro-obs`` command line."""

import sys

from repro.obs.cli import main

if __name__ == "__main__":
    sys.exit(main())
