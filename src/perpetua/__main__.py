"""``python -m perpetua``: the perpetua command line (see perpetua.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
