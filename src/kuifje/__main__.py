"""`python -m kuifje`: the command line, as `python -m kuifje.cli` runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
