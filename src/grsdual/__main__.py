"""`python -m grsdual`: the same command line as the `grsdual` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
