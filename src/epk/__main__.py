"""`python -m epk`: the command-line workbench of `epk.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
