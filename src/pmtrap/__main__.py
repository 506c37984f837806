"""``python -m pmtrap``: the same command line as the ``pmtrap`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
