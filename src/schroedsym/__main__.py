"""``python -m schroedsym``: the same command line as the ``schroedsym`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
