"""``python -m curvecount``: the same command line as the ``curvecount``
script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
