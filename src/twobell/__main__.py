"""``python -m twobell``: the same entry point as the ``twobell`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
